//! Workspace maintenance tasks for the storage-allocation repo.
//!
//! The only task today is `lint`: a zero-dependency, line/token-level
//! static-analysis pass that enforces the invariants the SAP algorithm
//! crates rely on but `rustc` cannot check:
//!
//! * **h1 — hermeticity.** Every manifest in the default build may only
//!   use `path` dependencies (dev-deps and `optional = true` deps are
//!   exempt). The build environment has no registry access, so a single
//!   version dependency breaks `cargo build` before any code compiles.
//! * **p1 — panic freedom.** Library code of the algorithm crates must
//!   not call `unwrap`/`expect`/`panic!`/`unreachable!` or index-chain
//!   its way into a bounds panic; fallible paths return `SapError`.
//! * **f1 — float equality.** The ε-classification and LP code must
//!   compare floats with tolerances, never `==`/`!=`.
//! * **v1 — validator coverage.** Every public algorithm entry point in
//!   `sap-algs` that returns a `Solution` must feed it through the
//!   sap-core feasibility validator under `debug_assertions`.
//! * **d1 — docs.** Public functions and structs in `sap-core` and
//!   `sap-algs` carry doc comments.
//! * **r1 — panic isolation.** Driver code in `sap-algs` must not
//!   re-raise captured panics with `resume_unwind`: portfolio arms are
//!   isolated (`sap_core::run_isolated`) and failures become report
//!   entries, not process aborts.
//! * **a1 — memo-key cloning.** Library code in `rectpack` must not
//!   `.clone()` / `.to_vec()` constraint sets, memo keys or floor
//!   constraints: those values are hash-consed through the
//!   `ConstraintPool` arena, and a clone on the MWIS recursion's hot
//!   path silently reintroduces the per-visit allocations the interner
//!   removed.
//!
//! On top of the per-line lints, a semantic layer (token stream →
//! per-file item table → conservative cross-file call graph; see
//! [`tokens`], [`items`], [`callgraph`], [`semantic`]) powers four
//! whole-program lints:
//!
//! * **n1 — nondeterminism.** `HashMap`/`HashSet` iteration or drain in
//!   code reachable from a `Solution` / `SolveReport` / JSON-export
//!   constructor (std's randomized hasher silently breaks the
//!   byte-identical output contract), and `Instant::now` /
//!   `SystemTime::now` outside the opt-in timing paths.
//! * **o1 — overflow.** Unchecked `+` / `*` / `<<` on capacity- or
//!   weight-typed `u64`s in the solver cores; use `checked_*` /
//!   `saturating_*` or justify the bound.
//! * **v2 — validator reachability.** Upgrades v1 from doc-adjacency to
//!   call-graph proof: every pub `sap-algs` path returning a `Solution`
//!   must reach a validator call.
//! * **b1 — checkpoint coverage.** Every loop in a fallible `try_*`
//!   core whose trip count scales with the instance must reach a
//!   `Budget::checkpoint` in its body or callees.
//! * **t2 — counter registry.** Every string-keyed telemetry counter
//!   incremented in the crates must be asserted in the root test suite
//!   or documented, so dead and typo'd counters cannot accumulate.
//!
//! Any finding can be suppressed with `// lint:allow(<name>) — why`
//! (or `# lint:allow(h1) — why` in TOML). The justification text is
//! mandatory: an allow without one is itself reported under the
//! `allow` pseudo-lint, and a directive that no longer suppresses
//! anything is reported as stale.

pub mod callgraph;
pub mod items;
pub mod manifest;
pub mod rust_lints;
pub mod semantic;
pub mod source;
pub mod tokens;
pub mod workspace;

use std::fmt;
use std::path::PathBuf;

/// The set of lints `xtask lint` knows about, plus the `allow`
/// pseudo-lint that polices the suppression mechanism itself.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Lint {
    /// Hermetic manifests: no registry dependencies in the default build.
    H1,
    /// Panic-freedom in algorithm library code.
    P1,
    /// No float `==`/`!=` in ε-classification / LP code.
    F1,
    /// Solutions returned by `sap-algs` pass the feasibility validator.
    V1,
    /// Doc comments on public items of `sap-core` / `sap-algs`.
    D1,
    /// No `resume_unwind` in `sap-algs` driver code (panics must be
    /// isolated and reported, not re-raised).
    R1,
    /// No `.clone()` / `.to_vec()` on memo-key values (constraint sets,
    /// memo keys, floor constraints) in `rectpack` library code — they
    /// are interned through the `ConstraintPool` arena.
    A1,
    /// No `HashMap`/`HashSet` iteration (randomized order) reachable
    /// from output constructors; no wall-clock reads outside the
    /// opt-in timing paths.
    N1,
    /// No unchecked `+` / `*` / `<<` on capacity/weight-typed `u64`s in
    /// the solver cores.
    O1,
    /// Call-graph proof that every pub `sap-algs` path returning a
    /// `Solution` reaches a validator call.
    V2,
    /// Every loop in a fallible `try_*` core must reach a
    /// `Budget::checkpoint` in its body or callees.
    B1,
    /// Every incremented telemetry counter name is asserted by the root
    /// test suite or documented.
    T2,
    /// Malformed `lint:allow` directives (missing justification,
    /// unknown lint name, stale directive).
    Allow,
}

/// All lints, in reporting order.
pub const ALL_LINTS: [Lint; 13] = [
    Lint::H1,
    Lint::P1,
    Lint::F1,
    Lint::V1,
    Lint::D1,
    Lint::R1,
    Lint::A1,
    Lint::N1,
    Lint::O1,
    Lint::V2,
    Lint::B1,
    Lint::T2,
    Lint::Allow,
];

impl Lint {
    /// The short name used in diagnostics and on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Lint::H1 => "h1",
            Lint::P1 => "p1",
            Lint::F1 => "f1",
            Lint::V1 => "v1",
            Lint::D1 => "d1",
            Lint::R1 => "r1",
            Lint::A1 => "a1",
            Lint::N1 => "n1",
            Lint::O1 => "o1",
            Lint::V2 => "v2",
            Lint::B1 => "b1",
            Lint::T2 => "t2",
            Lint::Allow => "allow",
        }
    }

    /// One-line description shown by `xtask lint --list`.
    pub fn describe(self) -> &'static str {
        match self {
            Lint::H1 => "non-path registry dependency in a default-build manifest",
            Lint::P1 => "panicking construct in algorithm library code",
            Lint::F1 => "float == / != comparison in classification or LP code",
            Lint::V1 => "pub fn returning a Solution without a debug-mode validator call",
            Lint::D1 => "pub fn / pub struct without a doc comment",
            Lint::R1 => "resume_unwind in sap-algs driver code (isolate and report instead)",
            Lint::A1 => "clone()/to_vec() of a memo-key value in rectpack hot-path code",
            Lint::N1 => "hash-order iteration or wall-clock read on an output-affecting path",
            Lint::O1 => "unchecked +/*/<< on a capacity/weight-typed u64 in a solver core",
            Lint::V2 => "pub Solution path with no validator call reachable in the call graph",
            Lint::B1 => "loop in a try_* core with no Budget::checkpoint in body or callees",
            Lint::T2 => "telemetry counter incremented but never asserted or documented",
            Lint::Allow => "malformed or stale lint:allow directive",
        }
    }

    /// Parse a lint name as written on the command line or inside a
    /// `lint:allow(...)` directive.
    pub fn from_name(name: &str) -> Option<Lint> {
        match name {
            "h1" => Some(Lint::H1),
            "p1" => Some(Lint::P1),
            "f1" => Some(Lint::F1),
            "v1" => Some(Lint::V1),
            "d1" => Some(Lint::D1),
            "r1" => Some(Lint::R1),
            "a1" => Some(Lint::A1),
            "n1" => Some(Lint::N1),
            "o1" => Some(Lint::O1),
            "v2" => Some(Lint::V2),
            "b1" => Some(Lint::B1),
            "t2" => Some(Lint::T2),
            "allow" => Some(Lint::Allow),
            _ => None,
        }
    }

    fn index(self) -> usize {
        match self {
            Lint::H1 => 0,
            Lint::P1 => 1,
            Lint::F1 => 2,
            Lint::V1 => 3,
            Lint::D1 => 4,
            Lint::R1 => 5,
            Lint::A1 => 6,
            Lint::N1 => 7,
            Lint::O1 => 8,
            Lint::V2 => 9,
            Lint::B1 => 10,
            Lint::T2 => 11,
            Lint::Allow => 12,
        }
    }
}

/// Severity assigned to a lint for one run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Level {
    /// Findings are reported and make the run exit nonzero.
    Deny,
    /// Findings are reported but do not affect the exit code.
    Warn,
}

/// Per-lint severity table. The default denies everything: the tree is
/// expected to stay lint-clean.
#[derive(Clone, Debug)]
pub struct Levels([Level; 13]);

impl Default for Levels {
    fn default() -> Self {
        Levels([Level::Deny; 13])
    }
}

impl Levels {
    /// Severity of `lint` under this table.
    pub fn get(&self, lint: Lint) -> Level {
        self.0[lint.index()]
    }

    /// Set one lint's severity.
    pub fn set(&mut self, lint: Lint, level: Level) {
        self.0[lint.index()] = level;
    }

    /// Set every lint's severity.
    pub fn set_all(&mut self, level: Level) {
        self.0 = [level; 13];
    }
}

/// A single diagnostic: `file:line: [lint] message`.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Which lint fired.
    pub lint: Lint,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint.name(), self.message)
    }
}

/// Everything one `xtask lint` invocation needs to know.
#[derive(Clone, Debug)]
pub struct Config {
    /// Workspace root (the directory holding the root `Cargo.toml`).
    pub root: PathBuf,
    /// Per-lint severities.
    pub levels: Levels,
    /// Emit machine-readable JSON instead of `file:line:` diagnostics.
    pub json: bool,
}

/// Outcome of a lint run, before rendering.
#[derive(Debug)]
pub struct Report {
    /// All findings, sorted by (file, line, lint).
    pub findings: Vec<Finding>,
    /// How many findings are at `Deny` severity.
    pub denied: usize,
    /// How many findings are at `Warn` severity.
    pub warned: usize,
    /// How many findings were dropped by the baseline file.
    pub baselined: usize,
}

/// Run every lint over the workspace at `cfg.root`.
pub fn run_lint(cfg: &Config) -> Result<Report, String> {
    let ws = workspace::discover(&cfg.root)?;
    let mut findings = Vec::new();
    for m in &ws.manifests {
        let text = std::fs::read_to_string(&m.path)
            .map_err(|e| format!("{}: {e}", m.path.display()))?;
        findings.extend(manifest::lint_manifest(&m.rel, &text));
    }
    let mut sources = Vec::new();
    for f in &ws.rust_files {
        // The linter does not lint its own sources: they necessarily
        // spell out every needle (`panic!`, `lint:allow(...)`) in docs,
        // messages and tests. Its manifest stays h1-checked above.
        if f.rel.starts_with("crates/xtask/") {
            continue;
        }
        let text = std::fs::read_to_string(&f.path)
            .map_err(|e| format!("{}: {e}", f.path.display()))?;
        sources.push(source::SourceFile::parse(&f.rel, &text));
    }
    for src in &sources {
        findings.extend(rust_lints::lint_source(src));
    }
    findings.extend(semantic::lint_semantic(&sources));
    findings.extend(semantic::lint_t2(&cfg.root, &sources));
    // Only after every lint (per-file and whole-program) has had the
    // chance to consume a directive can unconsumed ones be called stale.
    for src in &sources {
        findings.extend(src.stale_allow_findings());
    }
    findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.lint).cmp(&(b.file.as_str(), b.line, b.lint))
    });
    let denied = findings.iter().filter(|f| cfg.levels.get(f.lint) == Level::Deny).count();
    let warned = findings.len() - denied;
    Ok(Report { findings, denied, warned, baselined: 0 })
}

/// Version of the JSON export / baseline schema. Bump when the shape of
/// the document (not the set of lints) changes.
pub const JSON_SCHEMA_VERSION: u32 = 1;

/// Render a report as compact JSON (hand-rolled: xtask takes no deps).
/// Findings are pre-sorted by `run_lint` and every map key is emitted
/// in a fixed order, so two runs over the same tree are byte-identical.
pub fn report_to_json(report: &Report, levels: &Levels) -> String {
    let mut out = format!("{{\"v\":{JSON_SCHEMA_VERSION},\"findings\":[");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"lint\":\"{}\",\"level\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            f.lint.name(),
            match levels.get(f.lint) {
                Level::Deny => "deny",
                Level::Warn => "warn",
            },
            json_escape(&f.file),
            f.line,
            json_escape(&f.message),
        ));
    }
    out.push_str(&format!(
        "],\"denied\":{},\"warned\":{},\"baselined\":{}}}",
        report.denied, report.warned, report.baselined
    ));
    out
}

/// The identity of a baselined finding: `(lint, file, message)`. Line
/// numbers are deliberately excluded so unrelated edits that shift a
/// baselined site do not resurrect it.
pub type BaselineEntry = (String, String, String);

/// Parse a baseline file — the same schema-versioned document written
/// by `--format json` / `--write-baseline`.
pub fn parse_baseline(text: &str) -> Result<Vec<BaselineEntry>, String> {
    let trimmed = text.trim();
    let marker = format!("{{\"v\":{JSON_SCHEMA_VERSION},");
    if !trimmed.starts_with(&marker) {
        return Err(format!(
            "baseline is not a v{JSON_SCHEMA_VERSION} lint export (expected it to start \
             with `{marker}`)"
        ));
    }
    let mut out = Vec::new();
    let mut rest = trimmed;
    while let Some(pos) = rest.find("{\"lint\":\"") {
        let (lint, after) = read_json_string(&rest[pos + "{\"lint\":\"".len()..])?;
        let Some(fpos) = after.find("\"file\":\"") else {
            return Err("baseline entry without a \"file\" key".to_string());
        };
        let (file, after_file) = read_json_string(&after[fpos + "\"file\":\"".len()..])?;
        let Some(mpos) = after_file.find("\"message\":\"") else {
            return Err("baseline entry without a \"message\" key".to_string());
        };
        let (message, tail) =
            read_json_string(&after_file[mpos + "\"message\":\"".len()..])?;
        out.push((lint, file, message));
        rest = tail;
    }
    Ok(out)
}

/// Read a JSON string body starting right after its opening quote;
/// returns the unescaped value and the text after the closing quote.
fn read_json_string(s: &str) -> Result<(String, &str), String> {
    let mut out = String::new();
    let mut chars = s.char_indices();
    while let Some((i, c)) = chars.next() {
        match c {
            '"' => return Ok((out, &s[i + 1..])),
            '\\' => match chars.next() {
                Some((_, '"')) => out.push('"'),
                Some((_, '\\')) => out.push('\\'),
                Some((_, 'n')) => out.push('\n'),
                Some((_, 't')) => out.push('\t'),
                Some((_, 'r')) => out.push('\r'),
                Some((_, 'u')) => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let Some((_, h)) = chars.next() else {
                            return Err("truncated \\u escape in baseline".to_string());
                        };
                        code = code * 16
                            + h.to_digit(16)
                                .ok_or("bad \\u escape in baseline".to_string())?;
                    }
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                other => {
                    return Err(format!("bad escape {:?} in baseline string", other))
                }
            },
            c => out.push(c),
        }
    }
    Err("unterminated string in baseline".to_string())
}

/// Drop findings whose `(lint, file, message)` identity appears in the
/// baseline, recomputing the deny/warn counts. CI therefore fails only
/// on findings *new* relative to the committed baseline.
pub fn apply_baseline(report: &mut Report, baseline: &[BaselineEntry], levels: &Levels) {
    let before = report.findings.len();
    report.findings.retain(|f| {
        !baseline.iter().any(|(l, file, msg)| {
            l == f.lint.name() && file == &f.file && msg == &f.message
        })
    });
    report.baselined = before - report.findings.len();
    report.denied = report
        .findings
        .iter()
        .filter(|f| levels.get(f.lint) == Level::Deny)
        .count();
    report.warned = report.findings.len() - report.denied;
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_names_round_trip() {
        for lint in ALL_LINTS {
            assert_eq!(Lint::from_name(lint.name()), Some(lint));
        }
        assert_eq!(Lint::from_name("z9"), None);
    }

    #[test]
    fn levels_default_deny_and_override() {
        let mut levels = Levels::default();
        assert_eq!(levels.get(Lint::P1), Level::Deny);
        levels.set(Lint::P1, Level::Warn);
        assert_eq!(levels.get(Lint::P1), Level::Warn);
        assert_eq!(levels.get(Lint::H1), Level::Deny);
        levels.set_all(Level::Warn);
        assert_eq!(levels.get(Lint::H1), Level::Warn);
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn baseline_round_trips_through_the_json_export() {
        let report = Report {
            findings: vec![
                Finding {
                    lint: Lint::N1,
                    file: "crates/algs/src/x.rs".into(),
                    line: 7,
                    message: "iterates a \"HashMap\"\nacross lines".into(),
                },
                Finding {
                    lint: Lint::O1,
                    file: "crates/lp/src/y.rs".into(),
                    line: 3,
                    message: "unchecked `cap + w`".into(),
                },
            ],
            denied: 2,
            warned: 0,
            baselined: 0,
        };
        let levels = Levels::default();
        let json = report_to_json(&report, &levels);
        let baseline = parse_baseline(&json).unwrap();
        assert_eq!(baseline.len(), 2);
        assert_eq!(baseline[0].0, "n1");
        assert_eq!(baseline[0].2, "iterates a \"HashMap\"\nacross lines");

        // Same findings at shifted lines are still baselined out.
        let mut next = Report {
            findings: report
                .findings
                .iter()
                .map(|f| Finding { line: f.line + 40, ..f.clone() })
                .collect(),
            denied: 2,
            warned: 0,
            baselined: 0,
        };
        apply_baseline(&mut next, &baseline, &levels);
        assert!(next.findings.is_empty());
        assert_eq!(next.baselined, 2);
        assert_eq!(next.denied, 0);
    }

    #[test]
    fn baseline_rejects_wrong_schema() {
        assert!(parse_baseline("{\"findings\":[]}").is_err());
        assert!(parse_baseline("{\"v\":99,\"findings\":[]}").is_err());
    }
}
