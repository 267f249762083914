//! Output checks: every response is validated against its line's
//! instance, the server's shutdown totals are reconciled with what the
//! clients sent and read, and the exact per-layer counts of the check
//! prefix are collected and compared with earlier runs of the same seed.

use std::collections::BTreeMap;
use std::path::Path;

use storage_alloc::io::{JsonDto, SolutionDto};
use storage_alloc::json::{self, Json};
use storage_alloc::sap_algs::baselines::greedy_sap_best;
use storage_alloc::sap_core::{Fnv1a, Instance};

use crate::socket::SocketRun;
use crate::workload::{warm_slot, Lines, CLIENTS, WARM_POOL};

/// How many line-level problems are spelled out before the rest are
/// only counted.
const MAX_REPORTED: usize = 5;

/// Validates one response against the instance of its line: status
/// `ok`, a solution that decodes, matches its stored weight
/// ([`SolutionDto::to_solution_verified`]) and is feasible
/// ([`storage_alloc::sap_core::SapSolution::validate`]), and a
/// top-level and report weight equal to the recomputed weight. Returns
/// the parsed response.
pub fn check_response(response: &str, instance: &Instance) -> Result<Json, String> {
    let doc = json::parse(response).map_err(|e| format!("unparsable response: {e}"))?;
    match doc.get("status").and_then(Json::as_str) {
        Some("ok") => {}
        Some(status) => return Err(format!("status {status:?}: {response}")),
        None => return Err("response without a status".to_string()),
    }
    let solution = doc.get("solution").ok_or("response without a solution")?;
    let solution = SolutionDto::from_json(solution)?.to_solution_verified(instance)?;
    solution
        .validate(instance)
        .map_err(|e| format!("infeasible solution: {e}"))?;
    let weight = solution.weight(instance);
    let top = doc.get("weight").and_then(Json::as_u64);
    let reported = doc
        .get("report")
        .and_then(|r| r.get("weight"))
        .and_then(Json::as_u64);
    if top != Some(weight) || reported != Some(weight) {
        return Err(format!(
            "weight {top:?} / report weight {reported:?} differ from the recomputed {weight}"
        ));
    }
    Ok(doc)
}

fn child<'a>(span: &'a Json, name: &str) -> Option<&'a Json> {
    span.get("children")?
        .as_array()?
        .iter()
        .find(|c| c.get("name").and_then(Json::as_str) == Some(name))
}

fn counter(span: Option<&Json>, name: &str) -> u64 {
    span.and_then(|s| s.get("counters"))
        .and_then(|c| c.get(name))
        .and_then(Json::as_u64)
        .unwrap_or(0)
}

/// Adds one solve's exact counts — read from the `report` and
/// `telemetry` objects its response embeds — to `counts`. The greedy
/// baseline's weight is not in the response unless greedy won, so it is
/// recomputed here.
fn add_solve_counts(counts: &mut BTreeMap<String, u64>, doc: &Json, instance: &Instance) {
    let mut add = |name: &str, n: u64| *counts.entry(name.to_string()).or_insert(0) += n;
    let report = doc.get("report");
    if let Some(winner) = report.and_then(|r| r.get("winner")).and_then(Json::as_str) {
        add(&format!("winner.{winner}"), 1);
    }
    let fallbacks = report
        .and_then(|r| r.get("fallbacks"))
        .and_then(Json::as_array)
        .unwrap_or(&[]);
    add(
        "lemma13.fallbacks",
        fallbacks
            .iter()
            .filter(|f| f.as_str() == Some("lemma13"))
            .count() as u64,
    );
    for arm in report
        .and_then(|r| r.get("arms"))
        .and_then(Json::as_array)
        .unwrap_or(&[])
    {
        let name = arm.get("arm").and_then(Json::as_str).unwrap_or("?");
        let work = |class: &str| {
            arm.get("work")
                .and_then(|w| w.get(class))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        match name {
            "small" => add("small.work.lp_pivot", work("lp_pivot")),
            "medium" => add("medium.work.dp_row", work("dp_row")),
            "large" => add("large.work.pack_sweep", work("pack_sweep")),
            _ => {}
        }
        if name != "greedy" {
            add(
                &format!("{name}.weight"),
                arm.get("weight").and_then(Json::as_u64).unwrap_or(0),
            );
        }
    }
    add(
        "greedy.weight",
        greedy_sap_best(instance, &instance.all_ids()).weight(instance),
    );
    let spans = doc.get("telemetry").and_then(|t| t.get("spans"));
    let small = spans.and_then(|s| child(s, "small"));
    let lp = small.and_then(|s| child(s, "lp.solve"));
    let medium = spans.and_then(|s| child(s, "medium"));
    let large = spans.and_then(|s| child(s, "large"));
    add("small.strata", counter(small, "strata"));
    add("lp.etas", counter(lp, "lp.etas"));
    add("lp.refactors", counter(lp, "lp.refactors"));
    add("lp.pricing.scanned", counter(lp, "lp.pricing.scanned"));
    add("medium.classes", counter(medium, "classes"));
    add("medium.classes.exact", counter(medium, "classes.exact"));
    add("mwis.allocs", counter(large, "mwis.allocs"));
}

/// The result of checking one socket run.
#[derive(Debug, Default)]
pub struct Checked {
    /// Timed lines sent.
    pub attempted: usize,
    /// Timed lines not answered `ok` with a feasible, correctly weighed
    /// solution.
    pub failed: usize,
    /// Every failed check, line-level ones capped at a few.
    pub problems: Vec<String>,
    /// Sum of returned weights over the check prefix.
    pub weight_total: u64,
    /// Exact counts over the solves of the check set: the prefix lines
    /// on cold workloads, the warm-up pass on `warm-repeat`.
    pub counts: BTreeMap<String, u64>,
    /// FNV-1a digest of the prefix responses, in connection order.
    pub digest: u64,
}

impl Checked {
    fn line_failed(&mut self, what: String) {
        if self.failed < MAX_REPORTED {
            self.problems.push(what);
        }
        self.failed += 1;
    }
}

/// Checks every response of a run and collects the prefix's counts.
pub fn check_run(lines: &Lines, run: &SocketRun, prefix: usize) -> Checked {
    let mut out = Checked {
        attempted: run.timed_lines(),
        ..Default::default()
    };
    let cold = lines.workload().is_cold();
    let mut digest = Fnv1a::new();
    // Bytes the prefix responses put on the wire.
    let mut response_bytes = 0u64;
    let mut warm_weights = vec![None; if cold { 0 } else { WARM_POOL }];
    if !cold {
        for (slot, response) in run.warmup.iter().enumerate() {
            match check_response(response, &lines.pool()[slot]) {
                Ok(doc) => {
                    warm_weights[slot] = doc.get("weight").and_then(Json::as_u64);
                    add_solve_counts(&mut out.counts, &doc, &lines.pool()[slot]);
                }
                Err(e) => out.problems.push(format!("warm-up slot {slot}: {e}")),
            }
        }
    }
    for (c, conn) in run.conns.iter().enumerate() {
        let answered = conn.samples.len();
        if answered < prefix {
            out.problems.push(format!(
                "connection {c} answered {answered} of {prefix} prefix lines"
            ));
        }
        if cold {
            for (k, response) in conn.responses.iter().enumerate() {
                let instance = lines.instance(c, k);
                match check_response(response, &instance) {
                    Ok(doc) if k < prefix => {
                        out.weight_total += doc.get("weight").and_then(Json::as_u64).unwrap_or(0);
                        add_solve_counts(&mut out.counts, &doc, &instance);
                    }
                    Ok(_) => {}
                    Err(e) => out.line_failed(format!("connection {c} line {k}: {e}")),
                }
            }
        } else {
            for &k in &conn.mismatched {
                out.line_failed(format!(
                    "connection {c} line {k}: response differs from its warm-up bytes"
                ));
            }
            for k in 0..prefix.min(answered) {
                let slot = warm_slot(c, k);
                out.weight_total += warm_weights[slot].unwrap_or(0);
            }
        }
        for k in 0..prefix.min(answered) {
            let response = if cold {
                &conn.responses[k]
            } else {
                &run.warmup[warm_slot(c, k)]
            };
            digest.write_bytes(response.as_bytes());
            response_bytes += response.len() as u64 + 1;
        }
    }
    out.digest = digest.finish();
    out.counts.insert("net.bytes_out".into(), response_bytes);
    let timed = out.attempted as u64;
    reconcile(&mut out, run, cold, timed);
    out
}

/// Checks the server's shutdown totals against what the clients did:
/// every timed line of a cold run missed the cache, and every timed line
/// of `warm-repeat` hit it.
fn reconcile(out: &mut Checked, run: &SocketRun, cold: bool, timed: u64) {
    let s = run.summary;
    let sent = timed + if cold { 0 } else { WARM_POOL as u64 };
    let mut expect = |what: &str, got: u64, want: u64| {
        if got != want {
            out.problems
                .push(format!("server summary: {what} is {got}, expected {want}"));
        }
    };
    expect("conns", s.conns, CLIENTS as u64);
    expect("lines", s.lines, sent);
    expect("responses", s.responses, sent);
    expect("ok responses", s.ok, sent);
    expect("bytes in", s.bytes_in, run.client_bytes_out);
    expect("bytes out", s.bytes_out, run.client_bytes_in);
    expect("cache hits", s.hits, if cold { 0 } else { timed });
    expect(
        "cache misses",
        s.misses,
        if cold { timed } else { WARM_POOL as u64 },
    );
}

/// An FNV-1a digest of the files that make up the code under test: the
/// server binary and the benchmark's own executable, which recomputes
/// the greedy baseline. Records are kept per digest, so a change to the
/// program starts a fresh record instead of failing against the old one.
pub fn code_digest(files: &[&Path]) -> Result<u64, String> {
    let mut h = Fnv1a::new();
    for file in files {
        let bytes = std::fs::read(file).map_err(|e| format!("{}: {e}", file.display()))?;
        h.write_bytes(&bytes);
    }
    Ok(h.finish())
}

/// The part of a run that must repeat exactly for the same seed and
/// the same code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Check-prefix lines per connection.
    pub prefix: usize,
    /// Sum of returned weights over the prefix.
    pub weight_total: u64,
    /// Exact counts over the check set.
    pub counts: BTreeMap<String, u64>,
    /// Digest of the prefix responses.
    pub digest: u64,
}

impl Record {
    /// The record of a checked run.
    pub fn of(lines: &Lines, prefix: usize, checked: &Checked) -> Record {
        Record {
            workload: lines.workload().name().to_string(),
            seed: lines.seed(),
            prefix,
            weight_total: checked.weight_total,
            counts: checked.counts.clone(),
            digest: checked.digest,
        }
    }

    fn to_json(&self) -> Json {
        Json::Object(vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("seed".into(), Json::UInt(self.seed)),
            ("prefix".into(), Json::UInt(self.prefix as u64)),
            ("weight_total".into(), Json::UInt(self.weight_total)),
            (
                "counts".into(),
                Json::Object(
                    self.counts
                        .iter()
                        .map(|(k, v)| (k.clone(), Json::UInt(*v)))
                        .collect(),
                ),
            ),
            ("digest".into(), Json::Str(format!("{:016x}", self.digest))),
        ])
    }

    fn from_json(doc: &Json) -> Result<Record, String> {
        let u = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or(format!("no integer {key:?}"))
        };
        let Some(Json::Object(pairs)) = doc.get("counts") else {
            return Err("no \"counts\" object".to_string());
        };
        let counts = pairs
            .iter()
            .map(|(k, v)| {
                v.as_u64()
                    .map(|n| (k.clone(), n))
                    .ok_or(format!("count {k:?} is not an integer"))
            })
            .collect::<Result<_, _>>()?;
        let digest = doc
            .get("digest")
            .and_then(Json::as_str)
            .ok_or("no \"digest\"")?;
        Ok(Record {
            workload: doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or("no \"workload\"")?
                .to_string(),
            seed: u("seed")?,
            prefix: u("prefix")? as usize,
            weight_total: u("weight_total")?,
            counts,
            digest: u64::from_str_radix(digest, 16)
                .map_err(|_| format!("bad digest {digest:?}"))?,
        })
    }

    /// Names every field that differs from `other`.
    fn diff(&self, other: &Record) -> Vec<String> {
        let mut out = Vec::new();
        let mut field = |name: &str, a: String, b: String| {
            if a != b {
                out.push(format!("{name}: {a} now, {b} before"));
            }
        };
        field("workload", self.workload.clone(), other.workload.clone());
        field("seed", self.seed.to_string(), other.seed.to_string());
        field("prefix", self.prefix.to_string(), other.prefix.to_string());
        field(
            "weight_total",
            self.weight_total.to_string(),
            other.weight_total.to_string(),
        );
        field(
            "digest",
            format!("{:016x}", self.digest),
            format!("{:016x}", other.digest),
        );
        let names: std::collections::BTreeSet<&String> =
            self.counts.keys().chain(other.counts.keys()).collect();
        for name in names {
            let show = |c: &BTreeMap<String, u64>| {
                c.get(name).map_or("absent".to_string(), u64::to_string)
            };
            field(name, show(&self.counts), show(&other.counts));
        }
        out
    }

    /// Compares with the record an earlier run of the same workload,
    /// seed and code left at `path`. When there is none, stores this one
    /// if `clean` (the run had no failed check), so a bad run never
    /// becomes the reference. Returns whether a comparison was made. A
    /// record that cannot be read, or that differs, is an error.
    pub fn check_or_store(&self, path: &Path, clean: bool) -> Result<bool, String> {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let earlier = json::parse(&text)
                    .map_err(|e| e.to_string())
                    .and_then(|doc| Record::from_json(&doc))
                    .map_err(|e| format!("unreadable result file {}: {e}", path.display()))?;
                let diffs = self.diff(&earlier);
                if diffs.is_empty() {
                    Ok(true)
                } else {
                    Err(format!(
                        "not deterministic against {}: {}",
                        path.display(),
                        diffs.join("; ")
                    ))
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound && !clean => Ok(false),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if let Some(dir) = path.parent() {
                    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
                }
                std::fs::write(path, self.to_json().to_string_compact() + "\n")
                    .map_err(|e| format!("{}: {e}", path.display()))?;
                Ok(false)
            }
            Err(e) => Err(format!("{}: {e}", path.display())),
        }
    }
}
