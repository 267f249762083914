//! `cargo xtask` — workspace maintenance CLI.
//!
//! ```text
//! cargo xtask lint [--root DIR] [--deny LINT|all] [--warn LINT|all]
//!                  [--format text|json] [--baseline FILE]
//!                  [--write-baseline FILE] [--list]
//! ```
//!
//! Exit codes: 0 clean (warnings allowed), 1 denied findings, 2 usage
//! or I/O error.

use std::io::Write;

use xtask::{
    apply_baseline, parse_baseline, report_to_json, run_lint, Config, Level, Levels,
    Lint, ALL_LINTS,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(real_main(&args));
}

/// Print to stdout, tolerating a closed pipe: `xtask lint | head` must
/// not panic with a backtrace. On a write error the process exits
/// immediately with `code` — the verdict already computed for the run —
/// so a truncating reader still observes the right status.
fn out(code: i32, text: std::fmt::Arguments<'_>) {
    let stdout = std::io::stdout();
    if writeln!(stdout.lock(), "{text}").is_err() {
        std::process::exit(code);
    }
}

fn real_main(args: &[String]) -> i32 {
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return 2;
    };
    match cmd.as_str() {
        "lint" => lint_cmd(rest),
        "--help" | "-h" | "help" => {
            out(0, format_args!("{USAGE}"));
            0
        }
        other => {
            eprintln!("unknown task `{other}`\n{USAGE}");
            2
        }
    }
}

const USAGE: &str = "\
usage: cargo xtask lint [options]

options:
  --root DIR             workspace root (default: walk up from the cwd)
  --deny LINT            treat LINT as an error (default for every lint); `all` applies to all
  --warn LINT            report LINT but do not fail the run; `all` applies to all
  --format text|json     output format (json is schema-versioned and deterministic)
  --json                 shorthand for --format json
  --baseline FILE        drop findings recorded in FILE; fail only on new ones
  --write-baseline FILE  write the current findings to FILE as the new baseline
  --list                 print the lint set and exit

lints: h1 (hermetic deps)  p1 (panic freedom)  f1 (float equality)
       v1 (validator coverage)  d1 (docs)  r1 (panic isolation)
       a1 (memo-key clones)  n1 (nondeterminism)  o1 (overflow)
       v2 (validator reachability)  b1 (checkpoint coverage)
       t2 (counter registry)  allow (directive hygiene)";

fn lint_cmd(args: &[String]) -> i32 {
    let mut levels = Levels::default();
    let mut root: Option<std::path::PathBuf> = None;
    let mut json = false;
    let mut baseline: Option<std::path::PathBuf> = None;
    let mut write_baseline: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--json" => json = true,
            "--format" => {
                i += 1;
                match args.get(i).map(String::as_str) {
                    Some("json") => json = true,
                    Some("text") => json = false,
                    _ => {
                        eprintln!("--format needs `text` or `json`\n{USAGE}");
                        return 2;
                    }
                }
            }
            "--baseline" => {
                i += 1;
                let Some(file) = args.get(i) else {
                    eprintln!("--baseline needs a file\n{USAGE}");
                    return 2;
                };
                baseline = Some(file.into());
            }
            "--write-baseline" => {
                i += 1;
                let Some(file) = args.get(i) else {
                    eprintln!("--write-baseline needs a file\n{USAGE}");
                    return 2;
                };
                write_baseline = Some(file.into());
            }
            "--list" => {
                for lint in ALL_LINTS {
                    out(0, format_args!("{:6} {}", lint.name(), lint.describe()));
                }
                return 0;
            }
            "--root" => {
                i += 1;
                let Some(dir) = args.get(i) else {
                    eprintln!("--root needs a directory\n{USAGE}");
                    return 2;
                };
                root = Some(dir.into());
            }
            "--deny" | "--warn" => {
                let level = if args[i] == "--deny" { Level::Deny } else { Level::Warn };
                i += 1;
                let Some(name) = args.get(i) else {
                    eprintln!("--deny/--warn need a lint name or `all`\n{USAGE}");
                    return 2;
                };
                if name == "all" {
                    levels.set_all(level);
                } else if let Some(lint) = Lint::from_name(name) {
                    levels.set(lint, level);
                } else {
                    eprintln!("unknown lint `{name}`\n{USAGE}");
                    return 2;
                }
            }
            other => {
                eprintln!("unknown option `{other}`\n{USAGE}");
                return 2;
            }
        }
        i += 1;
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().unwrap_or_else(|_| ".".into());
            match xtask::workspace::find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("could not find a workspace root above {}", cwd.display());
                    return 2;
                }
            }
        }
    };

    let cfg = Config { root, levels, json };
    let mut report = match run_lint(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return 2;
        }
    };

    if let Some(file) = write_baseline {
        let doc = report_to_json(&report, &cfg.levels);
        if let Err(e) = std::fs::write(&file, format!("{doc}\n")) {
            eprintln!("xtask lint: cannot write baseline {}: {e}", file.display());
            return 2;
        }
        out(0, format_args!(
            "xtask lint: baselined {} finding(s) into {}",
            report.findings.len(),
            file.display()
        ));
        return 0;
    }

    if let Some(file) = baseline {
        let text = match std::fs::read_to_string(&file) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("xtask lint: cannot read baseline {}: {e}", file.display());
                return 2;
            }
        };
        let entries = match parse_baseline(&text) {
            Ok(es) => es,
            Err(e) => {
                eprintln!("xtask lint: {}: {e}", file.display());
                return 2;
            }
        };
        apply_baseline(&mut report, &entries, &cfg.levels);
    }

    let code = if report.denied > 0 { 1 } else { 0 };
    if cfg.json {
        out(code, format_args!("{}", report_to_json(&report, &cfg.levels)));
    } else {
        for f in &report.findings {
            let tag = match cfg.levels.get(f.lint) {
                Level::Deny => "error",
                Level::Warn => "warning",
            };
            out(code, format_args!("{f} ({tag})"));
        }
        if report.findings.is_empty() {
            let note = if report.baselined > 0 {
                format!(" ({} baselined)", report.baselined)
            } else {
                String::new()
            };
            out(code, format_args!("xtask lint: clean ({} lints){note}", ALL_LINTS.len()));
        } else {
            out(
                code,
                format_args!(
                    "xtask lint: {} denied, {} warned, {} baselined",
                    report.denied, report.warned, report.baselined
                ),
            );
        }
    }
    code
}
