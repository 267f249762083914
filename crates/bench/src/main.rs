//! The `sap-bench` binary: the hermetic bench harness.
//!
//! ```text
//! cargo run -p sap-bench --release -- --suite core --out BENCH_pr4.json
//! cargo run -p sap-bench --release -- --suite core --smoke
//! cargo run -p sap-bench --release -- --suite core --workers 1,2,8
//! cargo run -p sap-bench --release -- --suite lp --smoke
//! ```
//!
//! `--smoke` shrinks the workloads to CI scale; `--out` writes the JSON
//! report to a file (stdout otherwise). The report is validated against
//! the `sap-bench/1` schema and its suite's invariants before it is
//! emitted, so a report that reaches disk is valid by construction.

use sap_bench::suite::SuiteConfig;
use sap_bench::{core_bench, lp_bench, obs_bench, overload_bench};

/// A suite's name, its runner, and the validator of its report.
type Suite = (&'static str, fn(&SuiteConfig) -> String, fn(&str) -> Vec<String>);

const SUITES: [Suite; 4] = [
    ("core", core_bench::run_core, core_bench::validate_core_report),
    ("lp", lp_bench::run_lp, lp_bench::validate_lp_report),
    ("overload", overload_bench::run_overload, overload_bench::validate_overload_report),
    ("obs", obs_bench::run_obs, obs_bench::validate_obs_report),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut suite = "core".to_string();
    let mut out: Option<String> = None;
    let mut config = SuiteConfig::default();
    let mut it = args.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--suite" => suite = it.next().unwrap_or_else(|| usage("--suite needs a name")),
            "--out" => out = Some(it.next().unwrap_or_else(|| usage("--out needs a path"))),
            "--smoke" => config.smoke = true,
            "--workers" => {
                let list = it.next().unwrap_or_else(|| usage("--workers needs a list"));
                config.workers = list
                    .split(',')
                    .map(|w| {
                        w.trim()
                            .parse::<usize>()
                            .unwrap_or_else(|_| usage("--workers takes integers"))
                    })
                    .collect();
                if config.workers.is_empty() {
                    usage("--workers needs at least one count");
                }
            }
            other => usage(&format!("unknown argument {other:?}")),
        }
    }

    let Some(&(_, run, validate)) = SUITES.iter().find(|(name, _, _)| *name == suite) else {
        usage(&format!("unknown suite {suite:?} (available: {})", suite_names(", ")));
    };
    eprintln!(
        "running suite {suite} (smoke: {}, workers: {:?})…",
        config.smoke, config.workers
    );
    let doc = run(&config);
    let errors = validate(&doc);
    if !errors.is_empty() {
        for e in &errors {
            eprintln!("invariant violated: {e}");
        }
        std::process::exit(1);
    }
    match out {
        Some(path) => {
            std::fs::write(&path, &doc).expect("write report");
            eprintln!("wrote {path}");
        }
        None => println!("{doc}"),
    }
}

fn suite_names(sep: &str) -> String {
    SUITES.iter().map(|(name, _, _)| *name).collect::<Vec<_>>().join(sep)
}

fn usage(msg: &str) -> ! {
    eprintln!("sap-bench: {msg}");
    eprintln!(
        "usage: sap-bench [--suite {}] [--smoke] [--workers 1,8] [--out report.json]",
        suite_names("|")
    );
    std::process::exit(2);
}
