//! The report scaffold every `sap-bench` suite is built on.
//!
//! A suite is a `run` function that renders a JSON report and a
//! `validate` function that lists the report's violated invariants
//! (the binary's `SUITES` table pairs them). This module holds what the
//! suites share:
//!
//! * [`SuiteConfig`], parsed from the command line;
//! * [`report`], the one writer of the
//!   `"schema","suite","smoke","hardware_threads","workers"` prefix;
//! * [`parse_report`], the one validator prelude (parse, then check the
//!   schema and suite tags);
//! * the driver worker sweep ([`sweep`] / [`check_sweep`]) that both
//!   the `core` and the `lp` suite run, and [`fmt_ms`].
//!
//! Wall-clock fields are recorded for honesty and never validated:
//! they vary with the machine (`hardware_threads` is in every report so
//! a flat speedup curve on a small machine is legible as such).

use std::time::Instant;

use sap_algs::{try_solve, SapParams};
use sap_core::budget::Budget;
use sap_core::json::Json;
use sap_core::{Instance, Recorder, SpanData};

/// The schema tag every report carries.
const SCHEMA: &str = "sap-bench/1";

/// Suite configuration, parsed from the CLI by the `sap-bench` binary.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// Shrinks every family to seconds of runtime (the CI gate).
    pub smoke: bool,
    /// Worker counts to sweep in the fan-out family.
    pub workers: Vec<usize>,
}

impl Default for SuiteConfig {
    fn default() -> Self {
        SuiteConfig { smoke: false, workers: vec![1, 8] }
    }
}

/// Formats a wall-clock (or wall-derived) figure with 3 decimals.
pub fn fmt_ms(x: f64) -> String {
    format!("{x:.3}")
}

/// Renders a whole report: the shared prefix, then `fields` — the
/// suite's own comma-separated `"key":value` members.
pub fn report(suite: &str, config: &SuiteConfig, fields: &str) -> String {
    let hw = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let workers: Vec<String> = config.workers.iter().map(|w| w.to_string()).collect();
    format!(
        "{{\"schema\":\"{SCHEMA}\",\"suite\":\"{suite}\",\"smoke\":{},\
         \"hardware_threads\":{hw},\"workers\":[{}],{fields}}}",
        config.smoke,
        workers.join(",")
    )
}

/// Parses a report and checks its schema and suite tags. `Ok` carries
/// the document and any tag violations, to which the caller appends its
/// own; `Err` carries the sole violation of a document that is not JSON.
pub fn parse_report(doc: &str, suite: &str) -> Result<(Json, Vec<String>), Vec<String>> {
    let v = crate::json::parse(doc).map_err(|e| vec![format!("not valid JSON: {e}")])?;
    let mut errors = Vec::new();
    if v.get("schema").and_then(|s| s.as_str()) != Some(SCHEMA) {
        errors.push("schema tag missing or wrong".to_string());
    }
    if v.get("suite").and_then(|s| s.as_str()) != Some(suite) {
        errors.push("suite tag missing or wrong".to_string());
    }
    Ok((v, errors))
}

/// The `workloads` array of the family called `name`, if the report has
/// one.
pub fn family<'a>(v: &'a Json, name: &str) -> Option<&'a [Json]> {
    v.get("families")?
        .as_array()?
        .iter()
        .find(|f| f.get("name").and_then(|n| n.as_str()) == Some(name))?
        .get("workloads")?
        .as_array()
}

/// The `id` of a workload entry, `"?"` when absent.
pub fn workload_id(w: &Json) -> &str {
    w.get("id").and_then(|s| s.as_str()).unwrap_or("?")
}

/// One timed end-to-end driver solve at one worker count.
pub struct DriverRun {
    /// Fan-out width of the solve.
    pub workers: usize,
    /// Wall-clock of the solve (machine-dependent).
    pub wall_ms: f64,
    /// Deterministic work units attributed by the solve report.
    pub work_units: u64,
    /// Weight of the returned solution.
    pub weight: u64,
    /// LP pivots, summed over the whole span tree.
    pub lp_etas: u64,
    /// LP basis refactorizations, summed over the whole span tree.
    pub lp_refactors: u64,
    report_json: String,
    telemetry_json: String,
}

/// Sums the counter `name` over the whole span tree (the `lp.*` counters
/// live under `small → stratum → lp.solve`, not at the root).
fn deep_counter(node: &SpanData, name: &str) -> u64 {
    let own = node.counters.iter().find(|(k, _)| *k == name).map_or(0, |&(_, v)| v);
    node.children.iter().fold(own, |acc, c| acc.saturating_add(deep_counter(c, name)))
}

fn run_driver(inst: &Instance, workers: usize) -> DriverRun {
    let ids = inst.all_ids();
    let rec = Recorder::new();
    let budget = Budget::unlimited().with_telemetry(rec.handle());
    let params = SapParams { workers, ..Default::default() };
    let start = Instant::now();
    let (sol, report) = try_solve(inst, &ids, &params, &budget).expect("driver is total");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let snap = rec.snapshot();
    DriverRun {
        workers,
        wall_ms,
        // The driver meters each arm on its own child budget; the report
        // carries the merged per-arm profiles, so this is the full
        // deterministic work-unit total of the solve.
        work_units: report.attributed_work(),
        weight: sol.weight(inst),
        lp_etas: deep_counter(&snap, "lp.etas"),
        lp_refactors: deep_counter(&snap, "lp.refactors"),
        report_json: report.to_json_string(),
        telemetry_json: rec.to_json_string(),
    }
}

/// A worker sweep of one instance through the end-to-end driver.
pub struct Sweep {
    /// One run per configured worker count, in configuration order.
    pub runs: Vec<DriverRun>,
    /// True when every run matched the first one's weight, work units,
    /// report JSON and telemetry JSON.
    pub deterministic: bool,
}

impl Sweep {
    /// The first run, the reference the others are compared against.
    pub fn base(&self) -> &DriverRun {
        &self.runs[0]
    }

    /// The `"runs"` array of a sweep workload entry.
    pub fn runs_json(&self) -> String {
        let runs: Vec<String> = self
            .runs
            .iter()
            .map(|r| {
                format!(
                    "{{\"workers\":{},\"wall_ms\":{},\"work_units\":{},\"weight\":{}}}",
                    r.workers,
                    fmt_ms(r.wall_ms),
                    r.work_units,
                    r.weight
                )
            })
            .collect();
        format!("[{}]", runs.join(","))
    }
}

/// Solves `inst` once per worker count in `workers` (at least one).
pub fn sweep(inst: &Instance, workers: &[usize]) -> Sweep {
    let runs: Vec<DriverRun> = workers.iter().map(|&w| run_driver(inst, w)).collect();
    let base = &runs[0];
    let deterministic = runs.iter().all(|r| {
        r.weight == base.weight
            && r.work_units == base.work_units
            && r.report_json == base.report_json
            && r.telemetry_json == base.telemetry_json
    });
    Sweep { runs, deterministic }
}

/// Checks one sweep workload entry: it has runs, `deterministic` is
/// true, and every run reports the entry's `work_units` total (the
/// fan-out must not create or lose metered work).
pub fn check_sweep(w: &Json, errors: &mut Vec<String>) {
    let id = workload_id(w);
    if w.get("deterministic").and_then(|d| d.as_bool()) != Some(true) {
        errors.push(format!("{id}: runs were not byte-identical"));
    }
    let total = w.get("work_units").and_then(|u| u.as_u64());
    let runs = w.get("runs").and_then(|r| r.as_array()).unwrap_or(&[]);
    if runs.is_empty() {
        errors.push(format!("{id}: no runs"));
    }
    for r in runs {
        if r.get("work_units").and_then(|u| u.as_u64()) != total {
            errors.push(format!("{id}: work units not conserved across runs"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_opens_with_the_shared_prefix() {
        let config = SuiteConfig { smoke: true, workers: vec![1, 2] };
        let doc = report("demo", &config, "\"x\":1");
        assert!(doc.starts_with(
            "{\"schema\":\"sap-bench/1\",\"suite\":\"demo\",\"smoke\":true,\"hardware_threads\":"
        ));
        assert!(doc.ends_with(",\"workers\":[1,2],\"x\":1}"), "{doc}");
        let (_, errors) = parse_report(&doc, "demo").expect("valid JSON");
        assert!(errors.is_empty(), "{errors:?}");
    }

    #[test]
    fn every_validator_rejects_another_suites_tag() {
        let validators: [(&str, fn(&str) -> Vec<String>); 4] = [
            ("core", crate::core_bench::validate_core_report),
            ("lp", crate::lp_bench::validate_lp_report),
            ("overload", crate::overload_bench::validate_overload_report),
            ("obs", crate::obs_bench::validate_obs_report),
        ];
        for (name, validate) in validators {
            for (other, _) in validators.iter().filter(|(o, _)| *o != name) {
                let doc = format!("{{\"schema\":\"sap-bench/1\",\"suite\":\"{other}\"}}");
                let errors = validate(&doc);
                assert!(
                    errors.iter().any(|e| e == "suite tag missing or wrong"),
                    "{name} validator accepted a report tagged {other}: {errors:?}"
                );
            }
        }
    }
}
