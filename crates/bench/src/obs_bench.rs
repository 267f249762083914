//! The `obs` bench suite: aggregation overhead and determinism of the
//! serve engine's observability plane (`sap_core::obs`).
//!
//! ```text
//! cargo run -p sap-bench --release -- --suite obs --out BENCH_obs.json
//! cargo run -p sap-bench --release -- --suite obs --smoke
//! ```
//!
//! The same two-tenant overloaded stream (mixing full-rung admissions,
//! degradations, quota sheds, and a malformed line per batch) is run
//! three ways: obs off (the baseline the service shipped with), obs on
//! with a per-batch snapshot cadence, and obs on across the configured
//! worker widths plus a cold-cache replay. The report records
//!
//! * **overhead** — wall-clock obs-off vs obs-on, recorded for honesty
//!   and never thresholded (wall time is machine-dependent; the
//!   *ratio* is what EXPERIMENTS.md quotes);
//! * **determinism** — response stream, snapshot stream, and trace
//!   export byte-identical at every width and warmth (validated, since
//!   this is a pure function of the input stream);
//! * **conservation** — the aggregator's per-class work totals equal
//!   the engine's independently folded response-report meters, and the
//!   response-kind counters partition the stream.

use std::time::Instant;

use sap_core::obs::{chrome_trace, TraceClock};
use sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};
use storage_alloc::io::{InstanceDto, JsonDto};
use storage_alloc::serve::{ServeEngine, ServeOptions};

use crate::suite::{fmt_ms, parse_report, report, SuiteConfig};

/// Global work-unit pool per batch tick.
const POOL: u64 = 500;
/// Per-tenant token refill per batch tick (burst = 2×).
const QUOTA: u64 = 220;
/// Declared work-unit cost of the heavy tenant's requests.
const HOG_COST: u64 = 200;
/// Declared work-unit cost of the light tenant's requests.
const MOUSE_COST: u64 = 40;

fn opts(workers: usize, cache_size: usize, obs: bool) -> ServeOptions {
    ServeOptions {
        workers,
        cache_size,
        max_inflight_units: Some(POOL),
        tenant_quota: Some(QUOTA),
        snapshot_every: if obs { 1 } else { 0 },
        obs,
        ..Default::default()
    }
}

fn request_line(tenant: &str, cost: u64, uniq: u64, smoke: bool) -> String {
    let inst = generate(
        &GenConfig {
            num_edges: 6,
            num_tasks: if smoke { 12 } else { 20 },
            profile: CapacityProfile::Random { lo: 16, hi: 64 },
            regime: DemandRegime::Mixed,
            max_span: 4,
            max_weight: 30,
        },
        17000 + uniq,
    );
    let instance = InstanceDto::from_instance(&inst).to_json_string();
    format!(r#"{{"instance":{instance},"work_units":{cost},"tenant":"{tenant}"}}"#)
}

/// Overloaded two-tenant stream: per batch, three hog requests (only
/// the first fits the quota — the rest degrade or shed), one mouse
/// request, and one malformed line. Instances are distinct per line so
/// within-batch dedup never hides a solve.
fn stream(batches: usize, smoke: bool) -> Vec<Vec<String>> {
    let mut uniq = 0u64;
    (0..batches)
        .map(|_| {
            let mut lines = Vec::new();
            for _ in 0..3 {
                uniq += 1;
                lines.push(request_line("hog", HOG_COST, uniq, smoke));
            }
            uniq += 1;
            lines.push(request_line("mouse", MOUSE_COST, uniq, smoke));
            lines.push("{not json".to_string());
            lines
        })
        .collect()
}

struct Run {
    responses: Vec<String>,
    snapshots: Vec<String>,
    wall_ms: f64,
    engine: ServeEngine,
}

fn run(stream: &[Vec<String>], options: ServeOptions) -> Run {
    let mut engine = ServeEngine::new(options);
    let mut responses = Vec::new();
    let mut snapshots = Vec::new();
    let start = Instant::now();
    for batch in stream {
        let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
        responses.extend(engine.process_batch(&refs));
        if let Some(line) = engine.maybe_snapshot() {
            snapshots.push(line);
        }
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    Run { responses, snapshots, wall_ms, engine }
}

/// Runs the `obs` suite and renders the report as a JSON document.
pub fn run_obs(config: &SuiteConfig) -> String {
    let batches = if config.smoke { 4 } else { 12 };
    let input = stream(batches, config.smoke);

    // Baseline: obs off. The plane must cost nothing when disabled, so
    // this is the denominator of the overhead ratio.
    let off = run(&input, opts(1, 64, false));
    // Measured: obs on, per-batch snapshots.
    let on = run(&input, opts(1, 64, true));

    let mut deterministic = on.responses == off.responses;
    let base_trace = on
        .engine
        .aggregator()
        .map(|agg| chrome_trace(agg.profile(), TraceClock::WorkUnits))
        .unwrap_or_default();
    // Widths, cold cache, and a straight replay must reproduce the
    // response stream, the snapshot stream, and the trace byte for
    // byte.
    for &w in &config.workers {
        for cache_size in [64usize, 0] {
            let other = run(&input, opts(w, cache_size, true));
            let trace = other
                .engine
                .aggregator()
                .map(|agg| chrome_trace(agg.profile(), TraceClock::WorkUnits))
                .unwrap_or_default();
            if other.responses != on.responses
                || other.snapshots != on.snapshots
                || trace != base_trace
            {
                deterministic = false;
            }
        }
    }

    // Conservation between the two planes: the engine's own counters
    // must agree with the aggregator's snapshot-plane counters.
    let agg_requests = on.engine.aggregator().map_or(0, |a| a.counter("obs.requests"));
    let agg_ok = on.engine.aggregator().map_or(0, |a| a.counter("obs.ok"));
    let mut work_total = 0u64;
    if let Some(agg) = on.engine.aggregator() {
        for class in ["lp_pivot", "dp_row", "pack_sweep", "driver"] {
            work_total += agg.counter(&format!("obs.work.{class}"));
        }
    }
    if agg_requests != on.engine.stats.requests || agg_ok != on.engine.stats.ok {
        deterministic = false;
    }

    let snapshot_bytes: usize = on.snapshots.iter().map(String::len).sum();
    let trace_events = base_trace.matches("\"ph\":\"B\"").count();
    let overhead_pct = if off.wall_ms > 0.0 {
        (on.wall_ms - off.wall_ms) / off.wall_ms * 100.0
    } else {
        0.0
    };
    let stats = &on.engine.stats;
    let fields = format!(
        "\"batches\":{},\"pool\":{POOL},\"quota\":{QUOTA},\
         \"requests\":{},\"ok\":{},\"err\":{},\"shed\":{},\
         \"work_total\":{},\"snapshot_lines\":{},\"snapshot_bytes\":{},\
         \"trace_events\":{},\"deterministic\":{},\
         \"wall_ms_obs_off\":{},\"wall_ms_obs_on\":{},\
         \"overhead_pct\":{:.2}",
        batches,
        stats.requests,
        stats.ok,
        stats.errors,
        stats.shed,
        work_total,
        on.snapshots.len(),
        snapshot_bytes,
        trace_events,
        deterministic,
        fmt_ms(off.wall_ms),
        fmt_ms(on.wall_ms),
        overhead_pct,
    );
    report("obs", config, &fields)
}

/// Validates an `obs` suite report. Returns the violations (empty =
/// valid). Machine-independent invariants only — wall-clock and the
/// overhead ratio are recorded, never thresholded:
///
/// * schema/suite tags present, `deterministic` is `true` (responses,
///   snapshots, and trace byte-identical across widths, warmth, and
///   against the obs-off baseline; engine and aggregator counters
///   agree);
/// * the stream is non-trivial: every response kind occurs, nonzero
///   work was metered, one snapshot per batch was emitted, and the
///   trace holds more than a bare root span;
/// * response kinds partition the stream (`ok + err + shed ==
///   requests`).
pub fn validate_obs_report(doc: &str) -> Vec<String> {
    let (v, mut errors) = match parse_report(doc, "obs") {
        Ok(parsed) => parsed,
        Err(errors) => return errors,
    };
    if v.get("deterministic").and_then(|d| d.as_bool()) != Some(true) {
        errors.push("obs plane was not byte-identical across widths/warmth".to_string());
    }
    let num = |key: &str| -> u64 { v.get(key).and_then(|x| x.as_u64()).unwrap_or(u64::MAX) };
    let requests = num("requests");
    let (ok, err, shed) = (num("ok"), num("err"), num("shed"));
    let batches = num("batches");
    if [requests, ok, err, shed, batches].contains(&u64::MAX) {
        errors.push("missing counters".to_string());
        return errors;
    }
    if ok + err + shed != requests {
        errors.push(format!("response kinds do not add up ({ok}+{err}+{shed} != {requests})"));
    }
    if ok == 0 || err == 0 || shed == 0 {
        errors.push(format!(
            "stream must mix every response kind (ok={ok}, err={err}, shed={shed})"
        ));
    }
    if num("work_total") == 0 {
        errors.push("no work metered — conservation is vacuous".to_string());
    }
    if num("snapshot_lines") != batches {
        errors.push("snapshot cadence broken (expected one line per batch)".to_string());
    }
    if num("trace_events") < 2 {
        errors.push("trace is vacuous (root span only)".to_string());
    }
    for key in ["wall_ms_obs_off", "wall_ms_obs_on", "overhead_pct"] {
        if v.get(key).is_none() {
            errors.push(format!("missing {key}"));
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_obs_suite_is_valid() {
        let config = SuiteConfig { smoke: true, workers: vec![1, 2] };
        let doc = run_obs(&config);
        let errors = validate_obs_report(&doc);
        assert!(errors.is_empty(), "violations: {errors:?}\n{doc}");
    }

    #[test]
    fn obs_validator_rejects_broken_documents() {
        assert!(!validate_obs_report("{").is_empty());
        assert!(!validate_obs_report("{\"schema\":\"sap-bench/1\"}").is_empty());
        let tampered = "{\"schema\":\"sap-bench/1\",\"suite\":\"obs\",\
            \"deterministic\":false,\"batches\":4,\
            \"requests\":20,\"ok\":10,\"err\":4,\"shed\":5,\
            \"work_total\":0,\"snapshot_lines\":3,\"trace_events\":1,\
            \"wall_ms_obs_off\":1.0,\"wall_ms_obs_on\":1.1,\"overhead_pct\":10.0}";
        let errors = validate_obs_report(tampered);
        assert!(errors.iter().any(|e| e.contains("byte-identical")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("do not add up")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("vacuous")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("cadence")), "{errors:?}");
    }
}
