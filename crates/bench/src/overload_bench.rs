//! The `overload` bench suite: shed-rate and degradation-mix curves for
//! the serve engine's admission controller.
//!
//! ```text
//! cargo run -p sap-bench --release -- --suite overload --out BENCH_overload.json
//! cargo run -p sap-bench --release -- --suite overload --smoke
//! ```
//!
//! A fixed admission configuration (global pool, per-tenant quota) is
//! hit with a ladder of offered-load levels: at level `L`, each of
//! three tenants submits `L` requests per batch (every request
//! declaring the same work-unit cost), plus one tenant-less request as
//! a control. As `L` grows the stream crosses, in order, the tenant
//! refill rate, the tenant burst, and the global pool — so the level
//! curve walks the whole degradation ladder: full admission → Lemma-13
//! and greedy degradation → quota and capacity shedding.
//!
//! Everything the validator checks is machine-independent: admission
//! decisions are a pure function of the request stream and the
//! configuration, so the per-level admitted/degraded/shed counts are
//! identical on every machine and at every worker width (the suite
//! re-runs one overloaded level across the configured widths and
//! byte-compares the response streams). Wall-clock per level is
//! recorded for honesty, never thresholded.

use std::time::Instant;

use sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};
use storage_alloc::io::{InstanceDto, JsonDto};
use storage_alloc::serve::{ServeEngine, ServeOptions};

use crate::suite::{fmt_ms, parse_report, report, SuiteConfig};

/// Global work-unit pool per batch tick.
const POOL: u64 = 600;
/// Per-tenant token refill per batch tick (burst = 2×).
const QUOTA: u64 = 150;
/// Declared work-unit cost of every request in the stream.
const COST: u64 = 60;
/// Tenant names; one extra tenant-less request rides in each batch.
const TENANTS: [&str; 3] = ["alpha", "beta", "gamma"];

fn opts(workers: usize) -> ServeOptions {
    ServeOptions {
        workers,
        max_inflight_units: Some(POOL),
        tenant_quota: Some(QUOTA),
        // Admission is warmth-invariant by design; caching off keeps
        // the wall-clock column a solve-throughput number.
        cache_size: 0,
        ..Default::default()
    }
}

/// The request stream for one load level: `batches` batches, each
/// carrying `level` requests per tenant plus one tenant-less control.
/// Every line is a distinct instance (weights perturbed per line) so
/// within-batch dedup never hides a solve.
fn level_stream(level: usize, batches: usize, smoke: bool) -> Vec<Vec<String>> {
    let mut uniq = 0u64;
    (0..batches)
        .map(|_| {
            let mut lines = Vec::new();
            for tenant in TENANTS {
                for _ in 0..level {
                    uniq += 1;
                    lines.push(request_line(Some(tenant), uniq, smoke));
                }
            }
            uniq += 1;
            lines.push(request_line(None, uniq, smoke));
            lines
        })
        .collect()
}

fn request_line(tenant: Option<&str>, uniq: u64, smoke: bool) -> String {
    let inst = generate(
        &GenConfig {
            num_edges: 6,
            num_tasks: if smoke { 12 } else { 20 },
            profile: CapacityProfile::Random { lo: 16, hi: 64 },
            regime: DemandRegime::Mixed,
            max_span: 4,
            max_weight: 30,
        },
        9000 + uniq,
    );
    let instance = InstanceDto::from_instance(&inst).to_json_string();
    match tenant {
        Some(t) => format!(
            r#"{{"instance":{instance},"work_units":{COST},"tenant":"{t}"}}"#
        ),
        None => format!(r#"{{"instance":{instance},"work_units":{COST}}}"#),
    }
}

struct LevelRun {
    output: Vec<String>,
    wall_ms: f64,
    engine: ServeEngine,
}

fn run_level(stream: &[Vec<String>], workers: usize) -> LevelRun {
    let mut engine = ServeEngine::new(opts(workers));
    let mut output = Vec::new();
    let start = Instant::now();
    for batch in stream {
        let refs: Vec<&str> = batch.iter().map(String::as_str).collect();
        output.extend(engine.process_batch(&refs));
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    LevelRun { output, wall_ms, engine }
}

/// Runs the `overload` suite and renders the report as a JSON document.
pub fn run_overload(config: &SuiteConfig) -> String {
    let levels: &[usize] = if config.smoke { &[1, 4, 8] } else { &[1, 2, 4, 8, 16] };
    let batches = if config.smoke { 3 } else { 5 };

    let mut level_docs = Vec::new();
    let mut deterministic = true;
    for (i, &level) in levels.iter().enumerate() {
        let stream = level_stream(level, batches, config.smoke);
        let base = run_level(&stream, 1);
        // Replay determinism at every configured width on the heaviest
        // and lightest levels (the cheap ends of the sweep bracket the
        // interesting admission behaviour).
        if i == 0 || i == levels.len() - 1 {
            for &w in &config.workers {
                let wide = run_level(&stream, w);
                if wide.output != base.output
                    || wide.engine.admission_stats() != base.engine.admission_stats()
                {
                    deterministic = false;
                }
            }
            let replay = run_level(&stream, 1);
            if replay.output != base.output {
                deterministic = false;
            }
        }
        let stats = &base.engine.stats;
        let adm = base.engine.admission_stats();
        level_docs.push(format!(
            "{{\"level\":{},\"requests\":{},\"ok\":{},\"err\":{},\"shed\":{},\
             \"admitted\":{},\"degraded_lemma13\":{},\"degraded_greedy\":{},\
             \"shed_quota\":{},\"shed_capacity\":{},\"tenant_throttled\":{},\
             \"wall_ms\":{}}}",
            level,
            stats.requests,
            stats.ok,
            stats.errors,
            stats.shed,
            adm.admitted,
            adm.degraded_lemma13,
            adm.degraded_greedy,
            adm.shed_quota,
            adm.shed_capacity,
            adm.tenant_throttled,
            fmt_ms(base.wall_ms),
        ));
    }
    let fields = format!(
        "\"batches\":{},\"pool\":{POOL},\"quota\":{QUOTA},\"cost\":{COST},\"tenants\":{},\
         \"deterministic\":{},\"levels\":[{}]",
        batches,
        TENANTS.len(),
        deterministic,
        level_docs.join(",")
    );
    report("overload", config, &fields)
}

/// Validates an `overload` suite report. Returns the violations (empty
/// = valid). All checked invariants are machine-independent:
///
/// * schema/suite tags present, `deterministic` is `true` (responses
///   and admission counters byte-identical across widths and on
///   replay);
/// * per level, the decisions partition the stream exactly:
///   `admitted + shed_quota + shed_capacity = requests` and
///   `ok + err + shed = requests` with `err = 0` and
///   `shed = shed_quota + shed_capacity`;
/// * the lightest level is fully admitted at the full rung (no
///   degradation, no shedding) — the controller must not tax an
///   underloaded service;
/// * offered load, and with it the shed count, is monotone
///   non-decreasing across levels, and the heaviest level actually
///   sheds (the sweep must reach saturation to mean anything).
pub fn validate_overload_report(doc: &str) -> Vec<String> {
    let (v, mut errors) = match parse_report(doc, "overload") {
        Ok(parsed) => parsed,
        Err(errors) => return errors,
    };
    if v.get("deterministic").and_then(|d| d.as_bool()) != Some(true) {
        errors.push("responses were not byte-identical across widths/replays".to_string());
    }
    let Some(levels) = v.get("levels").and_then(|l| l.as_array()) else {
        errors.push("levels array missing".to_string());
        return errors;
    };
    if levels.is_empty() {
        errors.push("levels array empty".to_string());
        return errors;
    }
    let num = |lvl: &crate::json::Json, key: &str| -> u64 {
        lvl.get(key).and_then(|x| x.as_u64()).unwrap_or(u64::MAX)
    };
    let mut prev_requests = 0u64;
    let mut prev_shed = 0u64;
    for (i, lvl) in levels.iter().enumerate() {
        let requests = num(lvl, "requests");
        let (ok, err, shed) = (num(lvl, "ok"), num(lvl, "err"), num(lvl, "shed"));
        let admitted = num(lvl, "admitted");
        let (dl, dg) = (num(lvl, "degraded_lemma13"), num(lvl, "degraded_greedy"));
        let (sq, sc) = (num(lvl, "shed_quota"), num(lvl, "shed_capacity"));
        if [requests, ok, err, shed, admitted, dl, dg, sq, sc].contains(&u64::MAX) {
            errors.push(format!("level {i}: missing counters"));
            continue;
        }
        if admitted + sq + sc != requests {
            errors.push(format!(
                "level {i}: admission does not partition the stream \
                 ({admitted}+{sq}+{sc} != {requests})"
            ));
        }
        if ok + err + shed != requests || shed != sq + sc {
            errors.push(format!("level {i}: response kinds do not add up"));
        }
        if err != 0 {
            errors.push(format!("level {i}: {err} error responses in a well-formed stream"));
        }
        if i == 0 && (shed != 0 || dl + dg != 0) {
            errors.push(format!(
                "level {i}: the underloaded level must be fully admitted \
                 (shed={shed}, degraded={})",
                dl + dg
            ));
        }
        if requests < prev_requests {
            errors.push(format!("level {i}: offered load not monotone"));
        }
        if shed < prev_shed {
            errors.push(format!("level {i}: shed count dropped as load rose"));
        }
        prev_requests = requests;
        prev_shed = shed;
    }
    if prev_shed == 0 {
        errors.push("heaviest level never shed — the sweep does not reach saturation".into());
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_overload_suite_is_valid() {
        let config = SuiteConfig { smoke: true, workers: vec![1, 2] };
        let doc = run_overload(&config);
        let errors = validate_overload_report(&doc);
        assert!(errors.is_empty(), "violations: {errors:?}\n{doc}");
    }

    #[test]
    fn overload_validator_rejects_broken_documents() {
        assert!(!validate_overload_report("{").is_empty());
        assert!(!validate_overload_report("{\"schema\":\"sap-bench/1\"}").is_empty());
        let tampered = "{\"schema\":\"sap-bench/1\",\"suite\":\"overload\",\
            \"deterministic\":false,\"levels\":[\
            {\"level\":1,\"requests\":4,\"ok\":3,\"err\":0,\"shed\":0,\
             \"admitted\":4,\"degraded_lemma13\":1,\"degraded_greedy\":0,\
             \"shed_quota\":0,\"shed_capacity\":0,\"tenant_throttled\":0,\"wall_ms\":1.0}]}";
        let errors = validate_overload_report(tampered);
        assert!(errors.iter().any(|e| e.contains("byte-identical")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("do not add up")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("fully admitted")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("saturation")), "{errors:?}");
    }
}
