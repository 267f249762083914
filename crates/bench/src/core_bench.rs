//! The `core` bench suite: the driver's worker sweep and the MWIS
//! allocation gauges.
//!
//! ```text
//! cargo run -p sap-bench --release -- --suite core --out BENCH_pr4.json
//! cargo run -p sap-bench --release -- --suite core --smoke
//! ```
//!
//! Two workload families, chosen to exercise the two performance layers
//! of the solver stack:
//!
//! * **`multi_strata_small`** — δ-small instances over a random-walk
//!   capacity profile spanning several bands, so the small arm fans its
//!   per-stratum LP solves out through
//!   `sap_core::map_reduce_isolated`. Each workload is solved once per
//!   requested worker count; the suite records wall-clock *and* the
//!   deterministic work-units from the [`Budget`] meter, and checks the
//!   solution, `SolveReport` JSON, and telemetry JSON are byte-identical
//!   across worker counts.
//! * **`mwis_large`** — ½-large instances solved by the exact rectangle
//!   MWIS, whose hash-consed memo keys are gauged by the deterministic
//!   `mwis.allocs` / `mwis.allocs_legacy` telemetry counters (no global
//!   allocator hooks; the gauges count buffer acquisitions, so they are
//!   identical on every machine).
//!
//! Everything in the report but the wall-clock fields is deterministic.

use std::time::Instant;

use sap_core::budget::Budget;
use sap_core::{Instance, Recorder};
use sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig};

use crate::suite::{
    check_sweep, family, fmt_ms, parse_report, report, sweep, workload_id, SuiteConfig,
};

fn small_strata_workload(seed: u64, smoke: bool) -> Instance {
    generate(
        &GenConfig {
            num_edges: if smoke { 12 } else { 16 },
            num_tasks: if smoke { 60 } else { 600 },
            // A random walk across a factor-64 capacity range spreads the
            // bottlenecks over ~6 bands, so the small arm packs several
            // strata per solve — the map_reduce_isolated fan-out's load.
            profile: CapacityProfile::RandomWalk { lo: 64, hi: 4096 },
            regime: DemandRegime::Small { delta_inv: 16 },
            max_span: 6,
            max_weight: 60,
        },
        seed + 9000,
    )
}

fn mwis_large_workload(seed: u64, smoke: bool) -> Instance {
    generate(
        &GenConfig {
            num_edges: if smoke { 14 } else { 30 },
            num_tasks: if smoke { 40 } else { 120 },
            profile: CapacityProfile::Random { lo: 16, hi: 255 },
            regime: DemandRegime::Large { k: 2 },
            max_span: 6,
            max_weight: 50,
        },
        seed + 9500,
    )
}

/// Runs the `core` suite and renders the report as a JSON document.
pub fn run_core(config: &SuiteConfig) -> String {
    let seeds: u64 = if config.smoke { 2 } else { 3 };
    let mut families = Vec::new();

    // Family 1: per-stratum LP fan-out, swept over worker counts.
    let mut workloads = Vec::new();
    for seed in 0..seeds {
        let inst = small_strata_workload(seed, config.smoke);
        let sweep = sweep(&inst, &config.workers);
        let base = sweep.base();
        let last = sweep.runs.last().map_or(base.wall_ms, |r| r.wall_ms.max(1e-9));
        workloads.push(format!(
            "{{\"id\":\"small_seed{}\",\"edges\":{},\"tasks\":{},\"work_units\":{},\
             \"deterministic\":{},\"speedup_vs_first\":{},\"runs\":{}}}",
            seed,
            inst.num_edges(),
            inst.num_tasks(),
            base.work_units,
            sweep.deterministic,
            fmt_ms(base.wall_ms / last),
            sweep.runs_json()
        ));
    }
    families.push(format!(
        "{{\"name\":\"multi_strata_small\",\"workloads\":[{}]}}",
        workloads.join(",")
    ));

    // Family 2: MWIS memo-key interning, gauged by deterministic counters.
    let mut workloads = Vec::new();
    for seed in 0..seeds {
        let inst = mwis_large_workload(seed, config.smoke);
        let ids = inst.all_ids();
        let rec = Recorder::new();
        let budget = Budget::unlimited().with_telemetry(rec.handle());
        let start = Instant::now();
        let chosen =
            rectpack::max_weight_packing_budgeted(&inst, &ids, Default::default(), &budget)
                .expect("unlimited budget")
                .unwrap_or_default();
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        let weight = inst.total_weight(&chosen);
        let allocs = rec.handle().counter("mwis.allocs");
        let legacy = rec.handle().counter("mwis.allocs_legacy");
        let reduction_pct = if legacy == 0 {
            0.0
        } else {
            100.0 * (1.0 - allocs as f64 / legacy as f64)
        };
        workloads.push(format!(
            "{{\"id\":\"large_seed{}\",\"edges\":{},\"tasks\":{},\"work_units\":{},\
             \"wall_ms\":{},\"weight\":{},\"allocs\":{},\"allocs_legacy\":{},\
             \"alloc_reduction_pct\":{}}}",
            seed,
            inst.num_edges(),
            inst.num_tasks(),
            budget.consumed(),
            fmt_ms(wall_ms),
            weight,
            allocs,
            legacy,
            fmt_ms(reduction_pct)
        ));
    }
    families.push(format!(
        "{{\"name\":\"mwis_large\",\"workloads\":[{}]}}",
        workloads.join(",")
    ));

    report("core", config, &format!("\"families\":[{}]", families.join(",")))
}

/// Validates a `core` suite report. Returns the violations (empty =
/// valid).
///
/// Checked invariants, all machine-independent:
///
/// * the schema tag, suite name, and both families are present;
/// * **work-unit conservation** — within a `multi_strata_small` workload
///   every run reports the same `work_units` as the workload total (the
///   fan-out must not create or lose metered work), and `deterministic`
///   is `true`;
/// * the MWIS family's interned allocation gauge shows the promised
///   ≥ 20% reduction against the legacy model on every workload.
pub fn validate_core_report(doc: &str) -> Vec<String> {
    let (v, mut errors) = match parse_report(doc, "core") {
        Ok(parsed) => parsed,
        Err(errors) => return errors,
    };

    match family(&v, "multi_strata_small") {
        None => errors.push("multi_strata_small family missing".to_string()),
        Some(workloads) => {
            if workloads.is_empty() {
                errors.push("multi_strata_small has no workloads".to_string());
            }
            for w in workloads {
                check_sweep(w, &mut errors);
            }
        }
    }

    match family(&v, "mwis_large") {
        None => errors.push("mwis_large family missing".to_string()),
        Some(workloads) => {
            if workloads.is_empty() {
                errors.push("mwis_large has no workloads".to_string());
            }
            for w in workloads {
                let id = workload_id(w);
                let pct = w
                    .get("alloc_reduction_pct")
                    .and_then(|p| p.as_f64())
                    .unwrap_or(0.0);
                if pct < 20.0 {
                    errors.push(format!(
                        "{id}: alloc reduction {pct:.1}% below the 20% bar"
                    ));
                }
            }
        }
    }
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_suite_is_valid_and_conserves_work() {
        let config = SuiteConfig { smoke: true, workers: vec![1, 2] };
        let doc = run_core(&config);
        let errors = validate_core_report(&doc);
        assert!(errors.is_empty(), "violations: {errors:?}");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        assert!(!validate_core_report("{").is_empty());
        assert!(!validate_core_report("{\"schema\":\"sap-bench/1\",\"suite\":\"core\"}").is_empty());
        let tampered = "{\"schema\":\"sap-bench/1\",\"suite\":\"core\",\"families\":[\
            {\"name\":\"multi_strata_small\",\"workloads\":[\
              {\"id\":\"w\",\"work_units\":5,\"deterministic\":false,\
               \"runs\":[{\"workers\":1,\"work_units\":4}]}]},\
            {\"name\":\"mwis_large\",\"workloads\":[\
              {\"id\":\"l\",\"alloc_reduction_pct\":3.0}]}]}";
        let errors = validate_core_report(tampered);
        assert!(errors.iter().any(|e| e.contains("byte-identical")));
        assert!(errors.iter().any(|e| e.contains("not conserved")));
        assert!(errors.iter().any(|e| e.contains("20% bar")));
    }
}
