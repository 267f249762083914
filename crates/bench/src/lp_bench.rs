//! The `lp` bench suite: the sparse revised-simplex core under load.
//!
//! ```text
//! cargo run -p sap-bench --release -- --suite lp --out BENCH_pr9.json
//! cargo run -p sap-bench --release -- --suite lp --smoke
//! ```
//!
//! Three families:
//!
//! * **`lp_core`** — a ladder of random packing LPs of growing size,
//!   solved by both the sparse eta-file core and the pre-sparse dense
//!   oracle ([`lp_solver::solve_dense`]). Records wall-clock for both,
//!   the solver's deterministic work gauges (etas, refactorizations,
//!   pricing candidates scanned, CSC build allocations), and an
//!   `agree` flag — status equal and objectives within tolerance.
//! * **`multi_strata`** — the end-to-end driver on the δ-small
//!   fan-out workload at the PR 4 baseline size *and* at 10× that task
//!   count, swept over worker counts with byte-identity checks on
//!   solution, report, and telemetry. This is the scaling claim: the
//!   sparse core absorbs the 10× workload at fixed wall-clock order.
//! * **`lp_trace`** — warm-vs-cold determinism: the same LP solved on a
//!   fresh scratch and on a reused one must replay a byte-identical
//!   pivot trace (`Debug`-formatted and compared as strings).
//!
//! Wall-clock fields are recorded for honesty and never thresholded;
//! every gating invariant (agreement, determinism, trace identity,
//! bounded build allocations) is machine-independent.

use std::time::Instant;

use lp_solver::{solve_dense, LpProblem, LpStatus, Scratch, SimplexOptions};
use sap_core::Instance;
use sap_gen::{generate, CapacityProfile, DemandRegime, GenConfig, Rng64};

use crate::suite::{
    check_sweep, family, fmt_ms, parse_report, report, sweep, workload_id, SuiteConfig,
};

/// Objectives within `1e-6 · (1 + max|obj|)` count as agreeing.
const AGREE_TOL: f64 = 1e-6;

/// A random packing LP with `m` rows, `n` columns, ~2/3 density.
fn random_lp(seed: u64, m: usize, n: usize) -> LpProblem {
    let mut rng = Rng64::seed_from_u64(seed ^ 0x1b_be4c_4a53);
    let rhs: Vec<f64> = (0..m).map(|_| rng.gen_range(5u64..80) as f64).collect();
    let cols: Vec<(f64, f64, Vec<(usize, f64)>)> = (0..n)
        .map(|_| {
            let obj = rng.gen_range(1u64..100) as f64 / 7.0;
            let mut entries = Vec::new();
            for r in 0..m {
                if rng.gen_range(0u64..3) > 0 {
                    entries.push((r, rng.gen_range(1u64..8) as f64));
                }
            }
            if entries.is_empty() {
                entries.push((0, 1.0));
            }
            (obj, 1.0, entries)
        })
        .collect();
    let nnz = cols.iter().map(|c| c.2.len()).sum();
    LpProblem::with_columns(rhs, nnz, cols.into_iter().map(|(o, u, e)| (o, u, e)))
}

/// One rung of the dense-vs-sparse ladder.
fn ladder_rung(seed: u64, m: usize, n: usize) -> String {
    let p = random_lp(seed, m, n);
    let mut scratch = Scratch::new();
    let start = Instant::now();
    let s = p.solve_with_options(SimplexOptions::default(), &mut scratch);
    let sparse_ms = start.elapsed().as_secs_f64() * 1e3;
    let stats = scratch.stats();
    let start = Instant::now();
    let d = solve_dense(&p, 0);
    let dense_ms = start.elapsed().as_secs_f64() * 1e3;
    let scale = 1.0 + s.objective.abs().max(d.objective.abs());
    let agree = s.status == d.status
        && s.status == LpStatus::Optimal
        && (s.objective - d.objective).abs() < AGREE_TOL * scale
        && p.is_feasible(&s.x, 1e-6);
    format!(
        "{{\"id\":\"lp_m{m}_n{n}_s{seed}\",\"rows\":{m},\"cols\":{n},\"nnz\":{},\
         \"build_allocs\":{},\"agree\":{agree},\"sparse_ms\":{},\"dense_ms\":{},\
         \"etas\":{},\"refactors\":{},\"pricing_scanned\":{}}}",
        p.nnz(),
        p.build_allocs(),
        fmt_ms(sparse_ms),
        fmt_ms(dense_ms),
        stats.etas,
        stats.refactors,
        stats.pricing_scanned
    )
}

/// The PR 4 baseline δ-small fan-out workload, scaled by `factor`.
fn strata_workload(seed: u64, tasks: usize) -> Instance {
    generate(
        &GenConfig {
            num_edges: 16,
            num_tasks: tasks,
            profile: CapacityProfile::RandomWalk { lo: 64, hi: 4096 },
            regime: DemandRegime::Small { delta_inv: 16 },
            max_span: 6,
            max_weight: 60,
        },
        seed + 9000,
    )
}

/// One `multi_strata` workload entry (worker sweep + identity checks).
fn strata_entry(id: &str, inst: &Instance, workers: &[usize]) -> String {
    let sweep = sweep(inst, workers);
    let base = sweep.base();
    format!(
        "{{\"id\":\"{id}\",\"edges\":{},\"tasks\":{},\"work_units\":{},\
         \"deterministic\":{},\"lp_etas\":{},\"lp_refactors\":{},\
         \"runs\":{}}}",
        inst.num_edges(),
        inst.num_tasks(),
        base.work_units,
        sweep.deterministic,
        base.lp_etas,
        base.lp_refactors,
        sweep.runs_json()
    )
}

/// One warm-vs-cold trace identity check.
fn trace_entry(seed: u64, m: usize, n: usize) -> String {
    let p = random_lp(seed ^ 0x7ace, m, n);
    let mut warm = Scratch::new();
    warm.enable_trace();
    // Warm the scratch on an unrelated problem first, then solve `p`.
    let q = random_lp(seed ^ 0x0dd, m, n / 2);
    let _ = q.solve_with_scratch(0, &mut warm);
    let _ = p.solve_with_scratch(0, &mut warm);
    let warm_trace = format!("{:?}", warm.trace());
    let mut cold = Scratch::new();
    cold.enable_trace();
    let _ = p.solve_with_scratch(0, &mut cold);
    let cold_trace = format!("{:?}", cold.trace());
    let pivots = cold.stats().etas;
    format!(
        "{{\"id\":\"trace_s{seed}\",\"pivots\":{pivots},\"traces_identical\":{}}}",
        warm_trace == cold_trace
    )
}

/// Runs the `lp` suite and renders the report as a JSON document.
pub fn run_lp(config: &SuiteConfig) -> String {
    let mut families = Vec::new();

    // Family 1: dense-vs-sparse ladder.
    let rungs: &[(usize, usize)] = if config.smoke {
        &[(8, 24), (16, 64)]
    } else {
        &[(8, 24), (16, 64), (32, 128), (48, 256), (64, 512)]
    };
    let seeds: u64 = if config.smoke { 1 } else { 2 };
    let mut workloads = Vec::new();
    for &(m, n) in rungs {
        for seed in 0..seeds {
            workloads.push(ladder_rung(seed, m, n));
        }
    }
    families.push(format!("{{\"name\":\"lp_core\",\"workloads\":[{}]}}", workloads.join(",")));

    // Family 2: the driver fan-out at 1× and 10× the PR 4 task count.
    let scales: &[(&str, usize)] =
        if config.smoke { &[("base", 60), ("x10", 600)] } else { &[("base", 600), ("x10", 6000)] };
    let mut workloads = Vec::new();
    for &(tag, tasks) in scales {
        for seed in 0..2u64 {
            let inst = strata_workload(seed, tasks);
            workloads.push(strata_entry(
                &format!("strata_{tag}_seed{seed}"),
                &inst,
                &config.workers,
            ));
        }
    }
    families
        .push(format!("{{\"name\":\"multi_strata\",\"workloads\":[{}]}}", workloads.join(",")));

    // Family 3: warm-vs-cold pivot-trace identity.
    let mut workloads = Vec::new();
    for seed in 0..if config.smoke { 2u64 } else { 6 } {
        workloads.push(trace_entry(seed, 12, 48));
    }
    families.push(format!("{{\"name\":\"lp_trace\",\"workloads\":[{}]}}", workloads.join(",")));

    report("lp", config, &format!("\"families\":[{}]", families.join(",")))
}

/// Validates an `lp` suite report. Returns the violations (empty = valid).
///
/// Machine-independent invariants only:
///
/// * schema tag, suite name, and all three families present;
/// * every `lp_core` rung reports `agree = true` (sparse must reproduce
///   the dense oracle's solutions) and `build_allocs ≤ 2` (the bulk CSC
///   builder's O(1)-allocation promise);
/// * every `multi_strata` workload is `deterministic` and conserves
///   work units across its runs, and the 10× entries solve with
///   nonzero LP work (`lp_etas > 0` — the scaling claim is not vacuous);
/// * every `lp_trace` entry has `pivots > 0` and `traces_identical`.
pub fn validate_lp_report(doc: &str) -> Vec<String> {
    let (v, mut errors) = match parse_report(doc, "lp") {
        Ok(parsed) => parsed,
        Err(errors) => return errors,
    };

    match family(&v, "lp_core") {
        None => errors.push("lp_core family missing".to_string()),
        Some(workloads) => {
            if workloads.is_empty() {
                errors.push("lp_core has no workloads".to_string());
            }
            for w in workloads {
                let id = workload_id(w);
                if w.get("agree").and_then(|a| a.as_bool()) != Some(true) {
                    errors.push(format!("{id}: sparse and dense solvers disagree"));
                }
                let allocs = w.get("build_allocs").and_then(|a| a.as_u64()).unwrap_or(u64::MAX);
                if allocs > 2 {
                    errors.push(format!("{id}: bulk CSC build made {allocs} growth allocs"));
                }
            }
        }
    }

    match family(&v, "multi_strata") {
        None => errors.push("multi_strata family missing".to_string()),
        Some(workloads) => {
            if workloads.is_empty() {
                errors.push("multi_strata has no workloads".to_string());
            }
            for w in workloads {
                check_sweep(w, &mut errors);
                let id = workload_id(w);
                if id.contains("_x10_")
                    && w.get("lp_etas").and_then(|e| e.as_u64()).unwrap_or(0) == 0
                {
                    errors.push(format!("{id}: 10x workload performed no LP pivots"));
                }
            }
        }
    }

    match family(&v, "lp_trace") {
        None => errors.push("lp_trace family missing".to_string()),
        Some(workloads) => {
            if workloads.is_empty() {
                errors.push("lp_trace has no workloads".to_string());
            }
            for w in workloads {
                let id = workload_id(w);
                if w.get("traces_identical").and_then(|t| t.as_bool()) != Some(true) {
                    errors.push(format!("{id}: warm and cold pivot traces differ"));
                }
                if w.get("pivots").and_then(|p| p.as_u64()).unwrap_or(0) == 0 {
                    errors.push(format!("{id}: trace check is vacuous (no pivots)"));
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
    fn smoke_lp_suite_is_valid() {
        let config = SuiteConfig { smoke: true, workers: vec![1, 2] };
        let doc = run_lp(&config);
        let errors = validate_lp_report(&doc);
        assert!(errors.is_empty(), "violations: {errors:?}");
    }

    #[test]
    fn lp_validator_rejects_broken_documents() {
        assert!(!validate_lp_report("{").is_empty());
        assert!(!validate_lp_report("{\"schema\":\"sap-bench/1\",\"suite\":\"lp\"}").is_empty());
        let tampered = "{\"schema\":\"sap-bench/1\",\"suite\":\"lp\",\"families\":[\
            {\"name\":\"lp_core\",\"workloads\":[\
              {\"id\":\"c\",\"agree\":false,\"build_allocs\":9}]},\
            {\"name\":\"multi_strata\",\"workloads\":[\
              {\"id\":\"strata_x10_seed0\",\"work_units\":5,\"deterministic\":false,\
               \"lp_etas\":0,\"runs\":[{\"workers\":1,\"work_units\":4}]}]},\
            {\"name\":\"lp_trace\",\"workloads\":[\
              {\"id\":\"t\",\"pivots\":0,\"traces_identical\":false}]}]}";
        let errors = validate_lp_report(tampered);
        assert!(errors.iter().any(|e| e.contains("disagree")));
        assert!(errors.iter().any(|e| e.contains("growth allocs")));
        assert!(errors.iter().any(|e| e.contains("byte-identical")));
        assert!(errors.iter().any(|e| e.contains("not conserved")));
        assert!(errors.iter().any(|e| e.contains("no LP pivots")));
        assert!(errors.iter().any(|e| e.contains("traces differ")));
        assert!(errors.iter().any(|e| e.contains("vacuous")));
    }
}
