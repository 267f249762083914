//! Algorithm **Strip-Pack** for δ-small instances (Theorem 1, §4).
//!
//! Pipeline, per bottleneck stratum `J_t = { j : 2^t ≤ b(j) < 2^{t+1} }`:
//!
//! 1. clip capacities to `2^{t+1}` (Observation 2 / Fig. 3 — lossless);
//! 2. compute a `2^{t−1}`-packable UFPP solution: either the LP-rounding
//!    route of §4.1 (scale the fractional optimum by ¼ and round —
//!    Lemma 5, ratio `4+ε`) or the local-ratio Algorithm Strip of the
//!    appendix (ratio `5+ε`);
//! 3. convert it into a `2^{t−1}`-packable **SAP** solution via the
//!    Lemma-4 strip engine (DSA + window selection);
//! 4. lift by `2^{t−1}` into the strip `[2^{t−1}, 2^t)`.
//!
//! Stacking the strips yields a feasible solution for the whole instance
//! (Fig. 4): strip `t` lives strictly below `2^t ≤ b(j)` for every
//! `j ∈ J_t`, and different strips are vertically disjoint.
//!
//! Strata are independent subproblems and fan out through
//! [`sap_core::map_reduce_isolated`]: each stratum charges a fixed
//! per-item share of the arm budget, so metered runs degrade
//! byte-identically at any worker count.

use lp_solver::{LpStatus, SimplexOptions};
use sap_core::budget::{Budget, CheckpointClass};
use sap_core::error::SapResult;
use sap_core::{
    clip_to_band, lift, map_reduce_isolated, stack, strata_by_bottleneck, Instance, SapSolution,
    TaskId,
};

use crate::baselines::greedy_sap_best;

/// Which per-stratum UFPP packer to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SmallAlgo {
    /// §4.1: LP relaxation, scale by ¼, greedy rounding (ratio `4+ε`).
    LpRounding,
    /// Appendix: local-ratio Algorithm Strip (ratio `5+ε`), LP-free.
    LocalRatio,
}

/// Outcome of [`try_solve_small`].
#[derive(Debug, Clone)]
pub struct SmallRun {
    /// The feasible solution (Strip-Pack, or the greedy baseline when
    /// `lp_degraded`).
    pub solution: SapSolution,
    /// True when some stratum's LP came back non-optimal and the whole
    /// arm fell back to the greedy baseline (the Theorem 1 guarantee
    /// requires optimal fractional points).
    pub lp_degraded: bool,
}

/// Runs Strip-Pack on the δ-small tasks `ids` of `instance`.
///
/// The caller is responsible for passing δ-small tasks (the theorem's
/// guarantee only holds then); the output is a feasible SAP solution for
/// any input. A non-optimal LP (pivot-limited) routes the whole arm to the
/// greedy baseline — the partial fractional point is never rounded.
pub fn solve_small(instance: &Instance, ids: &[TaskId], algo: SmallAlgo) -> SapSolution {
    // An unlimited budget cannot trip, so the Err arm is dead; greedy
    // keeps the wrapper total without a panic path.
    let sol =
        match try_solve_small(instance, ids, algo, SimplexOptions::default(), 0, &Budget::unlimited()) {
        Ok(run) => run.solution,
        Err(_) => greedy_sap_best(instance, ids),
    };
    debug_assert!(sol.validate(instance).is_ok());
    sol
}

/// Budget-aware fallible Strip-Pack.
///
/// Per stratum, the LP solve is charged against `budget` (`LpPivot`
/// units, at most `opts.max_pivots` pivots, `0` = automatic) plus one
/// `Driver` unit. The strata fan out through
/// [`sap_core::map_reduce_isolated`]: each stratum runs on a fixed
/// per-item share of the budget's remaining work units, so the trip
/// points — and therefore the solution, report, and telemetry — are
/// byte-identical at any `workers` width (`0` = auto, `1` = sequential).
///
/// If any stratum's LP is non-optimal (pivot limit or injected fault) the
/// **entire arm** falls back to the greedy baseline over `ids` — packing
/// one stratum greedily would violate the strip discipline that
/// [`sap_core::stack()`] relies on — and the run is flagged `lp_degraded`.
pub fn try_solve_small(
    instance: &Instance,
    ids: &[TaskId],
    algo: SmallAlgo,
    opts: SimplexOptions,
    workers: usize,
    budget: &Budget,
) -> SapResult<SmallRun> {
    let strata = strata_by_bottleneck(instance, ids);
    budget.telemetry().count("strata", strata.len() as u64);
    let parts: Vec<SapResult<(SapSolution, bool)>> =
        map_reduce_isolated(budget, &strata, workers, |(t, members), b| {
            pack_stratum(instance, *t, members, algo, opts, b)
        });
    let mut sols = Vec::with_capacity(parts.len());
    let mut lp_ok = true;
    // lint:allow(b1) — folds per-stratum results; the per-stratum work
    // was metered inside map_reduce_isolated.
    for part in parts {
        let (sol, ok) = part?;
        lp_ok &= ok;
        sols.push(sol);
    }
    if !lp_ok {
        budget.telemetry().count("lp.degraded", 1);
        return Ok(SmallRun { solution: greedy_sap_best(instance, ids), lp_degraded: true });
    }
    let combined = stack(&sols);
    debug_assert!(combined.validate(instance).is_ok());
    Ok(SmallRun { solution: combined, lp_degraded: false })
}

/// Packs one stratum `J_t` into the strip `[2^{t−1}, 2^t)` (tasks of
/// stratum 0 — bottleneck 1, demand 1 — cannot be half-packed; the strip
/// bound `2^{t−1}` is 0 there and the stratum yields nothing, matching the
/// theory: δ-small tasks with integer demands have `b(j) ≥ 1/δ > 2`).
///
/// The boolean is false when the stratum's LP was non-optimal (the
/// returned empty solution is then a placeholder the caller discards).
fn pack_stratum(
    instance: &Instance,
    t: u32,
    members: &[TaskId],
    algo: SmallAlgo,
    opts: SimplexOptions,
    budget: &Budget,
) -> SapResult<(SapSolution, bool)> {
    let phase = budget.telemetry().span("stratum");
    phase.observe("members", members.len() as u64);
    budget.checkpoint(CheckpointClass::Driver, 1)?;
    if t == 0 {
        return Ok((SapSolution::empty(), true));
    }
    let band_lo = 1u64 << t;
    let band_hi = 2 * band_lo;
    let half = band_lo / 2; // 2^{t−1}: strip height and lift amount
    let (sub, map) = match clip_to_band(instance, members, band_lo, band_hi) {
        Ok(x) => x,
        Err(_) => return Ok((SapSolution::empty(), true)),
    };
    let sub_ids = sub.all_ids();
    // Step 2: half-B-packable UFPP solution.
    let ufpp_sol = match algo {
        SmallAlgo::LpRounding => {
            let strip = ufpp::round_scaled_lp_budgeted(&sub, &sub_ids, half, opts, budget)?;
            if strip.lp_status != LpStatus::Optimal {
                // Lemma 5 needs the fractional optimum; discard.
                return Ok((SapSolution::empty(), false));
            }
            strip.solution
        }
        SmallAlgo::LocalRatio => ufpp::strip_local_ratio(&sub, &sub_ids, band_lo),
    };
    debug_assert!(ufpp_sol.validate_packable(&sub, half).is_ok());
    // Step 3: SAP in the strip [0, half).
    let packing = dsa::pack_into_strip(&sub, &ufpp_sol.tasks, half);
    debug_assert!(packing.solution.validate_packable(&sub, half).is_ok());
    // Step 4: lift into [half, 2^t) and translate ids back.
    let lifted = lift(&packing.solution, half);
    Ok((
        SapSolution::from_pairs(lifted.placements.iter().map(|p| (map[p.task], p.height))),
        true,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_core::{is_delta_small, PathNetwork, Ratio, Task};

    fn small_instance(seed: u64, m: usize, n: usize) -> Instance {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        // Capacities spread over several strata.
        let caps: Vec<u64> = (0..m).map(|_| 128 << (next() % 4)).collect();
        let net = PathNetwork::new(caps).unwrap();
        let mut tasks = Vec::new();
        for _ in 0..n {
            let lo = (next() % m as u64) as usize;
            let hi = (lo + 1 + (next() % (m as u64 - lo as u64)) as usize).min(m);
            let b = net.bottleneck(sap_core::Span { lo, hi });
            let d = 1 + next() % (b / 16); // 1/16-small
            tasks.push(Task::of(lo, hi, d, 1 + next() % 50));
        }
        Instance::new(net, tasks).unwrap()
    }

    #[test]
    fn output_is_feasible_for_both_algorithms() {
        for seed in 0..8 {
            let inst = small_instance(seed, 10, 80);
            let ids = inst.all_ids();
            for algo in [SmallAlgo::LpRounding, SmallAlgo::LocalRatio] {
                let sol = solve_small(&inst, &ids, algo);
                sol.validate(&inst).unwrap();
                assert!(!sol.is_empty(), "seed {seed}, {algo:?}");
                // Inputs really were δ-small.
                for j in &ids {
                    assert!(is_delta_small(&inst, *j, Ratio::new(1, 16)));
                }
            }
        }
    }

    #[test]
    fn strips_do_not_interleave() {
        let inst = small_instance(3, 8, 60);
        let sol = solve_small(&inst, &inst.all_ids(), SmallAlgo::LpRounding);
        for p in &sol.placements {
            let t = sap_core::stratum_of(&inst, p.task);
            let lo = 1u64 << (t - 1);
            let hi = 1u64 << t;
            assert!(
                p.height >= lo && p.height + inst.demand(p.task) <= hi,
                "task {} must stay inside its strip [{lo},{hi})",
                p.task
            );
        }
    }

    #[test]
    fn weight_respects_lp_ratio_loosely() {
        // Measured check (the formal one is experiment T1): against the LP
        // upper bound, Strip-Pack should stay within factor ~6 for
        // 1/16-small tasks.
        let mut total_ratio = 0.0;
        let runs = 6;
        for seed in 0..runs {
            let inst = small_instance(seed + 100, 8, 100);
            let ids = inst.all_ids();
            let (_, bound) = ufpp::lp_upper_bound(&inst, &ids);
            let sol = solve_small(&inst, &ids, SmallAlgo::LpRounding);
            total_ratio += bound / sol.weight(&inst).max(1) as f64;
        }
        let avg = total_ratio / runs as f64;
        assert!(avg <= 6.0, "average ratio {avg} too large");
    }

    #[test]
    fn empty_input() {
        let inst = small_instance(0, 4, 10);
        let sol = solve_small(&inst, &[], SmallAlgo::LpRounding);
        assert!(sol.is_empty());
    }

    #[test]
    fn stratum_zero_tasks_are_dropped_gracefully() {
        let net = PathNetwork::new(vec![1, 1]).unwrap();
        let inst = Instance::new(net, vec![Task::of(0, 2, 1, 5)]).unwrap();
        let sol = solve_small(&inst, &inst.all_ids(), SmallAlgo::LpRounding);
        sol.validate(&inst).unwrap();
        assert!(sol.is_empty(), "b(j)=1 tasks cannot be strip-packed");
    }
}
