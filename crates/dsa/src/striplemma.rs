//! The UFPP → SAP-in-a-strip transformation (Lemma 4 of the paper,
//! after Bar-Yehuda et al. \[6\]).
//!
//! Input: a `B`-packable UFPP solution `S` of δ-small tasks. Output: a
//! `B`-packable **SAP** solution selecting a heavy subset of `S`.
//!
//! Construction: allocate `S` with a DSA heuristic (both first-fit orders
//! are tried), yielding a packing of makespan `M ≥ LOAD(S)`; when `M ≤ B`
//! everything is kept. Otherwise slide a window of height `B` over the
//! packing and keep the heaviest set of tasks entirely inside it; the
//! optimal window bottom is one of the *critical offsets*
//! `{0} ∪ {h(j)+d_j − B}`, all of which are evaluated (derandomisation by
//! enumeration). For δ-small tasks and a near-`LOAD` allocation the lost
//! weight fraction is small — the paper's Lemma 4 guarantees `4δ` with the
//! Buchsbaum allocator, and the `L4` experiment in EXPERIMENTS.md measures
//! what this implementation achieves.

use sap_core::{Instance, Placement, SapSolution, TaskId};

use crate::alloc::{allocate, DsaOrder};

/// Result of [`pack_into_strip`].
#[derive(Debug, Clone)]
pub struct StripPacking {
    /// The selected tasks with heights in `[0, bound)`.
    pub solution: SapSolution,
    /// Tasks of the input that had to be dropped.
    pub dropped: Vec<TaskId>,
    /// Makespan of the underlying DSA allocation (before windowing);
    /// `≤ bound` means nothing was dropped.
    pub dsa_makespan: u64,
}

/// Packs the UFPP solution `ids` into a SAP strip `[0, bound)`.
///
/// The input must be `bound`-packable *as a UFPP solution* for the paper's
/// guarantees to be meaningful, but the routine is total: it returns a
/// `bound`-packable SAP solution (possibly dropping tasks) for any input.
/// Tasks whose demand alone exceeds `bound` are always dropped.
pub fn pack_into_strip(instance: &Instance, ids: &[TaskId], bound: u64) -> StripPacking {
    let eligible: Vec<TaskId> = ids.iter().copied().filter(|&j| instance.demand(j) <= bound).collect();
    let mut pre_dropped: Vec<TaskId> =
        ids.iter().copied().filter(|&j| instance.demand(j) > bound).collect();

    let mut best: Option<(u64, SapSolution, Vec<TaskId>, u64)> = None; // (weight, sol, dropped, ms)
    for order in [DsaOrder::LeftEndpoint, DsaOrder::DemandDecreasing] {
        let alloc = allocate(instance, &eligible, order);
        let ms = alloc.max_makespan(instance);
        let (windowed, dropped) = best_window(instance, &alloc, bound);
        let w = windowed.weight(instance);
        let better = match &best {
            None => true,
            Some((bw, _, _, _)) => w > *bw,
        };
        if better {
            best = Some((w, windowed, dropped, ms));
        }
    }
    let (_, solution, mut dropped, dsa_makespan) =
        best.unwrap_or((0, SapSolution::empty(), Vec::new(), 0));
    dropped.append(&mut pre_dropped);
    StripPacking { solution, dropped, dsa_makespan }
}

/// Keeps the heaviest subset of `alloc` fully inside a window
/// `[o, o+bound)`, over all critical offsets `o`; shifts the kept tasks
/// down by `o`. Returns the shifted solution and the dropped task ids.
fn best_window(instance: &Instance, alloc: &SapSolution, bound: u64) -> (SapSolution, Vec<TaskId>) {
    let ms = alloc.max_makespan(instance);
    if ms <= bound {
        return (alloc.clone(), Vec::new());
    }
    // Critical offsets: 0 and every h(j)+d_j − bound (where a task becomes
    // include-able from below).
    let mut offsets: Vec<u64> = vec![0];
    for p in &alloc.placements {
        let top = p.height + instance.demand(p.task);
        if top > bound {
            offsets.push(top - bound);
        }
    }
    offsets.sort_unstable();
    offsets.dedup();

    let mut best_offset = 0u64;
    let mut best_weight = 0u64;
    let mut any = false;
    for &o in &offsets {
        let w: u64 = alloc
            .placements
            .iter()
            .filter(|p| p.height >= o && p.height + instance.demand(p.task) <= o + bound)
            .map(|p| instance.weight(p.task))
            .sum();
        if !any || w > best_weight {
            any = true;
            best_weight = w;
            best_offset = o;
        }
    }

    let mut kept = Vec::new();
    let mut dropped = Vec::new();
    for p in &alloc.placements {
        if p.height >= best_offset && p.height + instance.demand(p.task) <= best_offset + bound {
            kept.push(Placement { task: p.task, height: p.height - best_offset });
        } else {
            dropped.push(p.task);
        }
    }
    (SapSolution::new(kept), dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_core::{PathNetwork, Task, UfppSolution};

    fn instance(m: usize, cap: u64, tasks: Vec<Task>) -> Instance {
        let net = PathNetwork::uniform(m, cap).unwrap();
        Instance::new(net, tasks).unwrap()
    }

    #[test]
    fn fits_entirely_when_load_small() {
        let tasks = vec![
            Task::of(0, 3, 2, 5),
            Task::of(1, 4, 3, 4),
            Task::of(0, 2, 1, 3),
        ];
        let inst = instance(4, 100, tasks);
        let ids = inst.all_ids();
        let packing = pack_into_strip(&inst, &ids, 10);
        assert!(packing.dropped.is_empty());
        assert_eq!(packing.solution.len(), 3);
        packing.solution.validate_packable(&inst, 10).unwrap();
    }

    #[test]
    fn drops_overweight_tasks() {
        let tasks = vec![Task::of(0, 2, 50, 1), Task::of(0, 2, 2, 1)];
        let inst = instance(2, 100, tasks);
        let packing = pack_into_strip(&inst, &inst.all_ids(), 10);
        assert_eq!(packing.dropped, vec![0]);
        assert_eq!(packing.solution.len(), 1);
        packing.solution.validate_packable(&inst, 10).unwrap();
    }

    #[test]
    fn windows_when_dsa_exceeds_bound() {
        // Force waste: three stacked tasks of demand 4 on one edge, bound 8
        // ⇒ at most two fit in any window.
        let tasks = vec![
            Task::of(0, 1, 4, 10),
            Task::of(0, 1, 4, 20),
            Task::of(0, 1, 4, 30),
        ];
        let inst = instance(1, 100, tasks);
        let packing = pack_into_strip(&inst, &inst.all_ids(), 8);
        packing.solution.validate_packable(&inst, 8).unwrap();
        assert_eq!(packing.solution.len(), 2);
        assert_eq!(packing.dropped.len(), 1);
        // The window keeps the heaviest pair (20 + 30 = 50).
        assert_eq!(packing.solution.weight(&inst), 50);
        assert!(packing.dsa_makespan == 12);
    }

    #[test]
    fn window_shifts_heights_to_zero_base() {
        let tasks = vec![Task::of(0, 1, 4, 1), Task::of(0, 1, 4, 100)];
        let inst = instance(1, 100, tasks);
        let packing = pack_into_strip(&inst, &inst.all_ids(), 4);
        assert_eq!(packing.solution.len(), 1);
        let p = packing.solution.placements[0];
        assert_eq!(p.height, 0, "kept task must be re-based to the strip floor");
        assert_eq!(instance_weight(&inst, p.task), 100);
    }

    fn instance_weight(inst: &Instance, j: TaskId) -> u64 {
        inst.weight(j)
    }

    #[test]
    fn small_task_retention_is_high() {
        // A δ-small, B-packable UFPP solution: retention should be ≥ 1−4δ.
        let m = 12;
        let cap = 512u64;
        let bound = 256u64; // strip height B
        let delta_inv = 32; // δ = 1/32 ⇒ demands ≤ 8
        let mut tasks = Vec::new();
        let mut s = 0xFEEDu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..400 {
            let lo = (next() % (m as u64 - 1)) as usize;
            let hi = lo + 1 + (next() % (m as u64 - lo as u64)) as usize;
            let d = 1 + next() % (bound / delta_inv);
            tasks.push(Task::of(lo, hi.min(m), d, 1 + next() % 10));
        }
        let inst = instance(m, cap, tasks);
        // Build a bound-packable UFPP subset greedily.
        let mut sel = Vec::new();
        for j in inst.all_ids() {
            sel.push(j);
            if UfppSolution::new(sel.clone()).validate_packable(&inst, bound).is_err() {
                sel.pop();
            }
        }
        let total: u64 = inst.total_weight(&sel);
        let packing = pack_into_strip(&inst, &sel, bound);
        packing.solution.validate_packable(&inst, bound).unwrap();
        let kept = packing.solution.weight(&inst);
        // Paper's Lemma 4 target: ≥ (1 − 4δ) = 7/8 of the weight.
        assert!(
            kept as f64 >= 0.875 * total as f64,
            "retention too low: {kept}/{total}"
        );
    }

    #[test]
    fn empty_input_is_empty_output() {
        let inst = instance(2, 10, vec![]);
        let packing = pack_into_strip(&inst, &[], 5);
        assert!(packing.solution.is_empty());
        assert!(packing.dropped.is_empty());
    }
}
