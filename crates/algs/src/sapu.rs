//! Exact dynamic program for SAP-U with small integer capacity
//! (Chen, Hassin & Tzur \[18\], §1.1 of the paper).
//!
//! For uniform capacity `K` and integer demands in `{1, …, K}`, SAP is
//! solvable exactly in `O(n·(nK)^K)` time: sweep the edges left to right
//! keeping, per DP state, the **column occupancy** — which selected task
//! occupies each of the `K` height units of the current edge. Tasks
//! ending at the current vertex free their units; tasks starting there
//! may claim any free contiguous block of their demand.
//!
//! This is an independent second exact solver: the test-suite
//! cross-validates it against the search-based [`crate::exact`] solver,
//! so a bug in either would have to be mirrored in a completely
//! different algorithm to go unnoticed.

use std::collections::BTreeMap;

use sap_core::{Instance, Placement, SapSolution, TaskId};

/// Marker for a free height unit in a column state.
const FREE: u32 = u32::MAX;

/// Column occupancy: `state[h]` is the selected task occupying height
/// unit `h` of the current edge (or [`FREE`]).
type State = Vec<u32>;

/// Solves SAP-U exactly by the column-occupancy DP.
///
/// # Panics
///
/// Panics when the network is not uniform, or `K > 12` (the state space
/// is exponential in `K`), or more than `u32::MAX − 1` tasks.
pub fn solve_sapu_exact_dp(instance: &Instance, ids: &[TaskId]) -> SapSolution {
    let net = instance.network();
    assert!(net.is_uniform(), "the Chen et al. DP requires uniform capacities");
    let k = net.min_capacity();
    assert!(k <= 12, "column DP supported for capacity K ≤ 12");
    let k = k as usize;
    let m = instance.num_edges();
    assert!(ids.len() < (u32::MAX - 1) as usize);

    // Starters per edge.
    let mut starters: Vec<Vec<TaskId>> = vec![Vec::new(); m];
    for &j in ids {
        starters[instance.span(j).lo].push(j);
    }

    // DP over edges. Keyed by column state; value = (weight, parent index
    // into `trace`, placements added at this edge).
    #[derive(Clone)]
    struct Entry {
        weight: u64,
        parent: Option<(usize, usize)>, // (edge, index in that edge's trace)
        placed: Vec<Placement>,
    }
    let mut layers: Vec<BTreeMap<State, usize>> = Vec::with_capacity(m);
    let mut traces: Vec<Vec<Entry>> = Vec::with_capacity(m);

    let mut prev: BTreeMap<State, usize> = BTreeMap::new();
    let mut prev_trace: Vec<Entry> = vec![Entry {
        weight: 0,
        parent: None,
        placed: Vec::new(),
    }];
    prev.insert(vec![FREE; k], 0);

    for e in 0..m {
        let mut cur: BTreeMap<State, usize> = BTreeMap::new();
        let mut cur_trace: Vec<Entry> = Vec::new();
        for (state, &idx) in &prev {
            let base_weight = prev_trace[idx].weight;
            // Clear units of tasks that do not use edge e.
            let mut cleared = state.clone();
            for unit in cleared.iter_mut() {
                if *unit != FREE {
                    let j = ids[*unit as usize];
                    if !instance.span(j).contains(e) {
                        *unit = FREE;
                    }
                }
            }
            // Enumerate placements of the starters of edge e.
            let mut stack: Vec<(State, usize, u64, Vec<Placement>)> =
                vec![(cleared, 0, base_weight, Vec::new())];
            while let Some((st, next_starter, w, placed)) = stack.pop() {
                if next_starter == starters[e].len() {
                    let parent = if e == 0 { None } else { Some((e - 1, idx)) };
                    match cur.get(&st) {
                        Some(&existing) if cur_trace[existing].weight >= w => {}
                        _ => {
                            let entry = Entry { weight: w, parent, placed: placed.clone() };
                            let pos = match cur.get(&st) {
                                Some(&existing) => {
                                    cur_trace[existing] = entry;
                                    existing
                                }
                                None => {
                                    cur_trace.push(entry);
                                    cur_trace.len() - 1
                                }
                            };
                            cur.insert(st, pos);
                        }
                    }
                    continue;
                }
                let j = starters[e][next_starter];
                // Option 1: skip this starter.
                stack.push((st.clone(), next_starter + 1, w, placed.clone()));
                // Option 2: place it at each free contiguous block.
                let d = instance.demand(j) as usize;
                // lint:allow(p1) — `starters` partitions exactly the ids in
                // `ids`, so the lookup always succeeds.
                let pos_in_ids = ids.iter().position(|&x| x == j).expect("starter in ids") as u32;
                for h in 0..=(k.saturating_sub(d)) {
                    // `h + d <= k` by the loop bound; saturating keeps
                    // the lint's overflow proof local to this line.
                    let top = h.saturating_add(d);
                    if st[h..top].iter().all(|&u| u == FREE) {
                        let mut st2 = st.clone();
                        for unit in st2[h..top].iter_mut() {
                            *unit = pos_in_ids;
                        }
                        let mut placed2 = placed.clone();
                        placed2.push(Placement { task: j, height: h as u64 });
                        stack.push((st2, next_starter + 1, w + instance.weight(j), placed2));
                    }
                }
            }
        }
        layers.push(prev.clone());
        traces.push(prev_trace.clone());
        prev = cur;
        prev_trace = cur_trace;
    }

    // Best final state + traceback.
    let Some((_, &best_idx)) = prev
        .iter()
        .max_by_key(|(_, &idx)| prev_trace[idx].weight)
    else {
        return SapSolution::empty();
    };
    let mut placements: Vec<Placement> = Vec::new();
    let mut cursor: Option<(usize, usize)> = Some((m - 1, best_idx));
    let mut trace_ref: Vec<&Vec<Entry>> = traces.iter().collect();
    trace_ref.push(&prev_trace); // layer m-1's outgoing trace is `prev_trace`
    // Walk back: the entry at layer e's trace describes placements made at
    // edge e; parents point to layer e−1.
    let mut layer_entries: Vec<Vec<Entry>> = traces;
    layer_entries.push(prev_trace);
    while let Some((e, idx)) = cursor {
        // entries for edge e live in layer_entries[e + 1]
        let entry = &layer_entries[e + 1][idx];
        placements.extend_from_slice(&entry.placed);
        cursor = entry.parent;
    }
    let sol = SapSolution::new(placements);
    debug_assert!(sol.validate(instance).is_ok());
    sol
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{solve_exact_sap, ExactConfig};
    use sap_core::{PathNetwork, Task};

    fn random_sapu(seed: u64, m: usize, n: usize, k: u64) -> Instance {
        let mut s = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let net = PathNetwork::uniform(m, k).unwrap();
        let tasks: Vec<Task> = (0..n)
            .map(|_| {
                let lo = (next() % m as u64) as usize;
                let hi = (lo + 1 + (next() % (m as u64 - lo as u64)) as usize).min(m);
                Task::of(lo, hi, 1 + next() % k, 1 + next() % 20)
            })
            .collect();
        Instance::new(net, tasks).unwrap()
    }

    #[test]
    fn placements_do_not_depend_on_map_order() {
        // Equal weights force constant tie-breaking in the final state
        // scan; BTreeMap layers make every repeated solve return the
        // same placements (HashMap layers re-seed per map and could
        // pick a different equally-optimal state each run).
        for (seed, k) in [(1u64, 3u64), (2, 4), (3, 5)] {
            let base = random_sapu(seed, 4, 8, k);
            let net = base.network().clone();
            let tasks: Vec<Task> = base
                .all_ids()
                .iter()
                .map(|&j| {
                    let sp = base.span(j);
                    Task::of(sp.lo, sp.hi, base.demand(j), 5)
                })
                .collect();
            let inst = Instance::new(net, tasks).unwrap();
            let ids = inst.all_ids();
            let first = solve_sapu_exact_dp(&inst, &ids);
            for round in 0..4 {
                let again = solve_sapu_exact_dp(&inst, &ids);
                assert_eq!(
                    first.placements, again.placements,
                    "seed {seed} round {round}"
                );
            }
        }
    }

    #[test]
    fn matches_search_based_exact_solver() {
        for (seed, k) in [(1u64, 2u64), (2, 3), (3, 4), (4, 5), (5, 3), (6, 4)] {
            let inst = random_sapu(seed, 5, 10, k);
            let ids = inst.all_ids();
            let dp = solve_sapu_exact_dp(&inst, &ids);
            dp.validate(&inst).unwrap();
            let search = solve_exact_sap(&inst, &ids, ExactConfig::default()).unwrap();
            assert_eq!(
                dp.weight(&inst),
                search.weight(&inst),
                "seed {seed}, K={k}"
            );
        }
    }

    #[test]
    fn unit_capacity_is_interval_scheduling() {
        let inst = random_sapu(7, 6, 12, 1);
        let ids = inst.all_ids();
        let dp = solve_sapu_exact_dp(&inst, &ids);
        let mwis = ufpp::local_ratio::weighted_interval_scheduling(&inst, &ids);
        assert_eq!(dp.weight(&inst), inst.total_weight(&mwis));
    }

    #[test]
    fn rejects_nonuniform() {
        let net = PathNetwork::new(vec![2, 3]).unwrap();
        let inst = Instance::new(net, vec![Task::of(0, 1, 1, 1)]).unwrap();
        let result = std::panic::catch_unwind(|| solve_sapu_exact_dp(&inst, &[0]));
        assert!(result.is_err());
    }

    #[test]
    fn empty_input() {
        let inst = random_sapu(8, 4, 0, 3);
        assert!(solve_sapu_exact_dp(&inst, &[]).is_empty());
    }

    #[test]
    fn full_column_packing() {
        // Demands exactly fill the capacity: the DP must find the tight
        // packing.
        let net = PathNetwork::uniform(2, 4).unwrap();
        let tasks = vec![
            Task::of(0, 2, 2, 5),
            Task::of(0, 2, 1, 3),
            Task::of(0, 2, 1, 3),
            Task::of(0, 2, 2, 4),
        ];
        let inst = Instance::new(net, tasks).unwrap();
        let dp = solve_sapu_exact_dp(&inst, &inst.all_ids());
        assert_eq!(dp.weight(&inst), 11, "2+1+1 units: tasks 0,1,2");
    }
}
