//! Exact UFPP by branch & bound — the reference optimum for small
//! instances in tests and ratio experiments.
//!
//! The combinatorial DFS [`solve_exact`] (no LP machinery, always runs
//! to completion) is the workspace's only exact UFPP engine.

use sap_core::{Instance, TaskId, UfppSolution};

/// Solves UFPP exactly over `ids` by depth-first branch & bound with
/// remaining-weight pruning. Exponential in the worst case; intended for
/// `n ≲ 30` reference runs.
pub fn solve_exact(instance: &Instance, ids: &[TaskId]) -> UfppSolution {
    // Order by weight density (descending) so good solutions are found
    // early and pruning bites.
    let mut order: Vec<TaskId> = ids.to_vec();
    order.sort_by(|&a, &b| {
        let lhs = instance.weight(a) as u128 * instance.demand(b) as u128;
        let rhs = instance.weight(b) as u128 * instance.demand(a) as u128;
        rhs.cmp(&lhs)
    });
    // Suffix weight sums for pruning.
    let mut suffix = vec![0u64; order.len() + 1];
    for i in (0..order.len()).rev() {
        // lint:allow(p1) — suffix has len+1 slots and i < len, so both
        // accesses (and order[i]) are in bounds.
        suffix[i] = suffix[i + 1] + instance.weight(order[i]);
    }

    struct Dfs<'a> {
        inst: &'a Instance,
        order: &'a [TaskId],
        suffix: &'a [u64],
        loads: Vec<u64>,
        current: Vec<TaskId>,
        current_w: u64,
        best: Vec<TaskId>,
        best_w: u64,
    }

    impl Dfs<'_> {
        fn go(&mut self, i: usize) {
            if self.current_w > self.best_w {
                self.best_w = self.current_w;
                self.best = self.current.clone();
            }
            if i == self.order.len() || self.current_w + self.suffix[i] <= self.best_w {
                return;
            }
            let j = self.order[i];
            let t = self.inst.task(j);
            // Branch 1: take j if it fits.
            if t
                .span
                .edges()
                .all(|e| self.loads[e] + t.demand <= self.inst.network().capacity(e))
            {
                for e in t.span.edges() {
                    self.loads[e] += t.demand;
                }
                self.current.push(j);
                self.current_w += t.weight;
                self.go(i + 1);
                self.current_w -= t.weight;
                self.current.pop();
                for e in t.span.edges() {
                    self.loads[e] -= t.demand;
                }
            }
            // Branch 2: skip j.
            self.go(i + 1);
        }
    }

    let mut dfs = Dfs {
        inst: instance,
        order: &order,
        suffix: &suffix,
        loads: vec![0; instance.num_edges()],
        current: Vec::new(),
        current_w: 0,
        best: Vec::new(),
        best_w: 0,
    };
    dfs.go(0);
    UfppSolution::new(dfs.best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_core::{PathNetwork, Task};

    fn brute_force(inst: &Instance) -> u64 {
        let n = inst.num_tasks();
        assert!(n <= 20);
        let mut best = 0;
        for mask in 0u32..(1 << n) {
            let sel: Vec<TaskId> = (0..n).filter(|&i| mask & (1 << i) != 0).collect();
            if UfppSolution::new(sel.clone()).validate(inst).is_ok() {
                best = best.max(inst.total_weight(&sel));
            }
        }
        best
    }

    #[test]
    fn matches_bruteforce() {
        let mut s = 0xFACEu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for case in 0..40 {
            let m = 2 + (next() % 6) as usize;
            let caps: Vec<u64> = (0..m).map(|_| 2 + next() % 12).collect();
            let net = PathNetwork::new(caps).unwrap();
            let mut tasks = Vec::new();
            for _ in 0..(1 + next() % 12) {
                let lo = (next() % m as u64) as usize;
                let hi = (lo + 1 + (next() % (m as u64 - lo as u64)) as usize).min(m);
                let b = net.bottleneck(sap_core::Span { lo, hi });
                tasks.push(Task::of(lo, hi, 1 + next() % b, next() % 25));
            }
            let inst = Instance::new(net, tasks).unwrap();
            let sol = solve_exact(&inst, &inst.all_ids());
            sol.validate(&inst).unwrap();
            assert_eq!(sol.weight(&inst), brute_force(&inst), "case {case}");
        }
    }

    #[test]
    fn knapsack_special_case() {
        // All tasks share an edge — UFPP degenerates to knapsack.
        let net = PathNetwork::new(vec![10]).unwrap();
        let tasks = vec![
            Task::of(0, 1, 6, 60),
            Task::of(0, 1, 5, 50),
            Task::of(0, 1, 5, 50),
        ];
        let inst = Instance::new(net, tasks).unwrap();
        let sol = solve_exact(&inst, &inst.all_ids());
        assert_eq!(sol.weight(&inst), 100);
    }

    #[test]
    fn empty() {
        let net = PathNetwork::uniform(2, 4).unwrap();
        let inst = Instance::new(net, vec![]).unwrap();
        assert!(solve_exact(&inst, &[]).is_empty());
    }
}
