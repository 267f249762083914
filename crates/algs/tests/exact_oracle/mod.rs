//! Test oracle: the previous exact SAP search, kept verbatim so the
//! production search in `sap_algs::exact` can be diffed against it.
//!
//! The search exploits Observation 11: some optimal solution is *grounded*
//! (every task at height 0 or resting on another). Enumerating selected
//! tasks bottom-up, the grounded height of the next task is determined by
//! the **makespan profile** `μ(e)` of the tasks placed so far — so a state
//! is exactly `(placed set, μ profile)`. Distinct insertion orders
//! reaching the same state are merged, and a task whose grounded height
//! already overflows its bottleneck can never be placed later (profiles
//! only grow), which yields a sound remaining-weight prune.
//!
//! Every state owns a `μ` clone and its memo key owns another; children
//! are tried in index order and the incumbent moves only on a strict
//! improvement, so the returned order is the first optimal insertion
//! order in that order. The production search must return the same one.

use std::collections::HashSet;

use sap_algs::ExactConfig;
use sap_core::budget::{Budget, CheckpointClass};
use sap_core::error::{SapError, SapResult};
use sap_core::{canonical_heights, Instance, SapSolution, TaskId};

struct Search<'a> {
    inst: &'a Instance,
    ids: &'a [TaskId],
    seen: HashSet<(u64, Vec<u64>)>,
    best_weight: u64,
    best_order: Vec<TaskId>,
    max_states: usize,
    exhausted: bool,
    budget: Option<&'a Budget>,
    budget_tripped: bool,
}

/// Solves SAP exactly over `ids` (at most 64 tasks). Returns `None` when
/// the state budget is exhausted.
pub fn solve_exact_sap(
    instance: &Instance,
    ids: &[TaskId],
    config: ExactConfig,
) -> Option<SapSolution> {
    // Without a cooperative budget the only Err source is absent.
    let sol = run_exact(instance, ids, config, None).unwrap_or(None);
    debug_assert!(sol.as_ref().map_or(true, |s| s.validate(instance).is_ok()));
    sol
}

fn run_exact(
    instance: &Instance,
    ids: &[TaskId],
    config: ExactConfig,
    budget: Option<&Budget>,
) -> SapResult<Option<SapSolution>> {
    assert!(ids.len() <= 64, "exact solver limited to 64 tasks");
    let mut s = Search {
        inst: instance,
        ids,
        seen: HashSet::new(),
        best_weight: 0,
        best_order: Vec::new(),
        max_states: config.max_states,
        exhausted: false,
        budget,
        budget_tripped: false,
    };
    let mu = vec![0u64; instance.num_edges()];
    let mut order = Vec::new();
    s.dfs(0, &mu, 0, &mut order);
    if s.budget_tripped {
        return Err(SapError::BudgetExhausted);
    }
    if s.exhausted {
        return Ok(None);
    }
    let sol = canonical_heights(instance, &s.best_order)
        // lint:allow(p1) — the DFS only records orders whose canonical
        // heights it has already verified edge by edge.
        .expect("searched orders are feasible by construction");
    debug_assert_eq!(sol.weight(instance), s.best_weight);
    debug_assert!(sol.validate(instance).is_ok());
    Ok(Some(sol))
}

impl Search<'_> {
    fn dfs(&mut self, mask: u64, mu: &[u64], weight: u64, order: &mut Vec<TaskId>) {
        if self.exhausted {
            return;
        }
        if let Some(b) = self.budget {
            if b.checkpoint(CheckpointClass::DpRow, 1).is_err() {
                // Unwind the whole search; the caller maps this to
                // Err(BudgetExhausted), so the partial best is never used.
                self.exhausted = true;
                self.budget_tripped = true;
                return;
            }
        }
        if weight > self.best_weight {
            self.best_weight = weight;
            self.best_order = order.clone();
        }
        // Prune: tasks that can still be placed (profiles only grow, so a
        // task overflowing now overflows forever).
        let mut potential = 0u64;
        let mut feasible: Vec<(usize, u64)> = Vec::new(); // (position, grounded height)
        for (i, &j) in self.ids.iter().enumerate() {
            if mask & (1 << i) != 0 {
                continue;
            }
            let span = self.inst.span(j);
            let h = span.edges().map(|e| mu[e]).max().unwrap_or(0);
            if h + self.inst.demand(j) <= self.inst.bottleneck(j) {
                potential += self.inst.weight(j);
                feasible.push((i, h));
            }
        }
        if weight.saturating_add(potential) <= self.best_weight {
            return;
        }
        if !self.seen.insert((mask, mu.to_vec())) {
            return;
        }
        if self.seen.len() > self.max_states {
            self.exhausted = true;
            return;
        }
        for (i, h) in feasible {
            let j = self.ids[i];
            let mut mu2 = mu.to_vec();
            let top = h + self.inst.demand(j);
            for e in self.inst.span(j).edges() {
                mu2[e] = top;
            }
            order.push(j);
            self.dfs(mask | (1 << i), &mu2, weight.saturating_add(self.inst.weight(j)), order);
            order.pop();
        }
    }
}
