//! Exact SAP by state-space search — the reference optimum for the ratio
//! experiments, the optimal class solver inside Elevator, and the oracle
//! behind the Fig. 1 separations.
//!
//! The search exploits Observation 11: some optimal solution is *grounded*
//! (every task at height 0 or resting on another). Enumerating selected
//! tasks bottom-up, the grounded height of the next task is the maximum of
//! the makespan profile `μ` of the tasks placed so far over its span. A
//! task whose grounded height already overflows its bottleneck can never
//! be placed later (profiles only grow); the unplaced tasks that still fit
//! are *live*, and they are exactly a node's children.
//!
//! **Flat incremental state.** Placing live task `i` at grounded height
//! `h` raises `μ` to `top = h + d(i)` on `i`'s span and nowhere else, so a
//! live task whose span overlaps `i`'s moves to `max(h_t, top)` and every
//! other one keeps its height. A node is therefore the live set (a `u64`
//! mask) plus the live tasks' grounded heights, kept in one preallocated
//! buffer with one row per depth; `μ` itself is never materialised and a
//! child touches only the tasks overlapping the one just placed.
//!
//! **Canonical weighted memo.** That live set and those heights determine
//! the whole subtree below a node up to its starting weight, so they are
//! the memo key (the closed set is the live set's complement, and the
//! heights carry everything `μ` on live-crossed edges can still affect).
//! The memo keeps the heaviest weight that has entered each key; a revisit
//! at no greater weight returns at once. Keys are interned in one flat
//! arena under FNV-1a hashing with open addressing, so a new key costs one
//! arena write and a revisit allocates nothing.
//!
//! **Greedy incumbent.** A node's reach is its weight plus the weight of
//! its live tasks. It is cut when `reach ≤ best` (it cannot strictly
//! improve the incumbent) or `reach < g`, where `g` is the weight of
//! [`greedy_sap_best`] on the same tasks (it cannot reach the optimum,
//! which is at least `g`). The parent records each child's weight and
//! applies the cut before recursing, so a cut child costs nothing.
//!
//! **Fixed child order.** Children are tried in index order and the
//! incumbent moves only on a strict improvement, so the search returns the
//! first optimal insertion order in that order. Each cut removes only a
//! subtree with no optimal order or one whose optimal orders come after an
//! equal-weight order already found (a memo hit needs a finished state of
//! equal future and no lower weight), and the thresholds never fall. The
//! cuts change how fast that order is found, never which order it is.
//!
//! **Work unit.** One `DpRow` is charged per node entered, memo hits
//! included; children cut in the parent are not charged.

use sap_core::budget::{Budget, CheckpointClass};
use sap_core::error::{SapError, SapResult};
use sap_core::{canonical_heights, Instance, SapSolution, TaskId};

use crate::baselines::greedy_sap_best;

/// Budget knobs for the exact search.
#[derive(Debug, Clone, Copy)]
pub struct ExactConfig {
    /// Maximum number of distinct memo keys (live set plus grounded
    /// heights) before the search gives up.
    pub max_states: usize,
}

impl Default for ExactConfig {
    fn default() -> Self {
        ExactConfig { max_states: 5_000_000 }
    }
}

/// Marks a free slot of [`StateMemo::slots`].
const EMPTY: usize = usize::MAX;

/// One interned state: where its key sits in the arena, the key's hash,
/// and the heaviest weight that has entered it.
struct MemoEntry {
    start: usize,
    len: usize,
    hash: u64,
    weight: u64,
}

/// The canonical weighted memo: every distinct key stored once, back to
/// back in one arena, and found through an open-addressing table.
struct StateMemo {
    words: Vec<u64>,
    entries: Vec<MemoEntry>,
    /// Entry indices by hash, linear probing; the length is a power of
    /// two kept above twice the entry count.
    slots: Vec<usize>,
}

impl StateMemo {
    fn new() -> Self {
        StateMemo { words: Vec::new(), entries: Vec::new(), slots: vec![EMPTY; 16] }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    /// FNV-1a over the key words — hermetic and deterministic run-to-run
    /// (no `RandomState` seeding) — with a final fold, because scaled
    /// heights share their low bits and the table indexes by low bits.
    fn hash(key: &[u64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &v in key {
            h ^= v;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
        h ^ (h >> 29) ^ (h >> 47)
    }

    /// Records that `key` is entered at `weight`. Returns `false` when the
    /// key was already entered at a weight at least as heavy, in which
    /// case the visit has nothing left to find.
    fn admit(&mut self, key: &[u64], weight: u64) -> bool {
        let hash = Self::hash(key);
        let mask = self.slots.len() - 1;
        let mut s = hash as usize & mask;
        loop {
            let id = self.slots[s];
            if id == EMPTY {
                break;
            }
            let e = &mut self.entries[id];
            if e.hash == hash && self.words[e.start..e.start + e.len] == *key {
                if weight <= e.weight {
                    return false;
                }
                e.weight = weight;
                return true;
            }
            s = (s + 1) & mask;
        }
        self.slots[s] = self.entries.len();
        self.entries.push(MemoEntry { start: self.words.len(), len: key.len(), hash, weight });
        self.words.extend_from_slice(key);
        if 2 * self.entries.len() > self.slots.len() {
            self.grow();
        }
        true
    }

    fn grow(&mut self) {
        self.slots = vec![EMPTY; 2 * self.slots.len()];
        let mask = self.slots.len() - 1;
        for (id, e) in self.entries.iter().enumerate() {
            let mut s = e.hash as usize & mask;
            while self.slots[s] != EMPTY {
                s = (s + 1) & mask;
            }
            self.slots[s] = id;
        }
    }
}

struct Search<'a> {
    /// Per search position `i` (index into `ids`): demand, bottleneck,
    /// weight, and the mask of positions whose spans overlap `i`'s.
    demand: Vec<u64>,
    bottleneck: Vec<u64>,
    weight: Vec<u64>,
    overlap: Vec<u64>,
    n: usize,
    /// Grounded heights, one row of `n` per depth; only the live
    /// positions of a row are meaningful.
    heights: Vec<u64>,
    memo: StateMemo,
    /// Reused memo-key buffer.
    key: Vec<u64>,
    /// Weight of the greedy solution: no optimum weighs less.
    greedy: u64,
    order: Vec<usize>,
    best_weight: u64,
    best_order: Vec<usize>,
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

/// Budget-aware variant of [`solve_exact_sap`]: charges one `DpRow` work
/// unit per search node entered (memo hits included, children cut by the
/// parent excluded) against `budget`, and records the memo size at exit
/// as the `exact.memo_states` gauge on the budget's telemetry.
///
/// `Err(BudgetExhausted)` is the cooperative budget tripping; `Ok(None)`
/// is the solver's own memo-state budget giving up.
pub fn solve_exact_sap_budgeted(
    instance: &Instance,
    ids: &[TaskId],
    config: ExactConfig,
    budget: &Budget,
) -> SapResult<Option<SapSolution>> {
    let r = run_exact(instance, ids, config, Some(budget));
    debug_assert!(!matches!(&r, Ok(Some(s)) if s.validate(instance).is_err()));
    r
}

fn run_exact(
    instance: &Instance,
    ids: &[TaskId],
    config: ExactConfig,
    budget: Option<&Budget>,
) -> SapResult<Option<SapSolution>> {
    assert!(ids.len() <= 64, "exact solver limited to 64 tasks");
    let n = ids.len();
    let overlap = ids
        .iter()
        .enumerate()
        .map(|(i, &a)| {
            let span = instance.span(a);
            ids.iter()
                .enumerate()
                .filter(|&(t, &b)| t != i && instance.span(b).overlaps(span))
                .fold(0u64, |m, (t, _)| m | 1 << t)
        })
        .collect();
    let mut s = Search {
        demand: ids.iter().map(|&j| instance.demand(j)).collect(),
        bottleneck: ids.iter().map(|&j| instance.bottleneck(j)).collect(),
        weight: ids.iter().map(|&j| instance.weight(j)).collect(),
        overlap,
        n,
        heights: vec![0; (n + 1) * n],
        memo: StateMemo::new(),
        key: Vec::with_capacity(n + 1),
        greedy: greedy_sap_best(instance, ids).weight(instance),
        order: Vec::with_capacity(n),
        best_weight: 0,
        best_order: Vec::new(),
        max_states: config.max_states,
        exhausted: false,
        budget,
        budget_tripped: false,
    };
    // The root: every task that fits at height 0 is live.
    let mut live = 0u64;
    let mut live_weight = 0u128;
    for i in 0..n {
        if s.demand[i] <= s.bottleneck[i] {
            live |= 1 << i;
            live_weight += u128::from(s.weight[i]);
        }
    }
    if s.promising(0, live_weight) {
        s.visit(0, live, live_weight, 0);
    }
    if let Some(b) = budget {
        b.telemetry().gauge_max("exact.memo_states", s.memo.len() as u64);
    }
    if s.budget_tripped {
        return Err(SapError::BudgetExhausted);
    }
    if s.exhausted {
        return Ok(None);
    }
    let order: Vec<TaskId> = s.best_order.iter().map(|&i| ids[i]).collect();
    let sol = canonical_heights(instance, &order)
        // lint:allow(p1) — the search only records orders whose grounded
        // heights it has already checked against every bottleneck.
        .expect("searched orders are feasible by construction");
    debug_assert_eq!(sol.weight(instance), s.best_weight);
    debug_assert!(sol.validate(instance).is_ok());
    Ok(Some(sol))
}

impl Search<'_> {
    /// Whether a node of `weight` with `live_weight` still placeable can
    /// change the result. `live_weight` is exact (64 weights of at most
    /// `u64::MAX` fit a `u128`); the reach saturates like the weights do.
    fn promising(&self, weight: u64, live_weight: u128) -> bool {
        let reach = u64::try_from(u128::from(weight) + live_weight).unwrap_or(u64::MAX);
        reach > self.best_weight && reach >= self.greedy
    }

    /// Enters the node at `depth` whose live set is `live`; its grounded
    /// heights are row `depth` of the height buffer.
    fn visit(&mut self, depth: usize, live: u64, live_weight: u128, weight: u64) {
        if let Some(b) = self.budget {
            if b.checkpoint(CheckpointClass::DpRow, 1).is_err() {
                // Unwind the whole search; the caller maps this to
                // Err(BudgetExhausted), so the partial best is never used.
                self.exhausted = true;
                self.budget_tripped = true;
                return;
            }
        }
        let n = self.n;
        let row = depth * n;
        self.key.clear();
        self.key.push(live);
        let mut rest = live;
        while rest != 0 {
            let t = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            self.key.push(self.heights[row + t]);
        }
        if !self.memo.admit(&self.key, weight) {
            return;
        }
        if self.memo.len() > self.max_states {
            self.exhausted = true;
            return;
        }
        let next = row + n;
        let mut rest = live;
        while rest != 0 {
            let i = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            let top = self.heights[row + i] + self.demand[i];
            let mut child = live & !(1 << i);
            let mut child_live_weight = live_weight - u128::from(self.weight[i]);
            self.heights.copy_within(row..next, next);
            let mut moved = child & self.overlap[i];
            while moved != 0 {
                let t = moved.trailing_zeros() as usize;
                moved &= moved - 1;
                let h = self.heights[row + t].max(top);
                if h.saturating_add(self.demand[t]) > self.bottleneck[t] {
                    child &= !(1 << t);
                    child_live_weight -= u128::from(self.weight[t]);
                } else {
                    self.heights[next + t] = h;
                }
            }
            let w = weight.saturating_add(self.weight[i]);
            self.order.push(i);
            if w > self.best_weight {
                self.best_weight = w;
                self.best_order.clone_from(&self.order);
            }
            if self.promising(w, child_live_weight) {
                self.visit(depth + 1, child, child_live_weight, w);
            }
            self.order.pop();
            if self.exhausted {
                return;
            }
        }
    }
}


/// True when **all** tasks in `ids` can be scheduled simultaneously
/// (the decision version used by the Fig. 1 separations). Weights are
/// ignored: the check re-weights every task to 1 so that zero-weight
/// tasks cannot be silently dropped.
pub fn is_sap_feasible(instance: &Instance, ids: &[TaskId]) -> bool {
    let unit_tasks: Vec<sap_core::Task> = ids
        .iter()
        .map(|&j| {
            let t = *instance.task(j);
            sap_core::Task { weight: 1, ..t }
        })
        .collect();
    let unit = Instance::new(instance.network().clone(), unit_tasks)
        // lint:allow(p1) — same spans and demands over the same network as the
        // validated input instance, so revalidation cannot fail.
        .expect("restriction of a valid instance");
    match solve_exact_sap(&unit, &unit.all_ids(), ExactConfig::default()) {
        Some(sol) => sol.len() == ids.len(),
        // lint:allow(p1) — a silently wrong yes/no would corrupt every
        // downstream theorem check; exhausting the probe budget is misuse.
        None => panic!("exact feasibility check exhausted its state budget"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_core::{PathNetwork, Task};

    fn exact(inst: &Instance) -> u64 {
        solve_exact_sap(inst, &inst.all_ids(), ExactConfig::default())
            .expect("budget")
            .weight(inst)
    }

    /// Brute force over subsets × insertion orders (tiny n only).
    fn brute(inst: &Instance) -> u64 {
        let n = inst.num_tasks();
        assert!(n <= 8);
        let ids: Vec<TaskId> = inst.all_ids();
        let mut best = 0;
        for mask in 0u32..(1 << n) {
            let subset: Vec<TaskId> =
                ids.iter().copied().filter(|&j| mask & (1 << j) != 0).collect();
            if subset.is_empty() {
                continue;
            }
            // All permutations via Heap's algorithm.
            let mut perm = subset.clone();
            let k = perm.len();
            let mut c = vec![0usize; k];
            let check = |p: &[TaskId], best: &mut u64| {
                if canonical_heights(inst, p).is_some() {
                    *best = (*best).max(inst.total_weight(&p.to_vec()));
                }
            };
            check(&perm, &mut best);
            let mut i = 0;
            while i < k {
                if c[i] < i {
                    if i % 2 == 0 {
                        perm.swap(0, i);
                    } else {
                        perm.swap(c[i], i);
                    }
                    check(&perm, &mut best);
                    c[i] += 1;
                    i = 0;
                } else {
                    c[i] = 0;
                    i += 1;
                }
            }
        }
        best
    }

    #[test]
    fn matches_bruteforce_on_random_instances() {
        let mut s = 0x5EEDu64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for case in 0..40 {
            let m = 2 + (next() % 5) as usize;
            let caps: Vec<u64> = (0..m).map(|_| 2 + next() % 10).collect();
            let net = PathNetwork::new(caps).unwrap();
            let mut tasks = Vec::new();
            for _ in 0..(2 + next() % 6) {
                let lo = (next() % m as u64) as usize;
                let hi = (lo + 1 + (next() % (m as u64 - lo as u64)) as usize).min(m);
                let b = net.bottleneck(sap_core::Span { lo, hi });
                tasks.push(Task::of(lo, hi, 1 + next() % b, 1 + next() % 20));
            }
            let inst = Instance::new(net, tasks).unwrap();
            assert_eq!(exact(&inst), brute(&inst), "case {case}");
        }
    }

    #[test]
    fn knapsack_degenerate_case() {
        let net = PathNetwork::new(vec![10]).unwrap();
        let tasks = vec![
            Task::of(0, 1, 6, 60),
            Task::of(0, 1, 5, 50),
            Task::of(0, 1, 5, 50),
            Task::of(0, 1, 10, 70),
        ];
        let inst = Instance::new(net, tasks).unwrap();
        assert_eq!(exact(&inst), 100);
    }

    #[test]
    fn feasibility_decision() {
        // Three unit tasks forced into a band of height 2 — infeasible
        // together, feasible pairwise (the Fig. 1a core).
        let net = PathNetwork::new(vec![2, 4, 2]).unwrap();
        let tasks = vec![
            Task::of(0, 2, 1, 1),
            Task::of(0, 2, 1, 1),
            Task::of(1, 3, 1, 1),
        ];
        let inst = Instance::new(net, tasks).unwrap();
        assert!(!is_sap_feasible(&inst, &inst.all_ids()));
        assert!(is_sap_feasible(&inst, &[0, 1]));
        assert!(is_sap_feasible(&inst, &[0, 2]));
        assert!(is_sap_feasible(&inst, &[1, 2]));
        assert_eq!(exact(&inst), 2);
    }

    #[test]
    fn exact_beats_or_equals_any_greedy_order() {
        let net = PathNetwork::new(vec![6, 3, 6, 3]).unwrap();
        let tasks = vec![
            Task::of(0, 4, 3, 9),
            Task::of(0, 2, 3, 5),
            Task::of(2, 4, 3, 5),
            Task::of(1, 3, 1, 2),
        ];
        let inst = Instance::new(net, tasks).unwrap();
        let opt = exact(&inst);
        // Greedy insertion in id order.
        let mut chosen = Vec::new();
        for j in inst.all_ids() {
            chosen.push(j);
            if canonical_heights(&inst, &chosen).is_none() {
                chosen.pop();
            }
        }
        assert!(opt >= inst.total_weight(&chosen));
        assert_eq!(opt, 10, "tasks 1+2 (w=10) beat task 0 (w=9)");
    }

    #[test]
    fn empty_and_single() {
        let net = PathNetwork::uniform(2, 4).unwrap();
        let inst = Instance::new(net, vec![Task::of(0, 1, 2, 5)]).unwrap();
        assert_eq!(exact(&inst), 5);
        let empty = Instance::new(PathNetwork::uniform(2, 4).unwrap(), vec![]).unwrap();
        assert_eq!(exact(&empty), 0);
    }

    #[test]
    fn budgeted_search_reports_its_memo_and_charges_each_node() {
        let net = PathNetwork::new(vec![6, 3, 6, 3]).unwrap();
        let tasks = vec![
            Task::of(0, 4, 3, 9),
            Task::of(0, 2, 3, 5),
            Task::of(2, 4, 3, 5),
            Task::of(1, 3, 1, 2),
            Task::of(0, 1, 3, 4),
        ];
        let inst = Instance::new(net, tasks).unwrap();
        let rec = sap_core::Recorder::new();
        let budget = Budget::unlimited().with_telemetry(rec.handle());
        let sol = solve_exact_sap_budgeted(&inst, &inst.all_ids(), ExactConfig::default(), &budget)
            .unwrap()
            .expect("tiny instance");
        assert_eq!(sol.weight(&inst), exact(&inst));
        let keys = rec.handle().gauge("exact.memo_states");
        // Every key was entered at least once, and every entry costs a row.
        assert!(keys > 0);
        assert!(budget.class_consumed(CheckpointClass::DpRow) >= keys);
    }
}
