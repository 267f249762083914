//! Known-clean counterpart to `bad-workspace/crates/algs/src/semantic.rs`:
//! ordered containers, saturating arithmetic, a reachable validator, and
//! a checkpointed loop — none of n1/o1/v2/b1 may fire.

use std::collections::BTreeMap;

pub fn solve_validated(inst: &Instance) -> Solution {
    let sol = build(inst);
    debug_assert!(sol.validate(inst).is_ok());
    sol
}

fn build(inst: &Instance) -> Solution {
    let seen: BTreeMap<u64, u64> = BTreeMap::new();
    let mut acc = 0;
    for (k, _) in seen.iter() {
        acc += k + inst.demand(*k as usize);
    }
    Solution::with_weight(acc)
}

pub fn try_scan(budget: &Budget, cap: u64, weight: u64, n: u64) -> SapResult<u64> {
    let mut acc = cap.saturating_add(weight);
    while acc < n {
        budget.checkpoint(CheckpointClass::DpRow, 1)?;
        acc += 1;
    }
    Ok(acc)
}
