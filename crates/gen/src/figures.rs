//! The paper's figure instances, reconstructed and machine-verified.
//!
//! The paper's figures are illustrations; what they *claim* is formal:
//!
//! * **Fig. 1(a)**: with capacities `(½, 1, ½)` there is a set of tasks
//!   forming a feasible UFPP solution that admits **no** SAP solution
//!   containing all of them.
//! * **Fig. 1(b)** (from Chen et al. \[18\]): the same separation with
//!   *uniform* capacity 1 and demands in `{¼, ½}`.
//! * **Fig. 8**: a ½-large SAP solution of five tasks whose associated
//!   rectangles `R(j)` form a 5-cycle — hence not 2-colourable, showing
//!   Lemma 17 is tight for `k = 2`.
//!
//! The instances below reproduce those claims exactly (scaled to integers
//! by ×4). Fig. 1(a)/(b) were found by exhaustive search over the figure's
//! capacity profile and demand set, minimised so that **every proper
//! subset is SAP-feasible**; Fig. 8 was constructed analytically. The
//! `figures` integration tests re-verify every claim with the exact
//! solvers.

use sap_core::{Instance, PathNetwork, SapSolution, Task};

/// Fig. 1(a): capacities `(2, 4, 2)` (= `(½, 1, ½)` scaled by 4), three
/// thin tasks (demand 1 = ¼). Loads fit every edge (UFPP-feasible), but
/// all three tasks pairwise overlap on the middle edge while the two
/// side bottlenecks confine each to the band `[0, 2)` — three unit strips
/// cannot fit in a band of height 2. Every pair of tasks *is*
/// SAP-feasible.
pub fn fig1a() -> Instance {
    let net = PathNetwork::new(vec![2, 4, 2]).expect("static");
    let tasks = vec![
        Task::of(0, 2, 1, 1), // left bridge
        Task::of(0, 2, 1, 1), // second left bridge
        Task::of(1, 3, 1, 1), // right bridge
    ];
    Instance::new(net, tasks).expect("static")
}

/// Fig. 1(b) (Chen et al. \[18\]): uniform capacity 4 (= 1 scaled by 4),
/// five edges, seven tasks with demands in `{1, 2}` (= `{¼, ½}`). The
/// task set is UFPP-feasible but admits no full SAP solution; removing
/// any single task makes it SAP-feasible (minimal witness, found by
/// exhaustive search).
pub fn fig1b() -> Instance {
    let net = PathNetwork::uniform(5, 4).expect("static");
    let tasks = vec![
        Task::of(0, 1, 2, 1), // thick, leftmost edge
        Task::of(0, 2, 2, 1), // thick, left pair
        Task::of(1, 3, 1, 1), // thin
        Task::of(1, 4, 1, 1), // thin, long
        Task::of(2, 4, 1, 1), // thin
        Task::of(3, 5, 2, 1), // thick, right pair
        Task::of(4, 5, 2, 1), // thick, rightmost edge
    ];
    Instance::new(net, tasks).expect("static")
}

/// The Fig. 8 construction: instance, the ½-large SAP solution, and the
/// intended cyclic order of the five tasks.
#[derive(Debug, Clone)]
pub struct Fig8 {
    /// The instance (5 tasks).
    pub instance: Instance,
    /// A feasible SAP solution selecting all five tasks.
    pub solution: SapSolution,
    /// Task ids in cyclic order: consecutive rectangles intersect,
    /// non-consecutive ones are disjoint.
    pub cycle: [usize; 5],
}

/// Fig. 8: a ½-large SAP solution with five tasks whose rectangles
/// `R(j) = [s_j, t_j) × [b(j)−d_j, b(j))` form a 5-cycle.
///
/// Construction (verified by the `fig8_pentagon` integration test):
/// an 11-edge path whose capacity profile pins five different bottlenecks,
///
/// | task | span    | demand | `b(j)` | `R(j)` y-range |
/// |------|---------|--------|--------|-----------------|
/// | E    | `[0,11)`| 6      | 10     | `[4, 10)`       |
/// | A    | `[1,4)` | 11     | 20     | `[9, 20)`       |
/// | B    | `[3,6)` | 21     | 40     | `[19, 40)`      |
/// | C    | `[5,8)` | 71     | 110    | `[39, 110)`     |
/// | D    | `[7,10)`| 31     | 40     | `[9, 40)`       |
///
/// giving the cycle `E–A–B–C–D–E`; the placement
/// `E=0, A=6, B=17, C=38, D=6` schedules all five simultaneously.
pub fn fig8() -> Fig8 {
    let caps = vec![10, 128, 20, 128, 40, 128, 110, 128, 40, 128, 128];
    let net = PathNetwork::new(caps).expect("static");
    let tasks = vec![
        Task::of(0, 11, 6, 1),  // 0 = E
        Task::of(1, 4, 11, 1),  // 1 = A
        Task::of(3, 6, 21, 1),  // 2 = B
        Task::of(5, 8, 71, 1),  // 3 = C
        Task::of(7, 10, 31, 1), // 4 = D
    ];
    let instance = Instance::new(net, tasks).expect("static");
    let solution = SapSolution::from_pairs([(0, 0), (1, 6), (2, 17), (3, 38), (4, 6)]);
    Fig8 { instance, solution, cycle: [0, 1, 2, 3, 4] }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sap_core::{Ratio, UfppSolution};

    #[test]
    fn fig1a_is_ufpp_feasible() {
        let inst = fig1a();
        UfppSolution::new(inst.all_ids()).validate(&inst).unwrap();
    }

    #[test]
    fn fig1b_is_ufpp_feasible() {
        let inst = fig1b();
        UfppSolution::new(inst.all_ids()).validate(&inst).unwrap();
    }

    #[test]
    fn fig8_solution_is_feasible_and_half_large() {
        let f = fig8();
        f.solution.validate(&f.instance).unwrap();
        assert_eq!(f.solution.len(), 5);
        let half = Ratio::new(1, 2);
        for j in 0..f.instance.num_tasks() {
            assert!(
                sap_core::is_delta_large(&f.instance, j, half),
                "task {j} must be 1/2-large"
            );
        }
    }

    // The SAP-infeasibility of fig1a/fig1b and the C5 structure of fig8
    // are verified in the cross-crate integration tests (they need the
    // exact SAP solver and the rectangle machinery).
}
