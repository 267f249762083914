//! # sap-algs
//!
//! The paper's approximation algorithms for the Storage Allocation
//! Problem, assembled from the workspace's substrates:
//!
//! | module | result | ratio |
//! |--------|--------|-------|
//! | [`small`] | Algorithm Strip-Pack (Thm 1, §4) | `4 + ε` on δ-small |
//! | [`medium`] | AlmostUniform + Elevator (Thm 2, §5) | `2 + ε` on medium |
//! | [`large`] | rectangle packing (Thm 3, §6) | `2k − 1` on `1/k`-large |
//! | [`combined`] | best-of-three split (Thm 4) | `9 + ε` |
//! | [`ring`] | cut + knapsack FPTAS (Thm 5, §7) | `10 + ε` |
//! | [`exact`] | exact SAP (reference) | 1 (exponential time) |
//! | [`sapu`] | Chen et al. column DP for SAP-U, constant K (§1.1) | 1 (poly for constant K) |
//! | [`baselines`] | greedy first-fit SAP | — |
//!
//! Every algorithm returns a [`sap_core::SapSolution`] that passes the
//! exact validator (asserted in debug builds and tests).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod combined;
pub mod driver;
pub mod exact;
pub mod large;
pub mod lemma13;
pub mod medium;
pub mod portfolio;
pub mod ring;
pub mod sapu;
pub mod small;

pub use combined::{solve, SapParams};
pub use driver::{try_solve, try_solve_practical};
pub use exact::{is_sap_feasible, solve_exact_sap, solve_exact_sap_budgeted, ExactConfig};
pub use large::{solve_large, try_solve_large};
pub use lemma13::{solve_lemma13_dp, solve_lemma13_dp_budgeted, Lemma13Config};
pub use medium::{solve_medium, try_solve_medium_with_stats, MediumParams};
pub use portfolio::{solve_batch, sweep_params, Portfolio};
pub use ring::{solve_ring, RingParams};
pub use sapu::solve_sapu_exact_dp;
pub use small::{solve_small, try_solve_small, SmallAlgo, SmallRun};
