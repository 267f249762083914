//! # ufpp
//!
//! Algorithms for the **Unsplittable Flow Problem on Paths**: the
//! substrate the paper's small-task algorithm runs on (§4.1) and the
//! baselines the experiments compare against.
//!
//! * [`relax`] — the LP relaxation (1) of UFPP, built on the workspace's
//!   simplex; also used as an upper bound on OPT in the ratio experiments.
//! * [`rounding`] — the `¼`-scaling + rounding pipeline of Lemma 5: from a
//!   fractional optimum to a `½B`-packable integral solution (the
//!   Chekuri–Mydlarz–Shepherd Theorem 6 step is substituted by a
//!   deterministic greedy rounding; see DESIGN.md §3).
//! * [`local_ratio`] — Algorithm **Strip** from the paper's appendix: the
//!   local-ratio `(5+ε)` alternative producing `½B`-packable solutions,
//!   implemented verbatim; and the classical Bar-Noy-et-al-style
//!   local-ratio for uniform capacities used as a baseline.
//! * [`exact`] — branch & bound exact UFPP for small instances (test
//!   oracle and ratio reference).
//! * [`greedy`] — greedy-by-weight / greedy-by-density baselines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combined;
pub mod exact;
pub mod greedy;
pub mod heuristic;
pub mod local_ratio;
pub mod relax;
pub mod rounding;

pub use combined::{solve_ufpp_combined, UfppParams, UfppStats};
pub use exact::solve_exact;
pub use greedy::{greedy_by_density, greedy_by_weight};
pub use heuristic::{round_lp_against_capacities, solve_ufpp_heuristic};
pub use local_ratio::{strip_local_ratio, uniform_best_of};
pub use relax::{build_relaxation, lp_upper_bound};
pub use rounding::{round_scaled_lp, round_scaled_lp_budgeted, RoundedStrip};
