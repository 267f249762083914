//! # lp-solver
//!
//! A from-scratch **sparse bounded-variable revised simplex** solver for
//! the packing linear programs that arise in this workspace:
//!
//! ```text
//!   max  c·x
//!   s.t. A x ≤ b        (A ≥ 0, b ≥ 0)
//!        0 ≤ x_j ≤ u_j
//! ```
//!
//! This is the fractional relaxation (1) of UFPP in the paper (§4.1): one
//! row per edge, one column per task, `A[e][j] = d_j` when `e ∈ I_j`.
//! The solver is used twice:
//!
//! 1. by the small-task algorithm, which scales the fractional optimum by
//!    ¼ and rounds it (Lemma 5);
//! 2. as an **upper bound on OPT** in the ratio experiments (weak duality:
//!    any integral solution is a feasible LP point).
//!
//! Because `x = 0` is feasible for packing programs, no phase-1 is needed.
//!
//! ## The sparse core
//!
//! The matrix lives in a CSC column store (flat `row_idx`/`val`/`col_ptr`
//! arrays; [`LpProblem::with_columns`] builds it in bulk) and the basis
//! inverse is kept in **product form**: an eta file of sparse pivot
//! columns replayed in fixed index order, with a deterministic periodic
//! refactorization every [`SimplexOptions::refactor_every`] etas. FTRAN
//! and BTRAN skip zero etas exactly, so pricing and column updates cost
//! O(nnz) instead of O(m²). Pricing is deterministic partial pricing
//! over fixed 32-wide candidate segments (Dantzig within the first
//! segment holding an eligible candidate), with Bland's rule as the
//! anti-cycling fallback. [`LpSolution::duality_gap`] exposes an
//! optimality certificate used by the tests: the returned duals are
//! always dual-feasible, so a zero gap proves optimality.
//!
//! Repeated solves can share a [`Scratch`] workspace
//! ([`LpProblem::solve_with_scratch`] /
//! [`LpProblem::solve_budgeted_with_scratch`]): the basis, eta-file and
//! pricing buffers are reused instead of reallocated, and reuse is
//! guaranteed to pick the exact same pivots as a cold solve (every
//! buffer cell is rewritten from the problem data before the first
//! iteration). A [`ScratchPool`] extends the same guarantee across
//! many problems, keyed by shape. The pre-sparse dense solver survives
//! as [`dense::solve_dense`], the differential oracle of the property
//! tests.

//! ## Example
//!
//! ```
//! use lp_solver::LpProblem;
//!
//! // max 3a + 2b  s.t.  a + b ≤ 1,  a, b ∈ [0, 1]
//! let mut lp = LpProblem::new(vec![1.0]);
//! lp.add_var(3.0, 1.0, &[(0, 1.0)]);
//! lp.add_var(2.0, 1.0, &[(0, 1.0)]);
//! let sol = lp.solve(0);
//! assert!((sol.objective - 3.0).abs() < 1e-9);
//! assert!(sol.duality_gap(&lp).abs() < 1e-6);   // optimality certificate
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dense;
pub mod pool;
pub mod simplex;

pub use dense::solve_dense;
pub use pool::ScratchPool;
pub use simplex::{
    LpProblem, LpSolution, LpStatus, PivotRecord, Scratch, SimplexOptions, SolveStats,
};
