//! # dsa
//!
//! **Dynamic Storage Allocation** (DSA): given a path and a set of tasks,
//! assign every task a height so that overlapping tasks are vertically
//! disjoint, minimising the *makespan* (the uniform capacity needed to fit
//! them all). `LOAD(J)` — the maximum total demand over an edge — is the
//! natural lower bound; Gergov proved `3·LOAD` always suffices, and
//! Buchsbaum et al. proved `(1 + O((D/LOAD)^{1/7}))·LOAD` for small tasks.
//!
//! The paper uses DSA through Lemma 4 (from Bar-Yehuda et al. \[6\]): a
//! `B`-packable **UFPP** solution of δ-small tasks can be converted into a
//! `B`-packable **SAP** solution keeping a `(1−4δ)` fraction of the weight.
//! This crate implements that conversion as [`striplemma::pack_into_strip`]:
//! allocate with a DSA heuristic, then keep the heaviest height-`B` window
//! (derandomised over all critical offsets). See DESIGN.md §3 for the
//! substitution notes: we use first-fit / best-fit allocators (measured
//! near-`LOAD` on small tasks) instead of re-deriving Buchsbaum's recursive
//! boxing construction; the *retention* achieved is measured by the `L4`
//! experiment.

//! ## Example
//!
//! ```
//! use sap_core::{Instance, PathNetwork, Task};
//!
//! // Three tasks on a 3-edge path; capacities irrelevant for pure DSA.
//! let net = PathNetwork::uniform(3, 100).unwrap();
//! let inst = Instance::new(net, vec![
//!     Task::of(0, 2, 3, 1),
//!     Task::of(1, 3, 2, 1),
//!     Task::of(0, 3, 1, 1),
//! ]).unwrap();
//! let alloc = dsa::allocate(&inst, &inst.all_ids(), dsa::DsaOrder::LeftEndpoint);
//! assert_eq!(alloc.len(), 3);                       // DSA places everything
//! let load = dsa::makespan_lower_bound(&inst, &inst.all_ids());
//! assert!(alloc.max_makespan(&inst) >= load);       // LOAD is a lower bound
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod striplemma;

pub use alloc::{allocate, makespan_lower_bound, DsaOrder};
pub use striplemma::{pack_into_strip, StripPacking};
