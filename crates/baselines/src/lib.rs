//! # holistic-baselines — every comparator from the paper's evaluation
//!
//! * [`naive`] — per-row re-evaluation from scratch, O(n · frame). Twice
//!   useful: it is the paper's "naive" competitor *and* an independent
//!   semantics oracle for the merge-sort-tree engine (every function is
//!   re-derived from the SQL definition with plain scans).
//! * [`incremental`] — Wesley & Xu's sliding-state algorithms (PVLDB 2016):
//!   hash-multiset distinct counts, ordered-multiset percentiles, and modes.
//! * [`ostree`] — an order-statistic counted B-tree (Tatham-style), the
//!   `O(n log n)` serial competitor for percentiles and ranks (§5.5).
//! * [`taskpar`] — task-based parallel wrappers that split the output into
//!   fixed-size tasks and re-warm per-task state, reproducing §3.2's
//!   quadratic parallelization penalty for stateful algorithms.
//! * [`sqlsim`] — the "traditional SQL" rewritings of Figure 9 (correlated
//!   subquery and self join), executed as the nested-loop plans real
//!   optimizers produce for them, plus the client-side-tool simulator.
//!
//! Since the strategy-layer refactor, the algorithm kernels (`incremental`,
//! `ostree`, `taskpar`) live in the dependency-free `holistic-strategies`
//! crate so the window executor can pick them per partition; this crate
//! re-exports them unchanged and keeps the engine-coupled comparators
//! ([`naive`], [`sqlsim`]) local.
//!
//! ```
//! use holistic_baselines::incremental::OrderedMultiset;
//! use holistic_baselines::ostree::OrderStatisticTree;
//!
//! let mut t = OrderStatisticTree::new();
//! for v in [5i64, 1, 3, 3, 9] {
//!     t.insert(v);
//! }
//! assert_eq!(t.select(0), Some(1)); // smallest
//! assert_eq!(t.rank(4), 3); // values strictly below 4
//! assert_eq!(t.percentile_disc(0.5), Some(3));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use holistic_strategies::{incremental, ostree, taskpar};

pub mod naive;
pub mod sqlsim;
