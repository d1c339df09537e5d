//! # holistic-core — merge sort trees for framed holistic aggregates
//!
//! This crate implements the *merge sort tree* (MST) of Vogelsgesang et al.,
//! "Efficient Evaluation of Arbitrarily-Framed Holistic SQL Aggregates and
//! Window Functions" (SIGMOD 2022), together with the preprocessing steps that
//! map SQL window functions onto MST queries.
//!
//! A merge sort tree keeps the intermediate sorted runs of a bottom-up
//! multiway merge sort instead of discarding them: level 0 is the input array,
//! level ℓ consists of sorted runs of length `fanout^ℓ`, and the top level is a
//! single sorted run. The tree is annotated with *sampled fractional-cascading
//! pointers* (one pointer bundle every `sampling`-th element of every run)
//! which turn all but the first binary search of a query into O(1) refinements.
//!
//! Three query primitives cover all framed holistic aggregates:
//!
//! * [`MergeSortTree::count_below`] — "how many elements at positions `[a, b)`
//!   are smaller than `t`?" — used by `COUNT(DISTINCT)` (§4.2) and all rank
//!   functions (§4.4).
//! * [`AnnotatedMst::aggregate_below`] — the same range decomposition, but
//!   combining per-run prefix aggregates — used by arbitrary `DISTINCT`
//!   aggregates such as `SUM(DISTINCT)` (§4.3).
//! * [`MergeSortTree::select`] — "which position holds the `j`-th element
//!   whose value lies in the given ranges?" — used by percentiles, value
//!   functions and `LEAD`/`LAG` (§4.5, §4.6).
//!
//! The tree is *built* the other way round: one sort of the keys gives the
//! top run, and each lower level is a stable scatter of its parent's runs
//! into their children, whose write cursors are the cascading pointers (see
//! [`mst`]). The sort and every level of several runs are parallelized with
//! rayon. Queries are read-only and embarrassingly parallel.
//!
//! ```
//! use holistic_core::{MergeSortTree, MstParams};
//!
//! // The prevIdcs array of Figure 1 (shifted encoding: 0 = "no previous").
//! let prev: Vec<u32> = vec![0, 0, 2, 1, 0, 3, 5, 4];
//! let tree = MergeSortTree::<u32>::build(&prev, MstParams::default());
//! // Frame = last 5 positions [3, 8): count entries pointing before the frame
//! // (strictly below 3 + 1 in shifted encoding).
//! assert_eq!(tree.count_below(3, 8, 4), 3); // three distinct values: a, b, c
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod annotated;
pub mod arena;
pub mod codes;
pub mod cursor;
pub mod index;
pub mod leveled;
pub mod loser_tree;
pub mod merge;
pub mod mst;
pub mod params;
pub mod prev_idcs;
pub mod range_set;
pub mod sort;
pub mod stats;

pub use aggregate::{AvgF64, CountAgg, DistinctAggregate, MaxI64, MinI64, SumF64, SumI64};
pub use annotated::AnnotatedMst;
pub use arena::SpillableArena;
pub use codes::{dense_codes, DenseCodes};
pub use index::TreeIndex;
pub use leveled::{ForestCursor, MstForest};
pub use mst::{
    mst_arena_len, mst_spill_build_len, BlockScratch, BlockStats, MergeSortTree, MstShell,
    ProbeSeed,
};
pub use params::MstParams;
pub use prev_idcs::{prev_idcs_by_key, prev_idcs_u64};
pub use range_set::RangeSet;
pub use stats::{paper_element_estimate, MstStats};
