//! # holistic-segtree — segment trees for framed aggregates
//!
//! Two structures from prior work, both needed by the paper, and the array
//! that answers the invertible case without a tree ([`PrefixSums`]):
//!
//! * [`SegmentTree`] — the segment tree of Leis et al. (PVLDB 2015) for
//!   framed *distributive and algebraic* aggregates: O(n) parallel build, O(log n)
//!   range queries, robust against non-monotonic frames. This is the engine's
//!   evaluation path for framed `SUM`/`COUNT`/`MIN`/`MAX`/`AVG`.
//! * [`SortedListSegTree`] — the "base intervals" extension (Arasu & Widom)
//!   that annotates every node with a sorted list, the only previously known
//!   *parallelizable* structure for framed percentiles. Queries cost
//!   O((log n)²), which is exactly the gap merge sort trees close (Table 1).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod monoid;
pub mod prefix_sums;
pub mod segment_tree;
pub mod sorted_lists;

pub use monoid::{CountMonoid, MaxMonoid, MinMonoid, Monoid, SumF64Monoid, SumMonoid};
pub use prefix_sums::PrefixSums;
pub use segment_tree::SegmentTree;
pub use sorted_lists::SortedListSegTree;
