//! Pure per-partition evaluation kernels behind the engine's strategy layer.
//!
//! The paper's evaluation (§5, Table 1) compares the merge sort tree against
//! the classic per-partition algorithms: naive re-evaluation, Wesley &
//! Xu-style incremental sliding state, and order-statistic trees. This crate
//! holds those kernels in dependency-free form — plain arrays in, plain
//! arrays out, no engine types — so both the window executor (which picks a
//! strategy per partition) and the benchmark/baseline crates can share one
//! implementation.
//!
//! * [`incremental`] — sliding-state algorithms driven by a generic
//!   add/remove/out loop that tolerates non-monotonic frames, and the sorted
//!   window the engine slides over a counted bitset of dense codes.
//! * [`ostree`] — a counted B-tree multiset with O(log n) select/rank.
//! * [`taskpar`] — task-based parallel drivers that reproduce (and, via
//!   [`taskpar::SlideStats`], measure) the re-warm overhead of §3.2.
//!
//! ```
//! use holistic_strategies::incremental;
//!
//! // A 3-wide sliding window over 5 values.
//! let frames: Vec<(usize, usize)> = (0..5usize).map(|i| (i.saturating_sub(2), i + 1)).collect();
//! let hashes = [1u64, 2, 1, 1, 3];
//! assert_eq!(incremental::distinct_count(&hashes, &frames), vec![1, 2, 2, 2, 2]);
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod incremental;
pub mod ostree;
pub mod taskpar;
