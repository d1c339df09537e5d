//! Leveled mergeable merge-sort-tree forest — amortized incremental appends.
//!
//! A [`crate::MergeSortTree`] is a static structure: the window engine builds
//! it once per partition and discards it after the query. A growing table
//! (live dashboard, CDC replay) would pay the full O(n log n) rebuild on
//! every refresh. This module makes the MST *mergeable* with the classic
//! LSM / binary-counter run discipline of merge-based sorting (Graefe's run
//! consolidation): the position space `[0, n)` is covered by a small forest
//! of contiguous *runs*, each carrying its own arena-flat MST. An append of
//! `b` elements pushes a new run of length `b` and then merges trailing runs
//! while the second-to-last is no longer than the merged tail span.
//!
//! The invariant after every append is that run lengths decrease by more
//! than 2× front to back, so there are at most ⌈log₂ n⌉ runs and every
//! element participates in O(log n) rebuilds over its lifetime — amortized
//! O(b log n) per append. Each rebuild goes through
//! [`MergeSortTree::build`] over the collapsed span — one sort and one
//! scatter per level, like any other tree: the forest has no build code of
//! its own.
//!
//! Probes decompose across runs:
//!
//! * [`MstForest::count_below`] — counts sum across runs (each run clamps
//!   the query ranges to its own position span and delegates to its tree's
//!   `count_below`);
//! * [`MstForest::select`] — a cross-run rank search over the shared value
//!   domain for the smallest value `v` whose cumulative `count_leq(v)`
//!   across all runs exceeds the requested rank. A hinted probe brackets
//!   that value by doubling steps outward from the hint and bisects inside
//!   the bracket only; just a probe without a hint bisects the forest's
//!   whole `[min, max]`.
//!
//! A caller-owned [`ForestCursor`] makes a stream of probes over sliding
//! frames gallop in both dimensions: in the value domain from the previous
//! answer, and in position from each run's previous top-level lower bound.
//! Galloping returns exactly what the plain search returns for any seed, so
//! a stale cursor (after a collapse renumbers the runs, say) costs time but
//! never changes an answer.
//!
//! Values are order-preserving `u64` encodings (the window layer encodes
//! `i64`/`f64` sort keys bijectively); `u64::MAX` is reserved so that
//! `count_leq(t)` can always be phrased as `count_below(t + 1)`. Annotated
//! (SUM/AVG DISTINCT) aggregates are not forest-accelerated — callers fall
//! back to a full rebuild for those, which the window layer's append engine
//! does automatically.

use crate::cursor::{gallop_partition_point, gallop_partition_point_in, partition_point_in};
use crate::mst::MergeSortTree;
use crate::params::MstParams;
use crate::range_set::RangeSet;

/// One leveled run: a contiguous position span `[start, start + len)` with
/// its own merge sort tree over the values in that span. The run's value
/// bounds let probes skip (or fully count) it without descending the tree:
/// a probe threshold at or below `min_val` contributes nothing, one above
/// `max_val` contributes every clamped position.
struct Run {
    start: usize,
    tree: MergeSortTree<u64>,
    min_val: u64,
    max_val: u64,
}

/// An appendable forest of merge sort trees over a growing value sequence.
///
/// ```
/// use holistic_core::{MstForest, MstParams, RangeSet};
///
/// let mut f = MstForest::new(MstParams::default().serial());
/// f.append(&[5, 1, 4]);
/// f.append(&[2, 8]);
/// assert_eq!(f.len(), 5);
/// // Two values below 4 in the full span:
/// assert_eq!(f.count_below(&RangeSet::single(0, 5), 4), 2);
/// // The 0-based rank-2 value (third smallest) is 4:
/// assert_eq!(f.select(&RangeSet::single(0, 5), 2), Some(4));
/// ```
pub struct MstForest {
    params: MstParams,
    /// All values in position (append) order; run `r` owns the slice
    /// `vals[runs[r].start .. runs[r].start + runs[r].tree.len()]`.
    vals: Vec<u64>,
    runs: Vec<Run>,
    merges: u64,
    rebuilt: u64,
}

/// Probe state a caller keeps across [`MstForest::select_with`] calls whose
/// frames move a little at a time (the append engine's per-row probes).
///
/// It holds the previous answer, from which a select gallops outward in the
/// value domain, and one top-level position per run, from which a count
/// pass over a fully covered run gallops instead of bisecting the run. Any
/// cursor is valid against any forest: a seed only decides where a search
/// starts, never what it returns.
///
/// ```
/// use holistic_core::{ForestCursor, MstForest, MstParams, RangeSet};
///
/// let mut f = MstForest::new(MstParams::default().serial());
/// f.append(&[5, 1, 4, 2, 8]);
/// let mut cur = ForestCursor::default();
/// for end in 1..=5 {
///     let frame = RangeSet::single(0, end);
///     let median = f.select_with(&frame, (end - 1) / 2, &mut cur);
///     assert_eq!(median, f.select(&frame, (end - 1) / 2));
/// }
/// ```
#[derive(Debug, Clone, Default)]
pub struct ForestCursor {
    /// The previous select's answer.
    hint: Option<u64>,
    /// Per run index, the lower bound of the last threshold in that run's
    /// top level.
    tops: Vec<usize>,
}

impl MstForest {
    /// An empty forest.
    pub fn new(params: MstParams) -> Self {
        params.validate();
        MstForest { params, vals: Vec::new(), runs: Vec::new(), merges: 0, rebuilt: 0 }
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.vals.len()
    }

    /// True when no elements have been appended.
    pub fn is_empty(&self) -> bool {
        self.vals.is_empty()
    }

    /// Number of live runs (≤ ⌈log₂ n⌉ + 1).
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Run merges performed across all appends.
    pub fn merges(&self) -> u64 {
        self.merges
    }

    /// Total elements passed through tree rebuilds (the amortization
    /// currency: O(n log n) over the forest's lifetime).
    pub fn rebuilt_elements(&self) -> u64 {
        self.rebuilt
    }

    /// Arena bytes across all run trees.
    pub fn arena_bytes(&self) -> usize {
        self.runs.iter().map(|r| r.tree.arena_bytes()).sum()
    }

    /// The values in position order.
    pub fn values(&self) -> &[u64] {
        &self.vals
    }

    /// Appends `new_vals` at the end of the position space, merging trailing
    /// runs per the binary-counter discipline. Values must be below
    /// `u64::MAX` (reserved for the `count_leq` encoding).
    pub fn append(&mut self, new_vals: &[u64]) {
        if new_vals.is_empty() {
            return;
        }
        debug_assert!(
            new_vals.iter().all(|&v| v < u64::MAX),
            "u64::MAX is reserved; encode values below it"
        );
        let mut span_start = self.vals.len();
        self.vals.extend_from_slice(new_vals);
        // Collapse trailing runs while the second-to-last run is no longer
        // than the pending merged span, then rebuild once over the final
        // span — one tree build no matter how many runs collapse.
        while let Some(last) = self.runs.last() {
            if last.tree.len() <= self.vals.len() - span_start {
                span_start = last.start;
                self.runs.pop();
                self.merges += 1;
            } else {
                break;
            }
        }
        let slice = &self.vals[span_start..];
        self.rebuilt += slice.len() as u64;
        let (mut min_val, mut max_val) = (u64::MAX, 0u64);
        for &v in slice {
            min_val = min_val.min(v);
            max_val = max_val.max(v);
        }
        self.runs.push(Run {
            start: span_start,
            tree: MergeSortTree::build(slice, self.params),
            min_val,
            max_val,
        });
    }

    /// Number of positions of `ranges` that exist in the forest (ranges are
    /// clamped to `[0, len)`).
    pub fn positions(&self, ranges: &RangeSet) -> usize {
        let n = self.vals.len();
        ranges.iter().map(|(a, b)| b.min(n).saturating_sub(a.min(n))).sum()
    }

    /// How many values at positions in `ranges` are strictly below `t` —
    /// the per-run counts sum across runs.
    pub fn count_below(&self, ranges: &RangeSet, t: u64) -> usize {
        self.count_pass(ranges, t, &mut [])
    }

    /// [`Self::count_below`], where a fully covered run `r` with an entry in
    /// `tops` gallops to its top-level lower bound from `tops[r]` and stores
    /// it there; every other run and piece takes the tree's own probe.
    fn count_pass(&self, ranges: &RangeSet, t: u64, tops: &mut [usize]) -> usize {
        let mut total = 0usize;
        for (r, run) in self.runs.iter().enumerate() {
            if t <= run.min_val {
                continue;
            }
            let saturated = t > run.max_val;
            let end = run.start + run.tree.len();
            for (a, b) in ranges.iter() {
                let (la, lb) = (a.max(run.start), b.min(end));
                if la >= lb {
                    continue;
                }
                total += if saturated {
                    lb - la
                } else if let Some(top) = tops.get_mut(r).filter(|_| (la, lb) == (run.start, end)) {
                    *top = gallop_partition_point(run.tree.top_keys(), *top, |&x| x < t);
                    *top
                } else {
                    run.tree.count_below(la - run.start, lb - run.start, t)
                };
            }
        }
        total
    }

    /// How many values at positions in `ranges` are ≤ `t` (requires
    /// `t < u64::MAX`, guaranteed by the append-time reservation).
    pub fn count_leq(&self, ranges: &RangeSet, t: u64) -> usize {
        debug_assert!(t < u64::MAX);
        self.count_below(ranges, t + 1)
    }

    /// The `j`-th smallest value (0-based) among the positions in `ranges`,
    /// or `None` when fewer than `j + 1` positions exist. Cross-run rank
    /// search: bisect the value domain for the smallest `v` with
    /// `count_leq(ranges, v) > j`; per-run `count_below` probes decompose
    /// the rank without ever materializing a merged run.
    pub fn select(&self, ranges: &RangeSet, j: usize) -> Option<u64> {
        self.select_from(ranges, j, None)
    }

    /// [`Self::select`] seeded with a guess (typically the previous probe's
    /// answer when frames slide by one row). A correct guess costs two
    /// count passes; a miss brackets the answer by doubling steps outward
    /// from the guess in the value domain and bisects only inside that
    /// bracket. Without a guess, the forest's whole `[min, max]` is bisected.
    /// Every count pass binary-searches each run it probes; for a stream of
    /// probes, [`Self::select_with`] also gallops there.
    pub fn select_from(&self, ranges: &RangeSet, j: usize, hint: Option<u64>) -> Option<u64> {
        self.select_seeded(ranges, j, hint, &mut [])
    }

    /// [`Self::select_from`] seeded from `cur`: the value search starts at
    /// the cursor's previous answer, and a fully covered run's count starts
    /// at its previous top-level position. The answer becomes the next
    /// hint. Returns exactly what [`Self::select`] returns.
    pub fn select_with(&self, ranges: &RangeSet, j: usize, cur: &mut ForestCursor) -> Option<u64> {
        if cur.tops.len() < self.runs.len() {
            cur.tops.resize(self.runs.len(), 0);
        }
        let v = self.select_seeded(ranges, j, cur.hint, &mut cur.tops)?;
        cur.hint = Some(v);
        Some(v)
    }

    fn select_seeded(
        &self,
        ranges: &RangeSet,
        j: usize,
        hint: Option<u64>,
        tops: &mut [usize],
    ) -> Option<u64> {
        if j >= self.positions(ranges) {
            return None;
        }
        // The answer lies in [min, max] of the observed per-run bounds, so
        // the bisection is O(log of the live value spread), not 64 steps.
        let (mut lo, mut hi) = (u64::MAX, 0u64);
        for run in &self.runs {
            lo = lo.min(run.min_val);
            hi = hi.max(run.max_val);
        }
        // `v` lies below the answer iff at most `j` values are ≤ `v`; `hi`
        // itself never does, so searching `[lo, hi)` returns `hi` at most.
        // `v < hi < u64::MAX` (reserved), so `v + 1` never wraps.
        let below = |v: u64| self.count_pass(ranges, v + 1, tops) <= j;
        Some(match hint {
            Some(h) => gallop_partition_point_in(lo..hi, h, below),
            None => partition_point_in(lo..hi, below),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn brute_count_below(vals: &[u64], ranges: &RangeSet, t: u64) -> usize {
        ranges
            .iter()
            .flat_map(|(a, b)| a..b.min(vals.len()))
            .filter(|&p| p < vals.len() && vals[p] < t)
            .count()
    }

    fn brute_select(vals: &[u64], ranges: &RangeSet, j: usize) -> Option<u64> {
        let mut xs: Vec<u64> = ranges
            .iter()
            .flat_map(|(a, b)| a..b.min(vals.len()))
            .filter(|&p| p < vals.len())
            .map(|p| vals[p])
            .collect();
        xs.sort_unstable();
        xs.get(j).copied()
    }

    #[test]
    fn binary_counter_run_lengths() {
        let mut f = MstForest::new(MstParams::new(2, 2).serial());
        for i in 0..100u64 {
            f.append(&[i]);
            // Run lengths strictly decrease front to back.
            let lens: Vec<usize> = f.runs.iter().map(|r| r.tree.len()).collect();
            assert!(lens.windows(2).all(|w| w[0] > w[1]), "{lens:?}");
            assert_eq!(lens.iter().sum::<usize>(), (i + 1) as usize);
            assert!(f.num_runs() <= 64 - (i + 1).leading_zeros() as usize + 1);
        }
        // Amortization: ~n log n elements rebuilt in total for 1-by-1 appends.
        assert!(f.rebuilt_elements() <= 100 * 8);
    }

    #[test]
    fn forest_matches_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0x1EAF);
        for case in 0..40 {
            let params = if case % 2 == 0 {
                MstParams::new(2, 1).serial()
            } else {
                MstParams::new(4, 2).serial()
            };
            let mut f = MstForest::new(params);
            let mut vals: Vec<u64> = Vec::new();
            let batches = rng.gen_range(1..6);
            for _ in 0..batches {
                let b: Vec<u64> =
                    (0..rng.gen_range(0..12)).map(|_| rng.gen_range(0..30u64)).collect();
                f.append(&b);
                vals.extend_from_slice(&b);
            }
            let n = vals.len();
            let mut ranges = RangeSet::empty();
            let mut lo = 0usize;
            while lo < n && ranges.len() < 3 {
                let a = lo + rng.gen_range(0..3usize);
                let b = a + rng.gen_range(0..6usize);
                if a < b && a < n {
                    ranges.push(a, b.min(n));
                }
                lo = b + 1;
            }
            for t in 0..31u64 {
                assert_eq!(f.count_below(&ranges, t), brute_count_below(&vals, &ranges, t));
                assert_eq!(f.count_leq(&ranges, t), brute_count_below(&vals, &ranges, t + 1));
            }
            for j in 0..f.positions(&ranges) + 2 {
                assert_eq!(f.select(&ranges, j), brute_select(&vals, &ranges, j), "j={j}");
            }
        }
    }

    #[test]
    fn empty_and_single_run_edges() {
        let mut f = MstForest::new(MstParams::default().serial());
        assert!(f.is_empty());
        assert_eq!(f.count_below(&RangeSet::single(0, 10), 5), 0);
        assert_eq!(f.select(&RangeSet::single(0, 10), 0), None);
        f.append(&[]);
        assert!(f.is_empty());
        f.append(&[7]);
        assert_eq!(f.len(), 1);
        assert_eq!(f.num_runs(), 1);
        assert_eq!(f.select(&RangeSet::single(0, 1), 0), Some(7));
        assert_eq!(f.count_leq(&RangeSet::single(0, 1), 7), 1);
        assert_eq!(f.count_below(&RangeSet::single(0, 1), 7), 0);
    }

    #[test]
    fn extreme_values_roundtrip() {
        let mut f = MstForest::new(MstParams::default().serial());
        f.append(&[0, u64::MAX - 1, 1 << 63]);
        let all = RangeSet::single(0, 3);
        assert_eq!(f.select(&all, 0), Some(0));
        assert_eq!(f.select(&all, 1), Some(1 << 63));
        assert_eq!(f.select(&all, 2), Some(u64::MAX - 1));
        assert_eq!(f.count_leq(&all, u64::MAX - 1), 3);
    }
}
