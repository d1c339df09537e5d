//! Annotated merge sort trees for arbitrary framed DISTINCT aggregates (§4.3).
//!
//! Each tree element carries, besides its merge key (the shifted previous-
//! occurrence index), the aggregation payload of its row. On every level
//! the per-run payloads are folded into *prefix* aggregation states (Figure 5):
//! `prefix[i]` combines the payloads of run elements `0..=i`. A framed
//! distinct aggregate then (1) covers the frame with sorted runs, (2) locates
//! the frame start inside each run, and (3) combines the corresponding prefix
//! states — O(log n) per output row.

use crate::aggregate::DistinctAggregate;
use crate::index::TreeIndex;
use crate::mst::{build_levels, level_geometry, MergeSortTree, ProbeSeed};
use crate::params::MstParams;
use crate::range_set::RangeSet;
use rayon::prelude::*;

/// A merge sort tree whose runs carry prefix aggregation states.
///
/// Storage follows the same arena discipline as the plain tree (see
/// [`crate::arena`]): keys and cascading pointers share one allocation, and
/// all levels' prefix states live in a single struct-of-arrays slab indexed
/// `level · n + position` — probe lookups resolve against two flat buffers,
/// never per-level vectors.
pub struct AnnotatedMst<I: TreeIndex, A: DistinctAggregate> {
    tree: MergeSortTree<I>,
    /// All levels' prefix states, level-major: entry `level · n + i` combines
    /// the payloads of the elements of `i`'s run up to and including `i`.
    prefix: Vec<A::State>,
}

impl<I: TreeIndex, A: DistinctAggregate> AnnotatedMst<I, A> {
    /// Builds an annotated tree over the merge keys `values` (shifted
    /// prevIdcs) and per-row aggregation `payloads`.
    ///
    /// The build runs over `(key, payload)` pairs in a scratch arena, the
    /// payloads riding along with their keys through every level; keys are
    /// then extracted into the tree's final single allocation and the
    /// payloads folded into the prefix slab (Figure 5), so the scratch pairs
    /// never survive the build. Equal keys sit in position order in every
    /// run, so the fold order — and a float state's bits — is fixed by the
    /// input alone.
    pub fn build(values: &[I], payloads: &[A::Payload], params: MstParams) -> Self {
        assert_eq!(values.len(), payloads.len());
        let n = values.len();
        let meta = level_geometry(n, params);
        let h = meta.len();
        let ptrs_len = meta.last().unwrap().ptrs.end();

        // Scratch pair arena for the build; same geometry as the key arena.
        let mut pairs: Vec<(I, A::Payload)> = vec![Default::default(); h * n];
        let mut ptrs = vec![I::ZERO; ptrs_len];
        build_levels(values, params, &meta, |p| (values[p], payloads[p]), &mut pairs, &mut ptrs);

        // Final key arena: extracted keys followed by the pointer slabs.
        let mut arena = vec![I::ZERO; h * n + ptrs_len];
        let (keys, ptr_region) = arena.split_at_mut(h * n);
        for (k, &(key, _)) in keys.iter_mut().zip(pairs.iter()) {
            *k = key;
        }
        ptr_region.copy_from_slice(&ptrs);

        // Prefix-fold every run of every level into one level-major slab.
        // Runs are independent; fold them in parallel via chunked iteration.
        let mut prefix: Vec<A::State> = vec![A::identity(); h * n];
        for (lvl, m) in meta.iter().enumerate() {
            let dst = &mut prefix[lvl * n..(lvl + 1) * n];
            let src = &pairs[lvl * n..(lvl + 1) * n];
            let fold = |out: &mut [A::State], data: &[(I, A::Payload)]| {
                let mut acc = A::identity();
                for (o, &(_, p)) in out.iter_mut().zip(data.iter()) {
                    acc = A::combine(acc, A::lift(p));
                    *o = acc;
                }
            };
            if params.parallel && n >= 4096 {
                dst.par_chunks_mut(m.run_len).zip(src.par_chunks(m.run_len)).for_each(
                    |(out, data)| {
                        fold(out, data);
                    },
                );
            } else {
                for (out, data) in dst.chunks_mut(m.run_len).zip(src.chunks(m.run_len)) {
                    fold(out, data);
                }
            }
        }
        AnnotatedMst { tree: MergeSortTree::from_parts(arena, meta, params, n), prefix }
    }

    /// The prefix state at `(level, absolute position)`.
    #[inline]
    fn pf(&self, level: usize, i: usize) -> A::State {
        self.prefix[level * self.tree.len() + i]
    }

    /// Size in bytes of the prefix-state slab (for artifact accounting; the
    /// key/pointer arena is reported by [`MergeSortTree::arena_bytes`]).
    pub fn prefix_bytes(&self) -> usize {
        self.prefix.len() * std::mem::size_of::<A::State>()
    }

    /// Total footprint in bytes: the key/pointer arena plus the prefix slab.
    pub fn bytes(&self) -> usize {
        self.tree.arena_bytes() + self.prefix_bytes()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.tree.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.tree.is_empty()
    }

    /// Combines the payloads of all elements at positions `[a, b)` whose key
    /// is smaller than `t`, returning the state and the number of combined
    /// rows. For shifted prevIdcs keys with `t = a + 1` this is exactly
    /// "aggregate each distinct value of the frame once" (§4.3).
    ///
    /// `seed` carries the search positions from one probe to the next: a
    /// probe loop passes the same [`ProbeSeed`] every time, and the searches
    /// gallop from the previous probe's positions instead of bisecting all
    /// `n` keys and cascading down both frame edges. The seed changes only
    /// the cost: the covered runs are visited in the unseeded order, so the
    /// combine order — and a float state's bits — is the same with or
    /// without one.
    pub fn aggregate_below(
        &self,
        a: usize,
        b: usize,
        t: I,
        seed: Option<&mut ProbeSeed>,
    ) -> (A::State, usize) {
        let mut state = A::identity();
        let mut count = 0usize;
        self.tree.decompose_below(a, b, t, seed, |level, run_start, pos| {
            if pos > 0 {
                state = A::combine(state, self.pf(level, run_start + pos - 1));
                count += pos;
            }
        });
        (state, count)
    }

    /// [`Self::aggregate_below`] over a frame with exclusion holes.
    ///
    /// Note: for a multi-piece frame, the threshold for "first occurrence"
    /// must still be the start of the *whole* frame region handled by the
    /// caller per piece — see `holistic-window`'s distinct evaluation, which
    /// passes piece-specific thresholds and deduplicates across pieces.
    pub fn aggregate_below_multi(&self, ranges: &RangeSet, t: I) -> (A::State, usize) {
        let mut state = A::identity();
        let mut count = 0usize;
        for (a, b) in ranges.iter() {
            let (s, c) = self.aggregate_below(a, b, t, None);
            state = A::combine(state, s);
            count += c;
        }
        (state, count)
    }

    /// The underlying plain tree (for count queries on the same keys).
    pub fn tree(&self) -> &MergeSortTree<I> {
        &self.tree
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::{AvgF64, CountAgg, MaxI64, MinI64, SumI64};
    use crate::prev_idcs::prev_idcs_by_key;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    /// Reference: distinct sum of values[a..b].
    fn brute_distinct_sum(values: &[i64], a: usize, b: usize) -> i128 {
        let mut seen = std::collections::HashSet::new();
        values[a..b].iter().filter(|v| seen.insert(**v)).map(|&v| v as i128).sum()
    }

    fn shifted_prev(values: &[i64]) -> Vec<u32> {
        prev_idcs_by_key(values, false).iter().map(|&p| p as u32).collect()
    }

    #[test]
    fn figure5_sum_distinct() {
        // Values with duplicates; frame = whole input.
        let values: Vec<i64> = vec![10, 20, 20, 10, 30, 20];
        let prev = shifted_prev(&values);
        let t = AnnotatedMst::<u32, SumI64>::build(&prev, &values, MstParams::new(2, 1));
        let (s, cnt) = t.aggregate_below(0, 6, 1, None);
        assert_eq!(SumI64::finish(s), 60);
        assert_eq!(cnt, 3);
        // Frame [2, 6): distinct values 20, 10, 30.
        let (s, _) = t.aggregate_below(2, 6, 3, None);
        assert_eq!(SumI64::finish(s), 60);
        // Frame [3, 5): distinct 10, 30.
        let (s, _) = t.aggregate_below(3, 5, 4, None);
        assert_eq!(SumI64::finish(s), 40);
    }

    #[test]
    fn random_sum_distinct_matches_brute() {
        let mut rng = StdRng::seed_from_u64(99);
        for &(f, k) in &[(2, 1), (4, 8), (32, 32)] {
            for _ in 0..6 {
                let n = rng.gen_range(0..300);
                let values: Vec<i64> = (0..n).map(|_| rng.gen_range(-20..20)).collect();
                let prev = shifted_prev(&values);
                let tree = AnnotatedMst::<u32, SumI64>::build(&prev, &values, MstParams::new(f, k));
                for _ in 0..30 {
                    let a = rng.gen_range(0..=n);
                    let b = rng.gen_range(a..=n);
                    let (s, _) = tree.aggregate_below(a, b, a as u32 + 1, None);
                    assert_eq!(
                        SumI64::finish(s),
                        brute_distinct_sum(&values, a, b),
                        "n={n} f={f} k={k} a={a} b={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn count_agg_matches_plain_count_below() {
        let mut rng = StdRng::seed_from_u64(100);
        let n = 200;
        let values: Vec<i64> = (0..n).map(|_| rng.gen_range(0..30)).collect();
        let prev = shifted_prev(&values);
        let tree = AnnotatedMst::<u32, CountAgg>::build(&prev, &values, MstParams::default());
        for a in (0..n as usize).step_by(7) {
            for b in (a..=n as usize).step_by(13) {
                let (s, cnt) = tree.aggregate_below(a, b, a as u32 + 1, None);
                let plain = tree.tree().count_below(a, b, a as u32 + 1);
                assert_eq!(CountAgg::finish(s) as usize, plain);
                assert_eq!(cnt, plain);
            }
        }
    }

    #[test]
    fn min_max_distinct_equal_plain_min_max() {
        let mut rng = StdRng::seed_from_u64(101);
        let n = 150usize;
        let values: Vec<i64> = (0..n).map(|_| rng.gen_range(-50..50)).collect();
        let prev = shifted_prev(&values);
        let tmin = AnnotatedMst::<u32, MinI64>::build(&prev, &values, MstParams::new(4, 4));
        let tmax = AnnotatedMst::<u32, MaxI64>::build(&prev, &values, MstParams::new(4, 4));
        for a in (0..n).step_by(11) {
            for b in ((a + 1)..=n).step_by(17) {
                let (smin, _) = tmin.aggregate_below(a, b, a as u32 + 1, None);
                let (smax, _) = tmax.aggregate_below(a, b, a as u32 + 1, None);
                assert_eq!(MinI64::finish(smin), *values[a..b].iter().min().unwrap());
                assert_eq!(MaxI64::finish(smax), *values[a..b].iter().max().unwrap());
            }
        }
    }

    #[test]
    fn avg_distinct_on_floats() {
        let values: Vec<f64> = vec![1.0, 2.0, 1.0, 4.0];
        // prevIdcs on float keys via their bit patterns through i64 keys.
        let keys: Vec<i64> = values.iter().map(|v| v.to_bits() as i64).collect();
        let prev = shifted_prev(&keys);
        let tree = AnnotatedMst::<u32, AvgF64>::build(&prev, &values, MstParams::new(2, 2));
        let (s, _) = tree.aggregate_below(0, 4, 1, None);
        // Distinct values 1.0, 2.0, 4.0 → avg 7/3.
        assert!((AvgF64::finish(s).unwrap() - 7.0 / 3.0).abs() < 1e-12);
        let (s, _) = tree.aggregate_below(2, 2, 3, None);
        assert_eq!(AvgF64::finish(s), None);
    }

    #[test]
    fn multi_range_aggregate_sums_pieces() {
        let values: Vec<i64> = vec![5, 6, 7, 8, 9, 10];
        let prev = shifted_prev(&values); // all distinct → all zeros
        let tree = AnnotatedMst::<u32, SumI64>::build(&prev, &values, MstParams::new(2, 1));
        let rs = RangeSet::from_ranges(&[(0, 2), (4, 6)]);
        let (s, cnt) = tree.aggregate_below_multi(&rs, 1);
        assert_eq!(SumI64::finish(s), 5 + 6 + 9 + 10);
        assert_eq!(cnt, 4);
    }

    #[test]
    fn empty_tree() {
        let tree = AnnotatedMst::<u32, SumI64>::build(&[], &[], MstParams::default());
        assert!(tree.is_empty());
        let (s, cnt) = tree.aggregate_below(0, 0, 1, None);
        assert_eq!(SumI64::finish(s), 0);
        assert_eq!(cnt, 0);
    }
}
