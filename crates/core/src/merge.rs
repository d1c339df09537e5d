//! Keyed elements and multisequence selection (§5.2 of the paper): what the
//! parallel sort's run merge ([`crate::sort::merge_runs`]) is split with.
//!
//! To merge sorted runs on several threads, split points are found by
//! selecting global ranks across all runs at once, then the chunks between
//! consecutive split points are merged independently.

use crate::index::TreeIndex;

/// Element types that carry a sortable integer key (the order runs are
/// merged in). Plain indices are their own key; a `(key, payload)` pair is
/// ordered by its key alone.
pub trait Keyed<I: TreeIndex>: Copy + Default + Send + Sync {
    /// The merge key.
    fn key(&self) -> I;
}

impl<I: TreeIndex> Keyed<I> for I {
    #[inline]
    fn key(&self) -> I {
        *self
    }
}

impl<I: TreeIndex, P: Copy + Default + Send + Sync> Keyed<I> for (I, P) {
    #[inline]
    fn key(&self) -> I {
        self.0
    }
}

/// Multisequence selection: positions splitting each sorted input run such
/// that the prefixes jointly contain exactly the `rank` smallest elements
/// (ties distributed greedily in run order).
///
/// Runs a binary search over the integer key domain — possible because merge
/// sort tree elements are always integers (§5.1) — followed by greedy tie
/// assignment. O(|domain bits| · f · log run_len).
pub fn multisequence_split<I: TreeIndex, T: Keyed<I>>(inputs: &[&[T]], rank: usize) -> Vec<usize> {
    let total: usize = inputs.iter().map(|r| r.len()).sum();
    assert!(rank <= total, "split rank {rank} out of bounds (total {total})");
    if rank == 0 {
        return vec![0; inputs.len()];
    }
    if rank == total {
        return inputs.iter().map(|r| r.len()).collect();
    }
    // Smallest key v with count_le(v) >= rank.
    let count_le =
        |v: I| -> usize { inputs.iter().map(|run| run.partition_point(|e| e.key() <= v)).sum() };
    let (mut lo, mut hi) = (I::ZERO, I::MAX);
    while lo < hi {
        let mid = I::midpoint(lo, hi);
        if count_le(mid) >= rank {
            hi = mid;
        } else {
            lo = mid.saturating_succ();
        }
    }
    let v = lo;
    let mut splits: Vec<usize> =
        inputs.iter().map(|run| run.partition_point(|e| e.key() < v)).collect();
    let mut need = rank - splits.iter().sum::<usize>();
    for (run, split) in inputs.iter().zip(splits.iter_mut()) {
        if need == 0 {
            break;
        }
        let eq = run[*split..].partition_point(|e| e.key() <= v);
        let take = eq.min(need);
        *split += take;
        need -= take;
    }
    debug_assert_eq!(need, 0);
    splits
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn multisequence_split_basic() {
        let a = vec![1u32, 3, 5, 7];
        let b = vec![2u32, 4, 6, 8];
        let runs: Vec<&[u32]> = vec![&a, &b];
        assert_eq!(multisequence_split(&runs, 0), vec![0, 0]);
        assert_eq!(multisequence_split(&runs, 8), vec![4, 4]);
        assert_eq!(multisequence_split(&runs, 4), vec![2, 2]);
        assert_eq!(multisequence_split(&runs, 1), vec![1, 0]);
        assert_eq!(multisequence_split(&runs, 3), vec![2, 1]);
    }

    #[test]
    fn multisequence_split_ties_go_in_run_order() {
        let a = vec![5u32, 5, 5];
        let b = vec![5u32, 5];
        let runs: Vec<&[u32]> = vec![&a, &b];
        assert_eq!(multisequence_split(&runs, 2), vec![2, 0]);
        assert_eq!(multisequence_split(&runs, 4), vec![3, 1]);
    }

    #[test]
    fn multisequence_split_random_is_consistent() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..40 {
            let nruns = rng.gen_range(1..6);
            let runs: Vec<Vec<u64>> = (0..nruns)
                .map(|_| {
                    let len = rng.gen_range(0..30);
                    let mut v: Vec<u64> = (0..len).map(|_| rng.gen_range(0..20)).collect();
                    v.sort_unstable();
                    v
                })
                .collect();
            let slices: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
            let total: usize = runs.iter().map(|r| r.len()).sum();
            for rank in 0..=total {
                let splits = multisequence_split(&slices, rank);
                assert_eq!(splits.iter().sum::<usize>(), rank);
                // Max of prefixes <= min of suffixes.
                let prefix_max =
                    runs.iter().zip(&splits).filter_map(|(r, &s)| r[..s].last().copied()).max();
                let suffix_min =
                    runs.iter().zip(&splits).filter_map(|(r, &s)| r[s..].first().copied()).min();
                if let (Some(pm), Some(sm)) = (prefix_max, suffix_min) {
                    assert!(pm <= sm, "rank {rank}: {pm} > {sm}");
                }
            }
        }
    }
}
