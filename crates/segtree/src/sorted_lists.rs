//! Sorted-list segment tree — the "base intervals" percentile baseline.
//!
//! Arasu & Widom's base intervals (the only previously parallelizable
//! structure for framed percentiles, §3.1) annotate each segment tree node
//! with the sorted list of its values. A range `[a, b)` decomposes into
//! O(log n) nodes; selecting the j-th smallest element across their sorted
//! lists costs another O(log n) binary searches per step of a value-domain
//! search, for O((log n)²) per query overall — an extra log factor compared
//! to merge sort trees (Table 1), which this crate exists to demonstrate.
//!
//! Structurally this is a merge sort tree *without* cascading pointers and
//! with the canonical (non-overlapping) segment decomposition.

use rayon::prelude::*;

/// Segment tree whose nodes carry sorted value lists.
///
/// Storage follows the arena discipline of `holistic-core`: every level holds
/// exactly `n` values, so all levels live back-to-back in one allocation and
/// a node's list is `(level, offset, len)` arithmetic — no per-level or
/// per-node vectors.
pub struct SortedListSegTree {
    /// Level-major: level ℓ (sorted runs of length 2^ℓ) occupies
    /// `[ℓ·n, (ℓ+1)·n)`; level 0 is the input.
    arena: Vec<i64>,
    /// Number of levels, including the base.
    height: usize,
    n: usize,
}

impl SortedListSegTree {
    /// Builds by pairwise merging, O(n log n) total, parallel across runs.
    pub fn build(values: &[i64], parallel: bool) -> Self {
        let n = values.len();
        let mut height = 1usize;
        let mut top_run = 1usize;
        while top_run < n {
            top_run *= 2;
            height += 1;
        }
        let mut arena = vec![0i64; height * n];
        arena[..n].copy_from_slice(values);
        let mut run = 1usize;
        for lvl in 1..height {
            let next_run = run * 2;
            let (lower, upper) = arena.split_at_mut(lvl * n);
            let child = &lower[(lvl - 1) * n..];
            let next = &mut upper[..n];
            let merge_one = |(start, out): (usize, &mut [i64])| {
                let mid = (start + run).min(n);
                let end = (start + next_run).min(n);
                let (a, b) = (&child[start..mid], &child[mid..end]);
                let (mut i, mut j) = (0, 0);
                for slot in out.iter_mut() {
                    if j >= b.len() || (i < a.len() && a[i] <= b[j]) {
                        *slot = a[i];
                        i += 1;
                    } else {
                        *slot = b[j];
                        j += 1;
                    }
                }
            };
            if parallel && n >= 16384 {
                next.par_chunks_mut(next_run)
                    .enumerate()
                    .for_each(|(r, out)| merge_one((r * next_run, out)));
            } else {
                for (r, out) in next.chunks_mut(next_run).enumerate() {
                    merge_one((r * next_run, out));
                }
            }
            run = next_run;
        }
        SortedListSegTree { arena, height, n }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Size in bytes of the backing allocation (for artifact accounting).
    pub fn bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<i64>()
    }

    /// The values of `level`, all runs concatenated.
    #[inline]
    fn level(&self, lvl: usize) -> &[i64] {
        &self.arena[lvl * self.n..(lvl + 1) * self.n]
    }

    /// The canonical decomposition of `[a, b)` into sorted node lists.
    fn covering_runs(&self, a: usize, b: usize) -> Vec<&[i64]> {
        let b = b.min(self.n);
        let mut runs = Vec::new();
        if a >= b {
            return runs;
        }
        // Greedy: repeatedly take the largest aligned run fitting in [a, b).
        let mut pos = a;
        while pos < b {
            let mut lvl = 0usize;
            // Largest 2^lvl such that pos is aligned and pos + 2^lvl <= b.
            while lvl + 1 < self.height
                && pos.is_multiple_of(1 << (lvl + 1))
                && pos + (1 << (lvl + 1)) <= b
            {
                lvl += 1;
            }
            let len = 1 << lvl;
            runs.push(&self.level(lvl)[pos..pos + len]);
            pos += len;
        }
        runs
    }

    /// Counts values `< t` within `[a, b)` — O((log n)²).
    pub fn count_below(&self, a: usize, b: usize, t: i64) -> usize {
        self.covering_runs(a, b).iter().map(|run| run.partition_point(|&v| v < t)).sum()
    }

    /// The `j`-th smallest value (0-based) within `[a, b)` — O((log n)²) via a
    /// value-domain binary search over the covering runs.
    pub fn select(&self, a: usize, b: usize, j: usize) -> Option<i64> {
        self.select_in([(a, b)], j)
    }

    /// [`Self::select`] over the union of disjoint `ranges`.
    pub fn select_in(
        &self,
        ranges: impl IntoIterator<Item = (usize, usize)>,
        j: usize,
    ) -> Option<i64> {
        let runs: Vec<&[i64]> =
            ranges.into_iter().flat_map(|(a, b)| self.covering_runs(a, b)).collect();
        let total: usize = runs.iter().map(|r| r.len()).sum();
        if j >= total {
            return None;
        }
        // Smallest v with |{x <= v}| >= j + 1.
        let (mut lo, mut hi) = (i64::MIN, i64::MAX);
        while lo < hi {
            let mid = lo + ((hi as i128 - lo as i128) / 2) as i64;
            let cnt: usize = runs.iter().map(|r| r.partition_point(|&v| v <= mid)).sum();
            if cnt > j {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn select_matches_sorting() {
        let mut rng = StdRng::seed_from_u64(3);
        for n in [0usize, 1, 2, 7, 64, 100, 333] {
            let vals: Vec<i64> = (0..n).map(|_| rng.gen_range(-50..50)).collect();
            let st = SortedListSegTree::build(&vals, false);
            for _ in 0..40 {
                let a = rng.gen_range(0..=n);
                let b = rng.gen_range(a..=n);
                let mut window: Vec<i64> = vals[a..b].to_vec();
                window.sort_unstable();
                for j in [0usize, window.len() / 2, window.len().saturating_sub(1), window.len()] {
                    assert_eq!(
                        st.select(a, b, j),
                        window.get(j).copied(),
                        "n={n} a={a} b={b} j={j}"
                    );
                }
            }
        }
    }

    #[test]
    fn count_below_matches_scan() {
        let mut rng = StdRng::seed_from_u64(4);
        let vals: Vec<i64> = (0..200).map(|_| rng.gen_range(0..40)).collect();
        let st = SortedListSegTree::build(&vals, false);
        for _ in 0..100 {
            let a = rng.gen_range(0..=vals.len());
            let b = rng.gen_range(a..=vals.len());
            let t = rng.gen_range(-1..45);
            assert_eq!(st.count_below(a, b, t), vals[a..b].iter().filter(|&&v| v < t).count());
        }
    }

    #[test]
    fn extreme_values_survive_domain_search() {
        let vals = vec![i64::MIN, 0, i64::MAX, i64::MIN + 1];
        let st = SortedListSegTree::build(&vals, false);
        assert_eq!(st.select(0, 4, 0), Some(i64::MIN));
        assert_eq!(st.select(0, 4, 1), Some(i64::MIN + 1));
        assert_eq!(st.select(0, 4, 3), Some(i64::MAX));
    }

    #[test]
    fn parallel_build_matches_serial() {
        let mut rng = StdRng::seed_from_u64(5);
        let vals: Vec<i64> = (0..40_000).map(|_| rng.gen_range(-1000..1000)).collect();
        let sp = SortedListSegTree::build(&vals, true);
        let ss = SortedListSegTree::build(&vals, false);
        assert_eq!(sp.arena, ss.arena);
    }

    #[test]
    fn arena_is_level_major() {
        let vals: Vec<i64> = (0..100).rev().collect();
        let st = SortedListSegTree::build(&vals, false);
        assert_eq!(st.level(0), &vals[..]);
        assert_eq!(st.bytes(), st.height * 100 * 8);
        // Top level fully sorted.
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        assert_eq!(st.level(st.height - 1), &sorted[..]);
    }

    #[test]
    fn covering_runs_tile_exactly() {
        let vals: Vec<i64> = (0..100).collect();
        let st = SortedListSegTree::build(&vals, false);
        for a in 0..=100usize {
            for b in a..=100usize {
                let total: usize = st.covering_runs(a, b).iter().map(|r| r.len()).sum();
                assert_eq!(total, b - a);
            }
        }
    }
}
