//! Previous-occurrence preprocessing for distinct aggregates (Algorithm 1).
//!
//! `prev_idcs[i]` holds the index of the previous occurrence of `keys[i]`, in
//! the *shifted* encoding of §5.1: `0` means "no previous occurrence" and any
//! other value `v` means "previous occurrence at index `v − 1`". The shifted
//! encoding keeps the array a plain unsigned integer array.
//!
//! The count of distinct values within a frame `[a, b)` equals the number of
//! entries in `prev_idcs[a..b]` that are `< a + 1` (each distinct value is
//! counted exactly once, at its first occurrence inside the frame — Figure 1).
//!
//! Over dense codes — each value numbered `0..card` by equality, as the
//! engine numbers them — one pass that remembers where each code was last
//! seen computes the same array in O(n + card) ([`prev_idcs_dense`]);
//! Algorithm 1's sort ([`prev_idcs_by_key`]) is its definition and serves
//! keys that are not dense.
//!
//! Note: Algorithm 1 in the paper writes `prevIdcs[i] ← sorted[i-1].second`,
//! indexing by the *sorted* position `i`; the accompanying text and Figure 1
//! make clear the array must be in input order, so we write to
//! `prev_idcs[sorted[i].second]` instead.

use rayon::prelude::*;

/// Computes shifted previous-occurrence indices for arbitrary ordered keys.
///
/// Runs Algorithm 1: annotate each key with its position, sort
/// lexicographically (a stable sort on the key), then read neighbours.
/// O(n log n); the sort and the scatter loop parallelize.
pub fn prev_idcs_by_key<K: Ord + Copy + Send + Sync>(keys: &[K], parallel: bool) -> Vec<usize> {
    let n = keys.len();
    let mut sorted: Vec<(K, usize)> = keys.iter().copied().zip(0..n).collect();
    if parallel && n >= 4096 {
        sorted.par_sort_unstable();
    } else {
        sorted.sort_unstable();
    }
    let mut prev = vec![0usize; n];
    // In the sorted order, duplicates form runs ordered by original position;
    // the previous occurrence of sorted[i] is sorted[i-1] iff keys match.
    if parallel && n >= 4096 {
        // The scatter targets are a permutation of 0..n, so the writes are
        // disjoint; collect (position, value) updates in parallel and apply.
        let sorted = &sorted;
        let updates: Vec<(usize, usize)> = (1..n)
            .into_par_iter()
            .filter_map(|i| {
                if sorted[i].0 == sorted[i - 1].0 {
                    Some((sorted[i].1, sorted[i - 1].1 + 1))
                } else {
                    None
                }
            })
            .collect();
        for (pos, val) in updates {
            prev[pos] = val;
        }
    } else {
        for i in 1..n {
            if sorted[i].0 == sorted[i - 1].0 {
                prev[sorted[i].1] = sorted[i - 1].1 + 1;
            }
        }
    }
    prev
}

/// Shifted previous-occurrence indices of dense codes, each below `card`:
/// one linear pass over a last-seen array, equal to
/// [`prev_idcs_by_key`] over the same codes.
pub fn prev_idcs_dense(codes: impl IntoIterator<Item = usize>, card: usize) -> Vec<usize> {
    let mut last_seen = vec![0usize; card];
    let at = codes.into_iter().enumerate();
    at.map(|(i, code)| std::mem::replace(&mut last_seen[code], i + 1)).collect()
}

/// [`prev_idcs_by_key`] over 64-bit value hashes (§6.7), for the figure
/// benchmarks that replay the paper's hashed preprocessing. Two values whose
/// hashes collide count as one here; the engine numbers values by equality
/// and calls [`prev_idcs_dense`].
pub fn prev_idcs_u64(hashes: &[u64], parallel: bool) -> Vec<usize> {
    prev_idcs_by_key(hashes, parallel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn brute(keys: &[i64]) -> Vec<usize> {
        let mut prev = vec![0usize; keys.len()];
        for i in 0..keys.len() {
            for j in (0..i).rev() {
                if keys[j] == keys[i] {
                    prev[i] = j + 1;
                    break;
                }
            }
        }
        prev
    }

    #[test]
    fn figure1_example() {
        // Input: a b b a c b ... mirroring Figure 1's 8 tuples with 3 values.
        let keys: Vec<i64> = vec![0, 1, 1, 0, 2, 1, 2, 0];
        // prev (unshifted): -, -, 1, 0, -, 2, 4, 3 → shifted: 0 0 2 1 0 3 5 4.
        assert_eq!(prev_idcs_by_key(&keys, false), vec![0, 0, 2, 1, 0, 3, 5, 4]);
    }

    #[test]
    fn all_distinct_is_all_zero() {
        let keys: Vec<i64> = (0..50).collect();
        assert!(prev_idcs_by_key(&keys, false).iter().all(|&p| p == 0));
    }

    #[test]
    fn all_equal_chains() {
        let keys = vec![7i64; 5];
        assert_eq!(prev_idcs_by_key(&keys, false), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        assert!(prev_idcs_by_key::<i64>(&[], false).is_empty());
    }

    #[test]
    fn random_matches_brute_serial_and_parallel() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let n = rng.gen_range(0..400);
            let keys: Vec<i64> = (0..n).map(|_| rng.gen_range(0..30)).collect();
            let expect = brute(&keys);
            assert_eq!(prev_idcs_by_key(&keys, false), expect);
            assert_eq!(prev_idcs_by_key(&keys, true), expect);
            let dense = keys.iter().map(|&k| k as usize);
            assert_eq!(prev_idcs_dense(dense, 30), expect);
        }
        // Force the parallel path past its size threshold.
        let n = 10_000;
        let keys: Vec<i64> = (0..n).map(|_| rng.gen_range(0..100)).collect();
        assert_eq!(prev_idcs_by_key(&keys, true), prev_idcs_by_key(&keys, false));
        assert_eq!(prev_idcs_dense(keys.iter().map(|&k| k as usize), 100), brute(&keys));
    }

    #[test]
    fn distinct_count_identity_holds() {
        // Number of entries < a+1 within [a, b) equals the distinct count.
        let mut rng = StdRng::seed_from_u64(6);
        let keys: Vec<i64> = (0..200).map(|_| rng.gen_range(0..15)).collect();
        let prev = prev_idcs_by_key(&keys, false);
        for a in (0..keys.len()).step_by(13) {
            for b in (a..=keys.len()).step_by(17) {
                let counted = prev[a..b].iter().filter(|&&p| p < a + 1).count();
                let distinct: std::collections::HashSet<_> = keys[a..b].iter().collect();
                assert_eq!(counted, distinct.len());
            }
        }
    }
}
