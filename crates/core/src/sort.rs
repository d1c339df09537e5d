//! Parallel sorting substrate (§5.2, §5.3).
//!
//! The paper reuses the database's existing parallel sorter for the MST
//! preprocessing steps: thread-local runs are sorted independently, then
//! merged with a parallel multiway merge whose split points come from
//! multisequence selection. [`parallel_sort`] is that pipeline for
//! integer-keyed elements (every MST preprocessing sort is integer-keyed
//! after hashing/encoding, §5.1/§6.7).
//!
//! [`sort_indices`] is the engine's one sort: the window ORDER BY, the SQL
//! session's final ORDER BY, every inner ORDER BY and the merge sort tree
//! build hand it their indices (rows or positions) and the normalized key
//! each index is read through, and get the indices back ordered by
//! `(key, index)`. Only the indices move: LSD counting passes permute the
//! index array itself whenever the key's bit width makes that cheaper than
//! comparing.

use crate::index::TreeIndex;
use crate::loser_tree::LoserTree;
use crate::merge::{multisequence_split, Keyed};
use rayon::prelude::*;

/// Most bits one LSD radix pass consumes: 2^12 counters stay cache-resident
/// and a date-sized key is one pass.
const RADIX_DIGIT_BITS: u32 = 12;

/// Fewest indices the keys are gathered for: below it, every sort compares
/// the indices in place.
const RADIX_MIN_LEN: usize = 1 << 6;

/// Whether LSD radix passes beat the comparison sort on `len` indices with
/// `key_bits`-wide keys. Measured on the reference box (EXPERIMENTS.md, "One
/// sort kernel"): clearing and summing a pass's counters costs about as much
/// as moving an eighth as many indices, one or two passes win wherever
/// their counters are paid for, three from 2 Ki indices and four from 8 Ki;
/// five never do.
fn radix_wins(len: usize, key_bits: u32) -> bool {
    let passes = key_bits.div_ceil(RADIX_DIGIT_BITS);
    let buckets = 1usize << key_bits.div_ceil(passes.max(1));
    let counters_paid = passes as usize * buckets <= 8 * len;
    counters_paid && (passes <= 2 || (passes <= 4 && 2 * passes + 5 <= len.ilog2()))
}

/// Splits `data` into `num_runs` contiguous chunks, sorts each by key (one
/// task per chunk) and returns the run boundaries (always starting with 0
/// and ending with `data.len()`).
///
/// Runs are ordered by key only: elements with equal keys land in no
/// particular order, so a caller that needs ties in input order (prevIdcs)
/// sorts indices instead, with [`sort_indices`].
pub fn sort_runs<I: TreeIndex, T: Keyed<I>>(data: &mut [T], num_runs: usize) -> Vec<usize> {
    let n = data.len();
    let chunk = n.div_ceil(num_runs.clamp(1, n.max(1))).max(1);
    let mut bounds: Vec<usize> = (0..n).step_by(chunk).collect();
    bounds.push(n);
    bounds.dedup();
    data.par_chunks_mut(chunk).for_each(|c| c.sort_unstable_by_key(|e| e.key()));
    bounds
}

/// LSD counting sort of the ascending indices `idx` by `(key(i), i)` on the
/// low `key_bits` of each key. Every digit's histogram comes from one read
/// of the keys, and only a digit that not all keys share makes a pass; the
/// passes are stable, so ties keep their ascending index order. The indices
/// move between `idx` and one scratch array, which replaces `idx` when the
/// last pass wrote it.
fn radix_sort<T: Copy + Default>(idx: &mut Vec<T>, key: impl Fn(T) -> u64, key_bits: u32) {
    let (n, passes) = (idx.len(), key_bits.div_ceil(RADIX_DIGIT_BITS) as usize);
    let bits = key_bits.div_ceil(passes.max(1) as u32);
    let buckets = 1usize << bits;
    let digit = |k: u64, p: usize| (k >> (p as u32 * bits)) as usize & (buckets - 1);
    let mut counts = vec![0usize; passes * buckets];
    for &i in idx.iter() {
        let k = key(i);
        for p in 0..passes {
            counts[p * buckets + digit(k, p)] += 1;
        }
    }
    let live: Vec<(usize, &mut [usize])> =
        counts.chunks_mut(buckets).enumerate().filter(|(_, c)| !c.contains(&n)).collect();
    if live.is_empty() {
        return;
    }
    let mut scratch = vec![T::default(); n];
    let odd = live.len() % 2 == 1;
    let (mut src, mut dst) = (&mut idx[..], &mut scratch[..]);
    for (p, next) in live {
        let mut sum = 0;
        for slot in next.iter_mut() {
            sum += std::mem::replace(slot, sum);
        }
        for &i in src.iter() {
            let slot = &mut next[digit(key(i), p)];
            dst[*slot] = i;
            *slot += 1;
        }
        std::mem::swap(&mut src, &mut dst);
    }
    if odd {
        *idx = scratch;
    }
}

/// The engine's one sort: orders `idx` by `(key(i), i)` — a total order, so
/// the result is unique. Only the indices move; each key is read through
/// `key`, the caller's key array.
///
/// `key_bits` is an upper bound on the significant bits of every key (a
/// by-product of range-compressing the keys, 64 when unknown); with the
/// length it decides between LSD radix passes and the comparison sort.
/// Indices normally arrive ascending (a partition's rows in table order, a
/// tree's positions), which the radix passes need; when they do not, the
/// comparison sort takes them. The radix passes run on one thread: forming
/// runs on several and merging them lost to the serial passes at every
/// length measured (EXPERIMENTS.md), so `parallel` reaches only the
/// comparison sort.
pub fn sort_indices<T, K>(idx: &mut Vec<T>, key: K, key_bits: u32, parallel: bool)
where
    T: Copy + Ord + Default + Send + Sync,
    K: Fn(T) -> u64,
{
    debug_assert!(key_bits >= 64 || idx.iter().all(|&i| key(i) >> key_bits == 0));
    if idx.len() < RADIX_MIN_LEN {
        idx.sort_unstable_by_key(|&i| (key(i), i));
    } else if radix_wins(idx.len(), key_bits) && idx.windows(2).all(|w| w[0] < w[1]) {
        radix_sort(idx, key, key_bits);
    } else {
        // Each key read once, then compared beside its index.
        let mut pairs: Vec<(u64, T)> = idx.iter().map(|&i| (key(i), i)).collect();
        if parallel {
            pairs.par_sort_unstable();
        } else {
            pairs.sort_unstable();
        }
        for (i, (_, sorted)) in idx.iter_mut().zip(pairs) {
            *i = sorted;
        }
    }
}

/// Merges the sorted runs delimited by `bounds` into a fresh vector,
/// splitting the merge across threads via multisequence selection.
///
/// This is the "merge sorted runs" phase of Figure 14.
pub fn merge_runs<I: TreeIndex, T: Keyed<I>>(
    data: &[T],
    bounds: &[usize],
    parallel: bool,
) -> Vec<T> {
    let n = data.len();
    let runs: Vec<&[T]> = bounds.windows(2).map(|w| &data[w[0]..w[1]]).collect();
    if runs.len() <= 1 {
        return data.to_vec();
    }
    let mut out = vec![T::default(); n];
    let threads = rayon::current_num_threads();
    if !parallel || threads <= 1 || n < 8192 {
        let mut lt = LoserTree::new(runs, |a: &T, b: &T| a.key() < b.key());
        for slot in out.iter_mut() {
            *slot = lt.pop().expect("merge underflow").0;
        }
    } else {
        let chunk = n.div_ceil(threads).max(1);
        let ranks: Vec<usize> =
            (0..threads).map(|t| (t * chunk).min(n)).chain(std::iter::once(n)).collect();
        let splits: Vec<Vec<usize>> =
            ranks.iter().map(|&r| multisequence_split(&runs, r)).collect();
        let mut parts: Vec<&mut [T]> = Vec::new();
        let mut rest = &mut out[..];
        for w in ranks.windows(2) {
            let (h, t) = rest.split_at_mut(w[1] - w[0]);
            parts.push(h);
            rest = t;
        }
        parts.into_par_iter().enumerate().for_each(|(i, part)| {
            let sub: Vec<&[T]> = runs
                .iter()
                .enumerate()
                .map(|(r, run)| &run[splits[i][r]..splits[i + 1][r]])
                .collect();
            let mut lt = LoserTree::new(sub, |a: &T, b: &T| a.key() < b.key());
            for slot in part.iter_mut() {
                *slot = lt.pop().expect("merge underflow").0;
            }
        });
    }
    out
}

/// End-to-end parallel merge sort: run formation + multiway merge.
pub fn parallel_sort<I: TreeIndex, T: Keyed<I>>(mut data: Vec<T>, parallel: bool) -> Vec<T> {
    let tasks = if parallel { rayon::current_num_threads().max(1) * 4 } else { 1 };
    let bounds = sort_runs::<I, T>(&mut data, tasks);
    if bounds.len() <= 2 {
        return data;
    }
    merge_runs::<I, T>(&data, &bounds, parallel)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn sort_runs_produces_sorted_chunks() {
        let mut data: Vec<u64> = vec![9, 3, 7, 1, 8, 2, 6, 0, 5, 4];
        let bounds = sort_runs::<u64, u64>(&mut data, 3);
        assert_eq!(*bounds.first().unwrap(), 0);
        assert_eq!(*bounds.last().unwrap(), 10);
        for w in bounds.windows(2) {
            assert!(data[w[0]..w[1]].windows(2).all(|p| p[0] <= p[1]));
        }
    }

    #[test]
    fn parallel_sort_matches_std_sort() {
        let mut rng = StdRng::seed_from_u64(77);
        for &n in &[0usize, 1, 2, 100, 10_000, 50_000] {
            let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
            let mut expect = data.clone();
            expect.sort_unstable();
            assert_eq!(parallel_sort::<u64, u64>(data.clone(), true), expect, "n={n}");
            assert_eq!(parallel_sort::<u64, u64>(data, false), expect, "n={n} serial");
        }
    }

    #[test]
    fn sorts_keyed_pairs_by_key_only() {
        let data: Vec<(u32, i64)> = vec![(3, 30), (1, 10), (2, 20), (1, 11)];
        let sorted = parallel_sort::<u32, (u32, i64)>(data, false);
        let keys: Vec<u32> = sorted.iter().map(|p| p.0).collect();
        assert_eq!(keys, vec![1, 1, 2, 3]);
        // Both payloads for key 1 survive.
        let p1: Vec<i64> = sorted.iter().filter(|p| p.0 == 1).map(|p| p.1).collect();
        assert_eq!(p1.len(), 2);
        assert!(p1.contains(&10) && p1.contains(&11));
    }

    #[test]
    fn sort_indices_orders_by_key_then_index_at_every_width() {
        let mut rng = StdRng::seed_from_u64(79);
        let lens = [0, 1, 7, RADIX_MIN_LEN - 1, RADIX_MIN_LEN, 5_000, 1 << 16];
        for bits in 0..=64u32 {
            let mask = if bits == 0 { 0 } else { u64::MAX >> (64 - bits) };
            // Few distinct keys, so ties are common at every width; the top
            // bit is always among them.
            let mut pool: Vec<u64> = (0..63).map(|_| rng.gen::<u64>() & mask).collect();
            pool.push(mask);
            for &n in &lens {
                let key: Vec<u64> = (0..n).map(|_| pool[rng.gen_range(0..64usize)]).collect();
                let mut expect: Vec<usize> = (0..n).collect();
                expect.sort_unstable_by_key(|&i| (key[i], i));
                // Ascending input, and the same indices shuffled (which takes
                // the comparison sort at any length, so once a long one).
                let ascending: Vec<usize> = (0..n).collect();
                let mut shuffled = ascending.clone();
                for i in (1..n).rev() {
                    shuffled.swap(i, rng.gen_range(0..i + 1));
                }
                let inputs = if n <= RADIX_MIN_LEN || bits == 64 { 2 } else { 1 };
                for input in [&ascending, &shuffled].into_iter().take(inputs) {
                    for parallel in [false, true] {
                        let mut idx = input.clone();
                        sort_indices(&mut idx, |i| key[i], bits, parallel);
                        assert_eq!(idx, expect, "n={n} bits={bits} parallel={parallel}");
                    }
                }
            }
        }
    }

    #[test]
    fn sort_indices_sorts_tree_positions() {
        let mut rng = StdRng::seed_from_u64(80);
        let values: Vec<u32> = (0..100_000).map(|_| rng.gen_range(0..50_000)).collect();
        let mut expect: Vec<u32> = (0..100_000).collect();
        expect.sort_unstable_by_key(|&p| (values[p as usize], p));
        for parallel in [false, true] {
            let mut pos: Vec<u32> = (0..100_000).collect();
            sort_indices(&mut pos, |p| u64::from(values[p as usize]), 16, parallel);
            assert_eq!(pos, expect);
        }
    }

    #[test]
    fn merge_runs_handles_single_run() {
        let data = vec![1u64, 2, 3];
        assert_eq!(merge_runs::<u64, u64>(&data, &[0, 3], false), data);
    }

    #[test]
    fn merge_runs_parallel_matches_serial() {
        let mut rng = StdRng::seed_from_u64(78);
        let mut data: Vec<u64> = (0..30_000).map(|_| rng.gen_range(0..5000)).collect();
        let bounds = sort_runs::<u64, u64>(&mut data, 7);
        let s = merge_runs::<u64, u64>(&data, &bounds, false);
        let p = merge_runs::<u64, u64>(&data, &bounds, true);
        assert_eq!(s, p);
    }
}
