//! Parallel sorting substrate (§5.2, §5.3).
//!
//! The paper reuses the database's existing parallel sorter for the MST
//! preprocessing steps: thread-local runs are sorted independently, then
//! merged with a parallel multiway merge whose split points come from
//! multisequence selection. This module provides exactly that pipeline for
//! integer-keyed elements (every MST preprocessing sort is integer-keyed
//! after hashing/encoding, §5.1/§6.7).
//!
//! [`sort_pairs`] is the engine's one sort entry point: the window ORDER BY
//! and the SQL session's final ORDER BY (through [`sort_rows`]) and every
//! inner ORDER BY hand it `(normalized key, row)` pairs, and the merge sort
//! tree build its `(key, base position)` pairs. Runs are formed with
//! LSD radix passes when the key's bit width makes that cheaper than
//! comparing, and merged with the same stable multiway merge as everything
//! else here.

use crate::index::TreeIndex;
use crate::loser_tree::LoserTree;
use crate::merge::{multisequence_split, Keyed};
use rayon::prelude::*;

/// Most bits one LSD radix pass consumes: 2^12 counters stay cache-resident
/// and a date-sized key is one pass.
const RADIX_DIGIT_BITS: u32 = 12;

/// Fewest pairs worth forming parallel runs for: below it, spawning the
/// workers and merging their runs costs more than the serial sort (on the
/// two-core reference box the two meet at about a million pairs).
const PARALLEL_MIN_LEN: usize = 1 << 16;

/// Shortest run any key width is radix-sorted at; below it, pairs are not
/// worth gathering either ([`sort_rows`]).
const RADIX_MIN_LEN: usize = 1 << 10;

/// Whether LSD radix passes beat the comparison sort on a run of `len` pairs
/// with `key_bits`-wide keys. Measured on the reference box with duplicate-
/// heavy keys (which the comparison sort likes), one pass costs about two of
/// the comparison sort's `log2(len)` levels, and the counters and the scratch
/// buffer another eight: one-pass keys win from 1 Ki pairs, 48-bit keys from
/// 64 Ki. Past four passes the comparison sort is at least as fast at every
/// length, so wider keys (hashes, full-range integers) always take it.
fn radix_wins(len: usize, key_bits: u32) -> bool {
    let passes = key_bits.div_ceil(RADIX_DIGIT_BITS);
    len >= RADIX_MIN_LEN && passes <= 4 && 2 * passes + 8 <= len.ilog2()
}

/// Splits `data` into `num_runs` contiguous chunks, sorts each with `sort`
/// (one task per chunk) and returns the run boundaries (always starting with
/// 0 and ending with `data.len()`).
fn form_runs<T: Send>(
    data: &mut [T],
    num_runs: usize,
    sort: impl Fn(&mut [T]) + Send + Sync,
) -> Vec<usize> {
    let n = data.len();
    let chunk = n.div_ceil(num_runs.clamp(1, n.max(1))).max(1);
    let mut bounds: Vec<usize> = (0..n).step_by(chunk).collect();
    bounds.push(n);
    bounds.dedup();
    data.par_chunks_mut(chunk).for_each(sort);
    bounds
}

/// Sorts `data` into contiguous runs (one per task) and returns the run
/// boundaries (always starting with 0 and ending with `data.len()`).
///
/// Runs are ordered by key only: elements with equal keys land in no
/// particular order, so a caller that needs ties in input order (prevIdcs)
/// sorts whole pairs instead, as [`sort_pairs`] does.
pub fn sort_runs<I: TreeIndex, T: Keyed<I>>(data: &mut [T], num_runs: usize) -> Vec<usize> {
    form_runs(data, num_runs, |c| c.sort_unstable_by_key(|e| e.key()))
}

/// Stable LSD radix sort of `run` on the low `key_bits` of each key.
fn radix_sort_run(run: &mut [(u64, usize)], key_bits: u32) {
    let passes = key_bits.div_ceil(RADIX_DIGIT_BITS);
    if passes == 0 {
        return;
    }
    let digit_bits = key_bits.div_ceil(passes);
    let buckets = 1usize << digit_bits;
    let digit = |key: u64, pass: u32| (key >> (pass * digit_bits)) as usize & (buckets - 1);
    // Every pass's histogram from one read of the run.
    let mut counts = vec![0usize; passes as usize * buckets];
    for &(key, _) in run.iter() {
        for pass in 0..passes {
            counts[pass as usize * buckets + digit(key, pass)] += 1;
        }
    }
    let mut scratch = run.to_vec();
    let (mut src, mut dst) = (&mut *run, &mut scratch[..]);
    let mut swapped = false;
    for (pass, next) in (0..passes).zip(counts.chunks_mut(buckets)) {
        if next.contains(&src.len()) {
            continue; // every key shares this digit
        }
        let mut sum = 0;
        for slot in next.iter_mut() {
            sum += std::mem::replace(slot, sum);
        }
        for &pair in src.iter() {
            let slot = &mut next[digit(pair.0, pass)];
            dst[*slot] = pair;
            *slot += 1;
        }
        std::mem::swap(&mut src, &mut dst);
        swapped = !swapped;
    }
    if swapped {
        dst.copy_from_slice(src);
    }
}

/// Sorts one run of `(key, row)` pairs whose rows ascend: by key, ties in
/// ascending row. Radix passes are stable, so they keep the input's row order
/// among equal keys; the comparison sort orders the whole pair.
fn sort_pair_run(run: &mut [(u64, usize)], key_bits: u32) {
    if radix_wins(run.len(), key_bits) {
        radix_sort_run(run, key_bits);
    } else {
        run.sort_unstable();
    }
}

/// The engine's one sort: `(key, row)` pairs ascending by key, ties in
/// ascending row — a total order, so the result is unique.
///
/// `key_bits` is an upper bound on the significant bits of every key (a
/// by-product of range-compressing the keys, 64 when unknown); it decides
/// between LSD radix passes and the comparison sort per run. Rows normally
/// arrive ascending (a partition's rows in table order); when they do not,
/// the pairs are comparison-sorted as a whole, which needs no stability.
pub fn sort_pairs(
    mut pairs: Vec<(u64, usize)>,
    key_bits: u32,
    parallel: bool,
) -> Vec<(u64, usize)> {
    debug_assert!(key_bits >= 64 || pairs.iter().all(|p| p.0 >> key_bits == 0));
    if !pairs.windows(2).all(|w| w[0].1 < w[1].1) {
        if parallel {
            pairs.par_sort_unstable();
        } else {
            pairs.sort_unstable();
        }
        return pairs;
    }
    if !parallel || pairs.len() < PARALLEL_MIN_LEN {
        sort_pair_run(&mut pairs, key_bits);
        return pairs;
    }
    let tasks = rayon::current_num_threads().max(1) * 4;
    let bounds = form_runs(&mut pairs, tasks, |run| sort_pair_run(run, key_bits));
    // The merge breaks key ties towards the earlier run, whose rows are the
    // smaller ones.
    merge_runs::<u64, (u64, usize)>(&pairs, &bounds, true)
}

/// Sorts table `rows` by `(keys[row], row)`: [`sort_pairs`] over the gathered
/// pairs, or in place when there are too few rows for the gather to pay.
pub fn sort_rows(rows: &mut [usize], keys: &[u64], key_bits: u32, parallel: bool) {
    if rows.len() < RADIX_MIN_LEN {
        rows.sort_unstable_by_key(|&row| (keys[row], row));
        return;
    }
    let pairs = rows.iter().map(|&row| (keys[row], row)).collect();
    for (row, (_, sorted)) in rows.iter_mut().zip(sort_pairs(pairs, key_bits, parallel)) {
        *row = sorted;
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
    fn sort_pairs_orders_by_key_then_row_at_every_width() {
        let mut rng = StdRng::seed_from_u64(79);
        for &n in &[0usize, 1, 7, 1_000, 5_000, 40_000, 300_000] {
            for &bits in &[0u32, 1, 6, 11, 12, 23, 40, 64] {
                let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
                // Few distinct keys, so ties are common at every width.
                let keys: Vec<u64> = (0..64).map(|_| rng.gen::<u64>() & mask).collect();
                let pairs: Vec<(u64, usize)> =
                    (0..n).map(|row| (keys[rng.gen_range(0..64usize)], row)).collect();
                let mut expect = pairs.clone();
                expect.sort_unstable();
                assert_eq!(sort_pairs(pairs.clone(), bits, false), expect, "n={n} bits={bits}");
                assert_eq!(sort_pairs(pairs, bits, true), expect, "n={n} bits={bits} parallel");
            }
        }
    }

    #[test]
    fn sort_pairs_accepts_rows_in_any_order() {
        let mut rng = StdRng::seed_from_u64(80);
        let pairs: Vec<(u64, usize)> =
            (0..100_000).rev().map(|row| (rng.gen_range(0..50), row)).collect();
        let mut expect = pairs.clone();
        expect.sort_unstable();
        assert_eq!(sort_pairs(pairs.clone(), 6, false), expect);
        assert_eq!(sort_pairs(pairs, 6, true), expect);
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
