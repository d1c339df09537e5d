//! Galloping lower-bound searches: the workspace's one way to carry a search
//! position from one probe to the next.
//!
//! A stream of probes whose answers move by a handful of positions per probe
//! — sliding ROWS/RANGE frames, thresholds that advance with the frame —
//! should not pay a full binary search each time. [`gallop_partition_point`]
//! starts at the previous answer (the *seed*) and probes `seed ± 1, 2, 4, …`
//! until the predicate flips, then bisects inside that bracket: moving the
//! answer by `Δ` costs O(log Δ) instead of O(log n), and a jump is never
//! worse than about twice a full search.
//!
//! Correctness does not depend on the seed: the search returns *exactly*
//! `slice::partition_point` for every seed, stale or out of range. Its users
//! are the annotated tree's seeded top-level search
//! ([`crate::AnnotatedMst::aggregate_below`], `SUM`/`AVG(DISTINCT)`), the
//! forest's per-run positions and value search ([`crate::MstForest`]), and
//! the window crate's RANGE frame resolver.

use std::ops::Range;

/// Lower bound (`partition_point`) by galloping outward from `seed`.
///
/// `below(x)` must be monotone over `data` (true-prefix), exactly like the
/// predicate of `slice::partition_point`; the return value is identical to
/// `data.partition_point(below)` for every `seed`. Cost is O(log Δ) where
/// `Δ = |result - seed|`. Public for the window crate's RANGE frame
/// resolver, which seeds each bound's key search with the previous row's.
pub fn gallop_partition_point<T>(data: &[T], seed: usize, below: impl Fn(&T) -> bool) -> usize {
    // `usize` is at most 64 bits wide, so the casts are lossless.
    let p =
        gallop_partition_point_in(0..data.len() as u64, seed as u64, |i| below(&data[i as usize]));
    p as usize
}

/// [`gallop_partition_point`] over an index range instead of a slice: the
/// first index of `range` at which the monotone (true-prefix) predicate
/// `below` is false, or `range.end` when it holds everywhere.
///
/// Probes `seed ± 1, 2, 4, …` until the predicate flips, then bisects
/// inside that bracket only; a seed outside `range` is clamped into it.
/// Every seed gives the same answer, and the cost is O(log Δ) predicate
/// calls with `Δ` the distance from the seed to the answer. The value
/// domain of [`crate::MstForest`]'s select is such a range, whence `u64`.
pub(crate) fn gallop_partition_point_in(
    range: Range<u64>,
    seed: u64,
    mut below: impl FnMut(u64) -> bool,
) -> u64 {
    let Range { start, end } = range;
    let seed = seed.clamp(start, end);
    // The answer lies in [lo, hi]; the probed indices stay inside `range`
    // and the doubling saturates, so nothing overflows near `u64::MAX`.
    let (mut lo, mut hi);
    let mut off = 1u64;
    if seed < end && below(seed) {
        // Strictly right of the seed: probe seed + 1, 2, 4…
        (lo, hi) = (seed + 1, end);
        while off < end - seed {
            if !below(seed + off) {
                hi = seed + off;
                break;
            }
            lo = seed + off + 1;
            off = off.saturating_mul(2);
        }
    } else {
        // At or left of the seed: probe seed − 1, 2, 4…
        (lo, hi) = (start, seed);
        while off <= seed - start {
            if below(seed - off) {
                lo = seed - off + 1;
                break;
            }
            hi = seed - off;
            off = off.saturating_mul(2);
        }
    }
    partition_point_in(lo..hi, below)
}

/// Plain bisection for the first index of `range` at which the monotone
/// predicate `below` is false (`range.end` when it never is).
pub(crate) fn partition_point_in(range: Range<u64>, mut below: impl FnMut(u64) -> bool) -> u64 {
    let Range { start: mut lo, end: mut hi } = range;
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use std::cell::Cell;

    #[test]
    fn gallop_matches_partition_point_everywhere() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let n = rng.gen_range(0..120);
            let mut data: Vec<u32> = (0..n).map(|_| rng.gen_range(0..60)).collect();
            data.sort_unstable();
            for _ in 0..40 {
                let t = rng.gen_range(0..65);
                let seed = rng.gen_range(0..=(n as usize) + 3);
                let got = gallop_partition_point(&data, seed, |&x| x < t);
                assert_eq!(got, data.partition_point(|&x| x < t), "n={n} t={t} seed={seed}");
            }
        }
    }

    #[test]
    fn gallop_in_matches_bisection_at_the_u64_edges() {
        let mut rng = StdRng::seed_from_u64(11);
        let edges = [0, 1, u64::MAX / 2, u64::MAX - 2, u64::MAX - 1, u64::MAX];
        for _ in 0..2_000 {
            let pick = |rng: &mut StdRng| {
                if rng.gen_bool(0.5) {
                    edges[rng.gen_range(0..edges.len())]
                } else {
                    rng.gen()
                }
            };
            let (a, b) = (pick(&mut rng), pick(&mut rng));
            let range = a.min(b)..a.max(b);
            let t = pick(&mut rng);
            let seed = pick(&mut rng);
            let want = partition_point_in(range.clone(), |x| x < t);
            assert_eq!(want, t.clamp(range.start, range.end));
            let got = gallop_partition_point_in(range.clone(), seed, |x| x < t);
            assert_eq!(got, want, "range={range:?} t={t} seed={seed}");
        }
    }

    #[test]
    fn gallop_near_seed_is_cheap() {
        let data: Vec<u32> = (0..1_000_000).collect();
        // Moving the boundary by one position takes O(1) predicate calls,
        // where a full search over a million elements takes twenty.
        let calls = Cell::new(0u32);
        let below = |t: u32| {
            let calls = &calls;
            move |&x: &u32| {
                calls.set(calls.get() + 1);
                x < t
            }
        };
        assert_eq!(gallop_partition_point(&data, 500_000, below(500_001)), 500_001);
        assert!(calls.get() <= 3, "calls = {}", calls.get());
        calls.set(0);
        assert_eq!(gallop_partition_point(&data, 500_000, below(499_999)), 499_999);
        assert!(calls.get() <= 4, "calls = {}", calls.get());
    }
}
