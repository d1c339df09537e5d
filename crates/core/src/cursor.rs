//! Probe cursors: amortized O(1) annotated-tree descents for monotonic
//! frame sequences.
//!
//! `SUM(DISTINCT)`/`AVG(DISTINCT)` issue one
//! [`crate::AnnotatedMst::aggregate_below_with_cursor`] probe per output
//! row (plain trees are probed in blocks by the level-synchronous kernels of
//! [`crate::mst`] instead, which have no per-run prefix states to combine).
//! For the dominant workloads (`ROWS BETWEEN x PRECEDING AND y FOLLOWING`,
//! RANGE frames over a sorted key) consecutive probes move the frame
//! boundaries and the threshold forward by a handful of positions, yet a
//! stateless probe re-runs a full top-level binary search over all `n`
//! elements plus a cascaded descent from scratch. A [`ProbeCursor`] memoizes
//! the previous probe's per-level lower-bound positions along the two
//! boundary descent paths and re-seeds each search with a **galloping
//! (exponential) search** from the memoized position: moving a position by
//! `Δ` costs O(log Δ) instead of O(log n), so a monotonic pass over the
//! partition costs O(n) per level in total — amortized O(1) per probe per
//! level, exactly like a merge pass. Non-monotonic jumps degrade
//! gracefully: galloping within a run is never worse than ~2× a full binary
//! search, and a memo pointing into a *different* run falls back to the
//! unchanged sampled-cascading refinement (counted as a reset).
//!
//! Correctness does not depend on monotonicity: a galloping lower-bound
//! search returns *exactly* the same position as `slice::partition_point`,
//! so cursor-based probes are bit-identical to the stateless recursion
//! ([`crate::AnnotatedMst::aggregate_below`], the reference they are
//! proptested against) on every input — the cursor only changes the constant
//! factor. The visit order of the underlying range decomposition is also
//! preserved, so even non-associative-rounding aggregates (`SUM(DISTINCT)`
//! over floats) stay bit-identical.

use std::ops::Range;

/// Probe-kernel counters accumulated by a cursor over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CursorStats {
    /// Probe primitives that ran through a cursor.
    pub cursor_probes: u64,
    /// Searches answered by galloping from a memoized position.
    pub gallop_seeded: u64,
    /// Total galloping steps taken across all seeded searches.
    pub gallop_steps: u64,
    /// Full binary searches (no usable memo yet).
    pub full_searches: u64,
    /// Per-level memo misses: the memo pointed into a different run and the
    /// descent fell back to the standard cascaded refinement.
    pub level_resets: u64,
}

/// Lower bound (`partition_point`) by galloping outward from `seed`.
///
/// `below(x)` must be monotone over `data` (true-prefix), exactly like the
/// predicate of `slice::partition_point`; the return value is identical to
/// `data.partition_point(below)` for every `seed`. Cost is O(log Δ) where
/// `Δ = |result - seed|`. Public for the window crate's RANGE frame
/// resolver, which seeds each bound's key search with the previous row's.
pub fn gallop_partition_point<T>(
    data: &[T],
    seed: usize,
    below: impl Fn(&T) -> bool,
    steps: &mut u64,
) -> usize {
    // `usize` is at most 64 bits wide, so the casts are lossless.
    let p = gallop_partition_point_in(
        0..data.len() as u64,
        seed as u64,
        |i| below(&data[i as usize]),
        steps,
    );
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
    steps: &mut u64,
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
            *steps += 1;
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
            *steps += 1;
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

/// One memoized per-level position: the lower bound of the last threshold
/// within absolute child run `run`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LevelMemo {
    pub(crate) run: usize,
    pub(crate) pos: usize,
}

const INVALID: usize = usize::MAX;

impl LevelMemo {
    fn invalid() -> Self {
        LevelMemo { run: INVALID, pos: 0 }
    }
}

/// Which boundary descent path a per-level memo belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Side {
    /// The path of the frame start `a` (also the shared joint path while
    /// both boundaries fall into the same child).
    Left,
    /// The path of the frame end `b`.
    Right,
}

/// Cursor for `aggregate_below` style probes on one `(tree, boundary
/// stream)` pair.
///
/// Holds the shared top-level threshold memo plus, per boundary side, one
/// memoized `(run, pos)` per tree level. Construct one per tree and per
/// probe loop (or per parallel probe chunk); never share a cursor across
/// trees with different contents.
#[derive(Debug, Clone)]
pub struct ProbeCursor {
    top_pos: usize,
    top_valid: bool,
    /// Number of memoized child levels (tree height − 1); sized lazily on
    /// first use so a fresh cursor works with any tree.
    levels: usize,
    /// `[side][level]`, flattened with stride `levels`.
    memos: Vec<LevelMemo>,
    /// Counters accumulated over the cursor's lifetime.
    pub stats: CursorStats,
}

impl Default for ProbeCursor {
    fn default() -> Self {
        Self::new()
    }
}

impl ProbeCursor {
    /// A fresh cursor (memo storage grows on first probe).
    pub fn new() -> Self {
        ProbeCursor {
            top_pos: 0,
            top_valid: false,
            levels: 0,
            memos: Vec::new(),
            stats: CursorStats::default(),
        }
    }

    /// Ensures memo storage for `levels` child levels, resetting on growth
    /// (only happens when a cursor is reused against a taller tree).
    pub(crate) fn ensure_levels(&mut self, levels: usize) {
        if self.levels < levels {
            self.levels = levels;
            self.memos = vec![LevelMemo::invalid(); 2 * levels];
            self.top_valid = false;
        }
    }

    /// Flat memo index for `(side, level)`.
    #[inline]
    pub(crate) fn memo_index(&self, side: Side, level: usize) -> usize {
        debug_assert!(level < self.levels);
        let side = match side {
            Side::Left => 0,
            Side::Right => 1,
        };
        side * self.levels + level
    }

    #[inline]
    pub(crate) fn memo(&self, idx: usize) -> LevelMemo {
        self.memos[idx]
    }

    #[inline]
    pub(crate) fn set_memo(&mut self, idx: usize, run: usize, pos: usize) {
        self.memos[idx] = LevelMemo { run, pos };
    }

    /// Top-level lower bound of `below` (a `partition_point` predicate),
    /// galloping from the previous probe's position when available.
    pub(crate) fn top_position<T>(&mut self, data: &[T], below: impl Fn(&T) -> bool) -> usize {
        let pos = if self.top_valid {
            self.stats.gallop_seeded += 1;
            gallop_partition_point(data, self.top_pos, below, &mut self.stats.gallop_steps)
        } else {
            self.stats.full_searches += 1;
            data.partition_point(below)
        };
        self.top_valid = true;
        self.top_pos = pos;
        pos
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

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
                let mut steps = 0u64;
                let got = gallop_partition_point(&data, seed, |&x| x < t, &mut steps);
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
            let got = gallop_partition_point_in(range.clone(), seed, |x| x < t, &mut 0);
            assert_eq!(got, want, "range={range:?} t={t} seed={seed}");
        }
    }

    #[test]
    fn gallop_near_seed_is_cheap() {
        let data: Vec<u32> = (0..1_000_000).collect();
        // Moving the boundary by one position takes O(1) steps.
        let mut steps = 0u64;
        let p = gallop_partition_point(&data, 500_000, |&x| x < 500_001, &mut steps);
        assert_eq!(p, 500_001);
        assert!(steps <= 2, "steps = {steps}");
        let mut steps = 0u64;
        let p = gallop_partition_point(&data, 500_000, |&x| x < 499_999, &mut steps);
        assert_eq!(p, 499_999);
        assert!(steps <= 2, "steps = {steps}");
    }
}
