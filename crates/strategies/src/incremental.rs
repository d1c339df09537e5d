//! Incremental sliding-window algorithms of Wesley & Xu (PVLDB 2016).
//!
//! These maintain an aggregation state under `add`/`remove` as the frame
//! slides (§3.2): distinct counts with a hash multiset (O(1) per update —
//! O(n) total), percentiles and ranks with a sorted array ([`SortedWindow`]:
//! O(frame) per insert — the O(n²) row of Table 1), and modes with
//! counts-of-counts. Non-monotonic frames make the same tuple enter and
//! leave repeatedly, degrading all of them (§6.5); the generic slide driver
//! below handles that case by moving both bounds in either direction.

use rustc_hash::FxHashMap;
use std::collections::BTreeSet;

/// Slides a state across `frames`, calling `out` per row. Frames may move
/// non-monotonically; both endpoints chase the target in either direction.
pub fn slide<S>(
    frames: &[(usize, usize)],
    state: &mut S,
    mut add: impl FnMut(&mut S, usize),
    mut remove: impl FnMut(&mut S, usize),
    mut out: impl FnMut(&mut S, usize),
) {
    let mut hull = Hull::default();
    for (i, &(a, b)) in frames.iter().enumerate() {
        hull.move_to(a, b, state, &mut add, &mut remove);
        out(state, i);
    }
}

/// The positions `[start, end)` a sliding state holds.
#[derive(Debug, Clone, Copy, Default)]
struct Hull {
    start: usize,
    end: usize,
}

impl Hull {
    /// True when no position of `[start, end)` stays in the target
    /// `[a, b)`.
    fn disjoint(&self, a: usize, b: usize) -> bool {
        a >= self.end || b <= self.start
    }

    /// Moves to `[a, b)`, adding the positions that enter and removing those
    /// that leave; a disjoint target drains the state first.
    #[inline]
    fn move_to<S>(
        &mut self,
        a: usize,
        b: usize,
        state: &mut S,
        add: &mut impl FnMut(&mut S, usize),
        remove: &mut impl FnMut(&mut S, usize),
    ) {
        // The bounds move in locals, not in `self`, while the callbacks run:
        // kept in fields they cost the percentile probe a few percent.
        let Hull { start: mut cs, end: mut ce } = *self;
        if self.disjoint(a, b) {
            while cs < ce {
                remove(state, cs);
                cs += 1;
            }
            (cs, ce) = (a, a);
        }
        while ce < b {
            add(state, ce);
            ce += 1;
        }
        while ce > b {
            ce -= 1;
            remove(state, ce);
        }
        while cs > a {
            cs -= 1;
            add(state, cs);
        }
        while cs < a {
            remove(state, cs);
            cs += 1;
        }
        *self = Hull { start: cs, end: ce };
    }
}

/// The keys at the positions of one frame hull, kept sorted while the hull
/// slides from frame to frame — Wesley & Xu's ordered vector. An update is a
/// binary search plus a shift of up to a frame's worth of keys (the O(n²)
/// percentile row of Table 1), so it pays off on narrow frames; a query is a
/// binary search ([`Self::count_below`]) or an index ([`Self::select`]).
///
/// ```
/// use holistic_strategies::incremental::SortedWindow;
///
/// let keys = [5, 1, 4, 1, 3];
/// let mut w = SortedWindow::new(&keys);
/// w.slide_to(1, 4); // {1, 4, 1}
/// assert_eq!((w.len(), w.count_below(4), w.select(2)), (3, 2, Some(4)));
/// w.slide_to(2, 5); // {4, 1, 3}
/// assert_eq!((w.count_below(4), w.select(0)), (2, Some(1)));
/// ```
#[derive(Debug, Clone)]
pub struct SortedWindow<'a, T> {
    keys: &'a [T],
    sorted: Vec<T>,
    hull: Hull,
}

impl<'a, T: Copy + Ord> SortedWindow<'a, T> {
    /// An empty window over `keys` (position → key).
    pub fn new(keys: &'a [T]) -> Self {
        SortedWindow { keys, sorted: Vec::new(), hull: Hull::default() }
    }

    /// Holds the keys at the positions `[a, b)` (`a <= b <= keys.len()`)
    /// from now on. A target that shares no position with the current hull
    /// starts over from an empty window.
    #[inline]
    pub fn slide_to(&mut self, a: usize, b: usize) {
        if self.hull.disjoint(a, b) {
            self.sorted.clear();
            self.hull = Hull { start: a, end: a };
        }
        let keys = self.keys;
        self.hull.move_to(
            a,
            b,
            &mut self.sorted,
            &mut |s: &mut Vec<T>, p| {
                let k = keys[p];
                let at = s.partition_point(|&v| v < k);
                s.insert(at, k);
            },
            &mut |s: &mut Vec<T>, p| {
                let k = keys[p];
                let at = s.partition_point(|&v| v < k);
                debug_assert!(s[at] == k, "remove of a key the window does not hold");
                s.remove(at);
            },
        );
    }

    /// How many keys the window holds.
    #[inline]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when the window holds no key.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// How many of the window's keys are smaller than `t`.
    #[inline]
    pub fn count_below(&self, t: T) -> usize {
        self.sorted.partition_point(|&v| v < t)
    }

    /// The `j`-th smallest (0-based) of the window's keys; `None` when it
    /// holds `j` keys or fewer.
    #[inline]
    pub fn select(&self, j: usize) -> Option<T> {
        self.sorted.get(j).copied()
    }
}

/// Incremental windowed distinct count over pre-hashed values — O(n) total
/// for monotonic frames (Table 1 row 1).
pub fn distinct_count(hashes: &[u64], frames: &[(usize, usize)]) -> Vec<usize> {
    let mut out = vec![0usize; frames.len()];
    struct St {
        counts: FxHashMap<u64, u32>,
        distinct: usize,
    }
    let mut st = St { counts: FxHashMap::default(), distinct: 0 };
    slide(
        frames,
        &mut st,
        |s, p| {
            let c = s.counts.entry(hashes[p]).or_insert(0);
            if *c == 0 {
                s.distinct += 1;
            }
            *c += 1;
        },
        |s, p| {
            let c = s.counts.get_mut(&hashes[p]).expect("remove of absent value");
            *c -= 1;
            if *c == 0 {
                s.distinct -= 1;
            }
        },
        |s, i| out[i] = s.distinct,
    );
    out
}

/// Incremental windowed percentile with a sorted array — O(frame) per update,
/// the O(n²) percentile row of Table 1. Returns `None` for empty frames.
pub fn percentile(values: &[i64], frames: &[(usize, usize)], p: f64) -> Vec<Option<i64>> {
    let mut window = SortedWindow::new(values);
    frames
        .iter()
        .map(|&(a, b)| {
            window.slide_to(a, b);
            if window.is_empty() {
                return None;
            }
            // PERCENTILE_DISC: j = ceil(p * s), 1-based.
            let j = ((p * window.len() as f64).ceil() as usize).clamp(1, window.len());
            window.select(j - 1)
        })
        .collect()
}

/// Incremental windowed mode (smallest among the most frequent values),
/// counts-of-counts bookkeeping as in Wesley & Xu. Returns `None` for empty
/// frames.
pub fn mode(values: &[i64], frames: &[(usize, usize)]) -> Vec<Option<i64>> {
    struct St {
        freq: FxHashMap<i64, usize>,
        buckets: FxHashMap<usize, BTreeSet<i64>>,
        max_count: usize,
    }
    impl St {
        fn retag(&mut self, v: i64, from: usize, to: usize) {
            if from > 0 {
                let b = self.buckets.get_mut(&from).unwrap();
                b.remove(&v);
                if b.is_empty() {
                    self.buckets.remove(&from);
                    if self.max_count == from {
                        self.max_count = to.max(if self.buckets.is_empty() {
                            0
                        } else {
                            // from and to differ by 1; the next candidate is
                            // from − 1 (still occupied) or to.
                            from - 1
                        });
                    }
                }
            }
            if to > 0 {
                self.buckets.entry(to).or_default().insert(v);
                self.max_count = self.max_count.max(to);
            }
        }
    }
    let mut st = St { freq: FxHashMap::default(), buckets: FxHashMap::default(), max_count: 0 };
    let mut out = vec![None; frames.len()];
    slide(
        frames,
        &mut st,
        |s, p| {
            let v = values[p];
            let c = s.freq.entry(v).or_insert(0);
            *c += 1;
            let to = *c;
            s.retag(v, to - 1, to);
        },
        |s, p| {
            let v = values[p];
            let c = s.freq.get_mut(&v).expect("remove of absent value");
            *c -= 1;
            let to = *c;
            if to == 0 {
                s.freq.remove(&v);
            }
            s.retag(v, to + 1, to);
        },
        |s, i| {
            if s.max_count > 0 {
                out[i] = s.buckets[&s.max_count].first().copied();
            }
        },
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn brute_distinct(vals: &[u64], a: usize, b: usize) -> usize {
        let set: std::collections::HashSet<_> = vals[a..b].iter().collect();
        set.len()
    }

    fn brute_pct(vals: &[i64], a: usize, b: usize, p: f64) -> Option<i64> {
        let mut w: Vec<i64> = vals[a..b].to_vec();
        if w.is_empty() {
            return None;
        }
        w.sort_unstable();
        let j = ((p * w.len() as f64).ceil() as usize).clamp(1, w.len());
        Some(w[j - 1])
    }

    fn brute_mode(vals: &[i64], a: usize, b: usize) -> Option<i64> {
        if a >= b {
            return None;
        }
        let mut freq = std::collections::HashMap::new();
        for &v in &vals[a..b] {
            *freq.entry(v).or_insert(0usize) += 1;
        }
        let maxc = *freq.values().max().unwrap();
        freq.iter().filter(|(_, &c)| c == maxc).map(|(&v, _)| v).min()
    }

    fn sliding_frames(n: usize, w: usize) -> Vec<(usize, usize)> {
        (0..n).map(|i| (i.saturating_sub(w - 1), i + 1)).collect()
    }

    fn random_frames(rng: &mut StdRng, n: usize) -> Vec<(usize, usize)> {
        (0..n)
            .map(|_| {
                let a = rng.gen_range(0..=n);
                let b = rng.gen_range(a..=n);
                (a, b)
            })
            .collect()
    }

    #[test]
    fn distinct_count_sliding_matches_brute() {
        let mut rng = StdRng::seed_from_u64(1);
        let vals: Vec<u64> = (0..300).map(|_| rng.gen_range(0..20)).collect();
        for w in [1usize, 5, 50, 300] {
            let frames = sliding_frames(vals.len(), w);
            let got = distinct_count(&vals, &frames);
            for (i, &(a, b)) in frames.iter().enumerate() {
                assert_eq!(got[i], brute_distinct(&vals, a, b), "w={w} i={i}");
            }
        }
    }

    #[test]
    fn distinct_count_non_monotonic_frames() {
        let mut rng = StdRng::seed_from_u64(2);
        let vals: Vec<u64> = (0..150).map(|_| rng.gen_range(0..10)).collect();
        let frames = random_frames(&mut rng, vals.len());
        let got = distinct_count(&vals, &frames);
        for (i, &(a, b)) in frames.iter().enumerate() {
            assert_eq!(got[i], brute_distinct(&vals, a, b), "i={i} a={a} b={b}");
        }
    }

    #[test]
    fn percentile_sliding_and_random() {
        let mut rng = StdRng::seed_from_u64(3);
        let vals: Vec<i64> = (0..200).map(|_| rng.gen_range(-50..50)).collect();
        for p in [0.0, 0.5, 0.9, 1.0] {
            let frames = sliding_frames(vals.len(), 17);
            let got = percentile(&vals, &frames, p);
            for (i, &(a, b)) in frames.iter().enumerate() {
                assert_eq!(got[i], brute_pct(&vals, a, b, p), "p={p} i={i}");
            }
            let frames = random_frames(&mut rng, vals.len());
            let got = percentile(&vals, &frames, p);
            for (i, &(a, b)) in frames.iter().enumerate() {
                assert_eq!(got[i], brute_pct(&vals, a, b, p), "rand p={p} i={i}");
            }
        }
    }

    #[test]
    fn mode_sliding_and_random() {
        let mut rng = StdRng::seed_from_u64(4);
        let vals: Vec<i64> = (0..200).map(|_| rng.gen_range(0..8)).collect();
        let frames = sliding_frames(vals.len(), 23);
        let got = mode(&vals, &frames);
        for (i, &(a, b)) in frames.iter().enumerate() {
            assert_eq!(got[i], brute_mode(&vals, a, b), "i={i}");
        }
        let frames = random_frames(&mut rng, vals.len());
        let got = mode(&vals, &frames);
        for (i, &(a, b)) in frames.iter().enumerate() {
            assert_eq!(got[i], brute_mode(&vals, a, b), "rand i={i} a={a} b={b}");
        }
    }

    #[test]
    fn empty_inputs() {
        assert!(distinct_count(&[], &[]).is_empty());
        assert!(percentile(&[], &[], 0.5).is_empty());
        let vals = vec![1i64, 2];
        let frames = vec![(1, 1), (0, 2)];
        assert_eq!(percentile(&vals, &frames, 0.5), vec![None, Some(1)]);
    }
}
