//! Incremental sliding-window algorithms of Wesley & Xu (PVLDB 2016).
//!
//! These maintain an aggregation state under `add`/`remove` as the frame
//! slides (§3.2): distinct counts with a hash multiset (O(1) per update —
//! O(n) total), percentiles and ranks with an ordered multiset
//! ([`SortedWindow`]), and modes with counts-of-counts. Visited in row order,
//! non-monotonic frames make the same tuple enter and leave repeatedly,
//! degrading all of them (§6.5); the generic slide driver below handles that
//! case by moving both bounds in either direction.
//!
//! Every answer is placed by its row, so the order the frames are visited in
//! is free. [`distinct_count`] and [`percentile`] visit them
//! [`in_frame_order`] — by start, then end — in which frames that jitter about
//! a trend slide about two positions per frame; the engine's sliding indexes
//! visit their rows in the same order. [`slide`], [`mode`] and the
//! task-parallel wrappers ([`crate::taskpar`]) keep Wesley & Xu's row order:
//! one task of [`crate::taskpar::percentile`] is the paper's §6.5 competitor.
//!
//! A [`SortedWindow`] holds its keys in one of three multisets. Wesley & Xu's
//! sorted vector pays O(frame) per insert — the O(n²) percentile row of
//! Table 1 — and is kept for the paper's competitors ([`percentile`] and
//! [`crate::taskpar::percentile`]). A
//! counted B-tree ([`crate::ostree::OrderStatisticTree`]) pays O(log n). The
//! engine slides a [`CountedBitset`]: a partition's dense codes are a
//! permutation of `0..k`, so a window holds a set of them, and a bitset of
//! `k` bits under a 16-ary tree of counts answers every operation in
//! O(log k) steps, whatever the frame's width.

use rustc_hash::FxHashMap;
use std::collections::BTreeSet;

/// Slides a state across `frames` in row order, calling `out` per row.
/// Frames may move non-monotonically; both endpoints chase the target in
/// either direction.
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

/// The rows `0..n` in *frame order*: sorted by the start of their frame
/// `hull(i)`, then by its end, ties in row order. A sliding state that
/// visits frames in this order moves each bound one way, so frames that
/// jitter about a trend — the paper's Fig. 12 shape, a permutation of
/// monotone frames — slide about two positions per frame, where row order
/// re-enters a row for every frame that holds it (§6.5).
///
/// Frames already in frame order — every monotone sequence is — are their
/// own order ([`SlideOrder::Rows`]): nothing is sorted or allocated.
/// Otherwise two stable counting sorts of `u32` row numbers, by end and
/// then by start, take O(n + span), where the span is the range the bounds
/// cover: O(n) for a partition's frames. Beyond `u32::MAX` frames, whose
/// row numbers the sort's entries cannot hold, the order is row order.
///
/// ```
/// use holistic_strategies::incremental::in_frame_order;
///
/// let frames = [(2, 5), (0, 3), (2, 4), (1, 4)];
/// let order: Vec<usize> = in_frame_order(4, |i| frames[i]).collect();
/// assert_eq!(order, [1, 3, 2, 0]);
/// ```
pub fn in_frame_order(n: usize, hull: impl Fn(usize) -> (usize, usize)) -> SlideOrder {
    let mut last = (0, 0);
    let ordered = (0..n).all(|i| {
        let h = hull(i);
        std::mem::replace(&mut last, h) <= h
    });
    if ordered || u32::try_from(n).is_err() {
        SlideOrder::Rows(0..n)
    } else {
        let by_end = counting_sort((0..n as u32).collect(), |i| hull(i as usize).1);
        SlideOrder::Sorted(counting_sort(by_end, |i| hull(i as usize).0).into_iter())
    }
}

/// The rows in the order [`in_frame_order`] found. A loop that must stay
/// tight matches on it and runs a loop of its own per variant.
pub enum SlideOrder {
    /// The frames are in frame order already: the rows as they are.
    Rows(std::ops::Range<usize>),
    /// The rows sorted.
    Sorted(std::vec::IntoIter<u32>),
}

impl Iterator for SlideOrder {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            SlideOrder::Rows(rows) => rows.next(),
            SlideOrder::Sorted(rows) => rows.next().map(|i| i as usize),
        }
    }
}

/// `rows`, at least one, stably sorted by `key` in O(rows + key span).
fn counting_sort(rows: Vec<u32>, key: impl Fn(u32) -> usize) -> Vec<u32> {
    let (lo, hi) =
        rows.iter().fold((usize::MAX, 0), |(lo, hi), &i| (lo.min(key(i)), hi.max(key(i))));
    // `next[x - lo]` is where the next row with key `x` goes.
    let mut next = vec![0u32; hi - lo + 2];
    for &i in &rows {
        next[key(i) - lo + 1] += 1;
    }
    for x in 1..next.len() {
        next[x] += next[x - 1];
    }
    let mut sorted = vec![0; rows.len()];
    for &i in &rows {
        let at = &mut next[key(i) - lo];
        sorted[*at as usize] = i;
        *at += 1;
    }
    sorted
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

/// What a [`SortedWindow`] holds its keys in: a sorted vector, a counted
/// B-tree ([`crate::ostree::OrderStatisticTree`]) or, for keys that are a
/// permutation of `0..k`, a [`CountedBitset`].
pub trait OrderedMultiset<T> {
    /// An empty multiset for the keys of `keys` (a window's position → key
    /// array), sized for them where its layout needs that.
    fn for_keys(keys: &[T]) -> Self;

    /// Adds one occurrence of `k`.
    fn insert(&mut self, k: T);

    /// Removes one occurrence of `k`, which the multiset holds.
    fn remove(&mut self, k: T);

    /// Removes every key; `held` lists exactly the keys it holds.
    fn clear(&mut self, held: &[T]);

    /// How many of its keys are smaller than `t`.
    fn count_below(&self, t: T) -> usize;

    /// The `j`-th smallest (0-based) of its keys; `None` when it holds `j`
    /// keys or fewer.
    fn select(&self, j: usize) -> Option<T>;
}

/// Wesley & Xu's ordered vector: an update is a binary search plus a shift
/// of up to a frame's worth of keys (the O(n²) percentile row of Table 1),
/// a query a binary search or an index.
impl<T: Copy + Ord> OrderedMultiset<T> for Vec<T> {
    fn for_keys(_: &[T]) -> Self {
        Vec::new()
    }

    fn insert(&mut self, k: T) {
        let at = self.partition_point(|&v| v < k);
        Vec::insert(self, at, k);
    }

    fn remove(&mut self, k: T) {
        let at = self.partition_point(|&v| v < k);
        debug_assert!(self[at] == k, "remove of a key the window does not hold");
        Vec::remove(self, at);
    }

    fn clear(&mut self, _: &[T]) {
        Vec::clear(self);
    }

    fn count_below(&self, t: T) -> usize {
        self.partition_point(|&v| v < t)
    }

    fn select(&self, j: usize) -> Option<T> {
        self.get(j).copied()
    }
}

/// log₂ of the counter tree's fan-out.
const FAN_BITS: u32 = 4;
/// The counter tree's fan-out: 16 `u32` counts, one cache line, per node.
const FAN: usize = 1 << FAN_BITS;

/// One node of a [`CountedBitset`]'s counter tree, one cache line: how many
/// codes each of its 16 children holds.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(64))]
struct Node([u32; FAN]);

/// `BEFORE[lane]` keeps the counts of the children before `lane` and zeroes
/// the others, so a node's left-sibling sum is 16 lanes of `and` and `add`,
/// the same for every lane, instead of a loop whose length is the lane.
const BEFORE: [[u32; FAN]; FAN] = {
    let mut masks = [[0; FAN]; FAN];
    let mut lane = 0;
    while lane < FAN {
        let mut k = 0;
        while k < lane {
            masks[lane][k] = u32::MAX;
            k += 1;
        }
        lane += 1;
    }
    masks
};

impl Node {
    /// How many codes the children before `lane` hold.
    #[inline]
    fn count_before(&self, lane: usize) -> u32 {
        let (counts, keep) = (&self.0, &BEFORE[lane]);
        let mut sum = 0;
        for k in 0..FAN {
            sum += counts[k] & keep[k];
        }
        sum
    }

    /// The child holding the node's `j`-th code (0-based; the node holds
    /// more than `j`), and the rank of that code among the child's.
    #[inline]
    fn child_of_rank(&self, mut j: u32) -> (usize, u32) {
        let mut lane = 0;
        while j >= self.0[lane] {
            j -= self.0[lane];
            lane += 1;
        }
        (lane, j)
    }
}

/// A set of codes below a universe `k`, counted for rank and selection: a
/// bitset of `k` bits under an implicit 16-ary tree of counts. A node on
/// level 0 of the tree counts the set bits of 16 words, one on each level
/// above the codes under 16 nodes of the level below, and the top level is
/// one node.
///
/// An update flips one bit and bumps one count per level; [`count_below`]
/// adds the left siblings' counts along one path to one masked popcount;
/// [`select`] descends the counts and then picks the bit inside its word.
/// Each is O(log₁₆ k) steps of one cache line, with no term for how many
/// codes the set holds, and each answer is an exact integer.
///
/// ```
/// use holistic_strategies::incremental::{CountedBitset, OrderedMultiset};
///
/// let mut s = CountedBitset::new(100);
/// for c in [70, 3, 64, 99] {
///     s.insert(c);
/// }
/// s.remove(64);
/// assert_eq!((s.len(), s.count_below(70), s.count_below(71)), (3, 1, 2));
/// assert_eq!((s.select(1), s.select(2), s.select(3)), (Some(70), Some(99), None));
/// ```
///
/// [`count_below`]: OrderedMultiset::count_below
/// [`select`]: OrderedMultiset::select
#[derive(Debug, Clone)]
pub struct CountedBitset {
    words: Vec<u64>,
    /// `levels[l]` holds the nodes of level `l`, the bottom one first: word
    /// `w` lies under child `(w >> 4l) % 16` of node `w >> 4(l + 1)` there.
    levels: Vec<Vec<Node>>,
    len: usize,
    universe: usize,
}

impl CountedBitset {
    /// An empty set for the codes `0..universe`. Its counts are `u32`, so
    /// the universe must fit one.
    pub fn new(universe: usize) -> Self {
        assert!(u32::try_from(universe).is_ok(), "a CountedBitset counts its codes in u32");
        let words = universe.div_ceil(64);
        let mut levels = vec![];
        let mut below = words;
        loop {
            let nodes = below.div_ceil(FAN).max(1);
            levels.push(vec![Node::default(); nodes]);
            if nodes == 1 {
                break;
            }
            below = nodes;
        }
        CountedBitset { words: vec![0; words], levels, len: 0, universe }
    }

    /// How many codes the set holds.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no code.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Word `w`'s node and lane on level `l`.
    #[inline]
    fn on_path(w: usize, l: usize) -> (usize, usize) {
        let s = l as u32 * FAN_BITS;
        (w >> (s + FAN_BITS), (w >> s) % FAN)
    }
}

/// The position of the `j`-th (0-based) set bit of `w`, which has more than
/// `j`: the lowest `j` set bits are cleared. A window narrower than its
/// partition leaves a word few bits, so `j` is mostly 0.
#[inline]
fn select_in_word(mut w: u64, j: u32) -> usize {
    for _ in 0..j {
        w &= w - 1;
    }
    w.trailing_zeros() as usize
}

/// The engine's multiset: `keys` must be distinct and below `keys.len()`,
/// as a partition's dense codes are.
impl OrderedMultiset<usize> for CountedBitset {
    fn for_keys(keys: &[usize]) -> Self {
        CountedBitset::new(keys.len())
    }

    /// Adds `c` (`c < universe`), which the set does not hold.
    #[inline]
    fn insert(&mut self, c: usize) {
        let (w, bit) = (c >> 6, 1u64 << (c & 63));
        debug_assert!(self.words[w] & bit == 0, "insert of a code the set holds");
        self.words[w] |= bit;
        for (l, level) in self.levels.iter_mut().enumerate() {
            let (node, lane) = Self::on_path(w, l);
            level[node].0[lane] += 1;
        }
        self.len += 1;
    }

    /// Removes `c`, which the set holds.
    #[inline]
    fn remove(&mut self, c: usize) {
        let (w, bit) = (c >> 6, 1u64 << (c & 63));
        debug_assert!(self.words[w] & bit != 0, "remove of a code the set lacks");
        self.words[w] &= !bit;
        for (l, level) in self.levels.iter_mut().enumerate() {
            let (node, lane) = Self::on_path(w, l);
            level[node].0[lane] -= 1;
        }
        self.len -= 1;
    }

    /// Removes every code: `held` lists exactly the codes the set holds. A
    /// node with a count in it lies on some held code's path, so zeroing
    /// their words and paths costs O(`held.len()` log k), never O(k).
    fn clear(&mut self, held: &[usize]) {
        debug_assert_eq!(held.len(), self.len, "clear must be given every held code");
        for &c in held {
            self.words[c >> 6] = 0;
            for (l, level) in self.levels.iter_mut().enumerate() {
                level[Self::on_path(c >> 6, l).0] = Node::default();
            }
        }
        self.len = 0;
    }

    /// How many of the set's codes are smaller than `t`; every code is when
    /// `t >= universe`.
    #[inline]
    fn count_below(&self, t: usize) -> usize {
        if t >= self.universe {
            return self.len;
        }
        let w = t >> 6;
        let mut below = (self.words[w] & ((1u64 << (t & 63)) - 1)).count_ones();
        for (l, level) in self.levels.iter().enumerate() {
            let (node, lane) = Self::on_path(w, l);
            below += level[node].count_before(lane);
        }
        below as usize
    }

    /// The `j`-th smallest (0-based) of the set's codes; `None` when it holds
    /// `j` codes or fewer.
    #[inline]
    fn select(&self, j: usize) -> Option<usize> {
        if j >= self.len {
            return None;
        }
        // `j < len` fits the u32 counts. `at` is the node's index on the
        // level being descended, and the word's once all are.
        let (mut j, mut at) = (j as u32, 0);
        for level in self.levels.iter().rev() {
            let lane;
            (lane, j) = level[at].child_of_rank(j);
            at = at * FAN + lane;
        }
        Some(at * 64 + select_in_word(self.words[at], j))
    }
}

/// The keys at the positions of one frame hull, held in an ordered multiset
/// `S` while the hull slides from frame to frame: by default a sorted
/// vector, the paper's competitor.
///
/// ```
/// use holistic_strategies::incremental::SortedWindow;
///
/// let keys = [5, 1, 4, 1, 3];
/// let mut w: SortedWindow<_> = SortedWindow::new(&keys);
/// w.slide_to(1, 4); // {1, 4, 1}
/// assert_eq!((w.count_below(4), w.select(2), w.select(3)), (2, Some(4), None));
/// w.slide_to(2, 5); // {4, 1, 3}
/// assert_eq!((w.count_below(4), w.select(0)), (2, Some(1)));
/// ```
#[derive(Debug, Clone)]
pub struct SortedWindow<'a, T, S = Vec<T>> {
    keys: &'a [T],
    set: S,
    hull: Hull,
}

impl<'a, T: Copy, S: OrderedMultiset<T>> SortedWindow<'a, T, S> {
    /// An empty window over `keys` (position → key).
    pub fn new(keys: &'a [T]) -> Self {
        SortedWindow { keys, set: S::for_keys(keys), hull: Hull::default() }
    }

    /// Holds the keys at the positions `[a, b)` (`a <= b <= keys.len()`)
    /// from now on. A target that shares no position with the current hull
    /// clears the window of the hull's keys first: that costs at most what
    /// the hull holds, never the size of the multiset's universe.
    #[inline]
    pub fn slide_to(&mut self, a: usize, b: usize) {
        let keys = self.keys;
        if self.hull.disjoint(a, b) {
            self.set.clear(&keys[self.hull.start..self.hull.end]);
            self.hull = Hull { start: a, end: a };
        }
        self.hull.move_to(
            a,
            b,
            &mut self.set,
            &mut |s: &mut S, p| s.insert(keys[p]),
            &mut |s: &mut S, p| s.remove(keys[p]),
        );
    }

    /// How many of the window's keys are smaller than `t`.
    #[inline]
    pub fn count_below(&self, t: T) -> usize {
        self.set.count_below(t)
    }

    /// The `j`-th smallest (0-based) of the window's keys; `None` when it
    /// holds `j` keys or fewer.
    #[inline]
    pub fn select(&self, j: usize) -> Option<T> {
        self.set.select(j)
    }
}

/// Incremental windowed distinct count over pre-hashed values, visiting the
/// frames [`in_frame_order`] — O(n) total for monotonic frames (Table 1 row
/// 1), and for frames that are a permutation of monotonic ones.
pub fn distinct_count(hashes: &[u64], frames: &[(usize, usize)]) -> Vec<usize> {
    let mut out = vec![0usize; frames.len()];
    distinct_counts(hashes, frames, in_frame_order(frames.len(), |i| frames[i]), |i, c| out[i] = c);
    out
}

/// [`distinct_count`] visiting the rows in `order` (a permutation of the
/// frames' rows), handing row `i`'s count to `out(i, count)`.
pub fn distinct_counts(
    hashes: &[u64],
    frames: &[(usize, usize)],
    order: SlideOrder,
    out: impl FnMut(usize, usize),
) {
    match order {
        SlideOrder::Rows(rows) => slide_distinct(hashes, frames, rows, out),
        SlideOrder::Sorted(rows) => slide_distinct(hashes, frames, rows.map(|i| i as usize), out),
    }
}

/// One loop per kind of order, so frames in frame order slide in a plain
/// loop over their rows.
fn slide_distinct(
    hashes: &[u64],
    frames: &[(usize, usize)],
    order: impl Iterator<Item = usize>,
    mut out: impl FnMut(usize, usize),
) {
    struct St {
        counts: FxHashMap<u64, u32>,
        distinct: usize,
    }
    let mut st = St { counts: FxHashMap::default(), distinct: 0 };
    let mut hull = Hull::default();
    for i in order {
        let (a, b) = frames[i];
        hull.move_to(
            a,
            b,
            &mut st,
            &mut |s, p| {
                let c = s.counts.entry(hashes[p]).or_insert(0);
                if *c == 0 {
                    s.distinct += 1;
                }
                *c += 1;
            },
            &mut |s, p| {
                let c = s.counts.get_mut(&hashes[p]).expect("remove of absent value");
                *c -= 1;
                if *c == 0 {
                    s.distinct -= 1;
                }
            },
        );
        out(i, st.distinct);
    }
}

/// Incremental windowed percentile with a sorted array — O(frame) per update,
/// the O(n²) percentile row of Table 1 — visiting the frames
/// [`in_frame_order`]. Returns `None` for empty frames.
pub fn percentile(values: &[i64], frames: &[(usize, usize)], p: f64) -> Vec<Option<i64>> {
    let mut window: SortedWindow<_> = SortedWindow::new(values);
    let mut out = vec![None; frames.len()];
    for i in in_frame_order(frames.len(), |i| frames[i]) {
        let (a, b) = frames[i];
        window.slide_to(a, b);
        let s = b - a;
        if s > 0 {
            // PERCENTILE_DISC: j = ceil(p * s), 1-based.
            let j = ((p * s as f64).ceil() as usize).clamp(1, s);
            out[i] = window.select(j - 1);
        }
    }
    out
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
    fn frame_order_is_a_stable_sort_by_start_then_end() {
        let mut rng = StdRng::seed_from_u64(5);
        for n in [0, 1, 2, 3, 50, 300] {
            let mut frames = random_frames(&mut rng, n);
            for _ in 0..2 {
                let mut expect: Vec<usize> = (0..n).collect();
                expect.sort_by_key(|&i| frames[i]);
                let order = in_frame_order(n, |i| frames[i]);
                let sorted = matches!(order, SlideOrder::Sorted(_));
                assert_eq!(order.collect::<Vec<_>>(), expect, "n={n}");
                assert_eq!(sorted, !frames.is_sorted(), "n={n}");
                // Already in frame order: their own order, nothing sorted.
                frames.sort_unstable();
            }
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
