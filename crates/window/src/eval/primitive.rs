//! The range primitives every framed function reduces to (§4), each with the
//! two implementations the strategy layer picks between: the index the
//! merge-sort-tree arm builds, and a scan over the array that index would
//! have been built from. Family evaluators are written once against the
//! traits here; which implementation answers is decided where the index is
//! constructed, never inside a probe loop.
//!
//! | primitive | tree | scan |
//! |---|---|---|
//! | [`CountBelow`] | [`MergeSortTree`], block kernel | [`Scan`] of the codes / prevIdcs |
//! | [`Select`] by an inner ORDER BY | [`MergeSortTree`] over the permutation | [`Scan`]: gather + sort |
//! | [`Count3d`] | [`RangeTree3`] | [`ScanPoints`] |
//! | [`Fold`], MIN / MAX | [`SegTrees`] | [`ScanFold`] |
//! | [`RangeMode`] | [`RangeModeIndex`] | [`ScanIds`] |
//!
//! The Table 1 competitors answer the same two over the same unique codes:
//! the incremental strategy slides them as a [`SortedVector`], the
//! order-statistic one as a [`CountedBTree`], and the segment-tree one
//! selects in a [`SortedListSegTree`].
//!
//! Three questions have one implementation, whatever the strategy, because
//! what the partition already holds answers them: [`Select`] in frame-position
//! order is [`FrameOrder`]'s arithmetic, an integer SUM / AVG is a [`Fold`] of
//! [`PrefixSums`] (addition has an inverse), and a frame's kept-row count is
//! [`crate::artifacts::MaskArtifact::kept_in`]. Float SUM / AVG has one too,
//! for the opposite reason: the result is the combine order, so both arms
//! fold the same segment tree — one per partition, also where a scan's batch
//! holds many ([`SegTrees`]).
//!
//! Every scan reads one array over all of a batch's segments: a frame stays
//! inside its segment, and so do the positions a scan reads for it.

use super::{segment_of, Ctx, Planned, PROBE_BLOCK};
use crate::error::Result;
use holistic_core::{BlockScratch, MergeSortTree, RangeSet, TreeIndex};
use holistic_rangemode::RangeModeIndex;
use holistic_rangetree::RangeTree3;
use holistic_segtree::{Monoid, PrefixSums, SegmentTree, SortedListSegTree};
use holistic_strategies::incremental::{OrderedMultiset, SortedWindow};
use holistic_strategies::ostree::OrderStatisticTree;
use std::marker::PhantomData;

/// `count_below(pieces, t)`: how many elements at the positions `pieces` are
/// smaller than `t`.
pub(crate) trait CountBelow: Sync {
    fn count_below(&self, pieces: &RangeSet, t: usize) -> usize;

    /// Fills one chunk of [`Ctx::probe_counts`]: `slots[k]` is position
    /// `base + k`. A scan answers inside `push`, so there is nothing to
    /// batch and nothing to allocate.
    fn probe_chunk<S, T, P, F>(
        &self,
        _ctx: &Ctx<'_>,
        base: usize,
        slots: &mut [T],
        plan: &P,
        finish: &F,
    ) -> Result<()>
    where
        P: Fn(usize, &mut dyn FnMut(&RangeSet, usize)) -> Result<Planned<S, T>>,
        F: Fn(usize, S, usize) -> Result<T>,
    {
        count_rows(base, slots, plan, finish, |rs, t| self.count_below(rs, t))
    }
}

/// The row-at-a-time count loop of one chunk: each query a row pushes is
/// answered by `answer` as it is pushed.
fn count_rows<S, T, P, F>(
    base: usize,
    slots: &mut [T],
    plan: &P,
    finish: &F,
    mut answer: impl FnMut(&RangeSet, usize) -> usize,
) -> Result<()>
where
    P: Fn(usize, &mut dyn FnMut(&RangeSet, usize)) -> Result<Planned<S, T>>,
    F: Fn(usize, S, usize) -> Result<T>,
{
    for (off, slot) in slots.iter_mut().enumerate() {
        let mut sum = 0;
        *slot = match plan(base + off, &mut |rs, t| sum += answer(rs, t))? {
            Planned::Done(v) => v,
            Planned::Counted(s) => finish(base + off, s, sum)?,
        };
    }
    Ok(())
}

/// `select(pieces, j)`: the rank, in the index's order, of the `j`-th
/// (0-based) row among those at the positions `pieces`; `None` when fewer
/// than `j + 1` rows are there.
pub(crate) trait Select: Sync {
    /// `buf` is the probe loop's per-chunk scratch; only a scan uses it.
    fn select(&self, pieces: &RangeSet, j: usize, buf: &mut SelectBuf) -> Option<usize>;

    /// Fills one chunk of [`Ctx::probe_selects`]; see
    /// [`CountBelow::probe_chunk`]. A row pushes at most two queries
    /// (PERCENTILE_CONT's interpolation endpoints).
    fn probe_chunk<S, T, P, F>(
        &self,
        _ctx: &Ctx<'_>,
        base: usize,
        slots: &mut [T],
        plan: &P,
        finish: &F,
    ) -> Result<()>
    where
        P: Fn(usize, &mut dyn FnMut(RangeSet, usize)) -> Result<Planned<S, T>>,
        F: Fn(usize, S, &[Option<usize>]) -> Result<T>,
    {
        let mut buf = SelectBuf::default();
        select_rows(base, slots, plan, finish, |rs, j| self.select(rs, j, &mut buf))
    }
}

/// The row-at-a-time select loop of one chunk; see [`count_rows`].
fn select_rows<S, T, P, F>(
    base: usize,
    slots: &mut [T],
    plan: &P,
    finish: &F,
    mut answer: impl FnMut(&RangeSet, usize) -> Option<usize>,
) -> Result<()>
where
    P: Fn(usize, &mut dyn FnMut(RangeSet, usize)) -> Result<Planned<S, T>>,
    F: Fn(usize, S, &[Option<usize>]) -> Result<T>,
{
    for (off, slot) in slots.iter_mut().enumerate() {
        let (mut res, mut n) = ([None; 2], 0);
        let planned = plan(base + off, &mut |rs, j| {
            res[n] = answer(&rs, j);
            n += 1;
        })?;
        *slot = match planned {
            Planned::Done(v) => v,
            Planned::Counted(s) => finish(base + off, s, &res[..n])?,
        };
    }
    Ok(())
}

/// The block-kernel probe loop of one chunk: rows are planned
/// [`PROBE_BLOCK`] at a time into one flat query list, `answer` fills in a
/// result per query, and every planned row finishes from its own span of
/// the results.
fn probe_blocks<Q, R: Copy, S, T>(
    base: usize,
    slots: &mut [T],
    unanswered: R,
    plan: impl Fn(usize, &mut Vec<Q>) -> Result<Planned<S, T>>,
    mut answer: impl FnMut(&[Q], &mut [R]),
    finish: impl Fn(usize, S, &[R]) -> Result<T>,
) -> Result<()> {
    let mut queries: Vec<Q> = Vec::new();
    let mut results: Vec<R> = Vec::new();
    // (slot index, query span start/end, row state)
    let mut pending: Vec<(usize, usize, usize, S)> = Vec::new();
    for bs in (0..slots.len()).step_by(PROBE_BLOCK) {
        let be = (bs + PROBE_BLOCK).min(slots.len());
        queries.clear();
        for (off, slot) in slots[bs..be].iter_mut().enumerate() {
            let li = bs + off;
            let start = queries.len();
            match plan(base + li, &mut queries)? {
                Planned::Done(v) => *slot = v,
                Planned::Counted(s) => pending.push((li, start, queries.len(), s)),
            }
        }
        results.resize(queries.len(), unanswered);
        answer(&queries, &mut results);
        for (li, qs, qe, s) in pending.drain(..) {
            slots[li] = finish(base + li, s, &results[qs..qe])?;
        }
    }
    Ok(())
}

impl<I: TreeIndex> CountBelow for MergeSortTree<I> {
    fn count_below(&self, pieces: &RangeSet, t: usize) -> usize {
        self.count_below_multi(pieces, I::from_usize(t))
    }

    /// The rows' flattened per-piece queries are answered in blocks by
    /// [`MergeSortTree::count_below_block`].
    fn probe_chunk<S, T, P, F>(
        &self,
        ctx: &Ctx<'_>,
        base: usize,
        slots: &mut [T],
        plan: &P,
        finish: &F,
    ) -> Result<()>
    where
        P: Fn(usize, &mut dyn FnMut(&RangeSet, usize)) -> Result<Planned<S, T>>,
        F: Fn(usize, S, usize) -> Result<T>,
    {
        let mut scratch = BlockScratch::new();
        probe_blocks(
            base,
            slots,
            0,
            |i, queries| {
                plan(i, &mut |rs, t| {
                    queries.extend(rs.iter().map(|(a, b)| (a, b, I::from_usize(t))))
                })
            },
            |queries, counts| self.count_below_block(queries, counts, &mut scratch),
            |i, s, counts| finish(i, s, counts.iter().sum()),
        )?;
        ctx.kernel.absorb_block(&scratch.stats);
        Ok(())
    }
}

impl<I: TreeIndex> Select for MergeSortTree<I> {
    fn select(&self, pieces: &RangeSet, j: usize, _buf: &mut SelectBuf) -> Option<usize> {
        MergeSortTree::select(self, pieces, j)
    }

    /// Answered in blocks by [`MergeSortTree::select_block`].
    fn probe_chunk<S, T, P, F>(
        &self,
        ctx: &Ctx<'_>,
        base: usize,
        slots: &mut [T],
        plan: &P,
        finish: &F,
    ) -> Result<()>
    where
        P: Fn(usize, &mut dyn FnMut(RangeSet, usize)) -> Result<Planned<S, T>>,
        F: Fn(usize, S, &[Option<usize>]) -> Result<T>,
    {
        let mut scratch = BlockScratch::new();
        probe_blocks(
            base,
            slots,
            None,
            |i, queries| plan(i, &mut |rs, j| queries.push((rs, j))),
            |queries, ranks| self.select_block(queries, ranks, &mut scratch),
            finish,
        )?;
        ctx.kernel.absorb_block(&scratch.stats);
        Ok(())
    }
}

/// The array a merge sort tree would have been built from, scanned: unique
/// codes ([`CountBelow`] for the rank family, [`Select`] — a code *is* its
/// rank — for selection) or previous-occurrence indices (COUNT DISTINCT).
pub(crate) struct Scan<'a>(pub &'a [usize]);

impl CountBelow for Scan<'_> {
    fn count_below(&self, pieces: &RangeSet, t: usize) -> usize {
        pieces.iter().map(|(a, b)| self.0[a..b].iter().filter(|&&x| x < t).count()).sum()
    }
}

/// The unique codes a merge sort tree would have been built from, held as
/// one [`SortedWindow`] in the ordered multiset `W` that each probe chunk
/// slides along its rows' frames (Wesley & Xu): an index for narrow,
/// mostly-monotonic frames. A query that is not one hull (several pieces)
/// is a [`Scan`] of the same codes; each chunk starts its own window, so
/// every answer is the tree's.
pub(crate) struct Sliding<'a, W> {
    codes: &'a [usize],
    multiset: PhantomData<fn() -> W>,
}

/// The incremental strategy's index: a sorted vector of codes.
pub(crate) type SortedVector<'a> = Sliding<'a, Vec<usize>>;

/// The order-statistic strategy's index: a counted B-tree of codes.
pub(crate) type CountedBTree<'a> = Sliding<'a, OrderStatisticTree<usize>>;

impl<'a, W: OrderedMultiset<usize>> Sliding<'a, W> {
    pub fn new(codes: &'a [usize]) -> Self {
        Sliding { codes, multiset: PhantomData }
    }
}

impl<W: OrderedMultiset<usize>> CountBelow for Sliding<'_, W> {
    fn count_below(&self, pieces: &RangeSet, t: usize) -> usize {
        Scan(self.codes).count_below(pieces, t)
    }

    fn probe_chunk<S, T, P, F>(
        &self,
        _ctx: &Ctx<'_>,
        base: usize,
        slots: &mut [T],
        plan: &P,
        finish: &F,
    ) -> Result<()>
    where
        P: Fn(usize, &mut dyn FnMut(&RangeSet, usize)) -> Result<Planned<S, T>>,
        F: Fn(usize, S, usize) -> Result<T>,
    {
        let mut window = SortedWindow::<_, W>::new(self.codes);
        count_rows(base, slots, plan, finish, |rs, t| match rs.len() {
            1 => {
                let (a, b) = rs.nth(0);
                window.slide_to(a, b);
                window.count_below(t)
            }
            _ => self.count_below(rs, t),
        })
    }
}

impl<W: OrderedMultiset<usize>> Select for Sliding<'_, W> {
    fn select(&self, pieces: &RangeSet, j: usize, buf: &mut SelectBuf) -> Option<usize> {
        Scan(self.codes).select(pieces, j, buf)
    }

    fn probe_chunk<S, T, P, F>(
        &self,
        _ctx: &Ctx<'_>,
        base: usize,
        slots: &mut [T],
        plan: &P,
        finish: &F,
    ) -> Result<()>
    where
        P: Fn(usize, &mut dyn FnMut(RangeSet, usize)) -> Result<Planned<S, T>>,
        F: Fn(usize, S, &[Option<usize>]) -> Result<T>,
    {
        let mut window = SortedWindow::<_, W>::new(self.codes);
        let mut buf = SelectBuf::default();
        select_rows(base, slots, plan, finish, |rs, j| match rs.len() {
            1 => {
                let (a, b) = rs.nth(0);
                window.slide_to(a, b);
                window.select(j)
            }
            _ => self.select(rs, j, &mut buf),
        })
    }
}

/// The segment-tree strategy's index: the codes in a segment tree whose
/// nodes carry their sorted lists (Arasu & Widom's base intervals), built
/// per call.
pub(crate) fn sorted_lists(codes: &[usize], parallel: bool) -> SortedListSegTree {
    let wide: Vec<i64> = codes.iter().map(|&c| c as i64).collect();
    SortedListSegTree::build(&wide, parallel)
}

/// A code is its rank; O((log n)²) per piece and step of the value search.
impl Select for SortedListSegTree {
    fn select(&self, pieces: &RangeSet, j: usize, _buf: &mut SelectBuf) -> Option<usize> {
        self.select_in(pieces.iter(), j).map(|c| c as usize)
    }
}

/// [`Scan`]'s selection scratch: the sorted codes of the pieces it was last
/// asked about, so PERCENTILE_CONT's second rank — and every row of an
/// unchanging frame — reads the sort it already has.
pub(crate) struct SelectBuf {
    pieces: RangeSet,
    sorted: Vec<usize>,
}

impl Default for SelectBuf {
    fn default() -> Self {
        SelectBuf { pieces: RangeSet::empty(), sorted: Vec::new() }
    }
}

impl Select for Scan<'_> {
    fn select(&self, pieces: &RangeSet, j: usize, buf: &mut SelectBuf) -> Option<usize> {
        if buf.pieces != *pieces {
            buf.pieces = *pieces;
            buf.sorted.clear();
            for (a, b) in pieces.iter() {
                buf.sorted.extend_from_slice(&self.0[a..b]);
            }
            buf.sorted.sort_unstable();
        }
        buf.sorted.get(j).copied()
    }
}

/// Selection in frame-position order ([`crate::plan::OrderKey::Identity`]),
/// on both arms: the permutation is the identity, so the `j`-th row of at
/// most three ascending pieces is found by subtraction.
pub(crate) struct FrameOrder;

impl Select for FrameOrder {
    fn select(&self, pieces: &RangeSet, mut j: usize, _buf: &mut SelectBuf) -> Option<usize> {
        for (a, b) in pieces.iter() {
            if j < b - a {
                return Some(a + j);
            }
            j -= b - a;
        }
        None
    }
}

/// DENSE_RANK's 3-d count (§4.4): rows at positions `[a, b)` with first
/// coordinate `< x` and second `< y`.
pub(crate) trait Count3d: Send + Sync {
    fn count(&self, a: usize, b: usize, x: usize, y: usize) -> usize;
}

/// Built for u32 partitions only, so the coordinates narrow exactly.
impl Count3d for RangeTree3 {
    fn count(&self, a: usize, b: usize, x: usize, y: usize) -> usize {
        RangeTree3::count(self, a, b, x as u32, y as u32)
    }
}

/// The two coordinate arrays a [`RangeTree3`] would have been built from.
pub(crate) struct ScanPoints<'a>(pub &'a [usize], pub Vec<usize>);

impl Count3d for ScanPoints<'_> {
    fn count(&self, a: usize, b: usize, x: usize, y: usize) -> usize {
        self.0[a..b].iter().zip(&self.1[a..b]).filter(|&(&px, &py)| px < x && py < y).count()
    }
}

/// The distributive fold of a monoid's states over the positions `pieces`.
pub(crate) trait Fold<T>: Send + Sync {
    fn fold(&self, pieces: &RangeSet) -> T;
}

impl<M: Monoid> Fold<M::State> for SegmentTree<M> {
    fn fold(&self, pieces: &RangeSet) -> M::State {
        self.query_multi(pieces.iter())
    }
}

/// One segment tree per segment of a batch, each over its segment's inputs:
/// a frame folds its own segment's tree, so the combine order — every bit of
/// a float sum — is that of the tree its partition would build alone.
pub(crate) struct SegTrees<M: Monoid> {
    starts: Vec<usize>,
    trees: Vec<SegmentTree<M>>,
}

impl<M: Monoid> SegTrees<M> {
    /// The trees over `inputs` cut at the segment boundaries `starts`.
    pub fn build(inputs: &[M::Input], starts: &[usize], parallel: bool) -> Self {
        let trees =
            starts.windows(2).map(|w| SegmentTree::build(&inputs[w[0]..w[1]], parallel)).collect();
        SegTrees { starts: starts.to_vec(), trees }
    }

    /// The trees' bytes (the boundaries are the batch's).
    pub fn bytes(&self) -> usize {
        self.trees.iter().map(SegmentTree::bytes).sum()
    }
}

/// `pieces` lie in one segment, as a frame's do.
impl<M: Monoid> Fold<M::State> for SegTrees<M> {
    fn fold(&self, pieces: &RangeSet) -> M::State {
        if pieces.is_empty() {
            return M::identity();
        }
        let s = segment_of(&self.starts, pieces.nth(0).0);
        let base = self.starts[s];
        let mut local = RangeSet::empty();
        for (a, b) in pieces.iter() {
            local.push(a - base, b - base);
        }
        self.trees[s].fold(&local)
    }
}

/// Integer SUM in O(1) per piece, on both arms; equal to what a segment tree
/// with a 128-bit accumulator folds, a sum past `i64` included.
impl Fold<i128> for PrefixSums {
    fn fold(&self, pieces: &RangeSet) -> i128 {
        pieces.iter().map(|(a, b)| self.query(a, b)).sum()
    }
}

/// A monoid's inputs, combined left to right per probe (MIN / MAX, whose
/// result does not depend on the combine order).
pub(crate) struct ScanFold<M: Monoid>(pub Vec<M::Input>);

impl<M: Monoid> Fold<M::State> for ScanFold<M> {
    fn fold(&self, pieces: &RangeSet) -> M::State {
        let mut acc = M::identity();
        for (a, b) in pieces.iter() {
            for &x in &self.0[a..b] {
                acc = M::combine(acc, M::lift(x));
            }
        }
        acc
    }
}

/// The most frequent dense id at the positions `pieces`, smallest id on
/// count ties; `None` over no rows.
pub(crate) trait RangeMode: Send + Sync {
    /// `counts` is the probe loop's per-chunk scratch; only a scan uses it.
    fn mode(&self, pieces: &RangeSet, counts: &mut Vec<u32>) -> Option<u32>;
}

impl RangeMode for RangeModeIndex {
    /// One piece probes in O(√n log n); mode does not decompose over unions,
    /// so several pieces count exactly.
    fn mode(&self, pieces: &RangeSet, _counts: &mut Vec<u32>) -> Option<u32> {
        let found = match pieces.len() {
            0 => None,
            1 => self.query(pieces.nth(0).0, pieces.nth(0).1),
            _ => {
                let mut ranges = [(0, 0); holistic_core::range_set::MAX_RANGES];
                for (slot, r) in ranges.iter_mut().zip(pieces.iter()) {
                    *slot = r;
                }
                self.query_multi(&ranges[..pieces.len()])
            }
        };
        found.map(|(id, _count)| id)
    }
}

/// The dense ids a [`RangeModeIndex`] would have been built from, below
/// `distinct`; a probe counts them into a table it leaves zeroed.
pub(crate) struct ScanIds {
    pub ids: Vec<u32>,
    pub distinct: usize,
}

impl RangeMode for ScanIds {
    fn mode(&self, pieces: &RangeSet, counts: &mut Vec<u32>) -> Option<u32> {
        counts.resize(self.distinct, 0);
        let mut best: Option<(u32, u32)> = None;
        for (a, b) in pieces.iter() {
            for &id in &self.ids[a..b] {
                let c = &mut counts[id as usize];
                *c += 1;
                if best.is_none_or(|(bid, bc)| *c > bc || (*c == bc && id < bid)) {
                    best = Some((id, *c));
                }
            }
        }
        for (a, b) in pieces.iter() {
            for &id in &self.ids[a..b] {
                counts[id as usize] = 0;
            }
        }
        best.map(|(id, _)| id)
    }
}

/// Scan ≡ tree, primitive by primitive: arrays with heavy ties, 1–3-piece
/// sets whose pieces may be empty or vanish, thresholds and ranks at 0, in
/// range, at the end and past it.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifacts::MaskArtifact;
    use holistic_core::{dense_codes, prev_idcs_by_key, MstParams};
    use holistic_segtree::{CountMonoid, MaxMonoid, MinMonoid, SumMonoid};
    use proptest::prelude::*;

    /// Three ascending pieces over `0..=n` from six cut points.
    fn pieces(cut: &[usize], n: usize) -> RangeSet {
        let mut c: Vec<usize> = cut.iter().map(|&x| x % (n + 1)).collect();
        c.sort_unstable();
        RangeSet::from_ranges(&[(c[0], c[1]), (c[2], c[3]), (c[4], c[5])])
    }

    fn tree(values: &[usize]) -> MergeSortTree<u32> {
        let values: Vec<u32> = values.iter().map(|&v| v as u32).collect();
        MergeSortTree::build(&values, MstParams::default().serial())
    }

    fn cuts() -> impl Strategy<Value = Vec<Vec<usize>>> {
        prop::collection::vec(prop::collection::vec(0usize..64, 6), 1..12)
    }

    proptest! {
        #[test]
        fn count_below_scan_matches_tree(
            values in prop::collection::vec(0usize..9, 0..60),
            cuts in cuts(),
        ) {
            let (n, tree) = (values.len(), tree(&values));
            for cut in &cuts {
                let p = pieces(cut, n);
                for t in [0, 1, 4, 8, 9, 10, n + 3] {
                    prop_assert_eq!(
                        Scan(&values).count_below(&p, t), CountBelow::count_below(&tree, &p, t),
                        "pieces {:?} t {}", p, t
                    );
                }
            }
        }

        #[test]
        fn select_scan_matches_tree(
            keys in prop::collection::vec(0i64..6, 0..60),
            cuts in cuts(),
        ) {
            let n = keys.len();
            let dc = dense_codes(&keys, false);
            let by_keys = tree(&dc.perm);
            let by_position = tree(&(0..n).collect::<Vec<_>>());
            let lists = sorted_lists(&dc.code, false);
            // One scratch through every query: its memo must notice each
            // change of pieces.
            let mut buf = SelectBuf::default();
            for cut in &cuts {
                let p = pieces(cut, n);
                let s = p.count();
                for j in [0, 1, s / 2, s.saturating_sub(1), s, s + 3] {
                    prop_assert_eq!(
                        Scan(&dc.code).select(&p, j, &mut buf),
                        Select::select(&by_keys, &p, j, &mut buf),
                        "explicit order, pieces {:?} j {}", p, j
                    );
                    prop_assert_eq!(
                        Select::select(&lists, &p, j, &mut buf),
                        Select::select(&by_keys, &p, j, &mut buf),
                        "sorted lists, pieces {:?} j {}", p, j
                    );
                    prop_assert_eq!(
                        FrameOrder.select(&p, j, &mut buf),
                        Select::select(&by_position, &p, j, &mut buf),
                        "frame order, pieces {:?} j {}", p, j
                    );
                }
            }
        }

        #[test]
        fn sorted_window_matches_scan(
            keys in prop::collection::vec(0usize..9, 0..60),
            steps in prop::collection::vec((0usize..64, 0usize..64), 1..24),
            monotone in any::<bool>(),
        ) {
            // Monotone hulls creep forward by up to 7 at either end; the
            // others are drawn afresh, so they jump, shrink and vanish.
            let n = keys.len();
            let (mut a, mut b) = (0, 0);
            let mut window: SortedWindow<_> = SortedWindow::new(&keys[..]);
            let mut counted = SortedWindow::<_, OrderStatisticTree<_>>::new(&keys[..]);
            let mut buf = SelectBuf::default();
            for &(x, y) in &steps {
                (a, b) = if monotone {
                    let b = (b + y % 8).min(n);
                    ((a + x % 8).min(b), b)
                } else {
                    let (x, y) = (x % (n + 1), y % (n + 1));
                    (x.min(y), x.max(y))
                };
                window.slide_to(a, b);
                counted.slide_to(a, b);
                let hull = RangeSet::single(a, b);
                for t in [0, 1, 4, 8, 9, 10] {
                    prop_assert_eq!(
                        window.count_below(t), Scan(&keys).count_below(&hull, t),
                        "[{}, {}) t {}", a, b, t
                    );
                    prop_assert_eq!(counted.count_below(t), window.count_below(t));
                }
                for j in 0..=b - a + 1 {
                    prop_assert_eq!(
                        window.select(j), Scan(&keys).select(&hull, j, &mut buf),
                        "[{}, {}) j {}", a, b, j
                    );
                    prop_assert_eq!(counted.select(j), window.select(j));
                }
            }
        }

        #[test]
        fn count3d_scan_matches_tree(
            groups in prop::collection::vec(0u32..7, 0..60),
            cuts in cuts(),
        ) {
            let n = groups.len();
            let wide: Vec<usize> = groups.iter().map(|&g| g as usize).collect();
            let prev = prev_idcs_by_key(&wide, false);
            let narrow: Vec<u32> = prev.iter().map(|&p| p as u32).collect();
            let tree = RangeTree3::build(&groups, &narrow, false);
            let scan = ScanPoints(&wide, prev);
            for cut in &cuts {
                let (a, b) = (cut[0] % (n + 1), cut[1] % (n + 1));
                let (a, b) = (a.min(b), a.max(b));
                for x in [0, 1, 3, 7, 8] {
                    for y in [0, 1, a + 1, n, n + 2] {
                        prop_assert_eq!(
                            scan.count(a, b, x, y), Count3d::count(&tree, a, b, x, y),
                            "[{}, {}) x {} y {}", a, b, x, y
                        );
                    }
                }
            }
        }

        #[test]
        fn fold_scans_match_trees(
            // The prefix array and the remap have no tree beside them in the
            // engine; the segment trees here are their definition. Sums reach
            // past `i64`, where SUM's overflow error must be the tree's too.
            picks in prop::collection::vec(0usize..6, 0..60),
            keep in prop::collection::vec(any::<bool>(), 60),
            cuts in cuts(),
        ) {
            let n = picks.len();
            let inputs: Vec<i64> =
                picks.iter().map(|&k| [i64::MAX, i64::MIN, i64::MAX - 1, 0, 7, -7][k]).collect();
            let mask = MaskArtifact::build(keep[..n].to_vec(), &(0..n).collect::<Vec<_>>());
            let flags: Vec<u64> = mask.keep.iter().map(|&k| k as u64).collect();
            for cut in &cuts {
                let p = pieces(cut, n);
                prop_assert_eq!(
                    PrefixSums::build(&inputs).fold(&p),
                    SegmentTree::<SumMonoid>::build(&inputs, false).fold(&p)
                );
                prop_assert_eq!(
                    ScanFold::<MinMonoid>(inputs.clone()).fold(&p),
                    SegmentTree::<MinMonoid>::build(&inputs, false).fold(&p)
                );
                prop_assert_eq!(
                    ScanFold::<MaxMonoid>(inputs.clone()).fold(&p),
                    SegmentTree::<MaxMonoid>::build(&inputs, false).fold(&p)
                );
                prop_assert_eq!(
                    mask.kept_in(&p) as u64,
                    SegmentTree::<CountMonoid>::build(&flags, false).fold(&p)
                );
            }
        }

        #[test]
        fn mode_scan_matches_index(
            // Few distinct ids: most frames tie on the count.
            ids in prop::collection::vec(0u32..4, 0..60),
            cuts in cuts(),
        ) {
            let n = ids.len();
            let index = RangeModeIndex::build(&ids, 4);
            let scan = ScanIds { ids, distinct: 4 };
            let mut counts = Vec::new();
            for cut in &cuts {
                let p = pieces(cut, n);
                prop_assert_eq!(
                    scan.mode(&p, &mut counts), index.mode(&p, &mut Vec::new()),
                    "pieces {:?}", p
                );
                prop_assert!(counts.iter().all(|&c| c == 0), "scratch left dirty");
            }
        }
    }
}
