//! The merge sort tree data structure (§4.2, §4.5, §5.1).
//!
//! Storage is a single contiguous arena per tree (see [`crate::arena`]): all
//! levels' keys live in one allocation, followed by the sampled
//! cascading-pointer slabs, with a small per-level metadata table. Run
//! boundaries are `(offset, len)` arithmetic — no per-run or per-level owned
//! vectors.
//!
//! The build is top-down: one sort of the keys (ties by base position)
//! yields the top run, and every lower level is a stable scatter of its
//! parent's runs into their children (`scatter_level`) — the scatter's
//! write cursors, sampled, are the cascading pointers. Levels of several runs
//! scatter one task per run; nothing is merged.
//!
//! The probe descent short-circuits partial level-1 runs by scanning the
//! contiguous base keys directly instead of cascading into singleton
//! children.

use crate::arena::{Span, SpillableArena};
use crate::cursor::gallop_partition_point;
use crate::index::TreeIndex;
use crate::params::MstParams;
use crate::range_set::{RangeSet, MAX_RANGES};
use crate::sort::sort_indices;
use rayon::prelude::*;

/// Per-level metadata of an arena-backed merge sort tree.
///
/// A level's keys occupy `[level · n, (level + 1) · n)` of the keys region
/// (every level stores exactly `n` elements, so key offsets need no table);
/// its cascading-pointer slab is addressed by an explicit [`Span`] relative
/// to the pointer region. Per-run pointer-slab offsets are the closed form
/// `run · samples_per_run · fanout` — valid because every run before the last
/// is full-length — replacing the per-level `sample_offsets` vector of the
/// pre-arena representation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LevelMeta {
    /// Nominal run length `fanout^level` (the final run may be shorter).
    pub run_len: usize,
    /// This level's pointer slab within the pointer region (empty at level 0).
    pub ptrs: Span,
    /// Pointer samples per full-length run: `run_len / sampling + 2` (the two
    /// extra slots are the trailing "after everything" sentinels).
    pub samples_per_run: usize,
}

impl LevelMeta {
    /// Bounds `[start, end)` of run `r` given `n` total elements.
    #[inline]
    pub fn run_bounds(&self, r: usize, n: usize) -> (usize, usize) {
        let start = r * self.run_len;
        (start, (start + self.run_len).min(n))
    }
}

/// Computes the level table for `n` elements: run lengths, pointer-slab spans
/// and sample strides, without touching any data. The whole arena size is
/// known from this table alone, so storage is allocated exactly once.
pub(crate) fn level_geometry(n: usize, params: MstParams) -> Vec<LevelMeta> {
    params.validate();
    let (f, k) = (params.fanout, params.sampling);
    let mut meta =
        vec![LevelMeta { run_len: 1, ptrs: Span::new(0, 0), samples_per_run: 1 / k + 2 }];
    while meta.last().unwrap().run_len < n {
        let run_len = meta.last().unwrap().run_len.saturating_mul(f);
        let num_runs = n.div_ceil(run_len);
        let samples_per_run = run_len / k + 2;
        let last_len = n - (num_runs - 1) * run_len;
        let total_samples = (num_runs - 1) * samples_per_run + (last_len / k + 2);
        let off = meta.last().unwrap().ptrs.end();
        meta.push(LevelMeta { run_len, ptrs: Span::new(off, total_samples * f), samples_per_run });
    }
    meta
}

/// What one probe of a stream leaves for the next: where its searches in a
/// tree ended. A probe loop passes the same seed to every probe (see
/// [`crate::AnnotatedMst::aggregate_below`]), and each search gallops from
/// the previous probe's position instead of starting over — amortized O(1)
/// per level when frames slide.
///
/// Galloping returns exactly what a full search returns from any start, so
/// a fresh seed, one left by another tree, or any `top` gives the same
/// answers; a seed changes only the cost.
#[derive(Debug, Clone, Default)]
pub struct ProbeSeed {
    /// The top-level lower bound of the previous threshold: where the next
    /// top-level search starts. Any value is valid.
    pub top: usize,
    /// Per level below the top, per frame edge (the child holding the frame
    /// start, the child holding its last row): the absolute child run
    /// searched there and the lower bound found in it. A search in another
    /// run cascades from its parent instead.
    edges: Vec<[(usize, usize); 2]>,
}

/// Base positions `0..n` ordered by `(values[p], p)`: the order of the top run,
/// and — ties going to the earlier position — the order a stable merge of the
/// level below would have produced. One call of the engine's one sort
/// ([`sort_indices`]) over range-compressed keys, so narrow key domains
/// (prevIdcs, dense codes, permutations: all `≤ n`) take its radix passes.
fn sort_positions<I: TreeIndex>(values: &[I], parallel: bool) -> Vec<I> {
    let keys = || values.iter().map(|v| v.to_usize());
    let (min, max) = (keys().min().unwrap_or(0), keys().max().unwrap_or(0));
    let key_bits = usize::BITS - (max - min).leading_zeros();
    let mut pos = (0..values.len()).map(I::from_usize).collect();
    sort_indices(
        &mut pos,
        |p: I| (values[p.to_usize()].to_usize() - min) as u64,
        key_bits,
        parallel,
    );
    pos
}

/// Derives level `lvl - 1` from level `lvl` by a stable `fanout`-way scatter
/// of every run into its children — the one level routine of every build
/// (in-memory, out-of-core, annotated).
///
/// `src` is level `lvl`: the base position of every element, and beside it
/// whatever rides along (`T`: keys, `(key, payload)` pairs, or `()` when the
/// caller only wants the order). An element of run `r` belongs to the child
/// covering its base position; scattering a sorted run in order leaves every
/// child sorted by `(key, position)` too, which is what the child *is*. The
/// per-child write cursors, snapshotted every `sampling`-th element, are the
/// sampled cascading pointers of §4.2 (how many elements of each child
/// precede the sample), and go to `ptrs`, level `lvl`'s slab.
///
/// Levels of several runs scatter one task per run under `params.parallel`.
fn scatter_level<I: TreeIndex, T: Copy + Send + Sync>(
    params: MstParams,
    meta: &[LevelMeta],
    lvl: usize,
    (src_pos, src): (&[I], &[T]),
    (dst_pos, dst): (&mut [I], &mut [T]),
    ptrs: &mut [I],
) {
    let (f, k) = (params.fanout, params.sampling);
    let run_len = meta[lvl].run_len;
    let child_len = meta[lvl - 1].run_len;
    // Every run before the last is full-length, so equal chunks carve the
    // slab per run; the last run's chunk is as short as its sample count.
    let slab = meta[lvl].samples_per_run * f;
    let runs = src_pos
        .chunks(run_len)
        .zip(src.chunks(run_len))
        .zip(dst_pos.chunks_mut(run_len))
        .zip(dst.chunks_mut(run_len))
        .zip(ptrs.chunks_mut(slab))
        .enumerate();
    let scatter = |(r, ((((sp, s), dp), d), snaps))| {
        scatter_run(f, k, child_len, r * run_len, (sp, s), (dp, d), snaps)
    };
    if params.parallel && src_pos.len() > run_len {
        runs.collect::<Vec<_>>().into_par_iter().for_each(scatter);
    } else {
        runs.for_each(scatter);
    }
}

/// Scatters one run (starting at base position `run_start`) into its
/// children and fills the run's pointer slots `snaps`, laid out
/// `[sample][child]`: slot `s` holds, per child, how many of its elements are
/// among the run's first `s · k`. The trailing slots (two when `k` divides the
/// run length, else one) hold the child lengths.
fn scatter_run<I: TreeIndex, T: Copy>(
    f: usize,
    k: usize,
    child_len: usize,
    run_start: usize,
    (src_pos, src): (&[I], &[T]),
    (dst_pos, dst): (&mut [I], &mut [T]),
    snaps: &mut [I],
) {
    let len = src_pos.len();
    debug_assert_eq!(snaps.len(), (len / k + 2) * f);
    // The cursors live in the run's last slot, which must end up holding
    // their final values anyway.
    let (slots, cursors) = snaps.split_at_mut((len / k + 1) * f);
    cursors.fill(I::ZERO);
    let shift = child_len.is_power_of_two().then(|| child_len.trailing_zeros());
    let mut slots = slots.chunks_mut(f);
    for (sp, s) in src_pos.chunks(k).zip(src.chunks(k)) {
        slots.next().expect("one slot per k elements").copy_from_slice(cursors);
        for (&p, &elem) in sp.iter().zip(s) {
            let off = p.to_usize() - run_start;
            let c = shift.map_or_else(|| off / child_len, |sh| off >> sh);
            let taken = cursors[c].to_usize();
            dst_pos[c * child_len + taken] = p;
            dst[c * child_len + taken] = elem;
            cursors[c] = I::from_usize(taken + 1);
        }
    }
    for slot in slots {
        slot.copy_from_slice(cursors);
    }
}

/// Builds every level into preallocated storage, top-down: one sort for the
/// top run, then one [`scatter_level`] per level below it.
///
/// `data` holds `meta.len() · n` elements, level-major, and `ptrs` the
/// concatenated pointer slabs (`meta.last().ptrs.end()` elements); both are
/// overwritten entirely. `elem(p)` is what the tree stores for base position
/// `p`. Returns the wall time of the sort (with the top level's gather), then
/// of each scatter from the top level down.
pub(crate) fn build_levels<I: TreeIndex, T: Copy + Send + Sync>(
    values: &[I],
    params: MstParams,
    meta: &[LevelMeta],
    elem: impl Fn(usize) -> T,
    data: &mut [T],
    ptrs: &mut [I],
) -> Vec<std::time::Duration> {
    let n = values.len();
    debug_assert_eq!(data.len(), meta.len() * n);
    let mut times = Vec::with_capacity(meta.len());
    let t0 = std::time::Instant::now();
    let mut pos = sort_positions(values, params.parallel);
    for (slot, p) in data[(meta.len() - 1) * n..].iter_mut().zip(&pos) {
        *slot = elem(p.to_usize());
    }
    times.push(t0.elapsed());
    let mut lower_pos = vec![I::ZERO; n];
    for lvl in (1..meta.len()).rev() {
        let t0 = std::time::Instant::now();
        // The parent level is read-only while the child level is written:
        // disjoint regions of the single level-major buffer.
        let (lower, upper) = data.split_at_mut(lvl * n);
        scatter_level(
            params,
            meta,
            lvl,
            (&pos, &upper[..n]),
            (&mut lower_pos, &mut lower[(lvl - 1) * n..]),
            meta[lvl].ptrs.slice_mut(ptrs),
        );
        std::mem::swap(&mut pos, &mut lower_pos);
        times.push(t0.elapsed());
    }
    times
}

/// Total arena length (keys + pointer slabs, in elements) of a tree over `n`
/// values — a pure function of the geometry, so budget governors can price a
/// build before running it.
pub fn mst_arena_len(n: usize, params: MstParams) -> usize {
    let meta = level_geometry(n, params);
    meta.len() * n + meta.last().expect("geometry has at least one level").ptrs.end()
}

/// Peak resident element count of [`MergeSortTree::build_spilled`]: two
/// position vectors (the base positions in one level's order and in the next
/// level's) plus one segment buffer, which holds in turn every level's keys
/// and every pointer slab on their way to the spill file — what an
/// out-of-core build keeps in memory instead of the full
/// [`mst_arena_len`]-element arena. (The largest segment is a pointer slab
/// whenever there is one: level 1's has at least two slots per key.)
pub fn mst_spill_build_len(n: usize, params: MstParams) -> usize {
    let meta = level_geometry(n, params);
    2 * n + meta.iter().map(|m| m.ptrs.len).max().unwrap_or(0).max(n)
}

/// The cumulative segment boundaries of an arena slab in layout order: one
/// segment per key level (each `n` elements), then one per pointer slab.
/// This is the granularity [`crate::arena::SpillableArena`] spills and
/// re-faults at.
fn arena_segments(levels: &[LevelMeta], n: usize) -> Vec<usize> {
    let h = levels.len();
    let mut segs = Vec::with_capacity(2 * h);
    segs.push(0);
    for l in 1..=h {
        segs.push(l * n);
    }
    let base = h * n;
    for m in &levels[1..] {
        segs.push(base + m.ptrs.end());
    }
    segs
}

/// A merge sort tree over integer payloads.
///
/// Payloads are produced by the preprocessing steps of §4/§5.1 (previous
/// occurrence indices, dense rank codes, or permutation entries) and are
/// always integers, so the tree itself is query-independent (§5.4).
///
/// The entire tree — every level's keys and every cascading-pointer slab —
/// lives in one contiguous allocation (see [`crate::arena`]); probes descend
/// through one buffer instead of hopping between per-level vectors.
#[derive(Debug, Clone)]
pub struct MergeSortTree<I: TreeIndex> {
    /// `[level-0 keys | … | top keys ‖ level-1 ptrs | … | top ptrs]`.
    arena: Vec<I>,
    levels: Vec<LevelMeta>,
    params: MstParams,
    n: usize,
    /// True when the top run is the identity permutation `0..n` — always the
    /// case for the executor's position trees (built over a permutation of
    /// `0..n`, whose sorted order is the identity). Rank in the identity is a
    /// clamp, so the block kernels answer top searches arithmetically instead
    /// of binary-searching `log n` scattered lines per threshold.
    identity_top: bool,
    /// Every [`TOP_SAMPLE_STRIDE`]-th top-run key (empty for identity tops).
    /// The sample vector is `n / 64` keys — cache-resident at any realistic
    /// `n` — so the block kernels' top searches binary-search the samples
    /// without missing, then finish inside one `≤ stride` window (at most
    /// five lines) instead of chasing `log n` scattered lines.
    top_samples: Vec<I>,
}

/// The metadata of a [`MergeSortTree`] without its arena slab: level table,
/// build parameters and the (cache-sized) top-run samples. A parked tree is
/// exactly a shell plus a spilled slab; [`MergeSortTree::from_shell`]
/// reassembles the tree without rescanning anything.
#[derive(Debug, Clone)]
pub struct MstShell<I: TreeIndex> {
    levels: Vec<LevelMeta>,
    params: MstParams,
    n: usize,
    identity_top: bool,
    top_samples: Vec<I>,
}

impl<I: TreeIndex> MstShell<I> {
    /// Number of elements of the (parked) tree.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the parked tree is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The arena's cumulative segment boundaries in layout order (one
    /// segment per key level, then one per pointer slab) — the segment table
    /// a [`SpillableArena`] for this tree must be built with.
    pub fn segments(&self) -> Vec<usize> {
        arena_segments(&self.levels, self.n)
    }

    /// Full arena footprint of the tree when resident, in bytes.
    pub fn arena_bytes(&self) -> usize {
        (self.levels.len() * self.n + self.levels.last().unwrap().ptrs.end())
            * std::mem::size_of::<I>()
    }
}

impl<I: TreeIndex> MergeSortTree<I> {
    /// Builds a tree over `values` (level 0 keeps the original order).
    pub fn build(values: &[I], params: MstParams) -> Self {
        Self::build_profiled(values, params).0
    }

    /// Like [`Self::build`], but also reports the wall time of each build
    /// phase (Figure 14): first the one sort of the tree's keys, which yields
    /// the top level, then one scatter per level below it, from the top
    /// level's children down to level 0 — `height()` durations in all.
    pub fn build_profiled(values: &[I], params: MstParams) -> (Self, Vec<std::time::Duration>) {
        let n = values.len();
        let meta = level_geometry(n, params);
        let keys_len = meta.len() * n;
        let ptrs_len = meta.last().unwrap().ptrs.end();
        let mut arena = vec![I::ZERO; keys_len + ptrs_len];
        let (keys, ptrs) = arena.split_at_mut(keys_len);
        let times = build_levels(values, params, &meta, |p| values[p], keys, ptrs);
        (Self::from_parts(arena, meta, params, n), times)
    }

    /// Wraps a filled arena (the annotated build fills a pair arena first,
    /// then extracts the keys into a fresh key arena).
    pub(crate) fn from_parts(
        arena: Vec<I>,
        levels: Vec<LevelMeta>,
        params: MstParams,
        n: usize,
    ) -> Self {
        debug_assert_eq!(arena.len(), levels.len() * n + levels.last().unwrap().ptrs.end());
        let top_keys = &arena[(levels.len() - 1) * n..levels.len() * n];
        let identity_top = top_is_identity(top_keys, n);
        let top_samples = sample_top(top_keys, identity_top);
        MergeSortTree { arena, levels, params, n, identity_top, top_samples }
    }

    /// Builds a tree over `values` without ever materializing the full
    /// arena: only the *order* of each level is held in memory (the base
    /// positions, scattered level by level through the same
    /// `scatter_level` as [`Self::build`]), a level's keys are gathered as
    /// `values[position]` into one segment buffer, and each completed
    /// segment (keys, then the cascading-pointer slab the scatter produced)
    /// is streamed straight into a spill file. The result is *born parked*:
    /// re-fault the returned arena and wrap it with [`Self::from_shell`] to
    /// probe it.
    ///
    /// Peak resident memory is [`mst_spill_build_len`] elements instead of
    /// the full [`mst_arena_len`]-element arena — the out-of-core path for
    /// partitions whose tree exceeds the memory budget. To stay below the
    /// arena it is avoiding, the positions are sorted in place rather than
    /// through [`sort_indices`], which holds a scratch copy of them beside
    /// them (or, on its comparison path, 16 B per row of gathered key pairs).
    ///
    /// Bit-identical to [`Self::build`]: the same total order on top, the
    /// same scatter below; only the backing storage differs.
    pub fn build_spilled(
        values: &[I],
        params: MstParams,
    ) -> std::io::Result<(MstShell<I>, SpillableArena<I>)> {
        Self::build_spilled_measured(values, params).map(|(shell, arena, _)| (shell, arena))
    }

    /// [`Self::build_spilled`], and the element count of every buffer it
    /// held (all of them live until it returns, so their sum is its peak).
    fn build_spilled_measured(
        values: &[I],
        params: MstParams,
    ) -> std::io::Result<(MstShell<I>, SpillableArena<I>, usize)> {
        let n = values.len();
        let meta = level_geometry(n, params);
        let h = meta.len();
        let mut arena = SpillableArena::new(arena_segments(&meta, n));
        let mut pos: Vec<I> = (0..n).map(I::from_usize).collect();
        pos.sort_unstable_by_key(|&p| (values[p.to_usize()], p));
        let mut lower_pos = vec![I::ZERO; n];
        let mut seg: Vec<I> = Vec::with_capacity(mst_spill_build_len(n, params) - 2 * n);
        let gather = |seg: &mut Vec<I>, pos: &[I]| {
            seg.clear();
            seg.extend(pos.iter().map(|&p| values[p.to_usize()]));
        };
        gather(&mut seg, &pos);
        arena.write_segment(h - 1, &seg)?;
        let identity_top = top_is_identity(&seg, n);
        let top_samples = sample_top(&seg, identity_top);
        // Nothing rides along with the positions.
        let (unit, mut child_unit) = (vec![(); n], vec![(); n]);
        for lvl in (1..h).rev() {
            seg.clear();
            seg.resize(meta[lvl].ptrs.len, I::ZERO);
            scatter_level(
                params,
                &meta,
                lvl,
                (&pos, &unit),
                (&mut lower_pos, &mut child_unit),
                &mut seg,
            );
            arena.write_segment(h + lvl - 1, &seg)?;
            std::mem::swap(&mut pos, &mut lower_pos);
            gather(&mut seg, &pos);
            arena.write_segment(lvl - 1, &seg)?;
        }
        arena.mark_written();
        let resident = pos.capacity() + lower_pos.capacity() + seg.capacity();
        Ok((MstShell { levels: meta, params, n, identity_top, top_samples }, arena, resident))
    }

    /// Splits the tree into its metadata shell and its arena slab — the
    /// parking operation: the shell stays resident (a few dozen bytes plus
    /// the cache-sized top samples), the slab goes to a
    /// [`SpillableArena`].
    pub fn into_shell(self) -> (MstShell<I>, Vec<I>) {
        (
            MstShell {
                levels: self.levels,
                params: self.params,
                n: self.n,
                identity_top: self.identity_top,
                top_samples: self.top_samples,
            },
            self.arena,
        )
    }

    /// Reassembles a tree from a shell and its re-faulted arena. The shell
    /// preserves `identity_top` and the top samples, so — unlike
    /// `Self::from_parts` — nothing is rescanned: the round trip
    /// `into_shell` → `from_shell` is exact and cheap.
    pub fn from_shell(shell: MstShell<I>, arena: Vec<I>) -> Self {
        debug_assert_eq!(
            arena.len(),
            shell.levels.len() * shell.n + shell.levels.last().unwrap().ptrs.end()
        );
        MergeSortTree {
            arena,
            levels: shell.levels,
            params: shell.params,
            n: shell.n,
            identity_top: shell.identity_top,
            top_samples: shell.top_samples,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the tree is empty.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Build parameters.
    pub fn params(&self) -> MstParams {
        self.params
    }

    /// The keys of `level`, all runs concatenated (`n` elements).
    #[inline]
    pub(crate) fn keys(&self, level: usize) -> &[I] {
        &self.arena[level * self.n..(level + 1) * self.n]
    }

    /// The top level: every key in one sorted run, so the lower bound of `t`
    /// here is `count_below(0, len, t)`.
    #[inline]
    pub(crate) fn top_keys(&self) -> &[I] {
        self.keys(self.levels.len() - 1)
    }

    /// The cascading-pointer slab of `level`, laid out `[run][sample][child]`.
    #[inline]
    pub(crate) fn ptr_slab(&self, level: usize) -> &[I] {
        let base = self.levels.len() * self.n;
        let s = self.levels[level].ptrs;
        &self.arena[base + s.off..base + s.end()]
    }

    /// The element stored at (level-0) position `i`.
    #[inline]
    pub fn value(&self, i: usize) -> I {
        debug_assert!(i < self.n);
        self.arena[i]
    }

    /// Cascaded refinement: given the lower-bound position `pos` of threshold
    /// `t` within run `r` of `level`, returns the lower-bound position of `t`
    /// within child run `c`.
    #[inline]
    pub(crate) fn cascade(&self, level: usize, run: usize, pos: usize, c: usize, t: I) -> usize {
        let lvl = &self.levels[level];
        let child = &self.levels[level - 1];
        let child_run = run * (lvl.run_len / child.run_len) + c;
        let (cs, ce) = child.run_bounds(child_run, self.n);
        let clen = ce - cs;
        let child_keys = self.keys(level - 1);
        let f = self.params.fanout;
        let k = self.params.sampling;
        let s = pos / k;
        let base = (run * lvl.samples_per_run + s) * f + c;
        let ptrs = self.ptr_slab(level);
        let lo = ptrs[base].to_usize();
        let hi = ptrs[base + f].to_usize().min(clen);
        debug_assert!(lo <= hi);
        lo + child_keys[cs + lo..cs + hi].partition_point(|&x| x < t)
    }

    /// Counts the elements at positions `[a, b)` whose value is smaller than
    /// `t`. O(log n) with the default parameters. This is the 2-d range
    /// counting query of §4.2 (distinct counts) and §4.4 (rank functions).
    ///
    /// ```
    /// use holistic_core::{MergeSortTree, MstParams};
    ///
    /// let vals: Vec<u32> = vec![5, 1, 4, 2, 3];
    /// let tree = MergeSortTree::<u32>::build(&vals, MstParams::new(2, 1));
    /// // Among positions [1, 4) — values {1, 4, 2} — two are smaller than 4:
    /// assert_eq!(tree.count_below(1, 4, 4), 2);
    /// // Empty and clamped ranges are fine:
    /// assert_eq!(tree.count_below(3, 3, 9), 0);
    /// assert_eq!(tree.count_below(0, 100, 6), 5);
    /// ```
    pub fn count_below(&self, a: usize, b: usize, t: I) -> usize {
        let mut total = 0usize;
        self.decompose_below(a, b, t, None, |_, _, pos| total += pos);
        total
    }

    /// [`Self::count_below`] over a set of disjoint ranges (frames with
    /// exclusion holes, §4.7).
    pub fn count_below_multi(&self, ranges: &RangeSet, t: I) -> usize {
        ranges.iter().map(|(a, b)| self.count_below(a, b, t)).sum()
    }

    /// Decomposes the position range `[a, b)` into covering runs, invoking
    /// `visit(level, run_start, pos_of_t_in_run)` for every run that is fully
    /// contained in the query range. The visited `pos` values are the per-run
    /// lower bounds of `t`; their sum is `count_below`.
    ///
    /// With a `seed` (see [`ProbeSeed`]) the top-level search and the search
    /// in each partial child (one the frame cuts into) gallop from where the
    /// previous probe's ended. Every search returns the same position for
    /// every seed, so the visit sequence is the unseeded one.
    pub(crate) fn decompose_below(
        &self,
        a: usize,
        b: usize,
        t: I,
        mut seed: Option<&mut ProbeSeed>,
        mut visit: impl FnMut(usize, usize, usize),
    ) {
        let b = b.min(self.n);
        if a >= b {
            return;
        }
        let top = self.levels.len() - 1;
        let top_pos = match seed.as_deref_mut() {
            Some(s) => {
                if s.edges.len() < top {
                    s.edges = vec![[(usize::MAX, 0); 2]; top];
                }
                s.top = gallop_partition_point(self.top_keys(), s.top, |&x| x < t);
                s.top
            }
            None => self.top_keys().partition_point(|&x| x < t),
        };
        self.descend_below(top, 0, a, b, t, top_pos, seed, &mut visit);
    }

    /// Visits the covered positions of a *partial* level-1 run by scanning the
    /// contiguous base keys directly. The children are singletons, so each
    /// cascaded refinement degenerates to one comparison; the scan produces
    /// the same visits in the same order with the same per-singleton counts —
    /// bit-identical — while skipping up to `2 · fanout` sampled-pointer loads
    /// per boundary.
    #[inline]
    fn scan_leaves(&self, a: usize, b: usize, t: I, visit: &mut impl FnMut(usize, usize, usize)) {
        let keys0 = self.keys(0);
        for (p, &k) in keys0.iter().enumerate().take(b).skip(a) {
            visit(0, p, usize::from(k < t));
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn descend_below<V: FnMut(usize, usize, usize)>(
        &self,
        level: usize,
        run: usize,
        a: usize,
        b: usize,
        t: I,
        pos: usize,
        mut seed: Option<&mut ProbeSeed>,
        visit: &mut V,
    ) {
        let (rs, re) = self.levels[level].run_bounds(run, self.n);
        debug_assert!(rs <= a && b <= re);
        if a == rs && b == re {
            visit(level, rs, pos);
            return;
        }
        debug_assert!(level > 0, "partial overlap impossible on singleton runs");
        if level == 1 {
            self.scan_leaves(a, b, t, visit);
            return;
        }
        let child_len = self.levels[level - 1].run_len;
        // The children holding `a` and `b - 1` may be partial; every child
        // between them is covered.
        let (ca, cb) = ((a - rs) / child_len, (b - 1 - rs) / child_len);
        let edge = |c: usize, mut seed: Option<&mut ProbeSeed>, visit: &mut V| {
            let cs = rs + c * child_len;
            let ce = (cs + child_len).min(re);
            let (lo, hi) = (a.max(cs), b.min(ce));
            if lo == cs && hi == ce {
                visit(level - 1, cs, self.cascade(level, run, pos, c, t));
            } else if level == 2 {
                // A partial level-1 child is scanned: it needs no position.
                self.scan_leaves(lo, hi, t, visit);
            } else {
                // A partial child holds a frame edge: the start when the
                // frame cuts into it from the left, else its last row.
                let run_c = cs / child_len;
                let memo =
                    seed.as_deref_mut().map(|s| &mut s.edges[level - 1][usize::from(lo == cs)]);
                let cpos = match memo.as_deref() {
                    Some(&(r, p)) if r == run_c => {
                        gallop_partition_point(&self.keys(level - 1)[cs..ce], p, |&x| x < t)
                    }
                    _ => self.cascade(level, run, pos, c, t),
                };
                if let Some(m) = memo {
                    *m = (run_c, cpos);
                }
                self.descend_below(level - 1, run_c, lo, hi, t, cpos, seed, visit);
            }
        };
        edge(ca, seed.as_deref_mut(), visit);
        for c in ca + 1..cb {
            visit(level - 1, rs + c * child_len, self.cascade(level, run, pos, c, t));
        }
        if cb > ca {
            edge(cb, seed, visit);
        }
    }

    /// Finds the level-0 position of the `j`-th element (0-based) whose
    /// *value* lies within the given half-open value ranges, or `None` if
    /// fewer than `j + 1` elements qualify.
    ///
    /// Qualifying elements are enumerated in *level-0 position order*. This is
    /// exactly §4.5's "the j-th index pointing into the frame": the tree is
    /// built over a permutation array sorted by the inner ORDER BY, so array
    /// position order *is* rank order, values are original row positions, and
    /// the frame is a value range. The returned position is the rank of the
    /// selected row; `perm[rank]` recovers the row itself.
    ///
    /// ```
    /// use holistic_core::{MergeSortTree, MstParams, RangeSet};
    ///
    /// // §4.5 use case: perm[rank] = original row, sorted by some inner key.
    /// let perm: Vec<u32> = vec![3, 0, 4, 1, 2];
    /// let tree = MergeSortTree::<u32>::build(&perm, MstParams::new(2, 1));
    /// // Rows (= values) in the frame [1, 4) sit at positions 0, 3, 4
    /// // (values 3, 1, 2). Select the j-th in position order:
    /// let frame = RangeSet::single(1, 4);
    /// assert_eq!(tree.select(&frame, 0), Some(0));
    /// assert_eq!(tree.select(&frame, 2), Some(4));
    /// assert_eq!(tree.select(&frame, 3), None); // only 3 rows qualify
    /// ```
    pub fn select(&self, ranges: &RangeSet, j: usize) -> Option<usize> {
        if self.n == 0 {
            return None;
        }
        let top = self.levels.len() - 1;
        let top_data = self.keys(top);
        // Per-range (lower, upper) positions within the current run; frames
        // decompose into at most MAX_RANGES pieces, so fixed-size scratch
        // keeps the probe loop allocation-free.
        let mut bounds = [(0usize, 0usize); MAX_RANGES];
        for (ri, (lo, hi)) in ranges.iter().enumerate() {
            bounds[ri] = (
                top_data.partition_point(|&x| x.to_usize() < lo),
                top_data.partition_point(|&x| x.to_usize() < hi),
            );
        }
        let nr = ranges.len();
        let total: usize = bounds[..nr].iter().map(|&(l, h)| h - l).sum();
        if j >= total {
            return None;
        }
        let mut j = j;
        let mut level = self.levels.len() - 1;
        let mut run = 0usize;
        while level > 0 {
            let lvl = &self.levels[level];
            let (rs, re) = lvl.run_bounds(run, self.n);
            if level == 1 {
                // Leaf fast path: singleton children contribute 0 or 1 per
                // value range, so the cascaded per-range counts degenerate to
                // direct membership tests on the contiguous base keys. Same
                // enumeration order, no sampled-pointer loads.
                let keys0 = self.keys(0);
                for (p, &k) in keys0.iter().enumerate().take(re).skip(rs) {
                    let v = k.to_usize();
                    let mut cnt = 0usize;
                    for ri in 0..nr {
                        let (lo_v, hi_v) = ranges.nth(ri);
                        cnt += usize::from(v >= lo_v && v < hi_v);
                    }
                    if j < cnt {
                        return Some(p);
                    }
                    j -= cnt;
                }
                debug_assert!(false, "select descent lost the target");
                return None;
            }
            let child_len = self.levels[level - 1].run_len;
            let mut found = false;
            let mut scratch = [(0usize, 0usize); MAX_RANGES];
            for c in 0..self.params.fanout {
                let cs = rs + c * child_len;
                if cs >= re {
                    break;
                }
                let mut cnt = 0usize;
                for ri in 0..nr {
                    let (blo, bhi) = bounds[ri];
                    let (lo_v, hi_v) = ranges.nth(ri);
                    let pl = self.cascade(level, run, blo, c, I::from_usize(lo_v));
                    let ph = self.cascade(level, run, bhi, c, I::from_usize(hi_v));
                    cnt += ph - pl;
                    scratch[ri] = (pl, ph);
                }
                if j < cnt {
                    bounds = scratch;
                    run = cs / child_len;
                    level -= 1;
                    found = true;
                    break;
                }
                j -= cnt;
            }
            debug_assert!(found, "select descent lost the target");
            if !found {
                return None;
            }
        }
        // Level 0: singleton run.
        Some(run)
    }

    /// Convenience: select within a single value range `[lo, hi)`.
    pub fn select_in_range(&self, lo: usize, hi: usize, j: usize) -> Option<usize> {
        self.select(&RangeSet::single(lo, hi), j)
    }

    /// Level-invariant cascade state for the block kernels. The scalar
    /// descent re-derives level metadata and re-slices the arena inside every
    /// [`Self::cascade`] call — unavoidable when each query walks its own
    /// recursion — but a level-synchronous sweep touches one level at a time,
    /// so the block kernels hoist all of it here once per level and run the
    /// cascades against pre-resolved slices.
    fn cascade_ctx(&self, level: usize) -> CascadeCtx<'_, I> {
        let lvl = &self.levels[level];
        let child = &self.levels[level - 1];
        let k = self.params.sampling;
        CascadeCtx {
            child_keys: self.keys(level - 1),
            ptrs: self.ptr_slab(level),
            run_len: lvl.run_len,
            child_run_len: child.run_len,
            ratio: lvl.run_len / child.run_len,
            samples_per_run: lvl.samples_per_run,
            fanout: self.params.fanout,
            sampling: k,
            samp_shift: if k.is_power_of_two() { Some(k.trailing_zeros()) } else { None },
            n: self.n,
        }
    }

    /// Top searches for a block: rank of every threshold in the top run. The
    /// identity fast path computes the rank arithmetically; sampled tops
    /// search the cache-resident samples, then one `≤ stride` window; tops too
    /// small to sample run the lockstep binary searches. All three produce
    /// `partition_point(|&x| x < thr)` exactly.
    fn top_ranks(&self, scratch: &mut BlockScratch<I>) {
        scratch.tops.resize(scratch.thr.len(), 0);
        if self.identity_top {
            for (o, &t) in scratch.tops.iter_mut().zip(scratch.thr.iter()) {
                *o = t.to_usize().min(self.n);
            }
            return;
        }
        let keys = self.keys(self.levels.len() - 1);
        if self.top_samples.is_empty() {
            batched_partition_points(keys, &scratch.thr, &mut scratch.tops);
            return;
        }
        let stride = TOP_SAMPLE_STRIDE;
        for (o, &t) in scratch.tops.iter_mut().zip(scratch.thr.iter()) {
            let si = self.top_samples.partition_point(|&x| x < t);
            // `samples[si-1] = keys[(si-1)·stride] < t ≤ keys[si·stride]`,
            // so the rank lies in `((si-1)·stride, si·stride]`.
            let lo = if si > 0 { (si - 1) * stride + 1 } else { 0 };
            let hi = (si * stride).min(self.n);
            *o = lo + keys[lo..hi].partition_point(|&x| x < t);
        }
    }

    /// Block-batched [`Self::count_below`]: answers a whole block of `(a, b,
    /// t)` queries level-synchronously. Per level, the pending queries'
    /// cascades run back to back against one set of pre-resolved slices and
    /// are independent of each other, so their key-line misses overlap; a
    /// fragment wider than half its run is counted through its complement,
    /// and runs of at most `SCAN_WIDTH` elements are scanned instead of
    /// descended.
    ///
    /// Each query performs the exact decomposition and cascade sequence of
    /// [`Self::count_below`]; per-query counts are order-independent integer
    /// sums, so results are bit-identical to the scalar path.
    pub fn count_below_block(
        &self,
        queries: &[(usize, usize, I)],
        out: &mut [usize],
        scratch: &mut BlockScratch<I>,
    ) {
        debug_assert_eq!(queries.len(), out.len());
        scratch.stats.block_calls += 1;
        scratch.stats.block_queries += queries.len() as u64;
        out.fill(0);
        if self.n == 0 || queries.is_empty() {
            return;
        }
        let top = self.levels.len() - 1;

        scratch.thr.clear();
        scratch.thr.extend(queries.iter().map(|&(_, _, t)| t));
        self.top_ranks(scratch);

        // Seed one task per clamped non-empty query; whole-tree queries are
        // answered by the top search alone.
        let tasks = &mut scratch.cnt_cur;
        let next = &mut scratch.cnt_next;
        tasks.clear();
        let (rs_top, re_top) = self.levels[top].run_bounds(0, self.n);
        for (q, &(a, b, _)) in queries.iter().enumerate() {
            let b = b.min(self.n);
            if a >= b {
                continue;
            }
            if a == rs_top && b == re_top {
                out[q] = scratch.tops[q];
            } else {
                tasks.push(CountTask {
                    run: 0,
                    a,
                    b,
                    pos: scratch.tops[q],
                    q: q as u32,
                    neg: false,
                });
            }
        }

        let mut level = top;
        while level >= 1 && !tasks.is_empty() {
            if level == 1 || self.levels[level].run_len <= SCAN_WIDTH {
                // Residual tasks are narrower than their run, and the run is
                // narrow enough that a contiguous base-key scan beats two
                // more levels of scattered cascade searches: the compares
                // vectorize and the lines stream. The scan counts the same
                // `k < thr` memberships the cascades would have summed, so
                // the (integer) totals are bit-identical.
                let keys0 = self.keys(0);
                let lvl = &self.levels[level];
                let below = |a: usize, b: usize, thr: I| {
                    let mut c = 0usize;
                    for &k in &keys0[a..b] {
                        c += usize::from(k < thr);
                    }
                    c
                };
                for t in tasks.iter() {
                    let thr = queries[t.q as usize].2;
                    let (rs, re) = lvl.run_bounds(t.run, self.n);
                    // A fragment's count is also `t.pos` (the rank of the
                    // threshold in the *whole* run) minus the complement's
                    // count, so only the shorter side is ever scanned.
                    let c = if t.b - t.a <= (t.a - rs) + (re - t.b) {
                        below(t.a, t.b, thr)
                    } else {
                        t.pos - below(rs, t.a, thr) - below(t.b, re, thr)
                    };
                    let o = &mut out[t.q as usize];
                    *o = if t.neg { o.wrapping_sub(c) } else { o.wrapping_add(c) };
                }
                break;
            }
            next.clear();
            let ctx = self.cascade_ctx(level);
            let child_len = ctx.child_run_len;
            for t in tasks.iter() {
                let rs = t.run * ctx.run_len;
                let re = (rs + ctx.run_len).min(self.n);
                let thr = queries[t.q as usize].2;
                // A fragment spanning more than half its run flips to its
                // complement — `count(frag) = t.pos − count(complement)`
                // with `t.pos` (the threshold's whole-run rank) already in
                // hand — so the cascades walk whichever side overlaps
                // fewer children.
                let flip = 2 * (t.b - t.a) > re - rs;
                let pieces = if flip { [(rs, t.a), (t.b, re)] } else { [(t.a, t.b), (0, 0)] };
                let neg = t.neg ^ flip;
                if flip {
                    let o = &mut out[t.q as usize];
                    *o = if t.neg { o.wrapping_sub(t.pos) } else { o.wrapping_add(t.pos) };
                }
                for &(pa, pb) in &pieces {
                    if pa >= pb {
                        continue;
                    }
                    for c in (pa - rs) / child_len..=(pb - 1 - rs) / child_len {
                        let cs = rs + c * child_len;
                        let ce = (cs + child_len).min(re);
                        let lo = pa.max(cs);
                        let hi = pb.min(ce);
                        let cpos = ctx.cascade_linear(t.run, t.pos, c, thr);
                        if lo == cs && hi == ce {
                            let o = &mut out[t.q as usize];
                            *o = if neg { o.wrapping_sub(cpos) } else { o.wrapping_add(cpos) };
                        } else {
                            next.push(CountTask {
                                run: cs / child_len,
                                a: lo,
                                b: hi,
                                pos: cpos,
                                q: t.q,
                                neg,
                            });
                        }
                    }
                }
            }
            std::mem::swap(tasks, next);
            level -= 1;
        }
    }

    /// Block-batched [`Self::select`]: answers a block of `(ranges, j)`
    /// queries level-synchronously with the same top searches as
    /// [`Self::count_below_block`], then one walk over the children per query
    /// and level, and a member countdown over the base keys once runs are at
    /// most `SCAN_WIDTH` wide. Every query walks the exact cascade-and-count
    /// sequence of the scalar descent, so the selected positions are
    /// bit-identical.
    pub fn select_block(
        &self,
        queries: &[(RangeSet, usize)],
        out: &mut [Option<usize>],
        scratch: &mut BlockScratch<I>,
    ) {
        debug_assert_eq!(queries.len(), out.len());
        scratch.stats.block_calls += 1;
        scratch.stats.block_queries += queries.len() as u64;
        out.fill(None);
        if self.n == 0 || queries.is_empty() {
            return;
        }
        let top = self.levels.len() - 1;

        // Top searches: two value-bound probes per frame piece, flattened
        // across the block (pieces per query vary).
        scratch.thr.clear();
        for (ranges, _) in queries {
            for (lo, hi) in ranges.iter() {
                scratch.thr.push(I::from_usize(lo));
                scratch.thr.push(I::from_usize(hi));
            }
        }
        self.top_ranks(scratch);

        let tasks = &mut scratch.sel_cur;
        let next = &mut scratch.sel_next;
        tasks.clear();
        let mut off = 0usize;
        for (q, (ranges, j)) in queries.iter().enumerate() {
            let nr = ranges.len();
            let mut bounds = [(0usize, 0usize); MAX_RANGES];
            let mut total = 0usize;
            for (ri, b) in bounds.iter_mut().enumerate().take(nr) {
                *b = (scratch.tops[off + 2 * ri], scratch.tops[off + 2 * ri + 1]);
                total += b.1 - b.0;
            }
            off += 2 * nr;
            if *j < total {
                tasks.push(SelTask { run: 0, bounds, j: *j, q: q as u32 });
            }
        }

        let mut level = top;
        while level > 1 && !tasks.is_empty() && self.levels[level].run_len > SCAN_WIDTH {
            next.clear();
            let ctx = self.cascade_ctx(level);
            let child_len = ctx.child_run_len;
            for t in tasks.iter() {
                let rs = t.run * ctx.run_len;
                let re = (rs + ctx.run_len).min(self.n);
                let nc = (re - rs).div_ceil(child_len).min(ctx.fanout);
                let (ranges, _) = &queries[t.q as usize];
                let nr = ranges.len();
                let mut vb = [(0usize, 0usize); MAX_RANGES];
                for (ri, b) in vb.iter_mut().enumerate().take(nr) {
                    *b = ranges.nth(ri);
                }
                // Walk the children left to right, counting each one's
                // members through both bounds' cascades, down to the child
                // that holds the `j`-th member.
                let mut j = t.j;
                let mut found = false;
                let child_cnt = |c: usize, refs: &mut [(usize, usize); MAX_RANGES]| {
                    let mut cnt = 0usize;
                    for ri in 0..nr {
                        let (blo, bhi) = t.bounds[ri];
                        let (lo_v, hi_v) = vb[ri];
                        let pl = ctx.cascade(t.run, blo, c, I::from_usize(lo_v));
                        let ph = ctx.cascade(t.run, bhi, c, I::from_usize(hi_v));
                        cnt += ph - pl;
                        refs[ri] = (pl, ph);
                    }
                    cnt
                };
                let mut refs = [(0usize, 0usize); MAX_RANGES];
                for c in 0..nc {
                    let cnt = child_cnt(c, &mut refs);
                    if j < cnt {
                        next.push(SelTask { run: t.run * ctx.ratio + c, bounds: refs, j, q: t.q });
                        found = true;
                        break;
                    }
                    j -= cnt;
                }
                debug_assert!(found, "select descent lost the target");
                let _ = found; // lost targets leave `out[q]` at None
            }
            std::mem::swap(tasks, next);
            level -= 1;
        }
        if level >= 1 {
            // Membership scans over the residual runs: once a run is
            // [`SCAN_WIDTH`]-narrow, counting members in position order over
            // the contiguous base keys beats further cascade descents (and at
            // `level == 1` it is exactly the scalar leaf fast path). The
            // countdown runs a chunk at a time — whole-chunk member counts
            // are branchless (vectorizable), and only the chunk containing
            // the `j`-th member is rescanned position by position. Position
            // order is the descent's child order, so the selected position is
            // bit-identical.
            let lvl = &self.levels[level];
            let keys0 = self.keys(0);
            // The `j`-th member from the left is the `total-1-j`-th from the
            // right (`total` = this run's member count, from the refined
            // bounds) — the countdown starts from whichever end is nearer,
            // halving the expected scan.
            for t in tasks.iter() {
                let (rs, re) = lvl.run_bounds(t.run, self.n);
                let total: usize = t.bounds.iter().map(|b| b.1 - b.0).sum();
                let (ranges, _) = &queries[t.q as usize];
                let nr = ranges.len();
                let mut vb = [(0usize, 0usize); MAX_RANGES];
                for (ri, b) in vb.iter_mut().enumerate().take(nr) {
                    *b = ranges.nth(ri);
                }
                // Monomorphize the countdown per membership test: the
                // single-range predicate (two compares, no inner loop) is the
                // common case and must vectorize; the multi-piece fallback
                // keeps the general loop.
                let res = if nr == 1 {
                    // Compare in the key's native width: u32 keys pack twice
                    // the SIMD lanes of a usize-widened compare.
                    let (lo_i, hi_i) = (I::from_usize(vb[0].0), I::from_usize(vb[0].1));
                    select_scan(keys0, rs, re, t.j, total, |k: I| {
                        usize::from(k >= lo_i && k < hi_i)
                    })
                } else {
                    select_scan(keys0, rs, re, t.j, total, |k: I| {
                        let v = k.to_usize();
                        let mut m = 0usize;
                        for &(lo_v, hi_v) in vb.iter().take(nr) {
                            m += usize::from(v >= lo_v && v < hi_v);
                        }
                        m
                    })
                };
                if let Some(p) = res {
                    out[t.q as usize] = Some(p);
                }
            }
        } else {
            // Height-1 tree (n ≤ 1): `j < total` already proved membership of
            // the single element, which sits at position 0.
            for t in tasks.iter() {
                out[t.q as usize] = Some(0);
            }
        }
    }

    /// Total number of stored elements across all levels (memory accounting,
    /// §5.1/§6.6).
    pub fn stored_elements(&self) -> usize {
        self.levels.len() * self.n
    }

    /// Total number of stored cascading pointers.
    pub fn stored_pointers(&self) -> usize {
        self.levels.last().map(|m| m.ptrs.end()).unwrap_or(0)
    }

    /// Number of levels (including the base level).
    pub fn height(&self) -> usize {
        self.levels.len()
    }

    /// Size in bytes of the single backing allocation (keys region plus
    /// pointer slabs). Metadata (`LevelMeta` table) is O(height) and excluded.
    pub fn arena_bytes(&self) -> usize {
        self.arena.len() * std::mem::size_of::<I>()
    }

    /// Internal: the per-level metadata table (for in-crate structure tests).
    #[cfg(test)]
    pub(crate) fn level_meta(&self) -> &[LevelMeta] {
        &self.levels
    }
}

/// Run-width cutoff below which the block kernels answer residual tasks by a
/// contiguous scan of the base keys instead of further cascade descents. A
/// boundary fragment inside a `≤ SCAN_WIDTH`-element run costs at most that
/// many vectorizable compares over streamed lines, which beats one scattered
/// pointer-chase per `fanout`-wide child across the remaining levels. Counts
/// are integer sums and selections follow position order either way, so
/// results stay bit-identical to the scalar descent.
const SCAN_WIDTH: usize = 2048;

/// Chunk size of the select scan's branchless member countdown.
const SCAN_CHUNK: usize = 64;

/// The chunked member countdown of one residual select task: scans the run
/// `[rs, re)` of the base keys from whichever end is nearer to the `j0`-th
/// member (of `total`), counting whole [`SCAN_CHUNK`]s branchlessly and
/// rescanning only the chunk containing the target. Generic over the
/// membership predicate so each range-shape monomorphizes (and vectorizes)
/// separately; position order matches the scalar descent, so the returned
/// position is bit-identical.
#[inline(always)]
fn select_scan<I: TreeIndex>(
    keys0: &[I],
    rs: usize,
    re: usize,
    j0: usize,
    total: usize,
    member: impl Fn(I) -> usize,
) -> Option<usize> {
    if 2 * j0 < total {
        let mut j = j0;
        let mut p = rs;
        while p < re {
            let pe = (p + SCAN_CHUNK).min(re);
            let cnt: usize = keys0[p..pe].iter().map(|&k| member(k)).sum();
            if j < cnt {
                for (pp, &k) in keys0[p..pe].iter().enumerate() {
                    let m = member(k);
                    if j < m {
                        return Some(p + pp);
                    }
                    j -= m;
                }
                return None;
            }
            j -= cnt;
            p = pe;
        }
        None
    } else {
        let mut j = total - 1 - j0;
        let mut p = re;
        while p > rs {
            let ps = p.saturating_sub(SCAN_CHUNK).max(rs);
            let cnt: usize = keys0[ps..p].iter().map(|&k| member(k)).sum();
            if j < cnt {
                for (pp, &k) in keys0[ps..p].iter().enumerate().rev() {
                    let m = member(k);
                    if j < m {
                        return Some(ps + pp);
                    }
                    j -= m;
                }
                return None;
            }
            j -= cnt;
            p = ps;
        }
        None
    }
}

/// One level's pre-resolved cascade state (see [`MergeSortTree::cascade_ctx`]).
struct CascadeCtx<'a, I> {
    child_keys: &'a [I],
    ptrs: &'a [I],
    run_len: usize,
    child_run_len: usize,
    /// Children per full run: `run_len / child_run_len`.
    ratio: usize,
    samples_per_run: usize,
    fanout: usize,
    sampling: usize,
    /// `log2(sampling)` when the stride is a power of two — replaces the
    /// per-cascade integer division with a shift.
    samp_shift: Option<u32>,
    n: usize,
}

impl<I: TreeIndex> CascadeCtx<'_, I> {
    /// The sample slot of `pos`: `pos / sampling`, as a shift when possible.
    #[inline(always)]
    fn slot(&self, pos: usize) -> usize {
        match self.samp_shift {
            Some(s) => pos >> s,
            None => pos / self.sampling,
        }
    }

    /// Exactly [`MergeSortTree::cascade`] with the level state pre-resolved:
    /// same pointer window, same `partition_point`, bit-identical result.
    #[inline(always)]
    fn cascade(&self, run: usize, pos: usize, c: usize, t: I) -> usize {
        let cs = (run * self.ratio + c) * self.child_run_len;
        let ce = (cs + self.child_run_len).min(self.n);
        let base = (run * self.samples_per_run + self.slot(pos)) * self.fanout + c;
        let lo = self.ptrs[base].to_usize();
        let hi = self.ptrs[base + self.fanout].to_usize().min(ce - cs);
        debug_assert!(lo <= hi);
        lo + self.child_keys[cs + lo..cs + hi].partition_point(|&x| x < t)
    }

    /// [`Self::cascade`] with the landing-window search replaced by a
    /// branchless linear count — bit-identical on the sorted window (the
    /// count of keys `< t` *is* the partition point). The window is at most
    /// `sampling + 1` contiguous keys, so the count kernel trades the
    /// dependent-probe binary search for vectorizable compares; the select
    /// walk, which cascades two bounds per child and stops at its exit child,
    /// measured faster on the probe version.
    #[inline(always)]
    fn cascade_linear(&self, run: usize, pos: usize, c: usize, t: I) -> usize {
        let cs = (run * self.ratio + c) * self.child_run_len;
        let ce = (cs + self.child_run_len).min(self.n);
        let base = (run * self.samples_per_run + self.slot(pos)) * self.fanout + c;
        let lo = self.ptrs[base].to_usize();
        let hi = self.ptrs[base + self.fanout].to_usize().min(ce - cs);
        debug_assert!(lo <= hi);
        let mut cnt = 0usize;
        for &x in &self.child_keys[cs + lo..cs + hi] {
            cnt += usize::from(x < t);
        }
        lo + cnt
    }
}

/// A pending partial node of one block count query: covers `[a, b)` of `run`
/// at the current level, with `pos` the lower bound of query `q`'s threshold
/// within that run.
#[derive(Debug, Clone, Copy)]
struct CountTask {
    run: usize,
    a: usize,
    b: usize,
    pos: usize,
    q: u32,
    /// Complement-flipped tasks *subtract* from their query's total (the
    /// flip added `pos`, the whole-run rank, up front). Totals are exact
    /// integers, so transiently-wrapping sums stay bit-identical.
    neg: bool,
}

/// The single active node of one block select query: per-piece value-bound
/// positions within `run`, and the remaining in-frame rank `j` to locate.
#[derive(Debug, Clone, Copy)]
struct SelTask {
    run: usize,
    bounds: [(usize, usize); MAX_RANGES],
    j: usize,
    q: u32,
}

/// Counters of the block-batched probe kernels ([`MergeSortTree::count_below_block`],
/// [`MergeSortTree::select_block`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockStats {
    /// Kernel invocations (one per query block).
    pub block_calls: u64,
    /// Queries answered across all invocations.
    pub block_queries: u64,
}

impl BlockStats {
    /// Adds `other`'s counters into `self`.
    pub fn merge_from(&mut self, other: &BlockStats) {
        self.block_calls += other.block_calls;
        self.block_queries += other.block_queries;
    }
}

/// Reusable scratch for the block-batched probe kernels: task lists, lockstep
/// search buffers, and accumulated [`BlockStats`]. Buffers grow to the block
/// size on first use and are reused across calls, keeping the kernels
/// allocation-free in steady state.
#[derive(Debug)]
pub struct BlockScratch<I: TreeIndex> {
    /// Counters accumulated across every kernel call on this scratch.
    pub stats: BlockStats,
    thr: Vec<I>,
    tops: Vec<usize>,
    cnt_cur: Vec<CountTask>,
    cnt_next: Vec<CountTask>,
    sel_cur: Vec<SelTask>,
    sel_next: Vec<SelTask>,
}

impl<I: TreeIndex> BlockScratch<I> {
    /// Creates empty scratch.
    pub fn new() -> Self {
        BlockScratch {
            stats: BlockStats::default(),
            thr: Vec::new(),
            tops: Vec::new(),
            cnt_cur: Vec::new(),
            cnt_next: Vec::new(),
            sel_cur: Vec::new(),
            sel_next: Vec::new(),
        }
    }
}

impl<I: TreeIndex> Default for BlockScratch<I> {
    fn default() -> Self {
        Self::new()
    }
}

/// Stride of the top-run sample vector (see `MergeSortTree::top_samples`).
const TOP_SAMPLE_STRIDE: usize = 64;

/// Every [`TOP_SAMPLE_STRIDE`]-th top-run key; empty when the top is the
/// identity (ranks are a clamp there) or too small to matter.
fn sample_top<I: TreeIndex>(top_keys: &[I], identity: bool) -> Vec<I> {
    if identity || top_keys.len() <= 2 * TOP_SAMPLE_STRIDE {
        return Vec::new();
    }
    top_keys.iter().copied().step_by(TOP_SAMPLE_STRIDE).collect()
}

/// Whether `top_keys` (the sorted top run) is exactly `0, 1, …, n-1`.
fn top_is_identity<I: TreeIndex>(top_keys: &[I], n: usize) -> bool {
    top_keys.len() == n && top_keys.iter().enumerate().all(|(i, &k)| k.to_usize() == i)
}

/// Lockstep batched `partition_point(|&x| x < thr[i])` over one shared sorted
/// slice: all searches share the same probe-depth schedule (the interval
/// length shrinks identically regardless of comparison outcomes), and the
/// searches of one depth are independent of each other.
fn batched_partition_points<I: TreeIndex>(keys: &[I], thr: &[I], out: &mut [usize]) {
    debug_assert_eq!(thr.len(), out.len());
    out.fill(0);
    let n = keys.len();
    if n == 0 {
        return;
    }
    // Invariant: the answer for query i lies in [out[i], out[i] + len].
    let mut len = n;
    while len > 1 {
        let half = len / 2;
        for (base, &t) in out.iter_mut().zip(thr) {
            if keys[*base + half - 1] < t {
                *base += half;
            }
        }
        len -= half;
    }
    for (base, &t) in out.iter_mut().zip(thr) {
        *base += usize::from(keys[*base] < t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn brute_count_below(vals: &[u32], a: usize, b: usize, t: u32) -> usize {
        let b = b.min(vals.len());
        if a >= b {
            return 0;
        }
        vals[a..b].iter().filter(|&&v| v < t).count()
    }

    fn brute_select(vals: &[u32], lo: usize, hi: usize, j: usize) -> Option<usize> {
        // j-th qualifying element in POSITION order.
        vals.iter()
            .enumerate()
            .filter(|(_, &v)| (v as usize) >= lo && (v as usize) < hi)
            .map(|(i, _)| i)
            .nth(j)
    }

    #[test]
    fn figure1_distinct_count() {
        // prevIdcs of Figure 1 in shifted encoding (0 = none).
        let prev: Vec<u32> = vec![0, 0, 2, 1, 0, 3, 5, 4];
        let tree = MergeSortTree::<u32>::build(&prev, MstParams::new(2, 1));
        // Frame [3, 8): entries < 3+1 = 4.
        assert_eq!(tree.count_below(3, 8, 4), 3);
        // Whole input: 3 distinct values (entries < 0+1).
        assert_eq!(tree.count_below(0, 8, 1), 3);
    }

    #[test]
    fn empty_and_singleton_trees() {
        let tree = MergeSortTree::<u32>::build(&[], MstParams::default());
        assert_eq!(tree.count_below(0, 0, 5), 0);
        assert!(tree.is_empty());
        assert!(tree.select_in_range(0, 10, 0).is_none());
        assert_eq!(tree.arena_bytes(), 0);

        let tree = MergeSortTree::<u32>::build(&[7], MstParams::default());
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.count_below(0, 1, 8), 1);
        assert_eq!(tree.count_below(0, 1, 7), 0);
        assert_eq!(tree.select_in_range(7, 8, 0), Some(0));
        assert_eq!(tree.select_in_range(7, 8, 1), None);
    }

    #[test]
    fn height_matches_fanout() {
        let vals: Vec<u32> = (0..100).collect();
        let t2 = MergeSortTree::<u32>::build(&vals, MstParams::new(2, 4));
        assert_eq!(t2.height(), 8); // 2^7 = 128 >= 100
        let t32 = MergeSortTree::<u32>::build(&vals, MstParams::new(32, 4));
        assert_eq!(t32.height(), 3); // 32^2 >= 100
    }

    #[test]
    fn count_below_random_many_params() {
        let mut rng = StdRng::seed_from_u64(42);
        for &(f, k) in &[(2, 1), (2, 3), (4, 2), (8, 32), (32, 32), (5, 7)] {
            for _ in 0..8 {
                let n = rng.gen_range(0..300);
                let vals: Vec<u32> = (0..n).map(|_| rng.gen_range(0..50)).collect();
                let tree = MergeSortTree::<u32>::build(&vals, MstParams::new(f, k));
                for _ in 0..40 {
                    let a = rng.gen_range(0..=n);
                    let b = rng.gen_range(0..=n);
                    let t = rng.gen_range(0..55);
                    assert_eq!(
                        tree.count_below(a, b, t),
                        brute_count_below(&vals, a, b.min(n), t),
                        "n={n} f={f} k={k} a={a} b={b} t={t}"
                    );
                }
            }
        }
    }

    #[test]
    fn select_random_many_params() {
        let mut rng = StdRng::seed_from_u64(43);
        for &(f, k) in &[(2, 1), (3, 2), (8, 32), (32, 32)] {
            for _ in 0..8 {
                let n = rng.gen_range(1..250);
                // Values are a permutation (the §4.5 use case).
                let mut vals: Vec<u32> = (0..n as u32).collect();
                for i in (1..n).rev() {
                    vals.swap(i, rng.gen_range(0..=i));
                }
                let tree = MergeSortTree::<u32>::build(&vals, MstParams::new(f, k));
                for _ in 0..40 {
                    let lo = rng.gen_range(0..=n);
                    let hi = rng.gen_range(0..=n);
                    let j = rng.gen_range(0..n + 2);
                    assert_eq!(
                        tree.select_in_range(lo, hi, j),
                        brute_select(&vals, lo, hi, j),
                        "n={n} f={f} k={k} lo={lo} hi={hi} j={j}"
                    );
                }
            }
        }
    }

    #[test]
    fn select_with_duplicate_values() {
        // Qualifying elements enumerate in position order.
        let vals: Vec<u32> = vec![5, 3, 5, 3, 5];
        let tree = MergeSortTree::<u32>::build(&vals, MstParams::new(2, 1));
        for j in 0..5 {
            assert_eq!(tree.select_in_range(3, 6, j), Some(j));
        }
        assert_eq!(tree.select_in_range(5, 6, 1), Some(2));
        assert_eq!(tree.select_in_range(3, 4, 1), Some(3));
        assert_eq!(tree.select_in_range(3, 4, 2), None);
    }

    #[test]
    fn select_multi_range() {
        let vals: Vec<u32> = (0..20).rev().collect(); // 19, 18, ..., 0
        let tree = MergeSortTree::<u32>::build(&vals, MstParams::new(4, 2));
        // Value ranges [2,5) and [10,12): qualifying values 11,10,4,3,2 appear
        // at positions 8, 9, 15, 16, 17 (value v sits at position 19 - v).
        let rs = RangeSet::from_ranges(&[(2, 5), (10, 12)]);
        let positions: Vec<Option<usize>> = (0..6).map(|j| tree.select(&rs, j)).collect();
        assert_eq!(positions, vec![Some(8), Some(9), Some(15), Some(16), Some(17), None]);
    }

    #[test]
    fn count_below_multi_sums_ranges() {
        let vals: Vec<u32> = vec![1, 9, 2, 8, 3, 7, 4, 6, 5, 0];
        let tree = MergeSortTree::<u32>::build(&vals, MstParams::new(2, 2));
        let rs = RangeSet::from_ranges(&[(0, 3), (6, 9)]);
        let brute: usize = [0..3usize, 6..9usize]
            .iter()
            .flat_map(|r| vals[r.clone()].iter())
            .filter(|&&v| v < 5)
            .count();
        assert_eq!(tree.count_below_multi(&rs, 5), brute);
    }

    #[test]
    fn u64_tree_matches_u32_tree() {
        let mut rng = StdRng::seed_from_u64(44);
        let n = 200;
        let vals32: Vec<u32> = (0..n).map(|_| rng.gen_range(0..100)).collect();
        let vals64: Vec<u64> = vals32.iter().map(|&v| v as u64).collect();
        let t32 = MergeSortTree::<u32>::build(&vals32, MstParams::default());
        let t64 = MergeSortTree::<u64>::build(&vals64, MstParams::default());
        for a in (0..n as usize).step_by(17) {
            for t in (0..100).step_by(13) {
                assert_eq!(
                    t32.count_below(a, n as usize, t as u32),
                    t64.count_below(a, n as usize, t as u64)
                );
            }
        }
    }

    #[test]
    fn serial_equals_parallel_build() {
        let mut rng = StdRng::seed_from_u64(45);
        let vals: Vec<u32> = (0..5000).map(|_| rng.gen_range(0..1000)).collect();
        let tp = MergeSortTree::<u32>::build(&vals, MstParams::new(8, 8));
        let ts = MergeSortTree::<u32>::build(&vals, MstParams::new(8, 8).serial());
        for lvl in 0..tp.height() {
            assert_eq!(tp.keys(lvl), ts.keys(lvl), "level {lvl} keys");
            assert_eq!(tp.ptr_slab(lvl), ts.ptr_slab(lvl), "level {lvl} ptrs");
        }
    }

    #[test]
    fn levels_are_sorted_run_permutations() {
        let mut rng = StdRng::seed_from_u64(46);
        let vals: Vec<u32> = (0..777).map(|_| rng.gen_range(0..100)).collect();
        let tree = MergeSortTree::<u32>::build(&vals, MstParams::new(4, 8));
        let mut sorted_all = vals.clone();
        sorted_all.sort_unstable();
        for lvl in 0..tree.height() {
            let meta = tree.level_meta()[lvl];
            let keys = tree.keys(lvl);
            // Each level is a permutation of the input.
            let mut level_sorted = keys.to_vec();
            level_sorted.sort_unstable();
            assert_eq!(level_sorted, sorted_all);
            // Each run is sorted.
            let mut r = 0;
            while r * meta.run_len < vals.len() {
                let (s, e) = meta.run_bounds(r, vals.len());
                assert!(keys[s..e].windows(2).all(|w| w[0] <= w[1]));
                r += 1;
            }
        }
        // Top level is fully sorted.
        assert_eq!(tree.keys(tree.height() - 1), &sorted_all[..]);
    }

    #[test]
    fn arena_is_one_allocation_with_level_major_layout() {
        let vals: Vec<u32> = (0..300).map(|i| (i * 37) % 97).collect();
        let tree = MergeSortTree::<u32>::build(&vals, MstParams::new(4, 4));
        // Keys region: levels stored back-to-back, n elements each; the base
        // level is the input itself.
        assert_eq!(tree.keys(0), &vals[..]);
        assert_eq!(tree.arena_bytes(), (tree.stored_elements() + tree.stored_pointers()) * 4);
        // Pointer slabs are contiguous and non-overlapping in level order.
        let metas = tree.level_meta();
        assert_eq!(metas[0].ptrs.len, 0);
        for w in 1..metas.len() {
            assert_eq!(metas[w].ptrs.off, metas[w - 1].ptrs.end());
        }
    }

    #[test]
    fn seeded_visit_order_matches_unseeded() {
        // Order-sensitive downstream combines (float aggregates) require the
        // seeded descent to emit the exact visit sequence of the unseeded
        // one; equal sequences also mean equal counts (the sum of the
        // positions). The seed must come back as the top-level lower bound.
        let mut rng = StdRng::seed_from_u64(51);
        for &(f, k) in &[(2, 1), (3, 2), (4, 2), (8, 8), (8, 32), (32, 32), (5, 7)] {
            let n = rng.gen_range(1..400usize);
            let vals: Vec<u32> = (0..n).map(|_| rng.gen_range(0..64)).collect();
            let tree = MergeSortTree::<u32>::build(&vals, MstParams::new(f, k));
            let mut seed = ProbeSeed::default();
            let check = |a: usize, b: usize, t: u32, seed: &mut ProbeSeed| {
                let mut unseeded = Vec::new();
                tree.decompose_below(a, b, t, None, |l, s, p| unseeded.push((l, s, p)));
                let mut seeded = Vec::new();
                tree.decompose_below(a, b, t, Some(&mut *seed), |l, s, p| seeded.push((l, s, p)));
                assert_eq!(seeded, unseeded, "f={f} k={k} a={a} b={b} t={t}");
                if a < b.min(n) {
                    assert_eq!(seed.top, tree.top_keys().partition_point(|&x| x < t));
                }
            };
            // A monotonic sweep (the galloping case), then random jumps,
            // some from a seed past the end.
            let (mut a, mut b) = (0usize, 0usize);
            for i in 0..n {
                a = a.max(i.saturating_sub(7));
                b = b.max(i + 1).min(n);
                check(a, b, a as u32 + 1, &mut seed);
            }
            for _ in 0..200 {
                if rng.gen_bool(0.1) {
                    seed.top = usize::MAX;
                }
                let (a, b, t) =
                    (rng.gen_range(0..=n), rng.gen_range(0..=n + 2), rng.gen_range(0..70));
                check(a, b, t, &mut seed);
            }
        }
    }

    #[test]
    fn block_count_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(60);
        let param_set = [
            MstParams::new(2, 1),
            MstParams::new(4, 2),
            MstParams::new(8, 32),
            MstParams::new(32, 32),
            MstParams::new(5, 7),
        ];
        for params in param_set {
            for _ in 0..4 {
                let n = rng.gen_range(0..400);
                let vals: Vec<u32> = (0..n).map(|_| rng.gen_range(0..90)).collect();
                let tree = MergeSortTree::<u32>::build(&vals, params);
                let mut scratch = BlockScratch::new();
                let mut calls = 0u64;
                let mut total = 0u64;
                for &bs in &[1usize, 3, 8, 17, 64] {
                    let queries: Vec<(usize, usize, u32)> = (0..bs)
                        .map(|_| {
                            (
                                rng.gen_range(0..=n as usize),
                                rng.gen_range(0..=n as usize + 2),
                                rng.gen_range(0..95),
                            )
                        })
                        .collect();
                    let mut out = vec![0usize; bs];
                    tree.count_below_block(&queries, &mut out, &mut scratch);
                    calls += 1;
                    total += bs as u64;
                    for (qi, &(a, b, t)) in queries.iter().enumerate() {
                        assert_eq!(out[qi], tree.count_below(a, b, t), "n={n} a={a} b={b} t={t}");
                    }
                }
                assert_eq!(scratch.stats, BlockStats { block_calls: calls, block_queries: total });
            }
        }
    }

    #[test]
    fn block_select_matches_scalar() {
        let mut rng = StdRng::seed_from_u64(61);
        let param_set = [
            MstParams::new(2, 1),
            MstParams::new(3, 2),
            MstParams::new(8, 32),
            MstParams::new(32, 32),
        ];
        for params in param_set {
            for _ in 0..4 {
                let n = rng.gen_range(1..300);
                let mut perm: Vec<u32> = (0..n as u32).collect();
                for i in (1..n).rev() {
                    perm.swap(i, rng.gen_range(0..=i));
                }
                let tree = MergeSortTree::<u32>::build(&perm, params);
                let mut scratch = BlockScratch::new();
                for &bs in &[1usize, 5, 8, 19, 64] {
                    let queries: Vec<(RangeSet, usize)> = (0..bs)
                        .map(|_| {
                            let i = rng.gen_range(0..n);
                            let lo = i.saturating_sub(20);
                            let hi = (i + 20).min(n);
                            let rs = if rng.gen_range(0..2) == 0 {
                                RangeSet::single(lo, hi.max(lo + 1))
                            } else {
                                RangeSet::frame_minus_holes(lo, hi, &[(i, (i + 1).min(hi))])
                            };
                            (rs, rng.gen_range(0..45))
                        })
                        .collect();
                    let mut out = vec![None; bs];
                    tree.select_block(&queries, &mut out, &mut scratch);
                    for (qi, (rs, j)) in queries.iter().enumerate() {
                        assert_eq!(out[qi], tree.select(rs, *j), "n={n} j={j}");
                    }
                }
            }
        }
    }

    #[test]
    fn block_kernels_on_tiny_and_empty_trees() {
        let empty = MergeSortTree::<u32>::build(&[], MstParams::default());
        let mut scratch = BlockScratch::new();
        let mut out = vec![7usize; 2];
        empty.count_below_block(&[(0, 5, 3), (0, 0, 0)], &mut out, &mut scratch);
        assert_eq!(out, vec![0, 0]);
        let mut sel = vec![Some(9usize); 1];
        empty.select_block(&[(RangeSet::single(0, 4), 0)], &mut sel, &mut scratch);
        assert_eq!(sel, vec![None]);

        let one = MergeSortTree::<u32>::build(&[3], MstParams::default());
        let mut out = vec![0usize; 3];
        one.count_below_block(&[(0, 1, 4), (0, 1, 3), (0, 9, 4)], &mut out, &mut scratch);
        assert_eq!(out, vec![1, 0, 1]);
        let mut sel = vec![None; 2];
        one.select_block(
            &[(RangeSet::single(3, 4), 0), (RangeSet::single(0, 3), 0)],
            &mut sel,
            &mut scratch,
        );
        assert_eq!(sel, vec![Some(0), None]);
    }

    #[test]
    fn memory_accounting_matches_formula() {
        // §5.1: ⌈log_f n⌉·n data elements above... including base level the
        // tree stores (height)·n elements; pointer count ≈ (height−1)·n·f/k.
        let n = 4096usize;
        let vals: Vec<u32> = (0..n as u32).collect();
        let (f, k) = (4, 8);
        let tree = MergeSortTree::<u32>::build(&vals, MstParams::new(f, k));
        assert_eq!(tree.stored_elements(), tree.height() * n);
        let expected_ptrs: usize = (1..tree.height())
            .map(|lvl| {
                let run_len = f.pow(lvl as u32);
                let runs = n.div_ceil(run_len);
                (0..runs)
                    .map(|r| {
                        let len = ((r + 1) * run_len).min(n) - r * run_len;
                        (len / k + 2) * f
                    })
                    .sum::<usize>()
            })
            .sum();
        assert_eq!(tree.stored_pointers(), expected_ptrs);
    }

    #[test]
    fn build_spilled_is_bit_identical_to_build() {
        let mut rng = StdRng::seed_from_u64(71);
        for &(f, k) in &[(2, 1), (4, 2), (8, 32), (32, 32), (5, 7)] {
            for &n in &[2usize, 17, 255, 1000] {
                let params = MstParams::new(f, k);
                let vals: Vec<u32> = (0..n).map(|_| rng.gen_range(0..200)).collect();
                let reference = MergeSortTree::<u32>::build(&vals, params);
                let (shell, mut arena) =
                    MergeSortTree::<u32>::build_spilled(&vals, params).unwrap();
                assert_eq!(arena.total_elements(), mst_arena_len(n, params));
                assert_eq!(shell.arena_bytes(), reference.arena_bytes());
                let tree = MergeSortTree::from_shell(shell, arena.fault().unwrap());
                // The slabs are bit-identical, so every probe agrees too.
                assert_eq!(tree.arena, reference.arena, "f={f} k={k} n={n}");
                for _ in 0..50 {
                    let a = rng.gen_range(0..=n);
                    let b = rng.gen_range(0..=n);
                    let t = rng.gen_range(0..210);
                    assert_eq!(tree.count_below(a, b, t), reference.count_below(a, b, t));
                }
            }
        }
    }

    #[test]
    fn shell_roundtrip_is_exact() {
        let vals: Vec<u64> = (0..300u64).rev().collect();
        let params = MstParams::new(4, 2);
        let tree = MergeSortTree::<u64>::build(&vals, params);
        let identity_top = tree.identity_top;
        let samples = tree.top_samples.clone();
        let (shell, slab) = tree.into_shell();
        assert_eq!(shell.len(), 300);
        assert!(!shell.is_empty());
        let back = MergeSortTree::from_shell(shell, slab);
        assert_eq!(back.identity_top, identity_top);
        assert_eq!(back.top_samples, samples);
        assert_eq!(back.count_below(0, 300, 150), 150);
    }

    #[test]
    fn spilled_build_handles_tiny_inputs() {
        for n in 0..2usize {
            let params = MstParams::default();
            let vals: Vec<u32> = (0..n as u32).collect();
            let reference = MergeSortTree::<u32>::build(&vals, params);
            let (shell, mut arena) = MergeSortTree::<u32>::build_spilled(&vals, params).unwrap();
            let tree = MergeSortTree::from_shell(shell, arena.fault().unwrap());
            assert_eq!(tree.arena, reference.arena);
            assert_eq!(tree.count_below(0, n, 1), reference.count_below(0, n, 1));
        }
    }

    #[test]
    fn spill_build_len_is_below_arena_len() {
        // The out-of-core build's resident set must genuinely undercut the
        // full arena for any tree tall enough to spill.
        let params = MstParams::default();
        for &n in &[1000usize, 50_000] {
            assert!(mst_spill_build_len(n, params) < mst_arena_len(n, params));
        }
    }

    #[test]
    fn spilled_build_holds_no_more_than_its_stated_footprint() {
        // The governor charges `mst_spill_build_len` for the build, so every
        // buffer the build allocates has to fit in it.
        for &(f, k) in &[(2, 1), (5, 7), (32, 32), (4, 64)] {
            for &n in &[0usize, 1, 2, 33, 1000, 50_000] {
                let params = MstParams::new(f, k);
                let vals: Vec<u32> =
                    (0..n as u32).map(|i| i.wrapping_mul(2654435761) % 1000).collect();
                let (_, _, resident) =
                    MergeSortTree::<u32>::build_spilled_measured(&vals, params).unwrap();
                assert!(
                    resident <= mst_spill_build_len(n, params),
                    "f={f} k={k} n={n}: held {resident} elements"
                );
            }
        }
    }
}
