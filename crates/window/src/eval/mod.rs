//! Window function evaluation over sorted partitions — the *probe* phase of
//! the plan → build → probe pipeline.
//!
//! Every family follows the paper's two-phase pattern: preprocessing
//! products (merge sort trees / segment trees / range trees) are built once
//! per partition — requested through the shared
//! [`crate::artifacts::ArtifactCache`] so structurally equal requests from
//! different calls coincide — then probed once per row, embarrassingly
//! parallel (§4.1). Evaluators receive their call's [`CallPlan`] — the
//! canonical sources its artifacts are made from — and the [`Strategy`]
//! chosen for it: each family is written once over the range
//! [`primitive`]s, and the strategy names the index that answers them.
//!
//! The positions an evaluator sees are a [`pipeline::SegmentBatch`]'s: one
//! partition for the tree and sliding arms, every partition of a naive
//! call at once for the scan arm. Frames never cross a segment, so only an
//! evaluator that reads beyond a frame asks where its segment is.

pub(crate) mod distinct;
pub(crate) mod distributive;
pub(crate) mod leadlag;
pub(crate) mod mode;
pub(crate) mod pipeline;
pub(crate) mod primitive;
pub(crate) mod rank;
pub(crate) mod select_based;

use crate::artifacts::{ArtifactCache, MaskArtifact};
use crate::column::{Column, Outputs};
use crate::error::{Error, Result};
use crate::executor::AtomicProbeKernel;
use crate::frame::ResolvedFrames;
use crate::plan::CallPlan;
use crate::remap::Remap;
use crate::spec::{FuncKind, FunctionCall};
use crate::strategy::Strategy;
use crate::table::Table;
use crate::vm;
use holistic_core::RangeSet;
use holistic_strategies::incremental::{in_frame_order, SlideOrder};
use pipeline::HoistedKeys;
use primitive::{CountBelow, Select};
use rustc_hash::FxHashSet;
use std::sync::{Arc, OnceLock};

/// Rows per block handed to the MST block kernels. Large enough to keep
/// dozens of independent cascade searches in flight per level, small enough
/// that the per-block query/count buffers stay cache-resident.
const PROBE_BLOCK: usize = 256;

/// Evaluation context of one segment batch: a sorted partition, or several
/// concatenated (a naive call's).
pub(crate) struct Ctx<'a> {
    /// The full table.
    pub table: &'a Table,
    /// Batch positions → table rows, each segment in window order.
    pub rows: &'a [usize],
    /// Resolved frames (per position), each inside its row's segment.
    pub frames: &'a ResolvedFrames,
    /// Segment boundaries: `0`, then the end of every segment.
    pub starts: &'a [usize],
    /// Parallel probing and tree builds allowed.
    pub parallel: bool,
    /// The partition's preprocessing-artifact cache. `None` evaluates one
    /// naive call cacheless: every artifact recipe builds into a plain `Arc`
    /// that dies with the call — no slot, key hash, footprint or governor
    /// charge.
    pub cache: Option<&'a ArtifactCache>,
    /// Query-level key columns, which a naive call reads directly (a cache
    /// is seeded with them).
    pub hoisted: &'a HoistedKeys,
    /// A naive call's values and mask, kept from their first request: its
    /// own recipes ask for them again, and without a cache nothing else
    /// would remember them.
    pub own_values: OnceLock<Arc<Column>>,
    /// See [`Self::own_values`].
    pub own_mask: OnceLock<Arc<MaskArtifact>>,
    /// Query-level probe-kernel counters; block scratches flush into it when
    /// their probe loop (or chunk) finishes.
    pub kernel: &'a AtomicProbeKernel,
    /// Both bounds of every frame non-decreasing position over position
    /// ([`crate::strategy::PartitionStats::monotonic`], decided once per
    /// partition): the rows are their own frame order.
    pub monotonic: bool,
}

/// Outcome of planning one row's block queries: either the row pushed
/// queries and `finish` computes its output from their results, or the row
/// resolved immediately (empty frame, dropped row, NULL argument).
pub(crate) enum Planned<S, T> {
    /// Queries pushed; carry per-row state to `finish`.
    Counted(S),
    /// Row resolved without consuming block-kernel results.
    Done(T),
}

impl<'a> Ctx<'a> {
    /// Batch size (the partition's, for one segment).
    pub fn m(&self) -> usize {
        self.rows.len()
    }

    /// `[start, end)` of the segment holding position `i`: its partition.
    pub fn segment(&self, i: usize) -> (usize, usize) {
        let s = segment_of(self.starts, i);
        (self.starts[s], self.starts[s + 1])
    }

    /// Evaluates an expression for every position (in window order) into a
    /// typed column.
    pub fn eval_positions(&self, expr: &crate::expr::Expr) -> Result<Column> {
        Ok(vm::eval(&expr.bind(self.table)?, self.table, vm::RowSel::Rows(self.rows))?.into_owned())
    }

    /// The chunk of `n` positions from `base` in the order a sliding index
    /// visits them ([`in_frame_order`] of their frames).
    pub fn frame_order(&self, base: usize, n: usize) -> SlideOrder {
        if self.monotonic {
            SlideOrder::Rows(0..n)
        } else {
            in_frame_order(n, |k| self.frames.bounds[base + k])
        }
    }

    /// The exclusion correction (§4.7) of the families that count distinct
    /// ids over a frame's hull — value ids (COUNT / SUM / AVG DISTINCT),
    /// smaller-key tie groups (DENSE_RANK): `visit` gets one kept
    /// position of every id that sits in row `i`'s holes and nowhere else in
    /// its frame, whose hull count holds it once too often. `id(k)` is kept
    /// position `k`'s id with the id's kept positions in ascending order, or
    /// `None` for a position the count leaves out. O(hole · log n) per row.
    pub fn hole_only_ids<'o>(
        &self,
        remap: &Remap,
        i: usize,
        id: impl Fn(usize) -> Option<(usize, &'o [usize])>,
        mut visit: impl FnMut(usize),
    ) {
        let (a, b) = self.frames.bounds[i];
        let pieces = remap.range_set(&self.frames.range_set(i));
        let mut seen = FxHashSet::default();
        for (h1, h2) in self.frames.holes(i).iter() {
            let (h1, h2) = (h1.max(a).min(b), h2.max(a).min(b));
            let (h1, h2) = remap.range(h1, h2.max(h1));
            for k in h1..h2 {
                let Some((id, occ)) = id(k) else { continue };
                if !seen.insert(id) {
                    continue;
                }
                let in_pieces = pieces.iter().any(|(lo, hi)| {
                    let idx = occ.partition_point(|&q| q < lo);
                    idx < occ.len() && occ[idx] < hi
                });
                if !in_pieces {
                    visit(k);
                }
            }
        }
    }

    /// Runs `f(scratch, i)` for every position `i`, in parallel when
    /// allowed, with one `S::default()` scratch per chunk.
    pub fn probe_with<S: Default, T, F>(&self, f: F) -> Result<Vec<T>>
    where
        T: Clone + Default + Send,
        F: Fn(&mut S, usize) -> Result<T> + Send + Sync,
    {
        self.run_chunked(|base, slots| {
            let mut scratch = S::default();
            for (off, slot) in slots.iter_mut().enumerate() {
                *slot = f(&mut scratch, base + off)?;
            }
            Ok(())
        })
    }

    /// Runs `f` for every position, in parallel when allowed.
    pub fn probe<T, F>(&self, f: F) -> Result<Vec<T>>
    where
        T: Clone + Default + Send,
        F: Fn(usize) -> Result<T> + Send + Sync,
    {
        self.probe_with(|(), i| f(i))
    }

    /// Count-probe driver: per row, `plan(i, push)` pushes `(pieces,
    /// threshold)` count queries against `index` (or resolves the row
    /// directly) and `finish(i, state, sum)` turns the summed counts into the
    /// row's output. How the queries are answered is the index's business
    /// ([`CountBelow::probe_chunk`]).
    pub fn probe_counts<C, S, T, P, F>(&self, index: &C, plan: P, finish: F) -> Result<Vec<T>>
    where
        C: CountBelow,
        S: Send,
        T: Clone + Default + Send,
        P: Fn(usize, &mut dyn FnMut(&RangeSet, usize)) -> Result<Planned<S, T>> + Send + Sync,
        F: Fn(usize, S, usize) -> Result<T> + Send + Sync,
    {
        self.run_chunked(|base, slots| index.probe_chunk(self, base, slots, &plan, &finish))
    }

    /// Select-probe driver: per row, `plan(i, push)` pushes `(pieces, j)`
    /// selection queries against `index` and `finish(i, state, results)`
    /// receives the row's selected ranks in push order (at most two per row:
    /// PERCENTILE_CONT's interpolation endpoints).
    pub fn probe_selects<X, S, T, P, F>(&self, index: &X, plan: P, finish: F) -> Result<Vec<T>>
    where
        X: Select,
        S: Send,
        T: Clone + Default + Send,
        P: Fn(usize, &mut dyn FnMut(RangeSet, usize)) -> Result<Planned<S, T>> + Send + Sync,
        F: Fn(usize, S, &[Option<usize>]) -> Result<T> + Send + Sync,
    {
        self.run_chunked(|base, slots| index.probe_chunk(self, base, slots, &plan, &finish))
    }

    /// Shared chunking of every probe driver: contiguous chunks of positions,
    /// one task per chunk when parallel probing is allowed, one chunk
    /// otherwise, with `body(chunk_base, chunk_slots)` filling each chunk.
    /// The slots are the call's typed per-position outputs (or what they are
    /// gathered from).
    fn run_chunked<T, B>(&self, body: B) -> Result<Vec<T>>
    where
        T: Clone + Default + Send,
        B: Fn(usize, &mut [T]) -> Result<()> + Send + Sync,
    {
        use rayon::prelude::*;
        let m = self.m();
        let mut out = vec![T::default(); m];
        if self.parallel && m >= 2048 {
            let chunk = m.div_ceil(rayon::current_num_threads()).max(2048);
            out.par_chunks_mut(chunk)
                .enumerate()
                .map(|(ci, slots)| body(ci * chunk, slots))
                .collect::<Result<()>>()?;
        } else {
            body(0, &mut out)?;
        }
        Ok(out)
    }
}

/// The row-at-a-time probe loop of one chunk, every index's but the merge
/// sort tree's: `row(i)` plans, answers and finishes position `i`, and
/// `slots[k]` is position `base + k`. The chunk's rows are visited in
/// `order`: a scan takes them as they come, a sliding index in frame order
/// ([`Ctx::frame_order`]), each answer placed by its row, so it moves each
/// bound one way, and frames that jitter about a trend (Fig. 12's) slide
/// about two positions each.
pub(crate) fn probe_rows<T>(
    base: usize,
    slots: &mut [T],
    order: SlideOrder,
    row: impl FnMut(usize) -> Result<T>,
) -> Result<()> {
    // One loop per kind of order, so rows taken as they come are a plain
    // loop.
    match order {
        SlideOrder::Rows(rows) => visit(rows, base, slots, row),
        SlideOrder::Sorted(rows) => visit(rows.map(|k| k as usize), base, slots, row),
    }
}

/// [`probe_rows`]' loop in the order `rows`.
fn visit<T>(
    rows: impl Iterator<Item = usize>,
    base: usize,
    slots: &mut [T],
    mut row: impl FnMut(usize) -> Result<T>,
) -> Result<()> {
    for k in rows {
        slots[k] = row(base + k)?;
    }
    Ok(())
}

/// One chunk of counts through [`probe_rows`]: each query a row pushes is
/// answered by `answer` as it is pushed, and the row finishes from the sum.
pub(crate) fn count_each<S, T, P, F>(
    base: usize,
    order: SlideOrder,
    slots: &mut [T],
    plan: &P,
    finish: &F,
    mut answer: impl FnMut(&RangeSet, usize) -> usize,
) -> Result<()>
where
    P: Fn(usize, &mut dyn FnMut(&RangeSet, usize)) -> Result<Planned<S, T>>,
    F: Fn(usize, S, usize) -> Result<T>,
{
    probe_rows(base, slots, order, |i| {
        let mut sum = 0;
        match plan(i, &mut |rs, t| sum += answer(rs, t))? {
            Planned::Done(v) => Ok(v),
            Planned::Counted(s) => finish(i, s, sum),
        }
    })
}

/// One chunk of selections through [`probe_rows`]; see [`count_each`].
pub(crate) fn select_each<S, T, P, F>(
    base: usize,
    order: SlideOrder,
    slots: &mut [T],
    plan: &P,
    finish: &F,
    mut answer: impl FnMut(&RangeSet, usize) -> Option<usize>,
) -> Result<()>
where
    P: Fn(usize, &mut dyn FnMut(RangeSet, usize)) -> Result<Planned<S, T>>,
    F: Fn(usize, S, &[Option<usize>]) -> Result<T>,
{
    probe_rows(base, slots, order, |i| {
        let (mut res, mut n) = ([None; 2], 0);
        let planned = plan(i, &mut |rs, j| {
            res[n] = answer(&rs, j);
            n += 1;
        })?;
        match planned {
            Planned::Done(v) => Ok(v),
            Planned::Counted(s) => finish(i, s, &res[..n]),
        }
    })
}

/// The merge sort tree's probe loop of one chunk: rows are planned
/// [`PROBE_BLOCK`] at a time into one flat query list, `answer` fills in a
/// result per query in the tree's block kernels, and every planned row
/// finishes from its own span of the results.
pub(crate) fn probe_blocks<Q, R: Copy + Default, S, T>(
    base: usize,
    slots: &mut [T],
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
        results.resize(queries.len(), R::default());
        answer(&queries, &mut results);
        for (li, qs, qe, s) in pending.drain(..) {
            slots[li] = finish(base + li, s, &results[qs..qe])?;
        }
    }
    Ok(())
}

/// Runs `f` on the context of one segment whose frames are `bounds`, with no
/// exclusion (so no peer groups), table, cache or parallelism, and frames not
/// known to be monotonic.
#[cfg(test)]
pub(crate) fn with_frames<R>(bounds: Vec<(usize, usize)>, f: impl FnOnce(&Ctx<'_>) -> R) -> R {
    let m = bounds.len();
    let exclusion = crate::frame::FrameExclusion::NoOthers;
    let (peer_start, peer_end) = (Vec::new(), Vec::new());
    let frames = ResolvedFrames { bounds, exclusion, peer_start, peer_end };
    let (table, rows) = (Table::empty(), (0..m).collect::<Vec<_>>());
    let (hoisted, kernel) = (HoistedKeys::default(), AtomicProbeKernel::default());
    f(&Ctx {
        table: &table,
        rows: &rows,
        frames: &frames,
        starts: &[0, m],
        parallel: false,
        cache: None,
        hoisted: &hoisted,
        own_values: OnceLock::new(),
        own_mask: OnceLock::new(),
        kernel: &kernel,
        monotonic: false,
    })
}

/// Dispatches a call to its family evaluator — the one place a call's kind
/// picks a family. The family picks the index `strategy` names
/// ([`primitive`]). Returns the typed per-position outputs.
pub(crate) fn evaluate_call(
    ctx: &Ctx<'_>,
    call: &FunctionCall,
    cp: &CallPlan,
    strategy: Strategy,
) -> Result<Outputs> {
    use FuncKind::*;
    match call.kind {
        // MIN / MAX (DISTINCT) are their plain forms.
        CountStar | Count | Sum | Avg if call.distinct => {
            distinct::evaluate(ctx, call, cp, strategy)
        }
        CountStar | Count | Sum | Avg | Min | Max => {
            distributive::evaluate(ctx, call, cp, strategy).map(Outputs::from)
        }
        RowNumber | Rank | PercentRank | CumeDist | Ntile => {
            rank::evaluate(ctx, call, cp, strategy).map(Outputs::from)
        }
        DenseRank => rank::evaluate_dense_rank(ctx, cp, strategy).map(Outputs::from),
        PercentileDisc | PercentileCont | Median | FirstValue | LastValue | NthValue => {
            select_based::evaluate(ctx, call, cp, strategy).map(Outputs::from)
        }
        Lead | Lag => leadlag::evaluate(ctx, call, cp, strategy),
        Mode => mode::evaluate(ctx, cp, strategy).map(Outputs::from),
    }
}

/// The index of the segment holding position `pos`, given the segment
/// boundaries `starts` (`0`, then every segment's end).
pub(crate) fn segment_of(starts: &[usize], pos: usize) -> usize {
    starts.partition_point(|&s| s <= pos) - 1
}

/// `PERCENTILE_DISC`'s 0-based rank among the `s >= 1` kept rows of a frame:
/// the first row whose cumulative distribution reaches `p`.
pub(crate) fn disc_rank(p: f64, s: usize) -> usize {
    ((p * s as f64).ceil() as usize).clamp(1, s) - 1
}

/// `PERCENTILE_CONT`'s row number `p * (s - 1)` among the `s >= 1` kept rows
/// of a frame: the two 0-based ranks it falls between and how far past the
/// lower one.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ContRank {
    pub lo: usize,
    pub hi: usize,
    frac: f64,
}

pub(crate) fn cont_rank(p: f64, s: usize) -> ContRank {
    let rn = p * (s - 1) as f64;
    let lo = rn.floor() as usize;
    ContRank { lo, hi: rn.ceil() as usize, frac: rn - lo as f64 }
}

impl ContRank {
    /// The interpolated value given the value `x` at `lo`; `y` yields the
    /// value at `hi` and is asked only when the ranks differ. Always a float,
    /// even on an exact rank hit over an integer key (SQL: double precision).
    pub fn interpolate(self, x: f64, y: impl FnOnce() -> f64) -> f64 {
        if self.lo == self.hi {
            x
        } else {
            x + (y() - x) * self.frac
        }
    }
}

/// `PERCENT_RANK` from the count of kept frame rows ordered strictly before
/// the current row (`rank - 1`) and the frame's `size >= 1` kept rows.
pub(crate) fn percent_rank(below: usize, size: usize) -> f64 {
    if size <= 1 {
        0.0
    } else {
        below as f64 / (size - 1) as f64
    }
}

/// `CUME_DIST` from the count of kept frame rows ordered at or before the
/// current row and the frame's `size >= 1` kept rows.
pub(crate) fn cume_dist(at_or_before: usize, size: usize) -> f64 {
    at_or_before as f64 / size as f64
}

/// The fraction in [0, 1] of a percentile call over the partition `rows`:
/// 0.5 for `MEDIAN`, otherwise the first argument, a constant expression
/// (`FunctionCall::validate` guarantees it reads no column).
pub(crate) fn fraction_arg(table: &Table, rows: &[usize], call: &FunctionCall) -> Result<f64> {
    if call.kind == FuncKind::Median {
        return Ok(0.5);
    }
    // Any row will do; use row 0 if there is none.
    let v = call.args[0].bind(table)?.eval(table, rows.first().copied().unwrap_or(0))?;
    match v.as_f64() {
        Some(f) if (0.0..=1.0).contains(&f) => Ok(f),
        _ => Err(Error::InvalidArgument(format!(
            "{}: fraction must be in [0, 1], got {v}",
            call.kind.name()
        ))),
    }
}
