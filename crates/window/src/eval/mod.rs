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
//! partition for the tree and alternate arms, every partition of a naive
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
use crate::spec::{FuncKind, FunctionCall};
use crate::strategy::Strategy;
use crate::table::Table;
use crate::vm;
use holistic_core::{MstParams, RangeSet};
use pipeline::HoistedKeys;
use primitive::{CountBelow, Select};
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
    /// Parallel probing allowed.
    pub parallel: bool,
    /// Merge sort tree parameters.
    pub params: MstParams,
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

    /// The largest segment's size: what a guard on a partition's size reads.
    pub fn largest_segment(&self) -> usize {
        self.starts.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(0)
    }

    /// Evaluates an expression for every position (in window order) into a
    /// typed column.
    pub fn eval_positions(&self, expr: &crate::expr::Expr) -> Result<Column> {
        Ok(vm::eval(&expr.bind(self.table)?, self.table, vm::RowSel::Rows(self.rows))?.into_owned())
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
