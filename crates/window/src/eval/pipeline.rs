//! The per-partition pipeline (the paper's §5.2, Figure 14): sort, resolve
//! frames, choose a strategy per call, build, probe — and the segment batch
//! every [`Strategy::Naive`] call is evaluated over.
//!
//! [`PartitionEval`] is the one place that knows how a partition is
//! evaluated. [`PartitionEval::prepare`] sorts a partition, resolves its
//! frames and chooses a strategy per call; [`PartitionEval::finish`] runs the
//! calls. A naive call never runs per partition: [`PartitionEval::evaluate_naive`]
//! evaluates it once over a [`SegmentBatch`] — one of the batch executor's
//! batches of partitions whose calls all chose naive, or one partition as a
//! batch of one segment. The append engine calls [`PartitionEval::prepare`]
//! and [`PartitionEval::finish`] for every partition it recomputes, and
//! [`PartitionEval::choose`] when asked for its strategy decisions.
//! Query-level key hoisting, which both run in front of it, is
//! [`hoist_keys`].

use crate::artifacts::{governed_floor, ArtifactCache, ArtifactKey, BudgetGovernor};
use crate::column::Outputs;
use crate::error::{Error, Result};
use crate::eval::{evaluate_call, Ctx};
use crate::executor::{tree_params, AtomicProbeKernel, CacheStats, ExecOptions, WindowQuery};
use crate::frame::{resolve_frames, FrameExclusion, ResolvedFrames};
use crate::order::{sort_permutation, KeyColumns};
use crate::plan::{canonical_order, sort_keys_of, Criteria, OrderKey, QueryPlan};
use crate::spec::WindowSpec;
use crate::strategy::{choose_fitting, CostModel, PartitionStats, Strategy};
use crate::table::Table;
use rustc_hash::FxHashMap;
use std::mem::size_of;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// The most rows one partition may hold. Every tree, code and position an
/// evaluator reads is a `u32`: a partition's shifted prevIdcs take `m + 1`
/// values and a threshold one more, and `u32::MAX` is the trees' sentinel.
const MAX_PARTITION_ROWS: usize = u32::MAX as usize - 2;

/// Refuses a partition of more than [`MAX_PARTITION_ROWS`] rows: the one
/// size guard of the pipeline, which every partition passes through
/// ([`PartitionEval::prepare`]), an append's recomputed ones included.
fn check_rows(m: usize) -> Result<()> {
    if m > MAX_PARTITION_ROWS {
        return Err(Error::Unsupported(format!(
            "a partition of {m} rows (at most {MAX_PARTITION_ROWS}: positions are 32-bit)"
        )));
    }
    Ok(())
}

/// Query-level ORDER BY key columns by canonical criteria list: the window
/// order plus every planned inner order. Key columns cover the full table
/// and are mask-independent, so one evaluation serves all partitions — and
/// a naive call, which has no cache to share through.
pub(crate) type HoistedKeys = FxHashMap<Criteria, Arc<KeyColumns>>;

/// Evaluates the window ORDER BY and, unless the table is empty (no work, no
/// error), every call's inner ORDER BY criterion that `hoisted` does not
/// hold yet. Returns the window ORDER BY key columns.
pub(crate) fn hoist_keys(
    table: &Table,
    spec: &WindowSpec,
    plan: &QueryPlan,
    hoisted: &mut HoistedKeys,
) -> Result<Arc<KeyColumns>> {
    let window_order = canonical_order(&spec.order_by);
    let window_keys = match hoisted.get(&window_order) {
        Some(kc) => Arc::clone(kc),
        None => {
            let kc = Arc::new(KeyColumns::evaluate(table, &spec.order_by)?);
            if !window_order.is_empty() {
                hoisted.insert(window_order, Arc::clone(&kc));
            }
            kc
        }
    };
    if table.num_rows() > 0 {
        for cp in &plan.calls {
            if let Some(OrderKey::Keys(ks)) = &cp.order {
                if !hoisted.contains_key(ks) {
                    let kc = Arc::new(KeyColumns::evaluate(table, &sort_keys_of(ks))?);
                    hoisted.insert(Arc::clone(ks), kc);
                }
            }
        }
    }
    Ok(window_keys)
}

/// Sorted partitions concatenated in partition order: segment `s` is the
/// positions `starts[s]..starts[s + 1]`, and its frames are its partition's
/// shifted by `starts[s]`. A frame never leaves its segment, so an array
/// built over the whole batch — values, mask, dense codes, prevIdcs —
/// answers every frame as the partition's own would; only the arms that
/// read beyond a frame look up the segment ([`Ctx::segment`]).
pub(crate) struct SegmentBatch {
    pub rows: Vec<usize>,
    pub frames: ResolvedFrames,
    /// `0`, then the end of every segment.
    pub starts: Vec<usize>,
    /// Every segment's frames are monotonic, so the batch's are.
    pub monotonic: bool,
}

impl SegmentBatch {
    /// An empty batch of frames under `exclusion`.
    pub fn new(exclusion: FrameExclusion) -> Self {
        SegmentBatch {
            rows: Vec::new(),
            frames: ResolvedFrames {
                bounds: Vec::new(),
                exclusion,
                peer_start: Vec::new(),
                peer_end: Vec::new(),
            },
            starts: vec![0],
            monotonic: true,
        }
    }

    /// One partition as a batch of one segment, its frames kept whole.
    fn one(rows: Vec<usize>, frames: ResolvedFrames, monotonic: bool) -> Self {
        let starts = vec![0, rows.len()];
        SegmentBatch { rows, frames, starts, monotonic }
    }

    /// Appends a prepared partition's rows and frames as the next segment.
    /// The peer bounds are copied exactly when the exclusion's holes read
    /// them, as [`resolve_frames`] keeps them.
    pub fn push(&mut self, Prepared { rows, frames, monotonic, .. }: &Prepared) {
        self.monotonic &= monotonic;
        let base = self.rows.len();
        self.rows.extend_from_slice(rows);
        self.frames.bounds.extend(frames.bounds.iter().map(|&(a, b)| (a + base, b + base)));
        if frames.exclusion.reads_peers() {
            self.frames.peer_start.extend(frames.peer_start.iter().map(|&p| p + base));
            self.frames.peer_end.extend(frames.peer_end.iter().map(|&p| p + base));
        }
        self.starts.push(self.rows.len());
    }

    /// No partition joined. A partition of no rows is still a segment, so
    /// its calls run and reject the arguments they reject anywhere.
    pub fn is_empty(&self) -> bool {
        self.starts.len() == 1
    }

    /// Drops every segment, keeping the buffers for the next ones.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.frames.bounds.clear();
        self.frames.peer_start.clear();
        self.frames.peer_end.clear();
        self.starts.truncate(1);
        self.monotonic = true;
    }
}

/// What evaluating one partition cost, as plain values: the executor adds
/// them to its profile when the partition finishes.
#[derive(Debug, Default)]
pub(crate) struct PartitionReport {
    /// Sort, frame resolution and every artifact build, as the caches timed
    /// them.
    pub build: Duration,
    /// Frame resolution alone (a sub-span of `build`).
    pub resolve: Duration,
    /// Call evaluation, the caches' artifact builds excluded.
    pub probe: Duration,
    /// Counters of every cache the evaluation used. All zero for an
    /// all-naive partition.
    pub cache: CacheStats,
    /// `(label, bytes)` per artifact built, drained from those caches.
    pub footprints: Vec<(&'static str, usize)>,
}

impl PartitionReport {
    /// Adds a cache's counters, footprints and build time.
    fn absorb(&mut self, cache: &ArtifactCache) {
        self.build += cache.build_time();
        self.cache.add(&cache.stats().snapshot());
        self.footprints.append(&mut cache.take_footprints());
    }
}

/// One partition in window order with its frames resolved and a strategy
/// chosen per call: everything but the calls' outputs.
pub(crate) struct Prepared {
    /// Table rows in window order (ties by table index).
    pub rows: Vec<usize>,
    /// Resolved frames over `rows`.
    pub frames: ResolvedFrames,
    /// [`PartitionStats::monotonic`] of the frames: when set, a sliding
    /// index visits the rows as they come, with no frame order to find.
    pub monotonic: bool,
    /// The strategy chosen per call.
    pub choices: Vec<Strategy>,
    pub report: PartitionReport,
}

impl Prepared {
    /// Every call chose [`Strategy::Naive`]: the partition needs no artifact
    /// cache and can be a segment of a batch.
    pub fn all_naive(&self) -> bool {
        self.choices.iter().all(|&s| s == Strategy::Naive)
    }
}

/// One evaluated partition.
pub(crate) struct PartitionOutput {
    pub part: Prepared,
    /// Each call's typed outputs, indexed by position.
    pub outs: Vec<Outputs>,
}

/// The query-level inputs of the per-partition pipeline.
pub(crate) struct PartitionEval<'a> {
    pub table: &'a Table,
    pub query: &'a WindowQuery,
    pub plan: &'a QueryPlan,
    pub opts: ExecOptions,
    /// Parallelism *inside* a partition (sort, builds, probe chunks).
    pub within: bool,
    pub window_keys: &'a KeyColumns,
    pub hoisted: &'a HoistedKeys,
    /// Charged by every cache the evaluation creates.
    pub gov: &'a Arc<BudgetGovernor>,
    /// Probe-kernel counters of every partition evaluated through `self`.
    pub kernel: AtomicProbeKernel,
}

impl PartitionEval<'_> {
    /// Picks a strategy per call of `plan`. A pure function of (mode, call
    /// class, frame stats, partition size, budget) — none of
    /// which depend on parallelism or sharing — so every engine
    /// configuration, and the append engine against a from-scratch run, makes
    /// identical choices.
    pub fn choose(plan: &QueryPlan, opts: ExecOptions, stats: &PartitionStats) -> Vec<Strategy> {
        // Under a budget, surcharge the MST's cost term by how hard this
        // partition's tree would press on it (spill writes + re-faults the
        // base model doesn't price), and pass over a strategy whose
        // governed bytes surely exceed the budget while naive, which charges
        // none, could run the call.
        let tree_bytes = |n| {
            (holistic_core::mst_arena_len(n, tree_params(opts.parallel)) * size_of::<u32>()) as u64
        };
        // With no budget there is no pressure, and no tree to size.
        let model = match opts.budget {
            None => CostModel::default(),
            budget => CostModel::default().under_memory_pressure(tree_bytes(stats.m), budget),
        };
        plan.calls
            .iter()
            .map(|cp| {
                // A FILTER may drop any share of the rows, so only its keep
                // flags count; a NULL screen is taken to drop none.
                let kept = if cp.mask.filter.is_some() { 0 } else { stats.m };
                let floor = |s| governed_floor(s, cp.class, stats.m, kept, tree_bytes(kept));
                let fits = |s| opts.budget.is_none_or(|b| floor(s) <= b);
                choose_fitting(opts.strategy, cp.class, stats, &model, fits)
            })
            .collect()
    }

    /// A fresh cache holding the hoisted key columns, so calls falling back
    /// to them never re-evaluate a criterion's expressions.
    fn seeded_cache(&self) -> ArtifactCache {
        let cache = ArtifactCache::new(Arc::clone(self.gov));
        for (ks, kc) in self.hoisted {
            cache.seed(ArtifactKey::InnerKeys(Arc::clone(ks)), Arc::clone(kc));
        }
        cache
    }

    fn ctx<'c>(
        &'c self,
        batch: &'c SegmentBatch,
        cache: Option<&'c ArtifactCache>,
        parallel: bool,
    ) -> Ctx<'c> {
        Ctx {
            table: self.table,
            rows: &batch.rows,
            frames: &batch.frames,
            starts: &batch.starts,
            parallel,
            cache,
            hoisted: self.hoisted,
            own_values: OnceLock::new(),
            own_mask: OnceLock::new(),
            kernel: &self.kernel,
            monotonic: batch.monotonic,
        }
    }

    /// Sorts `rows` (one partition, any order) into window order, resolves
    /// its frames and chooses a strategy per call. A partition too large for
    /// `u32` positions ([`check_rows`]) is refused here, before any work.
    pub fn prepare(&self, mut rows: Vec<usize>) -> Result<Prepared> {
        check_rows(rows.len())?;
        let mut report = PartitionReport::default();
        let build_start = Instant::now();
        sort_permutation(self.window_keys, &mut rows, self.within);
        let resolve_start = Instant::now();
        let frames = resolve_frames(self.table, &rows, self.window_keys, &self.query.spec.frame)?;
        report.resolve = resolve_start.elapsed();
        let stats = PartitionStats::from_frames(&frames);
        let choices = Self::choose(self.plan, self.opts, &stats);
        report.build = build_start.elapsed();
        Ok(Prepared { rows, frames, monotonic: stats.monotonic, choices, report })
    }

    /// Evaluates every call of a prepared partition. A naive call runs
    /// through [`Self::evaluate_naive`] over the partition as a batch of one
    /// segment, so a partition whose calls all chose naive touches no cache.
    /// With shared artifacts every other call builds into one fresh cache;
    /// without sharing each of them gets a private one. A call builds what
    /// it reads when it first asks; the time its caches spent building moves
    /// from the report's `probe` to its `build`. Every cache is dropped on
    /// return, and with it every charge to the governor.
    pub fn finish(&self, p: Prepared) -> Result<PartitionOutput> {
        let all_naive = p.all_naive();
        let Prepared { rows, frames, monotonic, choices, mut report } = p;
        let batch = SegmentBatch::one(rows, frames, monotonic);
        let start = Instant::now();
        let built_before = report.build;
        let shared = (!all_naive && self.opts.share_artifacts).then(|| self.seeded_cache());
        let mut outs: Vec<Outputs> = Vec::with_capacity(self.query.calls.len());
        for (ci, ((call, cp), &s)) in
            self.query.calls.iter().zip(&self.plan.calls).zip(&choices).enumerate()
        {
            if s == Strategy::Naive {
                outs.push(self.evaluate_naive(&batch, ci, self.within)?);
                continue;
            }
            // Without sharing, artifacts are still shared *within* the
            // call, never across calls.
            let private = shared.is_none().then(|| self.seeded_cache());
            let ctx = self.ctx(&batch, shared.as_ref().or(private.as_ref()), self.within);
            outs.push(evaluate_call(&ctx, call, cp, s)?);
            if let Some(private) = &private {
                report.absorb(private);
            }
        }
        if let Some(cache) = &shared {
            report.absorb(cache);
        }
        report.probe = start.elapsed().saturating_sub(report.build - built_before);
        let SegmentBatch { rows, frames, .. } = batch;
        Ok(PartitionOutput { part: Prepared { rows, frames, monotonic, choices, report }, outs })
    }

    /// Evaluates call `ci` with [`Strategy::Naive`] over every segment of
    /// `batch` at once, cacheless — the one place a naive call runs. Its
    /// values, mask and whatever its scan reads (dense codes, prevIdcs,
    /// hashes) are built once for the whole batch and die with the call;
    /// nothing is charged to the memory governor.
    pub fn evaluate_naive(
        &self,
        batch: &SegmentBatch,
        ci: usize,
        parallel: bool,
    ) -> Result<Outputs> {
        let (call, cp) = (&self.query.calls[ci], &self.plan.calls[ci]);
        evaluate_call(&self.ctx(batch, None, parallel), call, cp, Strategy::Naive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The guard at its boundary, without allocating a partition: the
    /// largest partition the trees' `u32` entries hold is the one that
    /// `fits_u32(m + 1)` admits, and one row more is a typed error.
    #[test]
    fn partition_size_guard_boundaries() {
        use holistic_core::index::fits_u32;
        assert!(check_rows(0).is_ok());
        assert!(check_rows(MAX_PARTITION_ROWS).is_ok());
        assert!(fits_u32(MAX_PARTITION_ROWS + 1));
        for m in [MAX_PARTITION_ROWS + 1, u32::MAX as usize, usize::MAX] {
            assert!(matches!(check_rows(m), Err(Error::Unsupported(_))), "{m} rows");
        }
        assert!(!fits_u32(MAX_PARTITION_ROWS + 2));
    }
}
