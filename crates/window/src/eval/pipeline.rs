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
//! batch of one segment. The append engine calls [`PartitionEval::evaluate`]
//! for every partition it recomputes and asks it for the strategy choice
//! when it splices. Query-level key hoisting, which both run in front of it,
//! is [`hoist_keys`].

use crate::artifacts::{self, ArtifactCache, BudgetGovernor};
use crate::column::Outputs;
use crate::error::Result;
use crate::eval::{evaluate_call, Ctx};
use crate::executor::{AtomicProbeKernel, CacheStats, ExecOptions, WindowQuery};
use crate::frame::{resolve_frames, FrameExclusion, ResolvedFrames};
use crate::order::{sort_permutation, KeyColumns};
use crate::plan::{canonical_order, sort_keys_of, ArtifactKey, CanonicalSortKey, QueryPlan};
use crate::spec::WindowSpec;
use crate::strategy::{choose, CostModel, PartitionStats, StatsAcc, Strategy};
use crate::table::Table;
use rustc_hash::FxHashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Query-level ORDER BY key columns by canonical criteria list: the window
/// order plus every planned inner order. Key columns cover the full table
/// and are mask-independent, so one evaluation serves all partitions — and
/// a naive call, which has no cache to share through.
pub(crate) type HoistedKeys = FxHashMap<Vec<CanonicalSortKey>, Arc<KeyColumns>>;

/// Evaluates the window ORDER BY and, unless the table is empty (no work, no
/// error), every planned inner ORDER BY criterion that `hoisted` does not
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
        for key in &plan.prebuild {
            if let ArtifactKey::InnerKeys(ks) = key {
                if !hoisted.contains_key(ks) {
                    let kc = Arc::new(KeyColumns::evaluate(table, &sort_keys_of(ks))?);
                    hoisted.insert(ks.clone(), kc);
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
        }
    }

    /// One partition as a batch of one segment, its frames kept whole.
    fn one(rows: Vec<usize>, frames: ResolvedFrames) -> Self {
        let starts = vec![0, rows.len()];
        SegmentBatch { rows, frames, starts }
    }

    /// Appends a sorted partition and its frames as the next segment. The
    /// peer bounds are copied only under an exclusion clause, their one
    /// reader.
    pub fn push(&mut self, rows: &[usize], frames: &ResolvedFrames) {
        let base = self.rows.len();
        self.rows.extend_from_slice(rows);
        self.frames.bounds.extend(frames.bounds.iter().map(|&(a, b)| (a + base, b + base)));
        if frames.has_exclusion() {
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
    }
}

/// What evaluating one partition cost, as plain values: the executor adds
/// them to its profile when the partition finishes.
#[derive(Debug, Default)]
pub(crate) struct PartitionReport {
    /// Sort, frame resolution and eager artifact builds.
    pub build: Duration,
    /// Frame resolution alone (a sub-span of `build`).
    pub resolve: Duration,
    /// Call evaluation, lazy artifact builds included.
    pub probe: Duration,
    /// Counters of every cache the evaluation used (cumulative for a cache
    /// the caller owns). All zero for an all-naive partition.
    pub cache: CacheStats,
    /// `(label, bytes)` per artifact built, drained from those caches.
    pub footprints: Vec<(&'static str, usize)>,
}

impl PartitionReport {
    fn absorb(&mut self, cache: &ArtifactCache) {
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
    /// The frame statistics the choice was made from.
    pub acc: StatsAcc,
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
    /// Picks a strategy per call. A pure function of (mode, call class,
    /// frame stats, partition size, tree parameters, budget) — none of which
    /// depend on parallelism or sharing — so every engine configuration, and
    /// the append engine against a from-scratch run, makes identical choices.
    pub fn choose(&self, stats: &PartitionStats) -> Vec<Strategy> {
        // Under a budget, surcharge the MST's cost terms by how hard this
        // partition's tree would press on it (spill writes + re-faults the
        // base model doesn't price).
        let width = if holistic_core::index::fits_u32(stats.m + 1) { 4 } else { 8 };
        let est_tree_bytes =
            (holistic_core::mst_arena_len(stats.m, self.opts.params) * width) as u64;
        let model = CostModel::default().under_memory_pressure(est_tree_bytes, self.opts.budget);
        self.plan
            .calls
            .iter()
            .map(|cp| choose(self.opts.strategy, cp.class, stats, &model))
            .collect()
    }

    /// Hands `cache` the hoisted key columns, so calls falling back to them
    /// never re-evaluate a criterion's expressions.
    fn seed(&self, cache: &ArtifactCache) {
        for (ks, kc) in self.hoisted {
            cache.seed(ArtifactKey::InnerKeys(ks.clone()), Arc::clone(kc));
        }
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
            params: if parallel { self.opts.params } else { self.opts.params.serial() },
            cache,
            hoisted: self.hoisted,
            own_values: None,
            own_mask: None,
            kernel: &self.kernel,
        }
    }

    /// Sorts `rows` (one partition, any order) into window order, resolves
    /// its frames and chooses a strategy per call.
    pub fn prepare(&self, mut rows: Vec<usize>) -> Result<Prepared> {
        let mut report = PartitionReport::default();
        let build_start = Instant::now();
        sort_permutation(self.window_keys, &mut rows, self.within);
        let resolve_start = Instant::now();
        let frames = resolve_frames(self.table, &rows, self.window_keys, &self.query.spec.frame)?;
        report.resolve = resolve_start.elapsed();
        let mut acc = StatsAcc::new();
        acc.extend(&frames, 0);
        let choices = self.choose(&acc.stats());
        report.build = build_start.elapsed();
        Ok(Prepared { rows, frames, acc, choices, report })
    }

    /// [`Self::prepare`], then [`Self::finish`].
    pub fn evaluate(
        &self,
        rows: Vec<usize>,
        cache: Option<&ArtifactCache>,
    ) -> Result<PartitionOutput> {
        self.finish(self.prepare(rows)?, cache)
    }

    /// Evaluates every call of a prepared partition. A naive call runs
    /// through [`Self::evaluate_naive`] over the partition as a batch of one
    /// segment, so a partition whose calls all chose naive touches no cache.
    /// With shared artifacts every other call builds into `cache` — the
    /// caller's (which must hold nothing position-dependent, and keeps the
    /// hoisted key seeds afterwards) or, when `None`, a fresh one dropped on
    /// return. Without sharing each of them gets a private cache.
    pub fn finish(&self, p: Prepared, cache: Option<&ArtifactCache>) -> Result<PartitionOutput> {
        let all_naive = p.all_naive();
        let Prepared { rows, frames, acc, choices, mut report } = p;
        let batch = SegmentBatch::one(rows, frames);
        let build_start = Instant::now();
        let fresh;
        let shared: Option<&ArtifactCache> = match cache {
            _ if all_naive || !self.opts.share_artifacts => None,
            Some(cache) => Some(cache),
            None => {
                fresh = ArtifactCache::new(Arc::clone(self.gov));
                Some(&fresh)
            }
        };
        if let Some(cache) = shared {
            self.seed(cache);
            // Eager prebuild only for calls the MST actually serves;
            // alternates build lazily from the shared cache.
            let ctx = self.ctx(&batch, Some(cache), self.within);
            for (cp, &s) in self.plan.calls.iter().zip(&choices) {
                if s == Strategy::Mst {
                    for key in cp.keys.eager() {
                        artifacts::force(&ctx, &cp.keys, key)?;
                    }
                }
            }
        }
        report.build += build_start.elapsed();

        let probe_start = Instant::now();
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
            let private = shared.is_none().then(|| {
                let private = ArtifactCache::new(Arc::clone(self.gov));
                self.seed(&private);
                private
            });
            let ctx = self.ctx(&batch, shared.or(private.as_ref()), self.within);
            outs.push(evaluate_call(&ctx, call, cp, s)?);
            if let Some(private) = &private {
                report.absorb(private);
            }
        }
        report.probe = probe_start.elapsed();
        if let Some(cache) = shared {
            report.absorb(cache);
        }
        let SegmentBatch { rows, frames, .. } = batch;
        Ok(PartitionOutput { part: Prepared { rows, frames, acc, choices, report }, outs })
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
        let mut ctx = self.ctx(batch, None, parallel);
        ctx.hold_own(&cp.keys)?;
        evaluate_call(&ctx, call, cp, Strategy::Naive)
    }
}
