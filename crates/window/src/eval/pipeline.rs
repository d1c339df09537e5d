//! The per-partition pipeline (the paper's §5.2, Figure 14): sort, resolve
//! frames, choose a strategy per call, build, probe.
//!
//! [`PartitionEval`] is the one place that knows how a partition is
//! evaluated. The batch executor maps it over its partitions; the append
//! engine calls it for every partition it recomputes and asks it for the
//! strategy choice when it splices. Query-level key hoisting, which both run
//! in front of it, is [`hoist_keys`].

use crate::artifacts::{self, ArtifactCache, BudgetGovernor};
use crate::error::Result;
use crate::eval::{evaluate_call, Ctx};
use crate::executor::{AtomicProbeKernel, CacheStats, ExecOptions, WindowQuery};
use crate::frame::{resolve_frames, ResolvedFrames};
use crate::order::{sort_permutation, KeyColumns};
use crate::plan::{canonical_order, sort_keys_of, ArtifactKey, CanonicalSortKey, QueryPlan};
use crate::spec::WindowSpec;
use crate::strategy::{choose, CostModel, PartitionStats, StatsAcc, Strategy};
use crate::table::Table;
use crate::value::Value;
use rustc_hash::FxHashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Query-level ORDER BY key columns by canonical criteria list: the window
/// order plus every planned inner order. Key columns cover the full table
/// and are mask-independent, so one evaluation serves all partitions — and
/// a cacheless call, which has no cache to share through.
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

/// One evaluated partition.
pub(crate) struct PartitionOutput {
    /// Table rows in window order (ties by table index).
    pub rows: Vec<usize>,
    /// Resolved frames over `rows`.
    pub frames: ResolvedFrames,
    /// The frame statistics the choice was made from.
    pub acc: StatsAcc,
    /// The strategy chosen per call.
    pub choices: Vec<Strategy>,
    /// One output vector per call, indexed by position.
    pub outs: Vec<Vec<Value>>,
    pub report: PartitionReport,
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
        rows: &'c [usize],
        frames: &'c ResolvedFrames,
        cache: Option<&'c ArtifactCache>,
    ) -> Ctx<'c> {
        Ctx {
            table: self.table,
            rows,
            frames,
            parallel: self.within,
            params: if self.within { self.opts.params } else { self.opts.params.serial() },
            cache,
            hoisted: self.hoisted,
            own_values: None,
            own_mask: None,
            kernel: &self.kernel,
        }
    }

    /// Sorts `rows` (one partition, any order) into window order, resolves
    /// its frames, chooses a strategy per call and evaluates every call.
    ///
    /// With shared artifacts the calls build into `cache` — the caller's
    /// (which must hold nothing position-dependent, and keeps the hoisted
    /// key seeds afterwards) or, when `None`, a fresh one dropped on return.
    /// Without sharing every non-naive call gets a private cache. A
    /// [`Strategy::Naive`] call is evaluated cacheless, so a partition whose
    /// calls all chose it touches no cache at all.
    pub fn evaluate(
        &self,
        mut rows: Vec<usize>,
        cache: Option<&ArtifactCache>,
    ) -> Result<PartitionOutput> {
        let mut report = PartitionReport::default();
        let build_start = Instant::now();
        sort_permutation(self.window_keys, &mut rows, self.within);
        let resolve_start = Instant::now();
        let frames = resolve_frames(self.table, &rows, self.window_keys, &self.query.spec.frame)?;
        report.resolve = resolve_start.elapsed();
        let mut acc = StatsAcc::new();
        acc.extend(&frames, 0);
        let choices = self.choose(&acc.stats());

        let all_naive = choices.iter().all(|&s| s == Strategy::Naive);
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
            // alternates build lazily from the shared cache and a naive
            // call caches nothing.
            let ctx = self.ctx(&rows, &frames, Some(cache));
            for (cp, &s) in self.plan.calls.iter().zip(&choices) {
                if s == Strategy::Mst {
                    for key in cp.keys.eager() {
                        artifacts::force(&ctx, &cp.keys, key)?;
                    }
                }
            }
        }
        report.build = build_start.elapsed();

        let probe_start = Instant::now();
        let mut outs: Vec<Vec<Value>> = Vec::with_capacity(self.query.calls.len());
        for ((call, cp), &s) in self.query.calls.iter().zip(&self.plan.calls).zip(&choices) {
            // Without sharing, artifacts are still shared *within* the
            // call, never across calls.
            let private = (s != Strategy::Naive && shared.is_none()).then(|| {
                let private = ArtifactCache::new(Arc::clone(self.gov));
                self.seed(&private);
                private
            });
            let cache = if s == Strategy::Naive { None } else { shared.or(private.as_ref()) };
            let mut ctx = self.ctx(&rows, &frames, cache);
            ctx.hold_own(&cp.keys)?;
            outs.push(evaluate_call(&ctx, call, cp, s)?);
            if let Some(private) = &private {
                report.absorb(private);
            }
        }
        report.probe = probe_start.elapsed();
        if let Some(cache) = shared {
            report.absorb(cache);
        }
        Ok(PartitionOutput { rows, frames, acc, choices, outs, report })
    }
}
