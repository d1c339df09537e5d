//! The window operator: the plan → build → probe pipeline.
//!
//! Mirrors the paper's execution pipeline (Figure 14) with an explicit
//! planning phase in front: hash partitioning, per-partition ORDER BY sort,
//! then per-partition preprocessing-artifact build + embarrassingly parallel
//! probe. The plan phase (`plan.rs`) runs once per query and derives a
//! canonical key for every preprocessing product; per partition, a shared
//! artifact cache (`artifacts.rs`) builds each distinct product exactly
//! once no matter how many calls consume it. Partitions run in parallel;
//! inside a partition, build and probe phases parallelize as described in
//! §5.2.

use crate::artifacts::{self, ArtifactCache, AtomicStats, BudgetGovernor};
use crate::column::ColumnScatter;
use crate::error::Result;
use crate::eval::direct::DirectCtx;
use crate::eval::{alt, direct, evaluate_call, Ctx};
use crate::frame::resolve_frames_counted;
use crate::order::{sort_permutation, KeyColumns};
use crate::partition::partition_rows;
use crate::plan::{
    canonical_order, plan_query, sort_keys_of, ArtifactKey, CanonicalSortKey, QueryPlan,
};
use crate::spec::{FunctionCall, WindowSpec};
use crate::strategy::{choose, CostModel, PartitionStats, Strategy, StrategyMode};
use crate::table::Table;
use crate::value::Value;
use crate::vm::{AtomicExprVm, ExprVmStats};
use holistic_core::MstParams;
use rayon::prelude::*;
use rustc_hash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Execution tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ExecOptions {
    /// Use rayon for partitioning, sorting, tree builds and probes.
    pub parallel: bool,
    /// Merge sort tree parameters (§5.1; default f = k = 32).
    pub params: MstParams,
    /// Share preprocessing artifacts across the query's calls (default).
    /// When off, every call gets a private cache — each call still reuses
    /// its *own* artifacts (e.g. framed LEAD builds one sort for its two
    /// trees) but nothing is shared between calls. Results are identical;
    /// only the work differs. Used by benchmarks quantifying sharing.
    pub share_artifacts: bool,
    /// Per-(partition × call) strategy selection: cost-based adaptive choice
    /// (default) or one forced strategy. Output is bit-identical under every
    /// mode — forcing exists for benchmarks and the differential fuzzer.
    pub strategy: StrategyMode,
    /// Cost-model constants driving [`StrategyMode::Adaptive`]. Defaults are
    /// calibrated by the `crossover_ext` benchmark.
    pub cost_model: CostModel,
    /// Memory budget in bytes for resident preprocessing artifacts (`None`
    /// = unbounded, the default). Under a budget, merge-sort-tree arenas
    /// spill to temp files when cold and oversized partitions build their
    /// trees out-of-core; results stay bit-identical, and a build that
    /// cannot fit even after spilling fails with
    /// [`crate::Error::BudgetExceeded`] instead of aborting.
    pub budget: Option<u64>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            parallel: true,
            params: MstParams::default(),
            share_artifacts: true,
            strategy: StrategyMode::default(),
            cost_model: CostModel::default(),
            budget: None,
        }
    }
}

impl ExecOptions {
    /// Fully serial execution (used by benchmarks isolating algorithms).
    pub fn serial() -> Self {
        ExecOptions {
            parallel: false,
            params: MstParams::default().serial(),
            ..ExecOptions::default()
        }
    }

    /// Caps resident preprocessing-artifact memory at `bytes`. See
    /// [`ExecOptions::budget`].
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.budget = Some(bytes);
        self
    }

    /// Forces one strategy for every (partition × call) where it applies;
    /// calls the strategy cannot evaluate fall back to the merge sort tree.
    pub fn force_strategy(mut self, s: Strategy) -> Self {
        self.strategy = StrategyMode::Force(s);
        self
    }

    /// Disables cross-call artifact sharing.
    pub fn no_sharing(mut self) -> Self {
        self.share_artifacts = false;
        self
    }

    /// Every engine configuration the result must be invariant under:
    /// serial/parallel × shared/private artifact cache. The differential
    /// fuzzer and equivalence tests iterate this matrix; all four
    /// configurations must produce bit-identical output.
    pub fn all_configs() -> [ExecOptions; 4] {
        [
            ExecOptions::serial(),
            ExecOptions::serial().no_sharing(),
            ExecOptions::default(),
            ExecOptions::default().no_sharing(),
        ]
    }

    /// A short human-readable label of this configuration (replay output).
    pub fn label(&self) -> String {
        let forced = match self.strategy {
            StrategyMode::Adaptive => String::new(),
            StrategyMode::Force(s) => format!("/force-{}", s.name()),
        };
        let budget = match self.budget {
            None => String::new(),
            Some(b) => format!("/budget-{b}"),
        };
        format!(
            "{}/{}{}{}",
            if self.parallel { "parallel" } else { "serial" },
            if self.share_artifacts { "shared" } else { "private" },
            forced,
            budget,
        )
    }
}

/// Artifact-cache counters, accumulated over all per-partition caches of one
/// execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Artifact requests answered from the cache.
    pub hits: u64,
    /// Artifact requests that triggered a build.
    pub misses: u64,
    /// `ArtifactKey` clones performed by the cache. Keys are derived once in
    /// the plan phase and borrowed on every request; the cache clones one
    /// only when creating a new slot, so this always equals `misses` — the
    /// executor's tests pin that invariant.
    pub key_clones: u64,
    /// Total bytes of artifacts built (shallow per-artifact estimates).
    pub bytes_built: u64,
    /// Inner-sort (dense code) computations actually performed.
    pub inner_sorts: u64,
    /// Merge sort tree builds (code, permutation and distinct trees).
    pub mst_builds: u64,
    /// Segment tree builds (distributive aggregates).
    pub segtree_builds: u64,
    /// Range tree builds (DENSE_RANK).
    pub rangetree_builds: u64,
    /// Range-mode index builds (MODE).
    pub modeindex_builds: u64,
}

/// Probe-kernel counters, accumulated over every cursor and block scratch
/// of one execution (serial loops and parallel probe chunks alike).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeKernelStats {
    /// Annotated-tree probes (SUM/AVG DISTINCT), all cursor-seeded.
    pub cursor_probes: u64,
    /// Searches answered by galloping from a memoized position.
    pub gallop_seeded: u64,
    /// Total galloping steps across all seeded searches.
    pub gallop_steps: u64,
    /// Full binary searches (no usable memo).
    pub full_searches: u64,
    /// Per-level memo misses that fell back to cascaded refinement.
    pub level_resets: u64,
    /// Block-kernel invocations (one per probe block per tree).
    pub block_calls: u64,
    /// Queries answered by the block kernels.
    pub block_queries: u64,
}

/// Lock-free accumulator for [`ProbeKernelStats`]; one per execution, shared
/// across partitions and probe chunks.
#[derive(Debug, Default)]
pub(crate) struct AtomicProbeKernel {
    cursor_probes: AtomicU64,
    gallop_seeded: AtomicU64,
    gallop_steps: AtomicU64,
    full_searches: AtomicU64,
    level_resets: AtomicU64,
    block_calls: AtomicU64,
    block_queries: AtomicU64,
}

impl AtomicProbeKernel {
    /// Folds one cursor's counters into the query-level totals.
    pub(crate) fn absorb(&self, s: &holistic_core::CursorStats) {
        self.cursor_probes.fetch_add(s.cursor_probes, Relaxed);
        self.gallop_seeded.fetch_add(s.gallop_seeded, Relaxed);
        self.gallop_steps.fetch_add(s.gallop_steps, Relaxed);
        self.full_searches.fetch_add(s.full_searches, Relaxed);
        self.level_resets.fetch_add(s.level_resets, Relaxed);
    }

    /// Folds one block-scratch's counters into the query-level totals.
    pub(crate) fn absorb_block(&self, s: &holistic_core::BlockStats) {
        self.block_calls.fetch_add(s.block_calls, Relaxed);
        self.block_queries.fetch_add(s.block_queries, Relaxed);
    }

    fn snapshot(&self) -> ProbeKernelStats {
        ProbeKernelStats {
            cursor_probes: self.cursor_probes.load(Relaxed),
            gallop_seeded: self.gallop_seeded.load(Relaxed),
            gallop_steps: self.gallop_steps.load(Relaxed),
            full_searches: self.full_searches.load(Relaxed),
            level_resets: self.level_resets.load(Relaxed),
            block_calls: self.block_calls.load(Relaxed),
            block_queries: self.block_queries.load(Relaxed),
        }
    }
}

/// Spill telemetry of one execution under a memory budget (all zeros, with
/// `budget: None`, when no budget is configured — unbudgeted executions
/// still track resident/peak bytes of governed artifacts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// The configured budget ([`ExecOptions::budget`]).
    pub budget: Option<u64>,
    /// Bytes actually written to spill files (out-of-core builds and
    /// first-time parks; re-parking an already-written slab is free).
    pub bytes_spilled: u64,
    /// Artifacts parked by the governor to make room for a charge.
    pub evictions: u64,
    /// Times a parked arena was re-faulted from its spill file.
    pub refaults: u64,
    /// Bytes re-faulted across those re-faults.
    pub refault_bytes: u64,
    /// High-water mark of resident governed bytes.
    pub peak_resident: u64,
    /// Resident governed bytes at the end of the execution.
    pub resident: u64,
}

/// Memory footprint of one artifact kind, accumulated over every build of
/// one execution (all partitions, all per-call caches).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ArtifactFootprint {
    /// The artifact kind (an `ArtifactKey` label, e.g.
    /// `"code-mst"` or `"dense-codes"`).
    pub label: &'static str,
    /// Number of builds of this kind.
    pub builds: u64,
    /// Total bytes across those builds (shallow estimates; see the artifact
    /// cache docs).
    pub bytes: u64,
}

/// Per-(partition × call) strategy decisions of one execution, accumulated
/// across partitions. Indexed by [`Strategy::index`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StrategyProfile {
    /// Total decisions per strategy over all (partition × call) pairs.
    pub decisions: [u64; 5],
    /// Decisions per call (outer index = call position in the query).
    pub per_call: Vec<[u64; 5]>,
    /// Partitions where *every* call chose [`Strategy::Naive`] and the whole
    /// artifact machinery (cache, seeding, footprints) was skipped.
    pub cacheless_partitions: u64,
}

/// Phase timings and cache counters of one execution.
///
/// `build` covers the partition sort, frame resolution and the eager
/// prebuild of statically-planned artifacts; data-dependent artifacts (e.g.
/// the SUM segment tree, whose element type depends on the data) are built
/// lazily through the same cache and attributed to `probe`. The eager
/// prebuild runs only for calls the merge sort tree serves: a call on an
/// alternate strategy builds what it reads (values, mask, hashes, dense
/// codes) inside `probe` and nothing it does not read — no `prev-idcs`,
/// which only the distinct trees consume, and under a mask that drops
/// nothing no copy of the values.
/// Neither phase includes hash partitioning, the evaluation of the ORDER BY
/// key columns or the scatter of the outputs into typed columns: those are
/// the execution's wall time minus `plan + build + probe`.
#[derive(Debug, Clone, Default)]
pub struct ExecProfile {
    /// Call validation + query planning (once per query).
    pub plan: Duration,
    /// Partition sorting, frame resolution and eager artifact builds,
    /// summed over partitions.
    pub build: Duration,
    /// Call evaluation (probing, plus lazy artifact builds), summed over
    /// partitions.
    pub probe: Duration,
    /// Frame resolution alone, summed over partitions. A sub-span of
    /// `build`; reported separately so the compiled-VM speedup on
    /// expression-bound frames is directly observable.
    pub resolve: Duration,
    /// Number of partitions processed.
    pub partitions: usize,
    /// Accumulated artifact-cache counters.
    pub cache: CacheStats,
    /// Accumulated probe-kernel counters (cursor galloping vs. full
    /// searches).
    pub probe_kernel: ProbeKernelStats,
    /// Per-kind artifact memory footprints, largest first.
    pub artifacts: Vec<ArtifactFootprint>,
    /// Per-(partition × call) strategy decisions.
    pub strategy: StrategyProfile,
    /// Expression-VM counters (programs compiled, rows evaluated by the VM
    /// vs. the interpreter, fallbacks).
    pub expr_vm: ExprVmStats,
    /// Memory-budget spill telemetry (bytes spilled, evictions, re-faults,
    /// peak resident).
    pub spill: SpillStats,
}

/// A window query: one OVER clause, many function calls.
#[derive(Debug, Clone)]
pub struct WindowQuery {
    /// The shared OVER clause.
    pub spec: WindowSpec,
    /// The function calls to evaluate against it.
    pub calls: Vec<FunctionCall>,
}

impl WindowQuery {
    /// Starts a query over the given OVER clause.
    pub fn over(spec: WindowSpec) -> Self {
        WindowQuery { spec, calls: Vec::new() }
    }

    /// Adds a function call.
    pub fn call(mut self, call: FunctionCall) -> Self {
        self.calls.push(call);
        self
    }

    /// Executes with default options; returns one output column per call, in
    /// the *original row order* of the input table.
    pub fn execute(&self, table: &Table) -> Result<Table> {
        self.execute_with(table, ExecOptions::default())
    }

    /// Executes with explicit options.
    pub fn execute_with(&self, table: &Table, opts: ExecOptions) -> Result<Table> {
        self.execute_profiled(table, opts).map(|(out, _)| out)
    }

    /// Executes with explicit options, returning phase timings and artifact
    /// cache counters alongside the output.
    pub fn execute_profiled(
        &self,
        table: &Table,
        opts: ExecOptions,
    ) -> Result<(Table, ExecProfile)> {
        let n = table.num_rows();

        // Plan phase: validate every call, then derive canonical artifact
        // keys and the per-partition prebuild worklist.
        let plan_start = Instant::now();
        for call in &self.calls {
            call.validate()?;
        }
        let plan: QueryPlan = plan_query(&self.spec, &self.calls);
        let plan_time = plan_start.elapsed();

        let partitions = partition_rows(table, &self.spec.partition_by)?;
        let window_keys = Arc::new(KeyColumns::evaluate(table, &self.spec.order_by)?);
        // The window ORDER BY key columns are query-level; each partition
        // cache is seeded with them so calls falling back to the window
        // order never re-evaluate the key expressions.
        let window_order = canonical_order(&self.spec.order_by);

        // Hoist *every* planned inner ORDER BY criterion to query level:
        // key columns cover the full table and are mask-independent, so one
        // evaluation serves all partitions (and the direct path, which has
        // no cache to share through). Skipped when there are no partitions,
        // preserving the no-work-no-error behaviour of empty inputs.
        let mut hoisted_keys: FxHashMap<Vec<CanonicalSortKey>, Arc<KeyColumns>> =
            FxHashMap::default();
        if !partitions.is_empty() {
            if !window_order.is_empty() {
                hoisted_keys.insert(window_order.clone(), Arc::clone(&window_keys));
            }
            for key in &plan.prebuild {
                if let ArtifactKey::InnerKeys(ks) = key {
                    if !hoisted_keys.contains_key(ks) {
                        let kc = Arc::new(KeyColumns::evaluate(table, &sort_keys_of(ks))?);
                        hoisted_keys.insert(ks.clone(), kc);
                    }
                }
            }
        }

        // Parallelize across partitions when there are many, inside a
        // partition when there are few (§5.2's task model collapses to this
        // two-level scheme here).
        let threads = rayon::current_num_threads();
        let across = opts.parallel && partitions.len() >= 2 * threads;
        let within = opts.parallel && !across;

        let build_nanos = AtomicU64::new(0);
        let probe_nanos = AtomicU64::new(0);
        let resolve_nanos = AtomicU64::new(0);
        // One budget governor per execution, shared by every per-partition
        // cache: charges accumulate across partitions, and eviction can park
        // a cold partition's trees to make room for a hot one's.
        let gov = Arc::new(BudgetGovernor::new(opts.budget));
        let totals = AtomicStats::default();
        let kernel = AtomicProbeKernel::default();
        let vm_acc = AtomicExprVm::new();
        // label → (builds, bytes), accumulated as each cache retires.
        let footprints = Mutex::new(FxHashMap::<&'static str, (u64, u64)>::default());
        let absorb_footprints = |cache: &ArtifactCache| {
            let built = cache.take_footprints();
            if built.is_empty() {
                return;
            }
            let mut map = footprints.lock().expect("footprint accumulator poisoned");
            for (label, bytes) in built {
                let e = map.entry(label).or_insert((0, 0));
                e.0 += 1;
                e.1 += bytes as u64;
            }
        };

        let seeded_cache = || {
            let cache = ArtifactCache::new(Arc::clone(&gov));
            for (ks, kc) in &hoisted_keys {
                cache.seed(ArtifactKey::InnerKeys(ks.clone()), Arc::clone(kc));
            }
            cache
        };
        // Strategy decisions, accumulated per partition. Additions commute,
        // so the totals are deterministic under partition parallelism.
        let strategy_acc = Mutex::new(StrategyProfile {
            per_call: vec![[0u64; 5]; self.calls.len()],
            ..StrategyProfile::default()
        });

        // Build + probe one partition; returns its sorted rows and one
        // output vector per call (scattered back to table order below).
        let process = |rows_unsorted: &Vec<usize>| -> Result<(Vec<usize>, Vec<Vec<Value>>)> {
            let build_start = Instant::now();
            let mut rows = rows_unsorted.clone();
            sort_permutation(&window_keys, &mut rows, within);
            let resolve_start = Instant::now();
            let mut vm_stats = ExprVmStats::default();
            let frames = resolve_frames_counted(
                table,
                &rows,
                &window_keys,
                &self.spec.frame,
                &mut vm_stats,
            )?;
            resolve_nanos.fetch_add(resolve_start.elapsed().as_nanos() as u64, Relaxed);
            vm_acc.absorb(&vm_stats);
            let params = if within { opts.params } else { opts.params.serial() };

            // Pick a strategy per call. The choice is a pure function of
            // (mode, call class, frame stats, cost model) — none of which
            // depend on parallelism or sharing — so every engine
            // configuration makes identical choices and stays bit-identical.
            let pstats = PartitionStats::from_frames(&frames);
            // Under a budget, surcharge the MST's cost terms by how hard
            // this partition's tree would press on it (spill writes +
            // re-faults the base model doesn't price). The penalty is a pure
            // function of (partition size, params, budget) — identical
            // across engine configurations, so choices stay deterministic.
            let est_tree_bytes = (holistic_core::mst_arena_len(rows.len(), params)
                * if holistic_core::index::fits_u32(rows.len() + 1) { 4 } else { 8 })
                as u64;
            let model = opts.cost_model.under_memory_pressure(est_tree_bytes, opts.budget);
            let choices: Vec<Strategy> = plan
                .calls
                .iter()
                .map(|cp| choose(opts.strategy, cp.class, &pstats, &model))
                .collect();
            let all_naive = choices.iter().all(|&s| s == Strategy::Naive);
            {
                let mut sp = strategy_acc.lock().expect("strategy accumulator poisoned");
                for (ci, s) in choices.iter().enumerate() {
                    sp.decisions[s.index()] += 1;
                    sp.per_call[ci][s.index()] += 1;
                }
                if all_naive {
                    sp.cacheless_partitions += 1;
                }
            }

            let dctx = DirectCtx { table, rows: &rows, frames: &frames, inner_keys: &hoisted_keys };
            let mut outs: Vec<Vec<Value>> = Vec::with_capacity(self.calls.len());
            if all_naive {
                // Small-partition fast path: no cache, no seeding, no
                // footprint accounting — just direct evaluation.
                build_nanos.fetch_add(build_start.elapsed().as_nanos() as u64, Relaxed);
                let probe_start = Instant::now();
                for (call, cp) in self.calls.iter().zip(&plan.calls) {
                    outs.push(direct::evaluate(&dctx, call, cp)?);
                }
                probe_nanos.fetch_add(probe_start.elapsed().as_nanos() as u64, Relaxed);
            } else if opts.share_artifacts {
                let cache = seeded_cache();
                let ctx = Ctx {
                    table,
                    rows: &rows,
                    frames: &frames,
                    parallel: within,
                    params,
                    cache: &cache,
                    kernel: &kernel,
                    vm: &vm_acc,
                };
                // Eager prebuild only for calls the MST actually serves;
                // alternates build lazily from the shared cache and the
                // direct path needs nothing.
                for (cp, &s) in plan.calls.iter().zip(&choices) {
                    if s == Strategy::Mst {
                        for key in cp.keys.eager() {
                            artifacts::force(&ctx, key)?;
                        }
                    }
                }
                build_nanos.fetch_add(build_start.elapsed().as_nanos() as u64, Relaxed);
                let probe_start = Instant::now();
                for ((call, cp), &s) in self.calls.iter().zip(&plan.calls).zip(&choices) {
                    outs.push(match s {
                        Strategy::Mst => evaluate_call(&ctx, call, cp)?,
                        Strategy::Naive => direct::evaluate(&dctx, call, cp)?,
                        other => alt::evaluate(&ctx, call, cp, other)?,
                    });
                }
                probe_nanos.fetch_add(probe_start.elapsed().as_nanos() as u64, Relaxed);
                cache.stats().merge_into(&totals);
                absorb_footprints(&cache);
            } else {
                build_nanos.fetch_add(build_start.elapsed().as_nanos() as u64, Relaxed);
                let probe_start = Instant::now();
                for ((call, cp), &s) in self.calls.iter().zip(&plan.calls).zip(&choices) {
                    if s == Strategy::Naive {
                        outs.push(direct::evaluate(&dctx, call, cp)?);
                        continue;
                    }
                    // A fresh cache per call: artifacts are still shared
                    // *within* the call, never across calls.
                    let cache = seeded_cache();
                    let ctx = Ctx {
                        table,
                        rows: &rows,
                        frames: &frames,
                        parallel: within,
                        params,
                        cache: &cache,
                        kernel: &kernel,
                        vm: &vm_acc,
                    };
                    outs.push(match s {
                        Strategy::Mst => evaluate_call(&ctx, call, cp)?,
                        other => alt::evaluate(&ctx, call, cp, other)?,
                    });
                    cache.stats().merge_into(&totals);
                    absorb_footprints(&cache);
                }
                probe_nanos.fetch_add(probe_start.elapsed().as_nanos() as u64, Relaxed);
            }
            Ok((rows, outs))
        };

        let per_partition: Vec<(Vec<usize>, Vec<Vec<Value>>)> = if across {
            partitions.par_iter().map(process).collect::<Result<Vec<_>>>()?
        } else {
            partitions.iter().map(process).collect::<Result<Vec<_>>>()?
        };

        // Scatter back to original row order — one shared row map per
        // partition, one typed output column per call.
        let mut out = Table::empty();
        for (ci, call) in self.calls.iter().enumerate() {
            let mut column = ColumnScatter::new(n);
            for (rows, outs) in &per_partition {
                column.write(rows, &outs[ci]);
            }
            out.add_column(call.output_name.clone(), column.finish()?)?;
        }
        let mut artifacts: Vec<ArtifactFootprint> = footprints
            .into_inner()
            .expect("footprint accumulator poisoned")
            .into_iter()
            .map(|(label, (builds, bytes))| ArtifactFootprint { label, builds, bytes })
            .collect();
        artifacts.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.label.cmp(b.label)));
        let profile = ExecProfile {
            plan: plan_time,
            build: Duration::from_nanos(build_nanos.load(Relaxed)),
            probe: Duration::from_nanos(probe_nanos.load(Relaxed)),
            resolve: Duration::from_nanos(resolve_nanos.load(Relaxed)),
            partitions: partitions.len(),
            cache: totals.snapshot(),
            probe_kernel: kernel.snapshot(),
            artifacts,
            strategy: strategy_acc.into_inner().expect("strategy accumulator poisoned"),
            expr_vm: vm_acc.snapshot(),
            spill: gov.snapshot(),
        };
        Ok((out, profile))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::expr::{col, lit};
    use crate::frame::{FrameBound, FrameSpec};
    use crate::order::SortKey;
    use crate::spec::{FunctionCall, WindowSpec};

    fn ints(vals: Vec<i64>) -> Table {
        Table::new(vec![("x", Column::ints(vals))]).unwrap()
    }

    #[test]
    fn running_sum_over_rows_frame() {
        let t = ints(vec![3, 1, 2]);
        let q = WindowQuery::over(
            WindowSpec::new()
                .order_by(vec![SortKey::asc(col("x"))])
                .frame(FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow)),
        )
        .call(FunctionCall::sum(col("x")).named("s"));
        let out = q.execute(&t).unwrap();
        // Original row order: x=3 → 6, x=1 → 1, x=2 → 3.
        assert_eq!(
            out.column("s").unwrap().to_values(),
            vec![Value::Int(6), Value::Int(1), Value::Int(3)]
        );
    }

    #[test]
    fn moving_median_small() {
        let t = ints(vec![5, 1, 4, 2, 3]);
        let q = WindowQuery::over(WindowSpec::new().order_by(vec![SortKey::asc(col("x"))]).frame(
            FrameSpec::rows(FrameBound::Preceding(lit(1i64)), FrameBound::Following(lit(1i64))),
        ))
        .call(FunctionCall::median(col("x")).named("med"));
        let out = q.execute(&t).unwrap();
        // Sorted: 1 2 3 4 5; medians of windows: [1,2]→2? PERCENTILE_DISC(0.5)
        // of 2 elements is the 1st (ceil(0.5*2)=1) → 1; of 3 elements → 2nd.
        // Window per row (sorted): [1,2]→1, [1,2,3]→2, [2,3,4]→3, [3,4,5]→4, [4,5]→4.
        let by_x: Vec<(i64, i64)> = (0..5)
            .map(|r| {
                let x = t.column("x").unwrap().get(r).as_i64().unwrap();
                let m = out.column("med").unwrap().get(r).as_i64().unwrap();
                (x, m)
            })
            .collect();
        let mut by_x = by_x;
        by_x.sort_unstable();
        assert_eq!(by_x, vec![(1, 1), (2, 2), (3, 3), (4, 4), (5, 4)]);
    }

    #[test]
    fn partitions_do_not_interact() {
        let t = Table::new(vec![
            ("g", Column::strs(vec!["a", "b", "a", "b"])),
            ("x", Column::ints(vec![1, 10, 2, 20])),
        ])
        .unwrap();
        let q = WindowQuery::over(
            WindowSpec::new()
                .partition_by(vec![col("g")])
                .order_by(vec![SortKey::asc(col("x"))])
                .frame(FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow)),
        )
        .call(FunctionCall::sum(col("x")).named("s"));
        let out = q.execute(&t).unwrap();
        assert_eq!(
            out.column("s").unwrap().to_values(),
            vec![Value::Int(1), Value::Int(10), Value::Int(3), Value::Int(30)]
        );
    }

    #[test]
    fn count_distinct_over_running_frame() {
        let t = ints(vec![7, 7, 8, 7, 9]);
        // Order by position: use a row-number column.
        let t2 = Table::new(vec![
            ("x", Column::ints(vec![7, 7, 8, 7, 9])),
            ("pos", Column::ints(vec![0, 1, 2, 3, 4])),
        ])
        .unwrap();
        let _ = t;
        let q = WindowQuery::over(
            WindowSpec::new()
                .order_by(vec![SortKey::asc(col("pos"))])
                .frame(FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow)),
        )
        .call(FunctionCall::count_distinct(col("x")).named("cd"));
        let out = q.execute(&t2).unwrap();
        assert_eq!(
            out.column("cd").unwrap().to_values(),
            vec![Value::Int(1), Value::Int(1), Value::Int(2), Value::Int(2), Value::Int(3)]
        );
    }

    #[test]
    fn empty_table_executes() {
        let t = ints(vec![]);
        let q = WindowQuery::over(WindowSpec::new()).call(FunctionCall::count_star().named("c"));
        let out = q.execute(&t).unwrap();
        assert_eq!(out.column("c").unwrap().len(), 0);
    }

    #[test]
    fn rank_with_two_orderings() {
        // The paper's §2.4 pattern: frame by date, rank by value.
        let t = Table::new(vec![
            ("date", Column::ints(vec![1, 2, 3, 4])),
            ("tps", Column::ints(vec![10, 30, 20, 40])),
        ])
        .unwrap();
        let q = WindowQuery::over(
            WindowSpec::new()
                .order_by(vec![SortKey::asc(col("date"))])
                .frame(FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow)),
        )
        .call(FunctionCall::rank(vec![SortKey::desc(col("tps"))]).named("r"));
        let out = q.execute(&t).unwrap();
        // date 1: rank of 10 among {10} = 1; date 2: 30 among {10,30} = 1;
        // date 3: 20 among {10,30,20} = 2; date 4: 40 among all = 1.
        assert_eq!(
            out.column("r").unwrap().to_values(),
            vec![Value::Int(1), Value::Int(1), Value::Int(2), Value::Int(1)]
        );
    }

    #[test]
    fn profile_reports_phases_and_counters() {
        let t = ints(vec![5, 1, 4, 2, 3]);
        let q = WindowQuery::over(
            WindowSpec::new()
                .order_by(vec![SortKey::asc(col("x"))])
                .frame(FrameSpec::rows(FrameBound::Preceding(lit(2i64)), FrameBound::CurrentRow)),
        )
        .call(FunctionCall::median(col("x")).named("med"))
        .call(FunctionCall::sum(col("x")).named("s"));
        // Force the MST so the tiny partition doesn't take the cacheless
        // direct path (this test pins the cache counters).
        let opts = ExecOptions::serial().force_strategy(Strategy::Mst);
        let (out, profile) = q.execute_profiled(&t, opts).unwrap();
        assert_eq!(out.column("med").unwrap().len(), 5);
        assert_eq!(profile.partitions, 1);
        assert!(profile.cache.misses > 0);
        assert_eq!(profile.strategy.decisions[Strategy::Mst.index()], 2);
        assert_eq!(profile.strategy.cacheless_partitions, 0);
        // The median needs exactly one inner sort; the sum needs none.
        assert_eq!(profile.cache.inner_sorts, 1);
        assert_eq!(profile.cache.segtree_builds, 2); // count + sum trees
    }

    #[test]
    fn key_clones_equal_misses_and_footprints_reported() {
        // Keys are derived in the plan phase and borrowed on every request;
        // the cache clones one only when creating a slot. If any evaluator
        // re-derived a key on the probe path (the old lazy-build behaviour),
        // hits would outnumber slots yet clones would exceed misses.
        let t = Table::new(vec![
            ("x", Column::ints(vec![5, 1, 4, 2, 3, 9, 8, 7])),
            ("f", Column::floats(vec![0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5])),
        ])
        .unwrap();
        let q = WindowQuery::over(
            WindowSpec::new()
                .order_by(vec![SortKey::asc(col("x"))])
                .frame(FrameSpec::rows(FrameBound::Preceding(lit(3i64)), FrameBound::CurrentRow)),
        )
        .call(FunctionCall::sum(col("f")).named("s"))
        .call(FunctionCall::avg(col("f")).named("a"))
        .call(FunctionCall::min(col("x")).named("lo"))
        .call(FunctionCall::sum_distinct(col("x")).named("sd"))
        .call(FunctionCall::median(col("x")).named("med"))
        .call(FunctionCall::rank(vec![SortKey::desc(col("x"))]).named("r"));
        for opts in ExecOptions::all_configs() {
            let opts = opts.force_strategy(Strategy::Mst);
            let (_, profile) = q.execute_profiled(&t, opts).unwrap();
            assert!(profile.cache.hits > 0, "{}: sharing expected", opts.label());
            assert_eq!(
                profile.cache.key_clones,
                profile.cache.misses,
                "{}: a request cloned its key without creating a slot",
                opts.label()
            );
            // Every build was charged to a footprint bucket.
            let builds: u64 = profile.artifacts.iter().map(|a| a.builds).sum();
            assert_eq!(builds, profile.cache.misses, "{}", opts.label());
            let bytes: u64 = profile.artifacts.iter().map(|a| a.bytes).sum();
            assert_eq!(bytes, profile.cache.bytes_built, "{}", opts.label());
            assert!(profile.artifacts.iter().any(|a| a.label == "segtree-sum-f64"));
            assert!(profile.artifacts.windows(2).all(|w| w[0].bytes >= w[1].bytes));
        }
    }

    #[test]
    fn sharing_toggle_preserves_results() {
        let t = Table::new(vec![
            ("g", Column::ints(vec![0, 1, 0, 1, 0, 1, 0, 1])),
            ("x", Column::ints(vec![5, 3, 8, 1, 9, 2, 7, 4])),
        ])
        .unwrap();
        let q = WindowQuery::over(
            WindowSpec::new()
                .partition_by(vec![col("g")])
                .order_by(vec![SortKey::asc(col("x"))])
                .frame(FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow)),
        )
        .call(FunctionCall::rank(vec![SortKey::desc(col("x"))]).named("r"))
        .call(FunctionCall::row_number(vec![SortKey::desc(col("x"))]).named("rn"))
        .call(FunctionCall::median(col("x")).named("med"));
        let shared = q.execute_with(&t, ExecOptions::serial()).unwrap();
        let private = q.execute_with(&t, ExecOptions::serial().no_sharing()).unwrap();
        for name in ["r", "rn", "med"] {
            assert_eq!(
                shared.column(name).unwrap().to_values(),
                private.column(name).unwrap().to_values(),
                "column {name} differs between shared and private caches"
            );
        }
    }
}
