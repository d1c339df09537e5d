//! The window operator: the plan → build → probe pipeline.
//!
//! Mirrors the paper's execution pipeline (Figure 14) with an explicit
//! planning phase in front: hash partitioning, per-partition ORDER BY sort
//! and strategy choice, then preprocessing-artifact build + embarrassingly
//! parallel probe. The plan phase (`plan.rs`) runs once per query and
//! canonicalizes what every call's preprocessing products are made from;
//! per partition, a shared artifact cache (`artifacts.rs`) builds each
//! distinct product exactly once, on its first request, no matter how many
//! calls consume it. Partitions run in
//! parallel; inside a partition, build and probe phases parallelize as
//! described in §5.2. A partition whose calls all chose the naive scans
//! builds nothing of its own: it becomes one segment of a batch, and each
//! call runs once over every batch of 16 384 rows (`BATCH_ROWS`).

use crate::artifacts::BudgetGovernor;
use crate::column::ColumnScatter;
use crate::error::{Error, Result};
use crate::eval::pipeline::{
    hoist_keys, HoistedKeys, PartitionEval, PartitionOutput, Prepared, SegmentBatch,
};
use crate::partition::partition_rows;
use crate::plan::{plan_query, QueryPlan};
use crate::spec::{FunctionCall, WindowSpec};
use crate::strategy::{Strategy, StrategyMode};
use crate::table::Table;
use holistic_core::MstParams;
use rayon::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
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

    /// Rejects tree parameters outside their documented domains. Every
    /// entry point that takes options calls this before anything is built:
    /// the fields are public, so `MstParams::new`'s assert can be bypassed.
    pub(crate) fn validate(&self) -> Result<()> {
        self.params.check().map_err(|domain| Error::InvalidArgument(domain.into()))
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
    /// Total bytes of artifacts built (shallow per-artifact estimates).
    pub bytes_built: u64,
    /// Inner-sort (dense code) computations actually performed.
    pub inner_sorts: u64,
    /// Merge sort tree builds (code, permutation and distinct trees).
    pub mst_builds: u64,
    /// Segment tree builds (float SUM / AVG, MIN, MAX; COUNT and integer
    /// SUM / AVG build none).
    pub segtree_builds: u64,
    /// Range tree builds (DENSE_RANK).
    pub rangetree_builds: u64,
    /// Range-mode index builds (MODE).
    pub modeindex_builds: u64,
}

impl CacheStats {
    /// Adds another cache's counters to these.
    pub(crate) fn add(&mut self, o: &CacheStats) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.bytes_built += o.bytes_built;
        self.inner_sorts += o.inner_sorts;
        self.mst_builds += o.mst_builds;
        self.segtree_builds += o.segtree_builds;
        self.rangetree_builds += o.rangetree_builds;
        self.modeindex_builds += o.modeindex_builds;
    }
}

/// Probe-kernel counters, accumulated over every block scratch of one
/// execution (serial loops and parallel probe chunks alike).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeKernelStats {
    /// Block-kernel invocations (one per probe block per tree).
    pub block_calls: u64,
    /// Queries answered by the block kernels.
    pub block_queries: u64,
}

/// Lock-free accumulator for [`ProbeKernelStats`]; one per execution, shared
/// across partitions and probe chunks.
#[derive(Debug, Default)]
pub(crate) struct AtomicProbeKernel {
    block_calls: AtomicU64,
    block_queries: AtomicU64,
}

impl AtomicProbeKernel {
    /// Folds one block-scratch's counters into the query-level totals.
    pub(crate) fn absorb_block(&self, s: &holistic_core::BlockStats) {
        self.block_calls.fetch_add(s.block_calls, Relaxed);
        self.block_queries.fetch_add(s.block_queries, Relaxed);
    }

    fn snapshot(&self) -> ProbeKernelStats {
        ProbeKernelStats {
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
    pub decisions: [u64; Strategy::ALL.len()],
    /// Decisions per call (outer index = call position in the query).
    pub per_call: Vec<[u64; Strategy::ALL.len()]>,
    /// Partitions where *every* call chose [`Strategy::Naive`]: each is a
    /// segment of a naive batch, and the whole artifact machinery
    /// (cache, seeding, footprints) was skipped.
    pub cacheless_partitions: u64,
}

/// Phase timings and cache counters of one execution.
///
/// `build` covers the partition sort, frame resolution and every artifact
/// a cache built, each timed by the cache that built it: the first request
/// builds, whichever call makes it and whatever strategy the call chose, and
/// an ingredient's build counts inside the build that requested it. `probe`
/// is call evaluation without those builds. A naive call builds its arrays
/// without a cache, once per batch: all of its time is `probe`.
/// Neither phase includes hash partitioning, the evaluation of the ORDER BY
/// key columns, the copy of all-naive partitions into their batch or the
/// scatter of the outputs into typed columns: those are the execution's
/// wall time minus `plan + build + probe`.
#[derive(Debug, Clone, Default)]
pub struct ExecProfile {
    /// Call validation + query planning (once per query).
    pub plan: Duration,
    /// Partition sorting, frame resolution and artifact builds, summed over
    /// partitions.
    pub build: Duration,
    /// Call evaluation without the artifact builds, summed over partitions —
    /// and, for the partitions whose calls all chose naive, the evaluation
    /// of every call over their batches, arrays included.
    pub probe: Duration,
    /// Frame resolution alone, summed over partitions. A sub-span of
    /// `build`.
    pub resolve: Duration,
    /// Number of partitions processed.
    pub partitions: usize,
    /// Accumulated artifact-cache counters.
    pub cache: CacheStats,
    /// Accumulated probe-kernel counters (the block kernels' calls and
    /// queries).
    pub probe_kernel: ProbeKernelStats,
    /// Per-kind artifact memory footprints, largest first.
    pub artifacts: Vec<ArtifactFootprint>,
    /// Per-(partition × call) strategy decisions.
    pub strategy: StrategyProfile,
    /// Memory-budget spill telemetry (bytes spilled, evictions, re-faults,
    /// peak resident).
    pub spill: SpillStats,
}

impl ExecProfile {
    /// Adds one partition: its strategy decisions and what it cost.
    fn absorb(&mut self, part: &Prepared) {
        let Prepared { choices, report, .. } = part;
        self.build += report.build;
        self.probe += report.probe;
        self.resolve += report.resolve;
        self.cache.add(&report.cache);
        for &(label, bytes) in &report.footprints {
            match self.artifacts.iter_mut().find(|a| a.label == label) {
                Some(a) => {
                    a.builds += 1;
                    a.bytes += bytes as u64;
                }
                None => {
                    self.artifacts.push(ArtifactFootprint { label, builds: 1, bytes: bytes as u64 })
                }
            }
        }
        for (per_call, s) in self.strategy.per_call.iter_mut().zip(choices) {
            self.strategy.decisions[s.index()] += 1;
            per_call[s.index()] += 1;
        }
        if part.all_naive() {
            self.strategy.cacheless_partitions += 1;
        }
    }
}

/// Rows a segment batch gathers before its calls run over it: enough to
/// spread a call's set-up over thousands of tiny partitions, few enough that
/// the arrays a call builds over the batch stay in cache and reuse the same
/// heap memory batch after batch instead of faulting in fresh pages.
const BATCH_ROWS: usize = 1 << 14;

/// A partition after its own pass.
enum Pass {
    /// Every call chose naive: sorted and framed, for the batch.
    Naive(Prepared),
    /// Every call evaluated.
    Done(PartitionOutput),
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

        // Plan phase: validate every call, then canonicalize what each
        // call's artifacts are made from.
        let plan_start = Instant::now();
        opts.validate()?;
        for call in &self.calls {
            call.validate()?;
        }
        let plan: QueryPlan = plan_query(&self.spec, &self.calls);
        let plan_time = plan_start.elapsed();

        let partitions = partition_rows(table, &self.spec.partition_by)?;
        let mut hoisted = HoistedKeys::default();
        let window_keys = hoist_keys(table, &self.spec, &plan, &mut hoisted)?;

        // Parallelize across partitions when there are many, inside a
        // partition when there are few (§5.2's task model collapses to this
        // two-level scheme here).
        let threads = rayon::current_num_threads();
        let across = opts.parallel && partitions.len() >= 2 * threads;

        // One budget governor per execution, shared by every per-partition
        // cache: charges accumulate across partitions, and eviction can park
        // a cold partition's trees to make room for a hot one's.
        let gov = Arc::new(BudgetGovernor::new(opts.budget));
        let eval = PartitionEval {
            table,
            query: self,
            plan: &plan,
            opts,
            within: opts.parallel && !across,
            window_keys: &window_keys,
            hoisted: &hoisted,
            gov: &gov,
            kernel: AtomicProbeKernel::default(),
        };
        let mut profile = ExecProfile {
            plan: plan_time,
            partitions: partitions.len(),
            strategy: StrategyProfile {
                per_call: vec![[0u64; Strategy::ALL.len()]; self.calls.len()],
                ..StrategyProfile::default()
            },
            ..ExecProfile::default()
        };
        // A partition whose calls all chose naive waits for the batch; any
        // other is evaluated in its own pass.
        let pass = |rows: Vec<usize>| -> Result<Pass> {
            let p = eval.prepare(rows)?;
            if p.all_naive() {
                Ok(Pass::Naive(p))
            } else {
                eval.finish(p).map(Pass::Done)
            }
        };
        // The reports fold in partition order, serially as each partition
        // finishes. There a naive partition's rows and bounds move into the
        // batch and an evaluated one's outputs into the typed output
        // columns, so its frames and values die with its pass. Every profile
        // field is a sum, and a scatter's result does not depend on the
        // order of its writes, so neither depends on the schedule.
        let mut batch = SegmentBatch::new(self.spec.frame.exclusion);
        let mut columns: Vec<ColumnScatter> =
            self.calls.iter().map(|_| ColumnScatter::new(n)).collect();
        // Every call over the batch, outputs scattered, and the batch emptied
        // for the next segments; returns the calls' time.
        let run_batch = |batch: &mut SegmentBatch, columns: &mut [ColumnScatter]| -> Result<_> {
            let mut probe = Duration::ZERO;
            for (ci, column) in columns.iter_mut().enumerate() {
                let probe_start = Instant::now();
                let outs = eval.evaluate_naive(batch, ci, opts.parallel)?;
                probe += probe_start.elapsed();
                column.write(&batch.rows, &outs);
            }
            batch.clear();
            Ok(probe)
        };
        let mut fold = |pass: Pass| -> Result<()> {
            match pass {
                Pass::Naive(p) => {
                    profile.absorb(&p);
                    batch.push(&p.rows, &p.frames);
                    if batch.rows.len() >= BATCH_ROWS {
                        profile.probe += run_batch(&mut batch, &mut columns)?;
                    }
                }
                Pass::Done(PartitionOutput { part, outs }) => {
                    profile.absorb(&part);
                    for (column, outs) in columns.iter_mut().zip(&outs) {
                        column.write(&part.rows, outs);
                    }
                }
            }
            Ok(())
        };
        if across {
            let passes: Vec<Pass> = partitions.into_par_iter().map(pass).collect::<Result<_>>()?;
            passes.into_iter().try_for_each(&mut fold)?;
        } else {
            for rows in partitions {
                fold(pass(rows)?)?;
            }
        }
        if !batch.is_empty() {
            profile.probe += run_batch(&mut batch, &mut columns)?;
        }
        drop(batch);

        let mut out = Table::empty();
        for (call, column) in self.calls.iter().zip(columns) {
            out.add_column(call.output_name.clone(), column.finish()?)?;
        }

        profile.artifacts.sort_by(|a, b| b.bytes.cmp(&a.bytes).then(a.label.cmp(b.label)));
        profile.probe_kernel = eval.kernel.snapshot();
        profile.spill = gov.snapshot();
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
    use crate::value::Value;

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
    fn a_partition_of_no_rows_still_runs_its_calls() {
        // No PARTITION BY over an empty table is one partition of no rows: a
        // segment of the batch, so its calls still reject what they reject
        // on any partition.
        let t = ints(vec![]);
        let over = || WindowQuery::over(WindowSpec::new());
        let bad_fraction =
            over().call(FunctionCall::percentile_disc(1.5, SortKey::asc(col("x"))).named("p"));
        assert!(matches!(bad_fraction.execute(&t), Err(Error::InvalidArgument(_))));
        let unknown = over().call(FunctionCall::sum(col("nope")).named("s"));
        assert!(unknown.execute(&t).is_err());
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
        // Force the MST so the tiny partition isn't evaluated cacheless
        // (this test pins the cache counters).
        let opts = ExecOptions::serial().force_strategy(Strategy::Mst);
        let (out, profile) = q.execute_profiled(&t, opts).unwrap();
        assert_eq!(out.column("med").unwrap().len(), 5);
        assert_eq!(profile.partitions, 1);
        assert!(profile.cache.misses > 0);
        assert_eq!(profile.strategy.decisions[Strategy::Mst.index()], 2);
        assert_eq!(profile.strategy.cacheless_partitions, 0);
        // The median needs exactly one inner sort; the sum needs none.
        assert_eq!(profile.cache.inner_sorts, 1);
        // An integer sum folds prefix sums and counts through the mask: the
        // artifact is there, no segment tree is.
        assert_eq!(profile.cache.segtree_builds, 0);
        assert!(profile.artifacts.iter().any(|a| a.label == "prefix-sums"));
    }

    #[test]
    fn every_build_has_one_footprint_and_a_build_time() {
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
            // Every build was charged to a footprint bucket.
            let builds: u64 = profile.artifacts.iter().map(|a| a.builds).sum();
            assert_eq!(builds, profile.cache.misses, "{}", opts.label());
            let bytes: u64 = profile.artifacts.iter().map(|a| a.bytes).sum();
            assert_eq!(bytes, profile.cache.bytes_built, "{}", opts.label());
            assert!(profile.artifacts.iter().any(|a| a.label == "segtree-sum-f64"));
            assert!(profile.artifacts.windows(2).all(|w| w[0].bytes >= w[1].bytes));
            // The builds are timed into `build`, which holds the sort and
            // the frame resolution too.
            assert!(profile.build > profile.resolve, "{}", opts.label());
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
