//! The delta API: amortized incremental window maintenance over appends.
//!
//! [`IncrementalEngine`] holds a [`WindowQuery`] open against a growing
//! table. Each [`IncrementalEngine::append`] ingests a batch of `b` rows and
//! refreshes the query's outputs without re-running the full operator:
//!
//! * **Fast path** (splice): when the frame is a monotonic ROWS frame with
//!   constant bounds, every function call is forest-eligible (see below) and
//!   the batch sorts entirely *after* the existing partition rows (an
//!   end-append — the common time-series shape), the engine splices the new
//!   rows onto the sorted partition, extends the resolved frames and peer
//!   groups in O(b), appends the new ORDER BY keys to a per-call
//!   [`MstForest`] — the LSM-style logarithmic forest of arena-flat merge
//!   sort trees from `holistic-core` — and probes outputs for the new rows
//!   only. Old outputs are provably unchanged (old ROWS bounds never reach
//!   the new positions), so the refresh is O(b log² n) amortized instead of
//!   O(n log n).
//! * **Recompute path**: anything else (mid-stream inserts, RANGE/GROUPS
//!   frames, per-row bounds, FILTER, non-forest functions, NULL or mixed-type
//!   keys) falls back to a per-partition re-sort + re-evaluation that is
//!   bit-identical to [`WindowQuery::execute_with`], then diffs the outputs
//!   to report exactly which rows changed. Untouched partitions are never
//!   revisited.
//!
//! Forest-eligible calls are the single-key order-statistic family —
//! `COUNT(*)`, `ROW_NUMBER`, `RANK`, `PERCENT_RANK`, `CUME_DIST`,
//! `PERCENTILE_DISC`/`CONT` and `MEDIAN` with literal fractions — whose
//! outputs reduce to `count_below` / `count_leq` / `select` probes against
//! the mergeable forest. Their ORDER BY keys must encode into the forest's
//! `u64` value domain (non-NULL homogeneous integers or finite floats,
//! order-isomorphically; see `encode_key`).
//!
//! Per partition the engine also maintains [`StatsAcc`] — the O(b)
//! incrementally-updated [`PartitionStats`] — and re-runs the cost-based
//! strategy choice after every batch, so a partition whose frame profile
//! drifts (say, from narrow sliding frames to wide ones) re-plans without a
//! from-scratch scan. Artifact caches persist per partition and are kept
//! sound through the `ArtifactCache` invalidation hooks: every recompute
//! invalidates all position-space artifacts up front and releases its hoisted
//! key seeds afterwards so the engine's key columns stay uniquely owned and
//! extend in place.

use crate::artifacts::{ArtifactCache, BudgetGovernor};
use crate::column::ColumnScatter;
use crate::error::{Error, Result};
use crate::eval::pipeline::{hoist_keys, HoistedKeys, PartitionEval, PartitionOutput, Prepared};
use crate::eval::{cont_rank, cume_dist, disc_rank, percent_rank};
use crate::executor::{AtomicProbeKernel, ExecOptions, SpillStats, WindowQuery};
use crate::expr::Expr;
use crate::frame::{FrameBound, FrameMode, ResolvedFrames};
use crate::order::{float_from_ordinal, float_ordinal, int_ordinal, sort_permutation, KeyColumns};
use crate::partition::Partitioner;
use crate::plan::{
    canonical_order, plan_query, sort_keys_of, ArtifactKey, CanonicalSortKey, QueryPlan,
};
use crate::spec::{FuncKind, FunctionCall};
use crate::strategy::{PartitionStats, StatsAcc, Strategy};
use crate::table::Table;
use crate::value::Value;
use holistic_core::{ForestCursor, MstForest, RangeSet};
use rustc_hash::FxHashMap;
use std::cmp::Ordering;
use std::sync::Arc;

/// Counters describing what one [`IncrementalEngine::append`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendProfile {
    /// Rows ingested by this append.
    pub appended_rows: usize,
    /// Partitions that received at least one new row.
    pub touched_partitions: usize,
    /// Partitions created by this append.
    pub new_partitions: usize,
    /// Touched partitions refreshed through the O(b) splice fast path.
    pub spliced_partitions: usize,
    /// Touched partitions refreshed through full recompute + diff.
    pub recomputed_partitions: usize,
    /// New rows whose outputs came from forest probes (fast path).
    pub fast_path_rows: usize,
    /// Partition rows re-evaluated by the recompute path.
    pub fallback_rows: usize,
    /// Strategy re-plans whose choices differ from the previous batch.
    pub strategy_replans: usize,
    /// Stale artifacts evicted from partition caches by this append.
    pub evicted_artifacts: usize,
    /// Total sorted runs across all call forests after this append (gauge).
    pub forest_runs: usize,
    /// Cumulative run merges performed by all call forests (gauge).
    pub forest_merges: u64,
    /// Cumulative elements rewritten by forest run merges (gauge; divide by
    /// total appended elements for the amortization factor).
    pub forest_rebuilt_elements: u64,
    /// Artifact bytes built by this append's recomputes (the per-build
    /// footprints the caches record — previously discarded, leaving the
    /// profile blind to artifact memory after the first append).
    pub artifact_bytes_built: u64,
    /// Budget-governed artifact bytes resident after this append (gauge).
    pub resident_artifact_bytes: u64,
    /// High-water mark of budget-governed resident bytes so far (gauge).
    pub peak_resident_artifact_bytes: u64,
    /// Arena bytes held by the fast path's per-call forests (gauge;
    /// observation only — forests are not budget-governed).
    pub forest_resident_bytes: u64,
}

/// What changed after one append.
#[derive(Debug, Clone, Default)]
pub struct AppendResult {
    /// Table row indices whose output values changed (or are new), ascending.
    /// On the fast path this is exactly the batch's rows; on the recompute
    /// path it is the diff against the previous outputs.
    pub changed_outputs: Vec<usize>,
    /// What the engine did to get there.
    pub profile: AppendProfile,
}

/// The forest's `u64` key domain: which SQL type a partition-call's ORDER BY
/// keys encode from. Mixing types (or meeting a NULL) makes a partition-call
/// forest-ineligible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyTy {
    Int,
    Float,
}

/// Encodes one ORDER BY key value into the forest's `u64` domain,
/// order-isomorphically under the sort direction: `a` sorts before `b` iff
/// `encode(a) < encode(b)`. `u64::MAX` is reserved by the forest for
/// `count_leq`, so values encoding to it are rejected (`i64::MAX` ascending,
/// `i64::MIN` descending). NULLs and non-numeric types are rejected.
fn encode_key(v: &Value, desc: bool) -> Option<(u64, KeyTy)> {
    let (raw, ty) = match v {
        Value::Int(x) => (int_ordinal(*x), KeyTy::Int),
        Value::Float(f) if f.is_finite() => (float_ordinal(*f), KeyTy::Float),
        _ => return None,
    };
    let enc = if desc { !raw } else { raw };
    if enc == u64::MAX {
        None
    } else {
        Some((enc, ty))
    }
}

/// Inverts [`encode_key`] exactly (bit-faithful, including `-0.0`).
fn decode_key(enc: u64, desc: bool, ty: KeyTy) -> Value {
    let raw = if desc { !enc } else { enc };
    match ty {
        KeyTy::Int => Value::Int((raw ^ (1 << 63)) as i64),
        KeyTy::Float => Value::Float(float_from_ordinal(raw)),
    }
}

/// Bit-faithful output equality for the recompute diff: floats compare by
/// bits (so `-0.0` vs `0.0` or differing NaN payloads count as changes),
/// everything else structurally.
fn value_bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Static (data-independent) per-call refresh plan.
enum FastPlan {
    /// `COUNT(*)`: pure frame arithmetic, no forest.
    CountStar,
    /// Order-statistic probe against a per-partition [`MstForest`].
    Forest {
        /// Canonical single ORDER BY criterion (the forest's key).
        keys: Vec<CanonicalSortKey>,
        /// Sort direction baked into the key encoding.
        desc: bool,
        /// Percentile fraction (0.5 for MEDIAN; unused by the rank family).
        p: f64,
        /// Which probe formula to run.
        kind: FuncKind,
    },
}

/// Splice-eligible constant ROWS bound.
#[derive(Debug, Clone, Copy)]
enum SpliceBound {
    Unbounded,
    Current,
    Prec(usize),
}

/// Splice-eligible frame: `ROWS BETWEEN {UNBOUNDED|x|0} PRECEDING AND
/// {CURRENT ROW|y PRECEDING}` with literal non-negative offsets. Both old
/// bounds are append-invariant and never reach appended positions, so old
/// outputs are unchanged by an end-append (frame exclusion only punches
/// holes *inside* those bounds and is therefore also safe).
#[derive(Debug, Clone, Copy)]
struct SpliceFrame {
    start: SpliceBound,
    end: SpliceBound,
}

/// Per-(partition × call) mergeable forest over encoded ORDER BY keys.
struct CallForest {
    forest: MstForest,
    /// Encoded key per partition position (sorted order).
    enc: Vec<u64>,
    /// Key domain; pinned by the first encoded value.
    ty: Option<KeyTy>,
    /// Where the previous row's select ended, kept across appends: the
    /// next row's frame differs by one row, so its answer is near.
    cursor: ForestCursor,
}

/// Everything the engine holds per partition.
struct PartState {
    /// Sorted row indices (window ORDER BY, ties by table index).
    rows: Vec<usize>,
    /// Resolved frames over `rows`.
    frames: ResolvedFrames,
    /// Incrementally-maintained frame statistics.
    acc: StatsAcc,
    /// Current per-call strategy choices.
    choices: Vec<Strategy>,
    /// Current outputs, one vector per call, indexed by position.
    outs: Vec<Vec<Value>>,
    /// Whether this partition's data has stayed forest-eligible.
    fast_ok: bool,
    /// One forest per forest-planned call (None once ineligible).
    forests: Vec<Option<CallForest>>,
    /// Persistent artifact cache, kept sound via the invalidation hooks.
    cache: ArtifactCache,
}

/// A window query held open against a growing table (the delta API).
///
/// Built by [`WindowQuery::begin_incremental`]; feed it batches with
/// [`IncrementalEngine::append`] and read refreshed results with
/// [`IncrementalEngine::output_table`]. Results are always bit-identical to
/// re-running [`WindowQuery::execute_with`] on the grown table with the same
/// options.
///
/// ```
/// use holistic_window::prelude::*;
///
/// let base = Table::new(vec![("x", Column::ints(vec![3, 1, 2]))]).unwrap();
/// let query = WindowQuery::over(
///     WindowSpec::new()
///         .order_by(vec![SortKey::asc(col("x"))])
///         .frame(FrameSpec::rows(FrameBound::Preceding(lit(1i64)), FrameBound::CurrentRow)),
/// )
/// .call(FunctionCall::median(col("x")).named("med"));
///
/// let mut engine = query.begin_incremental(&base, ExecOptions::default()).unwrap();
/// let batch = Table::new(vec![("x", Column::ints(vec![5, 4]))]).unwrap();
/// let res = engine.append(&batch).unwrap();
/// assert_eq!(res.changed_outputs, vec![3, 4]); // only the new rows changed
/// assert_eq!(
///     engine.output_table().unwrap().column("med").unwrap().to_values(),
///     query.execute(&engine.table().clone()).unwrap().column("med").unwrap().to_values(),
/// );
/// ```
pub struct IncrementalEngine {
    query: WindowQuery,
    opts: ExecOptions,
    plan: QueryPlan,
    fast_plans: Vec<Option<FastPlan>>,
    splice: Option<SpliceFrame>,
    /// True when every call has a fast plan *and* the frame is spliceable.
    all_fast: bool,
    table: Table,
    /// PARTITION BY routing; `parts[pid]` is its partition `pid`.
    partitioner: Partitioner,
    parts: Vec<PartState>,
    /// Hoisted key columns (window ORDER BY + every planned inner ORDER BY),
    /// extended in place on append. Must stay uniquely owned between appends
    /// — see the seed release in `recompute_partition`.
    hoisted: HoistedKeys,
    /// Budget governor shared by every partition's persistent cache (and by
    /// the per-call caches of private mode), so resident artifact bytes are
    /// bounded across the engine's whole lifetime, not per recompute.
    gov: Arc<BudgetGovernor>,
    poisoned: bool,
}

impl WindowQuery {
    /// Opens this query incrementally over `table` (the delta API): the
    /// returned engine evaluates the query once, then maintains its outputs
    /// across [`IncrementalEngine::append`] batches.
    pub fn begin_incremental(&self, table: &Table, opts: ExecOptions) -> Result<IncrementalEngine> {
        IncrementalEngine::new(self.clone(), table.clone(), opts)
    }
}

impl IncrementalEngine {
    /// Builds the engine and runs the initial evaluation (equivalent to one
    /// [`WindowQuery::execute_with`] pass, plus forest construction).
    pub fn new(query: WindowQuery, table: Table, opts: ExecOptions) -> Result<IncrementalEngine> {
        opts.validate()?;
        for call in &query.calls {
            call.validate()?;
        }
        let plan = plan_query(&query.spec, &query.calls);
        let fast_plans: Vec<Option<FastPlan>> =
            query.calls.iter().map(|c| fast_plan(&query, c)).collect();
        let splice = splice_frame(&query.spec);
        let all_fast = splice.is_some() && fast_plans.iter().all(|p| p.is_some());
        let mut engine = IncrementalEngine {
            opts,
            plan,
            fast_plans,
            splice,
            all_fast,
            partitioner: Partitioner::new(&table, &query.spec.partition_by)?,
            query,
            table,
            parts: Vec::new(),
            hoisted: FxHashMap::default(),
            gov: Arc::new(BudgetGovernor::new(opts.budget)),
            poisoned: false,
        };
        // The initial ingest always recomputes: a from-scratch sort + batch
        // forest build is far cheaper than n splice steps would be.
        engine.ingest(0, false)?;
        Ok(engine)
    }

    /// The grown table as the engine sees it.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// True once an error mid-append left derived state unusable; every
    /// subsequent call errors and the cached artifacts are released. Rebuild
    /// with [`WindowQuery::begin_incremental`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Spill telemetry of the engine's budget governor: bytes spilled,
    /// evictions, re-faults and the resident/peak gauges across the whole
    /// engine lifetime (all appends).
    pub fn spill_stats(&self) -> SpillStats {
        self.gov.snapshot()
    }

    /// Current per-partition frame statistics (first-appearance order),
    /// maintained incrementally by [`StatsAcc`].
    pub fn partition_stats(&self) -> Vec<PartitionStats> {
        self.parts.iter().map(|p| p.acc.stats()).collect()
    }

    /// Histogram of current per-(partition × call) strategy choices, indexed
    /// by [`Strategy::index`]. Comparable against the `decisions` histogram
    /// of a from-scratch profiled execution.
    pub fn strategy_decisions(&self) -> [u64; 5] {
        let mut h = [0u64; 5];
        for ps in &self.parts {
            for s in &ps.choices {
                h[s.index()] += 1;
            }
        }
        h
    }

    /// Ingests one batch of rows and refreshes the query's outputs.
    ///
    /// `batch` must carry exactly the table's columns (name, order and
    /// push-compatible types). A batch rejected by that validation leaves the
    /// engine untouched and usable; an error past that point (a query error
    /// surfaced by the new data, exactly as [`WindowQuery::execute_with`]
    /// would report on the grown table) poisons the engine.
    pub fn append(&mut self, batch: &Table) -> Result<AppendResult> {
        if self.poisoned {
            return Err(Error::Unsupported(
                "incremental engine is poisoned by an earlier error; rebuild it".into(),
            ));
        }
        let from_row = self.table.num_rows();
        self.table.append_rows(batch)?;
        match self.ingest(from_row, true) {
            Ok(res) => Ok(res),
            Err(e) => {
                // Nothing will read the derived state again: give the
                // governed bytes back now, not when the engine is dropped.
                self.poisoned = true;
                for ps in &self.parts {
                    ps.cache.invalidate_all();
                }
                Err(e)
            }
        }
    }

    /// The refreshed output table: one column per call, in the original row
    /// order of the grown input (the same scatter as the batch executor).
    pub fn output_table(&self) -> Result<Table> {
        if self.poisoned {
            return Err(Error::Unsupported(
                "incremental engine is poisoned by an earlier error; rebuild it".into(),
            ));
        }
        let n = self.table.num_rows();
        let mut out = Table::empty();
        for (ci, call) in self.query.calls.iter().enumerate() {
            let mut column = ColumnScatter::new(n);
            for ps in &self.parts {
                column.write(&ps.rows, &ps.outs[ci]);
            }
            out.add_column(call.output_name.clone(), column.finish()?)?;
        }
        Ok(out)
    }

    /// Routes rows `from_row..` to partitions, creating new ones as needed.
    /// Returns `(pid, new rows in table order)` in first-touch order.
    fn route_rows(
        &mut self,
        from_row: usize,
        profile: &mut AppendProfile,
    ) -> Result<Vec<(usize, Vec<usize>)>> {
        let touched = self.partitioner.route(&self.table, from_row)?;
        profile.new_partitions = self.partitioner.num_partitions() - self.parts.len();
        for _ in 0..profile.new_partitions {
            self.parts.push(self.new_part());
        }
        Ok(touched)
    }

    fn new_part(&self) -> PartState {
        let forest = |fp: &Option<FastPlan>| match fp {
            Some(FastPlan::Forest { .. }) => Some(CallForest {
                forest: MstForest::new(self.opts.params),
                enc: Vec::new(),
                ty: None,
                cursor: ForestCursor::default(),
            }),
            _ => None,
        };
        PartState {
            rows: Vec::new(),
            frames: ResolvedFrames {
                bounds: Vec::new(),
                exclusion: self.query.spec.frame.exclusion,
                peer_start: Vec::new(),
                peer_end: Vec::new(),
            },
            acc: StatsAcc::new(),
            choices: Vec::new(),
            outs: vec![Vec::new(); self.query.calls.len()],
            fast_ok: true,
            forests: self.fast_plans.iter().map(forest).collect(),
            cache: ArtifactCache::new(Arc::clone(&self.gov)),
        }
    }

    /// Extends every hoisted key column over the table's rows `from_row..`,
    /// then hoists what is still missing as the batch executor does. Returns
    /// the window ORDER BY key columns (a cloned handle).
    fn refresh_hoisted(&mut self, from_row: usize) -> Result<Arc<KeyColumns>> {
        for (ks, kc) in self.hoisted.iter_mut() {
            // Uniquely owned between appends (seeds are released after
            // every recompute), so this extends in place, O(b).
            Arc::make_mut(kc).extend(&self.table, &sort_keys_of(ks), from_row)?;
        }
        hoist_keys(&self.table, &self.query.spec, &self.plan, &mut self.hoisted)
    }

    /// The per-partition pipeline over the engine's current table.
    fn evaluator<'a>(&'a self, window_keys: &'a KeyColumns) -> PartitionEval<'a> {
        PartitionEval {
            table: &self.table,
            query: &self.query,
            plan: &self.plan,
            opts: self.opts,
            within: self.opts.parallel,
            window_keys,
            hoisted: &self.hoisted,
            gov: &self.gov,
            kernel: AtomicProbeKernel::default(),
        }
    }

    /// Shared ingest for construction (`allow_fast = false`) and appends.
    fn ingest(&mut self, from_row: usize, allow_fast: bool) -> Result<AppendResult> {
        let mut profile =
            AppendProfile { appended_rows: self.table.num_rows() - from_row, ..Default::default() };
        let mut changed: Vec<usize> = Vec::new();
        if profile.appended_rows > 0 {
            let wk = self.refresh_hoisted(from_row)?;
            let touched = self.route_rows(from_row, &mut profile)?;
            profile.touched_partitions = touched.len();
            for (pid, mut new_rows) in touched {
                sort_permutation(&wk, &mut new_rows, self.opts.parallel);
                let m_old = self.parts[pid].rows.len();
                let end_append = m_old == 0
                    || wk.cmp_rows(new_rows[0], self.parts[pid].rows[m_old - 1]) != Ordering::Less;
                self.parts[pid].rows.extend_from_slice(&new_rows);
                let fast = allow_fast
                    && end_append
                    && self.all_fast
                    && self.parts[pid].fast_ok
                    && self.try_fast(pid, m_old, &wk, &mut profile)?;
                if fast {
                    profile.spliced_partitions += 1;
                    profile.fast_path_rows += new_rows.len();
                    changed.extend_from_slice(&new_rows);
                } else {
                    changed.extend(self.recompute_partition(pid, m_old, &wk, &mut profile)?);
                }
            }
        }
        for ps in &self.parts {
            for cf in ps.forests.iter().flatten() {
                profile.forest_runs += cf.forest.num_runs();
                profile.forest_merges += cf.forest.merges();
                profile.forest_rebuilt_elements += cf.forest.rebuilt_elements();
                profile.forest_resident_bytes += cf.forest.arena_bytes() as u64;
            }
        }
        let spill = self.gov.snapshot();
        profile.resident_artifact_bytes = spill.resident;
        profile.peak_resident_artifact_bytes = spill.peak_resident;
        changed.sort_unstable();
        changed.dedup();
        Ok(AppendResult { changed_outputs: changed, profile })
    }

    /// The O(b) splice refresh. Returns `Ok(false)` when the batch's data is
    /// forest-ineligible (NULL / mixed-type / extreme keys) — the partition
    /// is then permanently demoted to the recompute path, which the caller
    /// runs next (safe: recompute rebuilds all derived state from `rows`,
    /// and the extended `rows` equal their from-scratch sort for an
    /// end-append).
    fn try_fast(
        &mut self,
        pid: usize,
        m_old: usize,
        wk: &Arc<KeyColumns>,
        profile: &mut AppendProfile,
    ) -> Result<bool> {
        let m = self.parts[pid].rows.len();

        // Phase 1 (read-only): encode the batch's keys for every forest call.
        let mut new_encs: Vec<Option<(Vec<u64>, KeyTy)>> =
            Vec::with_capacity(self.fast_plans.len());
        for (ci, fp) in self.fast_plans.iter().enumerate() {
            let Some(FastPlan::Forest { keys, desc, .. }) = fp else {
                new_encs.push(None);
                continue;
            };
            let kc = Arc::clone(&self.hoisted[keys]);
            let ps = &self.parts[pid];
            let mut ty = ps.forests[ci].as_ref().and_then(|cf| cf.ty);
            let mut encs = Vec::with_capacity(m - m_old);
            for pos in m_old..m {
                let row = ps.rows[pos];
                let Some((v, kdesc)) = kc.single_key(row) else {
                    return Ok(self.demote(pid));
                };
                debug_assert_eq!(kdesc, *desc);
                let Some((enc, vty)) = encode_key(&v, *desc) else {
                    return Ok(self.demote(pid));
                };
                if *ty.get_or_insert(vty) != vty {
                    return Ok(self.demote(pid));
                }
                encs.push(enc);
            }
            new_encs.push(Some((encs, ty.expect("batch is non-empty"))));
        }

        // Phase 2: splice frames and peer groups.
        let sp = self.splice.expect("fast path requires a spliceable frame");
        {
            let ps = &mut self.parts[pid];
            for i in m_old..m {
                let start = match sp.start {
                    SpliceBound::Unbounded => 0,
                    SpliceBound::Current => i,
                    SpliceBound::Prec(off) => i.saturating_sub(off.min(m)),
                };
                let end = match sp.end {
                    SpliceBound::Current => i + 1,
                    SpliceBound::Prec(off) => (i + 1).saturating_sub(off.min(m)),
                    SpliceBound::Unbounded => unreachable!("no UNBOUNDED frame end splice"),
                };
                ps.frames.bounds.push((start, end.max(start).min(m)));
            }
            // Peer groups: the batch may extend the last old group.
            let g0 = if m_old > 0 && wk.rows_equal(ps.rows[m_old], ps.rows[m_old - 1]) {
                ps.frames.peer_start[m_old - 1]
            } else {
                m_old
            };
            ps.frames.peer_start.truncate(g0);
            ps.frames.peer_end.truncate(g0);
            let mut g = g0;
            while g < m {
                let mut e = g + 1;
                while e < m && wk.rows_equal(ps.rows[e], ps.rows[g]) {
                    e += 1;
                }
                for _ in g..e {
                    ps.frames.peer_start.push(g);
                    ps.frames.peer_end.push(e);
                }
                g = e;
            }
            ps.acc.extend(&ps.frames, m_old);
        }

        // Phase 3: re-plan strategies from the updated statistics. The fast
        // path's own probes don't consult the choices (outputs are invariant
        // under strategy), but the next recompute — and the engine's
        // decision telemetry — must see current ones.
        let choices = self.evaluator(wk).choose(&self.parts[pid].acc.stats());
        if choices != self.parts[pid].choices {
            profile.strategy_replans += 1;
            self.parts[pid].choices = choices;
        }

        // Phase 4: grow the forests and probe outputs for the new rows.
        for (ci, fp) in self.fast_plans.iter().enumerate() {
            let ps = &mut self.parts[pid];
            match fp {
                Some(FastPlan::CountStar) => {
                    for pos in m_old..m {
                        ps.outs[ci].push(Value::Int(ps.frames.range_set(pos).count() as i64));
                    }
                }
                Some(FastPlan::Forest { desc, p, kind, .. }) => {
                    let (encs, ty) =
                        new_encs[ci].as_ref().expect("phase 1 encoded every forest call");
                    let cf = ps.forests[ci].as_mut().expect("fast_ok partitions keep forests");
                    cf.enc.extend_from_slice(encs);
                    cf.forest.append(encs);
                    cf.ty = Some(*ty);
                    for pos in m_old..m {
                        let pieces = ps.frames.range_set(pos);
                        ps.outs[ci].push(probe_value(*kind, *p, cf, &pieces, pos, *desc, *ty));
                    }
                }
                None => unreachable!("all_fast requires a plan per call"),
            }
        }
        Ok(true)
    }

    /// Demotes a partition off the fast path permanently (data became
    /// forest-ineligible); its forests are dropped.
    fn demote(&mut self, pid: usize) -> bool {
        let ps = &mut self.parts[pid];
        ps.fast_ok = false;
        for f in ps.forests.iter_mut() {
            *f = None;
        }
        false
    }

    /// Full per-partition refresh: re-sort, re-resolve, re-evaluate (the
    /// batch executor's pipeline, by the same call), then diff outputs
    /// against the previous state. Returns the changed table rows.
    fn recompute_partition(
        &mut self,
        pid: usize,
        m_old: usize,
        wk: &Arc<KeyColumns>,
        profile: &mut AppendProfile,
    ) -> Result<Vec<usize>> {
        // Snapshot old positions for the diff, then take the rows (the new
        // ones are already appended, possibly splice-sorted — a full re-sort
        // subsumes any partial state).
        let old_index: FxHashMap<usize, usize> =
            self.parts[pid].rows[..m_old].iter().enumerate().map(|(pos, &r)| (r, pos)).collect();
        let rows = std::mem::take(&mut self.parts[pid].rows);
        // Positions shift, so every position-space artifact of the
        // partition's persistent cache is stale: invalidate up front.
        let cache = &self.parts[pid].cache;
        profile.evicted_artifacts += cache.invalidate_all();
        let PartitionOutput { part: Prepared { rows, frames, acc, choices, report }, outs } =
            self.evaluator(wk).evaluate(rows, Some(cache))?;
        // Release the key seeds so the engine's hoisted Arcs stay uniquely
        // owned and extend in place on the next append.
        cache.invalidate_where(|k| matches!(k, ArtifactKey::InnerKeys(_)));
        profile.artifact_bytes_built +=
            report.footprints.iter().map(|&(_, b)| b as u64).sum::<u64>();
        if choices != self.parts[pid].choices {
            profile.strategy_replans += 1;
        }

        let mut changed: Vec<usize> = Vec::new();
        {
            let old_outs = &self.parts[pid].outs;
            for (pos, &row) in rows.iter().enumerate() {
                match old_index.get(&row) {
                    None => changed.push(row),
                    Some(&op) => {
                        if outs
                            .iter()
                            .zip(old_outs)
                            .any(|(nc, oc)| !value_bits_eq(&nc[pos], &oc[op]))
                        {
                            changed.push(row);
                        }
                    }
                }
            }
        }

        // Rebuild forests from the fresh sort (batch build: one run), unless
        // the query can never splice or the partition is demoted.
        let mut forests: Vec<Option<CallForest>> =
            (0..self.query.calls.len()).map(|_| None).collect();
        if self.all_fast && self.parts[pid].fast_ok {
            'calls: for (ci, fp) in self.fast_plans.iter().enumerate() {
                let Some(FastPlan::Forest { keys, desc, .. }) = fp else { continue };
                let kc = &self.hoisted[keys];
                let mut ty: Option<KeyTy> = None;
                let mut enc = Vec::with_capacity(rows.len());
                for &row in &rows {
                    let eligible = kc
                        .single_key(row)
                        .and_then(|(v, _)| encode_key(&v, *desc))
                        .filter(|(_, vty)| *ty.get_or_insert(*vty) == *vty);
                    match eligible {
                        Some((e, _)) => enc.push(e),
                        None => {
                            self.parts[pid].fast_ok = false;
                            forests.iter_mut().for_each(|f| *f = None);
                            break 'calls;
                        }
                    }
                }
                let mut forest = MstForest::new(self.opts.params);
                forest.append(&enc);
                forests[ci] = Some(CallForest { forest, enc, ty, cursor: ForestCursor::default() });
            }
        }

        let ps = &mut self.parts[pid];
        profile.recomputed_partitions += 1;
        profile.fallback_rows += rows.len();
        ps.rows = rows;
        ps.frames = frames;
        ps.acc = acc;
        ps.choices = choices;
        ps.outs = outs;
        ps.forests = forests;
        Ok(changed)
    }
}

/// Derives a call's static fast plan, or `None` when only the recompute
/// path can serve it. Mirrors the probe formulas in `eval/rank.rs` and
/// `eval/select_based.rs` — any situation those handle specially (FILTER,
/// multi-key orders, data-dependent fractions) is declared ineligible here.
fn fast_plan(query: &WindowQuery, call: &FunctionCall) -> Option<FastPlan> {
    use FuncKind::*;
    if call.filter.is_some() {
        return None;
    }
    match call.kind {
        CountStar => Some(FastPlan::CountStar),
        RowNumber | Rank | PercentRank | CumeDist => {
            let keys = canonical_order(call.rank_order(&query.spec));
            forest_plan(keys, 0.0, call.kind)
        }
        PercentileDisc | PercentileCont | Median => {
            let p = if call.kind == Median {
                0.5
            } else {
                match call.args.first() {
                    Some(Expr::Lit(v)) => match v.as_f64() {
                        Some(p) if (0.0..=1.0).contains(&p) => p,
                        _ => return None,
                    },
                    _ => return None,
                }
            };
            forest_plan(canonical_order(&call.inner_order), p, call.kind)
        }
        _ => None,
    }
}

fn forest_plan(keys: Vec<CanonicalSortKey>, p: f64, kind: FuncKind) -> Option<FastPlan> {
    if keys.len() != 1 {
        return None;
    }
    let desc = sort_keys_of(&keys)[0].desc;
    Some(FastPlan::Forest { keys, desc, p, kind })
}

/// Derives the splice plan when the frame is a constant monotonic ROWS
/// frame. Old rows' bounds are then append-invariant (offsets are clamped to
/// the partition size `m`, but for bounds that only look backwards the clamp
/// never changes a result) and never reach appended positions.
fn splice_frame(spec: &crate::spec::WindowSpec) -> Option<SpliceFrame> {
    if spec.frame.mode != FrameMode::Rows {
        return None;
    }
    let lit_off = |e: &Expr| -> Option<usize> {
        match e {
            Expr::Lit(Value::Int(x)) if *x >= 0 => usize::try_from(*x).ok(),
            _ => None,
        }
    };
    let start = match &spec.frame.start {
        FrameBound::UnboundedPreceding => SpliceBound::Unbounded,
        FrameBound::CurrentRow => SpliceBound::Current,
        FrameBound::Preceding(e) => SpliceBound::Prec(lit_off(e)?),
        _ => return None,
    };
    let end = match &spec.frame.end {
        FrameBound::CurrentRow => SpliceBound::Current,
        FrameBound::Preceding(e) => SpliceBound::Prec(lit_off(e)?),
        _ => return None,
    };
    Some(SpliceFrame { start, end })
}

/// Restricts a range set to positions `< hi`.
fn clip_below(rs: &RangeSet, hi: usize) -> RangeSet {
    let mut out = RangeSet::empty();
    for (a, b) in rs.iter() {
        if a >= hi {
            break;
        }
        out.push(a, b.min(hi));
    }
    out
}

/// One forest probe: computes a forest-eligible call's output for new
/// position `pos` over its frame `pieces`, with the SQL arithmetic of the
/// batch evaluators (`eval/rank.rs`, `eval/select_based.rs`).
fn probe_value(
    kind: FuncKind,
    p: f64,
    cf: &mut CallForest,
    pieces: &RangeSet,
    pos: usize,
    desc: bool,
    ty: KeyTy,
) -> Value {
    use FuncKind::*;
    let CallForest { forest, enc, cursor: cur, .. } = cf;
    let e = enc[pos];
    match kind {
        RowNumber => {
            // Position `pos`'s dense code orders by (key, position); rows
            // below it are the strictly-smaller keys plus equal keys at
            // earlier positions.
            let below = forest.count_below(pieces, e);
            let before = clip_below(pieces, pos);
            let eq_before = forest.count_leq(&before, e) - forest.count_below(&before, e);
            Value::Int((below + eq_before + 1) as i64)
        }
        Rank => Value::Int((forest.count_below(pieces, e) + 1) as i64),
        PercentRank => {
            let s = pieces.count();
            if s == 0 {
                return Value::Null;
            }
            Value::Float(percent_rank(forest.count_below(pieces, e), s))
        }
        CumeDist => {
            let s = pieces.count();
            if s == 0 {
                return Value::Null;
            }
            Value::Float(cume_dist(forest.count_leq(pieces, e), s))
        }
        PercentileDisc | Median => {
            let s = pieces.count();
            if s == 0 {
                return Value::Null;
            }
            // Frames slide by one row between consecutive probes, so the
            // previous answer is almost always still (near) the percentile:
            // the cursor gallops from it in value and from each run's last
            // position, where a cold select would bisect the value domain.
            let v =
                forest.select_with(pieces, disc_rank(p, s), cur).expect("rank within frame size");
            decode_key(v, desc, ty)
        }
        PercentileCont => {
            let s = pieces.count();
            if s == 0 {
                return Value::Null;
            }
            let mut at = |j: usize| -> f64 {
                let v = forest.select_with(pieces, j, cur).expect("rank within frame size");
                decode_key(v, desc, ty).as_f64().expect("numeric forest key")
            };
            let cr = cont_rank(p, s);
            let x = at(cr.lo);
            Value::Float(cr.interpolate(x, || at(cr.hi)))
        }
        _ => unreachable!("not a forest-planned call"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_keys_encode_order_isomorphically() {
        let vals = [i64::MIN, -5, -1, 0, 1, 7, i64::MAX - 1];
        for w in vals.windows(2) {
            for desc in [false, true] {
                // The per-direction extreme (i64::MIN descending) is
                // ineligible; order/roundtrip only applies to encodable keys.
                let (Some((a, _)), Some((b, _))) =
                    (encode_key(&Value::Int(w[0]), desc), encode_key(&Value::Int(w[1]), desc))
                else {
                    continue;
                };
                assert_eq!(a < b, !desc, "{:?} desc={desc}", w);
                assert_eq!(decode_key(a, desc, KeyTy::Int), Value::Int(w[0]));
            }
        }
        // The forest reserves u64::MAX: the extreme key per direction bails.
        assert!(encode_key(&Value::Int(i64::MAX), false).is_none());
        assert!(encode_key(&Value::Int(i64::MIN), true).is_none());
    }

    #[test]
    fn float_keys_encode_total_order() {
        let vals = [f64::NEG_INFINITY + 1.0, -2.5, -0.0, 0.0, 1.5, 1e300];
        let vals: Vec<f64> = vals.into_iter().filter(|f| f.is_finite()).collect();
        for w in vals.windows(2) {
            let (a, _) = encode_key(&Value::Float(w[0]), false).unwrap();
            let (b, _) = encode_key(&Value::Float(w[1]), false).unwrap();
            assert!(a < b, "{:?}", w);
        }
        // Bit-faithful roundtrip, including the sign of zero.
        for f in vals {
            for desc in [false, true] {
                let (e, _) = encode_key(&Value::Float(f), desc).unwrap();
                match decode_key(e, desc, KeyTy::Float) {
                    Value::Float(g) => assert_eq!(f.to_bits(), g.to_bits()),
                    other => panic!("expected float, got {other:?}"),
                }
            }
        }
        assert!(encode_key(&Value::Float(f64::NAN), false).is_none());
        assert!(encode_key(&Value::Float(f64::INFINITY), false).is_none());
        assert!(encode_key(&Value::Null, false).is_none());
        assert!(encode_key(&Value::str("x"), false).is_none());
    }

    #[test]
    fn splice_eligibility() {
        use crate::expr::lit;
        use crate::frame::FrameSpec;
        use crate::spec::WindowSpec;
        let spec = |f: FrameSpec| WindowSpec { frame: f, ..WindowSpec::new() };
        let ok = FrameSpec::rows(FrameBound::Preceding(lit(3i64)), FrameBound::CurrentRow);
        assert!(splice_frame(&spec(ok)).is_some());
        let unbounded =
            FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::Preceding(lit(1i64)));
        assert!(splice_frame(&spec(unbounded)).is_some());
        let following = FrameSpec::rows(FrameBound::CurrentRow, FrameBound::Following(lit(1i64)));
        assert!(splice_frame(&spec(following)).is_none());
        let per_row =
            FrameSpec::rows(FrameBound::Preceding(crate::expr::col("x")), FrameBound::CurrentRow);
        assert!(splice_frame(&spec(per_row)).is_none());
        let range = FrameSpec::range(FrameBound::Preceding(lit(3i64)), FrameBound::CurrentRow);
        assert!(splice_frame(&spec(range)).is_none());
    }
}
