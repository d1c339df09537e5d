//! The delta API: amortized incremental window maintenance over appends.
//!
//! [`IncrementalEngine`] holds a [`WindowQuery`] open against a growing
//! table. Each [`IncrementalEngine::append`] ingests a batch of `b` rows and
//! refreshes the query's outputs without re-running the full operator:
//!
//! * **Fast path** (splice): when the frame is a monotonic ROWS frame with
//!   constant bounds, every function call is splice-eligible (see below) and
//!   the batch sorts entirely *after* the existing partition rows (an
//!   end-append — the common time-series shape), the engine splices the new
//!   rows onto the sorted partition, extends the resolved frames and peer
//!   groups in O(b), appends the new keys of every forest ORDER BY key to
//!   that key's [`MstForest`] — the LSM-style logarithmic forest of
//!   arena-flat merge sort trees from `holistic-core` — and probes outputs
//!   for the new rows only. Old outputs are provably unchanged (old ROWS
//!   bounds never reach the new positions), so the refresh is O(b log² n)
//!   amortized instead of O(n log n).
//! * **Recompute path**: anything else (mid-stream inserts, RANGE/GROUPS
//!   frames, per-row bounds, FILTER, ineligible functions, NULL or
//!   mixed-type forest keys) falls back to a per-partition re-sort +
//!   re-evaluation that is bit-identical to [`WindowQuery::execute_with`],
//!   then diffs the outputs to report exactly which rows changed. Untouched
//!   partitions are never revisited.
//!
//! Splice-eligible calls are `COUNT(*)` (frame arithmetic) and the
//! order-statistic family without FILTER — `ROW_NUMBER`, `RANK`,
//! `PERCENT_RANK`, `CUME_DIST`, and `PERCENTILE_DISC`/`CONT` and `MEDIAN`
//! with literal fractions:
//!
//! * A rank-family call that ranks by the window's own ORDER BY (an empty
//!   function-level ORDER BY, or the same criteria spelled out) reads its
//!   output off the peer groups the splice maintains anyway: no forest and no
//!   key encoding, so any window ORDER BY — multi-key, strings, NULLs —
//!   splices.
//! * Every other eligible call orders by a single key and probes a forest
//!   with `count_below` / `count_leq` / `select`. Forests are kept per
//!   partition and per canonical ORDER BY key (direction included, since the
//!   encoding bakes it in), so a median and a p90 over one key share one
//!   forest; each call keeps its own [`ForestCursor`]. The keys must encode
//!   into the forest's `u64` value domain (non-NULL homogeneous integers or
//!   finite floats, order-isomorphically; see `encode_key`).
//!
//! Per partition the engine keeps what the splice reads and nothing else:
//! the sorted rows, their frames, the outputs, the forests and the cursors.
//! A recompute evaluates through caches that are dropped before it returns,
//! as the batch executor's are, so no governed byte outlives it and the
//! hoisted key columns stay uniquely owned and extend in place.
//! [`IncrementalEngine::partition_stats`] and
//! [`IncrementalEngine::strategy_decisions`] are views computed on demand
//! from the kept frames.

use crate::artifacts::BudgetGovernor;
use crate::column::{Column, ColumnScatter, Outputs};
use crate::error::{Error, Result};
use crate::eval::pipeline::{hoist_keys, HoistedKeys, PartitionEval, PartitionOutput, Prepared};
use crate::eval::{cont_rank, cume_dist, disc_rank, percent_rank};
use crate::executor::{AtomicProbeKernel, ExecOptions, SpillStats, WindowQuery};
use crate::expr::Expr;
use crate::frame::{FrameBound, FrameMode, ResolvedFrames};
use crate::order::{
    float_from_ordinal, float_ordinal, int_ordinal, peer_bounds, sort_permutation, KeyColumns,
};
use crate::partition::Partitioner;
use crate::plan::{canonical_order, plan_query, sort_keys_of, Criteria, QueryPlan};
use crate::spec::{FuncKind, FunctionCall};
use crate::strategy::PartitionStats;
use crate::table::Table;
use crate::value::Value;
use holistic_core::{ForestCursor, MstForest, RangeSet};
use rustc_hash::FxHashMap;
use std::cmp::Ordering;
use std::ops::Range;
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
    /// New-row outputs of rank-family calls read off the peer groups (fast
    /// path; these calls rank by the window's ORDER BY and hold no forest).
    pub peer_rank_outputs: usize,
    /// New-row outputs probed from a forest that at least one other call of
    /// the query probes too (fast path).
    pub shared_forest_outputs: usize,
    /// Total sorted runs across all forests after this append (gauge; one
    /// forest per partition and forest ORDER BY key, however many calls
    /// probe it).
    pub forest_runs: usize,
    /// Cumulative run merges performed by all forests (gauge, each forest
    /// counted once).
    pub forest_merges: u64,
    /// Cumulative elements rewritten by forest run merges (gauge, each
    /// forest counted once; divide by total appended elements for the
    /// amortization factor).
    pub forest_rebuilt_elements: u64,
    /// Artifact bytes built by this append's recomputes (the per-build
    /// footprints their caches record; the caches themselves die with each
    /// recompute).
    pub artifact_bytes_built: u64,
    /// Bytes held by the fast path's forests: each forest's run arenas plus
    /// its encoded keys in position order, 8 B per row (gauge, each forest
    /// counted once; observation only — forests are not budget-governed).
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

impl KeyTy {
    /// Inverts [`encode_key`] exactly (bit-faithful, including `-0.0`): the
    /// encoded keys `encs`, NULL where `None`, as a column of this type.
    fn decode(self, encs: impl Iterator<Item = Option<u64>>, desc: bool) -> Column {
        let raw = move |enc: u64| if desc { !enc } else { enc };
        match self {
            KeyTy::Int => Column::from_ints(encs.map(|e| e.map(|e| (raw(e) ^ (1 << 63)) as i64))),
            KeyTy::Float => {
                Column::from_floats(encs.map(|e| e.map(|e| float_from_ordinal(raw(e)))))
            }
        }
    }

    /// One encoded key as the float PERCENTILE_CONT interpolates.
    fn decode_f64(self, enc: u64, desc: bool) -> f64 {
        let raw = if desc { !enc } else { enc };
        match self {
            KeyTy::Int => ((raw ^ (1 << 63)) as i64) as f64,
            KeyTy::Float => float_from_ordinal(raw),
        }
    }
}

/// Static (data-independent) per-call refresh plan.
enum FastPlan {
    /// `COUNT(*)`: pure frame arithmetic, no forest.
    CountStar,
    /// A rank-family call ranking by the window's own ORDER BY: the
    /// partition is sorted by that key, so the peer groups answer it (see
    /// [`peer_rank`]). No forest.
    PeerRank(FuncKind),
    /// Order-statistic probe against the partition's forest in slot `slot`,
    /// shared by every call whose canonical ORDER BY key is
    /// `IncrementalEngine::forest_keys[slot]`.
    Forest {
        /// Index into `IncrementalEngine::forest_keys` and
        /// `PartState::forests`.
        slot: usize,
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

/// One forest slot of the query: a canonical single-criterion ORDER BY key
/// (direction included, since [`encode_key`] bakes it in) and how many calls
/// probe the forests kept for it.
struct ForestKey {
    keys: Criteria,
    calls: usize,
}

/// Per-(partition × forest ORDER BY key) mergeable forest over the encoded
/// keys, shared by every call that orders by that key. Its values in
/// position order (`forest.values()`) are the encoded key per partition
/// position.
struct KeyForest {
    forest: MstForest,
    /// Key domain; pinned by the first encoded value.
    ty: Option<KeyTy>,
}

/// Everything the engine holds per partition: what the splice reads.
struct PartState {
    /// Sorted row indices (window ORDER BY, ties by table index).
    rows: Vec<usize>,
    /// Resolved frames over `rows`.
    frames: ResolvedFrames,
    /// Current outputs, one per call, indexed by position.
    outs: Vec<Outputs>,
    /// Whether this partition's data has stayed forest-eligible.
    fast_ok: bool,
    /// One forest per forest key slot (empty once ineligible).
    forests: Vec<KeyForest>,
    /// One select cursor per call, kept across appends: where the call's
    /// previous row's select ended, since the next row's frame differs by
    /// one row. Per call, not per forest — a median and a p90 over one
    /// forest have different previous answers.
    cursors: Vec<ForestCursor>,
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
    /// The forest slots: one per distinct canonical ORDER BY key that a
    /// forest-planned call orders by.
    forest_keys: Vec<ForestKey>,
    splice: Option<SpliceFrame>,
    /// True when every call has a fast plan *and* the frame is spliceable.
    all_fast: bool,
    table: Table,
    /// PARTITION BY routing; `parts[pid]` is its partition `pid`.
    partitioner: Partitioner,
    parts: Vec<PartState>,
    /// Hoisted key columns (window ORDER BY + every planned inner ORDER BY),
    /// extended in place on append. Uniquely owned between appends: the
    /// caches a recompute seeds with them are dropped before it returns.
    hoisted: HoistedKeys,
    /// Budget governor every recompute's caches charge, so the spill
    /// telemetry covers the engine's whole lifetime.
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
        let mut forest_keys = Vec::new();
        let fast_plans: Vec<Option<FastPlan>> =
            query.calls.iter().map(|c| fast_plan(&query, c, &mut forest_keys)).collect();
        let splice = splice_frame(&query.spec);
        let all_fast = splice.is_some() && fast_plans.iter().all(|p| p.is_some());
        let mut engine = IncrementalEngine {
            opts,
            plan,
            fast_plans,
            forest_keys,
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
    /// subsequent call errors. Rebuild with
    /// [`WindowQuery::begin_incremental`].
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Spill telemetry of the engine's budget governor: bytes spilled,
    /// evictions, re-faults and the resident/peak gauges across the whole
    /// engine lifetime (all appends).
    pub fn spill_stats(&self) -> SpillStats {
        self.gov.snapshot()
    }

    /// Per-partition frame statistics (first-appearance order), computed
    /// from the current frames.
    pub fn partition_stats(&self) -> Vec<PartitionStats> {
        self.parts.iter().map(|ps| PartitionStats::from_frames(&ps.frames)).collect()
    }

    /// Histogram of the per-(partition × call) strategy choices over the
    /// current frames, indexed by [`crate::Strategy::index`]: the
    /// `decisions` histogram of a from-scratch profiled execution on the
    /// grown table.
    pub fn strategy_decisions(&self) -> [u64; crate::Strategy::ALL.len()] {
        let mut h = [0u64; crate::Strategy::ALL.len()];
        for stats in self.partition_stats() {
            for s in PartitionEval::choose(&self.plan, self.opts, &stats) {
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
        let res = self.ingest(from_row, true);
        self.poisoned = res.is_err();
        res
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
        let empty = |_| KeyForest { forest: MstForest::new(self.opts.params), ty: None };
        PartState {
            rows: Vec::new(),
            frames: ResolvedFrames {
                bounds: Vec::new(),
                exclusion: self.query.spec.frame.exclusion,
                peer_start: Vec::new(),
                peer_end: Vec::new(),
            },
            outs: vec![Outputs::default(); self.query.calls.len()],
            fast_ok: true,
            forests: self.forest_keys.iter().map(empty).collect(),
            cursors: vec![ForestCursor::default(); self.query.calls.len()],
        }
    }

    /// Extends every hoisted key column over the table's rows `from_row..`,
    /// then hoists what is still missing as the batch executor does. Returns
    /// the window ORDER BY key columns (a cloned handle).
    fn refresh_hoisted(&mut self, from_row: usize) -> Result<Arc<KeyColumns>> {
        for (ks, kc) in self.hoisted.iter_mut() {
            // Uniquely owned between appends (no cache outlives a
            // recompute), so this extends in place, O(b).
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
        for KeyForest { forest, .. } in self.parts.iter().flat_map(|ps| &ps.forests) {
            profile.forest_runs += forest.num_runs();
            profile.forest_merges += forest.merges();
            profile.forest_rebuilt_elements += forest.rebuilt_elements();
            profile.forest_resident_bytes +=
                (forest.arena_bytes() + std::mem::size_of_val(forest.values())) as u64;
        }
        changed.sort_unstable();
        changed.dedup();
        Ok(AppendResult { changed_outputs: changed, profile })
    }

    /// The O(b) splice refresh. Returns `Ok(false)` when a forest key of the
    /// batch does not encode (NULL / mixed-type / extreme keys) — the partition
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

        // Phase 1 (read-only): encode the batch's keys once per forest key.
        let ps = &self.parts[pid];
        let new_encs: Option<Vec<_>> = (self.forest_keys.iter().zip(&ps.forests))
            .map(|(fk, kf)| self.encode_rows(fk, &ps.rows[m_old..], kf.ty))
            .collect();
        let Some(new_encs) = new_encs else {
            return Ok(self.demote(pid));
        };

        // Phase 2: splice frames and peer groups.
        let sp = self.splice.expect("fast path requires a spliceable frame");
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
        let (start, end) = peer_bounds(wk, &ps.rows[g0..m]);
        ps.frames.peer_start.truncate(g0);
        ps.frames.peer_end.truncate(g0);
        ps.frames.peer_start.extend(start.into_iter().map(|p| p + g0));
        ps.frames.peer_end.extend(end.into_iter().map(|p| p + g0));

        // Phase 3: grow each forest once, then probe outputs for the new rows.
        for (kf, (encs, ty)) in ps.forests.iter_mut().zip(new_encs) {
            kf.forest.append(&encs);
            kf.ty = ty;
        }
        let new = m_old..m;
        let tails: Vec<Column> = (self.fast_plans.iter().enumerate())
            .map(|(ci, fp)| match fp.as_ref().expect("all_fast requires a plan per call") {
                FastPlan::CountStar => Column::ints(
                    new.clone().map(|pos| ps.frames.range_set(pos).count() as i64).collect(),
                ),
                &FastPlan::PeerRank(kind) => peer_ranks(kind, &ps.frames, new.clone()),
                &FastPlan::Forest { slot, desc, p, kind } => {
                    let probe = ForestProbe { kind, p, desc, kf: &ps.forests[slot] };
                    probe.outputs(&mut ps.cursors[ci], &ps.frames, new.clone())
                }
            })
            .collect();
        // Outputs never change type on this path (the key type is the one
        // the batch evaluators saw); should they, the recompute types them.
        if !ps.outs.iter().zip(&tails).all(|(out, tail)| out.takes(tail.data_type())) {
            return Ok(self.demote(pid));
        }
        for (out, tail) in ps.outs.iter_mut().zip(tails) {
            out.extend(tail);
        }
        for fp in self.fast_plans.iter().flatten() {
            match *fp {
                FastPlan::CountStar => {}
                FastPlan::PeerRank(_) => profile.peer_rank_outputs += m - m_old,
                FastPlan::Forest { slot, .. } => {
                    if self.forest_keys[slot].calls > 1 {
                        profile.shared_forest_outputs += m - m_old;
                    }
                }
            }
        }
        Ok(true)
    }

    /// Encodes the forest key `fk` of `rows` (partition rows, in order),
    /// continuing the key domain `ty` that earlier rows pinned. `None` when a
    /// key does not encode (NULL, non-numeric, reserved) or switches type.
    fn encode_rows(
        &self,
        fk: &ForestKey,
        rows: &[usize],
        mut ty: Option<KeyTy>,
    ) -> Option<(Vec<u64>, Option<KeyTy>)> {
        let kc = &self.hoisted[&fk.keys];
        let mut enc = Vec::with_capacity(rows.len());
        for &row in rows {
            let (v, desc) = kc.single_key(row)?;
            let (e, vty) = encode_key(&v, desc)?;
            if *ty.get_or_insert(vty) != vty {
                return None;
            }
            enc.push(e);
        }
        Some((enc, ty))
    }

    /// Demotes a partition off the fast path permanently (data became
    /// forest-ineligible); its forests are dropped.
    fn demote(&mut self, pid: usize) -> bool {
        let ps = &mut self.parts[pid];
        ps.fast_ok = false;
        ps.forests.clear();
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
        let PartitionOutput { part: Prepared { rows, frames, report, .. }, outs } =
            self.evaluator(wk).evaluate(rows)?;
        profile.artifact_bytes_built +=
            report.footprints.iter().map(|&(_, b)| b as u64).sum::<u64>();

        let mut changed: Vec<usize> = Vec::new();
        {
            let old_outs = &self.parts[pid].outs;
            for (pos, &row) in rows.iter().enumerate() {
                match old_index.get(&row) {
                    None => changed.push(row),
                    Some(&op) => {
                        if outs.iter().zip(old_outs).any(|(nc, oc)| !nc.same(pos, oc, op)) {
                            changed.push(row);
                        }
                    }
                }
            }
        }

        // Rebuild each key's forest from the fresh sort (batch build: one
        // run), unless the query can never splice or the partition is
        // demoted.
        let mut forests = Vec::new();
        if self.all_fast && self.parts[pid].fast_ok {
            for fk in &self.forest_keys {
                let Some((enc, ty)) = self.encode_rows(fk, &rows, None) else {
                    self.parts[pid].fast_ok = false;
                    forests.clear();
                    break;
                };
                let mut forest = MstForest::new(self.opts.params);
                forest.append(&enc);
                forests.push(KeyForest { forest, ty });
            }
        }

        let ps = &mut self.parts[pid];
        profile.recomputed_partitions += 1;
        profile.fallback_rows += rows.len();
        ps.rows = rows;
        ps.frames = frames;
        ps.outs = outs;
        ps.forests = forests;
        ps.cursors.fill(ForestCursor::default());
        Ok(changed)
    }
}

/// Derives a call's static fast plan, or `None` when only the recompute
/// path can serve it. A forest-planned call takes the slot of its ORDER BY
/// key in `forest_keys`, adding the key when no earlier call orders by it.
/// Mirrors the probe formulas in `eval/rank.rs` and `eval/select_based.rs` —
/// any situation those handle specially (FILTER, multi-key orders other than
/// the window's, data-dependent fractions) is declared ineligible here.
fn fast_plan(
    query: &WindowQuery,
    call: &FunctionCall,
    forest_keys: &mut Vec<ForestKey>,
) -> Option<FastPlan> {
    use FuncKind::*;
    if call.filter.is_some() {
        return None;
    }
    let (keys, p) = match call.kind {
        CountStar => return Some(FastPlan::CountStar),
        RowNumber | Rank | PercentRank | CumeDist => {
            let keys = canonical_order(call.rank_order(&query.spec));
            if keys == canonical_order(&query.spec.order_by) {
                return Some(FastPlan::PeerRank(call.kind));
            }
            (keys, 0.0)
        }
        Median => (canonical_order(&call.inner_order), 0.5),
        PercentileDisc | PercentileCont => match call.args.first() {
            Some(Expr::Lit(v)) => match v.as_f64() {
                Some(p) if (0.0..=1.0).contains(&p) => (canonical_order(&call.inner_order), p),
                _ => return None,
            },
            _ => return None,
        },
        _ => return None,
    };
    let [key] = &keys[..] else { return None };
    let desc = key.desc;
    let slot = match forest_keys.iter().position(|fk| fk.keys == keys) {
        Some(slot) => slot,
        None => {
            forest_keys.push(ForestKey { keys, calls: 0 });
            forest_keys.len() - 1
        }
    };
    forest_keys[slot].calls += 1;
    Some(FastPlan::Forest { slot, desc, p, kind: call.kind })
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

/// The rank-family outputs for positions `new` of a call that ranks by the
/// window's own ORDER BY, read off the peer groups with the SQL arithmetic
/// of `eval/rank.rs`. The partition is sorted by that key with ties in
/// table-row order, which is also how the batch path's dense codes break
/// ties. So the frame rows ranking below `pos` are the ones before `pos`
/// (ROW_NUMBER), the rows with a smaller key are the ones before
/// `peer_start[pos]` (RANK, PERCENT_RANK), and those with a key at most
/// `pos`'s are the ones before `peer_end[pos]` (CUME_DIST).
fn peer_ranks(kind: FuncKind, frames: &ResolvedFrames, new: Range<usize>) -> Column {
    use FuncKind::*;
    let below = |pos: usize| {
        let hi = match kind {
            RowNumber => pos,
            Rank | PercentRank => frames.peer_start[pos],
            CumeDist => frames.peer_end[pos],
            _ => unreachable!("not a rank-family call"),
        };
        clip_below(&frames.range_set(pos), hi).count()
    };
    if matches!(kind, RowNumber | Rank) {
        return Column::ints(new.map(|pos| (below(pos) + 1) as i64).collect());
    }
    Column::from_floats(new.map(|pos| match frames.range_set(pos).count() {
        0 => None,
        s if kind == PercentRank => Some(percent_rank(below(pos), s)),
        s => Some(cume_dist(below(pos), s)),
    }))
}

/// A forest-planned call's probe over its partition's forest, with the SQL
/// arithmetic of the batch evaluators (`eval/rank.rs`,
/// `eval/select_based.rs`).
struct ForestProbe<'a> {
    kind: FuncKind,
    /// Percentile fraction (0.5 for MEDIAN; unused by the rank family).
    p: f64,
    /// Sort direction baked into the key encoding.
    desc: bool,
    kf: &'a KeyForest,
}

impl ForestProbe<'_> {
    /// The outputs of positions `new`, each over its frame.
    fn outputs(
        &self,
        cur: &mut ForestCursor,
        frames: &ResolvedFrames,
        new: Range<usize>,
    ) -> Column {
        use FuncKind::*;
        let KeyForest { forest, ty } = self.kf;
        let ty = ty.expect("a forest with rows has a key domain");
        let (p, desc) = (self.p, self.desc);
        let at = |pos: usize| (frames.range_set(pos), forest.values()[pos]);
        match self.kind {
            RowNumber => Column::ints(
                new.map(|pos| {
                    // Position `pos`'s dense code orders by (key, position);
                    // rows below it are the strictly-smaller keys plus equal
                    // keys at earlier positions.
                    let (pieces, e) = at(pos);
                    let before = clip_below(&pieces, pos);
                    let eq_before = forest.count_leq(&before, e) - forest.count_below(&before, e);
                    (forest.count_below(&pieces, e) + eq_before + 1) as i64
                })
                .collect(),
            ),
            Rank => Column::ints(
                new.map(|pos| {
                    let (pieces, e) = at(pos);
                    (forest.count_below(&pieces, e) + 1) as i64
                })
                .collect(),
            ),
            PercentRank | CumeDist => Column::from_floats(new.map(|pos| {
                let (pieces, e) = at(pos);
                match pieces.count() {
                    0 => None,
                    s if self.kind == PercentRank => {
                        Some(percent_rank(forest.count_below(&pieces, e), s))
                    }
                    s => Some(cume_dist(forest.count_leq(&pieces, e), s)),
                }
            })),
            // Frames slide by one row between consecutive probes, so the
            // previous answer is almost always still (near) the percentile:
            // the cursor gallops from it in value and from each run's last
            // position, where a cold select would bisect the value domain.
            PercentileDisc | Median => {
                let encs = new.map(|pos| {
                    let pieces = frames.range_set(pos);
                    let s = pieces.count();
                    (s > 0).then(|| {
                        forest
                            .select_with(&pieces, disc_rank(p, s), cur)
                            .expect("rank within frame size")
                    })
                });
                ty.decode(encs, desc)
            }
            PercentileCont => Column::from_floats(new.map(|pos| {
                let pieces = frames.range_set(pos);
                let s = pieces.count();
                if s == 0 {
                    return None;
                }
                let mut at = |j: usize| {
                    let v = forest.select_with(&pieces, j, cur).expect("rank within frame size");
                    ty.decode_f64(v, desc)
                };
                let cr = cont_rank(p, s);
                let x = at(cr.lo);
                Some(cr.interpolate(x, || at(cr.hi)))
            })),
            _ => unreachable!("not a forest-planned call"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_key(enc: u64, desc: bool, ty: KeyTy) -> Value {
        ty.decode(std::iter::once(Some(enc)), desc).get(0)
    }

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
