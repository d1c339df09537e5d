//! The traced run (`--trace 1`): per-layer metrics, all taken from outside.
//!
//! Two parts. First the session pipeline, decomposed through the public
//! functions `SqlSession::query` itself calls (`parse_query` → `plan` →
//! `execute_plan`, then each planned window through `execute_profiled`, with
//! the returned `ExecProfile` attached to the span as attributes). Then each
//! layer's public function in isolation on this workload's own partitions,
//! keys and resolved frames. The replay measures what a layer costs on this
//! data, not what the engine chose to run — `strategy.decisions.*` says that.

use crate::metrics::{median, percentile, Values};
use crate::run::{guarded, oracle, same_checksum, setup_query, setup_stream, RunConfig, RunResult};
use crate::trace::{span_cost_ns, Tracer};
use crate::verify::{checksum, tables_close, tables_identical};
use crate::workloads::{Kind, BATCH_ROWS};
use holistic_core::{dense_codes, prev_idcs_u64, sort, BlockScratch, MergeSortTree, MstForest};
use holistic_core::{MstParams, RangeSet};
use holistic_segtree::{SegmentTree, SumMonoid};
use holistic_sql::{execute_plan, parse_query, plan, SqlPlan};
use holistic_strategies::incremental;
use holistic_window::frame::{resolve_frames, ResolvedFrames};
use holistic_window::hash::hash_value;
use holistic_window::order::{sort_permutation, KeyColumns};
use holistic_window::partition::partition_rows;
use holistic_window::strategy::{applicable, choose};
use holistic_window::{CallClass, Column, CostModel, ExecOptions, ExecProfile, PartitionStats};
use holistic_window::{Strategy, StrategyMode, Table};
use std::hint::black_box;

/// Traced iterations of the decomposed session pipeline.
const TRACED_OPS: usize = 3;
/// Parallel reference runs (`exec.parallel_ms` is their median).
const PARALLEL_OPS: usize = 3;
/// Rows per block-kernel call, as the engine's evaluators use.
const PROBE_BLOCK: usize = 256;
/// The replay probes at most this many rows per kernel (evenly strided), so
/// a traced run stays a few seconds at every workload size.
const MAX_PROBES: usize = 200_000;
/// A forced strategy is run only when the cost model predicts at most this
/// many ns for it; the ones left out are far from the best by the model's own
/// account and would take minutes on wide non-monotonic frames.
const FORCED_COST_CAP_NS: f64 = 2e9;
/// The sliding-state replays run only when the cost model predicts at most
/// this many ns for them: on wide or non-monotonic frames they are quadratic.
const REPLAY_COST_CAP_NS: f64 = 1e9;
/// `strategy.decisions.*` metric names, in [`Strategy::index`] order.
const DECISIONS: [&str; 5] = [
    "strategy.decisions.naive",
    "strategy.decisions.incremental",
    "strategy.decisions.ostree",
    "strategy.decisions.segtree",
    "strategy.decisions.mst",
];
/// Replay columns: the value every percentile/rank call orders by, the
/// distinct-count column, and the summed column.
const VALUE_COL: &str = "l_extendedprice";
const DISTINCT_COL: &str = "l_partkey";
const SUM_COL: &str = "l_quantity";

fn ints<'a>(table: &'a Table, name: &str) -> Result<&'a [i64], String> {
    match table.column(name).map_err(|e| e.to_string())? {
        Column::Int(v, _) => Ok(v),
        other => Err(format!("column {name} is {:?}, expected Int", other.data_type())),
    }
}

/// The traced run of one workload.
pub fn run_traced(cfg: &RunConfig) -> (RunResult, Tracer) {
    let tracer = Tracer::new();
    let mut res = RunResult::default();
    let done = match cfg.workload.kind {
        Kind::Query => guarded(|| trace_query(cfg, &tracer, &mut res)),
        Kind::AppendStream => guarded(|| trace_stream(cfg, &tracer, &mut res)),
    };
    res.check("traced run", done);
    res.samples = tracer.ms_by_op("session.query").len() + tracer.ms_by_op("append.append").len();

    // Instrument health: what recording the spans itself cost.
    let roots: f64 =
        tracer.spans().iter().filter(|s| s.parent.is_none()).map(|s| s.dur_ns() as f64).sum();
    res.values.set("trace.spans", tracer.len() as f64);
    res.values.set(
        "trace.overhead_pct",
        if roots > 0.0 { 100.0 * tracer.len() as f64 * span_cost_ns() / roots } else { 0.0 },
    );
    (res, tracer)
}

/// One window of the plan, replayed through partition → sort → frames.
struct WindowReplay {
    /// Partition rows in window order.
    sorted: Vec<Vec<usize>>,
    frames: Vec<ResolvedFrames>,
    stats: Vec<PartitionStats>,
}

fn replay_window(
    tracer: &Tracer,
    table: &Table,
    w: &holistic_window::WindowQuery,
) -> Result<WindowReplay, String> {
    tracer.next_op();
    let (parts, _) =
        tracer.span("partition.partition_rows", || partition_rows(table, &w.spec.partition_by));
    let parts = parts.map_err(|e| e.to_string())?;
    let (keys, _) = tracer.span("order.keys", || KeyColumns::evaluate(table, &w.spec.order_by));
    let keys = keys.map_err(|e| e.to_string())?;
    let (sorted, id) = tracer.span("order.sort", || {
        parts
            .iter()
            .map(|p| {
                let mut rows = p.clone();
                sort_permutation(&keys, &mut rows, false);
                rows
            })
            .collect::<Vec<_>>()
    });
    tracer.attr(id, "partitions", sorted.len() as f64);
    let (frames, id) = tracer.span("frame.resolve", || {
        sorted
            .iter()
            .map(|rows| resolve_frames(table, rows, &keys, &w.spec.frame))
            .collect::<Result<Vec<_>, _>>()
    });
    let frames = frames.map_err(|e| e.to_string())?;
    let frame_rows: usize = frames.iter().flat_map(|f| f.bounds.iter()).map(|&(a, b)| b - a).sum();
    tracer.attr(id, "frame_rows", frame_rows as f64);
    let stats = frames.iter().map(PartitionStats::from_frames).collect();
    Ok(WindowReplay { sorted, frames, stats })
}

/// What the cost model predicts for forcing `s` on the whole query, and
/// whether `s` applies to any (partition × call) at all.
fn forced_prediction(plan: &SqlPlan, replays: &[WindowReplay], s: Strategy) -> (f64, bool) {
    let model = CostModel::default();
    let (mut ns, mut applies) = (0.0, false);
    for (w, r) in plan.windows.iter().zip(replays) {
        for call in &w.calls {
            let class = CallClass::of(call);
            for st in &r.stats {
                applies |= applicable(s, class, st);
                ns += model.cost(choose(StrategyMode::Force(s), class, st, &model), class, st);
            }
        }
    }
    (ns, applies)
}

fn trace_query(cfg: &RunConfig, tracer: &Tracer, res: &mut RunResult) -> Result<(), String> {
    let w = &cfg.workload;
    let (sql, opts, n) = (w.sql.as_str(), cfg.opts(), cfg.rows());
    let v = &mut res.values;

    oracle(cfg)?;
    tracer.next_op();
    let (table, _) = tracer.span("tpch.generate", || w.generate(n, cfg.seed));
    v.set("tpch.gen_ms", tracer.ms_by_op("tpch.generate")[0]);
    let qs = setup_query(cfg)?;
    res.checksum = qs.checksum;
    let same = |what: &str, out: &Table| {
        same_checksum(checksum(out), qs.checksum).map_err(|e| format!("{what}: {e}"))
    };

    // 1. The session pipeline, decomposed.
    let mut last: Option<(SqlPlan, Table, Vec<ExecProfile>)> = None;
    let mut window_ms = Vec::new();
    for _ in 0..TRACED_OPS {
        tracer.next_op();
        let (r, _) = tracer.span("session.query", || -> Result<_, String> {
            let (q, _) = tracer.span("sql.parse", || parse_query(sql));
            let q = q.map_err(|e| e.to_string())?;
            let (p, _) = tracer.span("sql.plan", || plan(sql, &q, Some(&table)));
            let p = p.map_err(|e| e.to_string())?;
            let (out, _) = tracer.span("sql.execute_plan", || execute_plan(sql, &p, &table, opts));
            let (out, _) = out.map_err(|e| e.to_string())?;
            Ok((p, out))
        });
        let (p, out) = r?;
        same("traced query", &out)?;
        let mut profiles = Vec::new();
        for wq in &p.windows {
            let (r, id) = tracer.span("exec.window", || wq.execute_profiled(&table, opts));
            let (_, prof) = r.map_err(|e| e.to_string())?;
            tracer.attr(id, "plan_ns", prof.plan.as_nanos() as f64);
            tracer.attr(id, "build_ns", prof.build.as_nanos() as f64);
            tracer.attr(id, "resolve_ns", prof.resolve.as_nanos() as f64);
            tracer.attr(id, "probe_ns", prof.probe.as_nanos() as f64);
            tracer.attr(id, "partitions", prof.partitions as f64);
            profiles.push(prof);
        }
        window_ms.push(*tracer.ms_by_op("exec.window").last().expect("a plan has a window"));
        last = Some((p, out, profiles));
    }
    let (plan, serial_out, profiles) = last.expect("TRACED_OPS >= 1");
    let query_ms = tracer.ms_by_op("session.query");
    let serial_ms = median(&query_ms);
    let med_attr = |key: &str| median(&tracer.attr_by_op("exec.window", key));
    v.set("sql.parse_us", median(&tracer.ms_by_op("sql.parse")) * 1e3);
    v.set("sql.plan_us", median(&tracer.ms_by_op("sql.plan")) * 1e3);
    let assemble: Vec<f64> =
        tracer.ms_by_op("sql.execute_plan").iter().zip(&window_ms).map(|(e, w)| e - w).collect();
    v.set("sql.assemble_ms", median(&assemble));
    v.set("exec.wall_ms", median(&window_ms));
    v.set("exec.plan_us", med_attr("plan_ns") / 1e3);
    v.set("exec.build_ms", med_attr("build_ns") / 1e6);
    v.set("exec.resolve_ms", med_attr("resolve_ns") / 1e6);
    v.set("exec.probe_ms", med_attr("probe_ns") / 1e6);
    v.set(
        "exec.unattributed_ms",
        median(&window_ms)
            - (med_attr("plan_ns") + med_attr("build_ns") + med_attr("probe_ns")) / 1e6,
    );
    v.set("exec.partitions", med_attr("partitions"));
    v.set("session.latency_ms_max", query_ms.iter().copied().fold(0.0, f64::max));

    // Exact counts, from the engine's own profile of the last traced pass.
    let sum = |f: &dyn Fn(&ExecProfile) -> u64| profiles.iter().map(f).sum::<u64>() as f64;
    for s in Strategy::ALL {
        v.set(DECISIONS[s.index()], sum(&|p| p.strategy.decisions[s.index()]));
    }
    v.set("strategy.cacheless_partitions", sum(&|p| p.strategy.cacheless_partitions));
    v.set("cache.hits", sum(&|p| p.cache.hits));
    v.set("cache.misses", sum(&|p| p.cache.misses));
    v.set(
        "cache.builds",
        sum(&|p| {
            let c = p.cache;
            c.inner_sorts
                + c.mst_builds
                + c.segtree_builds
                + c.rangetree_builds
                + c.modeindex_builds
        }),
    );
    v.set("cache.bytes_built_per_row", sum(&|p| p.cache.bytes_built) / n as f64);
    v.set("spill.bytes_spilled", sum(&|p| p.spill.bytes_spilled));
    v.set("spill.evictions", sum(&|p| p.spill.evictions));
    v.set("spill.refaults", sum(&|p| p.spill.refaults));
    // Governed bytes are tracked with or without a budget; the spill layer's
    // metrics are about runs that have one.
    let peak = profiles.iter().map(|p| p.spill.peak_resident).max().unwrap_or(0);
    v.set("spill.peak_resident_bytes", if opts.budget.is_some() { peak as f64 } else { 0.0 });

    // 2. The same SQL under other options: parallel, unshared, unbudgeted.
    let timed_variant = |name: &'static str, o: ExecOptions| -> Result<f64, String> {
        tracer.next_op();
        let (out, _) = tracer.span(name, || qs.session.query_with(sql, o));
        same(name, &out.map_err(|e| e.to_string())?)?;
        Ok(*tracer.ms_by_op(name).last().expect("span just recorded"))
    };
    // Parallel runs are unbudgeted: concurrent partitions need more resident
    // bytes at once than the serial budget of `budgeted3` allows.
    let parallel = ExecOptions::default();
    let par_ms: Vec<f64> = (0..PARALLEL_OPS)
        .map(|_| timed_variant("exec.parallel", parallel))
        .collect::<Result<_, _>>()?;
    v.set("exec.parallel_ms", median(&par_ms));
    v.set("exec.parallel_speedup", serial_ms / median(&par_ms));
    v.set("cache.no_sharing_ms", timed_variant("cache.no_sharing", opts.no_sharing())?);
    v.set(
        "spill.slowdown",
        match opts.budget {
            Some(_) => serial_ms / timed_variant("spill.unbudgeted", ExecOptions::serial())?,
            None => 0.0,
        },
    );

    // 3. Window layers in isolation, for every planned window.
    let replays: Vec<WindowReplay> = plan
        .windows
        .iter()
        .map(|wq| replay_window(tracer, &table, wq))
        .collect::<Result<_, _>>()?;
    let total = |name: &str| tracer.ms_by_op(name).iter().sum::<f64>();
    let per_row = |ms: f64| ms * 1e6 / (n * plan.windows.len()) as f64;
    v.set("partition.ms", total("partition.partition_rows"));
    v.set("partition.ns_per_row", per_row(total("partition.partition_rows")));
    v.set("order.keys_ms", total("order.keys"));
    v.set("order.sort_ms", total("order.sort"));
    v.set("order.sort_ns_per_row", per_row(total("order.sort")));
    v.set("frame.resolve_ms", total("frame.resolve"));
    v.set("frame.resolve_ns_per_row", per_row(total("frame.resolve")));
    let frame_rows: f64 = tracer.attr_by_op("frame.resolve", "frame_rows").iter().sum();
    v.set("frame.mean_rows", frame_rows / (n * plan.windows.len()) as f64);

    // 4. Forced strategies: the chooser's regret against the best of them.
    let mut forced_best = f64::INFINITY;
    for s in Strategy::ALL {
        let (predicted_ns, applies) = forced_prediction(&plan, &replays, s);
        if s != Strategy::Mst && (!applies || predicted_ns > FORCED_COST_CAP_NS) {
            continue;
        }
        tracer.next_op();
        let (out, id) =
            tracer.span("strategy.forced", || qs.session.query_with(sql, opts.force_strategy(s)));
        tracer.attr(id, "strategy", s.index() as f64);
        tracer.attr(id, "predicted_ms", predicted_ns / 1e6);
        let out = out.map_err(|e| format!("forced {}: {e}", s.name()))?;
        // Forced MST is an execution choice and must be bit-identical; the
        // alternates compute with different arithmetic (float-tolerant).
        if s == Strategy::Mst {
            tables_identical(&serial_out, &out)
        } else {
            tables_close(&serial_out, &out)
        }
        .map_err(|e| format!("forced {}: {e}", s.name()))?;
        let ms = *tracer.ms_by_op("strategy.forced").last().expect("span just recorded");
        if s == Strategy::Mst {
            v.set("strategy.forced_mst_ms", ms);
        }
        forced_best = forced_best.min(ms);
    }
    v.set("strategy.forced_best_ms", forced_best);
    v.set("strategy.regret", serial_ms / forced_best);

    // 5. Core layers in isolation, on the first window's partitions.
    replay_core(tracer, &table, &replays[0], v)
}

/// `core::sort`, `core::prev_idcs`, `core::mst`, `segtree` and `strategies`
/// on the partitions, values and frames of one window.
fn replay_core(
    tracer: &Tracer,
    table: &Table,
    r: &WindowReplay,
    v: &mut Values,
) -> Result<(), String> {
    let n: usize = r.sorted.iter().map(Vec::len).sum();
    let gather = |col: &[i64]| -> Vec<Vec<i64>> {
        r.sorted.iter().map(|rows| rows.iter().map(|&row| col[row]).collect()).collect()
    };
    let values = gather(ints(table, VALUE_COL)?);
    let qty = gather(ints(table, SUM_COL)?);
    let hashes: Vec<Vec<u64>> = gather(ints(table, DISTINCT_COL)?)
        .iter()
        .map(|p| p.iter().map(|&x| hash_value(&holistic_window::Value::Int(x))).collect())
        .collect();
    let bounds: Vec<&[(usize, usize)]> = r.frames.iter().map(|f| f.bounds.as_slice()).collect();
    let params = MstParams::default().serial();
    tracer.next_op();

    // core::sort on (inner key, position) pairs; keys are order-preserving.
    let pairs: Vec<Vec<(u64, u32)>> = values
        .iter()
        .map(|p| p.iter().enumerate().map(|(i, &x)| ((x as u64) ^ (1 << 63), i as u32)).collect())
        .collect();
    tracer.span("core_sort.parallel_sort", || {
        for p in pairs {
            black_box(sort::parallel_sort::<u64, (u64, u32)>(p, false));
        }
    });
    let sort_ms = tracer.ms_by_op("core_sort.parallel_sort")[0];
    v.set("core_sort.ms", sort_ms);
    v.set("core_sort.ns_per_row", sort_ms * 1e6 / n as f64);

    let (prev, _) = tracer.span("prev_idcs.prev_idcs_u64", || {
        hashes.iter().map(|h| prev_idcs_u64(h, false)).collect::<Vec<_>>()
    });
    v.set("prev_idcs.ms", tracer.ms_by_op("prev_idcs.prev_idcs_u64")[0]);

    // Two trees per partition, as the engine builds them: prevIdcs (probed
    // with count_below for COUNT DISTINCT) and the value permutation (probed
    // with select for percentiles).
    let prev32: Vec<Vec<u32>> =
        prev.iter().map(|p| p.iter().map(|&x| x as u32).collect()).collect();
    let perms: Vec<Vec<usize>> = values.iter().map(|p| dense_codes(p, false).perm).collect();
    let perm32: Vec<Vec<u32>> =
        perms.iter().map(|p| p.iter().map(|&x| x as u32).collect()).collect();
    let ((count_trees, select_trees), _) = tracer.span("mst.build", || {
        let build = |arrays: &[Vec<u32>]| -> Vec<MergeSortTree<u32>> {
            arrays.iter().map(|a| MergeSortTree::build_profiled(a, params).0).collect()
        };
        (build(&prev32), build(&perm32))
    });
    let build_ms = tracer.ms_by_op("mst.build")[0];
    let all_trees = || count_trees.iter().chain(&select_trees);
    v.set("mst.build_ms", build_ms);
    v.set("mst.build_ns_per_row", build_ms * 1e6 / (2 * n) as f64);
    v.set("mst.levels", all_trees().map(|t| t.height()).max().unwrap_or(0) as f64);
    v.set(
        "mst.bytes_per_elem",
        all_trees().map(|t| t.arena_bytes()).sum::<usize>() as f64 / (2 * n) as f64,
    );

    // Probe queries: every `stride`-th row's own frame.
    let stride = n.div_ceil(MAX_PROBES).max(1);
    let probes: Vec<Vec<(usize, usize)>> = bounds
        .iter()
        .map(|b| b.iter().copied().step_by(stride).filter(|&(a, b)| a < b).collect())
        .collect();
    let n_probes: usize = probes.iter().map(Vec::len).sum();
    let per_probe = |name: &str| {
        if n_probes == 0 {
            0.0
        } else {
            tracer.ms_by_op(name)[0] * 1e6 / n_probes as f64
        }
    };
    let count_queries: Vec<Vec<(usize, usize, u32)>> =
        probes.iter().map(|p| p.iter().map(|&(a, b)| (a, b, a as u32 + 1)).collect()).collect();
    let select_queries: Vec<Vec<(RangeSet, usize)>> = probes
        .iter()
        .map(|p| p.iter().map(|&(a, b)| (RangeSet::single(a, b), (b - a) / 2)).collect())
        .collect();
    tracer.span("mst.count_below", || {
        for (t, qs) in count_trees.iter().zip(&count_queries) {
            for &(a, b, k) in qs {
                black_box(t.count_below(a, b, k));
            }
        }
    });
    tracer.span("mst.count_below_block", || {
        let mut scratch = BlockScratch::new();
        let mut out = [0usize; PROBE_BLOCK];
        for (t, qs) in count_trees.iter().zip(&count_queries) {
            for block in qs.chunks(PROBE_BLOCK) {
                t.count_below_block(block, &mut out[..block.len()], &mut scratch);
                black_box(&out);
            }
        }
    });
    tracer.span("mst.select", || {
        for (t, qs) in select_trees.iter().zip(&select_queries) {
            for (ranges, j) in qs {
                black_box(t.select(ranges, *j));
            }
        }
    });
    tracer.span("mst.select_block", || {
        let mut scratch = BlockScratch::new();
        let mut out = [None; PROBE_BLOCK];
        for (t, qs) in select_trees.iter().zip(&select_queries) {
            for block in qs.chunks(PROBE_BLOCK) {
                t.select_block(block, &mut out[..block.len()], &mut scratch);
                black_box(&out);
            }
        }
    });
    v.set("mst.count_below_ns", per_probe("mst.count_below"));
    v.set("mst.count_below_block_ns", per_probe("mst.count_below_block"));
    v.set("mst.select_ns", per_probe("mst.select"));
    v.set("mst.select_block_ns", per_probe("mst.select_block"));
    drop((count_trees, select_trees));

    let (segtrees, _) = tracer.span("segtree.build", || {
        qty.iter().map(|q| SegmentTree::<SumMonoid>::build(q, false)).collect::<Vec<_>>()
    });
    tracer.span("segtree.query", || {
        for (t, qs) in segtrees.iter().zip(&probes) {
            for &(a, b) in qs {
                black_box(t.query(a, b));
            }
        }
    });
    v.set("segtree.build_ms", tracer.ms_by_op("segtree.build")[0]);
    v.set("segtree.query_ns", per_probe("segtree.query"));

    let model = CostModel::default();
    let predicted =
        |class| r.stats.iter().map(|st| model.cost(Strategy::Incremental, class, st)).sum::<f64>();
    if predicted(CallClass::CountDistinct) <= REPLAY_COST_CAP_NS {
        tracer.span("incremental.distinct_count", || {
            for (h, b) in hashes.iter().zip(&bounds) {
                black_box(incremental::distinct_count(h, b));
            }
        });
        v.set(
            "incremental.distinct_ns_per_row",
            tracer.ms_by_op("incremental.distinct_count")[0] * 1e6 / n as f64,
        );
    }
    if predicted(CallClass::Percentile) <= REPLAY_COST_CAP_NS {
        tracer.span("incremental.percentile", || {
            for (x, b) in values.iter().zip(&bounds) {
                black_box(incremental::percentile(x, b, 0.5));
            }
        });
        v.set(
            "incremental.percentile_ns_per_row",
            tracer.ms_by_op("incremental.percentile")[0] * 1e6 / n as f64,
        );
    }
    Ok(())
}

fn trace_stream(cfg: &RunConfig, tracer: &Tracer, res: &mut RunResult) -> Result<(), String> {
    let w = &cfg.workload;
    let base = cfg.rows();
    let n_batches = w.batches(cfg.scale);
    let v = &mut res.values;

    oracle(cfg)?;
    tracer.next_op();
    let (full, _) =
        tracer.span("tpch.generate", || w.generate(base + n_batches * BATCH_ROWS, cfg.seed));
    v.set("tpch.gen_ms", tracer.ms_by_op("tpch.generate")[0]);
    let keys: Vec<u64> = ints(&full, "price")?.iter().map(|&p| p as u64).collect();
    let (q, _) = tracer.span("sql.parse", || parse_query(&w.sql));
    let q = q.map_err(|e| e.to_string())?;
    let (p, _) = tracer.span("sql.plan", || plan(&w.sql, &q, Some(&full)));
    p.map_err(|e| e.to_string())?;
    drop(full);
    v.set("sql.parse_us", tracer.ms_by_op("sql.parse")[0] * 1e3);
    v.set("sql.plan_us", tracer.ms_by_op("sql.plan")[0] * 1e3);

    // Set-up as in the end-to-end run; the engine it returns is dropped and
    // opened again inside a span.
    let ss = setup_stream(cfg)?;
    let base_table = ss.engine.table().clone();
    drop(ss.engine);
    let (engine, _) =
        tracer.span("append.begin", || ss.query.begin_incremental(&base_table, cfg.opts()));
    let mut engine = engine.map_err(|e| e.to_string())?;
    drop(base_table);
    v.set("append.begin_ms", tracer.ms_by_op("append.begin")[0]);

    let mut last = holistic_window::AppendProfile::default();
    for batch in &ss.batches {
        tracer.next_op();
        let (r, id) = tracer.span("append.append", || engine.append(batch));
        let r = r.map_err(|e| e.to_string())?;
        tracer.attr(id, "appended_rows", r.profile.appended_rows as f64);
        tracer.attr(id, "touched_partitions", r.profile.touched_partitions as f64);
        tracer.attr(id, "spliced_partitions", r.profile.spliced_partitions as f64);
        tracer.attr(id, "changed_outputs", r.changed_outputs.len() as f64);
        last = r.profile;
    }
    let ms = tracer.ms_by_op("append.append");
    let attr = |key: &str| tracer.attr_by_op("append.append", key).iter().sum::<f64>();
    let rows = attr("appended_rows");
    v.set("append.us_per_row", ms.iter().sum::<f64>() * 1e3 / rows);
    v.set("append.latency_ms_p98", percentile(&ms, 98.0));
    v.set("append.max_ms", ms.iter().copied().fold(0.0, f64::max));
    v.set("session.latency_ms_max", ms.iter().copied().fold(0.0, f64::max));
    v.set("append.splice_ratio", attr("spliced_partitions") / attr("touched_partitions"));
    v.set("append.changed_per_row", attr("changed_outputs") / rows);
    v.set("forest.runs", last.forest_runs as f64);
    v.set("forest.merges", last.forest_merges as f64);
    v.set("forest.rebuilt_per_row", last.forest_rebuilt_elements as f64 / rows);

    // The maintained output must equal a from-scratch parallel execution.
    let out = engine.output_table().map_err(|e| e.to_string())?;
    res.checksum = checksum(&out);
    let scratch =
        ss.query.execute_with(engine.table(), ExecOptions::default()).map_err(|e| e.to_string())?;
    tables_identical(&out, &scratch)?;
    drop((engine, out, scratch));

    // The forest alone, on the same key stream in the same batches.
    let mut forest = MstForest::new(MstParams::default().serial());
    forest.append(&keys[..base]);
    for b in 0..n_batches {
        tracer.next_op();
        let lo = base + b * BATCH_ROWS;
        tracer.span("forest.append", || forest.append(&keys[lo..lo + BATCH_ROWS]));
    }
    v.set(
        "forest.append_us_per_row",
        tracer.ms_by_op("forest.append").iter().sum::<f64>() * 1e3 / rows,
    );
    let stride = keys.len().div_ceil(MAX_PROBES / 10).max(1);
    let probes: Vec<usize> = (0..keys.len()).step_by(stride).collect();
    tracer.next_op();
    tracer.span("forest.count_below", || {
        for &i in &probes {
            black_box(forest.count_below(&RangeSet::single(0, i + 1), keys[i]));
        }
    });
    tracer.span("forest.select", || {
        for &i in &probes {
            black_box(forest.select_from(&RangeSet::single(0, i + 1), i / 2, None));
        }
    });
    v.set("forest.count_ns", tracer.ms_by_op("forest.count_below")[0] * 1e6 / probes.len() as f64);
    v.set("forest.select_ns", tracer.ms_by_op("forest.select")[0] * 1e6 / probes.len() as f64);
    Ok(())
}
