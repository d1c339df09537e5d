//! Supplementary experiment: amortized incremental maintenance via the
//! delta API (DESIGN.md "Mergeable leveled forests & the append pipeline").
//!
//! Streams a monotone single-partition table in batches of `B` rows through
//! three competitors that all keep every window output fresh after every
//! batch. The frame is the *growing* window (`ROWS UNBOUNDED PRECEDING ..
//! CURRENT ROW` — running medians/percentiles over the whole history),
//! the holistic-aggregate regime where the paper's trees win; narrow
//! trailing frames are the sliding array's home turf (Figure 11's
//! crossover) and are not what the delta API is for.
//!
//! * **append** — `IncrementalEngine`: splice the frames, extend the
//!   leveled MST forests, probe only the new rows (amortized O(b log n)
//!   per batch);
//! * **rebuild** — re-run `execute_with` on the full prefix after every
//!   batch, i.e. what the engine did before the delta API existed
//!   (O(n log n) per refresh; timed at sampled refresh points and
//!   extrapolated — the full schedule is quadratic and would dominate the
//!   run without adding information);
//! * **perrow** — the Wesley & Xu per-row baseline (PVLDB 2016): sorted
//!   arrays maintained under insertion, O(frame) per appended row — here
//!   O(n) memmoves as the window grows.
//!
//! Headline checks (engaged at `N ≥ 500k`; the CI smoke runs a tiny `N`
//! where constant overheads swamp the asymptotics): amortized append+refresh
//! must be ≥ 5× faster than rebuild-per-refresh and must beat the per-row
//! baseline. Independently of size, the delta outputs are compared
//! bit-for-bit against a from-scratch run — across every engine
//! configuration at a reduced size, and for the default configuration at
//! full size.
//!
//! Human-readable tables always; `--json` additionally writes
//! `bench_results/BENCH_append_ext.json`. `N=...` rows (default 1M),
//! `B=...` batch rows (default 1k), `REBUILD_SAMPLES=...` sampled rebuild
//! refreshes (default 16).

use holistic_bench::json::{self, BenchRecord};
use holistic_bench::{env_usize, time_once};
use holistic_window::frame::{FrameBound, FrameSpec};
use holistic_window::{
    col, Column, ExecOptions, FunctionCall, SortKey, Table, Value, WindowQuery, WindowSpec,
};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::time::Duration;

/// A single-partition stream: `t` is the monotone window key, `v` the
/// percentile payload with a modest domain (ties and real rank work).
fn make_table(n: usize, seed: u64) -> Table {
    let mut rng = StdRng::seed_from_u64(seed);
    let v: Vec<i64> = (0..n).map(|_| rng.gen_range(0..9973)).collect();
    Table::new(vec![("t", Column::ints((0..n as i64).collect())), ("v", Column::ints(v))]).unwrap()
}

/// The all-fast-path query: every call is forest-eligible and the growing
/// frame is splice-eligible (ROWS, unbounded start, monotone `t`).
fn query() -> WindowQuery {
    WindowQuery::over(
        WindowSpec::new()
            .order_by(vec![SortKey::asc(col("t"))])
            .frame(FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow)),
    )
    .call(FunctionCall::count_star().named("c"))
    .call(FunctionCall::row_number(vec![SortKey::asc(col("t"))]).named("rn"))
    .call(FunctionCall::rank(vec![SortKey::asc(col("t"))]).named("rk"))
    .call(FunctionCall::median(col("v")).named("med"))
    .call(FunctionCall::percentile_disc(0.9, SortKey::asc(col("v"))).named("p90"))
}

/// Streams the table through the delta API; returns total append time and
/// the final profile gauges (runs, merges, rebuilt elements, spliced).
fn run_append(
    table: &Table,
    q: &WindowQuery,
    b: usize,
    opts: ExecOptions,
) -> (Duration, holistic_window::AppendProfile, Table) {
    let n = table.num_rows();
    let base = table.slice_rows(0, b.min(n));
    let mut engine = q.begin_incremental(&base, opts).expect("begin_incremental");
    let mut total = Duration::ZERO;
    let mut acc = holistic_window::AppendProfile::default();
    let mut at = b.min(n);
    while at < n {
        let hi = (at + b).min(n);
        let batch = table.slice_rows(at, hi);
        let (res, d) = time_once(|| engine.append(&batch).expect("append"));
        total += d;
        let p = res.profile;
        // Counters sum across batches; the forest fields are gauges —
        // cumulative (merges, rebuilt elements) or point-in-time (runs).
        acc.appended_rows += p.appended_rows;
        acc.spliced_partitions += p.spliced_partitions;
        acc.recomputed_partitions += p.recomputed_partitions;
        acc.fast_path_rows += p.fast_path_rows;
        acc.fallback_rows += p.fallback_rows;
        acc.strategy_replans += p.strategy_replans;
        acc.evicted_artifacts += p.evicted_artifacts;
        acc.forest_runs = p.forest_runs;
        acc.forest_merges = p.forest_merges;
        acc.forest_rebuilt_elements = p.forest_rebuilt_elements;
        at = hi;
    }
    let out = engine.output_table().expect("output_table");
    (total, acc, out)
}

/// Times full rebuilds at `samples` evenly spaced refresh points and
/// extrapolates the total cost of rebuilding after every one of the
/// `refreshes` batches (rebuild cost is ~linear in the prefix, so an evenly
/// spaced mean is an unbiased per-refresh estimate).
fn run_rebuild(table: &Table, q: &WindowQuery, b: usize, opts: ExecOptions, samples: usize) -> f64 {
    let n = table.num_rows();
    let refreshes = n.div_ceil(b);
    let samples = samples.clamp(1, refreshes);
    let mut sum_ns = 0.0f64;
    for s in 0..samples {
        // Refresh index for this sample: evenly spaced, last sample = final.
        let r = if samples == 1 { refreshes - 1 } else { s * (refreshes - 1) / (samples - 1) };
        let prefix = table.slice_rows(0, ((r + 1) * b).min(n));
        let (_, d) = time_once(|| q.execute_with(&prefix, opts).expect("rebuild"));
        sum_ns += d.as_nanos() as f64;
    }
    sum_ns / samples as f64 * refreshes as f64
}

/// The Wesley & Xu per-row streaming baseline: one sorted array per
/// distinct probe column (`v` for median/p90, `t` for rank), grown by
/// sorted insertion — O(frame) per appended row — with outputs selected /
/// counted from the arrays. Returns total ns for the whole stream.
fn run_perrow(table: &Table) -> f64 {
    let n = table.num_rows();
    let t: Vec<i64> = (0..n)
        .map(|i| match table.column("t").unwrap().get(i) {
            Value::Int(x) => x,
            _ => unreachable!(),
        })
        .collect();
    let v: Vec<i64> = (0..n)
        .map(|i| match table.column("v").unwrap().get(i) {
            Value::Int(x) => x,
            _ => unreachable!(),
        })
        .collect();
    let mut med = vec![0i64; n];
    let mut p90 = vec![0i64; n];
    let mut rk = vec![0usize; n];
    let (_, d) = time_once(|| {
        let mut sv: Vec<i64> = Vec::with_capacity(n);
        let mut st: Vec<i64> = Vec::with_capacity(n);
        for i in 0..n {
            let j = sv.partition_point(|&x| x < v[i]);
            sv.insert(j, v[i]);
            let j = st.partition_point(|&x| x < t[i]);
            st.insert(j, t[i]);
            let s = sv.len();
            med[i] = sv[((0.5 * s as f64).ceil() as usize).clamp(1, s) - 1];
            p90[i] = sv[((0.9 * s as f64).ceil() as usize).clamp(1, s) - 1];
            rk[i] = st.partition_point(|&x| x < t[i]) + 1;
        }
    });
    // Keep the outputs observable so the loop cannot be optimized away.
    assert_eq!(med.len() + p90.len() + rk.len(), 3 * n);
    d.as_nanos() as f64
}

/// Bit-identity between two values (floats by bit pattern, not tolerance).
fn bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Asserts the delta API's outputs are bit-identical to from-scratch
/// execution of the same query on the same table under `opts`.
fn assert_bit_identical(table: &Table, q: &WindowQuery, b: usize, opts: ExecOptions, label: &str) {
    let expect = q.execute_with(table, opts).expect("from-scratch");
    let (_, _, got) = run_append(table, q, b, opts);
    for name in ["c", "rn", "rk", "med", "p90"] {
        let (ce, cg) = (expect.column(name).unwrap(), got.column(name).unwrap());
        for row in 0..table.num_rows() {
            assert!(
                bits_eq(&ce.get(row), &cg.get(row)),
                "[{label}] column {name} row {row}: delta {} vs from-scratch {}",
                cg.get(row),
                ce.get(row)
            );
        }
    }
}

fn main() {
    let n = env_usize("N", 1_000_000);
    let b = env_usize("B", 1_000).max(1);
    let rebuild_samples = env_usize("REBUILD_SAMPLES", 16);
    let emit_json = std::env::args().any(|a| a == "--json");
    let check = n >= 500_000;
    let opts = ExecOptions::default();

    println!("# append_ext: delta API vs rebuild-per-refresh, n={n}, b={b}, growing frame");

    let table = make_table(n, 42);
    let q = query();

    // Correctness first: every config at a reduced size, the default
    // config at full size.
    let nc = n.min(20_000);
    let small = table.slice_rows(0, nc);
    for cfg in ExecOptions::all_configs() {
        assert_bit_identical(&small, &q, b.min(nc.max(1)), cfg, &cfg.label());
    }
    println!("# bit-identity: all {} configs at n={nc} OK", ExecOptions::all_configs().len());

    let (append_d, profile, out) = run_append(&table, &q, b, opts);
    assert_eq!(out.column("med").unwrap().len(), n);
    assert_eq!(
        profile.recomputed_partitions, 0,
        "monotone splice-eligible stream must stay on the fast path"
    );
    let append_ns = append_d.as_nanos() as f64;
    let full = q.execute_with(&table, opts).expect("full run");
    for name in ["c", "rn", "rk", "med", "p90"] {
        let (ce, cg) = (full.column(name).unwrap(), out.column(name).unwrap());
        for row in 0..n {
            assert!(bits_eq(&ce.get(row), &cg.get(row)), "full-size identity: {name} row {row}");
        }
    }
    println!("# bit-identity: default config at n={n} OK");

    let rebuild_ns = run_rebuild(&table, &q, b, opts, rebuild_samples);
    let perrow_ns = run_perrow(&table);

    let rows = [("append", append_ns), ("rebuild", rebuild_ns), ("perrow", perrow_ns)];
    println!("# {:<8} {:>12} {:>10}", "algo", "ns/row", "vs append");
    for (name, ns) in rows {
        println!("  {:<8} {:>12.1} {:>9.2}x", name, ns / n as f64, ns / append_ns);
    }
    let amort = profile.forest_rebuilt_elements as f64 / n.max(1) as f64;
    println!(
        "# forest: {} runs, {} merges, {:.2} run-merge rewrites per input row (all forests); \
         {} spliced / {} recomputed refreshes, {} replans",
        profile.forest_runs,
        profile.forest_merges,
        amort,
        profile.spliced_partitions,
        profile.recomputed_partitions,
        profile.strategy_replans
    );

    let mut failed = false;
    if check {
        if append_ns * 5.0 > rebuild_ns {
            println!(
                "CHECK FAILED: append ({:.1} ns/row) not >=5x faster than rebuild ({:.1} ns/row)",
                append_ns / n as f64,
                rebuild_ns / n as f64
            );
            failed = true;
        }
        if append_ns >= perrow_ns {
            println!(
                "CHECK FAILED: append ({:.1} ns/row) does not beat per-row baseline ({:.1} ns/row)",
                append_ns / n as f64,
                perrow_ns / n as f64
            );
            failed = true;
        }
        if !failed {
            println!(
                "# checks OK: append {:.1}x vs rebuild, {:.1}x vs per-row",
                rebuild_ns / append_ns,
                perrow_ns / append_ns
            );
        }
    } else {
        println!("# n < 500k: headline checks skipped (smoke run)");
    }

    if emit_json {
        let workload = "append_stream/grow".to_string();
        let records = vec![
            BenchRecord::new(&workload, n, "append", append_ns / n as f64)
                .with("batch", b as f64)
                .with("forest_runs", profile.forest_runs as f64)
                .with("forest_merges", profile.forest_merges as f64)
                .with("rewrites_per_element", amort)
                .with("speedup_vs_rebuild", rebuild_ns / append_ns)
                .with("speedup_vs_perrow", perrow_ns / append_ns),
            BenchRecord::new(&workload, n, "rebuild", rebuild_ns / n as f64)
                .with("batch", b as f64)
                .with("sampled_refreshes", rebuild_samples as f64),
            BenchRecord::new(&workload, n, "perrow", perrow_ns / n as f64).with("batch", b as f64),
        ];
        let path = json::write("append_ext", &records).expect("write json");
        println!("# wrote {}", path.display());
    }

    if failed {
        std::process::exit(1);
    }
}
