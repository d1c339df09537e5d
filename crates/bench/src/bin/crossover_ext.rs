//! Supplementary experiment: strategy crossovers and the adaptive executor
//! (DESIGN.md "Strategy layer & cost model").
//!
//! Sweeps partition size × frame shape × call family, timing every live
//! forced strategy (`naive`, `incremental`, `mst`) plus the adaptive default
//! on each cell. The per-cell numbers are the calibration
//! data behind `CostModel::default()`'s constants; the two headline checks
//! are the strategy layer's reason to exist:
//!
//! * **uniform grid** — summed over the whole grid, adaptive must land
//!   within 5% of the best *per-cell* forced strategy (an oracle no single
//!   forced strategy attains);
//! * **skewed mix** — many tiny partitions plus a few large ones; adaptive
//!   must beat always-MST by ≥ 1.5× by skipping the artifact machinery on
//!   the tiny partitions.
//!
//! Naive cells whose estimated work (`rows × frame width`) exceeds
//! `NAIVE_BUDGET` are skipped — quadratic scans at 1M × 512 would dominate
//! the run without informing the model. Checks only engage at `N ≥ 500k`
//! (the CI smoke runs a tiny `N` where constant overheads swamp the model).
//!
//! Human-readable tables always; `--json` additionally writes
//! `bench_results/BENCH_crossover_ext.json`. `N=...` rescales (default 1M).

use holistic_bench::json::{self, BenchRecord};
use holistic_bench::{env_usize, time_once};
use holistic_window::frame::{FrameBound, FrameSpec};
use holistic_window::{
    col, lit, Column, ExecOptions, FunctionCall, SortKey, Strategy, Table, WindowQuery, WindowSpec,
};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// A table of `n` rows split into consecutive partitions of the given sizes:
/// `g` is the partition id, `pos` the in-partition order, `v` a value with a
/// modest domain (so distinct aggregates and mode have real work).
fn make_table(sizes: &[usize], seed: u64) -> Table {
    let n: usize = sizes.iter().sum();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = Vec::with_capacity(n);
    for (p, &s) in sizes.iter().enumerate() {
        g.extend(std::iter::repeat_n(p as i64, s));
    }
    let v: Vec<i64> = (0..n).map(|_| rng.gen_range(0..997)).collect();
    Table::new(vec![
        ("g", Column::ints(g)),
        ("pos", Column::ints((0..n as i64).collect())),
        ("v", Column::ints(v)),
    ])
    .unwrap()
}

fn query(calls: Vec<FunctionCall>, w: usize) -> WindowQuery {
    let mut q = WindowQuery::over(
        WindowSpec::new()
            .partition_by(vec![col("g")])
            .order_by(vec![SortKey::asc(col("pos"))])
            .frame(FrameSpec::rows(
                FrameBound::Preceding(lit(w as i64 - 1)),
                FrameBound::CurrentRow,
            )),
    );
    for c in calls {
        q = q.call(c);
    }
    q
}

fn family_call(family: &str) -> FunctionCall {
    match family {
        "median" => FunctionCall::median(col("v")).named("o"),
        "count_distinct" => FunctionCall::count_distinct(col("v")).named("o"),
        "sum" => FunctionCall::sum(col("v")).named("o"),
        "rank" => FunctionCall::rank(vec![SortKey::asc(col("v"))]).named("o"),
        _ => unreachable!(),
    }
}

/// Times `reps` engine runs (serial) in ns/row: the best and the worst.
fn run_ns(q: &WindowQuery, t: &Table, opts: ExecOptions, reps: usize) -> (f64, f64) {
    let n = t.num_rows();
    let (mut best, mut worst) = (f64::INFINITY, 0.0f64);
    for _ in 0..reps.max(1) {
        let (out, d) = time_once(|| q.execute_with(t, opts).unwrap());
        assert_eq!(out.column("o").map(|c| c.len()).unwrap_or(n), n);
        let ns = d.as_nanos() as f64 / n as f64;
        (best, worst) = (best.min(ns), worst.max(ns));
    }
    (best, worst)
}

/// The strategies a query can run: the retired `OsTree` and `SegTree` apply
/// to nothing, so forcing them would time the MST under their names.
const LIVE: [Strategy; 3] = [Strategy::Naive, Strategy::Incremental, Strategy::Mst];

fn main() {
    let n = env_usize("N", 1_000_000);
    let reps = env_usize("REPS", 2);
    let naive_budget = env_usize("NAIVE_BUDGET", 200_000_000);
    let emit_json = std::env::args().any(|a| a == "--json");
    let check = n >= 500_000;
    let mut failed = false;
    let mut records: Vec<BenchRecord> = Vec::new();

    println!("# crossover_ext: strategy crossovers, n={n}, serial, best of {reps}");

    // ---- Uniform grid ----------------------------------------------------
    let sizes = [32usize, 256, 2048, 16384, 131072];
    let widths = [16usize, 512];
    let families = ["median", "count_distinct", "sum", "rank"];
    let mut adaptive_total = 0.0f64;
    let mut oracle_total = 0.0f64;
    println!(
        "# {:<14} {:>7} {:>5} | {:>8} {:>8} {:>8} | {:>8}  chosen",
        "family", "m", "w", "naive", "incr", "mst", "adaptive"
    );
    for &m in &sizes {
        let m = m.min(n);
        let parts = (n / m).max(1);
        let table = make_table(&vec![m; parts], 7 + m as u64);
        for family in families {
            for &w in &widths {
                let q = query(vec![family_call(family)], w);
                let workload = format!("{family}/m{m}/w{w}");
                // Best ns/row per strategy, in `LIVE` order.
                let mut cells: Vec<f64> = Vec::new();
                let mut best = f64::INFINITY;
                for s in LIVE {
                    // A quadratic scan over wide frames is pure waste: skip
                    // naive cells whose cell count blows the budget.
                    if s == Strategy::Naive && n.saturating_mul(w.min(m)) > naive_budget {
                        cells.push(f64::NAN);
                        continue;
                    }
                    let ns = run_ns(&q, &table, ExecOptions::serial().force_strategy(s), reps).0;
                    best = best.min(ns);
                    records.push(BenchRecord::new(&workload, n, s.name(), ns));
                    cells.push(ns);
                }
                let adaptive = run_ns(&q, &table, ExecOptions::serial(), reps).0;
                records.push(BenchRecord::new(&workload, n, "adaptive", adaptive));
                adaptive_total += adaptive;
                oracle_total += best;
                let (_, profile) =
                    q.execute_profiled(&table, ExecOptions::serial()).expect("profiled run");
                let chosen = LIVE
                    .iter()
                    .max_by_key(|s| profile.strategy.decisions[s.index()])
                    .map(|s| s.name())
                    .unwrap_or("?");
                let cell = |i: usize| {
                    let v = cells[i];
                    if v.is_nan() {
                        "     --".to_string()
                    } else {
                        format!("{v:>7.1}")
                    }
                };
                println!(
                    "  {family:<14} {m:>7} {w:>5} | {} {} {} | {adaptive:>7.1}  {chosen}",
                    cell(0),
                    cell(1),
                    cell(2),
                );
            }
        }
    }
    let grid_ratio = adaptive_total / oracle_total;
    println!(
        "# grid total: adaptive {adaptive_total:.1} ns/row vs per-cell oracle {oracle_total:.1} \
         ns/row (ratio {grid_ratio:.3})"
    );
    records.push(BenchRecord::new("grid_total", n, "adaptive", adaptive_total));
    records.push(BenchRecord::new("grid_total", n, "oracle", oracle_total));
    if check && grid_ratio > 1.05 {
        println!("# CHECK FAILED: adaptive more than 5% off the per-cell oracle");
        failed = true;
    }

    // ---- Skewed mix: many tiny partitions + a few large ------------------
    // 24 rows out of every 25 live in size-8 partitions; the rest form a
    // handful of 24k-row partitions. Multi-call query spanning families.
    let tiny = 8usize;
    let big = 24_000usize.min(n / 4).max(tiny);
    let mut sizes: Vec<usize> = Vec::new();
    let mut rows = 0usize;
    while rows < n {
        let s = if sizes.len() % 3001 == 3000 { big } else { tiny };
        sizes.push(s.min(n - rows));
        rows += sizes.last().unwrap();
    }
    let table = make_table(&sizes, 99);
    let q = query(
        vec![
            FunctionCall::median(col("v")).named("o"),
            FunctionCall::count_distinct(col("v")).named("cd"),
            FunctionCall::sum(col("v")).named("s"),
        ],
        16,
    );
    println!(
        "# skewed: {} partitions ({} tiny of {tiny}, rest {big})",
        sizes.len(),
        sizes.iter().filter(|&&s| s == tiny).count()
    );
    let mut skew: Vec<(String, f64)> = Vec::new();
    for s in LIVE {
        let ns = run_ns(&q, &table, ExecOptions::serial().force_strategy(s), reps).0;
        records.push(BenchRecord::new("skewed", n, s.name(), ns));
        skew.push((s.name().to_string(), ns));
        println!("  skewed {:<12} {ns:>8.1} ns/row", s.name());
    }
    let adaptive = run_ns(&q, &table, ExecOptions::serial(), reps).0;
    records.push(BenchRecord::new("skewed", n, "adaptive", adaptive));
    let mst = skew.iter().find(|(s, _)| s == "mst").map(|&(_, v)| v).unwrap();
    let best_forced = skew.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
    println!(
        "  skewed {:<12} {adaptive:>8.1} ns/row ({:.2}x vs always-MST, {:.3} of best forced)",
        "adaptive",
        mst / adaptive,
        adaptive / best_forced
    );
    if check && mst / adaptive < 1.5 {
        println!("# CHECK FAILED: adaptive under 1.5x always-MST on the skewed mix");
        failed = true;
    }
    if check && adaptive / best_forced > 1.05 {
        println!("# CHECK FAILED: adaptive more than 5% off the best forced strategy (skewed)");
        failed = true;
    }

    if emit_json {
        let path = json::write("crossover_ext", &records).unwrap();
        println!("# wrote {}", path.display());
    }
    if failed {
        std::process::exit(1);
    }
    println!("# crossover_ext OK");
}
