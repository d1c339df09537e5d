//! Figure 14 — execution-phase breakdown of a framed (running) distinct
//! count on the lineitem table.
//!
//! Paper query (§6.7): running `COUNT(DISTINCT l_partkey)` ordered by
//! `l_shipdate` at scale factor 10 (we default to a smaller sample; set
//! N=60000000 for SF 10). Phases: window set-up (partition + order-by sort),
//! hash-array population, thread-local sort + run merge (Algorithm 1 line 5,
//! split for multithreading), prevIdcs computation, the merge sort tree build
//! (one sort of the tree's keys, which is the top layer, then one scatter per
//! layer below it, top-down — where the paper merges layer upon layer), and
//! the result probe.
//!
//! Expected shape: sorting-related phases dominate; the tree's scatters
//! together cost less than its one sort; the probe phase is comparable to a
//! layer. (The paper's 6-layer tree at SF 10 matches f = 32: 32⁶ ≥ 60 M.)

use holistic_bench::env_usize;
use holistic_bench::json::{self, BenchRecord};
use holistic_core::sort::merge_runs;
use holistic_core::{MergeSortTree, MstParams};
use holistic_tpch::lineitem;
use holistic_window::frame::{resolve_frames, FrameBound, FrameSpec};
use holistic_window::hash::hash_value;
use holistic_window::order::{sort_permutation, KeyColumns};
use holistic_window::{
    col, Expr, FunctionCall, Result, SortKey, Table, Value, WindowQuery, WindowSpec,
};
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// One named phase and its wall time.
type Phase = (String, Duration);

/// Runs a framed `COUNT(DISTINCT value)` over `ORDER BY order_key` phase by
/// phase, as Algorithm 1 lays them out, with a wall-clock timer around each.
/// Returns the phases and the per-row distinct counts in table row order.
fn profile_distinct_count(
    table: &Table,
    order_key: &SortKey,
    value: &Expr,
    frame: &FrameSpec,
    tasks: usize,
) -> Result<(Vec<Phase>, Vec<i64>)> {
    let mut phases: Vec<Phase> = Vec::new();
    let mut timed = |name: &str, t0: Instant| phases.push((name.to_string(), t0.elapsed()));

    // Phase: partition & order-by sort (the window operator set-up).
    let t0 = Instant::now();
    let keys = KeyColumns::evaluate(table, std::slice::from_ref(order_key))?;
    let mut rows: Vec<usize> = (0..table.num_rows()).collect();
    sort_permutation(&keys, &mut rows, true);
    timed("partition + order-by sort", t0);

    let t0 = Instant::now();
    let frames = resolve_frames(table, &rows, &keys, frame)?;
    timed("resolve frames", t0);

    // Phase: populate the hash array (Algorithm 1, line 4).
    let t0 = Instant::now();
    let bound = value.bind(table)?;
    let mut pairs: Vec<(u64, u32)> = Vec::with_capacity(rows.len());
    for (pos, &r) in rows.iter().enumerate() {
        pairs.push((hash_value(&bound.eval(table, r)?), pos as u32));
    }
    timed("populate hash array", t0);

    // Phase: thread-local sort (line 5, first half). Lexicographic on the
    // whole pair: prevIdcs below needs equal hashes in position order.
    let t0 = Instant::now();
    let chunk = pairs.len().div_ceil(tasks.max(1)).max(1);
    pairs.par_chunks_mut(chunk).for_each(|run| run.sort_unstable());
    let bounds: Vec<usize> = (0..pairs.len()).step_by(chunk).chain([pairs.len()]).collect();
    timed("sort thread-local", t0);

    // Phase: merge sorted runs (line 5, second half).
    let t0 = Instant::now();
    let sorted = merge_runs::<u64, (u64, u32)>(&pairs, &bounds, true);
    timed("merge sorted runs", t0);

    // Phase: compute prevIdcs (lines 7 and following).
    let t0 = Instant::now();
    let mut prev = vec![0u32; sorted.len()];
    for w in sorted.windows(2) {
        if w[1].0 == w[0].0 {
            prev[w[1].1 as usize] = w[0].1 + 1;
        }
    }
    timed("compute prevIdcs", t0);

    // Phases: the tree's one sort (its top layer), then a scatter per layer
    // below, named by the layer it produces.
    let (tree, build_times) = MergeSortTree::<u32>::build_profiled(&prev, MstParams::default());
    phases.push(("sort tree keys".to_string(), build_times[0]));
    for (layer, t) in (0..tree.height() - 1).rev().zip(&build_times[1..]) {
        phases.push((format!("scatter tree layer {layer}"), *t));
    }

    // Phase: compute the results.
    let t0 = Instant::now();
    let counts: Vec<i64> =
        frames.bounds.iter().map(|&(a, b)| tree.count_below(a, b, a as u32 + 1) as i64).collect();
    phases.push(("compute results".to_string(), t0.elapsed()));

    // Report counts in original row order.
    let mut by_row = vec![0i64; rows.len()];
    for (&r, &c) in rows.iter().zip(&counts) {
        by_row[r] = c;
    }
    Ok((phases, by_row))
}

/// Panics unless `counts` is what the engine's `WindowQuery` returns for the
/// same query: the breakdown is of a hand-rolled pipeline, and it describes
/// the engine's query only if both compute the same thing.
fn assert_matches_engine(
    table: &Table,
    order_key: &SortKey,
    value: &Expr,
    frame: &FrameSpec,
    counts: &[i64],
) {
    let out =
        WindowQuery::over(WindowSpec::new().order_by(vec![order_key.clone()]).frame(frame.clone()))
            .call(FunctionCall::count_distinct(value.clone()).named("cd"))
            .execute(table)
            .expect("engine run");
    let engine = out.column("cd").expect("output column");
    for (row, &c) in counts.iter().enumerate() {
        assert_eq!(engine.get(row), Value::Int(c), "row {row}: WindowQuery vs phase pipeline");
    }
}

fn main() {
    let n = env_usize("N", 2_000_000);
    let tasks = env_usize("TASKS", 8);
    let table = lineitem(n, 42).to_table();
    let frame = FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow);
    let (order_key, value) = (SortKey::asc(col("l_shipdate")), col("l_partkey"));

    let (phases, counts) =
        profile_distinct_count(&table, &order_key, &value, &frame, tasks).expect("profiling run");
    assert_matches_engine(&table, &order_key, &value, &frame, &counts);

    let total: f64 = phases.iter().map(|(_, d)| d.as_secs_f64()).sum();
    println!("# Figure 14: phase breakdown of a running COUNT(DISTINCT l_partkey), n={n}");
    println!("{:<28} {:>10} {:>7}", "phase", "ms", "%");
    for (name, d) in &phases {
        println!(
            "{:<28} {:>10.1} {:>6.1}%",
            name,
            d.as_secs_f64() * 1e3,
            100.0 * d.as_secs_f64() / total
        );
    }
    println!("{:<28} {:>10.1} {:>6.1}%", "TOTAL", total * 1e3, 100.0);
    println!(
        "# final running distinct count = {} (distinct part keys seen overall)",
        counts.iter().max().unwrap_or(&0)
    );

    if std::env::args().any(|a| a == "--json") {
        let records: Vec<BenchRecord> = phases
            .iter()
            .map(|(name, d)| {
                BenchRecord::new("distinct_count_phases", n, name, {
                    d.as_nanos() as f64 / n as f64
                })
                .with("share", d.as_secs_f64() / total)
            })
            .collect();
        let path = json::write("fig14", &records).expect("write json");
        println!("# wrote {}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_window::{lit, Column};

    #[test]
    fn profile_matches_engine_result() {
        let t = Table::new(vec![
            ("d", Column::ints(vec![4, 1, 3, 2, 5, 6])),
            ("v", Column::ints(vec![7, 7, 8, 9, 7, 8])),
        ])
        .unwrap();
        let frame = FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow);
        let (order_key, value) = (SortKey::asc(col("d")), col("v"));
        let (phases, counts) = profile_distinct_count(&t, &order_key, &value, &frame, 4).unwrap();
        assert!(phases.iter().any(|(n, _)| n == "sort tree keys"));
        assert!(phases.iter().any(|(n, _)| n == "scatter tree layer 0"));
        assert!(phases.iter().any(|(n, _)| n == "compute results"));
        // Ordered by d the values are 7, 9, 8, 7, 7, 8 and the running
        // distinct counts 1, 2, 3, 3, 3, 3; d = 4 is the fourth of them.
        assert_eq!(counts, vec![3, 1, 3, 2, 3, 3]);
        assert_matches_engine(&t, &order_key, &value, &frame, &counts);
    }

    /// Few distinct values in runs long enough that an unstable key-only
    /// sort reorders equal hashes, which is what prevIdcs must not see.
    #[test]
    fn long_duplicate_runs_match_the_engine() {
        let n = 2_000i64;
        let t = Table::new(vec![
            ("d", Column::ints((0..n).map(|i| (i * 7919) % n).collect())),
            ("v", Column::ints((0..n).map(|i| (i * 31) % 11).collect())),
        ])
        .unwrap();
        let frame = FrameSpec::rows(FrameBound::Preceding(lit(5i64)), FrameBound::CurrentRow);
        let (order_key, value) = (SortKey::asc(col("d")), col("v"));
        let (_, counts) = profile_distinct_count(&t, &order_key, &value, &frame, 3).unwrap();
        assert_matches_engine(&t, &order_key, &value, &frame, &counts);
    }
}
