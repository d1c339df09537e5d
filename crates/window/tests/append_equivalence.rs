//! The delta API's contract: after any sequence of appends, an
//! [`IncrementalEngine`]'s outputs are bit-identical to re-running the query
//! from scratch on the grown table — under every engine configuration, on
//! both the splice fast path and the recompute path — and `changed_outputs`
//! reports exactly the rows whose outputs changed.

use holistic_window::frame::{FrameBound, FrameExclusion, FrameSpec};
use holistic_window::{
    col, lit, Column, Error, ExecOptions, FunctionCall, IncrementalEngine, SortKey, Strategy,
    Table, Value, WindowQuery, WindowSpec,
};
use proptest::prelude::*;

/// Bit-faithful value equality (floats by bits, like the fuzzer's oracle).
fn bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn tables_bit_identical(a: &Table, b: &Table) {
    assert_eq!(a.num_columns(), b.num_columns());
    assert_eq!(a.num_rows(), b.num_rows());
    for ((na, ca), (nb, cb)) in a.iter().zip(b.iter()) {
        assert_eq!(na, nb);
        let (va, vb) = (ca.to_values(), cb.to_values());
        for (i, (x, y)) in va.iter().zip(&vb).enumerate() {
            assert!(bits_eq(x, y), "column {na} row {i}: {x:?} != {y:?}");
        }
    }
}

/// Appends every batch, then checks the refreshed output against a
/// from-scratch execution of the same options on the grown table.
fn check_equivalence(query: &WindowQuery, base: &Table, batches: &[Table]) {
    for opts in ExecOptions::all_configs() {
        let mut engine = query.begin_incremental(base, opts).unwrap();
        for batch in batches {
            engine.append(batch).unwrap();
        }
        let expected = query.execute_with(engine.table(), opts).unwrap();
        tables_bit_identical(&engine.output_table().unwrap(), &expected);
    }
}

/// A query where every call is forest-eligible and the frame splices.
fn all_fast_query() -> WindowQuery {
    let order = || vec![SortKey::asc(col("v"))];
    WindowQuery::over(rows5_window())
        .call(FunctionCall::count_star().named("c"))
        .call(FunctionCall::row_number(order()).named("rn"))
        .call(FunctionCall::rank(order()).named("r"))
        .call(FunctionCall::percent_rank(order()).named("pr"))
        .call(FunctionCall::cume_dist(order()).named("cd"))
        .call(FunctionCall::percentile_disc(0.25, SortKey::asc(col("v"))).named("pd"))
        .call(FunctionCall::percentile_cont(0.75, SortKey::asc(col("v"))).named("pc"))
        .call(FunctionCall::median(col("v")).named("med"))
}

/// `n` rows of (g, t, v) with `t` globally increasing — appending suffix
/// slices is an end-append in every partition.
fn timeseries(n: usize) -> Table {
    let g: Vec<i64> = (0..n as i64).map(|i| i % 3).collect();
    let t: Vec<i64> = (0..n as i64).collect();
    let v: Vec<i64> = (0..n as i64).map(|i| (i * 37 + 11) % 23).collect();
    Table::new(vec![("g", Column::ints(g)), ("t", Column::ints(t)), ("v", Column::ints(v))])
        .unwrap()
}

fn suffix_batches(full: &Table, base_n: usize, k: usize) -> (Table, Vec<Table>) {
    let n = full.num_rows();
    let base = full.slice_rows(0, base_n);
    let step = (n - base_n).div_ceil(k).max(1);
    let mut batches = Vec::new();
    let mut at = base_n;
    while at < n {
        let hi = (at + step).min(n);
        batches.push(full.slice_rows(at, hi));
        at = hi;
    }
    (base, batches)
}

#[test]
fn fast_path_matches_batch_execution_under_all_configs() {
    let full = timeseries(300);
    let (base, batches) = suffix_batches(&full, 120, 6);
    let q = all_fast_query();
    check_equivalence(&q, &base, &batches);

    // And the refreshes really took the fast path: every touched partition
    // spliced, outputs for exactly the new rows were reported changed.
    // The seven forest-planned calls all order by `v ASC`, so each partition
    // keeps one forest: exactly the forest a median alone keeps.
    let mut engine = q.begin_incremental(&base, ExecOptions::default()).unwrap();
    let mut median_only = median_query().begin_incremental(&base, ExecOptions::default()).unwrap();
    let mut at = 120;
    for batch in &batches {
        let res = engine.append(batch).unwrap();
        assert_eq!(res.profile.recomputed_partitions, 0, "end-appends must splice");
        assert_eq!(res.profile.spliced_partitions, res.profile.touched_partitions);
        assert_eq!(res.profile.fast_path_rows, batch.num_rows());
        let expect: Vec<usize> = (at..at + batch.num_rows()).collect();
        assert_eq!(res.changed_outputs, expect);
        at += batch.num_rows();

        let one = median_only.append(batch).unwrap().profile;
        assert_eq!(res.profile.forest_runs, one.forest_runs, "one forest per partition");
        assert_eq!(res.profile.forest_merges, one.forest_merges);
        assert_eq!(res.profile.forest_rebuilt_elements, one.forest_rebuilt_elements);
        assert_eq!(res.profile.forest_resident_bytes, one.forest_resident_bytes);
        assert_eq!(res.profile.shared_forest_outputs, 7 * batch.num_rows());
        assert_eq!(res.profile.peer_rank_outputs, 0);
    }
}

/// Partitions of `g` ordered by `t`, `ROWS 5 PRECEDING`.
fn rows5_window() -> WindowSpec {
    WindowSpec::new()
        .partition_by(vec![col("g")])
        .order_by(vec![SortKey::asc(col("t"))])
        .frame(FrameSpec::rows(FrameBound::Preceding(lit(5i64)), FrameBound::CurrentRow))
}

/// `median(v)` alone over [`rows5_window`]: one forest per partition,
/// probed by one call.
fn median_query() -> WindowQuery {
    WindowQuery::over(rows5_window()).call(FunctionCall::median(col("v")).named("med"))
}

/// The rank family over the window's own ORDER BY reads the peer groups the
/// splice maintains, so no forest is built and any window ORDER BY splices:
/// ties, DESC, NULL keys at either end and a two-key order with a string.
#[test]
fn window_order_ranks_splice_without_a_forest() {
    let n = 240usize;
    let (base_n, k) = (100, 5);
    let nulls = |t: Vec<i64>, null_rows: std::ops::Range<usize>| -> Vec<Option<i64>> {
        t.into_iter().enumerate().map(|(i, t)| (!null_rows.contains(&i)).then_some(t)).collect()
    };
    let ties: Vec<i64> = (0..n as i64).map(|i| i / 3).collect();
    let falling: Vec<i64> = (0..n as i64).map(|i| (n as i64 - i) / 3).collect();
    let pairs: Vec<i64> = (0..n as i64).map(|i| i / 6).collect();
    let letters: Vec<&str> = (0..n).map(|i| ["a", "a", "b", "b", "c", "c"][i % 6]).collect();
    let t = || col("t");
    // (window ORDER BY, `t` column): every suffix of rows sorts at or after
    // its prefix under the order, so every batch is an end-append.
    let cases = [
        (vec![SortKey::asc(t())], nulls(ties.clone(), 0..0)),
        // DESC puts NULLs first by default: they lead the base.
        (vec![SortKey::desc(t())], nulls(falling, 0..10)),
        (vec![SortKey::asc(t()).nulls_first(true)], nulls(ties.clone(), 0..10)),
        // ASC puts NULLs last by default: they close the last batch.
        (vec![SortKey::asc(t())], nulls(ties, n - 10..n)),
        (vec![SortKey::asc(t()), SortKey::asc(col("s"))], nulls(pairs, 0..0)),
    ];
    let frames = [
        FrameSpec::rows(FrameBound::Preceding(lit(4i64)), FrameBound::CurrentRow)
            .exclude(FrameExclusion::Ties),
        FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::Preceding(lit(1i64))),
    ];
    for (order, t_col) in cases {
        let full = Table::new(vec![
            ("p", Column::ints((0..n as i64).map(|i| i % 2).collect())),
            ("t", Column::ints_opt(t_col)),
            ("s", Column::strs(letters.clone())),
        ])
        .unwrap();
        let (base, batches) = suffix_batches(&full, base_n, k);
        for frame in frames.clone() {
            let spec =
                WindowSpec::new().partition_by(vec![col("p")]).order_by(order.clone()).frame(frame);
            let mut q = WindowQuery::over(spec);
            // Each function with an empty inner ORDER BY and with the
            // window's spelled out.
            for (tag, inner) in [("", vec![]), ("_t", order.clone())] {
                q = q
                    .call(FunctionCall::row_number(inner.clone()).named(format!("rn{tag}")))
                    .call(FunctionCall::rank(inner.clone()).named(format!("r{tag}")))
                    .call(FunctionCall::percent_rank(inner.clone()).named(format!("pr{tag}")))
                    .call(FunctionCall::cume_dist(inner).named(format!("cd{tag}")));
            }
            check_equivalence(&q, &base, &batches);

            let mut engine = q.begin_incremental(&base, ExecOptions::default()).unwrap();
            for batch in &batches {
                let p = engine.append(batch).unwrap().profile;
                assert_eq!(p.recomputed_partitions, 0, "{order:?}: end-appends must splice");
                assert_eq!(p.spliced_partitions, p.touched_partitions);
                assert_eq!(p.peer_rank_outputs, 8 * batch.num_rows());
                assert_eq!((p.forest_runs, p.forest_resident_bytes), (0, 0), "no forest");
            }
        }
    }
}

/// A window-order rank over a ROWS frame with no GROUP or TIES hole: its
/// resolved frames carry no peer groups, so the engine keeps its own. A
/// mid-stream insert recomputes the partition, and the end-append after it
/// splices, reading its ranks off the peer groups the recompute left — the
/// first new row tying the last old group, so the splice extends that group.
#[test]
fn window_order_rank_splices_after_a_recompute() {
    let table = |t: &[i64]| {
        let v = t.iter().map(|t| t * 7 % 5).collect();
        Table::new(vec![("t", Column::ints(t.to_vec())), ("v", Column::ints(v))]).unwrap()
    };
    let base = table(&(0..60).map(|i| i / 3).collect::<Vec<_>>());
    let (insert, append) = (table(&[4, 4, 11, 0]), table(&[19, 19, 20, 21, 21, 21]));
    let q = WindowQuery::over(
        WindowSpec::new()
            .order_by(vec![SortKey::asc(col("t"))])
            .frame(FrameSpec::rows(FrameBound::Preceding(lit(3i64)), FrameBound::CurrentRow)),
    )
    .call(FunctionCall::rank(vec![]).named("r"))
    .call(FunctionCall::percent_rank(vec![]).named("pr"))
    .call(FunctionCall::cume_dist(vec![]).named("cd"))
    .call(FunctionCall::count_star().named("c"));
    for opts in ExecOptions::all_configs() {
        let mut engine = q.begin_incremental(&base, opts).unwrap();
        let p = engine.append(&insert).unwrap().profile;
        assert_eq!((p.recomputed_partitions, p.spliced_partitions), (1, 0), "{opts:?}");
        let p = engine.append(&append).unwrap().profile;
        assert_eq!((p.recomputed_partitions, p.spliced_partitions), (0, 1), "{opts:?}");
        assert_eq!(p.peer_rank_outputs, 3 * append.num_rows());
        let expected = q.execute_with(engine.table(), opts).unwrap();
        tables_bit_identical(&engine.output_table().unwrap(), &expected);
    }
}

/// Calls share a partition's forest exactly when their canonical ORDER BY
/// keys are equal: the three over `v ASC` probe one forest, the one over
/// `v DESC` (whose encoding is reversed) gets its own.
#[test]
fn forests_are_shared_per_order_by_key_and_direction() {
    let full = timeseries(300);
    let (base, batches) = suffix_batches(&full, 120, 6);
    let q = WindowQuery::over(rows5_window())
        .call(FunctionCall::median(col("v")).named("med"))
        .call(FunctionCall::percentile_disc(0.9, SortKey::asc(col("v"))).named("p90"))
        .call(FunctionCall::percentile_cont(0.3, SortKey::asc(col("v"))).named("pc"))
        .call(FunctionCall::percentile_disc(0.9, SortKey::desc(col("v"))).named("p90d"));
    check_equivalence(&q, &base, &batches);

    let opts = ExecOptions::default();
    let mut engine = q.begin_incremental(&base, opts).unwrap();
    let mut median_only = median_query().begin_incremental(&base, opts).unwrap();
    for batch in &batches {
        let p = engine.append(batch).unwrap().profile;
        let one = median_only.append(batch).unwrap().profile;
        assert_eq!(p.recomputed_partitions, 0, "end-appends must splice");
        // Both forests of a partition see the same appends, so they have
        // the same shape as the median's one.
        assert_eq!(p.forest_runs, 2 * one.forest_runs, "two forests per partition");
        assert_eq!(p.forest_merges, 2 * one.forest_merges);
        assert_eq!(p.forest_resident_bytes, 2 * one.forest_resident_bytes);
        assert_eq!(p.shared_forest_outputs, 3 * batch.num_rows());
    }
}

/// `forest_resident_bytes` counts a forest's run arenas and its encoded
/// keys, 8 B per row. One partition, one forest: the arenas are those of a
/// forest fed the same batch sizes (a tree's arena depends on its length
/// only).
#[test]
fn forest_bytes_count_the_arenas_and_the_encoded_keys() {
    use holistic_core::{MstForest, MstParams};
    let full = timeseries(300);
    let (base, batches) = suffix_batches(&full, 120, 6);
    let q = WindowQuery::over(
        WindowSpec::new()
            .order_by(vec![SortKey::asc(col("t"))])
            .frame(FrameSpec::rows(FrameBound::Preceding(lit(5i64)), FrameBound::CurrentRow)),
    )
    .call(FunctionCall::median(col("v")).named("med"));
    let opts = ExecOptions::default();
    let mut engine = q.begin_incremental(&base, opts).unwrap();
    let mut forest = MstForest::new(MstParams::default());
    forest.append(&vec![0; base.num_rows()]);
    for batch in &batches {
        let p = engine.append(batch).unwrap().profile;
        forest.append(&vec![0; batch.num_rows()]);
        assert_eq!(p.forest_runs, forest.num_runs());
        let rows = engine.table().num_rows();
        assert!(
            p.forest_resident_bytes >= (forest.arena_bytes() + 8 * rows) as u64,
            "{} < {} + 8 · {rows}",
            p.forest_resident_bytes,
            forest.arena_bytes()
        );
    }
}

#[test]
fn frame_exclusion_is_safe_on_the_splice_path() {
    let full = timeseries(240);
    for excl in [FrameExclusion::CurrentRow, FrameExclusion::Group, FrameExclusion::Ties] {
        let order = || vec![SortKey::asc(col("v"))];
        let q = WindowQuery::over(
            WindowSpec::new()
                .partition_by(vec![col("g")])
                .order_by(vec![SortKey::asc(col("t"))])
                .frame(
                    FrameSpec::rows(FrameBound::Preceding(lit(7i64)), FrameBound::CurrentRow)
                        .exclude(excl),
                ),
        )
        .call(FunctionCall::rank(order()).named("r"))
        .call(FunctionCall::cume_dist(order()).named("cd"))
        .call(FunctionCall::median(col("v")).named("med"));
        let (base, batches) = suffix_batches(&full, 100, 5);
        check_equivalence(&q, &base, &batches);
        let mut engine = q.begin_incremental(&base, ExecOptions::default()).unwrap();
        for batch in &batches {
            let res = engine.append(batch).unwrap();
            assert_eq!(res.profile.recomputed_partitions, 0, "exclusion must not block splicing");
        }
    }
}

#[test]
fn desc_and_float_keys_splice_bit_identically() {
    let n = 200usize;
    let t: Vec<i64> = (0..n as i64).collect();
    // Ties, negative zero and negative values exercise the total-order
    // encoding and the bit-faithful decode.
    let v: Vec<f64> = (0..n)
        .map(|i| match i % 7 {
            0 => -0.0,
            1 => 0.0,
            k => ((i as f64) - 100.0) * 0.5 * if k % 2 == 0 { -1.0 } else { 1.0 },
        })
        .collect();
    let full = Table::new(vec![("t", Column::ints(t)), ("v", Column::floats(v))]).unwrap();
    let order = || vec![SortKey::desc(col("v"))];
    let q = WindowQuery::over(
        WindowSpec::new()
            .order_by(vec![SortKey::asc(col("t"))])
            .frame(FrameSpec::rows(FrameBound::Preceding(lit(9i64)), FrameBound::CurrentRow)),
    )
    .call(FunctionCall::rank(order()).named("r"))
    .call(FunctionCall::percent_rank(order()).named("pr"))
    .call(FunctionCall::percentile_disc(0.5, SortKey::desc(col("v"))).named("pd"))
    .call(FunctionCall::percentile_cont(0.25, SortKey::desc(col("v"))).named("pc"));
    let (base, batches) = suffix_batches(&full, 80, 4);
    check_equivalence(&q, &base, &batches);
}

#[test]
fn out_of_order_appends_recompute_and_still_match() {
    // `t` decreasing: every batch sorts *before* the existing rows, so the
    // engine must detect the non-end-append and recompute.
    let n = 150usize;
    let g: Vec<i64> = (0..n as i64).map(|i| i % 2).collect();
    let t: Vec<i64> = (0..n as i64).map(|i| n as i64 - i).collect();
    let v: Vec<i64> = (0..n as i64).map(|i| (i * 13 + 5) % 17).collect();
    let full =
        Table::new(vec![("g", Column::ints(g)), ("t", Column::ints(t)), ("v", Column::ints(v))])
            .unwrap();
    let q = all_fast_query();
    let (base, batches) = suffix_batches(&full, 60, 3);
    check_equivalence(&q, &base, &batches);
    let mut engine = q.begin_incremental(&base, ExecOptions::default()).unwrap();
    for batch in &batches {
        let res = engine.append(batch).unwrap();
        assert_eq!(res.profile.spliced_partitions, 0, "prepends must not splice");
    }
}

#[test]
fn ineligible_queries_recompute_and_match() {
    // SUM and MIN aren't forest-eligible; RANGE frames aren't spliceable;
    // per-row bounds aren't spliceable. All must still refresh correctly.
    let full = timeseries(160);
    let (base, batches) = suffix_batches(&full, 70, 3);

    let sum_q = WindowQuery::over(
        WindowSpec::new()
            .partition_by(vec![col("g")])
            .order_by(vec![SortKey::asc(col("t"))])
            .frame(FrameSpec::rows(FrameBound::Preceding(lit(4i64)), FrameBound::CurrentRow)),
    )
    .call(FunctionCall::sum(col("v")).named("s"))
    .call(FunctionCall::min(col("v")).named("mn"));
    check_equivalence(&sum_q, &base, &batches);

    let range_q = WindowQuery::over(
        WindowSpec::new()
            .partition_by(vec![col("g")])
            .order_by(vec![SortKey::asc(col("t"))])
            .frame(FrameSpec::range(FrameBound::Preceding(lit(6i64)), FrameBound::CurrentRow)),
    )
    .call(FunctionCall::median(col("v")).named("med"));
    check_equivalence(&range_q, &base, &batches);

    let perrow_q = WindowQuery::over(
        WindowSpec::new()
            .partition_by(vec![col("g")])
            .order_by(vec![SortKey::asc(col("t"))])
            .frame(FrameSpec::rows(FrameBound::Preceding(col("v")), FrameBound::CurrentRow)),
    )
    .call(FunctionCall::rank(vec![SortKey::asc(col("v"))]).named("r"));
    check_equivalence(&perrow_q, &base, &batches);
}

#[test]
fn null_keys_demote_the_partition_but_stay_correct() {
    let g: Vec<i64> = vec![0; 60];
    let t: Vec<i64> = (0..60).collect();
    let v: Vec<Option<i64>> = (0..60).map(|i| if i == 47 { None } else { Some(i % 9) }).collect();
    let full = Table::new(vec![
        ("g", Column::ints(g)),
        ("t", Column::ints(t)),
        ("v", Column::ints_opt(v)),
    ])
    .unwrap();
    // Median screens its NULL key rows (fallback semantics the forest can't
    // express), so meeting the NULL must demote the partition.
    let q = WindowQuery::over(
        WindowSpec::new()
            .partition_by(vec![col("g")])
            .order_by(vec![SortKey::asc(col("t"))])
            .frame(FrameSpec::rows(FrameBound::Preceding(lit(5i64)), FrameBound::CurrentRow)),
    )
    .call(FunctionCall::median(col("v")).named("med"))
    .call(FunctionCall::rank(vec![SortKey::asc(col("v"))]).named("r"));
    let (base, batches) = suffix_batches(&full, 40, 4);
    check_equivalence(&q, &base, &batches);

    let mut engine = q.begin_incremental(&base, ExecOptions::default()).unwrap();
    let mut saw_recompute = false;
    for batch in &batches {
        let res = engine.append(batch).unwrap();
        saw_recompute |= res.profile.recomputed_partitions > 0;
    }
    assert!(saw_recompute, "the NULL key at row 47 must force a recompute");
}

#[test]
fn new_partitions_appear_mid_stream() {
    // Partition key 2 only shows up in later batches.
    let n = 120usize;
    let g: Vec<i64> = (0..n as i64).map(|i| if i < 60 { i % 2 } else { i % 3 }).collect();
    let t: Vec<i64> = (0..n as i64).collect();
    let v: Vec<i64> = (0..n as i64).map(|i| (i * 7 + 3) % 11).collect();
    let full =
        Table::new(vec![("g", Column::ints(g)), ("t", Column::ints(t)), ("v", Column::ints(v))])
            .unwrap();
    let q = all_fast_query();
    let (base, batches) = suffix_batches(&full, 60, 3);
    check_equivalence(&q, &base, &batches);

    let mut engine = q.begin_incremental(&base, ExecOptions::default()).unwrap();
    let mut new_parts = 0;
    for batch in &batches {
        new_parts += engine.append(batch).unwrap().profile.new_partitions;
    }
    assert_eq!(new_parts, 1, "partition g=2 appears exactly once");
}

#[test]
fn incremental_stats_and_strategy_match_from_scratch() {
    // A wide frame over one large partition under a memory budget: the
    // pressure surcharge decides between the merge sort tree and naive, so a
    // view that chose without it would drift from a from-scratch run.
    let n = 20_000i64;
    let budgeted = Table::new(vec![
        ("t", Column::ints((0..n).collect())),
        ("v", Column::ints((0..n).map(|i| (37 * i + 11) % 1009).collect())),
    ])
    .unwrap();
    let budgeted_query = WindowQuery::over(
        WindowSpec::new()
            .order_by(vec![SortKey::asc(col("t"))])
            .frame(FrameSpec::rows(FrameBound::Preceding(lit(550i64)), FrameBound::CurrentRow)),
    )
    .call(FunctionCall::rank(vec![SortKey::asc(col("v"))]).named("r"));

    // (query, table, base rows, batches, options)
    let inputs = [
        (all_fast_query(), timeseries(300), 120, 6, ExecOptions::default()),
        (budgeted_query, budgeted, 19_990, 1, ExecOptions::serial().memory_budget(800_000)),
    ];
    for (q, full, base_n, k, opts) in inputs {
        let (base, batches) = suffix_batches(&full, base_n, k);
        let mut engine = q.begin_incremental(&base, opts).unwrap();
        for batch in &batches {
            let profile = engine.append(batch).unwrap().profile;
            assert_eq!(profile.spliced_partitions, profile.touched_partitions);
        }
        // A second engine built directly on the grown table reads its views
        // off frames it resolved from scratch; the spliced frames' views
        // must agree exactly.
        let fresh = q.begin_incremental(engine.table(), opts).unwrap();
        assert_eq!(engine.partition_stats(), fresh.partition_stats());
        assert_eq!(engine.strategy_decisions(), fresh.strategy_decisions(), "{}", opts.label());

        // And the engine's decision histogram matches the batch executor's.
        let (_, profile) = q.execute_profiled(engine.table(), opts).unwrap();
        assert_eq!(engine.strategy_decisions(), profile.strategy.decisions, "{}", opts.label());
    }
}

#[test]
fn rejected_batches_leave_the_engine_usable() {
    let full = timeseries(100);
    let (base, batches) = suffix_batches(&full, 80, 1);
    let q = all_fast_query();
    let mut engine = q.begin_incremental(&base, ExecOptions::default()).unwrap();

    // Wrong column set: rejected up front, engine untouched.
    let bad = Table::new(vec![("x", Column::ints(vec![1]))]).unwrap();
    assert!(engine.append(&bad).is_err());
    assert!(!engine.is_poisoned(), "a rejected batch must not poison the engine");

    // Right names, a wrong type in the last column: rejected before any
    // column grows, engine and table untouched.
    let mistyped = Table::new(vec![
        ("g", Column::ints(vec![0])),
        ("t", Column::ints(vec![100])),
        ("v", Column::strs(vec!["seven"])),
    ])
    .unwrap();
    assert!(engine.append(&mistyped).is_err());
    assert!(!engine.is_poisoned(), "a mistyped batch must not poison the engine");
    tables_bit_identical(engine.table(), &base);

    engine.append(&batches[0]).unwrap();
    tables_bit_identical(engine.table(), &full);
    let expected = q.execute(&full).unwrap();
    tables_bit_identical(&engine.output_table().unwrap(), &expected);
}

/// A query error the new rows surface (here SUM past `i64`, the same typed
/// error on the scan arm and the tree arm, which fold one prefix-sum array)
/// poisons the engine: it says so, refuses every later call with a typed
/// error, and holds no more governed bytes than before the append.
#[test]
fn a_query_error_mid_append_poisons_the_engine() {
    let rows = |d: Vec<i64>, x: Vec<i64>| {
        Table::new(vec![("d", Column::ints(d)), ("x", Column::ints(x))]).unwrap()
    };
    let q = WindowQuery::over(
        WindowSpec::new()
            .order_by(vec![SortKey::asc(col("d"))])
            .frame(FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow)),
    )
    .call(FunctionCall::sum(col("x")).named("s"));
    for opts in ExecOptions::all_configs() {
        for opts in [opts, opts.force_strategy(Strategy::Mst), opts.force_strategy(Strategy::Naive)]
        {
            let label = opts.label();
            let mut engine =
                q.begin_incremental(&rows(vec![0, 1], vec![i64::MAX - 1, 0]), opts).unwrap();
            let resident = engine.spill_stats().resident;

            let overflowing = rows(vec![2], vec![5]);
            assert_eq!(engine.append(&overflowing).unwrap_err(), Error::Overflow("SUM"), "{label}");
            assert!(engine.is_poisoned(), "{label}");
            let refused = |e: Error| matches!(e, Error::Unsupported(m) if m.contains("poisoned"));
            assert!(refused(engine.append(&rows(vec![3], vec![-5])).unwrap_err()), "{label}");
            assert!(refused(engine.output_table().unwrap_err()), "{label}");
            assert!(
                engine.spill_stats().resident <= resident,
                "{label}: {:?}",
                engine.spill_stats()
            );
        }
    }
}

/// The recompute diff compares float outputs by their bits: a `0.0` that
/// becomes `-0.0` changed (though SQL calls them equal), a NaN that stays
/// the same NaN did not, and a NaN that becomes another NaN did.
#[test]
fn float_outputs_diff_by_bits() {
    let nan_b = f64::from_bits(0x7ff8_0000_0000_0001);
    let base = Table::new(vec![
        ("t", Column::ints(vec![0, 10, 20, 30, 40, 50])),
        ("f", Column::floats(vec![1.0, 0.0, f64::NAN, 2.0, nan_b, -0.0])),
    ])
    .unwrap();
    // Each new row lands in the middle, so the previous row of the rows at
    // t = 20, 30 and 50 changes: 0.0 → -0.0, NaN → the same NaN, NaN → NaN.
    let batch = Table::new(vec![
        ("t", Column::ints(vec![15, 25, 45])),
        ("f", Column::floats(vec![-0.0, f64::NAN, f64::NAN])),
    ])
    .unwrap();
    let q = WindowQuery::over(
        WindowSpec::new()
            .order_by(vec![SortKey::asc(col("t"))])
            .frame(FrameSpec::rows(FrameBound::Preceding(lit(1i64)), FrameBound::CurrentRow)),
    )
    .call(FunctionCall::first_value(col("f")).named("prev"));
    for opts in ExecOptions::all_configs() {
        let mut engine = q.begin_incremental(&base, opts).unwrap();
        let res = engine.append(&batch).unwrap();
        assert_eq!(res.changed_outputs, vec![2, 5, 6, 7, 8], "{}", opts.label());
        assert_eq!(res.profile.recomputed_partitions, 1, "{}", opts.label());
        let expected = q.execute_with(engine.table(), opts).unwrap();
        tables_bit_identical(&engine.output_table().unwrap(), &expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `changed_outputs` is exact: it contains every new row, every old row
    /// whose output changed, and *nothing else* — validated against a
    /// before/after diff of full output tables under bit equality.
    #[test]
    fn changed_outputs_are_exactly_the_diff(
        gs in prop::collection::vec(0i64..3, 8..60),
        ts in prop::collection::vec(-20i64..20, 8..60),
        vs in prop::collection::vec(prop::option::of(-8i64..8), 8..60),
        split_num in 1usize..4,
        pre in 0i64..6,
    ) {
        let n = gs.len().min(ts.len()).min(vs.len());
        let full = Table::new(vec![
            ("g", Column::ints(gs[..n].to_vec())),
            ("t", Column::ints(ts[..n].to_vec())),
            ("v", Column::ints_opt(vs[..n].to_vec())),
        ]).unwrap();
        let base_n = n * split_num / 4;
        let q = WindowQuery::over(
            WindowSpec::new()
                .partition_by(vec![col("g")])
                .order_by(vec![SortKey::asc(col("t"))])
                .frame(FrameSpec::rows(FrameBound::Preceding(lit(pre)), FrameBound::CurrentRow)),
        )
        .call(FunctionCall::count_star().named("c"))
        .call(FunctionCall::rank(vec![SortKey::asc(col("v"))]).named("r"))
        .call(FunctionCall::median(col("v")).named("med"));

        let base = full.slice_rows(0, base_n);
        let batch = full.slice_rows(base_n, n);
        let mut engine: IncrementalEngine =
            q.begin_incremental(&base, ExecOptions::default()).unwrap();
        let before = engine.output_table().unwrap();
        let res = engine.append(&batch).unwrap();
        let after = engine.output_table().unwrap();

        // Oracle diff: new rows always count as changed; old rows compare
        // bit-for-bit across all output columns.
        let mut oracle: Vec<usize> = (base_n..n).collect();
        for row in 0..base_n {
            let changed = before.iter().zip(after.iter()).any(|((_, cb), (_, ca))| {
                !bits_eq(&cb.get(row), &ca.get(row))
            });
            if changed {
                oracle.push(row);
            }
        }
        oracle.sort_unstable();
        prop_assert_eq!(res.changed_outputs, oracle);

        // And the refreshed outputs equal a from-scratch execution.
        let expected = q.execute(engine.table()).unwrap();
        tables_bit_identical(&after, &expected);
    }
}
