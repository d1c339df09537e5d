//! A partition whose calls all run tree-free must not pay for a tree, and
//! what it skips must not show anywhere else: `prevIdcs` is built only for
//! the distinct trees (and once for a partition mixing tree and tree-free
//! calls), a mask that drops nothing shares the values instead of copying
//! them and holds neither remap arrays nor a kept-row list — and every
//! configuration still returns the same bits, whatever the mask drops.
//! Second half: the executor's and the append engine's scatter into typed
//! output columns yields the column `Column::from_values` would.

use holistic_window::frame::{FrameBound, FrameExclusion, FrameSpec};
use holistic_window::{
    col, lit, Column, DataType, Error, ExecOptions, ExecProfile, FunctionCall, SortKey, Strategy,
    StrategyMode, Table, Value, WindowQuery, WindowSpec,
};

/// Bit-faithful value equality (floats by bits, like the fuzzer's oracle).
fn bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a.type_name() == b.type_name() && a == b,
    }
}

fn tables_bit_identical(a: &Table, b: &Table, label: &str) {
    assert_eq!(a.num_columns(), b.num_columns(), "{label}");
    assert_eq!(a.num_rows(), b.num_rows(), "{label}");
    for ((na, ca), (nb, cb)) in a.iter().zip(b.iter()) {
        assert_eq!(na, nb, "{label}");
        assert_eq!(ca.data_type(), cb.data_type(), "{label}: column {na}");
        let (va, vb) = (ca.to_values(), cb.to_values());
        for (i, (x, y)) in va.iter().zip(&vb).enumerate() {
            assert!(bits_eq(x, y), "{label}: column {na} row {i}: {x:?} != {y:?}");
        }
    }
}

/// `(builds, bytes)` the profile recorded under an artifact label.
fn footprint(profile: &ExecProfile, label: &str) -> (u64, u64) {
    profile.artifacts.iter().find(|a| a.label == label).map_or((0, 0), |a| (a.builds, a.bytes))
}

/// The accounting identities every execution keeps: every slot created is
/// one footprint entry — the 0-byte shared kept-values entry included.
fn assert_accounting(profile: &ExecProfile, label: &str) {
    let builds: u64 = profile.artifacts.iter().map(|a| a.builds).sum();
    assert_eq!(builds, profile.cache.misses, "{label}");
    let bytes: u64 = profile.artifacts.iter().map(|a| a.bytes).sum();
    assert_eq!(bytes, profile.cache.bytes_built, "{label}");
}

/// Every strategy mode: adaptive and each forced strategy.
fn modes() -> Vec<StrategyMode> {
    std::iter::once(StrategyMode::Adaptive)
        .chain(Strategy::ALL.into_iter().map(StrategyMode::Force))
        .collect()
}

/// `n` rows: `pos` (the order key), `g` (three partitions), `x` (23 distinct
/// values, no NULLs).
fn distinct_table(n: usize) -> Table {
    let pos: Vec<i64> = (0..n as i64).collect();
    let g: Vec<i64> = (0..n as i64).map(|i| i % 3).collect();
    let x: Vec<i64> = (0..n as i64).map(|i| (i * 37 + 11) % 23).collect();
    Table::new(vec![("pos", Column::ints(pos)), ("g", Column::ints(g)), ("x", Column::ints(x))])
        .unwrap()
}

fn running(partitioned: bool) -> WindowSpec {
    let spec = WindowSpec::new()
        .order_by(vec![SortKey::asc(col("pos"))])
        .frame(FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow));
    if partitioned {
        spec.partition_by(vec![col("g")])
    } else {
        spec
    }
}

#[test]
fn tree_free_partition_builds_no_prev_and_copies_no_values() {
    let n = 600usize;
    let t = distinct_table(n);
    let q = WindowQuery::over(running(false)).call(FunctionCall::count_distinct(col("x")));
    let opts = ExecOptions::serial().force_strategy(Strategy::Incremental);
    let (_, p) = q.execute_profiled(&t, opts).unwrap();
    assert_eq!(p.strategy.decisions[Strategy::Incremental.index()], 1);
    assert_eq!(p.cache.mst_builds, 0);
    assert_eq!(footprint(&p, "prev-idcs"), (0, 0), "nothing reads prev on the incremental path");
    assert_eq!(footprint(&p, "distinct-prep"), (1, 4 * n as u64), "value ids only");
    assert_eq!(footprint(&p, "values"), (1, 8 * n as u64), "an i64 column without NULLs");
    assert_eq!(footprint(&p, "kept-values"), (1, 0), "shared with the values entry");
    // A mask that drops nothing is its keep flags (1 B/row): no remap arrays,
    // no kept-row list.
    assert_eq!(footprint(&p, "mask"), (1, n as u64));
    assert_accounting(&p, "tree-free");
}

/// `n` rows none of the calls of [`one_row_apart_calls`] drops, then one last
/// row each of them drops: NULL in `y` and `f`, `live` false.
fn one_row_apart_table(n: usize) -> Table {
    let i = || 0..n as i64;
    let y = i().map(|i| Some((i * 37 + 11) % 23)).chain([None]);
    let f = i().map(|i| Some(((i * 13) % 31) as f64 * 0.25)).chain([None]);
    Table::new(vec![
        ("pos", Column::ints((0..=n as i64).collect())),
        ("y", Column::ints_opt(y.collect())),
        ("f", Column::floats_opt(f.collect())),
        ("live", Column::bools(i().map(|_| true).chain([false]).collect())),
    ])
    .unwrap()
}

/// One call per evaluator family with the strategies that serve it (the
/// others fall back to the tree). The NULL-screening families lose the
/// trailing row to its NULL argument, the others to `FILTER (WHERE live)`.
fn one_row_apart_calls() -> Vec<(FunctionCall, &'static [Strategy])> {
    use Strategy::*;
    let by = |c: &str| vec![SortKey::asc(col(c))];
    let framed_lead = FunctionCall::lead(col("y"), 1, lit(-1i64)).order_by(by("f")).ignore_nulls();
    vec![
        (
            FunctionCall::count_distinct(col("y")).named("count_distinct"),
            &[Naive, Incremental, Mst],
        ),
        (FunctionCall::sum_distinct(col("y")).named("sum_distinct"), &[Mst]),
        (FunctionCall::median(col("y")).named("median"), &[Naive, Incremental, Mst]),
        (
            FunctionCall::percentile_cont(0.3, SortKey::desc(col("f"))).named("percentile_cont"),
            &[Naive, Incremental, Mst],
        ),
        (FunctionCall::rank(by("y")).filter(col("live")).named("rank"), &[Naive, Incremental, Mst]),
        (FunctionCall::dense_rank(by("y")).filter(col("live")).named("dense_rank"), &[Naive, Mst]),
        (framed_lead.named("lead"), &[Naive, Mst]),
        (FunctionCall::mode(col("y")).named("mode"), &[Naive, Mst]),
        (FunctionCall::count_star().filter(col("live")).named("count_star"), &[Naive, Mst]),
    ]
}

/// The two forms of a mask, one row apart: over `T` every call's mask drops
/// nothing (the remap answers arithmetically, kept rows and hull frames are
/// the partition's own), over `T` + one trailing dropped row it compacts. A
/// running frame never reaches the trailing row from `T`'s rows, so their
/// outputs must agree bit for bit — under every strategy, the cacheless path
/// included — and the compacting form's footprint is what it always was.
#[test]
fn identity_and_compacting_masks_agree_one_row_apart() {
    let n = 300usize;
    let t_plus = one_row_apart_table(n);
    let t = t_plus.slice_rows(0, n);
    let identity_bytes = n as u64;
    let compacting_bytes = ((n + 1) + 8 * ((n + 1) + 1 + 2 * n)) as u64;
    for (call, served_by) in one_row_apart_calls() {
        let name = call.output_name.clone();
        let q = WindowQuery::over(running(false)).call(call);
        let mut masks_seen = 0;
        for mode in modes() {
            let mut opts = ExecOptions::serial();
            opts.strategy = mode;
            let label = format!("{name}, {}", opts.label());
            let (out, p) = q.execute_profiled(&t, opts).unwrap();
            let (out_plus, p_plus) = q.execute_profiled(&t_plus, opts).unwrap();
            assert_eq!(p.strategy.decisions, p_plus.strategy.decisions, "{label}");
            if let StrategyMode::Force(s) = mode {
                let taken = if served_by.contains(&s) { s } else { Strategy::Mst };
                assert_eq!(p.strategy.decisions[taken.index()], 1, "{label}");
            }
            tables_bit_identical(&out_plus.slice_rows(0, n), &out, &label);
            // The cached path builds the call's mask once; the cacheless
            // (all-naive) path accounts for nothing.
            let builds = footprint(&p, "mask").0;
            assert!(builds <= 1, "{label}");
            assert_eq!(footprint(&p, "mask"), (builds, builds * identity_bytes), "{label}");
            assert_eq!(footprint(&p_plus, "mask"), (builds, builds * compacting_bytes), "{label}");
            assert_accounting(&p, &label);
            assert_accounting(&p_plus, &label);
            masks_seen += builds;
        }
        assert!(masks_seen > 0, "{name}: no mode took the cached path");
    }
}

#[test]
fn mixed_partition_builds_prev_once() {
    let n = 600u64;
    let t = distinct_table(n as usize);
    // Same argument, same mask: COUNT runs on the incremental multiset, SUM
    // (which no alternate evaluates) on the annotated tree.
    let calls = |q: WindowQuery| {
        q.call(FunctionCall::count_distinct(col("x")).named("cd"))
            .call(FunctionCall::sum_distinct(col("x")).named("sd"))
    };
    for partitioned in [false, true] {
        let parts = if partitioned { 3 } else { 1 };
        let q = calls(WindowQuery::over(running(partitioned)));
        let mixed = ExecOptions::serial().force_strategy(Strategy::Incremental);
        let (_, p) = q.execute_profiled(&t, mixed).unwrap();
        assert_eq!(p.strategy.decisions[Strategy::Incremental.index()], parts);
        assert_eq!(p.strategy.decisions[Strategy::Mst.index()], parts);
        assert_eq!(footprint(&p, "prev-idcs"), (parts, 8 * n), "one pass per partition");
        assert_eq!(footprint(&p, "distinct-prep"), (parts, 4 * n), "numbered once, read twice");
        assert_accounting(&p, "mixed");

        // Private caches: only the tree call builds prevIdcs.
        let (_, p) = q.execute_profiled(&t, mixed.no_sharing()).unwrap();
        assert_eq!(footprint(&p, "prev-idcs").0, parts);
        assert_eq!(footprint(&p, "distinct-prep").0, 2 * parts);
        assert_accounting(&p, "mixed, private caches");

        // Forced MST: both trees read the one prev.
        let (_, p) =
            q.execute_profiled(&t, ExecOptions::serial().force_strategy(Strategy::Mst)).unwrap();
        assert_eq!(footprint(&p, "prev-idcs"), (parts, 8 * n));
        assert_eq!(footprint(&p, "distinct-count-mst").0, parts);
        assert_eq!(footprint(&p, "distinct-agg-mst").0, parts);
        assert_eq!(p.cache.mst_builds, 2 * parts);
        assert_accounting(&p, "forced mst");
    }
}

/// Columns whose masks drop nothing (`y`), something (`x`: every fifth row
/// NULL) and everything (`z`: all NULL), plus string/date/bool payloads.
fn mask_table(n: usize) -> Table {
    let i = || 0..n as i64;
    Table::new(vec![
        ("pos", Column::ints(i().collect())),
        ("g", Column::ints(i().map(|i| i % 3).collect())),
        ("y", Column::ints(i().map(|i| (i * 37 + 11) % 23).collect())),
        ("x", Column::ints_opt(i().map(|i| (i % 5 != 0).then_some((i * 29 + 7) % 17)).collect())),
        ("z", Column::ints_opt(vec![None; n])),
        ("f", Column::floats(i().map(|i| ((i * 13) % 31) as f64 * 0.25).collect())),
        ("s", Column::strs(i().map(|i| ["a", "b", "c", ""][(i % 4) as usize]).collect::<Vec<_>>())),
        ("d", Column::dates(i().map(|i| (i % 40) as i32).collect())),
        ("b", Column::bools(i().map(|i| i % 3 == 0).collect())),
    ])
    .unwrap()
}

/// One call per evaluator family under each mask shape.
fn mask_battery(q: WindowQuery) -> WindowQuery {
    let by = |c: &str| vec![SortKey::asc(col(c))];
    let nothing_passes = || col("y").lt(lit(-1000i64));
    q
        // Masks that drop nothing.
        .call(FunctionCall::count_distinct(col("y")).named("cd_y"))
        .call(FunctionCall::sum_distinct(col("y")).named("sd_y"))
        .call(FunctionCall::median(col("y")).named("med_y"))
        .call(FunctionCall::percentile_cont(0.3, SortKey::desc(col("f"))).named("pc_f"))
        .call(FunctionCall::first_value(col("s")).order_by(by("y")).named("fv_s"))
        .call(FunctionCall::rank(by("y")).named("r_y"))
        .call(FunctionCall::mode(col("y")).named("mode_y"))
        // Masks that drop something: NULL screens, FILTER, IGNORE NULLS.
        .call(FunctionCall::count_distinct(col("x")).named("cd_x"))
        .call(FunctionCall::avg(col("x")).distinct().named("ad_x"))
        .call(FunctionCall::median(col("x")).named("med_x"))
        .call(FunctionCall::count_distinct(col("y")).filter(col("y").gt(lit(5i64))).named("cd_yf"))
        .call(FunctionCall::last_value(col("x")).ignore_nulls().named("lv_x"))
        .call(FunctionCall::row_number(by("f")).filter(col("b")).named("rn_f"))
        .call(
            FunctionCall::lead(col("x"), 1, lit(-1i64))
                .order_by(by("y"))
                .ignore_nulls()
                .named("ld"),
        )
        // Masks that drop everything.
        .call(FunctionCall::count_distinct(col("z")).named("cd_z"))
        .call(FunctionCall::median(col("z")).named("med_z"))
        .call(FunctionCall::first_value(col("z")).ignore_nulls().named("fv_z"))
        .call(FunctionCall::count_distinct(col("y")).filter(nothing_passes()).named("cd_none"))
        .call(FunctionCall::sum_distinct(col("y")).filter(nothing_passes()).named("sd_none"))
        .call(FunctionCall::rank(by("y")).filter(nothing_passes()).named("r_none"))
}

#[test]
fn masks_dropping_nothing_something_everything_are_bit_identical_everywhere() {
    let t = mask_table(240);
    let sliding =
        FrameSpec::rows(FrameBound::Preceding(lit(17i64)), FrameBound::Following(lit(3i64)));
    let running = FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow);
    let mut holed = sliding.clone();
    holed.exclusion = FrameExclusion::Group;
    for (fi, frame) in [running, sliding, holed].into_iter().enumerate() {
        for partitioned in [false, true] {
            let mut spec =
                WindowSpec::new().order_by(vec![SortKey::asc(col("pos"))]).frame(frame.clone());
            if partitioned {
                spec = spec.partition_by(vec![col("g")]);
            }
            let q = mask_battery(WindowQuery::over(spec));
            let (reference, base) = q.execute_profiled(&t, ExecOptions::serial()).unwrap();
            // About a third of what the forced-MST run builds: trees spill.
            let tight = {
                let mst = ExecOptions::serial().force_strategy(Strategy::Mst);
                q.execute_profiled(&t, mst).unwrap().1.cache.bytes_built / 3
            };
            assert_accounting(&base, "reference");
            let mut budgeted_ok = 0;
            for opts in ExecOptions::all_configs() {
                for mode in modes() {
                    for budget in [None, Some(tight)] {
                        let mut o = opts;
                        o.strategy = mode;
                        o.budget = budget;
                        let label = format!("frame {fi}, partitioned {partitioned}, {}", o.label());
                        match q.execute_profiled(&t, o) {
                            Ok((out, p)) => {
                                tables_bit_identical(&out, &reference, &label);
                                assert_accounting(&p, &label);
                                budgeted_ok += usize::from(budget.is_some());
                            }
                            Err(Error::BudgetExceeded { .. }) if budget.is_some() => {}
                            Err(e) => panic!("{label}: {e}"),
                        }
                    }
                }
            }
            assert!(budgeted_ok > 0, "frame {fi}: no budgeted configuration completed");
        }
    }
}

/// Debug rendering pins type, data and the validity representation.
fn assert_same_column(got: &Column, want: &Column, label: &str) {
    assert_eq!(format!("{got:?}"), format!("{want:?}"), "{label}");
}

/// Outputs of every column type, with and without NULLs, and one all-NULL.
fn typed_calls(q: WindowQuery) -> WindowQuery {
    q.call(FunctionCall::count_star().named("int"))
        .call(FunctionCall::avg(col("f")).named("float"))
        .call(FunctionCall::first_value(col("s")).named("str"))
        .call(FunctionCall::min(col("d")).named("date"))
        .call(FunctionCall::last_value(col("b")).named("bool"))
        .call(FunctionCall::last_value(col("x")).named("int_nulls"))
        .call(FunctionCall::lag(col("s"), 2, lit(Value::Null)).named("str_nulls"))
        .call(FunctionCall::max(col("z")).named("all_null"))
}

const TYPED: [(&str, DataType); 8] = [
    ("int", DataType::Int),
    ("float", DataType::Float),
    ("str", DataType::Str),
    ("date", DataType::Date),
    ("bool", DataType::Bool),
    ("int_nulls", DataType::Int),
    ("str_nulls", DataType::Str),
    ("all_null", DataType::Int),
];

#[test]
fn scattered_output_columns_are_what_from_values_builds() {
    let frame = FrameSpec::rows(FrameBound::Preceding(lit(2i64)), FrameBound::CurrentRow);
    // One partition, three, and one per row (many tiny partitions: the
    // cacheless path, parallel across partitions).
    for (pi, partition_by) in [vec![], vec![col("g")], vec![col("pos")]].into_iter().enumerate() {
        for n in [0usize, 1, 90] {
            let t = mask_table(n);
            let spec = WindowSpec::new()
                .partition_by(partition_by.clone())
                .order_by(vec![SortKey::desc(col("y")), SortKey::asc(col("pos"))])
                .frame(frame.clone());
            let q = typed_calls(WindowQuery::over(spec));
            let serial = q.execute_with(&t, ExecOptions::serial()).unwrap();
            for (name, ty) in TYPED {
                let c = serial.column(name).unwrap();
                let label = format!("{name}, n {n}, partitioning {pi}");
                // A column without a value to type it by is an Int column.
                let all_null = (0..n).all(|i| !c.is_valid(i));
                assert_eq!(c.data_type(), if all_null { DataType::Int } else { ty }, "{label}");
                assert_same_column(c, &Column::from_values(&c.to_values()).unwrap(), &label);
            }
            if n == 90 && pi < 2 {
                let typed =
                    |(name, ty): &(&str, DataType)| serial.column(name).unwrap().data_type() == *ty;
                assert!(TYPED.iter().all(typed), "every type is reached");
            }
            for opts in ExecOptions::all_configs() {
                let out = q.execute_with(&t, opts).unwrap();
                for (name, _) in TYPED {
                    let label = format!("{name}, n {n}, partitioning {pi}, {}", opts.label());
                    assert_same_column(
                        out.column(name).unwrap(),
                        serial.column(name).unwrap(),
                        &label,
                    );
                }
            }
        }
    }
}

#[test]
fn mixed_int_and_float_outputs_widen_or_fail_by_row_order() {
    // SUM(DISTINCT) degrades to a float where the sum leaves i64: one value
    // sums to an Int, both to a Float.
    let t = Table::new(vec![
        ("pos", Column::ints(vec![0, 1])),
        ("x", Column::ints(vec![i64::MAX - 1, 5])),
    ])
    .unwrap();
    let q = |order: SortKey| {
        WindowQuery::over(
            WindowSpec::new()
                .order_by(vec![order])
                .frame(FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow)),
        )
        .call(FunctionCall::sum_distinct(col("x")).named("s"))
    };
    for opts in ExecOptions::all_configs() {
        // Row 0 sees one value (Int), row 1 both (Float): the Int types the
        // column and the Float is refused, as `from_values` refuses it.
        let err = q(SortKey::asc(col("pos"))).execute_with(&t, opts).unwrap_err();
        let want = Column::from_values(&[Value::Int(i64::MAX - 1), Value::Float(0.0)]).unwrap_err();
        assert_eq!(err, want, "{}", opts.label());
        // Reversed, row 0 sees both (Float) and row 1 one (Int, widened).
        let out = q(SortKey::desc(col("pos"))).execute_with(&t, opts).unwrap();
        let sum = (i64::MAX - 1) as i128 + 5;
        assert_same_column(
            out.column("s").unwrap(),
            &Column::floats(vec![sum as f64, 5.0]),
            &opts.label(),
        );
    }
}

#[test]
fn append_engine_output_table_scatters_like_the_executor() {
    let full = mask_table(120);
    let spec = WindowSpec::new()
        .partition_by(vec![col("g")])
        .order_by(vec![SortKey::asc(col("pos"))])
        .frame(FrameSpec::rows(FrameBound::Preceding(lit(4i64)), FrameBound::CurrentRow));
    let q = typed_calls(WindowQuery::over(spec));
    for opts in [ExecOptions::serial(), ExecOptions::default()] {
        let mut engine = q.begin_incremental(&full.slice_rows(0, 50), opts).unwrap();
        for (a, b) in [(50, 51), (51, 90), (90, 120)] {
            engine.append(&full.slice_rows(a, b)).unwrap();
            let expected = q.execute_with(engine.table(), opts).unwrap();
            let got = engine.output_table().unwrap();
            for (name, ty) in TYPED {
                let label = format!("{name} after {b} rows, {}", opts.label());
                assert_eq!(got.column(name).unwrap().data_type(), ty, "{label}");
                assert_same_column(
                    got.column(name).unwrap(),
                    expected.column(name).unwrap(),
                    &label,
                );
            }
        }
    }
}
