//! Regression tests for bugs found by the differential fuzzer
//! (`crates/fuzz`), beyond the overflow family covered in
//! `overflow_regressions.rs`. Each test names the fuzzer seed that first
//! exposed the bug.

use holistic_window::prelude::*;
use holistic_window::Error;

/// Found by seed 0x87ff248bd515301d: PERCENTILE_CONT over an *integer* key
/// returned the key value itself (an Int) whenever the rank landed exactly
/// on one element, but an interpolated Float otherwise — mixing both types
/// in one output column, which fails to build. CONT must always yield a
/// float (SQL: double precision), as the naive baseline always did.
#[test]
fn percentile_cont_over_int_keys_is_float_on_exact_hits() {
    let t = Table::new(vec![("v", Column::ints(vec![1, 2, 3]))]).unwrap();
    // Running frame: row 0 selects exactly one element (the exact-hit
    // branch), rows 1 and 2 interpolate.
    let q = WindowQuery::over(
        WindowSpec::new()
            .order_by(vec![SortKey::asc(col("v"))])
            .frame(FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow)),
    )
    .call(FunctionCall::percentile_cont(0.5, SortKey::asc(col("v"))).named("p"));
    for opts in ExecOptions::all_configs() {
        let out = q.execute_with(&t, opts).unwrap();
        assert_eq!(
            out.column("p").unwrap().to_values(),
            vec![Value::Float(1.0), Value::Float(1.5), Value::Float(2.0)],
            "config {}",
            opts.label(),
        );
    }
}

/// Found by reading `hash_value` (ISSUE 13), not by a seed: the fuzzer's
/// argument columns never left ±15. `Int(x)` hashed as `(x as f64).to_bits()`
/// and every distinct path decides equality on the hash alone, so integers
/// beyond 2^53 that round to one float counted as one value: the running
/// distinct count over 2^53, 2^53+1, 2^53+2, 2^53+3 read 1, 1, 2, 3 and
/// `SUM(DISTINCT)` dropped 2^53+1 — under every strategy alike.
#[test]
fn distinct_aggregates_tell_integers_beyond_2_pow_53_apart() {
    const P53: i64 = 1 << 53;
    let ints = |v: &[i64]| v.iter().map(|&x| Value::Int(x)).collect::<Vec<_>>();
    let spec = WindowSpec::new()
        .order_by(vec![SortKey::asc(col("pos"))])
        .frame(FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow));
    // (values, running distinct count, running distinct sum where it fits i64)
    let cases = [
        (
            vec![P53, P53 + 1, P53 + 2, P53 + 3],
            vec![1, 2, 3, 4],
            Some(vec![P53, 2 * P53 + 1, 3 * P53 + 3, 4 * P53 + 6]),
        ),
        (
            vec![-P53 - 1, -P53, -P53 - 1, -P53 - 2],
            vec![1, 2, 2, 3],
            Some(vec![-P53 - 1, -2 * P53 - 1, -2 * P53 - 1, -3 * P53 - 3]),
        ),
        // `i64::MAX as f64` is 2^63: a check of `x as f64 as i64 == x`
        // saturates back to i64::MAX and would take it for exact.
        (vec![i64::MAX, i64::MAX - 1, i64::MAX - 2, i64::MAX], vec![1, 2, 3, 3], None),
    ];
    for (x, counts, sums) in cases {
        let t = Table::new(vec![
            ("pos", Column::ints((0..x.len() as i64).collect())),
            ("x", Column::ints(x.clone())),
        ])
        .unwrap();
        let mut q = WindowQuery::over(spec.clone())
            .call(FunctionCall::count_distinct(col("x")).named("cd"));
        if sums.is_some() {
            q = q.call(FunctionCall::sum_distinct(col("x")).named("sd"));
        }
        for opts in ExecOptions::all_configs() {
            let forced = [Strategy::Mst, Strategy::Incremental, Strategy::Naive];
            for opts in std::iter::once(opts).chain(forced.map(|s| opts.force_strategy(s))) {
                let out = q.execute_with(&t, opts).unwrap();
                let label = format!("{x:?}, {}", opts.label());
                assert_eq!(out.column("cd").unwrap().to_values(), ints(&counts), "{label}");
                if let Some(sums) = &sums {
                    assert_eq!(out.column("sd").unwrap().to_values(), ints(sums), "{label}");
                }
            }
        }
    }
}

/// Found by reading `eval::fraction_arg` (ISSUE 14), not by a seed: the
/// fuzzer draws literal fractions only. A fraction that read a column was
/// evaluated once, at the partition's first row, and used for every row —
/// `10 10 10 20 30 40` here, where per-row evaluation gives
/// `10 20 10 40 30 60`. SQL's ordered-set direct argument is one value per
/// call, so such a fraction is rejected, under every strategy alike.
#[test]
fn percentile_fraction_reading_a_column_is_rejected() {
    let t = Table::new(vec![
        ("d", Column::ints((0..6).collect())),
        ("x", Column::ints(vec![10, 20, 30, 40, 50, 60])),
        ("p", Column::ints(vec![0, 1, 0, 1, 0, 1])),
    ])
    .unwrap();
    let spec = WindowSpec::new()
        .order_by(vec![SortKey::asc(col("d"))])
        .frame(FrameSpec::rows(FrameBound::Preceding(lit(2i64)), FrameBound::CurrentRow));
    for (kind, fraction) in
        [(FuncKind::PercentileDisc, col("p")), (FuncKind::PercentileCont, lit(1i64).sub(col("p")))]
    {
        let call = FunctionCall::new(kind, vec![fraction]).order_by(vec![SortKey::asc(col("x"))]);
        let q = WindowQuery::over(spec.clone()).call(call.named("q"));
        for opts in ExecOptions::all_configs() {
            for opts in std::iter::once(opts).chain(Strategy::ALL.map(|s| opts.force_strategy(s))) {
                match q.execute_with(&t, opts) {
                    Err(Error::InvalidArgument(m)) => {
                        assert!(m.contains("constant expression"), "{}: {m}", opts.label())
                    }
                    other => panic!("{}: expected InvalidArgument, got {other:?}", opts.label()),
                }
            }
        }
    }
}

/// Found by reading `eval::distributive` (ISSUE 22), not by a seed: the
/// fuzzer's arguments never leave ±15. `avg(x)` over integers summed in
/// `f64`, so 2^53 + 1 rounded to 2^53 before the division and the second
/// frame's mean read 2^52 although the exact mean, 2^52 + 1, is a float.
/// Integer AVG divides the exact sum — under every strategy alike, and
/// without SUM's overflow: a sum past `i64` still has a mean.
#[test]
fn integer_avg_divides_the_exact_sum() {
    let spec = WindowSpec::new()
        .order_by(vec![SortKey::asc(col("d"))])
        .frame(FrameSpec::rows(FrameBound::Preceding(lit(1i64)), FrameBound::CurrentRow));
    let cases = [
        (vec![9007199254740993, 1], vec![9007199254740992.0, 4503599627370497.0]),
        (vec![i64::MAX, i64::MAX], vec![i64::MAX as f64, i64::MAX as f64]),
    ];
    for (x, means) in cases {
        let t = Table::new(vec![("d", Column::ints(vec![0, 1])), ("x", Column::ints(x))]).unwrap();
        let q = WindowQuery::over(spec.clone()).call(FunctionCall::avg(col("x")).named("a"));
        let expected: Vec<Value> = means.into_iter().map(Value::Float).collect();
        for opts in ExecOptions::all_configs() {
            for opts in std::iter::once(opts).chain(Strategy::ALL.map(|s| opts.force_strategy(s))) {
                let out = q.execute_with(&t, opts).unwrap();
                assert_eq!(out.column("a").unwrap().to_values(), expected, "{}", opts.label());
            }
        }
        let oracle = holistic_baselines::naive::execute(&q, &t).unwrap();
        assert_eq!(oracle.column("a").unwrap().to_values(), expected, "naive oracle");
    }
}
