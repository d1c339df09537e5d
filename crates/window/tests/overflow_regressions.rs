//! Regression tests for overflow/underflow/precision bugs in frame and
//! offset arithmetic, found by the differential fuzzer (ISSUE 4).
//!
//! Each test documents the pre-fix failure mode: debug-build panics on
//! integer overflow in ROWS/GROUPS frame resolution and LEAD/LAG offset
//! adjustment, and silent f64 precision loss for RANGE keys beyond 2^53.

use holistic_window::frame::{resolve_frames, FrameBound, FrameSpec};
use holistic_window::order::{sort_permutation, KeyColumns, SortKey};
use holistic_window::prelude::*;

fn sorted_setup(vals: Vec<i64>) -> (Table, Vec<usize>, KeyColumns) {
    let n = vals.len();
    let t = Table::new(vec![("k", Column::ints(vals))]).unwrap();
    let keys = KeyColumns::evaluate(&t, &[SortKey::asc(col("k"))]).unwrap();
    let mut rows: Vec<usize> = (0..n).collect();
    sort_permutation(&keys, &mut rows, false);
    (t, rows, keys)
}

/// Bug 1: `eval_offset(...) as usize` saturates huge offsets to
/// `usize::MAX`, then `i + off` / `i + off + 1` / `gi + off` overflow
/// (panic in debug builds, wrap in release). Huge offsets must clamp to the
/// partition instead.
#[test]
fn rows_frame_huge_offsets_clamp() {
    let (t, rows, keys) = sorted_setup(vec![1, 2, 3, 4]);
    for big in [lit(1e300), lit(i64::MAX), lit(f64::MAX)] {
        // FOLLOWING .. FOLLOWING: both `(i + off)` sites are exercised.
        let spec =
            FrameSpec::rows(FrameBound::Following(big.clone()), FrameBound::Following(big.clone()));
        let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
        for &(a, b) in &rf.bounds {
            assert!(a <= b && b <= 4, "bounds out of partition: ({a}, {b})");
        }
        // Huge offset past the partition end → empty frame everywhere.
        assert!(rf.bounds.iter().all(|&(a, b)| a == b));

        // UNBOUNDED PRECEDING .. big FOLLOWING → whole partition.
        let spec =
            FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::Following(big.clone()));
        let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
        assert!(rf.bounds.iter().all(|&(a, b)| a == 0 && b == 4));

        // big PRECEDING .. UNBOUNDED FOLLOWING → whole partition.
        let spec =
            FrameSpec::rows(FrameBound::Preceding(big.clone()), FrameBound::UnboundedFollowing);
        let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
        assert!(rf.bounds.iter().all(|&(a, b)| a == 0 && b == 4));
    }
}

/// Bug 1 (GROUPS variant): `gi + off` with a saturated offset overflowed
/// before the comparison against `num_groups` could reject it.
#[test]
fn groups_frame_huge_offsets_clamp() {
    let (t, rows, keys) = sorted_setup(vec![5, 5, 7, 9, 9]);
    for big in [lit(1e300), lit(i64::MAX)] {
        let spec = FrameSpec::groups(
            FrameBound::Following(big.clone()),
            FrameBound::Following(big.clone()),
        );
        let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
        assert!(rf.bounds.iter().all(|&(a, b)| a == b), "huge GROUPS frame must be empty");

        let spec =
            FrameSpec::groups(FrameBound::Preceding(big.clone()), FrameBound::Following(big));
        let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
        assert!(rf.bounds.iter().all(|&(a, b)| a == 0 && b == 5));
    }
}

/// Bug 1 (end-to-end): a huge per-call offset must flow through the whole
/// engine without panicking, under every engine configuration.
#[test]
fn huge_offsets_execute_end_to_end() {
    let t = Table::new(vec![("x", Column::ints(vec![3, 1, 2]))]).unwrap();
    for frame in [
        FrameSpec::rows(FrameBound::Following(lit(1e300)), FrameBound::Following(lit(1e300))),
        FrameSpec::groups(
            FrameBound::Preceding(lit(i64::MAX)),
            FrameBound::Following(lit(i64::MAX)),
        ),
    ] {
        let q = WindowQuery::over(
            WindowSpec::new().order_by(vec![SortKey::asc(col("x"))]).frame(frame),
        )
        .call(FunctionCall::count_star().named("c"))
        .call(FunctionCall::median(col("x")).named("m"));
        for opts in ExecOptions::all_configs() {
            q.execute_with(&t, opts).unwrap();
        }
    }
}

/// Bug 2: LEAD/LAG offset arithmetic. `i as i64 + off` overflowed for
/// offsets near `i64::MAX` (debug panic), `-raw` overflowed for
/// `i64::MIN`, and offset 0 must be well-defined (the current row, per
/// SQL) on every path, including IGNORE NULLS and the framed variant.
#[test]
fn lead_lag_extreme_and_zero_offsets() {
    let t = Table::new(vec![
        ("x", Column::ints_opt(vec![Some(10), None, Some(30), Some(40)])),
        ("pos", Column::ints(vec![0, 1, 2, 3])),
    ])
    .unwrap();
    let spec = || WindowSpec::new().order_by(vec![SortKey::asc(col("pos"))]);

    // Extreme offsets: out of range on every row → the default.
    for off in [i64::MAX, i64::MIN, i64::MAX - 1] {
        for call in [
            FunctionCall::lead(col("x"), off, lit(-1i64)).named("o"),
            FunctionCall::lag(col("x"), off, lit(-1i64)).named("o"),
            FunctionCall::lead(col("x"), off, lit(-1i64)).ignore_nulls().named("o"),
            FunctionCall::lag(col("x"), off, lit(-1i64)).ignore_nulls().named("o"),
            FunctionCall::lead(col("x"), off, lit(-1i64))
                .order_by(vec![SortKey::asc(col("x"))])
                .named("o"),
        ] {
            let out = WindowQuery::over(spec()).call(call).execute(&t).unwrap();
            assert_eq!(out.column("o").unwrap().to_values(), vec![Value::Int(-1); 4]);
        }
    }

    // Offset 0 → the current row's value, on the plain and IGNORE NULLS paths.
    for call in [
        FunctionCall::lead(col("x"), 0, lit(-1i64)).named("o"),
        FunctionCall::lag(col("x"), 0, lit(-1i64)).named("o"),
        FunctionCall::lead(col("x"), 0, lit(-1i64))
            .order_by(vec![SortKey::asc(col("pos"))])
            .named("o"),
    ] {
        let out = WindowQuery::over(spec()).call(call).execute(&t).unwrap();
        assert_eq!(
            out.column("o").unwrap().to_values(),
            vec![Value::Int(10), Value::Null, Value::Int(30), Value::Int(40)]
        );
    }
    // IGNORE NULLS + offset 0: the current row, even when it is NULL (an
    // offset of zero refers to the row itself, not the nearest non-null).
    for call in [
        FunctionCall::lead(col("x"), 0, lit(-1i64)).ignore_nulls().named("o"),
        FunctionCall::lag(col("x"), 0, lit(-1i64)).ignore_nulls().named("o"),
    ] {
        let out = WindowQuery::over(spec()).call(call).execute(&t).unwrap();
        assert_eq!(
            out.column("o").unwrap().to_values(),
            vec![Value::Int(10), Value::Null, Value::Int(30), Value::Int(40)]
        );
    }
}

/// Bug 3: RANGE offset arithmetic went through f64, silently collapsing
/// distinct i64 keys beyond 2^53. Integer keys must use exact integer
/// arithmetic.
#[test]
fn range_frames_exact_for_large_i64_keys() {
    let k0 = i64::MAX - 3;
    let (t, rows, keys) = sorted_setup(vec![k0, k0 + 1, k0 + 2]);
    // In f64, all three keys round to 2^63: every frame would cover all rows.
    let spec = FrameSpec::range(FrameBound::Preceding(lit(1i64)), FrameBound::Following(lit(1i64)));
    let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
    assert_eq!(rf.bounds, vec![(0, 2), (0, 3), (1, 3)]);

    // Offsets that push past i64::MAX must clamp, not wrap.
    let spec = FrameSpec::range(
        FrameBound::Preceding(lit(i64::MAX)),
        FrameBound::Following(lit(i64::MAX)),
    );
    let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
    assert_eq!(rf.bounds, vec![(0, 3), (0, 3), (0, 3)]);

    // DESC order: same exactness through the mirrored arithmetic.
    let t2 = Table::new(vec![("k", Column::ints(vec![k0, k0 + 1, k0 + 2]))]).unwrap();
    let keys2 = KeyColumns::evaluate(&t2, &[SortKey::desc(col("k"))]).unwrap();
    let mut rows2: Vec<usize> = (0..3).collect();
    sort_permutation(&keys2, &mut rows2, false);
    let spec = FrameSpec::range(FrameBound::Preceding(lit(1i64)), FrameBound::Following(lit(1i64)));
    let rf = resolve_frames(&t2, &rows2, &keys2, &spec).unwrap();
    assert_eq!(rf.bounds, vec![(0, 2), (0, 3), (1, 3)]);
}

/// Bug 3 (negative end): exactness near i64::MIN as well.
#[test]
fn range_frames_exact_for_large_negative_keys() {
    let k0 = i64::MIN + 1;
    let (t, rows, keys) = sorted_setup(vec![k0, k0 + 1, k0 + 2]);
    let spec = FrameSpec::range(FrameBound::Preceding(lit(1i64)), FrameBound::CurrentRow);
    let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
    assert_eq!(rf.bounds, vec![(0, 1), (0, 2), (1, 3)]);

    // PRECEDING far past i64::MIN clamps to the partition start.
    let spec = FrameSpec::range(FrameBound::Preceding(lit(i64::MAX)), FrameBound::CurrentRow);
    let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
    assert_eq!(rf.bounds, vec![(0, 1), (0, 2), (0, 3)]);
}

/// Float keys keep the f64 path; mixed int-key/float-offset falls back to
/// f64 arithmetic (documented behavior), and neither panics.
#[test]
fn range_frames_float_paths_still_work() {
    let t = Table::new(vec![("k", Column::floats(vec![1.0, 1.5, 3.0]))]).unwrap();
    let keys = KeyColumns::evaluate(&t, &[SortKey::asc(col("k"))]).unwrap();
    let rows: Vec<usize> = (0..3).collect();
    let spec = FrameSpec::range(FrameBound::Preceding(lit(0.5)), FrameBound::Following(lit(0.5)));
    let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
    assert_eq!(rf.bounds, vec![(0, 2), (0, 2), (2, 3)]);

    // Int keys with a float offset.
    let (t2, rows2, keys2) = sorted_setup(vec![10, 11, 15]);
    let spec = FrameSpec::range(FrameBound::Preceding(lit(1.5)), FrameBound::Following(lit(1.5)));
    let rf = resolve_frames(&t2, &rows2, &keys2, &spec).unwrap();
    assert_eq!(rf.bounds, vec![(0, 2), (0, 2), (2, 3)]);
}

/// `i64::MIN / -1` and `i64::MIN MOD -1` panicked in both evaluators (the
/// VM handed exactly those rows to the interpreter, which then panicked), and
/// `-i64::MIN` in an overflow-checked build. Integer arithmetic wraps at the
/// edges as `+ − ×` do: `i64::MIN / -1` is `i64::MIN`, `MOD -1` is 0. A
/// PARTITION BY key, a FILTER, an ORDER BY key and an argument over a table
/// holding `i64::MIN` agree with the naive oracle bit for bit, long enough
/// for the VM and short enough for the per-row interpreter.
#[test]
fn integer_edges_wrap_in_keys_filters_and_arguments() {
    let edges = [i64::MIN, -1, i64::MAX, i64::MIN, 0, 1, i64::MIN + 1, i64::MIN, 7, -7];
    for n in [4, edges.len() * 3] {
        let k: Vec<i64> = edges.iter().copied().cycle().take(n).collect();
        let t = Table::new(vec![
            ("pos", Column::ints((0..n as i64).collect())),
            ("k", Column::ints(k)),
        ])
        .unwrap();
        let q = WindowQuery::over(
            WindowSpec::new()
                .partition_by(vec![col("k").div(lit(-1i64))])
                .order_by(vec![SortKey::asc(col("k").neg()), SortKey::asc(col("pos"))]),
        )
        .call(FunctionCall::count_star().filter(col("k").rem(lit(-1i64)).eq_(lit(0i64))).named("c"))
        .call(FunctionCall::min(col("k").neg()).named("m"))
        .call(FunctionCall::row_number(vec![]).named("r"));
        let want = holistic_baselines::naive::execute(&q, &t).unwrap();
        for opts in ExecOptions::all_configs() {
            let got = q.execute_with(&t, opts).unwrap();
            for name in ["c", "m", "r"] {
                assert_eq!(
                    format!("{:?}", got.column(name).unwrap().to_values()),
                    format!("{:?}", want.column(name).unwrap().to_values()),
                    "{name} over {n} rows, {}",
                    opts.label()
                );
            }
        }
    }
}
