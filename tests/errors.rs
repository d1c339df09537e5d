//! Error-path coverage: malformed queries must fail cleanly with the right
//! error, never panic.

use holistic_windows::prelude::*;
use holistic_windows::window::Error;

fn table() -> Table {
    Table::new(vec![
        ("a", Column::ints(vec![3, 1, 2])),
        ("s", Column::strs(vec!["x", "y", "z"])),
        ("f", Column::floats(vec![1.0, 2.0, 3.0])),
    ])
    .unwrap()
}

fn run(spec: WindowSpec, call: FunctionCall) -> Result<Table, Error> {
    WindowQuery::over(spec).call(call).execute(&table())
}

#[test]
fn unknown_column_in_every_position() {
    let base = || WindowSpec::new().order_by(vec![SortKey::asc(col("a"))]);
    assert!(matches!(
        run(base(), FunctionCall::sum(col("zzz"))),
        Err(Error::UnknownColumn(c)) if c == "zzz"
    ));
    assert!(
        run(WindowSpec::new().partition_by(vec![col("nope")]), FunctionCall::count_star()).is_err()
    );
    assert!(run(
        WindowSpec::new().order_by(vec![SortKey::asc(col("nope"))]),
        FunctionCall::count_star()
    )
    .is_err());
    assert!(run(base(), FunctionCall::count_star().filter(col("nope"))).is_err());
    assert!(run(
        base().frame(FrameSpec::rows(FrameBound::Preceding(col("nope")), FrameBound::CurrentRow)),
        FunctionCall::count_star()
    )
    .is_err());
}

#[test]
fn range_frame_restrictions() {
    // Multiple ORDER BY keys with a RANGE offset bound.
    let spec = WindowSpec::new()
        .order_by(vec![SortKey::asc(col("a")), SortKey::asc(col("f"))])
        .frame(FrameSpec::range(FrameBound::Preceding(lit(1i64)), FrameBound::CurrentRow));
    assert!(matches!(run(spec, FunctionCall::count_star()), Err(Error::Unsupported(_))));
    // Non-numeric key.
    let spec = WindowSpec::new()
        .order_by(vec![SortKey::asc(col("s"))])
        .frame(FrameSpec::range(FrameBound::Preceding(lit(1i64)), FrameBound::CurrentRow));
    assert!(matches!(run(spec, FunctionCall::count_star()), Err(Error::Unsupported(_))));
    // RANGE without offsets is fine for any key.
    let spec =
        WindowSpec::new().order_by(vec![SortKey::asc(col("s"))]).frame(FrameSpec::default_frame());
    assert!(run(spec, FunctionCall::count_star()).is_ok());
}

#[test]
fn invalid_frame_bounds() {
    let base = || WindowSpec::new().order_by(vec![SortKey::asc(col("a"))]);
    // Negative offset.
    let spec =
        base().frame(FrameSpec::rows(FrameBound::Preceding(lit(-1i64)), FrameBound::CurrentRow));
    assert!(matches!(run(spec, FunctionCall::count_star()), Err(Error::InvalidFrameBound(_))));
    // NULL offset.
    let spec = base()
        .frame(FrameSpec::rows(FrameBound::Preceding(lit(Value::Null)), FrameBound::CurrentRow));
    assert!(matches!(run(spec, FunctionCall::count_star()), Err(Error::InvalidFrameBound(_))));
    // UNBOUNDED FOLLOWING as a start bound.
    let spec =
        base().frame(FrameSpec::rows(FrameBound::UnboundedFollowing, FrameBound::CurrentRow));
    assert!(run(spec, FunctionCall::count_star()).is_err());
    // UNBOUNDED PRECEDING as an end bound.
    let spec =
        base().frame(FrameSpec::rows(FrameBound::CurrentRow, FrameBound::UnboundedPreceding));
    assert!(run(spec, FunctionCall::count_star()).is_err());
    // String offset.
    let spec =
        base().frame(FrameSpec::rows(FrameBound::Preceding(col("s")), FrameBound::CurrentRow));
    assert!(matches!(run(spec, FunctionCall::count_star()), Err(Error::InvalidFrameBound(_))));
}

#[test]
fn function_argument_validation() {
    let base = || WindowSpec::new().order_by(vec![SortKey::asc(col("a"))]);
    // SUM over strings.
    assert!(matches!(run(base(), FunctionCall::sum(col("s"))), Err(Error::TypeMismatch { .. })));
    // SUM(DISTINCT) over strings.
    assert!(run(base(), FunctionCall::sum_distinct(col("s"))).is_err());
    // percentile fraction out of range.
    assert!(matches!(
        run(base(), FunctionCall::percentile_disc(1.5, SortKey::asc(col("a")))),
        Err(Error::InvalidArgument(_))
    ));
    // NTILE bucket count < 1.
    assert!(matches!(
        run(base(), FunctionCall::ntile(lit(0i64), vec![SortKey::asc(col("a"))])),
        Err(Error::InvalidArgument(_))
    ));
    // NTH_VALUE n < 1.
    assert!(run(base(), FunctionCall::nth_value(col("a"), lit(0i64))).is_err());
    // DISTINCT on a rank function.
    assert!(run(base(), FunctionCall::rank(vec![]).distinct()).is_err());
    // IGNORE NULLS on an aggregate.
    assert!(run(base(), FunctionCall::sum(col("a")).ignore_nulls()).is_err());
    // Wrong arity.
    assert!(run(base(), FunctionCall::new(FuncKind::Sum, vec![])).is_err());
    assert!(run(base(), FunctionCall::new(FuncKind::CountStar, vec![col("a")])).is_err());
    // PERCENTILE_CONT over strings.
    assert!(run(base(), FunctionCall::percentile_cont(0.5, SortKey::asc(col("s")))).is_err());
}

#[test]
fn errors_do_not_depend_on_parallelism() {
    let spec = WindowSpec::new()
        .order_by(vec![SortKey::asc(col("a"))])
        .frame(FrameSpec::rows(FrameBound::Preceding(lit(-5i64)), FrameBound::CurrentRow));
    let q = WindowQuery::over(spec).call(FunctionCall::count_star());
    let t = table();
    assert!(q.execute_with(&t, ExecOptions::default()).is_err());
    assert!(q.execute_with(&t, ExecOptions::serial()).is_err());
}

#[test]
fn ragged_table_rejected_at_construction() {
    let r = Table::new(vec![("a", Column::ints(vec![1, 2])), ("b", Column::ints(vec![1]))]);
    assert!(matches!(r, Err(Error::LengthMismatch { .. })));
}
