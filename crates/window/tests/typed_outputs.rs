//! The result column's typing rules where a call's outputs mix two types: a
//! LEAD/LAG default of the other numeric type, and an integer
//! `SUM(DISTINCT)` that degrades to a float past `i64::MAX`. The first
//! non-NULL row in table order types the column — an Int after it widens
//! into a Float column, a Float after an Int is a `TypeMismatch` — however
//! the rows were split into partitions or segment batches, under every
//! engine configuration, exactly as the naive oracle assembles its values.

use holistic_baselines::naive;
use holistic_window::frame::{FrameBound, FrameSpec};
use holistic_window::{
    col, lit, Column, DataType, Error, ExecOptions, Expr, FunctionCall, SortKey, Strategy, Table,
    Value, WindowQuery, WindowSpec,
};

/// `n` rows: `pos` (the order key), `g` (seven partitions), `tiny` (three
/// rows each: every partition a segment of the naive batch), `v` (Ints with
/// NULLs), `f` (Floats with NULLs and signed zeros) and `big` (two values
/// near `i64::MAX / 2`, whose sum passes `i64::MAX`, small ones and NULLs).
fn table(n: usize) -> Table {
    let i = || 0..n as i64;
    let v = i().map(|i| (i % 9 != 4).then_some(i % 11 - 5));
    let f = i()
        .map(|i| (i % 13 != 6).then_some(if i % 4 == 0 { -0.0 } else { (i % 17) as f64 * 0.75 }));
    let big = i().map(|i| match i % 5 {
        0 => Some(i64::MAX / 2),
        1 => Some(i64::MAX / 2 + 7),
        2 => Some(3),
        3 => Some(-4),
        _ => None,
    });
    Table::new(vec![
        ("pos", Column::ints(i().collect())),
        ("g", Column::ints(i().map(|i| i % 7).collect())),
        ("tiny", Column::ints(i().map(|i| i / 3).collect())),
        ("v", Column::ints_opt(v.collect())),
        ("f", Column::floats_opt(f.collect())),
        ("big", Column::ints_opt(big.collect())),
    ])
    .unwrap()
}

/// Same column type and values (floats by bits), or the same error.
fn assert_same(got: &Result<Table, Error>, want: &Result<Table, Error>, what: &str) {
    match (got, want) {
        (Ok(g), Ok(w)) => {
            let (g, w) = (g.column_at(0), w.column_at(0));
            assert_eq!(g.data_type(), w.data_type(), "{what}");
            for (row, (x, y)) in g.to_values().iter().zip(w.to_values()).enumerate() {
                let same = match (x, &y) {
                    (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
                    _ => x == &y,
                };
                assert!(same, "{what} row {row}: {x:?}, naive {y:?}");
            }
        }
        (Err(g), Err(w)) => assert_eq!(g, w, "{what}"),
        _ => panic!("{what}: engine {got:?}, naive {want:?}"),
    }
}

#[test]
fn mixed_numeric_outputs_type_their_column_by_row_order() {
    let t = table(1500);
    let calls = [
        FunctionCall::lag(col("v"), 1, lit(0.5)),
        FunctionCall::lag(col("f"), 1, lit(7i64)),
        FunctionCall::sum_distinct(col("big")),
    ];
    let shapes: [(&str, Vec<Expr>); 3] = [
        ("one partition", vec![]),
        ("seven partitions", vec![col("g")]),
        ("naive batch", vec![col("tiny")]),
    ];
    let mut configs = ExecOptions::all_configs().to_vec();
    configs.push(ExecOptions::serial().force_strategy(Strategy::Mst));
    for call in calls {
        // Both rules must be reached: some shape types the column Float,
        // some meets the mismatch.
        let (mut widened, mut mismatched) = (false, false);
        for (shape, partition_by) in &shapes {
            // Ascending, table row 0 opens its partition; descending, it
            // closes it — which decides the type of the first output.
            for order in [SortKey::asc(col("pos")), SortKey::desc(col("pos"))] {
                let spec = WindowSpec::new()
                    .partition_by(partition_by.clone())
                    .order_by(vec![order.clone()])
                    .frame(FrameSpec::rows(
                        FrameBound::Preceding(lit(3i64)),
                        FrameBound::CurrentRow,
                    ));
                let q = WindowQuery::over(spec).call(call.clone().named("out"));
                let want = naive::execute(&q, &t);
                match &want {
                    Ok(w) => widened |= w.column_at(0).data_type() == DataType::Float,
                    Err(e) => mismatched |= matches!(e, Error::TypeMismatch { .. }),
                }
                for opts in &configs {
                    let what = format!("{call:?} over {shape}, {order:?}, {}", opts.label());
                    assert_same(&q.execute_with(&t, *opts), &want, &what);
                }
            }
        }
        assert!(widened && mismatched, "{call:?}: widened {widened}, mismatched {mismatched}");
    }
}
