//! Property test for the shared-artifact executor: a multi-call
//! `WindowQuery` mixing every holistic family — shared and non-shared inner
//! ORDER BYs, FILTER, IGNORE NULLS, DISTINCT, frame exclusions — must produce
//! bit-identical output to evaluating each call as its own single-call
//! query, under shared and private caches, serial and parallel.

use holistic_window::frame::{FrameBound, FrameExclusion, FrameSpec};
use holistic_window::{
    col, lit, Column, ExecOptions, Expr, FunctionCall, SortKey, Table, WindowQuery, WindowSpec,
};
use proptest::prelude::*;

/// `y > 3` as a FILTER predicate.
fn y_above_three() -> Expr {
    col("y").gt(lit(3i64))
}

/// One call per family, with deliberately overlapping inner ORDER BYs and
/// mask variations so some artifacts share and others must not.
fn battery() -> Vec<FunctionCall> {
    vec![
        FunctionCall::count_distinct(col("x")).named("c0"),
        FunctionCall::sum(col("x")).filter(y_above_three()).named("c1"),
        FunctionCall::rank(vec![SortKey::asc(col("y"))]).named("c2"),
        FunctionCall::dense_rank(vec![SortKey::asc(col("y"))]).named("c3"),
        FunctionCall::median(col("y")).named("c4"),
        FunctionCall::first_value(col("x")).ignore_nulls().named("c5"),
        FunctionCall::lead(col("x"), 1, lit(0i64))
            .order_by(vec![SortKey::asc(col("y"))])
            .named("c6"),
        FunctionCall::lag(col("x"), 1, lit(-1i64)).named("c7"),
        FunctionCall::mode(col("y")).named("c8"),
        // SUM/AVG(DISTINCT) are MST-only: the annotated tree's seeded
        // descent runs on every partition, however small.
        FunctionCall::sum_distinct(col("x")).named("c9"),
        FunctionCall::sum_distinct(col("x")).filter(y_above_three()).named("c10"),
        FunctionCall::avg(col("y")).distinct().named("c11"),
        FunctionCall::avg(col("y")).distinct().filter(y_above_three()).named("c12"),
    ]
}

fn exclusion_of(idx: usize) -> FrameExclusion {
    match idx {
        0 => FrameExclusion::NoOthers,
        1 => FrameExclusion::CurrentRow,
        2 => FrameExclusion::Group,
        _ => FrameExclusion::Ties,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn combined_query_matches_per_call_queries(
        xs in prop::collection::vec(prop::option::of(-8i64..8), 8..120),
        ys in prop::collection::vec(-6i64..7, 8..120),
        gs in prop::collection::vec(0i64..3, 8..120),
        lo in 0i64..4,
        hi in 0i64..4,
        excl in 0usize..4,
    ) {
        let n = xs.len().min(ys.len()).min(gs.len());
        let table = Table::new(vec![
            ("x", Column::ints_opt(xs[..n].to_vec())),
            ("y", Column::ints(ys[..n].to_vec())),
            ("g", Column::ints(gs[..n].to_vec())),
            ("pos", Column::ints((0..n as i64).collect())),
        ])
        .unwrap();
        let spec = WindowSpec::new()
            .partition_by(vec![col("g")])
            .order_by(vec![SortKey::asc(col("pos"))])
            .frame(
                FrameSpec::rows(
                    FrameBound::Preceding(lit(lo)),
                    FrameBound::Following(lit(hi)),
                )
                .exclude(exclusion_of(excl)),
            );
        let calls = battery();
        let combined = WindowQuery { spec: spec.clone(), calls: calls.clone() };

        // Reference: shared cache, serial.
        let base = combined.execute_with(&table, ExecOptions::serial()).unwrap();

        // The same combined query under a parallel and under private-cache
        // executions must not change a single value.
        for (label, opts) in [
            ("parallel", ExecOptions::default()),
            ("serial/no-sharing", ExecOptions::serial().no_sharing()),
            ("parallel/no-sharing", ExecOptions::default().no_sharing()),
        ] {
            let out = combined.execute_with(&table, opts).unwrap();
            for call in &calls {
                let name = call.output_name.as_str();
                prop_assert_eq!(
                    base.column(name).unwrap().to_values(),
                    out.column(name).unwrap().to_values(),
                    "column {} differs under {}", name, label
                );
            }
        }

        // Each call evaluated alone — no sharing possible — must agree too.
        for call in &calls {
            let name = call.output_name.as_str();
            let single = WindowQuery::over(spec.clone()).call(call.clone());
            let out = single.execute_with(&table, ExecOptions::serial()).unwrap();
            prop_assert_eq!(
                base.column(name).unwrap().to_values(),
                out.column(name).unwrap().to_values(),
                "column {} differs between combined and single-call queries", name
            );
        }
    }
}
