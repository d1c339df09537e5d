//! Adversarial tests for frame exclusion with distinct aggregates and
//! DENSE_RANK — the §4.7 corner the paper glosses over: a value whose only
//! frame occurrences sit inside the excluded hole must not be counted, while
//! one that also occurs outside still counts once. The engine handles this
//! with occurrence-list corrections; these inputs maximize the hole sizes
//! and duplicate densities that stress that code.

use holistic_windows::baselines::naive;
use holistic_windows::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn check(t: &Table, spec: WindowSpec, calls: Vec<FunctionCall>) {
    let mut q = WindowQuery::over(spec);
    for c in calls {
        q = q.call(c);
    }
    let expect = naive::execute(&q, t).unwrap();
    let got = q.execute(t).unwrap();
    for (name, cg) in got.iter() {
        let ce = expect.column(name).unwrap();
        for i in 0..t.num_rows() {
            assert!(
                cg.get(i).sql_eq(&ce.get(i)) || cg.get(i).is_null() && ce.get(i).is_null(),
                "{name} row {i}: engine={} naive={}",
                cg.get(i),
                ce.get(i)
            );
        }
    }
}

fn distinct_calls() -> Vec<FunctionCall> {
    vec![
        FunctionCall::count_distinct(col("v")).named("cd"),
        FunctionCall::sum_distinct(col("v")).named("sd"),
        FunctionCall::avg(col("v")).distinct().named("ad"),
        FunctionCall::dense_rank(vec![SortKey::asc(col("v"))]).named("dr"),
        FunctionCall::mode(col("v")).named("mo"),
    ]
}

/// All rows are peers (constant order key) — EXCLUDE GROUP empties every
/// frame; EXCLUDE TIES leaves only the current row.
#[test]
fn single_giant_peer_group() {
    let n = 200;
    let mut rng = StdRng::seed_from_u64(1);
    let v: Vec<i64> = (0..n).map(|_| rng.gen_range(0..5)).collect();
    let t = Table::new(vec![("k", Column::ints(vec![7; n])), ("v", Column::ints(v))]).unwrap();
    for excl in [FrameExclusion::CurrentRow, FrameExclusion::Group, FrameExclusion::Ties] {
        let spec = WindowSpec::new()
            .order_by(vec![SortKey::asc(col("k"))])
            .frame(FrameSpec::whole_partition().exclude(excl));
        check(&t, spec, distinct_calls());
    }
}

/// Few distinct values, large tie groups in the ORDER BY: holes regularly
/// contain a value's *only* occurrences.
#[test]
fn hole_only_values_are_corrected() {
    let mut rng = StdRng::seed_from_u64(2);
    let n = 300;
    let k: Vec<i64> = (0..n).map(|_| rng.gen_range(0..4)).collect(); // 4 peer groups
    let v: Vec<i64> = (0..n).map(|_| rng.gen_range(0..3)).collect(); // 3 values
    let t = Table::new(vec![("k", Column::ints(k)), ("v", Column::ints(v))]).unwrap();
    for excl in [FrameExclusion::CurrentRow, FrameExclusion::Group, FrameExclusion::Ties] {
        for frame in [
            FrameSpec::whole_partition().exclude(excl),
            FrameSpec::rows(FrameBound::Preceding(lit(50i64)), FrameBound::Following(lit(50i64)))
                .exclude(excl),
            FrameSpec::range(FrameBound::Preceding(lit(1i64)), FrameBound::Following(lit(1i64)))
                .exclude(excl),
        ] {
            let spec = WindowSpec::new().order_by(vec![SortKey::asc(col("k"))]).frame(frame);
            check(&t, spec, distinct_calls());
        }
    }
}

/// Values aligned with peer groups: every value lives entirely inside one
/// hole candidate.
#[test]
fn values_equal_order_keys() {
    let n = 240;
    let k: Vec<i64> = (0..n as i64).map(|i| i / 30).collect(); // 8 groups of 30
    let t = Table::new(vec![
        ("k", Column::ints(k.clone())),
        ("v", Column::ints(k)), // v == k: each value exists only in its group
    ])
    .unwrap();
    for excl in [FrameExclusion::Group, FrameExclusion::Ties] {
        let spec = WindowSpec::new()
            .order_by(vec![SortKey::asc(col("k"))])
            .frame(FrameSpec::whole_partition().exclude(excl));
        check(&t, spec, distinct_calls());
    }
}

/// Exclusion combined with FILTER and NULLs (remapped hole geometry).
#[test]
fn exclusion_with_filter_and_nulls() {
    let mut rng = StdRng::seed_from_u64(3);
    let n = 250;
    let k: Vec<i64> = (0..n).map(|_| rng.gen_range(0..6)).collect();
    let v: Vec<Option<i64>> =
        (0..n).map(|_| if rng.gen_bool(0.2) { None } else { Some(rng.gen_range(0..4)) }).collect();
    let f: Vec<i64> = (0..n).map(|_| rng.gen_range(0..3)).collect();
    let t = Table::new(vec![
        ("k", Column::ints(k)),
        ("v", Column::ints_opt(v)),
        ("f", Column::ints(f)),
    ])
    .unwrap();
    for excl in [FrameExclusion::CurrentRow, FrameExclusion::Group, FrameExclusion::Ties] {
        let spec = WindowSpec::new().order_by(vec![SortKey::asc(col("k"))]).frame(
            FrameSpec::rows(FrameBound::Preceding(lit(40i64)), FrameBound::Following(lit(40i64)))
                .exclude(excl),
        );
        let calls: Vec<FunctionCall> =
            distinct_calls().into_iter().map(|c| c.filter(col("f").ne(lit(0i64)))).collect();
        check(&t, spec, calls);
    }
}

/// Degenerate sizes around the hole-correction code paths.
#[test]
fn tiny_partitions_with_exclusion() {
    for n in 1..=6usize {
        let t = Table::new(vec![
            ("k", Column::ints(vec![1; n])),
            ("v", Column::ints((0..n as i64).map(|i| i % 2).collect())),
        ])
        .unwrap();
        for excl in [FrameExclusion::CurrentRow, FrameExclusion::Group, FrameExclusion::Ties] {
            let spec = WindowSpec::new()
                .order_by(vec![SortKey::asc(col("k"))])
                .frame(FrameSpec::whole_partition().exclude(excl));
            check(&t, spec, distinct_calls());
        }
    }
}

/// About 1 500 partitions of 1–7 rows under ROWS frames with EXCLUDE GROUP
/// and EXCLUDE TIES: every partition is tiny, so every call runs naive over
/// one batch of the concatenated partitions (6 000 rows), and each
/// partition's peer groups — which a ROWS frame keeps only for these holes —
/// must reach its segment of the batch shifted to the segment's start.
#[test]
fn peer_holes_of_tiny_partitions_in_one_naive_batch() {
    let mut rng = StdRng::seed_from_u64(4);
    let (mut g, mut k, mut v) = (Vec::new(), Vec::new(), Vec::new());
    let mut partitions = 0u64;
    while g.len() < 6_000 {
        for _ in 0..rng.gen_range(1..=7) {
            g.push(partitions as i64);
            k.push(rng.gen_range(0..3i64)); // peer groups of 1 to 7 rows
            v.push(rng.gen_range(0..4i64));
        }
        partitions += 1;
    }
    let t =
        Table::new(vec![("g", Column::ints(g)), ("k", Column::ints(k)), ("v", Column::ints(v))])
            .unwrap();
    // SUM / AVG DISTINCT run on the tree only, so they would take their
    // partitions out of the batch.
    let mut calls: Vec<FunctionCall> = distinct_calls()
        .into_iter()
        .filter(|c| !(c.distinct && matches!(c.kind, FuncKind::Sum | FuncKind::Avg)))
        .collect();
    calls.extend([
        FunctionCall::count_star().named("n"),
        FunctionCall::median(col("v")).named("med"),
        FunctionCall::rank(vec![SortKey::asc(col("v"))]).named("rk"),
        FunctionCall::first_value(col("v")).named("fv"),
    ]);
    for excl in [FrameExclusion::Group, FrameExclusion::Ties] {
        let frame =
            FrameSpec::rows(FrameBound::Preceding(lit(2i64)), FrameBound::Following(lit(3i64)))
                .exclude(excl);
        let spec = WindowSpec::new()
            .partition_by(vec![col("g")])
            .order_by(vec![SortKey::asc(col("k"))])
            .frame(frame);
        let q = WindowQuery { spec: spec.clone(), calls: calls.clone() };
        let (_, profile) = q.execute_profiled(&t, ExecOptions::serial()).unwrap();
        assert_eq!(profile.strategy.cacheless_partitions, partitions, "{excl:?}");
        check(&t, spec, calls.clone());
    }
}
