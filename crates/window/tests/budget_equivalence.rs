//! The memory-budget contract: budgeted execution is bit-identical to
//! unbudgeted execution whenever it completes, stays within its budget
//! (peak resident governed bytes ≤ budget), and fails with the typed
//! [`Error::BudgetExceeded`] — never a panic — when even spilling cannot
//! satisfy a build.

use holistic_window::frame::{FrameBound, FrameSpec};
use holistic_window::{
    col, lit, Column, Error, ExecOptions, FunctionCall, SortKey, Strategy, Table, Value,
    WindowQuery, WindowSpec,
};
use proptest::prelude::*;

/// Bit-faithful value equality (floats by bits, like the fuzzer's oracle).
fn bits_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn tables_bit_identical(a: &Table, b: &Table, label: &str) {
    assert_eq!(a.num_columns(), b.num_columns(), "{label}");
    assert_eq!(a.num_rows(), b.num_rows(), "{label}");
    for ((na, ca), (nb, cb)) in a.iter().zip(b.iter()) {
        assert_eq!(na, nb, "{label}");
        let (va, vb) = (ca.to_values(), cb.to_values());
        for (i, (x, y)) in va.iter().zip(&vb).enumerate() {
            assert!(bits_eq(x, y), "{label}: column {na} row {i}: {x:?} != {y:?}");
        }
    }
}

/// A deterministic partitioned table exercising the holistic family.
fn test_table(n: usize, parts: u64) -> Table {
    let g: Vec<i64> = (0..n).map(|i| (i as u64 % parts) as i64).collect();
    let t: Vec<i64> = (0..n as i64).collect();
    let v: Vec<i64> = (0..n).map(|i| ((i as u64).wrapping_mul(2654435761) % 1000) as i64).collect();
    Table::new(vec![("g", Column::ints(g)), ("t", Column::ints(t)), ("v", Column::ints(v))])
        .unwrap()
}

fn holistic_query() -> WindowQuery {
    WindowQuery::over(
        WindowSpec::new()
            .partition_by(vec![col("g")])
            .order_by(vec![SortKey::asc(col("t"))])
            .frame(FrameSpec::rows(FrameBound::Preceding(lit(64i64)), FrameBound::CurrentRow)),
    )
    .call(FunctionCall::median(col("v")).named("med"))
    .call(FunctionCall::count_distinct(col("v")).named("cd"))
    .call(FunctionCall::rank(vec![SortKey::desc(col("v"))]).named("r"))
}

#[test]
fn budgeted_execution_is_bit_identical_and_within_budget() {
    let t = test_table(4000, 8);
    let q = holistic_query();
    let base_opts = ExecOptions::serial().force_strategy(Strategy::Mst);
    let (reference, profile) = q.execute_profiled(&t, base_opts).unwrap();
    let total = profile.cache.bytes_built;
    assert!(total > 0);

    // ~85% of one partition's share: small enough that a partition's two
    // trees cannot both stay resident (forcing parking + re-faults), large
    // enough that the non-spillable artifacts still fit.
    let tight = total / 8 * 85 / 100;
    let (out, p) = q.execute_profiled(&t, base_opts.memory_budget(tight)).unwrap();
    tables_bit_identical(&out, &reference, "tight budget");
    assert_eq!(p.spill.budget, Some(tight));
    assert!(
        p.spill.peak_resident <= tight,
        "peak resident {} exceeds budget {tight}",
        p.spill.peak_resident
    );
    assert!(p.spill.bytes_spilled > 0, "a tight budget must actually spill");

    // A roomy budget must also be identical (and needs no spilling).
    let (out, p) = q.execute_profiled(&t, base_opts.memory_budget(total * 2)).unwrap();
    tables_bit_identical(&out, &reference, "roomy budget");
    assert!(p.spill.peak_resident <= total * 2);
}

/// A tree is built when its call first asks for it, so under a budget that
/// holds one tree but not two, the second call's build parks the first
/// call's tree after that call is done with it: one tree spilled, none
/// re-faulted. Building both before either call probes would park the first
/// tree before its own call checks it out, and every probe after that
/// re-faults.
#[test]
fn each_tree_is_built_when_its_call_asks_so_none_re_faults() {
    let n = 20_000i64;
    let table = Table::new(vec![
        ("t", Column::ints((0..n).collect())),
        ("a", Column::ints((0..n).map(|i| (i * 7919) % 1000).collect())),
        ("b", Column::ints((0..n).map(|i| (i * 104_729) % 997).collect())),
    ])
    .unwrap();
    let q = WindowQuery::over(
        WindowSpec::new()
            .order_by(vec![SortKey::asc(col("t"))])
            .frame(FrameSpec::rows(FrameBound::Preceding(lit(100i64)), FrameBound::CurrentRow)),
    )
    .call(FunctionCall::rank(vec![SortKey::desc(col("a"))]).named("ra"))
    .call(FunctionCall::rank(vec![SortKey::desc(col("b"))]).named("rb"));
    let opts = ExecOptions::serial().force_strategy(Strategy::Mst);
    let (reference, profile) = q.execute_profiled(&table, opts).unwrap();
    let trees = profile.artifacts.iter().find(|a| a.label == "code-mst").unwrap();
    assert_eq!(trees.builds, 2);
    let tree_bytes = trees.bytes / 2;
    assert_eq!(profile.spill.bytes_spilled, 0);

    let budget = profile.spill.peak_resident * 9 / 10;
    let (out, p) = q.execute_profiled(&table, opts.memory_budget(budget)).unwrap();
    tables_bit_identical(&out, &reference, "one tree's worth too little");
    assert_eq!(p.spill.refaults, 0, "a tree was parked before its call probed it");
    assert_eq!(p.spill.evictions, 1);
    assert_eq!(p.spill.bytes_spilled, tree_bytes, "exactly the first call's tree spills");
    assert!(p.spill.peak_resident <= budget);
}

/// A budget never makes Adaptive pick a cached strategy whose artifacts
/// cannot fit while naive, which charges the governor nothing, could run
/// the call: one 20 000-row partition, 551-row frames, a median and a rank,
/// each completes bit-identically under every budget. Choosing by cost
/// alone, the median's dense codes (800 000 B) fail at 800 000 and below,
/// and the rank's tree (725 376 B) at 1 500 000 while lower budgets pass.
#[test]
fn adaptive_falls_back_to_naive_where_a_cached_strategy_cannot_fit() {
    let n = 20_000i64;
    let table = Table::new(vec![
        ("t", Column::ints((0..n).collect())),
        ("v", Column::ints((0..n).map(|i| (37 * i + 11) % 1009).collect())),
    ])
    .unwrap();
    let over = |call: FunctionCall| {
        WindowQuery::over(
            WindowSpec::new()
                .order_by(vec![SortKey::asc(col("t"))])
                .frame(FrameSpec::rows(FrameBound::Preceding(lit(550i64)), FrameBound::CurrentRow)),
        )
        .call(call)
    };
    for q in [
        over(FunctionCall::median(col("v")).named("med")),
        over(FunctionCall::rank(vec![SortKey::asc(col("v"))]).named("r")),
    ] {
        let name = q.calls[0].output_name.clone();
        let reference = q.execute_with(&table, ExecOptions::serial()).unwrap();
        for budget in [3_000_000, 1_500_000, 800_000, 400_000] {
            let label = format!("{name} under {budget}");
            let opts = ExecOptions::serial().memory_budget(budget);
            let (out, p) =
                q.execute_profiled(&table, opts).unwrap_or_else(|e| panic!("{label}: {e}"));
            tables_bit_identical(&out, &reference, &label);
            assert!(p.spill.peak_resident <= budget, "{label}");
        }
    }
}

/// The fallback prices each call by what its family builds: a running
/// COUNT(DISTINCT) charges its mask, values and hashes (340 000 B over
/// 20 000 rows), never dense codes, so a budget that holds those but not
/// the rank family's 41 B a row keeps it on the sliding multiset instead
/// of handing it to naive, which rehashes every growing frame.
#[test]
fn a_budget_that_holds_a_running_distinct_count_keeps_it_incremental() {
    let n = 20_000i64;
    let table = Table::new(vec![
        ("t", Column::ints((0..n).collect())),
        ("v", Column::ints((0..n).map(|i| (37 * i + 11) % 1009).collect())),
    ])
    .unwrap();
    let q = WindowQuery::over(
        WindowSpec::new()
            .order_by(vec![SortKey::asc(col("t"))])
            .frame(FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow)),
    )
    .call(FunctionCall::count_distinct(col("v")).named("cd"));
    let reference = q.execute_with(&table, ExecOptions::serial()).unwrap();
    let budget = 600_000;
    let (out, p) = q.execute_profiled(&table, ExecOptions::serial().memory_budget(budget)).unwrap();
    tables_bit_identical(&out, &reference, "running COUNT(DISTINCT) under 600 000");
    assert_eq!(p.strategy.decisions[Strategy::Incremental.index()], 1);
    assert!(p.spill.peak_resident <= budget);
}

#[test]
fn parallel_budgeted_execution_is_identical_or_typed_error() {
    let t = test_table(4000, 8);
    let q = holistic_query();
    let reference =
        q.execute_with(&t, ExecOptions::serial().force_strategy(Strategy::Mst)).unwrap();
    let (_, profile) =
        q.execute_profiled(&t, ExecOptions::serial().force_strategy(Strategy::Mst)).unwrap();
    // Parallel partitions charge the shared budget concurrently, so a tight
    // budget may legitimately fail — but only with the typed error, and any
    // success must be bit-identical.
    for budget in [profile.cache.bytes_built / 4, profile.cache.bytes_built] {
        let opts = ExecOptions::default().force_strategy(Strategy::Mst).memory_budget(budget);
        match q.execute_with(&t, opts) {
            Ok(out) => tables_bit_identical(&out, &reference, "parallel budgeted"),
            Err(Error::BudgetExceeded { requested, budget: b }) => {
                assert_eq!(b, budget);
                assert!(requested > 0);
            }
            Err(other) => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }
}

#[test]
fn impossible_budget_is_a_typed_error_never_a_panic() {
    let t = test_table(500, 2);
    let q = holistic_query();
    let opts = ExecOptions::serial().force_strategy(Strategy::Mst).memory_budget(64);
    match q.execute_with(&t, opts) {
        Err(Error::BudgetExceeded { requested, budget }) => {
            assert_eq!(budget, 64);
            assert!(requested > 64, "a failing charge must actually exceed the budget");
        }
        other => panic!("expected Err(BudgetExceeded), got {other:?}"),
    }
}

#[test]
fn append_profile_reports_artifact_bytes() {
    // Regression: the incremental engine used to discard footprint
    // telemetry (`let _ = cache.take_footprints()`), so AppendProfile could
    // never report artifact bytes after the first append.
    let base = test_table(256, 2);
    let q = holistic_query();
    let opts = ExecOptions::serial().force_strategy(Strategy::Mst);
    let mut engine = q.begin_incremental(&base, opts).unwrap();
    // Batch sorting *before* existing rows forces the recompute path.
    let batch = Table::new(vec![
        ("g", Column::ints(vec![0, 1])),
        ("t", Column::ints(vec![-2, -1])),
        ("v", Column::ints(vec![17, 23])),
    ])
    .unwrap();
    let res = engine.append(&batch).unwrap();
    assert!(res.profile.recomputed_partitions > 0);
    assert!(
        res.profile.artifact_bytes_built > 0,
        "recompute built artifacts but reported no footprint bytes"
    );
    assert!(engine.spill_stats().peak_resident > 0);
}

/// The engine holds no governed bytes between appends: every recompute's
/// caches are dropped before it returns, as a serial from-scratch run drops
/// each partition's. So a budget that serial from-scratch execution meets,
/// the engine meets too, at open and on every append that recomputes.
#[test]
fn the_incremental_engine_holds_no_governed_bytes_between_appends() {
    let base = test_table(20_000, 4);
    let q = WindowQuery::over(
        WindowSpec::new()
            .partition_by(vec![col("g")])
            .order_by(vec![SortKey::asc(col("t"))])
            .frame(FrameSpec::rows(FrameBound::Preceding(lit(100i64)), FrameBound::CurrentRow)),
    )
    .call(FunctionCall::rank(vec![SortKey::asc(col("v"))]).named("r"))
    .call(FunctionCall::median(col("v")).named("med"));
    let opts = ExecOptions::serial().force_strategy(Strategy::Mst).memory_budget(1_000_000);

    let mut engine = q.begin_incremental(&base, opts).unwrap();
    let expected = q.execute_with(&base, opts).unwrap();
    tables_bit_identical(&engine.output_table().unwrap(), &expected, "at open");
    assert_eq!(engine.spill_stats().resident, 0, "at open");

    // One row per partition that sorts first: every partition recomputes.
    for round in 1..=2i64 {
        let batch = Table::new(vec![
            ("g", Column::ints(vec![0, 1, 2, 3])),
            ("t", Column::ints((0..4).map(|g| -10 * round - g).collect())),
            ("v", Column::ints(vec![round, 500, 999, 7])),
        ])
        .unwrap();
        let res = engine.append(&batch).unwrap();
        assert_eq!(res.profile.recomputed_partitions, 4, "append {round}");
        let expected = q.execute_with(engine.table(), opts).unwrap();
        tables_bit_identical(&engine.output_table().unwrap(), &expected, "after an append");
        assert_eq!(engine.spill_stats().resident, 0, "after append {round}");
    }
    assert!(engine.spill_stats().peak_resident > 0);
}

#[test]
fn budgeted_append_engine_matches_batch_execution() {
    let base = test_table(1500, 4);
    let q = holistic_query();
    let unbudgeted = ExecOptions::serial().force_strategy(Strategy::Mst);
    let (_, profile) = q.execute_profiled(&base, unbudgeted).unwrap();
    let budget = profile.cache.bytes_built / 2;
    let opts = unbudgeted.memory_budget(budget);
    let mut engine = match q.begin_incremental(&base, opts) {
        Ok(e) => e,
        Err(Error::BudgetExceeded { .. }) => return, // legitimately too tight
        Err(other) => panic!("expected BudgetExceeded, got {other:?}"),
    };
    let batch = Table::new(vec![
        ("g", Column::ints(vec![0, 1, 2, 3])),
        ("t", Column::ints(vec![2000, 2001, 2002, 2003])),
        ("v", Column::ints(vec![5, 6, 7, 8])),
    ])
    .unwrap();
    match engine.append(&batch) {
        Ok(_) => {
            let expected = q.execute_with(engine.table(), unbudgeted).unwrap();
            tables_bit_identical(&engine.output_table().unwrap(), &expected, "budgeted engine");
        }
        Err(Error::BudgetExceeded { .. }) => (),
        Err(other) => panic!("expected BudgetExceeded, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For random inputs and every budget tier {∞, 50%, 10%, tiny}:
    /// budgeted runs either match the unbudgeted output bit-for-bit or fail
    /// with `BudgetExceeded` — and never panic.
    #[test]
    fn budget_tiers_are_identical_or_typed_error(
        vals in prop::collection::vec(-50i64..50, 1..300),
        parts in 1u64..4,
        width in 1i64..40,
    ) {
        let n = vals.len();
        let g: Vec<i64> = (0..n).map(|i| (i as u64 % parts) as i64).collect();
        let t: Vec<i64> = (0..n as i64).collect();
        let table = Table::new(vec![
            ("g", Column::ints(g)),
            ("t", Column::ints(t)),
            ("v", Column::ints(vals)),
        ]).unwrap();
        let q = WindowQuery::over(
            WindowSpec::new()
                .partition_by(vec![col("g")])
                .order_by(vec![SortKey::asc(col("t"))])
                .frame(FrameSpec::rows(FrameBound::Preceding(lit(width)), FrameBound::CurrentRow)),
        )
        .call(FunctionCall::median(col("v")).named("med"))
        .call(FunctionCall::count_distinct(col("v")).named("cd"))
        .call(FunctionCall::rank(vec![SortKey::desc(col("v"))]).named("r"));

        let base = ExecOptions::serial().force_strategy(Strategy::Mst);
        let (reference, profile) = q.execute_profiled(&table, base).unwrap();
        let total = profile.cache.bytes_built.max(1);
        for budget in [None, Some(total / 2), Some(total / 10), Some(512)] {
            let opts = match budget {
                None => base,
                Some(b) => base.memory_budget(b),
            };
            match q.execute_with(&table, opts) {
                Ok(out) => tables_bit_identical(&out, &reference, "proptest budget tier"),
                Err(Error::BudgetExceeded { .. }) => {
                    prop_assert!(budget.is_some(), "unbudgeted runs cannot exceed a budget");
                }
                Err(other) => prop_assert!(false, "expected BudgetExceeded, got {other:?}"),
            }
        }
    }
}
