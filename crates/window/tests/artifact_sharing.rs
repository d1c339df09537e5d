//! Asserts the plan → build → probe pipeline's sharing guarantees through
//! the profile's cache counters and artifact labels: a query whose calls
//! share one inner ORDER BY performs exactly one inner sort and one
//! merge-sort-tree build of each needed kind per partition, a call builds
//! only what it reads — and disabling sharing redoes the work per call
//! without changing any result.

use holistic_window::frame::{FrameBound, FrameSpec};
use holistic_window::{
    col, lit, Column, ExecOptions, ExecProfile, FunctionCall, SortKey, Strategy, Table,
    WindowQuery, WindowSpec,
};

/// Serial execution pinned to the merge sort tree: these tests assert cache
/// counters, which the adaptive mode's cacheless direct path would zero out
/// on tables this small.
fn mst() -> ExecOptions {
    ExecOptions::serial().force_strategy(Strategy::Mst)
}

/// Three holistic calls from different families — rank, row_number and a
/// framed LEAD — all ordering by `v` under identical (empty) FILTER masks.
fn shared_order_query() -> WindowQuery {
    let inner = || vec![SortKey::asc(col("v"))];
    WindowQuery::over(
        WindowSpec::new()
            .order_by(vec![SortKey::asc(col("t"))])
            .frame(FrameSpec::rows(FrameBound::Preceding(lit(3i64)), FrameBound::CurrentRow)),
    )
    .call(FunctionCall::rank(inner()).named("r"))
    .call(FunctionCall::row_number(inner()).named("rn"))
    .call(FunctionCall::lead(col("v"), 1, lit(-1i64)).order_by(inner()).named("ld"))
}

/// How many times the execution built artifacts under `label`.
fn builds(profile: &ExecProfile, label: &str) -> u64 {
    profile.artifacts.iter().find(|a| a.label == label).map_or(0, |a| a.builds)
}

/// The labels the execution built, sorted.
fn labels(profile: &ExecProfile) -> Vec<&'static str> {
    let mut labels: Vec<&'static str> = profile.artifacts.iter().map(|a| a.label).collect();
    labels.sort_unstable();
    labels
}

fn demo_table(n: usize) -> Table {
    let t: Vec<i64> = (0..n as i64).collect();
    let v: Vec<i64> = (0..n as i64).map(|i| (i * 37 + 11) % 23).collect();
    Table::new(vec![("t", Column::ints(t)), ("v", Column::ints(v))]).unwrap()
}

#[test]
fn three_calls_one_criterion_sort_once() {
    let table = demo_table(64);
    let q = shared_order_query();
    let (_, profile) = q.execute_profiled(&table, mst()).unwrap();
    assert_eq!(profile.partitions, 1);
    // One partition: the single inner sort feeds all three calls.
    assert_eq!(profile.cache.inner_sorts, 1, "inner ORDER BY must be sorted exactly once");
    // One code tree (rank + row_number + LEAD's rank step) and one
    // permutation tree (LEAD's selection step) — nothing else.
    assert_eq!(profile.cache.mst_builds, 2, "one code MST and one permutation MST");
    assert_eq!((builds(&profile, "code-mst"), builds(&profile, "perm-mst")), (1, 1));
    // No call filters or screens: one mask serves all three.
    assert_eq!(builds(&profile, "mask"), 1);
    assert!(profile.cache.hits > 0, "later calls must hit the shared artifacts");
}

#[test]
fn no_sharing_redoes_the_sort_per_call() {
    let table = demo_table(64);
    let q = shared_order_query();
    let shared = q.execute_with(&table, mst()).unwrap();
    let (private, profile) = q.execute_profiled(&table, mst().no_sharing()).unwrap();
    // Each of the three calls now sorts for itself...
    assert_eq!(profile.cache.inner_sorts, 3);
    // ...rank and row_number build one code tree each, LEAD builds a code
    // tree and a permutation tree (it still shares within itself).
    assert_eq!(profile.cache.mst_builds, 4);
    // ...but every output is identical.
    for name in ["r", "rn", "ld"] {
        assert_eq!(
            shared.column(name).unwrap().to_values(),
            private.column(name).unwrap().to_values(),
            "column {name} must not depend on artifact sharing"
        );
    }
}

#[test]
fn sharing_counters_scale_with_partitions() {
    let n = 96;
    let g: Vec<i64> = (0..n as i64).map(|i| i % 4).collect();
    let t: Vec<i64> = (0..n as i64).collect();
    let v: Vec<i64> = (0..n as i64).map(|i| (i * 29 + 7) % 17).collect();
    let table =
        Table::new(vec![("g", Column::ints(g)), ("t", Column::ints(t)), ("v", Column::ints(v))])
            .unwrap();
    let inner = || vec![SortKey::asc(col("v"))];
    let q = WindowQuery::over(
        WindowSpec::new()
            .partition_by(vec![col("g")])
            .order_by(vec![SortKey::asc(col("t"))])
            .frame(FrameSpec::rows(FrameBound::Preceding(lit(5i64)), FrameBound::CurrentRow)),
    )
    .call(FunctionCall::rank(inner()).named("r"))
    .call(FunctionCall::row_number(inner()).named("rn"))
    .call(FunctionCall::lead(col("v"), 1, lit(-1i64)).order_by(inner()).named("ld"));
    let (_, profile) = q.execute_profiled(&table, mst()).unwrap();
    assert_eq!(profile.partitions, 4);
    // Exactly one sort and one tree build of each kind per partition.
    assert_eq!(profile.cache.inner_sorts, 4);
    assert_eq!(profile.cache.mst_builds, 8);
}

#[test]
fn differing_masks_do_not_share_sorts() {
    // A percentile screens NULL keys out of its sort; a rank over the same
    // criterion keeps them. The planner must give them distinct mask keys —
    // sharing here would be a correctness bug, so the counter is 2.
    let table = Table::new(vec![
        ("t", Column::ints((0..32).collect())),
        (
            "v",
            Column::ints_opt(
                (0..32).map(|i| if i % 5 == 0 { None } else { Some(i % 7) }).collect(),
            ),
        ),
    ])
    .unwrap();
    let q = WindowQuery::over(
        WindowSpec::new()
            .order_by(vec![SortKey::asc(col("t"))])
            .frame(FrameSpec::rows(FrameBound::Preceding(lit(4i64)), FrameBound::CurrentRow)),
    )
    .call(FunctionCall::rank(vec![SortKey::asc(col("v"))]).named("r"))
    .call(FunctionCall::median(col("v")).named("med"));
    let (_, profile) = q.execute_profiled(&table, mst()).unwrap();
    assert_eq!(profile.cache.inner_sorts, 2, "NULL-screened and unscreened sorts must stay apart");
    assert_eq!((builds(&profile, "mask"), builds(&profile, "dense-codes")), (2, 2));
}

#[test]
fn window_order_fallback_shares_with_seeded_keys() {
    // Rank functions without an inner ORDER BY fall back to the window ORDER
    // BY; the executor seeds each partition cache with those key columns, so
    // requesting them is a hit, never a second evaluation.
    let table = demo_table(48);
    let q = WindowQuery::over(
        WindowSpec::new()
            .order_by(vec![SortKey::asc(col("v"))])
            .frame(FrameSpec::rows(FrameBound::Preceding(lit(3i64)), FrameBound::CurrentRow)),
    )
    .call(FunctionCall::rank(vec![]).named("r"))
    .call(FunctionCall::rank(vec![SortKey::asc(col("v"))]).named("r2"));
    let (out, profile) = q.execute_profiled(&table, mst()).unwrap();
    // The explicit ORDER BY v criterion is structurally equal to the window
    // order fallback: one sort serves both calls.
    assert_eq!(profile.cache.inner_sorts, 1);
    assert_eq!(
        out.column("r").unwrap().to_values(),
        out.column("r2").unwrap().to_values(),
        "explicit and fallback criteria must agree"
    );
}

#[test]
fn implicit_and_explicit_rank_order_share_one_sort_and_tree() {
    // RANK without an inner ORDER BY ranks by the window's; ROW_NUMBER
    // spells the same criterion out. One sort and one code tree serve both.
    let table = demo_table(48);
    let q = WindowQuery::over(
        WindowSpec::new()
            .order_by(vec![SortKey::asc(col("v"))])
            .frame(FrameSpec::rows(FrameBound::Preceding(lit(3i64)), FrameBound::CurrentRow)),
    )
    .call(FunctionCall::rank(vec![]).named("r"))
    .call(FunctionCall::row_number(vec![SortKey::asc(col("v"))]).named("rn"));
    let (_, profile) = q.execute_profiled(&table, mst()).unwrap();
    assert_eq!((profile.cache.inner_sorts, profile.cache.mst_builds), (1, 1));
    assert_eq!(labels(&profile), ["code-mst", "dense-codes", "mask"]);
}

#[test]
fn sum_and_avg_of_one_argument_share_one_prefix_sum_array() {
    // The fold index's flavor is the data's choice (integers here); under
    // one mask `sum(v), avg(v)` read the same one.
    let table = demo_table(48);
    let q = WindowQuery::over(
        WindowSpec::new()
            .order_by(vec![SortKey::asc(col("t"))])
            .frame(FrameSpec::rows(FrameBound::Preceding(lit(3i64)), FrameBound::CurrentRow)),
    )
    .call(FunctionCall::sum(col("v")).named("s"))
    .call(FunctionCall::avg(col("v")).named("a"));
    let (_, profile) = q.execute_profiled(&table, mst()).unwrap();
    assert_eq!(builds(&profile, "prefix-sums"), 1);
    assert_eq!(profile.cache.segtree_builds, 0);
    assert_eq!(labels(&profile), ["mask", "prefix-sums", "values"]);
}

#[test]
fn what_the_partition_already_answers_builds_no_index() {
    // A frame's kept-row count is the mask's remap and frame-position
    // selection is arithmetic on the frame's pieces: COUNT and value
    // functions without an inner ORDER BY build a mask and the values they
    // read, nothing to sort and no tree.
    let table = demo_table(48);
    let q = WindowQuery::over(
        WindowSpec::new()
            .order_by(vec![SortKey::asc(col("t"))])
            .frame(FrameSpec::rows(FrameBound::Preceding(lit(3i64)), FrameBound::CurrentRow)),
    )
    .call(FunctionCall::count_star().filter(col("v").gt(lit(0i64))).named("c"))
    .call(FunctionCall::count(col("v")).named("cv"))
    .call(FunctionCall::first_value(col("v")).ignore_nulls().named("fv"))
    .call(FunctionCall::nth_value(col("v"), lit(2i64)).named("nv"));
    let (_, profile) = q.execute_profiled(&table, mst()).unwrap();
    assert_eq!(profile.strategy.cacheless_partitions, 0);
    assert_eq!((profile.cache.inner_sorts, profile.cache.mst_builds), (0, 0));
    assert_eq!(labels(&profile), ["kept-values", "mask", "values"]);
}
