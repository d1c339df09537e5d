//! The negative half of the harness: invalid and extreme specifications must
//! yield [`holistic_window::Error`], never a panic, on the naive baseline and
//! every engine configuration.
//!
//! Two sources of cases:
//!
//! * a curated corpus of hand-built invalid specs — every rejection path the
//!   engine documents (negative/NULL/non-numeric/non-finite offsets, bad
//!   bound shapes, RANGE key restrictions, malformed call shapes, bad
//!   runtime arguments, type-mismatched outputs) plus extreme-but-valid
//!   specs that exercise the overflow-hardened arithmetic;
//! * seeded random cases from [`crate::gen`], each *poisoned* with one
//!   guaranteed-invalid mutation, so rejection paths are also reached from
//!   arbitrary surrounding spec shapes.
//!
//! Frame and argument errors surface per evaluated row, so `MustErr` is only
//! asserted when the table has rows; empty tables still assert no-panic.

use crate::diff::run_protected;
use crate::gen::{self, GenConfig};
use holistic_baselines::naive;
use holistic_window::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of a sweep run.
#[derive(Debug)]
pub struct SweepReport {
    /// Total cases executed (curated + random).
    pub cases: usize,
    /// One line per violated expectation; empty means the sweep passed.
    pub failures: Vec<String>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Every execution must return `Err` (and must not panic).
    MustErr,
    /// Any `Result` is fine; only panics fail the sweep.
    NoPanic,
}

fn tiny_table() -> Table {
    Table::new(vec![
        ("g", Column::strs(vec!["x", "y", "x", "z", "y", "x"])),
        ("k", Column::ints_opt(vec![Some(3), None, Some(7), Some(3), Some(9), None])),
        ("v", Column::ints_opt(vec![Some(1), Some(-2), None, Some(4), Some(0), Some(2)])),
        (
            "f",
            Column::floats_opt(vec![Some(0.5), None, Some(-1.5), Some(2.0), Some(0.5), Some(3.25)]),
        ),
        ("d", Column::dates(vec![0, 1, 2, 3, 4, 5])),
    ])
    .expect("fixed table is well-formed")
}

/// A query over `ORDER BY k` with the given frame and a harmless call.
fn frame_query(frame: FrameSpec) -> WindowQuery {
    WindowQuery::over(WindowSpec::new().order_by(vec![SortKey::asc(col("k"))]).frame(frame))
        .call(FunctionCall::count_star().named("c"))
}

/// A whole-partition query around one (possibly malformed) call.
fn call_query(call: FunctionCall) -> WindowQuery {
    WindowQuery::over(WindowSpec::new()).call(call.named("c"))
}

fn curated() -> Vec<(String, Expect, WindowQuery)> {
    use Expect::{MustErr, NoPanic};
    let days = || col("d").sub(lit(Value::Date(0)));
    let mut out: Vec<(String, Expect, WindowQuery)> = Vec::new();
    let mut add = |desc: &str, expect: Expect, q: WindowQuery| {
        out.push((desc.to_string(), expect, q));
    };

    // -- invalid frame offsets, across all three modes ---------------------
    add(
        "rows negative int offset",
        MustErr,
        frame_query(FrameSpec::rows(FrameBound::Preceding(lit(-1i64)), FrameBound::CurrentRow)),
    );
    add(
        "rows negative float offset",
        MustErr,
        frame_query(FrameSpec::rows(FrameBound::CurrentRow, FrameBound::Following(lit(-3.5)))),
    );
    add(
        "range NULL offset",
        MustErr,
        frame_query(FrameSpec::range(
            FrameBound::Preceding(lit(Value::Null)),
            FrameBound::CurrentRow,
        )),
    );
    add(
        "groups string offset",
        MustErr,
        frame_query(FrameSpec::groups(FrameBound::CurrentRow, FrameBound::Following(lit("x")))),
    );
    add(
        "rows bool offset",
        MustErr,
        frame_query(FrameSpec::rows(FrameBound::Preceding(lit(true)), FrameBound::CurrentRow)),
    );
    add(
        "range NaN offset",
        MustErr,
        frame_query(FrameSpec::range(FrameBound::CurrentRow, FrameBound::Following(lit(f64::NAN)))),
    );
    add(
        "rows infinite offset",
        MustErr,
        frame_query(FrameSpec::rows(
            FrameBound::Following(lit(f64::INFINITY)),
            FrameBound::UnboundedFollowing,
        )),
    );
    add(
        "per-row offset going negative",
        MustErr,
        frame_query(FrameSpec::rows(
            FrameBound::Preceding(days().sub(lit(10i64))),
            FrameBound::CurrentRow,
        )),
    );
    add(
        "per-row offset of string type",
        MustErr,
        frame_query(FrameSpec::groups(FrameBound::Preceding(col("g")), FrameBound::CurrentRow)),
    );

    // -- invalid bound shapes ---------------------------------------------
    add(
        "UNBOUNDED FOLLOWING as frame start",
        MustErr,
        frame_query(FrameSpec::rows(
            FrameBound::UnboundedFollowing,
            FrameBound::UnboundedFollowing,
        )),
    );
    add(
        "UNBOUNDED PRECEDING as frame end",
        MustErr,
        frame_query(FrameSpec::range(
            FrameBound::UnboundedPreceding,
            FrameBound::UnboundedPreceding,
        )),
    );

    // -- RANGE key restrictions -------------------------------------------
    add(
        "range offsets over multi-key ORDER BY",
        MustErr,
        WindowQuery::over(
            WindowSpec::new()
                .order_by(vec![SortKey::asc(col("k")), SortKey::desc(col("d"))])
                .frame(FrameSpec::range(FrameBound::Preceding(lit(1i64)), FrameBound::CurrentRow)),
        )
        .call(FunctionCall::count_star().named("c")),
    );
    add(
        "range offsets over string ORDER BY key",
        MustErr,
        WindowQuery::over(
            WindowSpec::new()
                .order_by(vec![SortKey::asc(col("g"))])
                .frame(FrameSpec::range(FrameBound::CurrentRow, FrameBound::Following(lit(2i64)))),
        )
        .call(FunctionCall::count_star().named("c")),
    );

    // -- malformed call shapes (structural validation) ---------------------
    add(
        "count(*) with an argument",
        MustErr,
        call_query(FunctionCall::new(FuncKind::CountStar, vec![col("v")])),
    );
    add("sum with no argument", MustErr, call_query(FunctionCall::new(FuncKind::Sum, vec![])));
    add("rank DISTINCT", MustErr, call_query(FunctionCall::rank(vec![]).distinct()));
    add("sum IGNORE NULLS", MustErr, call_query(FunctionCall::sum(col("v")).ignore_nulls()));
    add("mode DISTINCT", MustErr, call_query(FunctionCall::mode(col("v")).distinct()));
    add(
        "percentile without ORDER BY",
        MustErr,
        call_query(FunctionCall::new(FuncKind::PercentileDisc, vec![lit(0.5)])),
    );
    // `d - d` is 0 on every row — a legal fraction value, so only the
    // constant-expression rule rejects it.
    add(
        "percentile fraction reading a column",
        MustErr,
        call_query(
            FunctionCall::new(FuncKind::PercentileDisc, vec![col("d").sub(col("d"))])
                .order_by(vec![SortKey::asc(col("v"))]),
        ),
    );
    add(
        "nth_value with one argument",
        MustErr,
        call_query(FunctionCall::new(FuncKind::NthValue, vec![col("v")])),
    );
    add("unknown column", MustErr, call_query(FunctionCall::sum(col("nope"))));

    // -- bad runtime arguments --------------------------------------------
    add("ntile of zero", MustErr, call_query(FunctionCall::ntile(lit(0i64), vec![])));
    add("ntile of negative", MustErr, call_query(FunctionCall::ntile(lit(-2i64), vec![])));
    add("ntile of string", MustErr, call_query(FunctionCall::ntile(lit("x"), vec![])));
    add("nth_value n = 0", MustErr, call_query(FunctionCall::nth_value(col("v"), lit(0i64))));
    add("nth_value n < 0", MustErr, call_query(FunctionCall::nth_value(col("v"), lit(-1i64))));
    add("nth_value n of string", MustErr, call_query(FunctionCall::nth_value(col("v"), lit("x"))));
    add(
        "lead with string offset",
        MustErr,
        call_query(FunctionCall::new(FuncKind::Lead, vec![col("v"), lit("x"), lit(0i64)])),
    );
    add(
        "percentile_disc fraction < 0",
        MustErr,
        call_query(
            FunctionCall::new(FuncKind::PercentileDisc, vec![lit(-0.2)])
                .order_by(vec![SortKey::asc(col("v"))]),
        ),
    );
    add(
        "percentile_disc fraction > 1",
        MustErr,
        call_query(FunctionCall::percentile_disc(1.5, SortKey::asc(col("v")))),
    );
    add(
        "percentile_cont NaN fraction",
        MustErr,
        call_query(FunctionCall::percentile_cont(f64::NAN, SortKey::asc(col("f")))),
    );
    add(
        "percentile_disc string fraction",
        MustErr,
        call_query(
            FunctionCall::new(FuncKind::PercentileDisc, vec![lit("x")])
                .order_by(vec![SortKey::asc(col("v"))]),
        ),
    );
    add(
        "lead default of mismatched type",
        MustErr,
        call_query(FunctionCall::lead(col("v"), 1, lit("zzz"))),
    );
    add("sum over strings", MustErr, call_query(FunctionCall::sum(col("g"))));

    // -- extreme but valid: must not panic (overflow hardening) ------------
    for (name, big) in
        [("i64::MAX", lit(i64::MAX)), ("1e300", lit(1e300)), ("f64::MAX", lit(f64::MAX))]
    {
        for frame in [
            FrameSpec::rows(FrameBound::Preceding(big.clone()), FrameBound::Following(big.clone())),
            FrameSpec::range(
                FrameBound::Preceding(big.clone()),
                FrameBound::Following(big.clone()),
            ),
            FrameSpec::groups(
                FrameBound::Following(big.clone()),
                FrameBound::Following(big.clone()),
            ),
        ] {
            add(&format!("huge {name} offset, {:?} mode", frame.mode), NoPanic, frame_query(frame));
        }
    }
    add(
        "reversed constant bounds (empty frames)",
        NoPanic,
        frame_query(FrameSpec::rows(
            FrameBound::Following(lit(5i64)),
            FrameBound::Preceding(lit(5i64)),
        )),
    );
    add(
        "lead offset i64::MIN",
        NoPanic,
        call_query(FunctionCall::lead(col("v"), i64::MIN, lit(-1i64))),
    );
    add(
        "lag offset i64::MAX ignore nulls",
        NoPanic,
        call_query(FunctionCall::lag(col("v"), i64::MAX, lit(-1i64)).ignore_nulls()),
    );
    add(
        "non-boolean FILTER predicate",
        NoPanic,
        call_query(FunctionCall::count_star().filter(col("v").add(lit(1i64)))),
    );

    out
}

/// One guaranteed-invalid mutation of a generated query. Frame poisons keep
/// the generated calls; call poisons replace them (with a whole-partition
/// frame, so the bad argument is certainly evaluated).
fn poison(rng: &mut StdRng, mut query: WindowQuery) -> (String, WindowQuery) {
    let desc;
    match rng.gen_range(0u32..8) {
        0 => {
            desc = "poison: negative frame offset";
            query.spec.frame = FrameSpec::rows(
                FrameBound::Preceding(lit(-rng.gen_range(1..9i64))),
                FrameBound::CurrentRow,
            );
        }
        1 => {
            desc = "poison: NULL frame offset";
            query.spec.frame =
                FrameSpec::groups(FrameBound::CurrentRow, FrameBound::Following(lit(Value::Null)));
        }
        2 => {
            desc = "poison: string frame offset";
            query.spec.frame = FrameSpec::rows(
                FrameBound::Following(lit("bogus")),
                FrameBound::UnboundedFollowing,
            );
        }
        3 => {
            desc = "poison: UNBOUNDED FOLLOWING frame start";
            query.spec.frame =
                FrameSpec::rows(FrameBound::UnboundedFollowing, FrameBound::UnboundedFollowing);
        }
        4 => {
            desc = "poison: ntile(0)";
            query.spec.frame = FrameSpec::whole_partition();
            query.calls = vec![FunctionCall::ntile(lit(0i64), vec![]).named("c")];
        }
        5 => {
            // Key column `d` is never NULL, so the kept set is non-empty and
            // the fraction is certainly read.
            desc = "poison: percentile fraction out of range";
            query.spec.frame = FrameSpec::whole_partition();
            query.calls =
                vec![FunctionCall::percentile_disc(1.5, SortKey::asc(col("d"))).named("c")];
        }
        6 => {
            desc = "poison: nth_value n = 0";
            query.spec.frame = FrameSpec::whole_partition();
            query.calls = vec![FunctionCall::nth_value(col("d"), lit(0i64)).named("c")];
        }
        _ => {
            desc = "poison: unknown column";
            query.calls = vec![FunctionCall::sum(col("nope")).named("c")];
        }
    }
    (desc.to_string(), query)
}

fn sweep_one(
    desc: &str,
    expect: Expect,
    table: &Table,
    query: &WindowQuery,
    failures: &mut Vec<String>,
) {
    let mut runs: Vec<(String, Result<holistic_window::Result<Table>, crate::Divergence>)> =
        vec![("naive".into(), run_protected("naive", || naive::execute(query, table)))];
    for opts in ExecOptions::all_configs() {
        let label = opts.label();
        runs.push((label.clone(), run_protected(&label, || query.execute_with(table, opts))));
    }
    // Every forced strategy must also reject invalid specs cleanly: a family
    // validates its arguments once, whatever index answers, but only forcing
    // reaches the alternates and the tree arm's builds on these tiny tables.
    for s in Strategy::ALL {
        let opts = ExecOptions::serial().force_strategy(s);
        let label = opts.label();
        runs.push((label.clone(), run_protected(&label, || query.execute_with(table, opts))));
    }
    // Budget-constrained configs: a tiny budget routes builds through the
    // spill/eviction machinery (or the typed `BudgetExceeded`), which must
    // reject invalid specs as cleanly as the unbudgeted paths — an Err
    // either way satisfies `MustErr`, but a panic never does.
    for opts in [
        ExecOptions::serial().memory_budget(4096),
        ExecOptions::serial().force_strategy(Strategy::Mst).memory_budget(4096),
    ] {
        let label = opts.label();
        runs.push((label.clone(), run_protected(&label, || query.execute_with(table, opts))));
    }
    for (label, run) in runs {
        match run {
            Err(d) => failures.push(format!("{desc} [{label}]: {}", d.message)),
            Ok(Ok(_)) if expect == Expect::MustErr => {
                failures.push(format!("{desc} [{label}]: expected Error, got Ok"))
            }
            Ok(_) => {}
        }
    }
}

/// Runs the sweep: the curated corpus plus `random_cases` poisoned random
/// cases derived from `seed`. Deterministic per (seed, random_cases, max_n).
pub fn panic_sweep(seed: u64, random_cases: usize, max_n: usize) -> SweepReport {
    let mut failures = Vec::new();
    let mut cases = 0usize;

    let table = tiny_table();
    for (desc, expect, query) in curated() {
        cases += 1;
        sweep_one(&desc, expect, &table, &query, &mut failures);
    }

    let cfg = GenConfig { max_n, ..GenConfig::default() };
    let mut rng = StdRng::seed_from_u64(seed);
    for i in 0..random_cases {
        cases += 1;
        let case = gen::generate(gen::case_seed(seed, i as u64), &cfg);
        let (desc, query) = poison(&mut rng, case.query);
        // Frame/argument errors surface per evaluated row; an empty table
        // legitimately returns Ok, so only assert no-panic there.
        let expect = if case.table.num_rows() == 0 { Expect::NoPanic } else { Expect::MustErr };
        let desc = format!("seed {:#x} {desc}", case.seed);
        sweep_one(&desc, expect, &case.table, &query, &mut failures);
    }

    SweepReport { cases, failures }
}
