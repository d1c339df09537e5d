//! Property test for the strategy layer: per-partition algorithm choice is
//! an invisible optimization. Over random specs and skewed partition-size
//! mixes, adaptive execution must be bit-identical to forced-MST execution,
//! serial or parallel — the cost model may only change *how* a result is
//! computed, never the result. The `ExecProfile` assertions pin down that
//! the adaptive path really is adaptive: tiny partitions are evaluated
//! cacheless over the scan primitives, forced MST never is — and forced
//! naive puts the 70–140-row partition on the scans too, which no adaptive
//! choice does.

use holistic_window::frame::{FrameBound, FrameExclusion, FrameSpec};
use holistic_window::{
    col, lit, Column, ExecOptions, FunctionCall, SortKey, Strategy, Table, Value, WindowQuery,
    WindowSpec,
};
use proptest::prelude::*;

/// Candidate calls spanning every evaluator family the strategy layer
/// dispatches: distributive, distinct, rank, percentile, value, lead/lag and
/// mode — and the shapes only forcing puts on a scan at this size: NTILE,
/// NTH_VALUE by an inner order, framed LEAD whose FILTER drops the current
/// row (the virtual ranking of `rank::RankPrep::rows_before`), MIN over
/// strings. The last two are the arms that read beyond a frame, so in a
/// batch of tiny partitions they read their segment: a float AVG of inexact
/// values, whose bits are the per-partition tree's combine order, and a
/// classic LAG under IGNORE NULLS, whose target must not leave its
/// partition. No `SUM(DISTINCT)` — that family is MST-only and would keep
/// tiny partitions off the cacheless path this test asserts on.
fn battery(mask: u16) -> Vec<FunctionCall> {
    let all = vec![
        FunctionCall::count_star().named("c0"),
        FunctionCall::sum(col("x")).named("c1"),
        FunctionCall::count_distinct(col("x")).named("c2"),
        FunctionCall::rank(vec![SortKey::asc(col("y"))]).named("c3"),
        FunctionCall::dense_rank(vec![SortKey::desc(col("y"))]).named("c4"),
        FunctionCall::median(col("y")).named("c5"),
        FunctionCall::percentile_cont(0.25, SortKey::asc(col("y"))).named("c6"),
        FunctionCall::first_value(col("x")).ignore_nulls().named("c7"),
        FunctionCall::lag(col("x"), 2, lit(-1i64)).named("c8"),
        FunctionCall::mode(col("y")).named("c9"),
        FunctionCall::ntile(lit(3i64), vec![SortKey::asc(col("y"))]).named("c10"),
        FunctionCall::nth_value(col("x"), lit(2i64))
            .order_by(vec![SortKey::desc(col("y"))])
            .named("c11"),
        FunctionCall::lead(col("x"), 1, lit(-1i64))
            .order_by(vec![SortKey::asc(col("y"))])
            .filter(col("y").gt(lit(0i64)))
            .named("c12"),
        FunctionCall::min(col("s")).named("c13"),
        FunctionCall::avg(col("f")).named("c14"),
        FunctionCall::lag(col("x"), 1, lit(-1i64)).ignore_nulls().named("c15"),
    ];
    let picked: Vec<FunctionCall> =
        all.into_iter().enumerate().filter(|(i, _)| mask & (1 << i) != 0).map(|(_, c)| c).collect();
    if picked.is_empty() {
        vec![FunctionCall::median(col("y")).named("c5")]
    } else {
        picked
    }
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
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Adaptive ≡ forced-MST ≡ serial ≡ parallel, bit for bit, over skewed
    /// partition mixes (several tiny partitions, optionally one large one).
    #[test]
    fn adaptive_matches_forced_mst(
        tiny_sizes in prop::collection::vec(1usize..13, 1..6),
        big in prop::option::of(70usize..140),
        xs_seed in prop::collection::vec(prop::option::of(-9i64..9), 210),
        ys_seed in prop::collection::vec(-5i64..6, 210),
        lo in 0i64..5,
        hi in 0i64..5,
        excl in 0usize..4,
        groups_mode in any::<bool>(),
        mask in 1u16..=u16::MAX,
    ) {
        // Skewed layout: partition p holds sizes[p] consecutive rows.
        let mut sizes = tiny_sizes.clone();
        if let Some(b) = big {
            sizes.push(b);
        }
        let n: usize = sizes.iter().sum();
        let mut g = Vec::with_capacity(n);
        for (p, &s) in sizes.iter().enumerate() {
            g.extend(std::iter::repeat_n(p as i64, s));
        }
        let table = Table::new(vec![
            ("x", Column::ints_opt((0..n).map(|i| xs_seed[i % xs_seed.len()]).collect())),
            ("y", Column::ints((0..n).map(|i| ys_seed[i % ys_seed.len()]).collect())),
            ("s", Column::strs((0..n).map(|i| format!("k{}", ys_seed[i % ys_seed.len()])).collect())),
            ("f", Column::floats((0..n).map(|i| ((i * 7919) % 1000) as f64 * 0.1).collect())),
            ("g", Column::ints(g)),
            ("pos", Column::ints((0..n as i64).collect())),
        ])
        .unwrap();

        let frame = if groups_mode {
            FrameSpec::groups(FrameBound::Preceding(lit(lo)), FrameBound::Following(lit(hi)))
        } else {
            FrameSpec::rows(FrameBound::Preceding(lit(lo)), FrameBound::Following(lit(hi)))
        };
        let spec = WindowSpec::new()
            .partition_by(vec![col("g")])
            .order_by(vec![SortKey::asc(col("pos"))])
            .frame(frame.exclude(exclusion_of(excl)));
        let calls = battery(mask);
        let q = WindowQuery { spec, calls: calls.clone() };

        let (base, base_profile) =
            q.execute_profiled(&table, ExecOptions::serial()).unwrap();

        // The chooser decides once per (partition × call), nothing dropped.
        let partitions = sizes.len() as u64;
        let total: u64 = base_profile.strategy.decisions.iter().sum();
        prop_assert_eq!(total, partitions * calls.len() as u64);
        let per_call_total: u64 =
            base_profile.strategy.per_call.iter().flatten().sum();
        prop_assert_eq!(per_call_total, total);

        // Tiny partitions (≤ 64 rows, every battery call naive-capable) must
        // skip the artifact machinery entirely.
        prop_assert!(
            base_profile.strategy.cacheless_partitions >= tiny_sizes.len() as u64,
            "tiny partitions stayed on the artifact path: {:?}",
            base_profile.strategy
        );
        if big.is_none() {
            prop_assert_eq!(base_profile.strategy.cacheless_partitions, partitions);
            prop_assert_eq!(
                base_profile.cache.misses, 0,
                "all-tiny query built artifacts: {:?}", base_profile.cache
            );
        }

        for (label, opts) in [
            ("adaptive/parallel", ExecOptions::default()),
            ("mst/serial", ExecOptions::serial().force_strategy(Strategy::Mst)),
            ("mst/parallel", ExecOptions::default().force_strategy(Strategy::Mst)),
            ("naive/serial", ExecOptions::serial().force_strategy(Strategy::Naive)),
        ] {
            let (out, profile) = q.execute_profiled(&table, opts).unwrap();
            if label.starts_with("naive") {
                // Every battery call is naive-capable: the large partition
                // runs on the scans as well, and nothing is built anywhere.
                prop_assert_eq!(
                    profile.strategy.decisions[Strategy::Naive.index()],
                    partitions * calls.len() as u64
                );
                prop_assert_eq!(profile.strategy.cacheless_partitions, partitions);
                prop_assert_eq!(profile.cache.misses, 0);
            } else if label.starts_with("mst") {
                prop_assert_eq!(
                    profile.strategy.decisions[Strategy::Mst.index()],
                    partitions * calls.len() as u64,
                    "forced MST did not stick ({})", label
                );
                prop_assert_eq!(profile.strategy.cacheless_partitions, 0);
            } else {
                // The per-partition reports fold to the same totals however
                // the partitions were scheduled. `hits` is exempt: parallel
                // probe chunks may re-request a lazily built artifact.
                prop_assert_eq!(&profile.strategy, &base_profile.strategy);
                prop_assert_eq!(profile.partitions, base_profile.partitions);
                let (c, b) = (profile.cache, base_profile.cache);
                prop_assert_eq!(
                    (c.misses, c.bytes_built, c.inner_sorts),
                    (b.misses, b.bytes_built, b.inner_sorts)
                );
                prop_assert_eq!(
                    (c.mst_builds, c.segtree_builds, c.rangetree_builds, c.modeindex_builds),
                    (b.mst_builds, b.segtree_builds, b.rangetree_builds, b.modeindex_builds)
                );
            }
            let names: Vec<&str> = calls.iter().map(|c| c.output_name.as_str()).collect();
            assert_same_columns(&base, &out, &names, label);
        }
    }
}

/// 12 000 three-row partitions, every battery call on them: more rows than
/// one batch gathers, so the calls run over three batches, the last part
/// full; each large enough that parallel probing cuts it into one chunk per
/// thread (2 048 positions at least), under `EXCLUDE GROUP` so the batches
/// carry their peer bounds. Neither the batch cuts, the chunks nor the
/// partition fold may show in the output, whatever `RAYON_NUM_THREADS` is,
/// and the batches answer like the per-partition trees.
#[test]
fn a_batch_of_tiny_partitions_is_invariant_under_chunks() {
    let n = 36_000usize;
    let table = Table::new(vec![
        (
            "x",
            Column::ints_opt(
                (0..n).map(|i| (i % 5 != 2).then_some((i * 37 % 19) as i64)).collect(),
            ),
        ),
        ("y", Column::ints((0..n).map(|i| (i * 53 % 7) as i64 % 3).collect())),
        ("s", Column::strs((0..n).map(|i| format!("k{}", i * 11 % 13)).collect())),
        ("f", Column::floats((0..n).map(|i| ((i * 7919) % 1000) as f64 * 0.1).collect())),
        ("g", Column::ints((0..n as i64).map(|i| i / 3).collect())),
    ])
    .unwrap();
    let frame = FrameSpec::rows(FrameBound::Preceding(lit(2i64)), FrameBound::Following(lit(1i64)))
        .exclude(FrameExclusion::Group);
    let spec = WindowSpec::new()
        .partition_by(vec![col("g")])
        .order_by(vec![SortKey::asc(col("y"))])
        .frame(frame);
    let calls = battery(u16::MAX);
    let names: Vec<&str> = calls.iter().map(|c| c.output_name.as_str()).collect();
    let q = WindowQuery { spec, calls: calls.clone() };
    let (base, profile) = q.execute_profiled(&table, ExecOptions::serial()).unwrap();
    assert_eq!(profile.strategy.cacheless_partitions, (n / 3) as u64);
    for (label, opts) in [
        ("adaptive/parallel", ExecOptions::default()),
        ("mst/serial", ExecOptions::serial().force_strategy(Strategy::Mst)),
    ] {
        let out = q.execute_with(&table, opts).unwrap();
        assert_same_columns(&base, &out, &names, label);
    }
}

/// Bit-for-bit equality of the named output columns (floats by bit pattern).
fn assert_same_columns(base: &Table, out: &Table, names: &[&str], label: &str) {
    for name in names {
        let (b, o) =
            (base.column(name).unwrap().to_values(), out.column(name).unwrap().to_values());
        assert_eq!(b.len(), o.len(), "column {name} under {label}");
        for (row, (bv, ov)) in b.iter().zip(&o).enumerate() {
            let same = match (bv, ov) {
                (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
                _ => bv == ov,
            };
            assert!(same, "column {name} row {row} differs under {label}: {bv} vs {ov}");
        }
    }
}

/// The tree arm under masks that *drop* rows, at a size where Adaptive itself
/// picks `mst` for every call: COUNT, integer SUM / AVG and value functions in
/// frame order probe what the partition already holds (the mask's remap,
/// prefix sums, the frame's pieces), so the merge-sort-tree arm builds no
/// index for them — and answers bit for bit like the scan arm and the naive
/// oracle, over one-piece frames and under `EXCLUDE GROUP`. A float SUM and a
/// MIN still build their one segment tree each.
#[test]
fn the_tree_arm_builds_no_index_for_what_the_partition_answers() {
    let n = 5000i64;
    let x = |i: i64| (i * 7919) % 1000;
    let table = Table::new(vec![
        // Peer groups of three rows: EXCLUDE GROUP cuts a hole wider than
        // the current row.
        ("d", Column::ints((0..n).map(|i| i / 3).collect())),
        ("x", Column::ints((0..n).map(x).collect())),
        ("xn", Column::ints_opt((0..n).map(|i| (i % 7 != 3).then(|| x(i))).collect())),
        ("f", Column::floats((0..n).map(|i| x(i) as f64 * 0.1).collect())),
    ])
    .unwrap();
    let low = || col("x").lt(lit(500i64));
    // The first six are ROADMAP item 3 (d)'s sizing query.
    let calls = vec![
        FunctionCall::count_star().named("c0"),
        FunctionCall::count_star().filter(low()).named("c1"),
        FunctionCall::sum(col("x")).named("c2"),
        FunctionCall::sum(col("x")).filter(low()).named("c3"),
        FunctionCall::first_value(col("x")).named("c4"),
        FunctionCall::nth_value(col("x"), lit(3i64)).filter(low()).named("c5"),
        FunctionCall::count(col("xn")).named("c6"),
        FunctionCall::last_value(col("xn")).ignore_nulls().named("c7"),
        FunctionCall::avg(col("x")).filter(low()).named("c8"),
    ];
    let names: Vec<&str> = calls.iter().map(|c| c.output_name.as_str()).collect();
    let frame =
        || FrameSpec::rows(FrameBound::Preceding(lit(2000i64)), FrameBound::Following(lit(10i64)));
    let over = |frame: FrameSpec, calls: &[FunctionCall]| WindowQuery {
        spec: WindowSpec::new().order_by(vec![SortKey::asc(col("d"))]).frame(frame),
        calls: calls.to_vec(),
    };
    let mst = ExecOptions::serial().force_strategy(Strategy::Mst);

    for (shape, frame) in
        [("plain", frame()), ("exclude group", frame().exclude(FrameExclusion::Group))]
    {
        let q = over(frame, &calls);
        let (base, profile) = q.execute_profiled(&table, ExecOptions::serial()).unwrap();
        assert_eq!(
            profile.strategy.decisions[Strategy::Mst.index()],
            calls.len() as u64,
            "{shape}: adaptive left the tree arm: {:?}",
            profile.strategy
        );
        let oracle = holistic_baselines::naive::execute(&q, &table).unwrap();
        assert_same_columns(&base, &oracle, &names, &format!("{shape}, naive oracle"));
        for (label, opts) in [
            ("adaptive/parallel", ExecOptions::default()),
            ("mst/serial", mst),
            ("mst/parallel", ExecOptions::default().force_strategy(Strategy::Mst)),
            ("naive/serial", ExecOptions::serial().force_strategy(Strategy::Naive)),
            ("naive/parallel", ExecOptions::default().force_strategy(Strategy::Naive)),
        ] {
            let (out, profile) = q.execute_profiled(&table, opts).unwrap();
            assert_same_columns(&base, &out, &names, &format!("{shape}, {label}"));
            if label.starts_with("mst") {
                let cache = profile.cache;
                assert_eq!((cache.segtree_builds, cache.mst_builds), (0, 0), "{shape}, {label}");
                for gone in ["segtree-count", "segtree-sum-i64", "perm-mst"] {
                    assert!(profile.artifacts.iter().all(|a| a.label != gone), "{shape}: {gone}");
                }
                // `sum(x) FILTER` and `avg(x) FILTER` read one array.
                let sums = profile.artifacts.iter().find(|a| a.label == "prefix-sums").unwrap();
                assert_eq!((sums.builds, sums.bytes), (2, 2 * 16 * (n as u64 + 1)), "{shape}");
            }
        }
    }

    // The sizing query itself builds values, masks, kept values and two
    // prefix-sum arrays (520 048 B); any tree on top of them breaks the bound.
    let (_, profile) = over(frame(), &calls[..6]).execute_profiled(&table, mst).unwrap();
    assert!(profile.cache.bytes_built <= 530_000, "{:?}", profile.artifacts);

    // Where the fold has no inverse, or its order is the result, the tree
    // stays: exactly one each.
    let trees = [FunctionCall::sum(col("f")).named("sf"), FunctionCall::min(col("x")).named("lo")];
    let (_, profile) = over(frame(), &trees).execute_profiled(&table, mst).unwrap();
    assert_eq!((profile.cache.segtree_builds, profile.cache.mst_builds), (2, 0));
    for kept in ["segtree-sum-f64", "segtree-min"] {
        let built = profile.artifacts.iter().find(|a| a.label == kept).map(|a| a.builds);
        assert_eq!(built, Some(1), "{kept}");
    }
}

/// Forcing each alternate strategy end-to-end on a mixed query must agree
/// with the default path: inapplicable calls fall back to the MST, the rest
/// take the forced engine. Integer-only inputs make exact comparison sound.
///
/// Under forced MST each call alone must also take its tree's one probe
/// path, visible in `ExecProfile::probe_kernel`: plain trees answer through
/// the block kernels, while the annotated tree (the seeded stateless
/// recursion) and framed LEAD (the unseeded one) never reach them.
#[test]
fn forced_alternates_agree_on_integer_data() {
    let n = 300i64;
    let table = Table::new(vec![
        ("pos", Column::ints((0..n).collect())),
        ("v", Column::ints((0..n).map(|i| (i * 37) % 23).collect())),
    ])
    .unwrap();
    let spec = WindowSpec::new()
        .order_by(vec![SortKey::asc(col("pos"))])
        .frame(FrameSpec::rows(FrameBound::Preceding(lit(17i64)), FrameBound::CurrentRow));
    let by_v = || vec![SortKey::asc(col("v"))];
    let calls = [
        FunctionCall::median(col("v")).named("med"),
        FunctionCall::count_distinct(col("v")).named("cd"),
        FunctionCall::rank(by_v()).named("r"),
        FunctionCall::sum(col("v")).named("s"),
        FunctionCall::sum_distinct(col("v")).named("sd"),
        FunctionCall::lead(col("v"), 1, lit(-1i64)).order_by(by_v()).named("ld"),
    ];
    let q = WindowQuery { spec: spec.clone(), calls: calls.to_vec() };

    let base = q.execute_with(&table, ExecOptions::serial()).unwrap();
    for s in Strategy::ALL {
        let out = q.execute_with(&table, ExecOptions::serial().force_strategy(s)).unwrap();
        for call in &calls {
            let name = call.output_name.as_str();
            assert_eq!(
                base.column(name).unwrap().to_values(),
                out.column(name).unwrap().to_values(),
                "column {name} differs under forced {}",
                s.name()
            );
        }
    }

    for call in &calls {
        let name = call.output_name.as_str();
        let single = WindowQuery::over(spec.clone()).call(call.clone());
        let opts = ExecOptions::serial().force_strategy(Strategy::Mst);
        let k = single.execute_profiled(&table, opts).unwrap().1.probe_kernel;
        match name {
            "med" | "cd" | "r" => assert!(k.block_queries > 0, "{name}: {k:?}"),
            // sum(DISTINCT) takes the seeded recursion, LEAD the unseeded
            // one, and SUM reads prefix sums.
            "sd" | "ld" | "s" => assert!(k.block_queries == 0, "{name}: {k:?}"),
            _ => unreachable!("{name}"),
        }
    }
}

/// The alternates' indexes over the codes: RANK, ROW_NUMBER, PERCENT_RANK,
/// CUME_DIST and NTILE, and MEDIAN, PERCENTILE_DISC and PERCENTILE_CONT,
/// each with and without a FILTER that drops every fifth row (whose
/// ROW_NUMBER and NTILE count below the code they would have had), over
/// ROWS, RANGE and GROUPS frames that grow, shrink, slide, jump to a
/// disjoint hull every row, or are always empty. Forced incremental (the
/// counted bitset), ostree (the counted B-tree) and segtree (the sorted-list
/// segment tree), serial and with parallel chunks that each start their own
/// window, answer bit for bit like forced MST and the naive oracle; a call
/// a forced strategy cannot serve, and every call under `EXCLUDE CURRENT
/// ROW`, stays on the tree. On the narrow monotonic frame and on the
/// disjoint jumps, which frame order makes monotone, Adaptive slides every
/// call on the counted bitset.
#[test]
fn every_alternate_answers_bit_identically() {
    let n = 3000i64;
    let table = Table::new(vec![
        ("pos", Column::ints((0..n).collect())),
        // Keys in adjacent pairs, so a dropped row ties with a kept
        // neighbour and ranks between equal keys by position.
        ("y", Column::ints((0..n).map(|i| (i / 2 * 37 + 11) % 23).collect())),
        ("live", Column::bools((0..n).map(|i| i % 5 != 0).collect())),
        // Two rows per key, keys 5 apart: `RANGE 1 FOLLOWING AND 3
        // FOLLOWING` holds no row.
        ("k", Column::ints((0..n).map(|i| i / 2 * 5).collect())),
        // 301-row frames, every other one 600 rows back of its neighbours'.
        ("lo", Column::ints((0..n).map(|i| if i % 2 == 0 { 300 } else { 900 }).collect())),
        ("hi", Column::ints((0..n).map(|i| if i % 2 == 0 { 0 } else { 600 }).collect())),
    ])
    .unwrap();
    let by = || vec![SortKey::asc(col("y"))];
    let mut calls = Vec::new();
    for (suffix, filtered) in [("", false), ("_f", true)] {
        let family = [
            FunctionCall::rank(by()).named(format!("rank{suffix}")),
            FunctionCall::row_number(by()).named(format!("row_number{suffix}")),
            FunctionCall::percent_rank(by()).named(format!("percent_rank{suffix}")),
            FunctionCall::cume_dist(by()).named(format!("cume_dist{suffix}")),
            FunctionCall::ntile(lit(4i64), by()).named(format!("ntile{suffix}")),
            FunctionCall::median(col("y")).named(format!("median{suffix}")),
            FunctionCall::percentile_disc(0.9, SortKey::asc(col("y")))
                .named(format!("disc{suffix}")),
            FunctionCall::percentile_cont(0.25, SortKey::asc(col("y")))
                .named(format!("cont{suffix}")),
        ];
        calls.extend(family.into_iter().map(|c| if filtered { c.filter(col("live")) } else { c }));
    }
    let names: Vec<&str> = calls.iter().map(|c| c.output_name.as_str()).collect();
    let (p, f) = (|x: i64| FrameBound::Preceding(lit(x)), |x: i64| FrameBound::Following(lit(x)));
    let narrow = FrameSpec::rows(p(300), FrameBound::CurrentRow);
    let frames = [
        ("rows, sliding", narrow.clone(), false),
        (
            "rows, growing",
            FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow),
            false,
        ),
        (
            "rows, shrinking",
            FrameSpec::rows(FrameBound::CurrentRow, FrameBound::UnboundedFollowing),
            false,
        ),
        (
            "rows, disjoint jumps",
            FrameSpec::rows(FrameBound::Preceding(col("lo")), FrameBound::Preceding(col("hi"))),
            false,
        ),
        ("rows, empty", FrameSpec::rows(f(2), f(1)), false),
        ("range, sliding", FrameSpec::range(p(40), f(10)), false),
        ("range, empty", FrameSpec::range(f(1), f(3)), false),
        ("groups, sliding", FrameSpec::groups(p(3), f(1)), false),
        ("rows, exclude current row", narrow.clone().exclude(FrameExclusion::CurrentRow), true),
    ];
    let decided =
        |profile: &holistic_window::ExecProfile, s: Strategy| profile.strategy.decisions[s.index()];
    let percentile = |c: &FunctionCall| {
        c.output_name.contains("median")
            || c.output_name.contains("disc")
            || c.output_name.contains("cont")
    };
    for (shape, frame, excluded) in frames {
        let order = if shape.starts_with("range") { "k" } else { "pos" };
        let spec = WindowSpec::new().order_by(vec![SortKey::asc(col(order))]).frame(frame);
        let q = WindowQuery { spec, calls: calls.clone() };
        let oracle = holistic_baselines::naive::execute(&q, &table).unwrap();
        let mst =
            q.execute_with(&table, ExecOptions::serial().force_strategy(Strategy::Mst)).unwrap();
        assert_same_columns(&oracle, &mst, &names, &format!("{shape}, forced mst"));
        for forced in [Strategy::Incremental, Strategy::OsTree, Strategy::SegTree] {
            for (label, opts) in
                [("serial", ExecOptions::serial()), ("parallel", ExecOptions::default())]
            {
                let (out, profile) =
                    q.execute_profiled(&table, opts.force_strategy(forced)).unwrap();
                let label = format!("{shape}, forced {}, {label}", forced.name());
                assert_same_columns(&oracle, &out, &names, &label);
                for (call, decisions) in calls.iter().zip(&profile.strategy.per_call) {
                    let serves = forced == Strategy::Incremental || percentile(call);
                    let taken = if serves && !excluded { forced } else { Strategy::Mst };
                    assert_eq!(decisions[taken.index()], 1, "{label}: {}", call.output_name);
                }
            }
        }
        if shape == "rows, disjoint jumps" {
            // In row order the window would drain at every jump. The frames
            // are two interleaved monotone runs, so in frame order (by
            // start, then end) they slide a row or two each, and the cost
            // model, which prices that order, slides every call.
            let (out, profile) = q.execute_profiled(&table, ExecOptions::serial()).unwrap();
            assert_same_columns(&oracle, &out, &names, &format!("{shape}, adaptive"));
            let slid = decided(&profile, Strategy::Incremental);
            assert_eq!(slid, calls.len() as u64, "{shape}: {:?}", profile.strategy);
        }
    }
    let q = WindowQuery {
        spec: WindowSpec::new().order_by(vec![SortKey::asc(col("pos"))]).frame(narrow),
        calls: calls.clone(),
    };
    let (_, profile) = q.execute_profiled(&table, ExecOptions::serial()).unwrap();
    assert_eq!(
        decided(&profile, Strategy::Incremental),
        calls.len() as u64,
        "{:?}",
        profile.strategy
    );
}

/// The incremental strategy's counted bitset at a size the fuzz legs never
/// reach: one partition of 72 000 rows, so its counter tree has three
/// levels, and every rank-family call and percentile it serves answers bit
/// for bit like forced naive and the naive oracle — over a RANGE frame and a
/// ROWS frame whose per-row bounds make it jitter, serial and parallel
/// (where each chunk starts its own window).
#[test]
fn the_sliding_bitset_answers_like_the_scans_on_a_large_partition() {
    let n = 72_000i64;
    let table = Table::new(vec![
        ("pos", Column::ints((0..n).collect())),
        // About 5 000 distinct keys, so ties rank by position.
        ("y", Column::ints((0..n).map(|i| (i * 7919) % 5003).collect())),
        // Two rows per key for the RANGE frame.
        ("k", Column::ints((0..n).map(|i| i / 2).collect())),
        ("lo", Column::ints((0..n).map(|i| 30 + i % 17).collect())),
        ("hi", Column::ints((0..n).map(|i| i % 7).collect())),
    ])
    .unwrap();
    let by = || vec![SortKey::asc(col("y"))];
    let calls = vec![
        FunctionCall::median(col("y")).named("median"),
        FunctionCall::percentile_cont(0.9, SortKey::asc(col("y"))).named("cont"),
        FunctionCall::percentile_disc(0.1, SortKey::asc(col("y"))).named("disc"),
        FunctionCall::rank(by()).named("rank"),
        FunctionCall::row_number(by()).named("row_number"),
        FunctionCall::cume_dist(by()).named("cume_dist"),
        FunctionCall::percent_rank(by()).named("percent_rank"),
        FunctionCall::ntile(lit(7i64), by()).named("ntile"),
    ];
    let names: Vec<&str> = calls.iter().map(|c| c.output_name.as_str()).collect();
    let frames = [
        ("range", "k", FrameSpec::range(FrameBound::Preceding(lit(20i64)), FrameBound::CurrentRow)),
        (
            "rows, per-row bounds",
            "pos",
            FrameSpec::rows(FrameBound::Preceding(col("lo")), FrameBound::Following(col("hi"))),
        ),
    ];
    for (shape, order, frame) in frames {
        let spec = WindowSpec::new().order_by(vec![SortKey::asc(col(order))]).frame(frame);
        let q = WindowQuery { spec, calls: calls.clone() };
        let oracle = holistic_baselines::naive::execute(&q, &table).unwrap();
        for forced in [Strategy::Naive, Strategy::Incremental] {
            for (label, opts) in
                [("serial", ExecOptions::serial()), ("parallel", ExecOptions::default())]
            {
                let (out, profile) =
                    q.execute_profiled(&table, opts.force_strategy(forced)).unwrap();
                let label = format!("{shape}, forced {}, {label}", forced.name());
                assert_same_columns(&oracle, &out, &names, &label);
                for (call, decisions) in calls.iter().zip(&profile.strategy.per_call) {
                    assert_eq!(decisions[forced.index()], 1, "{label}: {}", call.output_name);
                }
            }
        }
    }
}

/// A frame that shares no row with the last one drains the window of that
/// frame's codes; it never re-zeroes the bitset, which is sized for the whole
/// partition. Over 200 000 rows of one-row frames, each disjoint from the
/// one before, forced incremental must stay within 2× of forced naive —
/// re-zeroing would cost it a partition's worth of words per row.
#[test]
fn a_disjoint_jump_drains_the_window_instead_of_resetting_it() {
    let n = 200_000i64;
    let table = Table::new(vec![
        ("pos", Column::ints((0..n).collect())),
        ("y", Column::ints((0..n).map(|i| (i * 7919) % 100_003).collect())),
    ])
    .unwrap();
    let frame =
        FrameSpec::rows(FrameBound::Following(lit(10i64)), FrameBound::Following(lit(10i64)));
    let q = WindowQuery {
        spec: WindowSpec::new().order_by(vec![SortKey::asc(col("pos"))]).frame(frame),
        calls: vec![
            FunctionCall::rank(vec![SortKey::asc(col("y"))]).named("rank"),
            FunctionCall::median(col("y")).named("median"),
        ],
    };
    // Best of three each, alternating, so a slow phase of the host hits
    // both sides.
    let mut best = [std::time::Duration::MAX; 2];
    let mut outs = Vec::new();
    for _ in 0..3 {
        for (k, forced) in [Strategy::Naive, Strategy::Incremental].into_iter().enumerate() {
            let t0 = std::time::Instant::now();
            let (out, profile) =
                q.execute_profiled(&table, ExecOptions::serial().force_strategy(forced)).unwrap();
            best[k] = best[k].min(t0.elapsed());
            assert!(profile.strategy.per_call.iter().all(|d| d[forced.index()] == 1));
            outs.push(out);
        }
    }
    assert_same_columns(&outs[0], &outs[1], &["rank", "median"], "disjoint, incremental");
    let [naive, incremental] = best;
    assert!(
        incremental < naive * 2,
        "forced incremental took {incremental:?} against forced naive's {naive:?}"
    );
}

/// The paper's Fig. 12 frames at a size the fuzz legs never reach: one
/// partition of 72 000 rows whose `ROWS BETWEEN x PRECEDING AND 60 − x
/// FOLLOWING` frames jitter by a hash of the row (`x` in `0..61`), so
/// consecutive frames are not monotone, though they are a permutation of
/// monotone ones. COUNT(DISTINCT), the percentiles and the rank family answer
/// bit for bit like the naive oracle under forced incremental (the counted
/// bitset and the hash multiset, slid in frame order), forced ostree (the
/// counted B-tree) and forced naive, serial and parallel. Adaptive, whose
/// cost model prices the frame-ordered slide, slides every call.
#[test]
fn jittered_frames_slide_in_frame_order_like_the_oracle() {
    let n = 72_000i64;
    let jitter = |i: i64| (i.wrapping_mul(0x9E37_79B9) >> 7).rem_euclid(61);
    let table = Table::new(vec![
        ("pos", Column::ints((0..n).collect())),
        ("y", Column::ints((0..n).map(|i| (i * 7919) % 5003).collect())),
        ("lo", Column::ints((0..n).map(jitter).collect())),
        ("hi", Column::ints((0..n).map(|i| 60 - jitter(i)).collect())),
    ])
    .unwrap();
    let by = || vec![SortKey::asc(col("y"))];
    let calls = vec![
        FunctionCall::count_distinct(col("y")).named("parts"),
        FunctionCall::median(col("y")).named("median"),
        FunctionCall::percentile_cont(0.25, SortKey::asc(col("y"))).named("cont"),
        FunctionCall::rank(by()).named("rank"),
        FunctionCall::row_number(by()).named("row_number"),
        FunctionCall::percent_rank(by()).named("percent_rank"),
        FunctionCall::cume_dist(by()).named("cume_dist"),
        FunctionCall::ntile(lit(7i64), by()).named("ntile"),
    ];
    let names: Vec<&str> = calls.iter().map(|c| c.output_name.as_str()).collect();
    let frame = FrameSpec::rows(FrameBound::Preceding(col("lo")), FrameBound::Following(col("hi")));
    let spec = WindowSpec::new().order_by(vec![SortKey::asc(col("pos"))]).frame(frame);
    let q = WindowQuery { spec, calls: calls.clone() };
    let oracle = holistic_baselines::naive::execute(&q, &table).unwrap();
    for forced in [Strategy::Incremental, Strategy::OsTree, Strategy::Naive] {
        for (label, opts) in
            [("serial", ExecOptions::serial()), ("parallel", ExecOptions::default())]
        {
            let (out, profile) = q.execute_profiled(&table, opts.force_strategy(forced)).unwrap();
            let label = format!("jittered, forced {}, {label}", forced.name());
            assert_same_columns(&oracle, &out, &names, &label);
            for (call, decisions) in calls.iter().zip(&profile.strategy.per_call) {
                let percentile = ["median", "cont"].contains(&call.output_name.as_str());
                let taken =
                    if forced != Strategy::OsTree || percentile { forced } else { Strategy::Mst };
                assert_eq!(decisions[taken.index()], 1, "{label}: {}", call.output_name);
            }
        }
    }
    let (out, profile) = q.execute_profiled(&table, ExecOptions::default()).unwrap();
    assert_same_columns(&oracle, &out, &names, "jittered, adaptive");
    let slid = [0, 1, 0, 0, 0];
    assert_eq!(profile.strategy.per_call, vec![slid; calls.len()], "{:?}", profile.strategy);
}
