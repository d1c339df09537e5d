//! Seeded, weighted generation over the engine's full specification space.
//!
//! One `u64` seed determines one [`FuzzCase`] — table *and* query — so a
//! failing case is replayed by its seed alone. The weights are tuned toward
//! the regions where window semantics actually bite: NULL-heavy and
//! tie-heavy tables, empty and degenerate frames, per-row expression bounds
//! (§2.2's stock-order example), huge offsets at the edge of the integer
//! range, and keys and arguments beyond 2^53 where f64 arithmetic silently
//! collapses neighbouring integers.

use holistic_window::frame::FrameMode;
use holistic_window::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Size knobs for generated cases.
#[derive(Debug, Clone, Copy)]
pub struct GenConfig {
    /// Maximum table rows (inclusive; the row count is drawn from `0..=max_n`).
    pub max_n: usize,
    /// Maximum calls per query (at least one is always generated).
    pub max_calls: usize,
}

impl Default for GenConfig {
    fn default() -> Self {
        GenConfig { max_n: 48, max_calls: 5 }
    }
}

/// One generated case: a table and a window query, tied to the seed that
/// produced them.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// The exact seed that regenerates this case.
    pub seed: u64,
    /// The input table.
    pub table: Table,
    /// The query under test.
    pub query: WindowQuery,
}

/// Derives the seed of case `index` in a run started from `base` (SplitMix64,
/// so neighboring indices produce unrelated streams).
pub fn case_seed(base: u64, index: u64) -> u64 {
    let mut z = base.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Generates the case identified by `seed`.
pub fn generate(seed: u64, cfg: &GenConfig) -> FuzzCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.gen_range(0..=cfg.max_n);
    let table = gen_table(&mut rng, n);
    let spec = gen_spec(&mut rng);
    let mut query = WindowQuery::over(spec);
    let num_calls = rng.gen_range(1..=cfg.max_calls.max(1));
    for i in 0..num_calls {
        let mut call = gen_call(&mut rng);
        call.output_name = format!("c{i}_{}", call.kind.name().replace(['(', ')', '*'], ""));
        query = query.call(call);
    }
    FuzzCase { seed, table, query }
}

/// Generates the `--append` case identified by `seed`: for half the seeds
/// it is [`generate`]'s case, for the other half a case shaped for the
/// append engine's splice path (see `splice_case`).
pub fn generate_append(seed: u64, cfg: &GenConfig) -> FuzzCase {
    // A stream of its own, so the coin does not pick [`generate`]'s cases
    // by their first draw (the row count).
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5911_CE5E_ED00_0000);
    if rng.gen_bool(0.5) {
        return generate(seed, cfg);
    }
    let (table, query) = splice_case(&mut rng, cfg);
    FuzzCase { seed, table, query }
}

/// A case whose appends the engine can splice: rows sorted by the window
/// ORDER BY, so every batch is an end-append in every partition; a
/// spliceable ROWS frame (constant bounds that look backwards); and calls
/// from the splice-eligible family without FILTER — `COUNT(*)`, the rank
/// family with and without an inner ORDER BY, and percentiles with literal
/// fractions. Most forest-planned calls order by one key drawn per case, so
/// forests are shared; NULL-free tables are likelier, so forest keys encode.
fn splice_case(rng: &mut StdRng, cfg: &GenConfig) -> (Table, WindowQuery) {
    let n = rng.gen_range(0..=cfg.max_n);
    let null_p = [0.0, 0.0, 0.1, 0.45][rng.gen_range(0usize..4)];
    let table = table_with_nulls(rng, n, null_p);
    let order = match rng.gen_range(0u32..9) {
        0 => vec![SortKey::asc(col("k"))],
        1 => vec![SortKey::desc(col("k"))],
        2 => vec![SortKey::asc(col("k")).nulls_first(true)],
        3 => vec![SortKey::desc(col("f")).nulls_first(false)],
        4 => vec![SortKey::asc(col("d"))],
        5 => vec![SortKey::asc(col("k")), SortKey::desc(col("g"))],
        6 => vec![SortKey::desc(col("g")), SortKey::asc(col("d"))],
        7 => vec![SortKey::asc(col("v"))],
        _ => vec![],
    };
    let table = sorted_by(&table, &order);
    let start = match rng.gen_range(0u32..3) {
        0 => FrameBound::UnboundedPreceding,
        1 => FrameBound::CurrentRow,
        _ => FrameBound::Preceding(lit(rng.gen_range(0..30i64))),
    };
    let end = if rng.gen_bool(0.6) {
        FrameBound::CurrentRow
    } else {
        FrameBound::Preceding(lit(rng.gen_range(0..5i64)))
    };
    let frame = FrameSpec::rows(start, end).exclude(gen_exclusion(rng));
    let spec =
        WindowSpec::new().partition_by(gen_partition_by(rng)).order_by(order.clone()).frame(frame);

    let shared = numeric_key(rng);
    let forest_key = |rng: &mut StdRng| {
        if rng.gen_bool(0.7) {
            shared.clone()
        } else {
            numeric_key(rng)
        }
    };
    let mut query = WindowQuery::over(spec);
    for i in 0..rng.gen_range(1..=cfg.max_calls.max(1)) {
        let call = match rng.gen_range(0u32..10) {
            0 => FunctionCall::count_star(),
            1..=5 => {
                let inner = match rng.gen_range(0u32..4) {
                    0 => vec![],
                    1 => order.clone(),
                    _ => vec![forest_key(rng)],
                };
                match rng.gen_range(0u32..4) {
                    0 => FunctionCall::row_number(inner),
                    1 => FunctionCall::rank(inner),
                    2 => FunctionCall::percent_rank(inner),
                    _ => FunctionCall::cume_dist(inner),
                }
            }
            kind => {
                let frac =
                    [0.0, 0.25, 0.5, 0.9, 1.0, rng.gen_range(0.0..=1.0)][rng.gen_range(0usize..6)];
                let key = forest_key(rng);
                match kind {
                    6 if !key.desc => FunctionCall::median(key.expr),
                    6 | 7 => FunctionCall::percentile_disc(frac, key),
                    _ => FunctionCall::percentile_cont(frac, key),
                }
            }
        };
        let name = format!("c{i}_{}", call.kind.name().replace(['(', ')', '*'], ""));
        query = query.call(call.named(name));
    }
    (table, query)
}

/// `table`'s rows reordered by `order`, whose keys are plain columns: SQL
/// order with NULL placement, floats by their total order (a refinement of
/// SQL's, so the result is sorted under the engine's order too), ties in
/// row order.
fn sorted_by(table: &Table, order: &[SortKey]) -> Table {
    let keys: Vec<(&Column, &SortKey)> = order
        .iter()
        .map(|k| match &k.expr {
            Expr::Col(name) => (table.column(name).expect("a generated column"), k),
            other => unreachable!("splice orders are plain columns, not {other:?}"),
        })
        .collect();
    let cmp_row = |a: usize, b: usize| {
        keys.iter()
            .map(|(c, k)| match (c.get(a), c.get(b)) {
                (x, y) if x.is_null() || y.is_null() => {
                    let nulls_low = x.is_null().cmp(&y.is_null());
                    if k.nulls_first {
                        nulls_low.reverse()
                    } else {
                        nulls_low
                    }
                }
                (x, y) if k.desc => y.sql_cmp(&x),
                (x, y) => x.sql_cmp(&y),
            })
            .find(|o| o.is_ne())
            .unwrap_or(std::cmp::Ordering::Equal)
    };
    let mut perm: Vec<usize> = (0..table.num_rows()).collect();
    perm.sort_by(|&a, &b| cmp_row(a, b));
    let mut sorted = table.slice_rows(0, 0);
    for r in perm {
        sorted.append_rows(&table.slice_rows(r, r + 1)).expect("rows of the same table");
    }
    sorted
}

/// A random table over the fixed column profile the spec generator targets:
/// `g` (strings, partition/tie column), `k` (nullable ints, the window order
/// key), `v` (nullable ints: small, or huddled around 2^53 or below
/// `i64::MAX`), `f` (nullable floats), `d` (dates).
pub fn gen_table(rng: &mut StdRng, n: usize) -> Table {
    // Profiles: NULL-heavy and tie-heavy data is where peer groups, IGNORE
    // NULLS and exclusion semantics earn their keep; the huge-key profiles
    // put RANGE arithmetic beyond f64's 2^53 exact-integer range.
    let null_p = [0.0, 0.1, 0.45][rng.gen_range(0usize..3)];
    table_with_nulls(rng, n, null_p)
}

/// [`gen_table`] with the NULL share of the nullable columns given.
fn table_with_nulls(rng: &mut StdRng, n: usize, null_p: f64) -> Table {
    let key_profile = rng.gen_range(0u32..7);
    // Arguments too: distinct aggregates decide equality on a value hash,
    // which must not round neighbouring integers into one f64.
    let arg_profile = rng.gen_range(0u32..8);
    let tie_heavy = rng.gen_bool(0.4);
    let alphabet = rng.gen_range(1usize..=4);
    let groups = ["x", "y", "z", "w"];

    let g: Vec<&str> = (0..n).map(|_| groups[rng.gen_range(0..alphabet)]).collect();
    let k: Vec<Option<i64>> = (0..n)
        .map(|_| {
            if rng.gen_bool(null_p) {
                None
            } else {
                Some(match key_profile {
                    0 => rng.gen_range(0..4),
                    1 => rng.gen_range(0..50),
                    2 => rng.gen_range(-40..40),
                    3 => rng.gen_range(-1000..1000),
                    4 => i64::MAX - rng.gen_range(0..8i64),
                    5 => i64::MIN + rng.gen_range(0..8i64),
                    // Both ends in one column: a range no 64-bit normalized
                    // sort key can hold, so ordering takes the comparator.
                    _ if rng.gen_bool(0.5) => i64::MAX - rng.gen_range(0..3i64),
                    _ => i64::MIN + rng.gen_range(0..3i64),
                })
            }
        })
        .collect();
    let v: Vec<Option<i64>> = (0..n)
        .map(|_| {
            if rng.gen_bool(null_p) {
                None
            } else {
                Some(match arg_profile {
                    0 => (1i64 << 53) + rng.gen_range(-4..5i64),
                    1 => i64::MAX - rng.gen_range(0..8i64),
                    _ if tie_heavy => rng.gen_range(-3..4),
                    _ => rng.gen_range(-15..15),
                })
            }
        })
        .collect();
    let f: Vec<Option<f64>> = (0..n)
        .map(|_| {
            if rng.gen_bool(null_p) {
                None
            } else if tie_heavy {
                // Half-integer grid: float ties are otherwise vanishingly rare.
                Some(rng.gen_range(-4i64..4) as f64 * 0.5)
            } else {
                Some(rng.gen_range(-8.0..8.0))
            }
        })
        .collect();
    let d: Vec<i32> = (0..n).map(|_| rng.gen_range(0..if tie_heavy { 4 } else { 400 })).collect();

    Table::new(vec![
        ("g", Column::strs(g)),
        ("k", Column::ints_opt(k)),
        ("v", Column::ints_opt(v)),
        ("f", Column::floats_opt(f)),
        ("d", Column::dates(d)),
    ])
    .expect("generated columns share one length")
}

/// A random frame bound. Weights cover the unbounded/current/constant cases,
/// float offsets, per-row expression bounds, and huge offsets that sit on the
/// overflow boundary.
pub fn gen_bound(rng: &mut StdRng, start: bool) -> FrameBound {
    let dir = |rng: &mut StdRng, e: Expr| {
        if rng.gen_bool(0.5) {
            FrameBound::Preceding(e)
        } else {
            FrameBound::Following(e)
        }
    };
    match rng.gen_range(0u32..100) {
        0..=17 => {
            if start {
                FrameBound::UnboundedPreceding
            } else {
                FrameBound::UnboundedFollowing
            }
        }
        18..=35 => FrameBound::CurrentRow,
        36..=60 => {
            let off = lit(rng.gen_range(0..30i64));
            dir(rng, off)
        }
        61..=70 => {
            let off = lit(rng.gen_range(0.0..25.0));
            dir(rng, off)
        }
        71..=90 => {
            // Per-row expression bound (non-monotonic frames, §6.5):
            // d − DATE '1970-01-01' turns the date into a day count.
            let days = col("d").sub(lit(Value::Date(0)));
            let e = days.mul(lit(7703i64)).rem(lit(rng.gen_range(3..25i64)));
            dir(rng, e)
        }
        _ => {
            // Huge offsets: the overflow-regression territory of ISSUE 4.
            let off = match rng.gen_range(0u32..3) {
                0 => lit(i64::MAX),
                1 => lit(1e300),
                _ => lit(i64::MAX - 1),
            };
            dir(rng, off)
        }
    }
}

/// A random frame: all three modes (RANGE only when the window ORDER BY
/// supports it) crossed with all four exclusions.
pub fn gen_frame(rng: &mut StdRng, range_ok: bool) -> FrameSpec {
    let start = gen_bound(rng, true);
    let end = gen_bound(rng, false);
    let mut spec = match rng.gen_range(0u32..10) {
        0..=3 => FrameSpec::rows(start, end),
        4..=6 if range_ok => FrameSpec::range(start, end),
        _ => FrameSpec::groups(start, end),
    };
    spec.exclusion = gen_exclusion(rng);
    spec
}

/// One of the four frame exclusions, uniformly.
fn gen_exclusion(rng: &mut StdRng) -> FrameExclusion {
    [
        FrameExclusion::NoOthers,
        FrameExclusion::CurrentRow,
        FrameExclusion::Group,
        FrameExclusion::Ties,
    ][rng.gen_range(0usize..4)]
}

/// A random PARTITION BY list: none, the string column `g` (alone or with a
/// computed int), or one shape per arm of the engine's partitioner — the
/// nullable int `k` (whose profiles reach both `i64` extremes), the float `f`
/// and expressions over it that yield signed zeros and NaN, the date `d`, a
/// Bool expression, and three-key lists that fold all of them.
pub fn gen_partition_by(rng: &mut StdRng) -> Vec<Expr> {
    let days_mod_2 = || col("d").sub(lit(Value::Date(0))).rem(lit(2i64));
    let positive = || col("v").gt(lit(0i64));
    match rng.gen_range(0u32..13) {
        0..=3 => vec![],
        4 | 5 => vec![col("g")],
        6 => vec![col("g"), days_mod_2()],
        7 => vec![col("k")],
        8 => vec![col("f")],
        9 => vec![match rng.gen_range(0u32..3) {
            0 => col("f").neg(),
            1 => col("f").mul(lit(0i64)),
            // ±inf · 0: NaN wherever `f` is not a zero.
            _ => col("f").mul(lit(1e308)).mul(lit(1e308)).mul(lit(0i64)),
        }],
        10 => vec![col("d")],
        11 => vec![positive()],
        _ if rng.gen_bool(0.5) => vec![col("g"), col("k"), col("d")],
        _ => vec![col("k"), col("f").neg(), positive()],
    }
}

/// A random OVER clause: partitioning ([`gen_partition_by`]), window
/// ORDER BY (single numeric keys both directions, multi-key, string-leading,
/// or none at all), and a frame.
pub fn gen_spec(rng: &mut StdRng) -> WindowSpec {
    let partition_by = gen_partition_by(rng);
    // RANGE with offsets needs a single numeric/date key; every other mode
    // works with any (or no) ORDER BY.
    let (order_by, range_ok) = match rng.gen_range(0u32..13) {
        0 => (vec![SortKey::asc(col("k"))], true),
        1 => (vec![SortKey::desc(col("k"))], true),
        2 => (vec![SortKey::asc(col("d"))], true),
        3 => (vec![SortKey::desc(col("d"))], true),
        4 => (vec![SortKey::asc(col("f"))], true),
        5 => (vec![SortKey::desc(col("f"))], true),
        6 => (vec![SortKey::asc(col("k")), SortKey::desc(col("d"))], false),
        7 => (vec![SortKey::desc(col("g")), SortKey::asc(col("v"))], false),
        // Shapes of the normalized sort keys: explicit NULL placement against
        // the direction's default, a Bool criterion leading three keys, and
        // floats at the edges of `total_cmp` (±inf, NaN, -0.0).
        8 => (vec![SortKey::asc(col("k")).nulls_first(true)], true),
        9 => (vec![SortKey::desc(col("f")).nulls_first(false)], true),
        10 => (
            vec![
                SortKey::desc(col("v").gt(lit(0i64))),
                SortKey::asc(col("d")).nulls_first(true),
                SortKey::desc(col("k")).nulls_first(false),
            ],
            false,
        ),
        11 => {
            let inf = col("f").mul(lit(1e308)).mul(lit(1e308));
            let key = match rng.gen_range(0u32..3) {
                0 => inf,
                1 => inf.clone().sub(inf),
                _ => col("f").neg(),
            };
            (vec![SortKey::asc(key), SortKey::desc(col("d"))], false)
        }
        _ => (vec![], false),
    };
    WindowSpec::new().partition_by(partition_by).order_by(order_by).frame(gen_frame(rng, range_ok))
}

/// A random function-level ORDER BY (the paper's independent inner ordering).
pub fn gen_inner_order(rng: &mut StdRng) -> Vec<SortKey> {
    match rng.gen_range(0u32..9) {
        0 => vec![SortKey::asc(col("v"))],
        1 => vec![SortKey::desc(col("v"))],
        2 => vec![SortKey::asc(col("f"))],
        3 => vec![SortKey::desc(col("f"))],
        4 => vec![SortKey::asc(col("d"))],
        5 => vec![SortKey::desc(col("d"))],
        6 => vec![SortKey::asc(col("v")), SortKey::desc(col("d"))],
        7 => vec![SortKey::desc(col("v")).nulls_first(false)],
        _ => vec![SortKey::asc(col("f").le(lit(0.5))).nulls_first(true), SortKey::asc(col("k"))],
    }
}

fn maybe_inner(rng: &mut StdRng) -> Vec<SortKey> {
    if rng.gen_bool(0.55) {
        gen_inner_order(rng)
    } else {
        vec![]
    }
}

/// A single numeric sort key (percentiles need exactly one orderable key).
fn numeric_key(rng: &mut StdRng) -> SortKey {
    let c = if rng.gen_bool(0.5) { col("v") } else { col("f") };
    if rng.gen_bool(0.5) {
        SortKey::asc(c)
    } else {
        SortKey::desc(c)
    }
}

/// An argument column together with a default literal of the same type
/// (LEAD/LAG defaults must not mix types in one output column).
fn arg_and_default(rng: &mut StdRng) -> (Expr, Expr) {
    match rng.gen_range(0u32..4) {
        0 => (col("v"), lit(-99i64)),
        1 => (col("f"), lit(-99.0)),
        2 => (col("g"), lit("none")),
        _ => (col("d"), lit(Value::Date(-1))),
    }
}

fn maybe_filter(rng: &mut StdRng, call: FunctionCall) -> FunctionCall {
    if !rng.gen_bool(0.3) {
        return call;
    }
    let days = col("d").sub(lit(Value::Date(0)));
    let pred = match rng.gen_range(0u32..4) {
        0 => days.rem(lit(3i64)).ne(lit(0i64)),
        // Three-valued: NULL operands make the predicate non-true.
        1 => col("v").gt(lit(0i64)),
        2 => col("f").le(lit(0.5)),
        _ => col("k").lt(lit(25i64)).or(col("v").ge(lit(5i64))),
    };
    call.filter(pred)
}

/// One random call drawn across all six evaluator families (distributive
/// aggregates, DISTINCT aggregates, rank, selection, LEAD/LAG, MODE).
pub fn gen_call(rng: &mut StdRng) -> FunctionCall {
    let days = || col("d").sub(lit(Value::Date(0)));
    let call = match rng.gen_range(0u32..21) {
        0 => FunctionCall::count_star(),
        1 => FunctionCall::count([col("v"), col("f"), col("g")][rng.gen_range(0usize..3)].clone()),
        2 => FunctionCall::count_distinct(
            [col("v"), col("g"), col("d")][rng.gen_range(0usize..3)].clone(),
        ),
        3 => {
            let c = FunctionCall::sum(if rng.gen_bool(0.5) { col("v") } else { col("f") });
            if rng.gen_bool(0.35) {
                c.distinct()
            } else {
                c
            }
        }
        4 => {
            let c = FunctionCall::avg(if rng.gen_bool(0.5) { col("v") } else { col("f") });
            if rng.gen_bool(0.35) {
                c.distinct()
            } else {
                c
            }
        }
        5 => FunctionCall::min(
            [col("v"), col("f"), col("g"), col("d")][rng.gen_range(0usize..4)].clone(),
        ),
        6 => FunctionCall::max(
            [col("v"), col("f"), col("g"), col("d")][rng.gen_range(0usize..4)].clone(),
        ),
        7 => FunctionCall::row_number(maybe_inner(rng)),
        8 => FunctionCall::rank(maybe_inner(rng)),
        9 => FunctionCall::dense_rank(maybe_inner(rng)),
        10 => FunctionCall::percent_rank(maybe_inner(rng)),
        11 => FunctionCall::cume_dist(maybe_inner(rng)),
        12 => {
            // Bucket count: constant or per-row (always ≥ 1, so valid).
            let buckets = if rng.gen_bool(0.7) {
                lit(rng.gen_range(1..6i64))
            } else {
                days().rem(lit(5i64)).add(lit(1i64))
            };
            FunctionCall::ntile(buckets, maybe_inner(rng))
        }
        13 => {
            let frac =
                [0.0, 0.25, 0.5, 0.99, 1.0, rng.gen_range(0.0..=1.0)][rng.gen_range(0usize..6)];
            FunctionCall::percentile_disc(frac, numeric_key(rng))
        }
        14 => {
            let frac = [0.0, 0.5, 1.0, rng.gen_range(0.0..=1.0)][rng.gen_range(0usize..4)];
            FunctionCall::percentile_cont(frac, numeric_key(rng))
        }
        15 => FunctionCall::median(if rng.gen_bool(0.5) { col("v") } else { col("f") }),
        16 | 17 => {
            let (arg, _) = arg_and_default(rng);
            let mut c = if rng.gen_bool(0.5) {
                FunctionCall::first_value(arg)
            } else {
                FunctionCall::last_value(arg)
            };
            if rng.gen_bool(0.55) {
                c = c.order_by(gen_inner_order(rng));
            }
            if rng.gen_bool(0.3) {
                c = c.ignore_nulls();
            }
            c
        }
        18 => {
            let (arg, _) = arg_and_default(rng);
            let n = if rng.gen_bool(0.7) {
                lit(rng.gen_range(1..5i64))
            } else {
                days().rem(lit(4i64)).add(lit(1i64))
            };
            let mut c = FunctionCall::nth_value(arg, n);
            if rng.gen_bool(0.55) {
                c = c.order_by(gen_inner_order(rng));
            }
            if rng.gen_bool(0.3) {
                c = c.ignore_nulls();
            }
            c
        }
        19 => {
            let (arg, default) = arg_and_default(rng);
            let kind = if rng.gen_bool(0.5) { FuncKind::Lead } else { FuncKind::Lag };
            // Offsets: zero (the current row, per SQL), small constants,
            // per-row expressions, and the extremes of the i64 range.
            let off: Expr = match rng.gen_range(0u32..8) {
                0 => lit(0i64),
                1..=4 => lit(rng.gen_range(1..5i64)),
                5 => lit(rng.gen_range(0..3i64)),
                6 => days().rem(lit(3i64)),
                _ => lit(if rng.gen_bool(0.5) { i64::MAX } else { i64::MIN }),
            };
            let mut c = FunctionCall::new(kind, vec![arg, off, default]);
            if rng.gen_bool(0.5) {
                c = c.order_by(gen_inner_order(rng));
            }
            if rng.gen_bool(0.3) {
                c = c.ignore_nulls();
            }
            c
        }
        _ => FunctionCall::mode([col("v"), col("g"), col("d")][rng.gen_range(0usize..3)].clone()),
    };
    maybe_filter(rng, call)
}

// `FrameMode` is re-exported so sweep/shrink code can pattern-match without a
// second import path.
pub use holistic_window::frame::FrameMode as Mode;

/// True when the frame carries any non-trivial feature (used by the shrinker
/// to decide whether frame simplification candidates are worth proposing).
pub fn frame_is_trivial(frame: &FrameSpec) -> bool {
    frame.mode == FrameMode::Rows
        && matches!(frame.start, FrameBound::UnboundedPreceding)
        && matches!(frame.end, FrameBound::UnboundedFollowing)
        && frame.exclusion == FrameExclusion::NoOthers
}
