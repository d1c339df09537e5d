//! The normalized integer sort keys against their definition: everything
//! `order.rs` answers from the packed key column must equal what the `Value`
//! comparator (`KeyColumns::evaluate_comparator`) answers for the same
//! criteria — same permutation, same peers, same dense codes, same key
//! values — whether the criteria pack, fall back, or grow through `extend`.

use holistic_window::order::{dense_codes_for, peer_bounds, sort_permutation, KeyColumns, SortKey};
use holistic_window::{col, lit, Column, DataType, Table, Value};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Column kinds: 0 Int, 1 Date, 2 Bool, 3 Float, 4 Str.
const KINDS: u8 = 5;

/// One non-NULL value of `kind`. `spread` 0 draws from a handful of values
/// (ties everywhere), 1 from a wider band, 2 adds the type's extremes.
fn value(kind: u8, spread: u8, rng: &mut StdRng) -> Value {
    let small = rng.gen_range(-3i64..4);
    match kind {
        0 => Value::Int(match spread {
            0 => small,
            1 => rng.gen_range(-1_000_000i64..1_000_000),
            _ => [i64::MIN, i64::MIN + 1, -1, 0, i64::MAX - 1, i64::MAX][rng.gen_range(0..6usize)],
        }),
        1 => Value::Date(match spread {
            0 => small as i32,
            1 => rng.gen_range(8_000..11_000),
            _ => [i32::MIN, -1, 0, i32::MAX][rng.gen_range(0..4usize)],
        }),
        2 => Value::Bool(rng.gen_bool(0.5)),
        3 => Value::Float(match spread {
            0 => small as f64 / 2.0,
            1 => f64::from_bits(rng.gen::<u64>()),
            _ => [f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5]
                [rng.gen_range(0..7usize)],
        }),
        _ => Value::str(["", "a", "ab", "b", "β"][rng.gen_range(0..5usize)]),
    }
}

/// A column of `n` rows; `nulls` 0 has none, 1 some, 2 only NULLs.
fn column(kind: u8, spread: u8, nulls: u8, n: usize, rng: &mut StdRng) -> Column {
    let mut c = Column::new_empty(match kind {
        0 => DataType::Int,
        1 => DataType::Date,
        2 => DataType::Bool,
        3 => DataType::Float,
        _ => DataType::Str,
    });
    for _ in 0..n {
        let null = nulls == 2 || (nulls == 1 && rng.gen_bool(0.2));
        c.push(if null { Value::Null } else { value(kind, spread, rng) }).unwrap();
    }
    c
}

/// `(kind, spread, nulls, desc, nulls_first)` per criterion.
type Shape = (u8, u8, u8, bool, bool);

fn shapes() -> impl Strategy<Value = Vec<Shape>> {
    prop::collection::vec((0..KINDS, 0u8..3, 0u8..3, any::<bool>(), any::<bool>()), 1..=3)
}

/// The criteria's columns and keys. About half the Int, Float and Date keys
/// (by position and direction, so a criterion keeps its form as the table
/// grows) are wrapped in an expression that keeps their values (`-(-k)`,
/// `d + 0`), so the VM's evaluation is held against the interpreter's too.
fn table(shapes: &[Shape], n: usize, rng: &mut StdRng) -> (Table, Vec<SortKey>) {
    let mut t = Table::empty();
    let mut keys = Vec::new();
    for (i, &(kind, spread, nulls, desc, nulls_first)) in shapes.iter().enumerate() {
        let name = format!("k{i}");
        t.add_column(name.clone(), column(kind, spread, nulls, n, rng)).unwrap();
        let expr = match kind {
            0 | 3 if (i + usize::from(desc)) % 2 == 0 => col(name).neg().neg(),
            1 if (i + usize::from(desc)) % 2 == 0 => col(name).add(lit(0i64)),
            _ => col(name),
        };
        keys.push(SortKey { expr, desc, nulls_first });
    }
    (t, keys)
}

/// Value equality that also tells types apart (`Value`'s `==` is `sql_eq`,
/// under which `Int(1)` equals `Float(1.0)`).
fn same_value(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Null, Value::Null) => true,
        (Value::Null, _) | (_, Value::Null) => false,
        _ => a.type_name() == b.type_name() && a == b,
    }
}

/// Everything `order.rs` exposes, asked of `keys` and of the comparator
/// `reference` over the same `n` rows.
fn assert_same_answers(keys: &KeyColumns, reference: &KeyColumns, n: usize, rng: &mut StdRng) {
    // The ORDER BY sort: all rows, and a subset handed over out of order.
    let sorted = |k: &KeyColumns, mut rows: Vec<usize>| {
        sort_permutation(k, &mut rows, false);
        rows
    };
    let all = sorted(keys, (0..n).collect());
    assert_eq!(all, sorted(reference, (0..n).collect()));
    let mut some: Vec<usize> = (0..n).filter(|_| rng.gen_bool(0.6)).collect();
    for i in (1..some.len()).rev() {
        some.swap(i, rng.gen_range(0..=i));
    }
    assert_eq!(sorted(keys, some.clone()), sorted(reference, some.clone()));

    // Peers of the sorted rows; the inner sort over a partition in row order.
    assert_eq!(peer_bounds(keys, &all), peer_bounds(reference, &all));
    some.sort_unstable();
    assert_eq!(dense_codes_for(keys, &some, false), dense_codes_for(reference, &some, false));

    // Row comparisons (binary searches, append splicing) and RANGE keys.
    for _ in 0..n.min(64) {
        let (a, b) = (rng.gen_range(0..n), rng.gen_range(0..n));
        assert_eq!(keys.cmp_rows(a, b), reference.cmp_rows(a, b), "rows {a} and {b}");
        match (keys.single_key(a), reference.single_key(a)) {
            (Some((v, d)), Some((w, e))) => assert!(same_value(&v, &w) && d == e, "{v:?} {w:?}"),
            (None, None) => {}
            other => panic!("single_key disagrees: {other:?}"),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// 1–3 criteria over every type, direction and NULL placement, with and
    /// without NULLs, small and extreme values, below and above the radix
    /// threshold.
    #[test]
    fn normalized_keys_match_the_comparator(
        shapes in shapes(),
        n in 0usize..900,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (t, sort_keys) = table(&shapes, n, &mut rng);
        let keys = KeyColumns::evaluate(&t, &sort_keys).unwrap();
        let reference = KeyColumns::evaluate_comparator(&t, &sort_keys).unwrap();
        assert_same_answers(&keys, &reference, n, &mut rng);
    }

    /// A table grown batch by batch through `extend` answers like one
    /// evaluated whole, whatever the batches do to the key ranges.
    #[test]
    fn extended_keys_match_the_comparator(
        shapes in shapes(),
        cuts in prop::collection::vec(0usize..120, 1..5),
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Each batch draws its own spread and NULL mode, so later batches
        // leave the first batch's ranges, bring the first NULL or the first
        // value, or push the total past 64 bits.
        let mut t: Option<Table> = None;
        let mut grown: Option<KeyColumns> = None;
        let mut sort_keys = Vec::new();
        for &rows in &cuts {
            let reshaped: Vec<Shape> = shapes
                .iter()
                .map(|&(kind, _, _, d, nf)| (kind, rng.gen_range(0..3), rng.gen_range(0..3), d, nf))
                .collect();
            let (batch, keys) = table(&reshaped, rows, &mut rng);
            sort_keys = keys;
            match (&mut t, &mut grown) {
                (Some(t), Some(grown)) => {
                    let from = t.num_rows();
                    t.append_rows(&batch).unwrap();
                    grown.extend(t, &sort_keys, from).unwrap();
                }
                _ => {
                    grown = Some(KeyColumns::evaluate(&batch, &sort_keys).unwrap());
                    t = Some(batch);
                }
            }
        }
        let (t, grown) = (t.unwrap(), grown.unwrap());
        let reference = KeyColumns::evaluate_comparator(&t, &sort_keys).unwrap();
        assert_same_answers(&grown, &reference, t.num_rows(), &mut rng);
    }
}

/// Two Int criteria whose ranges need `a` and `b` bits (NULL code included).
fn two_ints(a: u32, b: u32, n: usize) -> (Table, Vec<SortKey>) {
    let ramp = |bits: u32| -> Vec<i64> {
        // Values 0 ..= 2^bits - 2: with the NULL code, exactly `bits` bits.
        let top = ((1u64 << bits) - 2) as i64;
        (0..n).map(|i| if i % 2 == 0 { top } else { (i as i64 % 7).min(top) }).collect()
    };
    let t = Table::new(vec![("a", Column::ints(ramp(a))), ("b", Column::ints(ramp(b)))]).unwrap();
    (t, vec![SortKey::asc(col("a")), SortKey::desc(col("b"))])
}

/// Whether `keys` hold one normalized integer per row (8 B) rather than a
/// `Value` per row and criterion (24 B each).
fn is_packed(keys: &KeyColumns, n: usize) -> bool {
    keys.bytes() < 12 * n
}

#[test]
fn criteria_pack_up_to_64_bits_and_fall_back_at_65() {
    let n = 2_000;
    let mut rng = StdRng::seed_from_u64(1);
    for (a, b, packs) in [(31, 33, true), (31, 34, false), (1, 63, true), (2, 63, false)] {
        let (t, sort_keys) = two_ints(a, b, n);
        let keys = KeyColumns::evaluate(&t, &sort_keys).unwrap();
        assert_eq!(is_packed(&keys, n), packs, "{a} + {b} bits");
        let reference = KeyColumns::evaluate_comparator(&t, &sort_keys).unwrap();
        assert_same_answers(&keys, &reference, n, &mut rng);
    }
}

#[test]
fn a_column_spanning_all_of_i64_falls_back() {
    let n = 1_000;
    let mut rng = StdRng::seed_from_u64(2);
    let vals = |hi: i64| (0..n).map(|i| [i64::MIN, -1, 7, hi][i % 4]).collect::<Vec<i64>>();
    for (hi, packs) in [(i64::MAX - 1, true), (i64::MAX, false)] {
        let t = Table::new(vec![("k", Column::ints(vals(hi)))]).unwrap();
        let sort_keys = [SortKey::desc(col("k"))];
        let keys = KeyColumns::evaluate(&t, &sort_keys).unwrap();
        assert_eq!(is_packed(&keys, n), packs, "max {hi}");
        let reference = KeyColumns::evaluate_comparator(&t, &sort_keys).unwrap();
        assert_same_answers(&keys, &reference, n, &mut rng);
    }
}

#[test]
fn large_sorts_agree_serial_parallel_and_comparator() {
    // Big enough for radix passes (serial) and for run formation plus the
    // multiway merge (parallel).
    let n = 150_000;
    let mut rng = StdRng::seed_from_u64(3);
    let shapes = [(1u8, 1u8, 1u8, true, false), (0, 0, 0, false, false)];
    let (t, sort_keys) = table(&shapes, n, &mut rng);
    let keys = KeyColumns::evaluate(&t, &sort_keys).unwrap();
    let reference = KeyColumns::evaluate_comparator(&t, &sort_keys).unwrap();
    let mut expect: Vec<usize> = (0..n).collect();
    sort_permutation(&reference, &mut expect, false);
    for parallel in [false, true] {
        let mut rows: Vec<usize> = (0..n).collect();
        sort_permutation(&keys, &mut rows, parallel);
        assert_eq!(rows, expect, "parallel={parallel}");
        let positions: Vec<usize> = (0..n).collect();
        assert_eq!(
            dense_codes_for(&keys, &positions, parallel),
            dense_codes_for(&reference, &positions, false)
        );
    }
}

#[test]
fn appended_monotone_keys_repack_once_then_extend_in_place() {
    // The append engine's shape: ORDER BY a growing timestamp. The first
    // batch past the evaluated range re-packs with headroom; later batches
    // must fit it and stay on integer keys.
    let mut t = Table::new(vec![("ts", Column::ints((0..500).collect()))]).unwrap();
    let sort_keys = [SortKey::asc(col("ts"))];
    let mut keys = KeyColumns::evaluate(&t, &sort_keys).unwrap();
    for batch in 1..40i64 {
        let from = t.num_rows();
        let rows = (batch * 500..(batch + 1) * 500).collect();
        t.append_rows(&Table::new(vec![("ts", Column::ints(rows))]).unwrap()).unwrap();
        keys.extend(&t, &sort_keys, from).unwrap();
        assert!(is_packed(&keys, t.num_rows()), "batch {batch}");
    }
    let reference = KeyColumns::evaluate_comparator(&t, &sort_keys).unwrap();
    assert_same_answers(&keys, &reference, t.num_rows(), &mut StdRng::seed_from_u64(4));
}
