//! Property-based tests of the window substrate: frame resolution
//! invariants, remapping, ordering and partitioning.

use holistic_window::frame::{resolve_frames, FrameBound, FrameExclusion, FrameSpec};
use holistic_window::order::{sort_permutation, KeyColumns, SortKey};
use holistic_window::partition::{partition_rows, Partitioner};
use holistic_window::remap::Remap;
use holistic_window::{col, lit, Column, Expr, Table, Value};
use proptest::prelude::*;

fn table_from(keys: Vec<Option<i64>>) -> Table {
    Table::new(vec![("k", Column::ints_opt(keys))]).unwrap()
}

/// A table over every column type, each cell decoded from one random word per
/// row: NULL one time in six, otherwise a value from a pool of the type's
/// grouping edge cases.
///
/// `i`: the `i64` extremes and the neighbours of 2⁵³ (a range only the map
/// holds), `s`: `0..5` (the direct table), `f`: `±0.0`, NaNs of three
/// payloads, infinities, `g`: empty, short and long strings with shared
/// prefixes and an embedded NUL, `d`, `b`, `u`: `0..1000` without NULLs (a
/// cardinality that takes a multi-key fold past its direct table), `m`: `s`
/// in the table's first half and `i` in its second (a key that outgrows the
/// direct table while rows arrive).
fn partition_table(words: &[u64]) -> Table {
    const INTS: [i64; 12] = [
        0,
        1,
        -1,
        i64::MIN,
        i64::MIN + 1,
        i64::MAX,
        i64::MAX - 1,
        1 << 53,
        (1 << 53) + 1,
        (1 << 53) - 1,
        -(1 << 53) - 1,
        1 << 40,
    ];
    const STRS: [&str; 12] = [
        "",
        "a",
        "b",
        "ab",
        "ba",
        "a\0",
        "abcdefg",
        "abcdefgh",
        "abcdefghi",
        "shared-prefix-",
        "shared-prefix-x",
        "shared-prefix-y",
    ];
    const DATES: [i32; 6] = [0, 1, -1, 400, i32::MIN, i32::MAX];
    let floats = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.5,
        f64::NAN,
        f64::from_bits(f64::NAN.to_bits() | 1),
        -f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        (1u64 << 53) as f64,
        1e300,
    ];
    let column = |c: u32, pool: usize, value: &dyn Fn(usize, usize) -> Value| {
        let cell = |(row, w): (usize, &u64)| {
            let byte = (w >> (8 * c)) as usize & 0xff;
            if byte.is_multiple_of(6) {
                Value::Null
            } else {
                value(row, byte / 6 % pool)
            }
        };
        Column::from_values(&words.iter().enumerate().map(cell).collect::<Vec<_>>()).unwrap()
    };
    let half = words.len() / 2;
    Table::new(vec![
        ("i", column(0, INTS.len(), &|_, at| Value::Int(INTS[at]))),
        ("s", column(1, 5, &|_, at| Value::Int(at as i64))),
        ("f", column(2, floats.len(), &|_, at| Value::Float(floats[at]))),
        ("g", column(3, STRS.len(), &|_, at| Value::str(STRS[at]))),
        ("d", column(4, DATES.len(), &|_, at| Value::Date(DATES[at]))),
        ("b", column(5, 2, &|_, at| Value::Bool(at == 1))),
        ("u", Column::ints(words.iter().map(|w| (w >> 48) as i64 % 1000).collect())),
        (
            "m",
            column(0, INTS.len(), &|row, at| {
                Value::Int(if row < half { at as i64 % 5 } else { INTS[at] })
            }),
        ),
    ])
    .unwrap()
}

/// PARTITION BY key `k` of the catalogue the properties draw from: every
/// bare column, then expressions (Int meeting Float, signed zeros and NaN
/// out of arithmetic, a Bool).
fn partition_key(k: usize) -> Expr {
    match k {
        0..=7 => col(["i", "s", "f", "g", "d", "b", "u", "m"][k]),
        8 => col("s").add(col("f")),
        9 => col("f").neg(),
        10 => col("f").mul(lit(0i64)),
        _ => col("s").gt(lit(2i64)),
    }
}
const PARTITION_KEYS: usize = 12;

/// PARTITION BY from its definition: a row joins the first partition whose
/// first row has `sql_eq` keys, else opens a new one.
fn partition_reference(t: &Table, keys: &[Expr]) -> Vec<Vec<usize>> {
    let keys: Vec<Vec<Value>> =
        keys.iter().map(|e| e.bind(t).unwrap().eval_all(t).unwrap()).collect();
    let mut parts: Vec<Vec<usize>> = Vec::new();
    for row in 0..t.num_rows() {
        let same = |p: &&mut Vec<usize>| keys.iter().all(|k| k[p[0]].sql_eq(&k[row]));
        match parts.iter_mut().find(same) {
            Some(p) => p.push(row),
            None => parts.push(vec![row]),
        }
    }
    parts
}

/// The generated word list cut to a size class: empty one time in ten, a few
/// rows three times, otherwise up to 300 (enough rows for every direct table
/// to be outgrown).
fn sized(mut words: Vec<u64>, class: usize) -> Vec<u64> {
    words.truncate(if class < 4 { class * 3 } else { usize::MAX });
    words
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// ROWS frames with constant offsets: bounds are clamped, ordered, and
    /// monotone in the row position.
    #[test]
    fn rows_frames_are_sane(
        keys in prop::collection::vec(prop::option::of(-20i64..20), 0..80),
        pre in 0i64..40,
        fol in 0i64..40,
    ) {
        let n = keys.len();
        let t = table_from(keys);
        let kc = KeyColumns::evaluate(&t, &[SortKey::asc(col("k"))]).unwrap();
        let mut rows: Vec<usize> = (0..n).collect();
        sort_permutation(&kc, &mut rows, false);
        let spec = FrameSpec::rows(FrameBound::Preceding(lit(pre)), FrameBound::Following(lit(fol)));
        let rf = resolve_frames(&t, &rows, &kc, &spec).unwrap();
        for i in 0..n {
            let (a, b) = rf.bounds[i];
            prop_assert!(a <= b && b <= n);
            prop_assert_eq!(a, i.saturating_sub(pre as usize));
            prop_assert_eq!(b, (i + fol as usize + 1).min(n));
            if i > 0 {
                prop_assert!(rf.bounds[i - 1].0 <= a && rf.bounds[i - 1].1 <= b);
            }
        }
    }

    /// RANGE frames: every key inside the frame lies within [k_i - pre,
    /// k_i + fol]; every non-null key outside does not.
    #[test]
    fn range_frames_cover_exactly_the_value_window(
        keys in prop::collection::vec(prop::option::of(-30i64..30), 1..80),
        pre in 0i64..20,
        fol in 0i64..20,
    ) {
        let n = keys.len();
        let t = table_from(keys.clone());
        let kc = KeyColumns::evaluate(&t, &[SortKey::asc(col("k"))]).unwrap();
        let mut rows: Vec<usize> = (0..n).collect();
        sort_permutation(&kc, &mut rows, false);
        let spec = FrameSpec::range(FrameBound::Preceding(lit(pre)), FrameBound::Following(lit(fol)));
        let rf = resolve_frames(&t, &rows, &kc, &spec).unwrap();
        for i in 0..n {
            let ki = keys[rows[i]];
            let (a, b) = rf.bounds[i];
            prop_assert!(a <= b && b <= n);
            if let Some(ki) = ki {
                for (j, &row) in rows.iter().enumerate() {
                    if let Some(kj) = keys[row] {
                        let inside = kj >= ki - pre && kj <= ki + fol;
                        prop_assert_eq!(
                            a <= j && j < b,
                            inside,
                            "i={} j={} ki={} kj={} frame=({},{})", i, j, ki, kj, a, b
                        );
                    } else {
                        prop_assert!(!(a <= j && j < b), "null keys outside numeric frames");
                    }
                }
            } else {
                // NULL rows: frame = their peer group of NULLs.
                prop_assert_eq!((a, b), (rf.peer_start[i], rf.peer_end[i]));
            }
        }
    }

    /// Exclusion: the produced range set equals the frame minus the holes,
    /// never contains excluded positions, and splits into at most 3 pieces.
    #[test]
    fn exclusion_pieces_are_exact(
        keys in prop::collection::vec(0i64..6, 1..60),
        which in 0usize..4,
    ) {
        let n = keys.len();
        let t = table_from(keys.into_iter().map(Some).collect());
        let kc = KeyColumns::evaluate(&t, &[SortKey::asc(col("k"))]).unwrap();
        let mut rows: Vec<usize> = (0..n).collect();
        sort_permutation(&kc, &mut rows, false);
        let excl = [
            FrameExclusion::NoOthers,
            FrameExclusion::CurrentRow,
            FrameExclusion::Group,
            FrameExclusion::Ties,
        ][which];
        let spec = FrameSpec::whole_partition().exclude(excl);
        let rf = resolve_frames(&t, &rows, &kc, &spec).unwrap();
        for i in 0..n {
            let rs = rf.range_set(i);
            prop_assert!(rs.len() <= 3);
            // Expected membership per position.
            for p in 0..n {
                let peers = rf.peer_start[i] <= p && p < rf.peer_end[i];
                let expected = match excl {
                    FrameExclusion::NoOthers => true,
                    FrameExclusion::CurrentRow => p != i,
                    FrameExclusion::Group => !peers,
                    FrameExclusion::Ties => p == i || !peers,
                };
                prop_assert_eq!(rs.contains(p), expected, "i={} p={} excl={:?}", i, p, excl);
            }
        }
    }

    /// Remap: ranges translate consistently with membership.
    #[test]
    fn remap_is_consistent(
        keep in prop::collection::vec(any::<bool>(), 0..100),
        spans in prop::collection::vec((0usize..110, 0usize..110), 1..20),
    ) {
        let r = Remap::new(&keep);
        prop_assert_eq!(r.kept_len(), keep.iter().filter(|&&k| k).count());
        for (a, b) in spans {
            let (ka, kb) = r.range(a, b.max(a));
            prop_assert!(ka <= kb);
            let expected = keep[a.min(keep.len())..b.max(a).min(keep.len())]
                .iter()
                .filter(|&&k| k)
                .count();
            prop_assert_eq!(kb - ka, expected);
        }
        // Kept index roundtrips.
        for k in 0..r.kept_len() {
            let pos = r.to_position(k);
            prop_assert!(r.is_kept(pos));
            prop_assert_eq!(r.kept_index(pos), k);
        }
    }

    /// Partitioning: every row lands in exactly one partition; partition
    /// members share sql-equal keys.
    #[test]
    fn partitions_are_exact(keys in prop::collection::vec(prop::option::of(0i64..5), 0..80)) {
        let n = keys.len();
        let t = table_from(keys.clone());
        let parts = partition_rows(&t, &[col("k")]).unwrap();
        let mut seen = vec![false; n];
        for part in &parts {
            prop_assert!(!part.is_empty());
            for &row in part {
                prop_assert!(!seen[row]);
                seen[row] = true;
                prop_assert_eq!(keys[row], keys[part[0]]);
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    /// Partitioning is the definition on every column type and encoder arm:
    /// 1–3 keys out of [`partition_key`] over [`partition_table`].
    #[test]
    fn partitions_match_the_definition(
        words in prop::collection::vec(any::<u64>(), 0..300),
        class in 0usize..10,
        keys in prop::collection::vec(0..PARTITION_KEYS, 1..=3),
    ) {
        let t = partition_table(&sized(words, class));
        let keys: Vec<Expr> = keys.into_iter().map(partition_key).collect();
        prop_assert_eq!(partition_rows(&t, &keys).unwrap(), partition_reference(&t, &keys));
    }

    /// The persistent form: a table routed in batches, at random cuts, ends
    /// with the partitions (ids and order) of one pass over all of it, and
    /// every batch reports its partitions in first-touch order.
    #[test]
    fn routing_in_batches_matches_one_pass(
        words in prop::collection::vec(any::<u64>(), 0..300),
        class in 0usize..10,
        keys in prop::collection::vec(0..PARTITION_KEYS, 1..=3),
        cuts in prop::collection::vec(0usize..=300, 0..5),
    ) {
        let t = partition_table(&sized(words, class));
        let n = t.num_rows();
        let keys: Vec<Expr> = keys.into_iter().map(partition_key).collect();
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c * n / 300).chain([n]).collect();
        cuts.sort_unstable();

        let mut router = Partitioner::new(&t.slice_rows(0, 0), &keys).unwrap();
        let mut parts: Vec<Vec<usize>> = Vec::new();
        let mut from = 0;
        for cut in cuts {
            let batch = router.route(&t.slice_rows(0, cut), from).unwrap();
            prop_assert!(batch.windows(2).all(|w| w[0].1[0] < w[1].1[0]), "first-touch order");
            for (pid, rows) in batch {
                prop_assert!(pid <= parts.len(), "ids are dense, first appearance first");
                if pid == parts.len() {
                    parts.push(Vec::new());
                }
                parts[pid].extend(rows);
            }
            prop_assert_eq!(parts.len(), router.num_partitions());
            from = cut;
        }
        prop_assert_eq!(parts, partition_rows(&t, &keys).unwrap());
    }

    /// Sorting is a permutation, ordered, and deterministic wrt. ties.
    #[test]
    fn sort_permutation_invariants(
        keys in prop::collection::vec(prop::option::of(0i64..8), 0..120),
        desc in any::<bool>(),
    ) {
        let n = keys.len();
        let t = table_from(keys.clone());
        let sk = if desc { SortKey::desc(col("k")) } else { SortKey::asc(col("k")) };
        let kc = KeyColumns::evaluate(&t, &[sk]).unwrap();
        let mut rows: Vec<usize> = (0..n).collect();
        sort_permutation(&kc, &mut rows, false);
        let mut sorted_rows = rows.clone();
        sorted_rows.sort_unstable();
        prop_assert_eq!(sorted_rows, (0..n).collect::<Vec<_>>());
        for w in rows.windows(2) {
            let ord = kc.cmp_rows(w[0], w[1]);
            prop_assert!(ord != std::cmp::Ordering::Greater);
            if ord == std::cmp::Ordering::Equal {
                prop_assert!(w[0] < w[1], "ties break by row index");
            }
        }
    }
}
