//! Property-based tests of the window substrate: frame resolution
//! invariants, remapping, ordering and partitioning.

use holistic_core::RangeSet;
use holistic_window::frame::{resolve_frames, FrameBound, FrameExclusion, FrameMode, FrameSpec};
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
    let eval = |e: &Expr| {
        let bound = e.bind(t).unwrap();
        (0..t.num_rows()).map(|r| bound.eval(t, r).unwrap()).collect::<Vec<Value>>()
    };
    let keys: Vec<Vec<Value>> = keys.iter().map(eval).collect();
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

/// One bound of the frame-invariant property. `kind`: 0 UNBOUNDED (PRECEDING
/// as a start, FOLLOWING as an end), 1 CURRENT ROW, 2 `off` PRECEDING, 3 `off`
/// FOLLOWING — so FOLLOWING starts and PRECEDING ends are drawn as often as
/// the usual way round.
fn invariant_bound(kind: usize, is_start: bool, off: Expr) -> FrameBound {
    match kind {
        0 if is_start => FrameBound::UnboundedPreceding,
        0 => FrameBound::UnboundedFollowing,
        1 => FrameBound::CurrentRow,
        2 => FrameBound::Preceding(off),
        _ => FrameBound::Following(off),
    }
}

/// Offset `code` of the frame-invariant property over a partition of `m`
/// rows: nothing, a few rows, exactly the partition, far past it (also as a
/// float), and NULL (which must be refused, not resolved).
fn invariant_offset(code: usize, m: usize) -> Value {
    match code {
        0 => Value::Int(0),
        1 => Value::Int(1),
        2 => Value::Int(3),
        3 => Value::Int(m as i64),
        4 => Value::Int(i64::MAX),
        5 => Value::Float(2.5),
        6 => Value::Float(1e300),
        _ => Value::Null,
    }
}

/// Offset `code` of the frame-definition property: small, equal and
/// fractional offsets, and two that leave `i64` when added to a key at its
/// edge (an exact `i128` threshold) or exceed every partition.
fn definition_offset(code: usize, float: bool) -> Value {
    if float {
        Value::Float([0.0, 0.5, 1.0, 2.5, 7.0, 19.75, 4.7e18, 1e300][code])
    } else {
        Value::Int([0, 1, 2, 3, 7, 19, 1 << 62, i64::MAX][code])
    }
}

/// A sorted partition's keys and what the frame clause says about them: the
/// definition [`resolve_frames`] is held against, as a scan per position.
struct SortedKeys {
    keys: Vec<Value>,
    /// What ROWS and GROUPS offsets count, per position: the row number, or
    /// the number of key changes before it.
    unit: Vec<i128>,
    mode: FrameMode,
    desc: bool,
    nulls_first: bool,
}

impl SortedKeys {
    fn new(keys: Vec<Value>, mode: FrameMode, desc: bool, nulls_first: bool) -> Self {
        let mut unit = vec![0; keys.len()];
        for p in 1..keys.len() {
            let step = mode == FrameMode::Rows || !keys[p].sql_eq(&keys[p - 1]);
            unit[p] = unit[p - 1] + i128::from(step);
        }
        SortedKeys { keys, unit, mode, desc, nulls_first }
    }

    /// Whether position `j` satisfies `bound` of row `i`'s frame, `off` being
    /// the bound's offset at row `i`: for a frame start, `j` lies at or after
    /// the bound; for an `end`, at or before it.
    fn at_or_past(&self, j: usize, i: usize, bound: &FrameBound, off: &Value, end: bool) -> bool {
        use std::cmp::Ordering::{Equal, Greater, Less};
        // Where `j` lies relative to the bound, in frame order.
        let side = match bound {
            FrameBound::UnboundedPreceding => Greater,
            FrameBound::UnboundedFollowing => Less,
            FrameBound::CurrentRow if self.mode == FrameMode::Rows => j.cmp(&i),
            FrameBound::Preceding(_) | FrameBound::Following(_)
                if !(self.mode == FrameMode::Range && self.keys[i].is_null()) =>
            {
                let following = matches!(bound, FrameBound::Following(_));
                match (&self.keys[j], &self.keys[i], off) {
                    _ if self.mode != FrameMode::Range => {
                        // A fraction counts whole rows / groups.
                        let count = off
                            .as_i64()
                            .map_or_else(|| off.as_f64().unwrap().trunc() as i128, i128::from);
                        let distance = self.unit[j] - self.unit[i];
                        distance.cmp(&if following { count } else { -count })
                    }
                    // An offset bound reaches no NULL: they lie beyond one end.
                    (Value::Null, ..) if self.nulls_first => Less,
                    (Value::Null, ..) => Greater,
                    (kj, ki, off) => {
                        // `k_j` against `k_i ± off`: exact when all three are
                        // integers, in `f64` under its total order otherwise.
                        let add = following != self.desc;
                        let ord = match (kj, ki, off) {
                            (Value::Int(kj), Value::Int(ki), Value::Int(o)) => {
                                let o = i128::from(*o);
                                i128::from(*kj).cmp(&(i128::from(*ki) + if add { o } else { -o }))
                            }
                            _ => {
                                let f = |v: &Value| v.as_f64().unwrap();
                                let t = if add { f(ki) + f(off) } else { f(ki) - f(off) };
                                f(kj).total_cmp(&t)
                            }
                        };
                        if self.desc {
                            ord.reverse()
                        } else {
                            ord
                        }
                    }
                }
            }
            // CURRENT ROW, and what a NULL key makes of a RANGE offset: peers.
            _ if self.keys[j].sql_eq(&self.keys[i]) => Equal,
            _ => j.cmp(&i),
        };
        side == Equal || side == if end { Less } else { Greater }
    }
}

/// `Remap` from its definition: counts over the flags, nothing precomputed.
struct RemapModel<'a>(&'a [bool]);

impl RemapModel<'_> {
    /// Kept positions `< i`, with `i` past the end read as the end.
    fn before(&self, i: usize) -> usize {
        self.0[..i.min(self.0.len())].iter().filter(|&&k| k).count()
    }
    fn kept(&self) -> Vec<usize> {
        (0..self.0.len()).filter(|&i| self.0[i]).collect()
    }
    fn range_set(&self, pieces: &[(usize, usize)]) -> Vec<(usize, usize)> {
        let translated = pieces.iter().map(|&(a, b)| (self.before(a), self.before(b)));
        translated.filter(|(ka, kb)| ka < kb).collect()
    }
}

/// The keep flags of one `shape`: nothing dropped, everything dropped, one
/// position dropped (first / last / middle), or the random flags as drawn.
fn keep_shape(shape: usize, mut random: Vec<bool>) -> Vec<bool> {
    let n = random.len();
    match shape {
        0 => random.fill(true),
        1 => random.fill(false),
        2..=4 if n > 0 => {
            random.fill(true);
            random[[0, n - 1, n / 2][shape - 2]] = false;
        }
        _ => {}
    }
    random
}

/// A generated list cut to a size class: empty one time in ten, a few
/// rows three times, otherwise up to 300 (enough rows for every direct table
/// to be outgrown).
fn sized<T>(mut words: Vec<T>, class: usize) -> Vec<T> {
    words.truncate(if class < 4 { class * 3 } else { usize::MAX });
    words
}

/// Which error a frame reports: the first row's, the start bound's before the
/// end bound's, whether a bound is invalid as written, by its literal or by
/// one row's value — and none over an empty partition.
#[test]
fn invalid_bounds_fail_at_the_first_row_in_bound_order() {
    let msg = |spec: &FrameSpec, keys: Vec<i64>| {
        let n = keys.len();
        let t = table_from(keys.into_iter().map(Some).collect());
        let kc = KeyColumns::evaluate(&t, &[SortKey::asc(col("k"))]).unwrap();
        let mut rows: Vec<usize> = (0..n).collect();
        sort_permutation(&kc, &mut rows, false);
        match resolve_frames(&t, &rows, &kc, spec) {
            Err(holistic_window::Error::InvalidFrameBound(m)) => m,
            other => panic!("{:?} under {spec:?}", other.map(|rf| rf.bounds)),
        }
    };
    let neg = || lit(-1i64);
    // 0 at the first row of keys 1, 2 and negative at the second.
    let late = || lit(1i64).sub(col("k"));
    for mode in [FrameMode::Rows, FrameMode::Range, FrameMode::Groups] {
        let spec = |start, end| FrameSpec { mode, start, end, exclusion: FrameExclusion::NoOthers };
        // Without an offset bound RANGE once ran a loop of its own, which had
        // no arm for a frame that starts at UNBOUNDED FOLLOWING and panicked.
        let s = spec(FrameBound::UnboundedFollowing, FrameBound::CurrentRow);
        assert_eq!(msg(&s, vec![1, 2]), "UNBOUNDED FOLLOWING cannot start a frame");
        let s = spec(FrameBound::CurrentRow, FrameBound::UnboundedPreceding);
        assert_eq!(msg(&s, vec![1, 2]), "UNBOUNDED PRECEDING cannot end a frame");
        // The start bound speaks first, literal or not.
        let s = spec(FrameBound::UnboundedFollowing, FrameBound::Following(neg()));
        assert_eq!(msg(&s, vec![1, 2]), "UNBOUNDED FOLLOWING cannot start a frame");
        let s = spec(FrameBound::Preceding(neg()), FrameBound::UnboundedPreceding);
        assert_eq!(msg(&s, vec![1, 2]), "offset must be non-negative");
        let s = spec(FrameBound::Preceding(col("k")), FrameBound::UnboundedPreceding);
        assert_eq!(msg(&s, vec![1, 2]), "UNBOUNDED PRECEDING cannot end a frame");
        assert_eq!(msg(&s, vec![-1, 2]), "offset must be non-negative");
        // The end's invalid literal at the first row comes before the
        // start's invalid value at the second.
        let s = spec(FrameBound::Preceding(late()), FrameBound::Following(lit("x")));
        assert_eq!(msg(&s, vec![1, 2]), "offset must be numeric, got str");
        let s = spec(FrameBound::Preceding(late()), FrameBound::CurrentRow);
        assert_eq!(msg(&s, vec![1, 2]), "offset must be non-negative");
        // An empty partition has no row to fail at.
        let t = table_from(vec![Some(1)]);
        let kc = KeyColumns::evaluate(&t, &[SortKey::asc(col("k"))]).unwrap();
        let s = spec(FrameBound::UnboundedFollowing, FrameBound::Following(neg()));
        assert!(resolve_frames(&t, &[], &kc, &s).unwrap().bounds.is_empty());
    }
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

    /// Every method of `Remap::new(&keep)` — whichever form it picked — is
    /// the model's answer, bounds past the partition included; the form is
    /// observable only as `is_identity()` and a footprint of 0.
    #[test]
    fn remap_matches_its_definition(
        random in prop::collection::vec(any::<bool>(), 0..48),
        shape in 0usize..8,
        cuts in prop::collection::vec(prop::collection::vec(0usize..56, 6), 1..8),
    ) {
        let keep = keep_shape(shape, random);
        let n = keep.len();
        let model = RemapModel(&keep);
        let kept = model.kept();
        let all_kept = kept.len() == n;
        let mut forms = vec![Remap::new(&keep)];
        if all_kept {
            forms.push(Remap::identity(n));
        }
        for r in forms {
            prop_assert_eq!(r.is_identity(), all_kept);
            prop_assert_eq!(r.bytes() == 0, r.is_identity());
            if !all_kept {
                prop_assert_eq!(r.bytes(), 8 * (n + 1 + kept.len()));
            }
            prop_assert_eq!(r.kept_len(), kept.len());
            for (k, &pos) in kept.iter().enumerate() {
                prop_assert_eq!(r.to_position(k), pos);
                prop_assert_eq!(r.kept_index(pos), k);
            }
            for (i, &k) in keep.iter().enumerate() {
                prop_assert_eq!(r.is_kept(i), k);
            }
            // Every pair of bounds up to well past the end, reversed pairs too.
            for a in 0..n + 4 {
                for b in 0..n + 4 {
                    prop_assert_eq!(r.range(a, b), (model.before(a), model.before(b)));
                }
            }
            // Three-piece sets from six ascending cut points (some past the
            // end): pieces empty in kept space must vanish.
            for cut in &cuts {
                let mut c = cut.clone();
                c.sort_unstable();
                let pieces = [(c[0], c[1]), (c[2], c[3]), (c[4], c[5])];
                let got = r.range_set(&RangeSet::from_ranges(&pieces));
                prop_assert_eq!(got.iter().collect::<Vec<_>>(), model.range_set(&pieces));
            }
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

proptest! {
    // 3 modes × 16 bound shapes × 64 offset pairs: more cases than the rest.
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Frames against their definition, in every mode and under both key
    /// representations: position `j` is in row `i`'s frame exactly when a
    /// scan over the keys says it lies at or after the start bound and at or
    /// before the end bound (`SortedKeys::at_or_past`). RANGE: `k_j` within
    /// `k_i ± off`, NULL keys framing their peers; ROWS / GROUPS: the same
    /// over row and peer-group numbers. ASC and DESC, NULLS FIRST and LAST,
    /// float keys with `-0.0`, keys at the `i64` edges under offsets that
    /// leave `i64`, constant and per-row non-monotone offsets (Int and
    /// Float), FOLLOWING starts and PRECEDING ends.
    #[test]
    fn range_frames_cover_exactly_the_value_window(
        keys in prop::collection::vec(prop::option::of(-30i64..30), 1..80),
        mode in 0usize..3,
        key_kind in 0usize..3,
        desc in any::<bool>(),
        nulls_first in any::<bool>(),
        start_kind in 0usize..4,
        end_kind in 0usize..4,
        // `None`: the per-row columns `s` / `e`; `Some(c)`: the constant of code `c`.
        start_off in prop::option::of(0usize..8),
        end_off in prop::option::of(0usize..8),
        row_offs in prop::collection::vec((0usize..8, 0usize..8), 80),
        float_offsets in any::<bool>(),
    ) {
        let n = keys.len();
        let mode = [FrameMode::Range, FrameMode::Rows, FrameMode::Groups][mode];
        let key = |(row, k): (usize, i64)| match key_kind {
            0 => Value::Int(k),
            // Halves, and both zeros: `-0.0` sorts before `0.0`, not as its peer.
            1 if k == 0 && row % 2 == 0 => Value::Float(-0.0),
            1 => Value::Float(k as f64 * 0.5),
            // Within 8 of either end of `i64`.
            _ if k < 0 => Value::Int(i64::MIN + (k + 30) % 9),
            _ => Value::Int(i64::MAX - k % 9),
        };
        let keys: Vec<Value> = keys
            .iter()
            .enumerate()
            .map(|(row, k)| k.map_or(Value::Null, |k| key((row, k))))
            .collect();
        let offset = |code: usize| definition_offset(code, float_offsets);
        let per_row = |side: fn(&(usize, usize)) -> usize| -> Vec<Value> {
            row_offs[..n].iter().map(|codes| offset(side(codes))).collect()
        };
        let (s, e) = (per_row(|c| c.0), per_row(|c| c.1));
        let t = Table::new(vec![
            ("k", Column::from_values(&keys).unwrap()),
            ("s", Column::from_values(&s).unwrap()),
            ("e", Column::from_values(&e).unwrap()),
        ])
        .unwrap();
        let sk = SortKey { expr: col("k"), desc, nulls_first };
        let packed = KeyColumns::evaluate(&t, std::slice::from_ref(&sk)).unwrap();
        let values = KeyColumns::evaluate_comparator(&t, std::slice::from_ref(&sk)).unwrap();
        let mut rows: Vec<usize> = (0..n).collect();
        sort_permutation(&packed, &mut rows, false);
        let bound = |kind, is_start, off: Option<usize>, column| {
            invariant_bound(kind, is_start, off.map_or(col(column), |c| lit(offset(c))))
        };
        let spec = FrameSpec {
            mode,
            start: bound(start_kind, true, start_off, "s"),
            end: bound(end_kind, false, end_off, "e"),
            exclusion: FrameExclusion::NoOthers,
        };
        let rf = resolve_frames(&t, &rows, &packed, &spec).unwrap();
        let by_values = resolve_frames(&t, &rows, &values, &spec).unwrap();
        prop_assert_eq!(&rf.bounds, &by_values.bounds, "packed and `Value` keys under {:?}", spec);
        prop_assert_eq!(&rf.peer_start, &by_values.peer_start);
        prop_assert_eq!(&rf.peer_end, &by_values.peer_end);

        let sorted_keys = rows.iter().map(|&r| keys[r].clone()).collect();
        let sorted = SortedKeys::new(sorted_keys, mode, desc, nulls_first);
        for i in 0..n {
            let (a, b) = rf.bounds[i];
            prop_assert!(a <= b && b <= n);
            let off = |c: Option<usize>, per_row: &[Value]| c.map_or(per_row[rows[i]].clone(), offset);
            let (so, eo) = (off(start_off, &s), off(end_off, &e));
            for j in 0..n {
                let inside = sorted.at_or_past(j, i, &spec.start, &so, false)
                    && sorted.at_or_past(j, i, &spec.end, &eo, true);
                prop_assert_eq!(
                    a <= j && j < b,
                    inside,
                    "i={} j={} frame=({},{}) offsets=({:?},{:?}) keys={:?} under {:?}",
                    i, j, a, b, so, eo, sorted.keys, spec
                );
            }
        }
    }

    /// Every mode of the resolver keeps `start <= end <= m` — what readers
    /// that use the bounds unclamped lean on — or refuses the frame with an
    /// error: ROWS / RANGE / GROUPS, constant and per-row offsets of 0, `m`,
    /// `i64::MAX` and NULL, FOLLOWING starts and PRECEDING ends, NULL and
    /// float keys, descending order, the empty partition.
    #[test]
    fn resolved_frames_stay_inside_the_partition(
        keys in prop::collection::vec(prop::option::of(-8i64..8), 0..60),
        class in 0usize..10,
        mode in 0usize..3,
        start_kind in 0usize..4,
        end_kind in 0usize..4,
        // `None`: the per-row column `o`; `Some(c)`: the constant of code `c`.
        start_off in prop::option::of(0usize..8),
        end_off in prop::option::of(0usize..8),
        row_offs in prop::collection::vec(0usize..8, 60),
        null_offsets in any::<bool>(),
        float_keys in any::<bool>(),
        desc in any::<bool>(),
    ) {
        let keys = sized(keys, class);
        let m = keys.len();
        // Per-row offsets; a NULL among them only when the case asks for one.
        let o: Vec<Value> = (0..m)
            .map(|i| match invariant_offset(row_offs[i], m) {
                Value::Null if !null_offsets => Value::Int(2),
                v => v,
            })
            .collect();
        let k = if float_keys {
            Column::floats_opt(keys.iter().map(|k| k.map(|k| k as f64 * 0.5)).collect())
        } else {
            Column::ints_opt(keys)
        };
        // An all-NULL offset column is typed Int, like any other here.
        let o = if o.iter().any(|v| matches!(v, Value::Float(_))) {
            Column::floats_opt(o.iter().map(Value::as_f64).collect())
        } else {
            Column::ints_opt(o.iter().map(Value::as_i64).collect())
        };
        let t = Table::new(vec![("k", k), ("o", o)]).unwrap();
        let sk = if desc { SortKey::desc(col("k")) } else { SortKey::asc(col("k")) };
        let kc = KeyColumns::evaluate(&t, &[sk]).unwrap();
        let mut rows: Vec<usize> = (0..m).collect();
        sort_permutation(&kc, &mut rows, false);
        let off = |c: Option<usize>| c.map_or(col("o"), |c| lit(invariant_offset(c, m)));
        let spec = FrameSpec {
            mode: [FrameMode::Rows, FrameMode::Range, FrameMode::Groups][mode],
            start: invariant_bound(start_kind, true, off(start_off)),
            end: invariant_bound(end_kind, false, off(end_off)),
            exclusion: FrameExclusion::NoOthers,
        };
        if let Ok(rf) = resolve_frames(&t, &rows, &kc, &spec) {
            prop_assert_eq!(rf.bounds.len(), m);
            for (i, &(a, b)) in rf.bounds.iter().enumerate() {
                prop_assert!(a <= b && b <= m, "row {} of {}: ({}, {}) under {:?}", i, m, a, b, spec);
            }
        }
    }
}
