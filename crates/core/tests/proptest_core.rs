//! Property-based tests for the merge sort tree core.

use holistic_core::aggregate::{AvgF64, DistinctAggregate, SumI64};
use holistic_core::{
    dense_codes, prev_idcs_by_key, AnnotatedMst, MergeSortTree, MstParams, RangeSet, TreeIndex,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn params_strategy() -> impl Strategy<Value = MstParams> {
    (2usize..=33, 1usize..=33, any::<bool>()).prop_map(|(f, k, par)| {
        let p = MstParams::new(f, k);
        if par {
            p
        } else {
            p.serial()
        }
    })
}

/// A length next to a run boundary: `m · f^e + d`, with `f^e` scaled down
/// until the tree stays small enough to check exhaustively.
fn boundary_len(f: usize, e: u32, m: usize, d: isize) -> usize {
    let mut unit = f.pow(e);
    while unit * m > 3000 {
        unit /= f;
    }
    (unit * m).saturating_add_signed(d)
}

/// `n` keys from one of four domains: few distinct values, all equal
/// (`key_bits = 0`), the top of `I`'s range, and spread over all of it.
fn keys_from<I: TreeIndex>(seed: u64, n: usize, domain: u8) -> Vec<I> {
    let mut rng = StdRng::seed_from_u64(seed);
    let max = I::MAX.to_usize();
    (0..n)
        .map(|_| {
            let raw: usize = rng.gen();
            I::from_usize(match domain {
                0 => raw % 7,
                1 => 42,
                2 => max - raw % 3,
                _ => raw & max,
            })
        })
        .collect()
}

/// The base positions `rs..re` in the order their run stores them: by key,
/// equal keys in position order.
fn run_order<I: TreeIndex>(vals: &[I], rs: usize, re: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (rs..re).collect();
    order.sort_by_key(|&p| vals[p]); // stable
    order
}

/// Checks a tree's whole arena against the definition of the structure,
/// and that every build produces that same arena.
///
/// Level `l` is cut into runs of `f^l` base positions; a run holds the keys
/// of its positions, stably sorted. Its pointer slots are laid out
/// `[sample][child]`, `len / k + 2` samples: sample `s`, child `c` is how
/// many of the run's first `min(s · k, len)` elements sit in child `c`, so
/// the trailing slots hold the child lengths.
fn check_against_definition<I: TreeIndex>(vals: &[I], f: usize, k: usize) {
    let n = vals.len();
    let serial = MergeSortTree::<I>::build(vals, MstParams::new(f, k).serial());
    let h = serial.height();
    let (shell, arena) = serial.into_shell();
    let segs = shell.segments();

    let parallel = MergeSortTree::<I>::build(vals, MstParams::new(f, k));
    assert_eq!(parallel.into_shell().1, arena, "serial vs parallel, n={n} f={f} k={k}");
    let (_, mut spilled) = MergeSortTree::<I>::build_spilled(vals, MstParams::new(f, k)).unwrap();
    assert_eq!(spilled.fault().unwrap(), arena, "in-memory vs spilled, n={n} f={f} k={k}");

    let mut run_len = 1usize;
    for lvl in 0..h {
        let keys = &arena[segs[lvl]..segs[lvl + 1]];
        let ptrs = if lvl == 0 { &[][..] } else { &arena[segs[h + lvl - 1]..segs[h + lvl]] };
        let mut slot = 0;
        for rs in (0..n).step_by(run_len) {
            let re = (rs + run_len).min(n);
            let order = run_order(vals, rs, re);
            let expect: Vec<I> = order.iter().map(|&p| vals[p]).collect();
            assert_eq!(&keys[rs..re], &expect[..], "keys of level {lvl} run at {rs}");
            if lvl == 0 {
                continue;
            }
            let (len, child_len) = (re - rs, run_len / f);
            let mut in_child = vec![0usize; f];
            for s in 0..len / k + 2 {
                for &p in &order[(s.max(1) - 1) * k..(s * k).min(len)] {
                    in_child[(p - rs) / child_len] += 1;
                }
                let got: Vec<usize> = ptrs[slot..slot + f].iter().map(|x| x.to_usize()).collect();
                assert_eq!(got, in_child, "level {lvl} run at {rs} sample {s}, n={n} f={f} k={k}");
                slot += f;
            }
        }
        assert_eq!(slot, ptrs.len(), "level {lvl} slab length");
        run_len *= f;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The arena is what the definition of a merge sort tree says it is —
    /// for both index widths, fanouts whose run lengths are not powers of
    /// two, and lengths on both sides of a run boundary — whichever build
    /// produced it.
    #[test]
    fn arena_matches_the_definition(
        f in 2usize..=9,
        k in 1usize..=9,
        shape in (1u32..=3, 1usize..=9, -1isize..=1),
        domain in 0u8..4,
        seed in any::<u64>(),
    ) {
        let n = boundary_len(f, shape.0, shape.1.min(f), shape.2);
        check_against_definition::<u32>(&keys_from(seed, n, domain), f, k);
        check_against_definition::<u64>(&keys_from(seed, n, domain), f, k);
    }

    /// Prefix states are the fold of a run's payloads in (key, position)
    /// order, bit for bit: with duplicate keys and float payloads, any other
    /// order among equal keys would round differently. A frame that is
    /// exactly one run reads that run's prefix state and nothing else.
    #[test]
    fn annotated_prefix_states_fold_in_key_then_position_order(
        f in 2usize..=6,
        k in 1usize..=5,
        parallel in any::<bool>(),
        n in 1usize..400,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let keys: Vec<u32> = (0..n).map(|_| rng.gen_range(0..5)).collect();
        let payloads: Vec<f64> = (0..n).map(|_| rng.gen_range(1..1000) as f64 / 7.0).collect();
        let params = if parallel { MstParams::new(f, k) } else { MstParams::new(f, k).serial() };
        let tree = AnnotatedMst::<u32, AvgF64>::build(&keys, &payloads, params);
        let mut run_len = 1usize;
        for _ in 0..tree.tree().height() {
            for rs in (0..n).step_by(run_len) {
                let re = (rs + run_len).min(n);
                let order = run_order(&keys, rs, re);
                for t in 0..=5u32 {
                    let below = order.iter().take_while(|&&p| keys[p] < t);
                    let fold = below.fold(AvgF64::identity(), |acc, &p| {
                        AvgF64::combine(acc, AvgF64::lift(payloads[p]))
                    });
                    let expect = if fold.1 == 0 {
                        fold
                    } else {
                        AvgF64::combine(AvgF64::identity(), fold)
                    };
                    let (got, cnt) = tree.aggregate_below(rs, re, t, None);
                    prop_assert_eq!(cnt as u64, expect.1);
                    prop_assert_eq!((got.0.to_bits(), got.1), (expect.0.to_bits(), expect.1));
                }
            }
            run_len *= f;
        }
    }

    /// count_below agrees with a linear scan for arbitrary inputs, ranges and
    /// thresholds, across fanout/sampling parameters.
    #[test]
    fn count_below_matches_scan(
        vals in prop::collection::vec(0u32..64, 0..200),
        params in params_strategy(),
        queries in prop::collection::vec((0usize..220, 0usize..220, 0u32..70), 1..20),
    ) {
        let tree = MergeSortTree::<u32>::build(&vals, params);
        for (a, b, t) in queries {
            let expect = if a < b.min(vals.len()) {
                vals[a.min(vals.len())..b.min(vals.len())].iter().filter(|&&v| v < t).count()
            } else { 0 };
            let a_c = a.min(vals.len());
            prop_assert_eq!(tree.count_below(a_c, b, t), expect);
        }
    }

    /// select agrees with a position-order scan over qualifying elements.
    #[test]
    fn select_matches_scan(
        vals in prop::collection::vec(0u32..64, 0..150),
        params in params_strategy(),
        queries in prop::collection::vec((0usize..70, 0usize..70, 0usize..160), 1..20),
    ) {
        let tree = MergeSortTree::<u32>::build(&vals, params);
        for (lo, hi, j) in queries {
            let expect = vals
                .iter()
                .enumerate()
                .filter(|(_, &v)| (v as usize) >= lo && (v as usize) < hi)
                .map(|(i, _)| i)
                .nth(j);
            prop_assert_eq!(tree.select_in_range(lo, hi, j), expect);
        }
    }

    /// select over a holey range set agrees with a scan.
    #[test]
    fn select_multi_matches_scan(
        vals in prop::collection::vec(0u32..40, 0..120),
        params in params_strategy(),
        r1 in (0usize..40, 0usize..40),
        r2 in (0usize..40, 0usize..40),
        j in 0usize..130,
    ) {
        let (a1, b1) = (r1.0.min(r1.1), r1.0.max(r1.1));
        let (a2, b2) = (r2.0.min(r2.1), r2.0.max(r2.1));
        // Make disjoint ascending pieces.
        let (a2, b2) = (a2.max(b1), b2.max(b1));
        let rs = RangeSet::from_ranges(&[(a1, b1), (a2, b2)]);
        let tree = MergeSortTree::<u32>::build(&vals, params);
        let expect = vals
            .iter()
            .enumerate()
            .filter(|(_, &v)| {
                let v = v as usize;
                (v >= a1 && v < b1) || (v >= a2 && v < b2)
            })
            .map(|(i, _)| i)
            .nth(j);
        prop_assert_eq!(tree.select(&rs, j), expect);
    }

    /// Distinct-count identity: count_below over shifted prevIdcs equals the
    /// hash-set distinct count on every frame.
    #[test]
    fn distinct_count_identity(
        keys in prop::collection::vec(-10i64..10, 0..150),
        params in params_strategy(),
        frames in prop::collection::vec((0usize..160, 0usize..160), 1..15),
    ) {
        let prev: Vec<u32> =
            prev_idcs_by_key(&keys, false).iter().map(|&p| p as u32).collect();
        let tree = MergeSortTree::<u32>::build(&prev, params);
        for (a, b) in frames {
            let a = a.min(keys.len());
            let b = b.min(keys.len()).max(a);
            let expect: std::collections::HashSet<_> = keys[a..b].iter().collect();
            prop_assert_eq!(tree.count_below(a, b, a as u32 + 1), expect.len());
        }
    }

    /// SUM(DISTINCT) via the annotated tree equals a scan with a seen-set.
    #[test]
    fn annotated_sum_distinct(
        keys in prop::collection::vec(-8i64..8, 0..120),
        params in params_strategy(),
        frames in prop::collection::vec((0usize..130, 0usize..130), 1..10),
    ) {
        let prev: Vec<u32> =
            prev_idcs_by_key(&keys, false).iter().map(|&p| p as u32).collect();
        let tree = AnnotatedMst::<u32, SumI64>::build(&prev, &keys, params);
        for (a, b) in frames {
            let a = a.min(keys.len());
            let b = b.min(keys.len()).max(a);
            let mut seen = std::collections::HashSet::new();
            let expect: i128 = keys[a..b]
                .iter()
                .filter(|v| seen.insert(**v))
                .map(|&v| v as i128)
                .sum();
            let (s, _) = tree.aggregate_below(a, b, a as u32 + 1, None);
            prop_assert_eq!(SumI64::finish(s), expect);
        }
    }

    /// Every tree level is a sorted-runs permutation of the input.
    #[test]
    fn tree_structure_invariants(
        vals in prop::collection::vec(0u32..1000, 0..300),
        params in params_strategy(),
    ) {
        let tree = MergeSortTree::<u32>::build(&vals, params);
        let mut sorted = vals.clone();
        sorted.sort_unstable();
        // count_below over the full range with t = max+1 equals n.
        let n = vals.len();
        prop_assert_eq!(tree.count_below(0, n, 1000), n);
        prop_assert_eq!(tree.count_below(0, n, 0), 0);
        // Select of the j-th element over the full value domain walks
        // positions in order.
        for j in 0..n.min(5) {
            prop_assert_eq!(tree.select_in_range(0, 1000, j), Some(j));
        }
        prop_assert_eq!(tree.stored_elements(), tree.height() * n);
    }

    /// dense_codes: rank identities hold against scans.
    #[test]
    fn dense_codes_rank_identity(
        keys in prop::collection::vec(0i64..12, 1..120),
        frames in prop::collection::vec((0usize..130, 0usize..130), 1..10),
    ) {
        let dc = dense_codes(&keys, false);
        let codes: Vec<u32> = dc.code.iter().map(|&c| c as u32).collect();
        let tree = MergeSortTree::<u32>::build(&codes, MstParams::default());
        for (a, b) in frames {
            let a = a.min(keys.len());
            let b = b.min(keys.len()).max(a);
            for i in a..b {
                // RANK: 1 + number of frame rows strictly smaller.
                let rank = tree.count_below(a, b, dc.group_min[i] as u32) + 1;
                let expect = 1 + keys[a..b].iter().filter(|&&k| k < keys[i]).count();
                prop_assert_eq!(rank, expect);
                // ROW_NUMBER: 1 + rows (key, idx)-lexicographically smaller.
                let rn = tree.count_below(a, b, dc.code[i] as u32) + 1;
                let expect_rn = 1 + keys[a..b]
                    .iter()
                    .enumerate()
                    .filter(|&(jj, &k)| (k, jj + a) < (keys[i], i))
                    .count();
                prop_assert_eq!(rn, expect_rn);
            }
        }
    }
}
