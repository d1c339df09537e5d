//! The counted bitset against its definitions: a sorted vector and the
//! counted B-tree slide the same windows of a permutation of `0..k`, and
//! every count and selection must agree, at universe sizes that fill a word,
//! a counter node and several counter levels exactly and one past them. The
//! vector and the B-tree, which also hold keys that repeat, slide over such
//! keys against a sort of each window.

use holistic_strategies::incremental::{CountedBitset, OrderedMultiset, SortedWindow};
use holistic_strategies::ostree::OrderStatisticTree;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Universe sizes: empty, one code, one word ± 1, one level-1 node (16
/// words) ± 1, and enough for three levels of counts.
const UNIVERSES: [usize; 9] = [0, 1, 63, 64, 65, 1_023, 1_024, 1_025, 70_000];

/// Codes at word and counter-node edges, and the last code, below `k`.
fn edge_codes(k: usize) -> Vec<usize> {
    let mut codes: Vec<usize> =
        [0, 63, 64, 65, 1_023, 1_024, k.wrapping_sub(1)].into_iter().filter(|&c| c < k).collect();
    codes.sort_unstable();
    codes.dedup();
    codes
}

/// The thresholds every check asks about: the edges, `0`, `k` and `k + 1`.
fn thresholds(k: usize) -> Vec<usize> {
    let mut ts = edge_codes(k);
    ts.extend(edge_codes(k).iter().map(|&c| c + 1));
    ts.extend([0, k, k + 1]);
    ts
}

/// `set` holds exactly the sorted codes `held`.
fn assert_holds(set: &CountedBitset, held: &[usize], k: usize) {
    assert_eq!(set.len(), held.len());
    for t in thresholds(k).into_iter().chain(held.iter().copied()) {
        assert_eq!(set.count_below(t), held.partition_point(|&c| c < t), "k {k} t {t}");
    }
    for j in 0..held.len() + 2 {
        assert_eq!(set.select(j), held.get(j).copied(), "k {k} j {j}");
    }
}

#[test]
fn edges_at_every_universe() {
    for k in UNIVERSES {
        let mut set = CountedBitset::new(k);
        assert_holds(&set, &[], k);
        let edges = edge_codes(k);
        for &c in &edges {
            set.insert(c);
        }
        assert_holds(&set, &edges, k);
        for &c in edges.iter().step_by(2) {
            set.remove(c);
        }
        let odd: Vec<usize> = edges.iter().copied().skip(1).step_by(2).collect();
        assert_holds(&set, &odd, k);
        set.clear(&odd);
        assert_holds(&set, &[], k);

        // Full: every code's rank is itself, and the set is reusable after
        // a clear.
        let all: Vec<usize> = (0..k).collect();
        for &c in all.iter().rev() {
            set.insert(c);
        }
        assert_holds(&set, &all, k);
        set.clear(&all);
        assert_holds(&set, &[], k);
        for &c in &edges {
            set.insert(c);
        }
        assert_holds(&set, &edges, k);
    }
}

/// A random permutation of `0..k` (Fisher–Yates), as a partition's dense
/// codes are.
fn permutation(k: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut codes: Vec<usize> = (0..k).collect();
    for i in (1..k).rev() {
        codes.swap(i, rng.gen_range(0..=i));
    }
    codes
}

/// How the hulls of one case move.
#[derive(Debug, Clone, Copy)]
enum Moves {
    /// Both ends creep forward.
    Monotone,
    /// Drawn afresh each step: they jump either way, shrink and vanish.
    Random,
    /// Each hull starts where the last one ended or beyond: every step is
    /// a disjoint jump, some of them to an empty window.
    Disjoint,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn slides_agree_with_vector_and_counted_btree(
        universe in 0usize..UNIVERSES.len(),
        seed in any::<u64>(),
        moves in 0usize..3,
        steps in prop::collection::vec((0usize..1 << 20, 0usize..1 << 20), 1..40),
    ) {
        let k = UNIVERSES[universe];
        let moves = [Moves::Monotone, Moves::Random, Moves::Disjoint][moves];
        let codes = permutation(k, seed);
        // Frames stay under 300 codes wide so the vector's shifts stay cheap
        // at k = 70 000; the bitset's cost has no width term either way.
        let width = |y: usize| y % 300;
        let mut bits = SortedWindow::<_, CountedBitset>::new(&codes);
        let mut vector: SortedWindow<_> = SortedWindow::new(&codes);
        let mut btree = SortedWindow::<_, OrderStatisticTree<_>>::new(&codes);
        let (mut a, mut b) = (0, 0);
        for &(x, y) in &steps {
            (a, b) = match moves {
                Moves::Monotone => {
                    let b = (b + y % 40).min(k);
                    ((a + x % 40).min(b), b)
                }
                Moves::Random => {
                    let a = x % (k + 1);
                    (a, (a + width(y)).min(k))
                }
                Moves::Disjoint => {
                    let a = (b + x % 50).min(k);
                    (a, (a + width(y) % 30).min(k))
                }
            };
            bits.slide_to(a, b);
            vector.slide_to(a, b);
            btree.slide_to(a, b);
            let inside = codes[a..b].iter().copied();
            for t in thresholds(k).into_iter().chain(inside).chain([x % (k + 2)]) {
                let want = vector.count_below(t);
                prop_assert_eq!(bits.count_below(t), want, "[{}, {}) t {}", a, b, t);
                prop_assert_eq!(btree.count_below(t), want, "[{}, {}) t {}", a, b, t);
            }
            let len = b - a;
            for j in [0, 1, len / 2, len.saturating_sub(1), len, len + 1, x % (len + 2)] {
                let want = vector.select(j);
                prop_assert_eq!(bits.select(j), want, "[{}, {}) j {}", a, b, j);
                prop_assert_eq!(btree.select(j), want, "[{}, {}) j {}", a, b, j);
            }
        }
    }
}

proptest! {
    #[test]
    fn windows_over_repeated_keys_match_a_sort(
        keys in prop::collection::vec(0usize..9, 0..60),
        steps in prop::collection::vec((0usize..64, 0usize..64), 1..24),
        monotone in any::<bool>(),
    ) {
        // Monotone hulls creep forward by up to 7 at either end; the others
        // are drawn afresh and visited as drawn, so a start moves back, and
        // hulls jump, shrink and vanish.
        let n = keys.len();
        let (mut a, mut b) = (0, 0);
        let mut vector: SortedWindow<_> = SortedWindow::new(&keys[..]);
        let mut btree = SortedWindow::<_, OrderStatisticTree<_>>::new(&keys[..]);
        for &(x, y) in &steps {
            (a, b) = if monotone {
                let b = (b + y % 8).min(n);
                ((a + x % 8).min(b), b)
            } else {
                let (x, y) = (x % (n + 1), y % (n + 1));
                (x.min(y), x.max(y))
            };
            vector.slide_to(a, b);
            btree.slide_to(a, b);
            let mut sorted = keys[a..b].to_vec();
            sorted.sort_unstable();
            for t in [0, 1, 4, 8, 9, 10] {
                let want = sorted.partition_point(|&k| k < t);
                prop_assert_eq!(vector.count_below(t), want, "[{}, {}) t {}", a, b, t);
                prop_assert_eq!(btree.count_below(t), want, "[{}, {}) t {}", a, b, t);
            }
            for j in 0..=b - a + 1 {
                let want = sorted.get(j).copied();
                prop_assert_eq!(vector.select(j), want, "[{}, {}) j {}", a, b, j);
                prop_assert_eq!(btree.select(j), want, "[{}, {}) j {}", a, b, j);
            }
        }
    }
}
