//! Property-based test: the seeded annotated-tree probe is bit-identical to
//! the unseeded one over arbitrary frame sequences — monotonic and jumping,
//! u32 and u64 trees, from any starting seed.

use holistic_core::aggregate::{AvgF64, CountAgg, DistinctAggregate, SumI64};
use holistic_core::{prev_idcs_by_key, AnnotatedMst, MstParams, ProbeSeed, TreeIndex};
use proptest::prelude::*;

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

/// A probe sequence: raw (possibly jumping) `(a, b, t)` frame triples. The
/// `monotonic` flag turns the same triples into a sorted sweep, so both probe
/// orders run against identical trees.
#[derive(Debug, Clone)]
struct FrameSeq {
    frames: Vec<(usize, usize, usize)>,
}

fn frame_seq(n_hint: usize, monotonic: bool) -> impl Strategy<Value = FrameSeq> {
    prop::collection::vec((0usize..n_hint, 0usize..n_hint, 0usize..n_hint), 1..40).prop_map(
        move |mut v| {
            for f in v.iter_mut() {
                if f.0 > f.1 {
                    std::mem::swap(&mut f.0, &mut f.1);
                }
            }
            if monotonic {
                v.sort_unstable();
            }
            FrameSeq { frames: v }
        },
    )
}

/// Walks `seq` over a tree of aggregate `A`, carrying `seed` from probe to
/// probe (and out, to the next tree); every seeded probe must return the
/// unseeded state (compared through `bits`, so float states are compared
/// exactly) and the unseeded `counted`.
fn check_aggregate<I, A, B>(
    prev: &[usize],
    payloads: &[A::Payload],
    params: MstParams,
    seq: &FrameSeq,
    seed: &mut ProbeSeed,
    bits: impl Fn(A::State) -> B,
) where
    I: TreeIndex,
    A: DistinctAggregate,
    B: PartialEq + std::fmt::Debug,
{
    let prev: Vec<I> = prev.iter().map(|&p| I::from_usize(p)).collect();
    let tree = AnnotatedMst::<I, A>::build(&prev, payloads, params);
    for &(a, b, t) in &seq.frames {
        let t = I::from_usize(t);
        let (s0, c0) = tree.aggregate_below(a, b, t, None);
        let (s1, c1) = tree.aggregate_below(a, b, t, Some(&mut *seed));
        prop_assert_eq!(bits(s0), bits(s1));
        prop_assert_eq!(c0, c1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `aggregate_below(.., Some(seed))` ≡ `aggregate_below(.., None)` —
    /// state bit-equal (floating-point `AvgF64` included: the seed must not
    /// change the combine order) and `counted` equal; with `CountAgg` the
    /// state *is* `count_below`. Thresholds are arbitrary, not only the
    /// `a + 1` of distinct probes. One seed runs through the whole case: it
    /// starts at 0, past `n`, at `usize::MAX`, or where a sweep over another
    /// tree left it, and every tree after the first inherits a stale one.
    #[test]
    fn seeded_aggregate_bit_identical(
        keys in prop::collection::vec(-8i64..8, 0..220),
        other_keys in prop::collection::vec(-3i64..3, 0..300),
        params in params_strategy(),
        seq in frame_seq(230, false),
        monotonic_seq in frame_seq(230, true),
        start in (0u8..4, 0usize..1000),
    ) {
        let other_prev = prev_idcs_by_key(&other_keys, false);
        let mut seed = ProbeSeed::default();
        check_aggregate::<u32, CountAgg, _>(
            &other_prev, &other_keys, params, &monotonic_seq, &mut seed, CountAgg::finish,
        );
        match start {
            (0, _) => seed = ProbeSeed::default(),
            (1, past) => seed.top = keys.len() + past,
            (2, _) => seed.top = usize::MAX,
            _ => {}
        }
        let prev = prev_idcs_by_key(&keys, false);
        let floats: Vec<f64> = keys.iter().map(|&k| k as f64 / 3.0).collect();
        let avg_bits = |s| AvgF64::finish(s).map(f64::to_bits);
        let seed = &mut seed;
        for seq in [&seq, &monotonic_seq] {
            check_aggregate::<u32, CountAgg, _>(&prev, &keys, params, seq, seed, CountAgg::finish);
            check_aggregate::<u64, CountAgg, _>(&prev, &keys, params, seq, seed, CountAgg::finish);
            check_aggregate::<u32, SumI64, _>(&prev, &keys, params, seq, seed, SumI64::finish);
            check_aggregate::<u64, SumI64, _>(&prev, &keys, params, seq, seed, SumI64::finish);
            check_aggregate::<u32, AvgF64, _>(&prev, &floats, params, seq, seed, avg_bits);
            check_aggregate::<u64, AvgF64, _>(&prev, &floats, params, seq, seed, avg_bits);
        }
    }
}
