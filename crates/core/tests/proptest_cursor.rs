//! Property-based tests: the cursor-seeded annotated-tree probe is
//! bit-identical to the stateless recursion over arbitrary frame sequences —
//! monotonic and non-monotonic, u32 and u64 trees.

use holistic_core::aggregate::{AvgF64, CountAgg, DistinctAggregate, SumI64};
use holistic_core::{prev_idcs_by_key, AnnotatedMst, MstParams, ProbeCursor, TreeIndex};
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

/// One cursor walks `seq` over a tree of aggregate `A`; every probe must
/// return the stateless state (compared through `bits`, so float states are
/// compared exactly) and the stateless `counted`.
fn check_aggregate<I, A, B>(
    prev: &[usize],
    payloads: &[A::Payload],
    params: MstParams,
    seq: &FrameSeq,
    bits: impl Fn(A::State) -> B,
) where
    I: TreeIndex,
    A: DistinctAggregate,
    B: PartialEq + std::fmt::Debug,
{
    let prev: Vec<I> = prev.iter().map(|&p| I::from_usize(p)).collect();
    let tree = AnnotatedMst::<I, A>::build(&prev, payloads, params);
    let mut cur = ProbeCursor::new();
    for &(a, b, t) in &seq.frames {
        let t = I::from_usize(t);
        let (s0, c0) = tree.aggregate_below(a, b, t);
        let (s1, c1) = tree.aggregate_below_with_cursor(a, b, t, &mut cur);
        prop_assert_eq!(bits(s0), bits(s1));
        prop_assert_eq!(c0, c1);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `aggregate_below_with_cursor` ≡ `aggregate_below` — state bit-equal
    /// (floating-point `AvgF64` included: combine-order preservation) and
    /// `counted` equal; with `CountAgg` the state *is* `count_below`.
    /// Thresholds are arbitrary, not only the `a + 1` of distinct probes.
    #[test]
    fn cursor_aggregate_bit_identical(
        keys in prop::collection::vec(-8i64..8, 0..220),
        params in params_strategy(),
        seq in frame_seq(230, false),
        monotonic_seq in frame_seq(230, true),
    ) {
        let prev = prev_idcs_by_key(&keys, false);
        let floats: Vec<f64> = keys.iter().map(|&k| k as f64 / 3.0).collect();
        let avg_bits = |s| AvgF64::finish(s).map(f64::to_bits);
        for seq in [&seq, &monotonic_seq] {
            check_aggregate::<u32, CountAgg, _>(&prev, &keys, params, seq, CountAgg::finish);
            check_aggregate::<u64, CountAgg, _>(&prev, &keys, params, seq, CountAgg::finish);
            check_aggregate::<u32, SumI64, _>(&prev, &keys, params, seq, SumI64::finish);
            check_aggregate::<u64, SumI64, _>(&prev, &keys, params, seq, SumI64::finish);
            check_aggregate::<u32, AvgF64, _>(&prev, &floats, params, seq, avg_bits);
            check_aggregate::<u64, AvgF64, _>(&prev, &floats, params, seq, avg_bits);
        }
    }
}
