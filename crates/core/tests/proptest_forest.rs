//! Property test: every forest select equals brute force, however it is
//! seeded — without a hint, with any hint, and through one `ForestCursor`
//! reused across a whole probe sequence and across the appends between.
//!
//! The inputs are chosen to reach the cursor's two gallops at their edges:
//! appends of empty, single-row and larger batches (so runs collapse and a
//! cursor's per-run positions go stale), dense tied values, sparse values up
//! to `u64::MAX − 1` and float ordinals (brackets billions wide), frames of
//! one to three pieces that grow, slide and jump, ranks past the frame, and
//! hints at, next to, far from and outside the answer.

use holistic_core::{ForestCursor, MstForest, MstParams, RangeSet};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The value domains of the append engine's forests.
#[derive(Debug, Clone, Copy)]
enum Domain {
    /// Small integers with heavy ties.
    Dense,
    /// Anything below the reserved `u64::MAX`, edges included.
    Sparse,
    /// `k · 0.01` as the engine encodes floats: neighbours are ≈ 2^39 apart.
    Cents,
}

/// The order-preserving `f64 → u64` encoding of the window crate's keys.
fn float_ordinal(f: f64) -> u64 {
    let b = f.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

fn draw(rng: &mut StdRng, domain: Domain) -> u64 {
    match domain {
        Domain::Dense => rng.gen_range(0..6),
        Domain::Sparse => match rng.gen_range(0..6) {
            0 => u64::MAX - 1,
            1 => u64::MAX - 2,
            2 => rng.gen_range(0..4),
            _ => rng.gen_range(0..u64::MAX),
        },
        Domain::Cents => float_ordinal(rng.gen_range(-400i64..400) as f64 * 0.01),
    }
}

fn brute_select(vals: &[u64], ranges: &RangeSet, j: usize) -> Option<u64> {
    let mut xs: Vec<u64> = ranges
        .iter()
        .flat_map(|(a, b)| a.min(vals.len())..b.min(vals.len()))
        .map(|p| vals[p])
        .collect();
    xs.sort_unstable();
    xs.get(j).copied()
}

/// The next frame `[a, b)` of a probe sequence: grow, slide or jump.
fn next_frame(rng: &mut StdRng, (a, b): (usize, usize), n: usize) -> (usize, usize) {
    let (a, b) = match rng.gen_range(0..4) {
        0 => (a, b + 1),
        1 | 2 => (a + 1, b + 1),
        _ => {
            let a = rng.gen_range(0..=n);
            (a, rng.gen_range(a..=n + 2))
        }
    };
    (a.min(n), b.min(n + 2).max(a.min(n)))
}

/// `[a, b)` cut into one to three pieces by up to two holes.
fn pieces(rng: &mut StdRng, (a, b): (usize, usize)) -> RangeSet {
    let mut cuts: Vec<usize> =
        (0..2 * rng.gen_range(0..=2)).map(|_| rng.gen_range(a..=b)).collect();
    cuts.sort_unstable();
    let mut bounds = vec![a];
    bounds.extend(cuts);
    bounds.push(b);
    let mut rs = RangeSet::empty();
    for piece in bounds.chunks(2) {
        rs.push(piece[0], piece[1]);
    }
    rs
}

/// A hint for `select_from`: none, the answer, next to it, far away,
/// outside the forest's `[min, max]`, or at the top of the domain.
fn hint(rng: &mut StdRng, answer: Option<u64>, min: u64, max: u64) -> Option<u64> {
    let near = answer.unwrap_or(min);
    match rng.gen_range(0..8) {
        0 => None,
        1 => Some(near),
        2 => Some(near.saturating_sub(1)),
        3 => Some(near.saturating_add(1)),
        4 => Some(rng.gen_range(0..u64::MAX)),
        5 => Some(min.saturating_sub(1 + rng.gen_range(0..3u64))),
        6 => Some(max.saturating_add(1 + rng.gen_range(0..3u64))),
        _ => Some(u64::MAX - 1),
    }
}

/// Points `cur`'s hint at `h` (and scrambles its first run position) the
/// way any caller can: by one select against another forest.
fn aim(cur: &mut ForestCursor, h: u64, params: MstParams) {
    let mut other = MstForest::new(params);
    other.append(&[h.min(u64::MAX - 1)]);
    assert_eq!(other.select_with(&RangeSet::single(0, 1), 0, cur), Some(h.min(u64::MAX - 1)));
}

fn check_case(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let domain = [Domain::Dense, Domain::Sparse, Domain::Cents][rng.gen_range(0..3usize)];
    let (f, k) = [(2, 1), (4, 2), (3, 3), (32, 32)][rng.gen_range(0..4usize)];
    let params = MstParams::new(f, k).serial();
    let mut forest = MstForest::new(params);
    let mut vals: Vec<u64> = Vec::new();
    let mut cur = ForestCursor::default();
    let mut frame = (0, 0);
    for _ in 0..rng.gen_range(1..8) {
        let len = match rng.gen_range(0..4) {
            0 => 0,
            1 => 1,
            _ => rng.gen_range(2..48),
        };
        let batch: Vec<u64> = (0..len).map(|_| draw(&mut rng, domain)).collect();
        forest.append(&batch);
        vals.extend_from_slice(&batch);
        let n = vals.len();
        let (min, max) =
            (vals.iter().copied().min().unwrap_or(0), vals.iter().copied().max().unwrap_or(0));
        for _ in 0..rng.gen_range(1..6) {
            frame = next_frame(&mut rng, frame, n);
            let ranges = pieces(&mut rng, frame);
            let positions = forest.positions(&ranges);
            // Every rank on small frames, a sample plus the ends on larger.
            let js: Vec<usize> = if positions <= 12 {
                (0..=positions + 2).collect()
            } else {
                let mut js: Vec<usize> = (0..10).map(|_| rng.gen_range(0..positions)).collect();
                js.extend([0, positions / 2, positions - 1, positions, positions + 2]);
                js
            };
            for j in js {
                let want = brute_select(&vals, &ranges, j);
                let ctx = || format!("seed={seed:#x} n={n} ranges={ranges:?} j={j}");
                assert_eq!(forest.select(&ranges, j), want, "hint-less, {}", ctx());
                let h = hint(&mut rng, want, min, max);
                assert_eq!(forest.select_from(&ranges, j, h), want, "hint {h:?}, {}", ctx());
                if rng.gen_bool(0.1) {
                    aim(&mut cur, hint(&mut rng, want, min, max).unwrap_or(0), params);
                }
                assert_eq!(forest.select_with(&ranges, j, &mut cur), want, "cursor, {}", ctx());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn forest_select_matches_brute_force_for_any_seed(seed in any::<u64>()) {
        check_case(seed);
    }
}
