//! Property tests for the level-synchronous block probe kernels:
//! `count_below_block` / `select_block` must be bit-identical to the scalar
//! `count_below_multi` / `select` over arbitrary data, arbitrary tree
//! parameters (fanout, sampling), u32 and u64 indices, single- and
//! multi-piece range sets, and arbitrary block sizes (the drivers chop query
//! streams at arbitrary boundaries).

use holistic_core::{BlockScratch, MergeSortTree, MstParams, RangeSet, TreeIndex};
use proptest::prelude::*;

fn params_strategy() -> impl Strategy<Value = MstParams> {
    (2usize..=33, 1usize..=33).prop_map(|(f, k)| MstParams::new(f, k).serial())
}

/// Raw generator material for one select query: a hull, a hole, and `j`.
type RawSelect = ((usize, usize, usize, usize), usize);

/// Multi-piece range sets the evaluators actually produce: a hull minus at
/// most two holes.
fn pieces_of(n: usize, raw: (usize, usize, usize, usize)) -> RangeSet {
    if n == 0 {
        return RangeSet::empty();
    }
    let (a, b, h1, h2) = (raw.0 % (n + 1), raw.1 % (n + 1), raw.2 % (n + 1), raw.3 % (n + 1));
    let (a, b) = (a.min(b), a.max(b));
    let (h1, h2) = (h1.min(h2), h1.max(h2));
    RangeSet::frame_minus_holes(a, b, &[(h1, h2)])
}

fn check_counts<I: TreeIndex>(
    vals: &[usize],
    params: MstParams,
    queries: &[(usize, usize, usize)],
    chunk: usize,
) {
    let v: Vec<I> = vals.iter().map(|&x| I::from_usize(x)).collect();
    let tree = MergeSortTree::<I>::build(&v, params);
    let qs: Vec<(usize, usize, I)> = queries
        .iter()
        .map(|&(a, b, t)| {
            let (a, b) = (a.min(b), a.max(b));
            (a, b, I::from_usize(t))
        })
        .collect();
    let mut scratch = BlockScratch::<I>::new();
    let mut out = vec![0usize; qs.len()];
    for (qc, oc) in qs.chunks(chunk.max(1)).zip(out.chunks_mut(chunk.max(1))) {
        tree.count_below_block(qc, oc, &mut scratch);
    }
    for (i, &(a, b, t)) in qs.iter().enumerate() {
        prop_assert_eq!(
            out[i],
            tree.count_below(a, b, t),
            "count query {} of {:?} (params {:?})",
            i,
            qs,
            params
        );
    }
    prop_assert_eq!(scratch.stats.block_queries, qs.len() as u64);
}

fn check_selects<I: TreeIndex>(
    vals: &[usize],
    params: MstParams,
    queries: &[RawSelect],
    chunk: usize,
) {
    let v: Vec<I> = vals.iter().map(|&x| I::from_usize(x)).collect();
    let tree = MergeSortTree::<I>::build(&v, params);
    let qs: Vec<(RangeSet, usize)> =
        queries.iter().map(|&(raw, j)| (pieces_of(vals.len(), raw), j)).collect();
    let mut scratch = BlockScratch::<I>::new();
    let mut out = vec![None; qs.len()];
    for (qc, oc) in qs.chunks(chunk.max(1)).zip(out.chunks_mut(chunk.max(1))) {
        tree.select_block(qc, oc, &mut scratch);
    }
    for (i, (rs, j)) in qs.iter().enumerate() {
        prop_assert_eq!(
            out[i],
            tree.select(rs, *j),
            "select query {} (ranges {:?}, j {})",
            i,
            rs,
            j
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn block_counts_match_scalar_u32(
        vals in prop::collection::vec(0usize..300, 0..260),
        params in params_strategy(),
        queries in prop::collection::vec((0usize..301, 0usize..301, 0usize..301), 1..80),
        chunk in 1usize..70,
    ) {
        check_counts::<u32>(&vals, params, &queries, chunk);
    }

    #[test]
    fn block_counts_match_scalar_u64(
        vals in prop::collection::vec(0usize..300, 0..200),
        params in params_strategy(),
        queries in prop::collection::vec((0usize..301, 0usize..301, 0usize..301), 1..60),
        chunk in 1usize..70,
    ) {
        check_counts::<u64>(&vals, params, &queries, chunk);
    }

    #[test]
    fn block_selects_match_scalar_u32(
        vals in prop::collection::vec(0usize..260, 0..260),
        params in params_strategy(),
        queries in prop::collection::vec(
            ((0usize..400, 0usize..400, 0usize..400, 0usize..400), 0usize..300), 1..60),
        chunk in 1usize..50,
    ) {
        check_selects::<u32>(&vals, params, &queries, chunk);
    }

    #[test]
    fn block_selects_match_scalar_u64(
        vals in prop::collection::vec(0usize..260, 0..180),
        params in params_strategy(),
        queries in prop::collection::vec(
            ((0usize..400, 0usize..400, 0usize..400, 0usize..400), 0usize..300), 1..50),
        chunk in 1usize..50,
    ) {
        check_selects::<u64>(&vals, params, &queries, chunk);
    }
}
