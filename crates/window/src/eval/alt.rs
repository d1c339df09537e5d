//! Alternate hull-frame evaluators behind the strategy layer — the
//! baselines of Table 1 promoted to production paths.
//!
//! The cost model routes a (partition × call) here when sliding or
//! tree-free selection beats the merge sort tree: narrow monotonic frames
//! favor the incremental sorted array or the order-statistic tree, static
//! mid-size partitions the sorted-list segment tree. All three are handed
//! the *same cached artifacts* (mask, kept values, dense codes) by the
//! family evaluator that acquired them for every strategy, so a mixed
//! partition — one call on the MST, another on an alternate — still shares
//! its preprocessing sort.
//!
//! Applicability is the strategy layer's contract: percentiles (DISC /
//! CONT / MEDIAN) on all three engines, COUNT(DISTINCT) on the incremental
//! multiset — and only for frames without exclusion, so every frame is a
//! contiguous hull in kept space. Selection operates on unique dense codes
//! (exact integers); outputs are gathered from the same kept values the MST
//! path reads, so results are bit-identical by construction.

use super::select_based::Selection;
use super::{cont_rank, disc_rank, Ctx};
use crate::artifacts::{DistinctPrepArt, MaskArtifact};
use crate::column::Column;
use crate::error::Result;
use crate::spec::FuncKind;
use crate::strategy::Strategy;
use holistic_core::codes::DenseCodes;
use holistic_segtree::SortedListSegTree;
use holistic_strategies::incremental;
use holistic_strategies::ostree::OrderStatisticTree;
use std::borrow::Cow;

/// Kept-space hull frames, one per row (no exclusion ⇒ one piece per frame).
/// Under a mask that drops nothing these are the resolved bounds themselves,
/// borrowed: `start <= end <= m` is [`crate::frame::ResolvedFrames`]'s
/// invariant, so the remap's clamp has nothing left to do.
fn kept_frames<'a>(ctx: &Ctx<'a>, mask: &MaskArtifact) -> Cow<'a, [(usize, usize)]> {
    if mask.remap.is_identity() {
        return Cow::Borrowed(&ctx.frames.bounds);
    }
    Cow::Owned(ctx.frames.bounds.iter().map(|&(a, b)| mask.remap.range(a, b)).collect())
}

/// COUNT(DISTINCT x) on the incremental hash multiset (Table 1 row 1):
/// O(1) amortized per slide step on monotonic frames.
pub(super) fn count_distinct_incremental(
    ctx: &Ctx<'_>,
    mask: &MaskArtifact,
    prep: &DistinctPrepArt,
) -> Vec<i64> {
    let frames = kept_frames(ctx, mask);
    let counts = incremental::distinct_count(&prep.hashes, &frames);
    counts.into_iter().map(|c| c as i64).collect()
}

/// Percentiles by sliding / selecting over unique dense codes.
pub(super) fn percentile(
    sel: &Selection<'_>,
    dc: &DenseCodes,
    strategy: Strategy,
) -> Result<Column> {
    let Selection { ctx, kept_out, .. } = *sel;
    let m = ctx.m();
    let frames = kept_frames(ctx, sel.mask);
    let cont = sel.call.kind == FuncKind::PercentileCont;
    let p = sel.fraction()?;

    // Per row: CONT's interpolated float, DISC's kept position (gathered
    // below); `None` over an empty frame.
    let mut floats: Vec<Option<f64>> = vec![None; if cont { m } else { 0 }];
    let mut picks: Vec<Option<usize>> = vec![None; if cont { 0 } else { m }];
    {
        // Fills row `i` given the frame size and a 0-based rank → code
        // accessor. DISC picks one code; CONT interpolates between two.
        let mut emit = |i: usize, s: usize, select: &mut dyn FnMut(usize) -> usize| {
            if s == 0 {
                return;
            }
            if cont {
                let mut at =
                    |j: usize| kept_out.f64_at(dc.perm[select(j)]).expect("checked numeric above");
                let cr = cont_rank(p, s);
                let x = at(cr.lo);
                floats[i] = Some(cr.interpolate(x, || at(cr.hi)));
            } else {
                picks[i] = Some(dc.perm[select(disc_rank(p, s))]);
            }
        };

        match strategy {
            Strategy::Incremental => {
                // Sorted array of codes under add/remove (the O(n²) row of
                // Table 1 — chosen only when frames are narrow).
                let mut sorted: Vec<usize> = Vec::new();
                incremental::slide(
                    &frames,
                    &mut sorted,
                    |s, k| {
                        let c = dc.code[k];
                        let idx = s.partition_point(|&v| v < c);
                        s.insert(idx, c);
                    },
                    |s, k| {
                        let c = dc.code[k];
                        let idx = s.partition_point(|&v| v < c);
                        s.remove(idx);
                    },
                    |s, i| emit(i, s.len(), &mut |j| s[j]),
                );
            }
            Strategy::OsTree => {
                let mut tree = OrderStatisticTree::new();
                incremental::slide(
                    &frames,
                    &mut tree,
                    |t, k| t.insert(dc.code[k] as i64),
                    |t, k| t.remove(dc.code[k] as i64),
                    |t, i| emit(i, t.len(), &mut |j| t.select(j).expect("j < len") as usize),
                );
            }
            Strategy::SegTree => {
                let codes: Vec<i64> = dc.code.iter().map(|&c| c as i64).collect();
                let tree = SortedListSegTree::build(&codes, ctx.parallel);
                for (i, &(ka, kb)) in frames.iter().enumerate() {
                    emit(i, kb - ka, &mut |j| {
                        tree.select(ka, kb, j).expect("j < frame size") as usize
                    });
                }
            }
            Strategy::Naive | Strategy::Mst => {
                unreachable!("naive/MST percentiles have dedicated evaluators")
            }
        }
    }
    Ok(if cont { Column::from_floats(floats) } else { kept_out.gather(picks.into_iter()) })
}
