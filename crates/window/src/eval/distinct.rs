//! Framed DISTINCT aggregates via merge sort trees (§4.2, §4.3).
//!
//! Pipeline per partition:
//!
//! 1. the kept-row mask (FILTER ∧ non-NULL argument) and kept values come
//!    from the artifact cache, remapping frame bounds (§4.7);
//! 2. hash the kept values (§6.7 — type-independent preprocessing; the
//!    cached `DistinctPrep` artifact) and compute shifted previous-occurrence
//!    indices over the hashes (Algorithm 1; the cached `PrevIdcs` artifact);
//! 3. build the (annotated) merge sort tree — cached per (argument, mask)
//!    and, for SUM/AVG, per aggregate flavor; a naive COUNT scans the
//!    indices instead, the incremental one slides a hash multiset through
//!    the frames in frame order;
//! 4. per row: `count_below(frame, frame_start + 1)` — or the annotated
//!    prefix-aggregate query for SUM/AVG DISTINCT.
//!
//! `MIN(DISTINCT)`/`MAX(DISTINCT)` are semantically identical to their plain
//! forms and never come here.
//!
//! **Frame exclusion** (§4.7) makes frames non-contiguous, which interacts
//! with distinctness: a value whose only frame occurrences sit inside the
//! excluded hole must not be counted, while a value occurring both inside and
//! outside the hole still counts once. The paper does not spell this case
//! out; we evaluate the contiguous hull `[a, b)` with the tree and then
//! *correct* for hole-only values by probing per-value occurrence lists —
//! exact, and O(hole · log n) per row (the hole is the current row's peer
//! group, so this is the peer-group-size-bounded part of the query).

use super::primitive::{CountBelow, Scan};
use super::{Ctx, Planned};
use crate::artifacts::{narrow, AggFlavor, ArtifactKey, DistinctPrepArt, MaskArtifact};
use crate::column::{Column, Outputs};
use crate::error::{Error, Result};
use crate::executor::tree_params;
use crate::plan::CallPlan;
use crate::spec::{FuncKind, FunctionCall};
use crate::strategy::Strategy;
use crate::value::DataType;
use holistic_core::aggregate::{AvgF64, SumF64, SumI64};
use holistic_core::{AnnotatedMst, DistinctAggregate, ProbeSeed, RangeSet};
use holistic_strategies::incremental;
use rustc_hash::FxHashSet;
use std::borrow::Cow;
use std::sync::Arc;

/// Entry point for DISTINCT aggregates.
pub(crate) fn evaluate(
    ctx: &Ctx<'_>,
    call: &FunctionCall,
    cp: &CallPlan,
    strategy: Strategy,
) -> Result<Outputs> {
    if call.kind == FuncKind::CountStar {
        return Err(Error::InvalidArgument("COUNT(DISTINCT *) is not valid SQL".into()));
    }
    let mask = ctx.mask_art(cp)?;
    let prep = ctx.distinct_prep_art(cp)?;
    if call.kind != FuncKind::Count {
        // SUM / AVG: the annotated tree only (`strategy::applicable`).
        return sum_or_avg(ctx, call, cp, &mask, &prep);
    }
    let counts = match strategy {
        Strategy::Incremental => count_incremental(ctx, &mask, &prep),
        Strategy::Naive => {
            let prev = holistic_core::prev_idcs_u64(&prep.hashes, ctx.parallel);
            count(ctx, &mask, &prep, &Scan(&prev))?
        }
        _ => count(ctx, &mask, &prep, &*ctx.distinct_count_mst(cp)?)?,
    };
    Ok(Column::ints(counts).into())
}

/// The exclusion hole(s) of row `i`, remapped to kept space and clipped to
/// the frame hull. Fixed-size return: this runs per output row.
fn kept_holes(ctx: &Ctx<'_>, mask: &MaskArtifact, i: usize) -> ([(usize, usize); 2], usize) {
    let (a, b) = ctx.frames.bounds[i];
    let mut out = [(0usize, 0usize); 2];
    let mut nh = 0usize;
    for (h1, h2) in ctx.frames.holes(i).iter() {
        let (h1, h2) = (h1.max(a).min(b), h2.max(a).min(b));
        let (h1, h2) = mask.remap.range(h1, h2.max(h1));
        if h1 < h2 {
            out[nh] = (h1, h2);
            nh += 1;
        }
    }
    (out, nh)
}

/// Values that occur inside the row's holes but nowhere else in its frame.
/// `visit` receives one kept position per such value.
fn hole_only_values(
    prep: &DistinctPrepArt,
    pieces: &RangeSet,
    holes: &[(usize, usize)],
    mut visit: impl FnMut(usize),
) {
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    for &(h1, h2) in holes {
        for p in h1..h2 {
            let h = prep.hashes[p];
            if !seen.insert(h) {
                continue;
            }
            let occ = &prep.occurrences[&h];
            let in_pieces = pieces.iter().any(|(lo, hi)| {
                let idx = occ.partition_point(|&q| q < lo);
                idx < occ.len() && occ[idx] < hi
            });
            if !in_pieces {
                visit(p);
            }
        }
    }
}

/// COUNT(DISTINCT): the entries of the frame hull's previous-occurrence
/// indices that point before the hull (§4.2).
fn count(
    ctx: &Ctx<'_>,
    mask: &MaskArtifact,
    prep: &DistinctPrepArt,
    prev_idcs: &impl CountBelow,
) -> Result<Vec<i64>> {
    ctx.probe_counts(
        prev_idcs,
        |i, push| {
            let (a, b) = ctx.frames.bounds[i];
            let (ka, kb) = mask.remap.range(a, b);
            push(&RangeSet::single(ka, kb), ka + 1);
            Ok(Planned::Counted(()))
        },
        |i, (), base| {
            if !ctx.frames.has_exclusion() {
                return Ok(base as i64);
            }
            // Hole-only corrections never touch the index.
            let pieces = mask.remap.range_set(&ctx.frames.range_set(i));
            let (holes, nh) = kept_holes(ctx, mask, i);
            let mut correction = 0usize;
            hole_only_values(prep, &pieces, &holes[..nh], |_| correction += 1);
            Ok((base - correction) as i64)
        },
    )
}

/// COUNT(DISTINCT) on the incremental hash multiset (Table 1 row 1), slid in
/// frame order through the partition's kept-space hulls (no exclusion
/// here): under a mask that drops nothing, the resolved bounds themselves,
/// borrowed — `start <= end <= m` ([`crate::frame::ResolvedFrames`]) leaves
/// the remap's clamp nothing to do.
fn count_incremental(ctx: &Ctx<'_>, mask: &MaskArtifact, prep: &DistinctPrepArt) -> Vec<i64> {
    let hulls = if mask.remap.is_identity() {
        Cow::Borrowed(&ctx.frames.bounds)
    } else {
        Cow::Owned(ctx.frames.bounds.iter().map(|&(a, b)| mask.remap.range(a, b)).collect())
    };
    let mut out = vec![0; hulls.len()];
    let order = ctx.frame_order(0, hulls.len());
    incremental::distinct_counts(&prep.hashes, &hulls, order, |i, c| out[i] = c as i64);
    out
}

/// An integer `SUM(DISTINCT)`'s output: exact, or past `i64` degraded to a
/// float rather than an error mid-probe.
#[derive(Debug, Clone, Copy, Default)]
enum IntSum {
    #[default]
    Null,
    Exact(i64),
    Wide(f64),
}

fn sum_or_avg(
    ctx: &Ctx<'_>,
    call: &FunctionCall,
    cp: &CallPlan,
    mask: &Arc<MaskArtifact>,
    prep: &Arc<DistinctPrepArt>,
) -> Result<Outputs> {
    let values = &prep.values;
    let is_float = values.data_type() == DataType::Float && values.any_valid();
    if let Some(got) = values.first_misfit(|t| matches!(t, Some(DataType::Int | DataType::Float))) {
        return Err(Error::TypeMismatch { expected: "numeric", got, context: "SUM/AVG DISTINCT" });
    }
    let as_f64 = |k: usize| values.f64_at(k).unwrap_or(0.0);
    if call.kind == FuncKind::Avg {
        let avgs = distinct_aggregate::<AvgF64, _>(
            ctx,
            cp,
            mask,
            prep,
            AggFlavor::Avg,
            as_f64,
            |state, (corr, _)| {
                let (s, c) = (state.0 - corr.0, state.1 - corr.1);
                (c != 0).then(|| s / c as f64)
            },
        )?;
        Ok(Column::from_floats(avgs).into())
    } else if is_float {
        let sums = distinct_aggregate::<SumF64, _>(
            ctx,
            cp,
            mask,
            prep,
            AggFlavor::SumF64,
            as_f64,
            |s, (corr, cnt)| (cnt != 0).then_some(s - corr),
        )?;
        Ok(Column::from_floats(sums).into())
    } else {
        let sums = distinct_aggregate::<SumI64, _>(
            ctx,
            cp,
            mask,
            prep,
            AggFlavor::SumI64,
            |k| values.i64_at(k).unwrap_or(0),
            |s, (corr, cnt)| match (cnt, i64::try_from(s - corr)) {
                (0, _) => IntSum::Null,
                (_, Ok(x)) => IntSum::Exact(x),
                (_, Err(_)) => IntSum::Wide((s - corr) as f64),
            },
        )?;
        let exact = sums.iter().map(|s| match *s {
            IntSum::Exact(x) => Some(x),
            _ => None,
        });
        let wide = sums.iter().map(|s| match *s {
            IntSum::Wide(x) => Some(x),
            _ => None,
        });
        Ok(Outputs::lanes(Column::from_ints(exact), Column::from_floats(wide)))
    }
}

/// Generic distinct-aggregate evaluation: fetch (or build) the annotated
/// tree, probe the hull, correct for hole-only values.
///
/// `payload_of(k)` is kept position `k`'s payload. `finish` receives the
/// hull state and `(correction_state, corrected_count)` and produces the
/// row's output — the correction state has the same type as the aggregation
/// state for SUM-like monoids and is a parallel (sum, count) pair for AVG.
#[allow(clippy::too_many_arguments)]
fn distinct_aggregate<A, T>(
    ctx: &Ctx<'_>,
    cp: &CallPlan,
    mask: &Arc<MaskArtifact>,
    prep: &Arc<DistinctPrepArt>,
    flavor: AggFlavor,
    payload_of: impl Fn(usize) -> A::Payload + Sync,
    finish: impl Fn(A::State, (A::State, usize)) -> T + Sync,
) -> Result<Vec<T>>
where
    A: DistinctAggregate + 'static,
    T: Clone + Default + Send,
{
    let tree: Arc<AnnotatedMst<u32, A>> =
        ctx.artifact(ArtifactKey::distinct_agg(cp, flavor), || {
            let prev = ctx.prev_idcs_art(cp)?;
            ctx.count_build(|s| &s.mst_builds);
            let payloads: Vec<A::Payload> = (0..prep.values.len()).map(&payload_of).collect();
            Ok(AnnotatedMst::build(&narrow(&prev), &payloads, tree_params(ctx.parallel)))
        })?;
    // One seed per probe chunk: consecutive frames move the threshold and
    // the edges a little, so each search gallops from the previous row's.
    ctx.probe_with(|seed: &mut ProbeSeed, i| {
        let (a, b) = ctx.frames.bounds[i];
        let (ka, kb) = mask.remap.range(a, b);
        let (state, counted) = tree.aggregate_below(ka, kb, ka as u32 + 1, Some(seed));
        if !ctx.frames.has_exclusion() {
            return Ok(finish(state, (A::identity(), counted)));
        }
        let pieces = mask.remap.range_set(&ctx.frames.range_set(i));
        let (holes, nh) = kept_holes(ctx, mask, i);
        let mut corr = A::identity();
        let mut removed = 0usize;
        hole_only_values(prep, &pieces, &holes[..nh], |p| {
            corr = A::combine(corr, A::lift(payload_of(p)));
            removed += 1;
        });
        Ok(finish(state, (corr, counted - removed)))
    })
}
