//! Framed DISTINCT aggregates via merge sort trees (§4.2, §4.3).
//!
//! Pipeline per partition:
//!
//! 1. the kept-row mask (FILTER ∧ non-NULL argument) and kept values come
//!    from the artifact cache, remapping frame bounds (§4.7);
//! 2. number the kept values densely by equality (the cached `DistinctPrep`
//!    artifact, which MODE reads too; §6.7 hashes instead, and counts two
//!    values whose hashes collide as one) and compute shifted
//!    previous-occurrence indices over the ids in one pass (Algorithm 1's
//!    result; the cached `PrevIdcs` artifact);
//! 3. build the (annotated) merge sort tree — cached per (argument, mask)
//!    and, for SUM/AVG, per aggregate flavor; a naive COUNT scans the
//!    indices instead, the incremental one slides a count per id through
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
    let prep = ctx.distinct_prep_art(cp, true)?;
    if call.kind != FuncKind::Count {
        // SUM / AVG: the annotated tree only (`strategy::applicable`).
        return sum_or_avg(ctx, call, cp, &mask, &prep);
    }
    let counts = match strategy {
        Strategy::Incremental => count_incremental(ctx, &mask, &prep),
        Strategy::Naive => count(ctx, &mask, &prep, &Scan(&prep.prev_idcs()))?,
        _ => count(ctx, &mask, &prep, &*ctx.distinct_count_mst(cp)?)?,
    };
    Ok(Column::ints(counts).into())
}

/// Kept position `k`'s value as a [`Ctx::hole_only_ids`] id, with the id's
/// kept positions.
fn value_id(prep: &DistinctPrepArt, k: usize) -> Option<(usize, &[usize])> {
    let id = prep.ids[k] as usize;
    Some((id, &prep.occurrences[id]))
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
            let mut correction = 0usize;
            ctx.hole_only_ids(&mask.remap, i, |k| value_id(prep, k), |_| correction += 1);
            Ok((base - correction) as i64)
        },
    )
}

/// COUNT(DISTINCT) on a count per value id (Table 1 row 1), slid in
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
    incremental::distinct_counts(&prep.ids, prep.distinct, &hulls, order, |i, c| out[i] = c as i64);
    out
}

fn sum_or_avg(
    ctx: &Ctx<'_>,
    call: &FunctionCall,
    cp: &CallPlan,
    mask: &Arc<MaskArtifact>,
    prep: &Arc<DistinctPrepArt>,
) -> Result<Outputs> {
    let values = &prep.values;
    if let Some(got) = values.first_misfit(|t| matches!(t, Some(DataType::Int | DataType::Float))) {
        return Err(Error::TypeMismatch { expected: "numeric", got, context: "SUM/AVG DISTINCT" });
    }
    let avg = call.kind == FuncKind::Avg;
    if values.data_type() == DataType::Float && values.any_valid() {
        let as_f64 = |k: usize| values.f64_at(k).unwrap_or(0.0);
        let out = if avg {
            distinct_aggregate::<AvgF64, _>(
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
            )?
        } else {
            distinct_aggregate::<SumF64, _>(
                ctx,
                cp,
                mask,
                prep,
                AggFlavor::SumF64,
                as_f64,
                |s, (corr, cnt)| (cnt != 0).then_some(s - corr),
            )?
        };
        return Ok(Column::from_floats(out).into());
    }
    // Integers sum exactly, so a hole's correction cancels exactly however
    // large the values: AVG divides the exact sum, and a SUM past `i64`
    // degrades to a float rather than an error mid-probe.
    let sums = distinct_aggregate::<SumI64, _>(
        ctx,
        cp,
        mask,
        prep,
        AggFlavor::SumI64,
        |k| values.i64_at(k).unwrap_or(0),
        |s, (corr, cnt)| (s - corr, cnt),
    )?;
    let sums = sums.into_iter().map(|(s, cnt)| (cnt != 0).then_some((s, cnt)));
    if avg {
        return Ok(Column::from_floats(sums.map(|o| o.map(|(s, c)| s as f64 / c as f64))).into());
    }
    let exact = sums.clone().map(|o| o.and_then(|(s, _)| i64::try_from(s).ok()));
    let wide = sums.map(|o| o.and_then(|(s, _)| i64::try_from(s).is_err().then_some(s as f64)));
    Ok(Outputs::lanes(Column::from_ints(exact), Column::from_floats(wide)))
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
        let mut corr = A::identity();
        let mut removed = 0usize;
        ctx.hole_only_ids(
            &mask.remap,
            i,
            |k| value_id(prep, k),
            |k| {
                corr = A::combine(corr, A::lift(payload_of(k)));
                removed += 1;
            },
        );
        Ok(finish(state, (corr, counted - removed)))
    })
}
