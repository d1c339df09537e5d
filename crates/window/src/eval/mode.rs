//! Framed MODE via the √-decomposition range mode index — an extension
//! beyond the paper (§3.1 notes mode needs dedicated structures [13, 25]).
//!
//! Pipeline mirrors the other holistic families: FILTER/NULL rows are never
//! inserted and frame bounds are remapped; values are compressed to dense
//! ids *in value order*, so the index's smallest-id tie-break implements
//! "smallest value among the most frequent" deterministically. One-piece
//! frames probe in O(√n log n); frames with exclusion holes fall back to exact
//! union counting (mode does not decompose over unions). The decode table
//! and index come from the artifact cache, keyed on (argument, mask); a
//! [`Strategy::Naive`] call counts the same ids per frame instead.

use super::primitive::{RangeMode, ScanIds};
use super::Ctx;
use crate::artifacts::{MaskArtifact, ModeArt};
use crate::column::Column;
use crate::error::Result;
use crate::plan::CallPlan;
use crate::strategy::Strategy;

pub(crate) fn evaluate(ctx: &Ctx<'_>, cp: &CallPlan, strategy: Strategy) -> Result<Column> {
    let mask = ctx.mask_art(cp)?;
    match strategy {
        Strategy::Naive => {
            let scan = |ids, distinct| ScanIds { ids, distinct };
            probe(ctx, &mask, &ctx.mode_parts(cp, scan)?)
        }
        _ => probe(ctx, &mask, &*ctx.mode_art(cp)?),
    }
}

fn probe<X: RangeMode>(ctx: &Ctx<'_>, mask: &MaskArtifact, art: &ModeArt<X>) -> Result<Column> {
    let ids = ctx.probe_with(|counts: &mut Vec<u32>, i| {
        let pieces = mask.remap.range_set(&ctx.frames.range_set(i));
        Ok(art.index.mode(&pieces, counts))
    })?;
    Ok(art.decode.gather(ids.into_iter().map(|id| id.map(|id| id as usize))))
}
