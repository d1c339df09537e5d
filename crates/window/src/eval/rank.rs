//! Framed rank functions via merge sort trees (§4.4) and DENSE_RANK via a
//! range tree.
//!
//! One dense-code preprocessing pass (Figure 8) plus one merge sort tree over
//! the unique codes answers the whole family:
//!
//! * `RANK       = count_below(frame, group_min) + 1`
//! * `ROW_NUMBER = count_below(frame, code) + 1`
//! * `CUME_DIST  = count_below(frame, group_end) / frame_size`
//! * `PERCENT_RANK`, `NTILE` — arithmetic on the above.
//!
//! `DENSE_RANK` needs the number of *distinct* smaller keys, a 3-d range
//! count (§4.4), answered by the range tree with the previous-occurrence
//! trick applied to tie-group ids.
//!
//! The preprocessing products come from the call's artifact recipes — shared
//! through the partition's cache, so the whole family over one (criterion,
//! mask) pair shares a single sort and a single code tree — and the counts
//! from whichever [`CountBelow`] / [`Count3d`] index the strategy names: the
//! trees, a scan of the codes they would have been built from, or (for the
//! rank family over hull frames) those codes slid as one sorted window.

use super::primitive::{Count3d, CountBelow, Scan, ScanPoints, Sliding};
use super::{cume_dist, percent_rank, Ctx, Planned};
use crate::artifacts::{DenseRankArt, MaskArtifact};
use crate::column::Column;
use crate::error::{Error, Result};
use crate::order::KeyColumns;
use crate::plan::CallPlan;
use crate::spec::{FuncKind, FunctionCall};
use crate::strategy::Strategy;
use crate::value::Value;
use holistic_core::codes::DenseCodes;
use holistic_core::RangeSet;
use std::cmp::Ordering;
use std::sync::Arc;

/// Shared preprocessing of everything that ranks rows by an inner order:
/// the rank family, DENSE_RANK and framed LEAD/LAG.
pub(super) struct RankPrep {
    keys: Arc<KeyColumns>,
    pub mask: Arc<MaskArtifact>,
    pub dc: Arc<DenseCodes>,
}

pub(super) fn prepare(ctx: &Ctx<'_>, cp: &CallPlan) -> Result<RankPrep> {
    let keys = ctx.inner_keys_art(cp)?;
    let mask = ctx.mask_art(cp)?;
    let dc = ctx.dense_codes_art(cp)?;
    Ok(RankPrep { keys, mask, dc })
}

impl RankPrep {
    /// `(group_min, group_end, code)` of partition position `i` in *kept
    /// sorted-code* space. A row dropped by FILTER still ranks against the
    /// kept rows: its code bounds come from binary search, and its code is
    /// the one it would have had — the tie group's codes ascend with
    /// position, so the kept rows ordering before it (smaller keys, then
    /// equal keys earlier in the partition) are exactly those coded below
    /// it.
    fn code_bounds(&self, ctx: &Ctx<'_>, i: usize) -> (usize, usize, usize) {
        let (mask, dc) = (&self.mask, &self.dc);
        if mask.remap.is_kept(i) {
            let k = mask.remap.kept_index(i);
            return (dc.group_min[k], dc.group_end[k], dc.code[k]);
        }
        let row = ctx.rows[i];
        let kept_rows = mask.kept_rows(ctx.rows);
        let kept_row = |&p: &usize| kept_rows[p];
        let gmin =
            dc.perm.partition_point(|p| self.keys.cmp_rows(kept_row(p), row) == Ordering::Less);
        let gend =
            gmin + dc.perm[gmin..].partition_point(|p| self.keys.rows_equal(kept_row(p), row));
        let ki = mask.remap.range(0, i).1;
        (gmin, gend, gmin + dc.perm[gmin..gend].partition_point(|&p| p < ki))
    }

    /// Frame pieces remapped to kept space.
    pub fn kept_pieces(&self, ctx: &Ctx<'_>, i: usize) -> RangeSet {
        self.mask.remap.range_set(&ctx.frames.range_set(i))
    }

    /// How many kept rows of `pieces` order before position `i` — its
    /// 0-based ROW_NUMBER, FILTER-dropped or not.
    pub fn rows_before(
        &self,
        ctx: &Ctx<'_>,
        index: &impl CountBelow,
        i: usize,
        pieces: &RangeSet,
    ) -> usize {
        index.count_below(pieces, self.code_bounds(ctx, i).2)
    }
}

/// RANK / ROW_NUMBER / PERCENT_RANK / CUME_DIST / NTILE.
pub(crate) fn evaluate(
    ctx: &Ctx<'_>,
    call: &FunctionCall,
    cp: &CallPlan,
    strategy: Strategy,
) -> Result<Column> {
    let prep = prepare(ctx, cp)?;
    match strategy {
        Strategy::Naive => probe(ctx, call, &prep, &Scan(&prep.dc.code)),
        Strategy::Incremental => probe(ctx, call, &prep, &Sliding(&prep.dc.code)),
        _ => probe(ctx, call, &prep, &*ctx.code_mst(cp)?),
    }
}

fn probe<C: CountBelow>(
    ctx: &Ctx<'_>,
    call: &FunctionCall,
    prep: &RankPrep,
    index: &C,
) -> Result<Column> {
    Ok(match call.kind {
        FuncKind::RowNumber => Column::ints(ctx.probe_counts(
            index,
            |i, push| {
                push(&prep.kept_pieces(ctx, i), prep.code_bounds(ctx, i).2);
                Ok(Planned::Counted(()))
            },
            |_, (), below| Ok((below + 1) as i64),
        )?),
        FuncKind::Rank => Column::ints(ctx.probe_counts(
            index,
            |i, push| {
                push(&prep.kept_pieces(ctx, i), prep.code_bounds(ctx, i).0);
                Ok(Planned::Counted(()))
            },
            |_, (), below| Ok((below + 1) as i64),
        )?),
        FuncKind::PercentRank => Column::from_floats(ctx.probe_counts(
            index,
            |i, push| {
                let pieces = prep.kept_pieces(ctx, i);
                let size = pieces.count();
                if size == 0 {
                    return Ok(Planned::Done(None));
                }
                push(&pieces, prep.code_bounds(ctx, i).0);
                Ok(Planned::Counted(size))
            },
            |_, size, below| Ok(Some(percent_rank(below, size))),
        )?),
        FuncKind::CumeDist => Column::from_floats(ctx.probe_counts(
            index,
            |i, push| {
                let pieces = prep.kept_pieces(ctx, i);
                let size = pieces.count();
                if size == 0 {
                    return Ok(Planned::Done(None));
                }
                push(&pieces, prep.code_bounds(ctx, i).1);
                Ok(Planned::Counted(size))
            },
            |_, size, le| Ok(Some(cume_dist(le, size))),
        )?),
        FuncKind::Ntile => {
            let buckets_expr = call.args[0].bind(ctx.table)?;
            Column::from_ints(ctx.probe_counts(
                index,
                |i, push| {
                    let b = match buckets_expr.eval(ctx.table, ctx.rows[i])? {
                        Value::Int(x) if x >= 1 => x as usize,
                        Value::Null => return Ok(Planned::Done(None)),
                        v => {
                            return Err(Error::InvalidArgument(format!(
                                "ntile: bucket count must be a positive integer, got {v}"
                            )))
                        }
                    };
                    let pieces = prep.kept_pieces(ctx, i);
                    let size = pieces.count();
                    if size == 0 {
                        return Ok(Planned::Done(None));
                    }
                    push(&pieces, prep.code_bounds(ctx, i).2);
                    Ok(Planned::Counted((size, b)))
                },
                |_, (size, b), below| Ok(Some(ntile_of(below + 1, size, b) as i64)),
            )?)
        }
        _ => unreachable!("rank dispatch"),
    })
}

/// SQL NTILE: `size` rows into `b` buckets; the first `size % b` buckets get
/// one extra row. `rn` is 1-based; the result is 1-based. `rn` may exceed
/// `size` when the current row lies outside its own frame (the paper's framed
/// extension allows that); the formula extrapolates consistently.
pub(crate) fn ntile_of(rn: usize, size: usize, b: usize) -> usize {
    debug_assert!(rn >= 1 && b >= 1);
    let q = size / b;
    let r = size % b;
    if q == 0 {
        // More buckets than rows: row k goes to bucket k.
        return rn;
    }
    let big = q + 1;
    if rn <= r * big {
        (rn - 1) / big + 1
    } else {
        r + (rn - 1 - r * big) / q + 1
    }
}

/// Framed DENSE_RANK via the 3-d count (§4.4).
pub(crate) fn evaluate_dense_rank(
    ctx: &Ctx<'_>,
    cp: &CallPlan,
    strategy: Strategy,
) -> Result<Column> {
    let prep = prepare(ctx, cp)?;
    match strategy {
        Strategy::Naive => {
            probe_dense_rank(ctx, &prep, &ctx.dense_rank_parts(&prep.dc, ScanPoints))
        }
        _ => probe_dense_rank(ctx, &prep, &*ctx.range_tree_art(cp)?),
    }
}

fn probe_dense_rank<C: Count3d>(
    ctx: &Ctx<'_>,
    prep: &RankPrep,
    art: &DenseRankArt<C>,
) -> Result<Column> {
    let ranks = ctx.probe(|i| {
        let (a, b) = ctx.frames.bounds[i];
        let (ka, kb) = prep.mask.remap.range(a, b);
        // Number of tie groups with keys smaller than the current row's key:
        // the group id right below the row's group_min boundary.
        let (gmin, _, _) = prep.code_bounds(ctx, i);
        let gcount = if gmin == 0 { 0 } else { prep.dc.group_id[prep.dc.perm[gmin - 1]] + 1 };
        let base = art.counter.count(ka, kb, gcount, ka + 1);
        if !ctx.frames.has_exclusion() {
            return Ok((base + 1) as i64);
        }
        // Correct for smaller-key groups whose only frame occurrences sit in
        // the exclusion hole.
        let mut correction = 0usize;
        let group = |k: usize| {
            let g = prep.dc.group_id[k];
            (g < gcount).then(|| (g, art.occurrences[g].as_slice()))
        };
        ctx.hole_only_ids(&prep.mask.remap, i, group, |_| correction += 1);
        Ok((base - correction + 1) as i64)
    })?;
    Ok(Column::ints(ranks))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ntile_distribution() {
        // 10 rows, 3 buckets → sizes 4, 3, 3.
        let tiles: Vec<usize> = (1..=10).map(|rn| ntile_of(rn, 10, 3)).collect();
        assert_eq!(tiles, vec![1, 1, 1, 1, 2, 2, 2, 3, 3, 3]);
        // More buckets than rows.
        let tiles: Vec<usize> = (1..=3).map(|rn| ntile_of(rn, 3, 5)).collect();
        assert_eq!(tiles, vec![1, 2, 3]);
        // Exact division.
        let tiles: Vec<usize> = (1..=6).map(|rn| ntile_of(rn, 6, 3)).collect();
        assert_eq!(tiles, vec![1, 1, 2, 2, 3, 3]);
        // One bucket.
        assert!((1..=4).all(|rn| ntile_of(rn, 4, 1) == 1));
    }
}
