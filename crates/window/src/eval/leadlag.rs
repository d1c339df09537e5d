//! LEAD and LAG — classic partition-positional semantics and the paper's
//! framed extension with an independent ORDER BY (§4.6).
//!
//! Framed evaluation composes the two tree queries of §4.4 and §4.5:
//! (1) the row's ROW_NUMBER within the frame by the inner order (merge sort
//! tree over unique codes), (2) offset adjustment, (3) selection of the row
//! at the adjusted position (merge sort tree over the permutation array).
//! Both trees come from the same preprocessing sort — and, through the
//! artifact cache, that sort and both trees are shared with any rank or
//! selection call over the same (criterion, mask) pair.

use super::Ctx;
use crate::error::{Error, Result};
use crate::plan::CallPlan;
use crate::spec::{FuncKind, FunctionCall};
use crate::value::Value;
use holistic_core::index::fits_u32;
use holistic_core::TreeIndex;

pub(crate) fn evaluate(ctx: &Ctx<'_>, call: &FunctionCall, cp: &CallPlan) -> Result<Vec<Value>> {
    if call.inner_order.is_empty() {
        evaluate_classic(ctx, call, cp)
    } else if fits_u32(ctx.m() + 1) {
        evaluate_framed::<u32>(ctx, call, cp)
    } else {
        evaluate_framed::<u64>(ctx, call, cp)
    }
}

/// The per-row signed offset (LEAD positive, LAG negative).
fn offset_for(
    ctx: &Ctx<'_>,
    call: &FunctionCall,
    offset_expr: &Option<crate::expr::BoundExpr>,
    i: usize,
) -> Result<Option<i64>> {
    let raw = match offset_expr {
        None => 1,
        Some(e) => match e.eval(ctx.table, ctx.rows[i])? {
            Value::Int(x) => x,
            Value::Null => return Ok(None),
            v => {
                return Err(Error::InvalidArgument(format!(
                    "{}: offset must be an integer, got {v}",
                    call.kind.name()
                )))
            }
        },
    };
    // LAG negates; `-i64::MIN` overflows, and an offset of magnitude 2^63
    // is out of range for every representable partition anyway, so
    // saturating to i64::MAX is exact (target arithmetic below is checked).
    Ok(Some(if call.kind == FuncKind::Lag { raw.checked_neg().unwrap_or(i64::MAX) } else { raw }))
}

/// `base + off` as a bounds-checked position: `None` when the target falls
/// outside `[0, len)` or the addition overflows (equivalent, since any
/// overflowing target is out of range for every representable `len`).
pub(crate) fn target_position(base: usize, off: i64, len: usize) -> Option<usize> {
    (base as i64).checked_add(off).and_then(|t| usize::try_from(t).ok()).filter(|&t| t < len)
}

/// Classic LEAD/LAG: positional within the partition, frame ignored — this is
/// the SQL:2011 behaviour when no function-level ORDER BY is given.
fn evaluate_classic(ctx: &Ctx<'_>, call: &FunctionCall, cp: &CallPlan) -> Result<Vec<Value>> {
    let m = ctx.m();
    let values = ctx.values_art(cp.keys.values())?;
    let offset_expr = call.args.get(1).map(|e| e.bind(ctx.table)).transpose()?;
    let default_expr = call.args.get(2).map(|e| e.bind(ctx.table)).transpose()?;
    // IGNORE NULLS: the n-th non-null value before/after the current row.
    let non_null: Vec<usize> = if call.ignore_nulls {
        (0..m).filter(|&i| !values[i].is_null()).collect()
    } else {
        Vec::new()
    };
    ctx.probe(|i| {
        let default = || -> Result<Value> {
            Ok(match &default_expr {
                Some(d) => d.eval(ctx.table, ctx.rows[i])?,
                None => Value::Null,
            })
        };
        let Some(off) = offset_for(ctx, call, &offset_expr, i)? else {
            return Ok(Value::Null);
        };
        // Offset 0 is the current row itself, per SQL — even under IGNORE
        // NULLS (an offset of zero never skips anywhere). Handling it up
        // front also keeps the `off - 1` below strictly positive.
        if off == 0 {
            return Ok(values[i].clone());
        }
        if call.ignore_nulls {
            // Position among non-null rows strictly after/before i. All
            // arithmetic is checked: `off` can be anything up to ±i64::MAX.
            let idx = non_null.partition_point(|&p| p <= i);
            let target = if off > 0 {
                idx.checked_add(off as usize).and_then(|t| t.checked_sub(1))
            } else {
                let before = non_null.partition_point(|&p| p < i);
                usize::try_from(off.unsigned_abs()).ok().and_then(|o| before.checked_sub(o))
            };
            return Ok(match target.and_then(|t| non_null.get(t)) {
                Some(&p) => values[p].clone(),
                None => default()?,
            });
        }
        match target_position(i, off, m) {
            Some(t) => Ok(values[t].clone()),
            None => default(),
        }
    })
}

/// Framed LEAD/LAG with an independent ORDER BY (§4.6).
fn evaluate_framed<I: TreeIndex>(
    ctx: &Ctx<'_>,
    call: &FunctionCall,
    cp: &CallPlan,
) -> Result<Vec<Value>> {
    let mask = ctx.mask_art(cp.keys.mask())?;
    let kept_out = ctx.kept_values_art(cp.keys.kept_values())?;
    let keys = ctx.inner_keys_art(cp.keys.inner_keys())?;
    let dc = ctx.dense_codes_art(cp.keys.dense_codes())?;
    let code_tree = ctx.code_mst::<I>(cp.keys.code_mst())?;
    let select_tree = ctx.perm_mst::<I>(cp.keys.perm_mst())?;

    let offset_expr = call.args.get(1).map(|e| e.bind(ctx.table)).transpose()?;
    let default_expr = call.args.get(2).map(|e| e.bind(ctx.table)).transpose()?;
    let kept_rows = mask.kept_rows(ctx.rows);

    ctx.probe(|i| {
        let default = || -> Result<Value> {
            Ok(match &default_expr {
                Some(d) => d.eval(ctx.table, ctx.rows[i])?,
                None => Value::Null,
            })
        };
        let Some(off) = offset_for(ctx, call, &offset_expr, i)? else {
            return Ok(Value::Null);
        };
        let pieces = mask.remap.range_set(&ctx.frames.range_set(i));
        let s = pieces.count();
        // Step 1: own row number within the frame by the inner order. For
        // rows not in the tree (filtered/ignored) rank virtually against the
        // kept rows, matching the rank-family convention.
        let rn0 = if mask.remap.is_kept(i) {
            let k = mask.remap.kept_index(i);
            code_tree.count_below_multi(&pieces, I::from_usize(dc.code[k]))
        } else {
            // Rows absent from the tree rank virtually: key-smaller kept rows
            // plus equal-key kept rows at earlier positions (the positional
            // tie-break of unique codes).
            let row = ctx.rows[i];
            let search = |upper: bool| {
                let mut lo = 0;
                let mut hi = dc.perm.len();
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    let o = keys.cmp_rows(kept_rows[dc.perm[mid]], row);
                    let go_right =
                        o == std::cmp::Ordering::Less || (upper && o == std::cmp::Ordering::Equal);
                    if go_right {
                        lo = mid + 1;
                    } else {
                        hi = mid;
                    }
                }
                lo
            };
            let (gmin, gend) = (search(false), search(true));
            let smaller = code_tree.count_below_multi(&pieces, I::from_usize(gmin));
            let ki = mask.remap.range(0, i).1;
            let mut earlier = holistic_core::RangeSet::empty();
            for (a, b) in pieces.iter() {
                let b2 = b.min(ki);
                if a < b2 {
                    earlier.push(a, b2);
                }
            }
            let eq_before = code_tree.count_below_multi(&earlier, I::from_usize(gend))
                - code_tree.count_below_multi(&earlier, I::from_usize(gmin));
            smaller + eq_before
        };
        // Steps 2+3: adjust and select (checked: `off` is unbounded).
        let Some(target) = target_position(rn0, off, s) else {
            return default();
        };
        let rank = select_tree.select(&pieces, target).expect("target < s");
        Ok(kept_out[dc.perm[rank]].clone())
    })
}
