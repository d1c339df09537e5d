//! Framed percentiles and value functions via permutation-array selection
//! (§4.5).
//!
//! One sort by the function-level ORDER BY produces the permutation array;
//! the merge sort tree built over it finds "the j-th index pointing into the
//! frame" in O(log n). Value functions without an inner ORDER BY select by
//! frame position (classic SQL semantics) — the identity permutation.
//!
//! NULL handling follows the paper: percentiles always skip NULL keys; value
//! functions skip NULL arguments only under IGNORE NULLS. Skipped rows are
//! never inserted into the tree; frame bounds are remapped (§4.5's index
//! remapping). The planner encodes exactly this rule in the call's mask key,
//! so the sort and both trees come from the shared artifact cache.

use super::{cont_rank, disc_rank, fraction_arg, Ctx, Planned};
use crate::error::{Error, Result};
use crate::plan::{CallPlan, OrderKey};
use crate::spec::{FuncKind, FunctionCall};
use crate::value::Value;
use holistic_core::index::fits_u32;
use holistic_core::TreeIndex;

pub(crate) fn evaluate(ctx: &Ctx<'_>, call: &FunctionCall, cp: &CallPlan) -> Result<Vec<Value>> {
    if fits_u32(ctx.m() + 1) {
        evaluate_impl::<u32>(ctx, call, cp)
    } else {
        evaluate_impl::<u64>(ctx, call, cp)
    }
}

fn evaluate_impl<I: TreeIndex>(
    ctx: &Ctx<'_>,
    call: &FunctionCall,
    cp: &CallPlan,
) -> Result<Vec<Value>> {
    let order = cp.order.as_ref().expect("selection plans always carry an order");

    let mask = ctx.mask_art(cp.keys.mask())?;
    // Output value per kept position: the ORDER BY key for percentiles, the
    // first argument for value functions — the plan already derived the key.
    let kept_out = ctx.kept_values_art(cp.keys.kept_values())?;

    // Permutation by the inner order (identity = frame position order).
    let dc = match order {
        OrderKey::Identity => None,
        OrderKey::Keys(_) => Some(ctx.dense_codes_art(cp.keys.dense_codes())?),
    };
    let tree = ctx.perm_mst::<I>(cp.keys.perm_mst())?;

    // A selected tree rank → the kept position it points at.
    let map_rank = |rank: usize| -> usize {
        match &dc {
            Some(dc) => dc.perm[rank],
            None => rank,
        }
    };

    match call.kind {
        FuncKind::PercentileDisc | FuncKind::Median => {
            let p = fraction_arg(ctx.table, ctx.rows, call)?;
            ctx.probe_selects(
                &tree,
                |i, push| {
                    let pieces = mask.remap.range_set(&ctx.frames.range_set(i));
                    let s = pieces.count();
                    if s == 0 {
                        return Ok(Planned::Done(Value::Null));
                    }
                    push(pieces, disc_rank(p, s));
                    Ok(Planned::Counted(()))
                },
                |_, (), res| {
                    let kp = map_rank(res[0].expect("j <= s"));
                    Ok(kept_out[kp].clone())
                },
            )
        }
        FuncKind::PercentileCont => {
            let p = fraction_arg(ctx.table, ctx.rows, call)?;
            // CONT interpolates: the key must be numeric throughout, even
            // when a particular rank lands exactly on one element.
            if let Some(v) = kept_out.iter().find(|v| v.as_f64().is_none()) {
                return Err(Error::TypeMismatch {
                    expected: "numeric",
                    got: v.type_name(),
                    context: "percentile_cont",
                });
            }
            ctx.probe_selects(
                &tree,
                |i, push| {
                    let pieces = mask.remap.range_set(&ctx.frames.range_set(i));
                    let s = pieces.count();
                    if s == 0 {
                        return Ok(Planned::Done(Value::Null));
                    }
                    let cr = cont_rank(p, s);
                    push(pieces, cr.lo);
                    if cr.hi != cr.lo {
                        push(pieces, cr.hi);
                    }
                    Ok(Planned::Counted(cr))
                },
                |_, cr, res| {
                    let at = |r: Option<usize>| {
                        kept_out[map_rank(r.expect("rank < s"))]
                            .as_f64()
                            .expect("checked numeric above")
                    };
                    Ok(Value::Float(cr.interpolate(at(res[0]), || at(res[1]))))
                },
            )
        }
        FuncKind::FirstValue => ctx.probe_selects(
            &tree,
            |i, push| {
                let pieces = mask.remap.range_set(&ctx.frames.range_set(i));
                push(pieces, 0);
                Ok(Planned::Counted(()))
            },
            |_, (), res| {
                Ok(match res[0] {
                    Some(r) => kept_out[map_rank(r)].clone(),
                    None => Value::Null,
                })
            },
        ),
        FuncKind::LastValue => ctx.probe_selects(
            &tree,
            |i, push| {
                let pieces = mask.remap.range_set(&ctx.frames.range_set(i));
                let s = pieces.count();
                if s == 0 {
                    return Ok(Planned::Done(Value::Null));
                }
                push(pieces, s - 1);
                Ok(Planned::Counted(()))
            },
            |_, (), res| Ok(kept_out[map_rank(res[0].expect("s-1 < s"))].clone()),
        ),
        FuncKind::NthValue => {
            let n_expr = call.args[1].bind(ctx.table)?;
            ctx.probe_selects(
                &tree,
                |i, push| {
                    let n = match n_expr.eval(ctx.table, ctx.rows[i])? {
                        Value::Int(x) if x >= 1 => x as usize,
                        Value::Null => return Ok(Planned::Done(Value::Null)),
                        v => {
                            return Err(Error::InvalidArgument(format!(
                                "nth_value: n must be a positive integer, got {v}"
                            )))
                        }
                    };
                    let pieces = mask.remap.range_set(&ctx.frames.range_set(i));
                    push(pieces, n - 1);
                    Ok(Planned::Counted(()))
                },
                |_, (), res| {
                    Ok(match res[0] {
                        Some(r) => kept_out[map_rank(r)].clone(),
                        None => Value::Null,
                    })
                },
            )
        }
        _ => unreachable!("selection dispatch"),
    }
}
