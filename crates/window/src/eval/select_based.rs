//! Framed percentiles and value functions via permutation-array selection
//! (§4.5).
//!
//! One sort by the function-level ORDER BY produces the permutation array;
//! the merge sort tree built over it finds "the j-th index pointing into the
//! frame" in O(log n). Value functions without an inner ORDER BY select by
//! frame position (classic SQL semantics) — the identity permutation, which
//! needs no index: [`FrameOrder`] subtracts, whatever the strategy.
//!
//! NULL handling follows the paper: percentiles always skip NULL keys; value
//! functions skip NULL arguments only under IGNORE NULLS. Skipped rows are
//! never inserted into the tree; frame bounds are remapped (§4.5's index
//! remapping). The planner encodes exactly this rule in the call's mask key,
//! so the sort and both trees come from the shared artifact cache. Which
//! [`Select`] index answers an inner ORDER BY — the tree, a scan of the
//! codes, or one of the sliding alternates — is the strategy's choice.

use super::primitive::{FrameOrder, Scan, Select};
use super::{alt, cont_rank, disc_rank, fraction_arg, Ctx, Planned};
use crate::artifacts::MaskArtifact;
use crate::error::{Error, Result};
use crate::plan::{CallPlan, OrderKey};
use crate::spec::{FuncKind, FunctionCall};
use crate::strategy::Strategy;
use crate::value::Value;
use holistic_core::codes::DenseCodes;

pub(crate) fn evaluate(
    ctx: &Ctx<'_>,
    call: &FunctionCall,
    cp: &CallPlan,
    strategy: Strategy,
) -> Result<Vec<Value>> {
    let order = cp.order.as_ref().expect("selection plans always carry an order");

    let mask = ctx.mask_art(&cp.keys)?;
    // Output value per kept position: the ORDER BY key for percentiles, the
    // first argument for value functions — the plan already derived the key.
    let kept_out = ctx.kept_values_art(&cp.keys)?;

    // Permutation by the inner order (identity = frame position order).
    let dc = match order {
        OrderKey::Identity => None,
        OrderKey::Keys(_) => Some(ctx.dense_codes_art(&cp.keys)?),
    };
    let sel = Selection { ctx, call, mask: &mask, kept_out: &kept_out, dc: dc.as_deref() };
    match (strategy, sel.dc) {
        (_, None) => sel.probe(&FrameOrder),
        (Strategy::Naive, Some(dc)) => sel.probe(&Scan(&dc.code)),
        (Strategy::Mst, _) if ctx.u32_trees() => sel.probe(&*ctx.perm_mst::<u32>(&cp.keys)?),
        (Strategy::Mst, _) => sel.probe(&*ctx.perm_mst::<u64>(&cp.keys)?),
        (sliding, Some(dc)) => alt::percentile(&sel, dc, sliding),
    }
}

/// One selection call over one partition, before its index is chosen.
pub(super) struct Selection<'a> {
    pub ctx: &'a Ctx<'a>,
    pub call: &'a FunctionCall,
    pub mask: &'a MaskArtifact,
    pub kept_out: &'a [Value],
    dc: Option<&'a DenseCodes>,
}

impl Selection<'_> {
    /// The percentile fraction. CONT interpolates: its key must be numeric
    /// throughout, even when a particular rank lands exactly on one element.
    pub fn fraction(&self) -> Result<f64> {
        let p = fraction_arg(self.ctx.table, self.ctx.rows, self.call)?;
        if self.call.kind == FuncKind::PercentileCont {
            if let Some(v) = self.kept_out.iter().find(|v| v.as_f64().is_none()) {
                return Err(Error::TypeMismatch {
                    expected: "numeric",
                    got: v.type_name(),
                    context: "percentile_cont",
                });
            }
        }
        Ok(p)
    }

    fn probe<X: Select>(&self, index: &X) -> Result<Vec<Value>> {
        let Selection { ctx, call, mask, kept_out, dc } = *self;
        let pieces_of = |i: usize| mask.remap.range_set(&ctx.frames.range_set(i));
        // A selected rank → the value of the kept position it points at.
        let at = |rank: usize| &kept_out[dc.map_or(rank, |dc| dc.perm[rank])];
        let at_or_null = |rank: Option<usize>| rank.map_or(Value::Null, |r| at(r).clone());

        match call.kind {
            FuncKind::PercentileDisc | FuncKind::Median => {
                let p = self.fraction()?;
                ctx.probe_selects(
                    index,
                    |i, push| {
                        let pieces = pieces_of(i);
                        let s = pieces.count();
                        if s == 0 {
                            return Ok(Planned::Done(Value::Null));
                        }
                        push(pieces, disc_rank(p, s));
                        Ok(Planned::Counted(()))
                    },
                    |_, (), res| Ok(at(res[0].expect("j < s")).clone()),
                )
            }
            FuncKind::PercentileCont => {
                let p = self.fraction()?;
                ctx.probe_selects(
                    index,
                    |i, push| {
                        let pieces = pieces_of(i);
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
                        let num = |r: Option<usize>| {
                            at(r.expect("rank < s")).as_f64().expect("checked numeric above")
                        };
                        Ok(Value::Float(cr.interpolate(num(res[0]), || num(res[1]))))
                    },
                )
            }
            FuncKind::FirstValue => ctx.probe_selects(
                index,
                |i, push| {
                    push(pieces_of(i), 0);
                    Ok(Planned::Counted(()))
                },
                |_, (), res| Ok(at_or_null(res[0])),
            ),
            FuncKind::LastValue => ctx.probe_selects(
                index,
                |i, push| {
                    let pieces = pieces_of(i);
                    let s = pieces.count();
                    if s == 0 {
                        return Ok(Planned::Done(Value::Null));
                    }
                    push(pieces, s - 1);
                    Ok(Planned::Counted(()))
                },
                |_, (), res| Ok(at_or_null(res[0])),
            ),
            FuncKind::NthValue => {
                let n_expr = call.args[1].bind(ctx.table)?;
                ctx.probe_selects(
                    index,
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
                        push(pieces_of(i), n - 1);
                        Ok(Planned::Counted(()))
                    },
                    |_, (), res| Ok(at_or_null(res[0])),
                )
            }
            _ => unreachable!("selection dispatch"),
        }
    }
}
