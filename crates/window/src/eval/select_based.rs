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
//! codes, or the incremental strategy's sliding window over the same codes —
//! is the strategy's choice.

use super::primitive::{FrameOrder, Scan, Select, Sliding};
use super::{cont_rank, disc_rank, fraction_arg, Ctx, Planned};
use crate::artifacts::MaskArtifact;
use crate::column::Column;
use crate::error::{Error, Result};
use crate::plan::{CallPlan, OrderKey};
use crate::spec::{FuncKind, FunctionCall};
use crate::strategy::Strategy;
use crate::value::{DataType, Value};
use holistic_core::codes::DenseCodes;

pub(crate) fn evaluate(
    ctx: &Ctx<'_>,
    call: &FunctionCall,
    cp: &CallPlan,
    strategy: Strategy,
) -> Result<Column> {
    let order = cp.order.as_ref().expect("selection plans always carry an order");

    let mask = ctx.mask_art(cp)?;
    // Output value per kept position: the ORDER BY key for percentiles, the
    // first argument for value functions — the plan already derived the key.
    let kept_out = ctx.kept_values_art(cp)?;

    // Permutation by the inner order (identity = frame position order).
    let dc = match order {
        OrderKey::Identity => None,
        OrderKey::Keys(_) => Some(ctx.dense_codes_art(cp)?),
    };
    let sel = Selection { ctx, call, mask: &mask, kept_out: &kept_out, dc: dc.as_deref() };
    match (strategy, sel.dc) {
        (_, None) => sel.probe(&FrameOrder),
        (Strategy::Naive, Some(dc)) => sel.probe(&Scan(&dc.code)),
        (Strategy::Incremental, Some(dc)) => sel.probe(&Sliding(&dc.code)),
        (_, Some(_)) => sel.probe(&*ctx.perm_mst(cp)?),
    }
}

/// One selection call over one partition, before its index is chosen.
struct Selection<'a> {
    ctx: &'a Ctx<'a>,
    call: &'a FunctionCall,
    mask: &'a MaskArtifact,
    kept_out: &'a Column,
    dc: Option<&'a DenseCodes>,
}

impl Selection<'_> {
    /// The percentile fraction. CONT interpolates: its key must be numeric
    /// throughout, even when a particular rank lands exactly on one element.
    fn fraction(&self) -> Result<f64> {
        let p = fraction_arg(self.ctx.table, self.ctx.rows, self.call)?;
        if self.call.kind == FuncKind::PercentileCont {
            let numeric = |t| matches!(t, Some(DataType::Int | DataType::Float | DataType::Date));
            if let Some(got) = self.kept_out.first_misfit(numeric) {
                return Err(Error::TypeMismatch {
                    expected: "numeric",
                    got,
                    context: "percentile_cont",
                });
            }
        }
        Ok(p)
    }

    fn probe<X: Select>(&self, index: &X) -> Result<Column> {
        let Selection { ctx, call, mask, kept_out, dc } = *self;
        let pieces_of = |i: usize| mask.remap.range_set(&ctx.frames.range_set(i));
        // A selected rank → the kept position it points at, whose value is
        // the row's output (gathered once every row has picked).
        let at = |rank: usize| dc.map_or(rank, |dc| dc.perm[rank]);

        let picks = match call.kind {
            FuncKind::PercentileDisc | FuncKind::Median => {
                let p = self.fraction()?;
                ctx.probe_selects(
                    index,
                    |i, push| {
                        let pieces = pieces_of(i);
                        let s = pieces.count();
                        if s == 0 {
                            return Ok(Planned::Done(None));
                        }
                        push(pieces, disc_rank(p, s));
                        Ok(Planned::Counted(()))
                    },
                    |_, (), res| Ok(Some(at(res[0].expect("j < s")))),
                )?
            }
            FuncKind::PercentileCont => {
                let p = self.fraction()?;
                let conts = ctx.probe_selects(
                    index,
                    |i, push| {
                        let pieces = pieces_of(i);
                        let s = pieces.count();
                        if s == 0 {
                            return Ok(Planned::Done(None));
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
                            kept_out
                                .f64_at(at(r.expect("rank < s")))
                                .expect("checked numeric above")
                        };
                        Ok(Some(cr.interpolate(num(res[0]), || num(res[1]))))
                    },
                )?;
                return Ok(Column::from_floats(conts));
            }
            FuncKind::FirstValue => ctx.probe_selects(
                index,
                |i, push| {
                    push(pieces_of(i), 0);
                    Ok(Planned::Counted(()))
                },
                |_, (), res| Ok(res[0].map(at)),
            )?,
            FuncKind::LastValue => ctx.probe_selects(
                index,
                |i, push| {
                    let pieces = pieces_of(i);
                    let s = pieces.count();
                    if s == 0 {
                        return Ok(Planned::Done(None));
                    }
                    push(pieces, s - 1);
                    Ok(Planned::Counted(()))
                },
                |_, (), res| Ok(res[0].map(at)),
            )?,
            FuncKind::NthValue => {
                let n_expr = call.args[1].bind(ctx.table)?;
                ctx.probe_selects(
                    index,
                    |i, push| {
                        let n = match n_expr.eval(ctx.table, ctx.rows[i])? {
                            Value::Int(x) if x >= 1 => x as usize,
                            Value::Null => return Ok(Planned::Done(None)),
                            v => {
                                return Err(Error::InvalidArgument(format!(
                                    "nth_value: n must be a positive integer, got {v}"
                                )))
                            }
                        };
                        push(pieces_of(i), n - 1);
                        Ok(Planned::Counted(()))
                    },
                    |_, (), res| Ok(res[0].map(at)),
                )?
            }
            _ => unreachable!("selection dispatch"),
        };
        Ok(kept_out.gather(picks.into_iter()))
    }
}
