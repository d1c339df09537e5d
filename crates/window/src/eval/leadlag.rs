//! LEAD and LAG — classic partition-positional semantics and the paper's
//! framed extension with an independent ORDER BY (§4.6).
//!
//! Framed evaluation composes the two queries of §4.4 and §4.5: (1) the
//! row's ROW_NUMBER within the frame by the inner order — the rank family's
//! own routine, over the unique codes — (2) offset adjustment, (3) selection
//! of the row at the adjusted position, over the permutation array. Both
//! indexes come from the same preprocessing sort — and, through the artifact
//! cache, that sort and both trees are shared with any rank or selection
//! call over the same (criterion, mask) pair.

use super::primitive::{CountBelow, Scan, Select, SelectBuf};
use super::{rank, Ctx};
use crate::column::{Column, Outputs};
use crate::error::{Error, Result};
use crate::expr::BoundExpr;
use crate::plan::CallPlan;
use crate::spec::{FuncKind, FunctionCall};
use crate::strategy::Strategy;
use crate::value::Value;

pub(crate) fn evaluate(
    ctx: &Ctx<'_>,
    call: &FunctionCall,
    cp: &CallPlan,
    strategy: Strategy,
) -> Result<Outputs> {
    let args = Args {
        ctx,
        call,
        offset: call.args.get(1).map(|e| e.bind(ctx.table)).transpose()?,
        default: call.args.get(2).map(|e| e.bind(ctx.table)).transpose()?,
    };
    if call.inner_order.is_empty() {
        return evaluate_classic(&args, cp);
    }
    let prep = rank::prepare(ctx, cp)?;
    let kept_out = ctx.kept_values_art(cp)?;
    let codes = Scan(&prep.dc.code);
    let lagged = match strategy {
        Strategy::Naive => evaluate_framed(&args, &prep, &codes, &codes),
        _ if ctx.u32_trees() => {
            evaluate_framed(&args, &prep, &*ctx.code_mst::<u32>(cp)?, &*ctx.perm_mst::<u32>(cp)?)
        }
        _ => evaluate_framed(&args, &prep, &*ctx.code_mst::<u64>(cp)?, &*ctx.perm_mst::<u64>(cp)?),
    }?;
    lagged_outputs(&kept_out, lagged)
}

/// The call's per-row offset and default arguments.
struct Args<'a> {
    ctx: &'a Ctx<'a>,
    call: &'a FunctionCall,
    offset: Option<BoundExpr>,
    default: Option<BoundExpr>,
}

impl Args<'_> {
    /// Row `i`'s signed offset (LEAD positive, LAG negative); `None` for a
    /// NULL offset, whose row is NULL.
    fn offset_for(&self, i: usize) -> Result<Option<i64>> {
        let raw = match &self.offset {
            None => 1,
            Some(e) => match e.eval(self.ctx.table, self.ctx.rows[i])? {
                Value::Int(x) => x,
                Value::Null => return Ok(None),
                v => {
                    return Err(Error::InvalidArgument(format!(
                        "{}: offset must be an integer, got {v}",
                        self.call.kind.name()
                    )))
                }
            },
        };
        // LAG negates; `-i64::MIN` overflows, and an offset of magnitude 2^63
        // is out of range for every representable partition anyway, so
        // saturating to i64::MAX is exact (target arithmetic is checked).
        let lag = self.call.kind == FuncKind::Lag;
        Ok(Some(if lag { raw.checked_neg().unwrap_or(i64::MAX) } else { raw }))
    }

    /// Row `i`'s output when its target falls outside the rows: the default
    /// argument's value, which the interpreter evaluates for that row alone.
    fn default_for(&self, i: usize) -> Result<Lagged> {
        match &self.default {
            Some(d) => d.eval(self.ctx.table, self.ctx.rows[i]).map(Lagged::Default),
            None => Ok(Lagged::Null),
        }
    }
}

/// One row's LEAD/LAG output before the outputs are typed: NULL, the
/// argument at a position, or the row's default.
#[derive(Debug, Clone, Default)]
enum Lagged {
    #[default]
    Null,
    At(usize),
    Default(Value),
}

/// The typed outputs of `lagged`, gathering `At` positions from `values`.
/// The defaults of one call share a type, since an expression's type does
/// not depend on the row; when it is not the argument's, they form the
/// outputs' second lane.
fn lagged_outputs(values: &Column, lagged: Vec<Lagged>) -> Result<Outputs> {
    let at = |l: &Lagged| match l {
        Lagged::At(p) => Some(*p),
        _ => None,
    };
    let main = values.gather(lagged.iter().map(at));
    let first = lagged.iter().find_map(|l| match l {
        Lagged::Default(v) => v.data_type(),
        _ => None,
    });
    let Some(dt) = first else { return Ok(main.into()) };
    let mut defaults = Column::new_empty(dt);
    for l in lagged {
        defaults.push(match l {
            Lagged::Default(v) => v,
            _ => Value::Null,
        })?;
    }
    Ok(Outputs::lanes(main, defaults))
}

/// `base + off` as a bounds-checked position: `None` when the target falls
/// outside `[0, len)` or the addition overflows (equivalent, since any
/// overflowing target is out of range for every representable `len`).
pub(crate) fn target_position(base: usize, off: i64, len: usize) -> Option<usize> {
    (base as i64).checked_add(off).and_then(|t| usize::try_from(t).ok()).filter(|&t| t < len)
}

/// Classic LEAD/LAG: positional within the partition, frame ignored — this is
/// the SQL:2011 behaviour when no function-level ORDER BY is given. It probes
/// no index, so no strategy has anything to choose; it is the one family
/// whose target leaves the frame, so it reads the row's segment instead.
fn evaluate_classic(args: &Args<'_>, cp: &CallPlan) -> Result<Outputs> {
    let Args { ctx, call, .. } = *args;
    let values = ctx.values_art(cp)?;
    // IGNORE NULLS: the n-th non-null value before/after the current row.
    let non_null: Vec<usize> = if call.ignore_nulls {
        (0..ctx.m()).filter(|&i| values.is_valid(i)).collect()
    } else {
        Vec::new()
    };
    let lagged = ctx.probe(|i| {
        let Some(off) = args.offset_for(i)? else {
            return Ok(Lagged::Null);
        };
        // Offset 0 is the current row itself, per SQL — even under IGNORE
        // NULLS (an offset of zero never skips anywhere). Handling it up
        // front also keeps the `off - 1` below strictly positive.
        if off == 0 {
            return Ok(Lagged::At(i));
        }
        // The target stays inside the row's partition: its segment.
        let (start, end) = ctx.segment(i);
        let target = if call.ignore_nulls {
            // Position among non-null rows strictly after/before i, within
            // the segment's run `lo..hi` of them. All arithmetic is checked:
            // `off` can be anything up to ±i64::MAX.
            let lo = non_null.partition_point(|&p| p < start);
            let hi = lo + non_null[lo..].partition_point(|&p| p < end);
            let idx = non_null.partition_point(|&p| p <= i);
            let target = if off > 0 {
                idx.checked_add(off as usize).and_then(|t| t.checked_sub(1))
            } else {
                let before = non_null.partition_point(|&p| p < i);
                usize::try_from(off.unsigned_abs()).ok().and_then(|o| before.checked_sub(o))
            };
            target.filter(|t| (lo..hi).contains(t)).map(|t| non_null[t])
        } else {
            target_position(i - start, off, end - start).map(|t| start + t)
        };
        match target {
            Some(t) => Ok(Lagged::At(t)),
            None => args.default_for(i),
        }
    })?;
    lagged_outputs(&values, lagged)
}

/// Framed LEAD/LAG with an independent ORDER BY (§4.6): the row's number in
/// its frame by the inner order (`codes`), the offset, and the selection of
/// the row at the adjusted number (`order`) — one row at a time, the second
/// query depending on the first. A row's output is a kept position (into the
/// kept values) or its default.
fn evaluate_framed(
    args: &Args<'_>,
    prep: &rank::RankPrep,
    codes: &impl CountBelow,
    order: &impl Select,
) -> Result<Vec<Lagged>> {
    let ctx = args.ctx;
    ctx.probe_with(|buf: &mut SelectBuf, i| {
        let Some(off) = args.offset_for(i)? else {
            return Ok(Lagged::Null);
        };
        let pieces = prep.kept_pieces(ctx, i);
        let rn0 = prep.rows_before(ctx, codes, i, &pieces);
        // Checked: `off` is unbounded.
        let Some(target) = target_position(rn0, off, pieces.count()) else {
            return args.default_for(i);
        };
        let rank = order.select(&pieces, target, buf).expect("target < frame size");
        Ok(Lagged::At(prep.dc.perm[rank]))
    })
}
