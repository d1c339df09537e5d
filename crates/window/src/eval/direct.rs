//! Direct (cacheless) per-partition evaluation — the strategy layer's
//! "naive" path for partitions too small to amortize preprocessing.
//!
//! Every function here recomputes exactly what the cached evaluators derive
//! from artifacts, but locally, serially, and without an [`crate::artifacts::ArtifactCache`]:
//! no `Arc` slots, no key clones, no footprint accounting. The cost model
//! routes partitions below the crossover here (`Strategy::Naive`), so on
//! many-small-partitions workloads the per-partition constant drops from
//! "cache + tree build" to "a handful of `Vec`s".
//!
//! **Bit-identity contract**: outputs must equal the merge-sort-tree path
//! bit for bit, including float results and error cases, because the
//! differential fuzzer pins adaptive ≡ forced-MST. Integer counting and
//! selection are exact by construction; the single hazard is float SUM/AVG,
//! whose result depends on combine order — so that one case builds the same
//! `SegmentTree<SumF64Monoid>` the cached path builds (serial build; the
//! node values are combine-order-identical either way) instead of a running
//! sum.

use crate::artifacts::MaskArtifact;
use crate::error::{Error, Result};
use crate::eval::distributive::{decode_ordinal, encode_ordinals};
use crate::eval::leadlag::target_position;
use crate::eval::rank::{code_bounds, earlier_pieces, ntile_of};
use crate::eval::{cont_rank, cume_dist, disc_rank, fraction_arg, percent_rank};
use crate::frame::ResolvedFrames;
use crate::hash::hash_value;
use crate::order::{dense_codes_for, KeyColumns};
use crate::plan::{sort_keys_of, ArtifactKey, CallPlan, CanonicalSortKey, OrderKey};
use crate::spec::{FuncKind, FunctionCall};
use crate::table::Table;
use crate::value::Value;
use holistic_core::codes::DenseCodes;
use holistic_core::index::fits_u32;
use holistic_core::RangeSet;
use holistic_segtree::{SegmentTree, SumF64Monoid};
use rustc_hash::{FxHashMap, FxHashSet};
use std::borrow::Cow;
use std::sync::Arc;

/// Evaluation context of one partition on the direct path. Deliberately has
/// no cache and no parallelism: the strategy layer only routes partitions
/// here when the whole evaluation is cheaper than building anything.
pub(crate) struct DirectCtx<'a> {
    /// The full table.
    pub table: &'a Table,
    /// Partition positions → table rows, in window order.
    pub rows: &'a [usize],
    /// Resolved frames (per position).
    pub frames: &'a ResolvedFrames,
    /// Query-level inner ORDER BY key columns (hoisted by the executor so
    /// rank/selection calls over many small partitions still evaluate their
    /// criterion expressions once, not once per partition).
    pub inner_keys: &'a FxHashMap<Vec<CanonicalSortKey>, Arc<KeyColumns>>,
}

impl<'a> DirectCtx<'a> {
    fn m(&self) -> usize {
        self.rows.len()
    }

    /// Evaluates an expression for every position (in window order).
    fn eval_positions(&self, expr: &crate::expr::Expr) -> Result<Vec<Value>> {
        let bound = expr.bind(self.table)?;
        self.rows.iter().map(|&r| bound.eval(self.table, r)).collect()
    }

    /// The call's kept-row mask, built locally: `mask_art`'s flags, evaluated
    /// by the interpreter.
    fn mask_of(&self, cp: &CallPlan) -> Result<MaskArtifact> {
        let ArtifactKey::Mask(mk) = cp.keys.mask() else { unreachable!("mask key") };
        let m = self.m();
        let mut keep = match &mk.filter {
            None => vec![true; m],
            Some(f) => {
                let bound = f.to_expr().bind(self.table)?;
                self.rows
                    .iter()
                    .map(|&r| Ok(bound.eval(self.table, r)?.is_truthy()))
                    .collect::<Result<Vec<bool>>>()?
            }
        };
        if let Some(screen) = &mk.screen {
            let vals = self.eval_positions(&screen.to_expr())?;
            for (i, k) in keep.iter_mut().enumerate() {
                *k = *k && !vals[i].is_null();
            }
        }
        Ok(MaskArtifact::build(keep, self.rows))
    }

    /// The call's argument values, one per position.
    fn values_of(&self, cp: &CallPlan) -> Result<Vec<Value>> {
        let ArtifactKey::Values(e) = cp.keys.values() else { unreachable!("values key") };
        self.eval_positions(&e.to_expr())
    }

    /// Inner ORDER BY key columns: hoisted from the query-level map when
    /// present, evaluated locally otherwise.
    fn keys_for(&self, ks: &[CanonicalSortKey]) -> Result<Arc<KeyColumns>> {
        if let Some(kc) = self.inner_keys.get(ks) {
            return Ok(Arc::clone(kc));
        }
        Ok(Arc::new(KeyColumns::evaluate(self.table, &sort_keys_of(ks))?))
    }

    /// Frame pieces of row `i` remapped to kept space.
    fn kept_pieces(&self, mask: &MaskArtifact, i: usize) -> RangeSet {
        mask.remap.range_set(&self.frames.range_set(i))
    }
}

/// Values per kept position: the per-position vector itself when the mask
/// drops nothing, cloned out of it otherwise.
fn kept_values<'a>(values: &'a [Value], mask: &MaskArtifact) -> Cow<'a, [Value]> {
    if mask.kept_len() == values.len() {
        return Cow::Borrowed(values);
    }
    Cow::Owned((0..mask.kept_len()).map(|k| values[mask.remap.to_position(k)].clone()).collect())
}

/// Kept rows of `pieces` whose unique code is `< c` — the direct equivalent
/// of the code tree's `count_below_multi`.
fn count_below(dc: &DenseCodes, pieces: &RangeSet, c: usize) -> usize {
    let mut n = 0;
    for (a, b) in pieces.iter() {
        for k in a..b {
            if dc.code[k] < c {
                n += 1;
            }
        }
    }
    n
}

/// Evaluates one call directly. The output (values and errors) is
/// bit-identical to [`super::evaluate_call`] over the same partition.
pub(crate) fn evaluate(
    dctx: &DirectCtx<'_>,
    call: &FunctionCall,
    cp: &CallPlan,
) -> Result<Vec<Value>> {
    use FuncKind::*;
    match call.kind {
        CountStar | Count | Sum | Avg | Min | Max => {
            if call.distinct {
                match call.kind {
                    Min | Max => distributive(dctx, call, cp),
                    CountStar => {
                        Err(Error::InvalidArgument("COUNT(DISTINCT *) is not valid SQL".into()))
                    }
                    Count => count_distinct(dctx, cp),
                    _ => unreachable!("strategy layer never routes SUM/AVG DISTINCT directly"),
                }
            } else {
                distributive(dctx, call, cp)
            }
        }
        RowNumber | Rank | PercentRank | CumeDist | Ntile => rank_family(dctx, call, cp),
        DenseRank => dense_rank(dctx, cp),
        PercentileDisc | PercentileCont | Median | FirstValue | LastValue | NthValue => {
            select_based(dctx, call, cp)
        }
        Lead | Lag => leadlag(dctx, call, cp),
        Mode => mode(dctx, cp),
    }
}

/// SUM / COUNT / AVG / MIN / MAX without DISTINCT (plus MIN/MAX DISTINCT,
/// which are semantically identical to their plain forms).
fn distributive(dctx: &DirectCtx<'_>, call: &FunctionCall, cp: &CallPlan) -> Result<Vec<Value>> {
    let m = dctx.m();

    if call.kind == FuncKind::CountStar {
        // COUNT(*) has no argument: only the FILTER mask participates.
        let mask = dctx.mask_of(cp)?;
        return (0..m)
            .map(|i| {
                let mut n = 0usize;
                for (a, b) in dctx.frames.range_set(i).iter() {
                    let (ka, kb) = mask.remap.range(a, b);
                    n += kb - ka;
                }
                Ok(Value::Int(n as i64))
            })
            .collect();
    }

    let values = dctx.values_of(cp)?;
    let mask = dctx.mask_of(cp)?;
    let frame_count = |i: usize| {
        let mut n = 0usize;
        for (a, b) in dctx.frames.range_set(i).iter() {
            let (ka, kb) = mask.remap.range(a, b);
            n += kb - ka;
        }
        n
    };

    match call.kind {
        FuncKind::Count => (0..m).map(|i| Ok(Value::Int(frame_count(i) as i64))).collect(),
        FuncKind::Sum | FuncKind::Avg => {
            let avg = call.kind == FuncKind::Avg;
            let is_float = values.iter().any(|v| matches!(v, Value::Float(_)));
            let bad =
                values.iter().find(|v| !matches!(v, Value::Null | Value::Int(_) | Value::Float(_)));
            if let Some(v) = bad {
                return Err(Error::TypeMismatch {
                    expected: "numeric",
                    got: v.type_name(),
                    context: "SUM/AVG",
                });
            }
            if is_float || avg {
                // Float addition is order-sensitive; build the exact tree the
                // cached path builds so combine order (hence bits) match.
                let inputs: Vec<f64> = (0..m)
                    .map(|i| if mask.keep[i] { values[i].as_f64().unwrap_or(0.0) } else { 0.0 })
                    .collect();
                let tree = SegmentTree::<SumF64Monoid>::build(&inputs, false);
                (0..m)
                    .map(|i| {
                        let cnt = frame_count(i);
                        if cnt == 0 {
                            return Ok(Value::Null);
                        }
                        let s = tree.query_multi(dctx.frames.range_set(i).iter());
                        Ok(Value::Float(if avg { s / cnt as f64 } else { s }))
                    })
                    .collect()
            } else {
                // Integer sums are exact in i128 regardless of order: a
                // prefix array replaces the tree.
                let mut pre = Vec::with_capacity(m + 1);
                pre.push(0i128);
                for i in 0..m {
                    let x = if mask.keep[i] { values[i].as_i64().unwrap_or(0) } else { 0 };
                    pre.push(pre[i] + x as i128);
                }
                (0..m)
                    .map(|i| {
                        if frame_count(i) == 0 {
                            return Ok(Value::Null);
                        }
                        let mut s = 0i128;
                        for (a, b) in dctx.frames.range_set(i).iter() {
                            s += pre[b] - pre[a];
                        }
                        i64::try_from(s).map(Value::Int).map_err(|_| Error::Overflow("SUM"))
                    })
                    .collect()
            }
        }
        FuncKind::Min | FuncKind::Max => {
            let is_min = call.kind == FuncKind::Min;
            let (ords, decode) = encode_ordinals(&values)?;
            let sentinel = if is_min { i64::MAX } else { i64::MIN };
            (0..m)
                .map(|i| {
                    if frame_count(i) == 0 {
                        return Ok(Value::Null);
                    }
                    let mut best = sentinel;
                    for (a, b) in dctx.frames.range_set(i).iter() {
                        for (keep, ord) in mask.keep[a..b].iter().zip(&ords[a..b]) {
                            let cand = if *keep { ord.unwrap_or(sentinel) } else { sentinel };
                            best = if is_min { best.min(cand) } else { best.max(cand) };
                        }
                    }
                    Ok(decode_ordinal(best, &decode))
                })
                .collect()
        }
        _ => unreachable!("distributive dispatch"),
    }
}

/// COUNT(DISTINCT x): distinct kept-value hashes per (remapped) frame. This
/// matches the MST hull-minus-hole-correction result exactly — both count
/// the distinct values present anywhere in the frame pieces.
fn count_distinct(dctx: &DirectCtx<'_>, cp: &CallPlan) -> Result<Vec<Value>> {
    let mask = dctx.mask_of(cp)?;
    let values = dctx.values_of(cp)?;
    let kept = kept_values(&values, &mask);
    let hashes: Vec<u64> = kept.iter().map(hash_value).collect();
    let mut seen: FxHashSet<u64> = FxHashSet::default();
    (0..dctx.m())
        .map(|i| {
            seen.clear();
            for (a, b) in dctx.kept_pieces(&mask, i).iter() {
                seen.extend(&hashes[a..b]);
            }
            Ok(Value::Int(seen.len() as i64))
        })
        .collect()
}

/// RANK / ROW_NUMBER / PERCENT_RANK / CUME_DIST / NTILE by code scanning.
fn rank_family(dctx: &DirectCtx<'_>, call: &FunctionCall, cp: &CallPlan) -> Result<Vec<Value>> {
    let Some(OrderKey::Keys(ks)) = &cp.order else { unreachable!("rank plans carry keys") };
    let keys = dctx.keys_for(ks)?;
    let mask = dctx.mask_of(cp)?;
    let dc = dense_codes_for(&keys, mask.kept_rows(dctx.rows), false);
    let m = dctx.m();

    let row_number = |i: usize, pieces: &RangeSet| -> usize {
        let (gmin, gend, ucode) = code_bounds(dctx.rows, &keys, &mask, &dc, i);
        match ucode {
            Some(c) => count_below(&dc, pieces, c) + 1,
            None => {
                let smaller = count_below(&dc, pieces, gmin);
                let earlier = earlier_pieces(&mask, pieces, i);
                let eq_before = count_below(&dc, &earlier, gend) - count_below(&dc, &earlier, gmin);
                smaller + eq_before + 1
            }
        }
    };

    match call.kind {
        FuncKind::RowNumber => (0..m)
            .map(|i| {
                let pieces = dctx.kept_pieces(&mask, i);
                Ok(Value::Int(row_number(i, &pieces) as i64))
            })
            .collect(),
        FuncKind::Rank => (0..m)
            .map(|i| {
                let pieces = dctx.kept_pieces(&mask, i);
                let (gmin, _, _) = code_bounds(dctx.rows, &keys, &mask, &dc, i);
                Ok(Value::Int((count_below(&dc, &pieces, gmin) + 1) as i64))
            })
            .collect(),
        FuncKind::PercentRank => (0..m)
            .map(|i| {
                let pieces = dctx.kept_pieces(&mask, i);
                let size = pieces.count();
                if size == 0 {
                    return Ok(Value::Null);
                }
                let (gmin, _, _) = code_bounds(dctx.rows, &keys, &mask, &dc, i);
                Ok(Value::Float(percent_rank(count_below(&dc, &pieces, gmin), size)))
            })
            .collect(),
        FuncKind::CumeDist => (0..m)
            .map(|i| {
                let pieces = dctx.kept_pieces(&mask, i);
                let size = pieces.count();
                if size == 0 {
                    return Ok(Value::Null);
                }
                let (_, gend, _) = code_bounds(dctx.rows, &keys, &mask, &dc, i);
                Ok(Value::Float(cume_dist(count_below(&dc, &pieces, gend), size)))
            })
            .collect(),
        FuncKind::Ntile => {
            let buckets_expr = call.args[0].bind(dctx.table)?;
            (0..m)
                .map(|i| {
                    let b = match buckets_expr.eval(dctx.table, dctx.rows[i])? {
                        Value::Int(x) if x >= 1 => x as usize,
                        Value::Null => return Ok(Value::Null),
                        v => {
                            return Err(Error::InvalidArgument(format!(
                                "ntile: bucket count must be a positive integer, got {v}"
                            )))
                        }
                    };
                    let pieces = dctx.kept_pieces(&mask, i);
                    let size = pieces.count();
                    if size == 0 {
                        return Ok(Value::Null);
                    }
                    let rn = row_number(i, &pieces);
                    Ok(Value::Int(ntile_of(rn, size, b) as i64))
                })
                .collect()
        }
        _ => unreachable!("rank dispatch"),
    }
}

/// DENSE_RANK: distinct smaller-key tie groups present in the frame pieces
/// (the range tree's hull count minus its hole-only correction equals
/// exactly this).
fn dense_rank(dctx: &DirectCtx<'_>, cp: &CallPlan) -> Result<Vec<Value>> {
    if !fits_u32(dctx.m() + 1) {
        return Err(Error::Unsupported("DENSE_RANK partitions beyond u32 positions".into()));
    }
    let Some(OrderKey::Keys(ks)) = &cp.order else { unreachable!("rank plans carry keys") };
    let keys = dctx.keys_for(ks)?;
    let mask = dctx.mask_of(cp)?;
    let dc = dense_codes_for(&keys, mask.kept_rows(dctx.rows), false);
    let mut groups: FxHashSet<usize> = FxHashSet::default();
    (0..dctx.m())
        .map(|i| {
            let (gmin, _, _) = code_bounds(dctx.rows, &keys, &mask, &dc, i);
            let gcount = if gmin == 0 { 0 } else { dc.group_id[dc.perm[gmin - 1]] + 1 };
            groups.clear();
            for (a, b) in dctx.kept_pieces(&mask, i).iter() {
                for k in a..b {
                    let g = dc.group_id[k];
                    if g < gcount {
                        groups.insert(g);
                    }
                }
            }
            Ok(Value::Int((groups.len() + 1) as i64))
        })
        .collect()
}

/// Percentiles and value functions by per-row gather-and-sort selection.
fn select_based(dctx: &DirectCtx<'_>, call: &FunctionCall, cp: &CallPlan) -> Result<Vec<Value>> {
    let order = cp.order.as_ref().expect("selection plans always carry an order");
    let mask = dctx.mask_of(cp)?;
    let values = dctx.values_of(cp)?;
    let kept_out = kept_values(&values, &mask);
    let dc = match order {
        OrderKey::Identity => None,
        OrderKey::Keys(ks) => {
            let keys = dctx.keys_for(ks)?;
            Some(dense_codes_for(&keys, mask.kept_rows(dctx.rows), false))
        }
    };
    let m = dctx.m();

    // Per-row selection keys, ascending: unique codes under an explicit
    // order, kept positions themselves under the identity order (a RangeSet
    // iterates ascending, so no sort is needed there).
    let mut buf: Vec<usize> = Vec::new();
    let gather = |pieces: &RangeSet, buf: &mut Vec<usize>| {
        buf.clear();
        for (a, b) in pieces.iter() {
            match &dc {
                None => buf.extend(a..b),
                Some(dc) => buf.extend((a..b).map(|k| dc.code[k])),
            }
        }
        if dc.is_some() {
            buf.sort_unstable();
        }
    };
    let kp_of = |x: usize| match &dc {
        Some(dc) => dc.perm[x],
        None => x,
    };

    match call.kind {
        FuncKind::PercentileDisc | FuncKind::Median => {
            let p = fraction_arg(dctx.table, dctx.rows, call)?;
            (0..m)
                .map(|i| {
                    let pieces = dctx.kept_pieces(&mask, i);
                    let s = pieces.count();
                    if s == 0 {
                        return Ok(Value::Null);
                    }
                    gather(&pieces, &mut buf);
                    Ok(kept_out[kp_of(buf[disc_rank(p, s)])].clone())
                })
                .collect()
        }
        FuncKind::PercentileCont => {
            let p = fraction_arg(dctx.table, dctx.rows, call)?;
            if let Some(v) = kept_out.iter().find(|v| v.as_f64().is_none()) {
                return Err(Error::TypeMismatch {
                    expected: "numeric",
                    got: v.type_name(),
                    context: "percentile_cont",
                });
            }
            (0..m)
                .map(|i| {
                    let pieces = dctx.kept_pieces(&mask, i);
                    let s = pieces.count();
                    if s == 0 {
                        return Ok(Value::Null);
                    }
                    gather(&pieces, &mut buf);
                    let at =
                        |j: usize| kept_out[kp_of(buf[j])].as_f64().expect("checked numeric above");
                    let cr = cont_rank(p, s);
                    Ok(Value::Float(cr.interpolate(at(cr.lo), || at(cr.hi))))
                })
                .collect()
        }
        FuncKind::FirstValue => (0..m)
            .map(|i| {
                let pieces = dctx.kept_pieces(&mask, i);
                gather(&pieces, &mut buf);
                Ok(match buf.first() {
                    Some(&x) => kept_out[kp_of(x)].clone(),
                    None => Value::Null,
                })
            })
            .collect(),
        FuncKind::LastValue => (0..m)
            .map(|i| {
                let pieces = dctx.kept_pieces(&mask, i);
                gather(&pieces, &mut buf);
                Ok(match buf.last() {
                    Some(&x) => kept_out[kp_of(x)].clone(),
                    None => Value::Null,
                })
            })
            .collect(),
        FuncKind::NthValue => {
            let n_expr = call.args[1].bind(dctx.table)?;
            (0..m)
                .map(|i| {
                    let n = match n_expr.eval(dctx.table, dctx.rows[i])? {
                        Value::Int(x) if x >= 1 => x as usize,
                        Value::Null => return Ok(Value::Null),
                        v => {
                            return Err(Error::InvalidArgument(format!(
                                "nth_value: n must be a positive integer, got {v}"
                            )))
                        }
                    };
                    let pieces = dctx.kept_pieces(&mask, i);
                    gather(&pieces, &mut buf);
                    Ok(match buf.get(n - 1) {
                        Some(&x) => kept_out[kp_of(x)].clone(),
                        None => Value::Null,
                    })
                })
                .collect()
        }
        _ => unreachable!("selection dispatch"),
    }
}

/// LEAD / LAG — classic positional semantics, or the framed extension when
/// the call carries an inner ORDER BY.
fn leadlag(dctx: &DirectCtx<'_>, call: &FunctionCall, cp: &CallPlan) -> Result<Vec<Value>> {
    let m = dctx.m();

    // The per-row signed offset (LEAD positive, LAG negative); `None` output
    // means "emit NULL for this row".
    let offset_of =
        |offset_expr: &Option<crate::expr::BoundExpr>, i: usize| -> Result<Option<i64>> {
            let raw = match offset_expr {
                None => 1,
                Some(e) => match e.eval(dctx.table, dctx.rows[i])? {
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
            Ok(Some(if call.kind == FuncKind::Lag {
                raw.checked_neg().unwrap_or(i64::MAX)
            } else {
                raw
            }))
        };

    if call.inner_order.is_empty() {
        // Classic LEAD/LAG: positional within the partition, frame ignored.
        let values = dctx.values_of(cp)?;
        let offset_expr = call.args.get(1).map(|e| e.bind(dctx.table)).transpose()?;
        let default_expr = call.args.get(2).map(|e| e.bind(dctx.table)).transpose()?;
        let non_null: Vec<usize> = if call.ignore_nulls {
            (0..m).filter(|&i| !values[i].is_null()).collect()
        } else {
            Vec::new()
        };
        return (0..m)
            .map(|i| {
                let default = || -> Result<Value> {
                    Ok(match &default_expr {
                        Some(d) => d.eval(dctx.table, dctx.rows[i])?,
                        None => Value::Null,
                    })
                };
                let Some(off) = offset_of(&offset_expr, i)? else {
                    return Ok(Value::Null);
                };
                if off == 0 {
                    return Ok(values[i].clone());
                }
                if call.ignore_nulls {
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
            .collect();
    }

    // Framed LEAD/LAG (§4.6): row number by inner order, offset, select.
    let mask = dctx.mask_of(cp)?;
    let values = dctx.values_of(cp)?;
    let kept_out = kept_values(&values, &mask);
    let OrderKey::Keys(ks) = cp.order.as_ref().expect("framed lead/lag carries keys") else {
        unreachable!("framed lead/lag order is explicit")
    };
    let keys = dctx.keys_for(ks)?;
    let dc = dense_codes_for(&keys, mask.kept_rows(dctx.rows), false);

    let offset_expr = call.args.get(1).map(|e| e.bind(dctx.table)).transpose()?;
    let default_expr = call.args.get(2).map(|e| e.bind(dctx.table)).transpose()?;

    let mut buf: Vec<usize> = Vec::new();
    (0..m)
        .map(|i| {
            let default = || -> Result<Value> {
                Ok(match &default_expr {
                    Some(d) => d.eval(dctx.table, dctx.rows[i])?,
                    None => Value::Null,
                })
            };
            let Some(off) = offset_of(&offset_expr, i)? else {
                return Ok(Value::Null);
            };
            let pieces = dctx.kept_pieces(&mask, i);
            let s = pieces.count();
            let (gmin, gend, ucode) = code_bounds(dctx.rows, &keys, &mask, &dc, i);
            let rn0 = match ucode {
                Some(c) => count_below(&dc, &pieces, c),
                None => {
                    let smaller = count_below(&dc, &pieces, gmin);
                    let earlier = earlier_pieces(&mask, &pieces, i);
                    let eq_before =
                        count_below(&dc, &earlier, gend) - count_below(&dc, &earlier, gmin);
                    smaller + eq_before
                }
            };
            let Some(target) = target_position(rn0, off, s) else {
                return default();
            };
            buf.clear();
            for (a, b) in pieces.iter() {
                buf.extend((a..b).map(|k| dc.code[k]));
            }
            buf.sort_unstable();
            Ok(kept_out[dc.perm[buf[target]]].clone())
        })
        .collect()
}

/// MODE: count dense value ids per frame; most frequent, smallest id (=
/// smallest value) on ties — the range mode index's exact tie-break.
fn mode(dctx: &DirectCtx<'_>, cp: &CallPlan) -> Result<Vec<Value>> {
    let mask = dctx.mask_of(cp)?;
    let values = dctx.values_of(cp)?;
    let kept = kept_values(&values, &mask);
    // Dense ids in value order, same interning as the mode artifact.
    let mut sorted: Vec<&Value> = kept.iter().collect();
    sorted.sort_by(|a, b| a.sql_cmp(b));
    sorted.dedup_by(|a, b| a.sql_eq(b));
    let decode: Vec<Value> = sorted.iter().map(|v| (*v).clone()).collect();
    let ids: Vec<u32> = kept
        .iter()
        .map(|v| decode.binary_search_by(|probe| probe.sql_cmp(v)).expect("value interned") as u32)
        .collect();

    let mut counts: FxHashMap<u32, usize> = FxHashMap::default();
    (0..dctx.m())
        .map(|i| {
            counts.clear();
            for (a, b) in dctx.kept_pieces(&mask, i).iter() {
                for &id in &ids[a..b] {
                    *counts.entry(id).or_insert(0) += 1;
                }
            }
            let mut best: Option<(u32, usize)> = None;
            for (&id, &cnt) in counts.iter() {
                best = match best {
                    Some((bid, bcnt)) if cnt < bcnt || (cnt == bcnt && id >= bid) => {
                        Some((bid, bcnt))
                    }
                    _ => Some((id, cnt)),
                };
            }
            Ok(match best {
                Some((id, _)) => decode[id as usize].clone(),
                None => Value::Null,
            })
        })
        .collect()
}
