//! Naive per-row evaluation — the O(n · frame) competitor and the semantics
//! oracle.
//!
//! Every function is derived directly from its SQL definition with plain
//! scans over the frame, sharing no evaluation code with the merge sort tree
//! engine (only the frame plumbing, which both sides need to agree on by
//! construction). Partitioning and ordering are the oracle's own: it
//! evaluates the key values itself and compares them with `sql_cmp`, so a
//! fault in the engine's partitioner, its hashes or its normalized integer
//! keys cannot cancel out; frame resolution gets the engine's
//! comparator-form key columns, never the normalized ones.

use holistic_window::error::Result;
use holistic_window::expr::{BoundExpr, Expr};
use holistic_window::frame::{resolve_frames, ResolvedFrames};
use holistic_window::order::{KeyColumns, SortKey};
use holistic_window::spec::{FuncKind, FunctionCall, WindowSpec};
use holistic_window::{Column, Error, Table, Value, WindowQuery};
use std::cmp::Ordering;

/// Executes a window query with the naive algorithm; output matches
/// [`WindowQuery::execute`] row for row.
pub fn execute(query: &WindowQuery, table: &Table) -> Result<Table> {
    let n = table.num_rows();
    for call in &query.calls {
        call.validate()?;
    }
    let partitions = partitions(table, &query.spec.partition_by)?;
    let window_keys = OracleKeys::evaluate(table, &query.spec.order_by)?;
    let frame_keys = KeyColumns::evaluate_comparator(table, &query.spec.order_by)?;

    let mut out_values: Vec<Vec<Value>> =
        query.calls.iter().map(|_| vec![Value::Null; n]).collect();
    for part in &partitions {
        let mut rows = part.clone();
        rows.sort_by(|&a, &b| window_keys.cmp_rows(a, b).then(a.cmp(&b)));
        let frames = resolve_frames(table, &rows, &frame_keys, &query.spec.frame)?;
        for (ci, call) in query.calls.iter().enumerate() {
            let vals = eval_call(table, &rows, &frames, &window_keys, call)?;
            for (pos, &row) in rows.iter().enumerate() {
                out_values[ci][row] = vals[pos].clone();
            }
        }
    }
    let mut out = Table::empty();
    for (ci, call) in query.calls.iter().enumerate() {
        out.add_column(call.output_name.clone(), Column::from_values(&out_values[ci])?)?;
    }
    Ok(out)
}

/// PARTITION BY from its definition: rows whose key values all compare equal
/// under `sql_cmp` (NULL with NULL) form one partition, and partitions come in
/// the order of their first rows. A sort on the oracle's own key values, then
/// adjacent grouping — nothing of the engine's partitioner or hashing.
fn partitions(table: &Table, partition_by: &[Expr]) -> Result<Vec<Vec<usize>>> {
    let mut rows: Vec<usize> = (0..table.num_rows()).collect();
    if partition_by.is_empty() {
        return Ok(vec![rows]);
    }
    let by_key: Vec<SortKey> = partition_by.iter().cloned().map(SortKey::asc).collect();
    let keys = OracleKeys::evaluate(table, &by_key)?;
    rows.sort_by(|&a, &b| keys.cmp_rows(a, b).then(a.cmp(&b)));
    let mut parts: Vec<Vec<usize>> = Vec::new();
    for row in rows {
        match parts.last_mut() {
            Some(part) if keys.cmp_rows(part[0], row).is_eq() => part.push(row),
            _ => parts.push(vec![row]),
        }
    }
    parts.sort_by_key(|part| part[0]);
    Ok(parts)
}

/// True the first time `v` is offered: DISTINCT's equality is `sql_cmp`'s,
/// and `seen` is kept sorted by it. The oracle deduplicates on the values
/// themselves, never on the engine's hashes, so a fault in those cannot
/// cancel out.
fn first_sight<'a>(seen: &mut Vec<&'a Value>, v: &'a Value) -> bool {
    match seen.binary_search_by(|s| s.sql_cmp(v)) {
        Ok(_) => false,
        Err(at) => {
            seen.insert(at, v);
            true
        }
    }
}

/// Shorthand: builds the query from a spec + calls and executes naively.
pub fn execute_spec(table: &Table, spec: WindowSpec, calls: Vec<FunctionCall>) -> Result<Table> {
    let mut q = WindowQuery::over(spec);
    for c in calls {
        q = q.call(c);
    }
    execute(&q, table)
}

/// The oracle's ORDER BY: key values per criterion as it evaluated them,
/// compared by the SQL definition.
struct OracleKeys {
    /// `(value per table row, desc, nulls_first)` per criterion.
    criteria: Vec<(Vec<Value>, bool, bool)>,
}

impl OracleKeys {
    fn evaluate(table: &Table, order_by: &[SortKey]) -> Result<Self> {
        let mut criteria = Vec::with_capacity(order_by.len());
        for key in order_by {
            let bound = key.expr.bind(table)?;
            let vals = (0..table.num_rows()).map(|r| bound.eval(table, r));
            criteria.push((vals.collect::<Result<Vec<Value>>>()?, key.desc, key.nulls_first));
        }
        Ok(OracleKeys { criteria })
    }

    /// Criteria in order; NULLs at the end NULLS FIRST/LAST names, otherwise
    /// `sql_cmp`, reversed for DESC.
    fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        for (vals, desc, nulls_first) in &self.criteria {
            let ord = match (&vals[a], &vals[b]) {
                (Value::Null, Value::Null) => Ordering::Equal,
                (Value::Null, _) if *nulls_first => Ordering::Less,
                (Value::Null, _) => Ordering::Greater,
                (_, Value::Null) if *nulls_first => Ordering::Greater,
                (_, Value::Null) => Ordering::Less,
                (x, y) if *desc => y.sql_cmp(x),
                (x, y) => x.sql_cmp(y),
            };
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }
}

struct NaiveCtx<'a> {
    table: &'a Table,
    rows: &'a [usize],
    frames: &'a ResolvedFrames,
    /// FILTER result per position.
    filter: Vec<bool>,
    /// First-argument value per position (empty if no args).
    arg0: Vec<Value>,
    /// Inner-order keys (falls back to the window keys).
    keys: &'a OracleKeys,
    /// First inner key value per position (percentile output).
    key0: Vec<Value>,
    has_inner_order: bool,
}

impl NaiveCtx<'_> {
    fn m(&self) -> usize {
        self.rows.len()
    }

    /// Frame positions of row `i` (after exclusion), in position order.
    fn frame_positions(&self, i: usize) -> Vec<usize> {
        self.frames.range_set(i).iter().flat_map(|(a, b)| a..b).collect()
    }

    /// Compares two positions by the inner keys, ties by position.
    fn cmp_inner(&self, a: usize, b: usize) -> Ordering {
        self.keys.cmp_rows(self.rows[a], self.rows[b]).then(a.cmp(&b))
    }

    /// Compares by keys only (peer test).
    fn key_cmp(&self, a: usize, b: usize) -> Ordering {
        self.keys.cmp_rows(self.rows[a], self.rows[b])
    }
}

fn eval_call(
    table: &Table,
    rows: &[usize],
    frames: &ResolvedFrames,
    window_keys: &OracleKeys,
    call: &FunctionCall,
) -> Result<Vec<Value>> {
    let m = rows.len();
    let filter: Vec<bool> = match &call.filter {
        None => vec![true; m],
        Some(f) => {
            let b = f.bind(table)?;
            rows.iter().map(|&r| Ok(b.eval(table, r)?.is_truthy())).collect::<Result<Vec<_>>>()?
        }
    };
    let eval_all =
        |e: &BoundExpr| -> Result<Vec<Value>> { rows.iter().map(|&r| e.eval(table, r)).collect() };
    let arg0: Vec<Value> = match call.args.first() {
        Some(e) => eval_all(&e.bind(table)?)?,
        None => Vec::new(),
    };
    let key0: Vec<Value> = match call.inner_order.first() {
        Some(k) => eval_all(&k.expr.bind(table)?)?,
        None => Vec::new(),
    };
    // Rank functions with no inner order fall back to the window ORDER BY as
    // their ranking criterion, matching the engine.
    let inner_keys_owned;
    let keys: &OracleKeys = if call.inner_order.is_empty() {
        window_keys
    } else {
        inner_keys_owned = OracleKeys::evaluate(table, &call.inner_order)?;
        &inner_keys_owned
    };
    let ctx = NaiveCtx {
        table,
        rows,
        frames,
        filter,
        arg0,
        keys,
        key0,
        has_inner_order: !call.inner_order.is_empty(),
    };
    dispatch(&ctx, call)
}

fn dispatch(ctx: &NaiveCtx<'_>, call: &FunctionCall) -> Result<Vec<Value>> {
    let m = ctx.m();
    let mut out = Vec::with_capacity(m);
    for i in 0..m {
        out.push(eval_row(ctx, call, i)?);
    }
    Ok(out)
}

fn eval_row(ctx: &NaiveCtx<'_>, call: &FunctionCall, i: usize) -> Result<Value> {
    use FuncKind::*;
    let fp = ctx.frame_positions(i);
    match call.kind {
        CountStar => Ok(Value::Int(fp.iter().filter(|&&p| ctx.filter[p]).count() as i64)),
        Count if call.distinct => {
            let mut seen = Vec::new();
            let c = fp
                .iter()
                .filter(|&&p| ctx.filter[p] && !ctx.arg0[p].is_null())
                .filter(|&&p| first_sight(&mut seen, &ctx.arg0[p]))
                .count();
            Ok(Value::Int(c as i64))
        }
        Count => Ok(Value::Int(
            fp.iter().filter(|&&p| ctx.filter[p] && !ctx.arg0[p].is_null()).count() as i64,
        )),
        Sum | Avg => {
            let mut seen = Vec::new();
            let mut sum_i: i128 = 0;
            let mut sum_f: f64 = 0.0;
            let mut any_float = false;
            let mut cnt = 0usize;
            for &p in &fp {
                if !ctx.filter[p] || ctx.arg0[p].is_null() {
                    continue;
                }
                if call.distinct && !first_sight(&mut seen, &ctx.arg0[p]) {
                    continue;
                }
                match &ctx.arg0[p] {
                    Value::Int(x) => {
                        sum_i += *x as i128;
                        sum_f += *x as f64;
                    }
                    Value::Float(x) => {
                        any_float = true;
                        sum_f += x;
                    }
                    v => {
                        return Err(Error::TypeMismatch {
                            expected: "numeric",
                            got: v.type_name(),
                            context: "naive SUM/AVG",
                        })
                    }
                }
                cnt += 1;
            }
            if cnt == 0 {
                return Ok(Value::Null);
            }
            Ok(if call.kind == Avg {
                // All-integer frames divide the exact sum: one rounding.
                let sum = if any_float || call.distinct { sum_f } else { sum_i as f64 };
                Value::Float(sum / cnt as f64)
            } else if any_float {
                Value::Float(sum_f)
            } else {
                // The engine's contract past i64: SUM is a typed overflow
                // error, SUM(DISTINCT) degrades to a float.
                match i64::try_from(sum_i) {
                    Ok(x) => Value::Int(x),
                    Err(_) if call.distinct => Value::Float(sum_i as f64),
                    Err(_) => return Err(Error::Overflow("SUM")),
                }
            })
        }
        Min | Max => {
            let mut best: Option<&Value> = None;
            for &p in &fp {
                if !ctx.filter[p] || ctx.arg0[p].is_null() {
                    continue;
                }
                let v = &ctx.arg0[p];
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let lt = v.sql_cmp(b) == Ordering::Less;
                        if (call.kind == Min) == lt {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.cloned().unwrap_or(Value::Null))
        }
        RowNumber => {
            let c = fp
                .iter()
                .filter(|&&p| ctx.filter[p])
                .filter(|&&p| ctx.cmp_inner(p, i) == Ordering::Less)
                .count();
            Ok(Value::Int(c as i64 + 1))
        }
        Rank => {
            let c = fp
                .iter()
                .filter(|&&p| ctx.filter[p])
                .filter(|&&p| ctx.key_cmp(p, i) == Ordering::Less)
                .count();
            Ok(Value::Int(c as i64 + 1))
        }
        DenseRank => {
            let smaller: Vec<usize> = fp
                .iter()
                .copied()
                .filter(|&p| ctx.filter[p] && ctx.key_cmp(p, i) == Ordering::Less)
                .collect();
            let mut distinct = 0usize;
            for (a, &p) in smaller.iter().enumerate() {
                if smaller[..a].iter().all(|&q| ctx.key_cmp(q, p) != Ordering::Equal) {
                    distinct += 1;
                }
            }
            Ok(Value::Int(distinct as i64 + 1))
        }
        PercentRank => {
            let size = fp.iter().filter(|&&p| ctx.filter[p]).count();
            if size == 0 {
                return Ok(Value::Null);
            }
            let rank = fp
                .iter()
                .filter(|&&p| ctx.filter[p])
                .filter(|&&p| ctx.key_cmp(p, i) == Ordering::Less)
                .count()
                + 1;
            Ok(Value::Float(if size <= 1 { 0.0 } else { (rank - 1) as f64 / (size - 1) as f64 }))
        }
        CumeDist => {
            let size = fp.iter().filter(|&&p| ctx.filter[p]).count();
            if size == 0 {
                return Ok(Value::Null);
            }
            let le = fp
                .iter()
                .filter(|&&p| ctx.filter[p])
                .filter(|&&p| ctx.key_cmp(p, i) != Ordering::Greater)
                .count();
            Ok(Value::Float(le as f64 / size as f64))
        }
        Ntile => {
            let b = match call.args[0].bind(ctx.table)?.eval(ctx.table, ctx.rows[i])? {
                Value::Int(x) if x >= 1 => x as usize,
                Value::Null => return Ok(Value::Null),
                v => {
                    return Err(Error::InvalidArgument(format!(
                        "ntile: bucket count must be a positive integer, got {v}"
                    )))
                }
            };
            let size = fp.iter().filter(|&&p| ctx.filter[p]).count();
            if size == 0 {
                return Ok(Value::Null);
            }
            let rn = fp
                .iter()
                .filter(|&&p| ctx.filter[p])
                .filter(|&&p| ctx.cmp_inner(p, i) == Ordering::Less)
                .count()
                + 1;
            // SQL NTILE: first (size % b) buckets hold one extra row.
            let q = size / b;
            let r = size % b;
            let tile = if q == 0 {
                rn
            } else if rn <= r * (q + 1) {
                (rn - 1) / (q + 1) + 1
            } else {
                r + (rn - 1 - r * (q + 1)) / q + 1
            };
            Ok(Value::Int(tile as i64))
        }
        PercentileDisc | PercentileCont | Median => {
            // `validate` (run by `execute`) rejects a fraction that reads a
            // column, so evaluating it at row `i` yields the call's one value.
            let p = if call.kind == Median {
                0.5
            } else {
                match call.args[0].bind(ctx.table)?.eval(ctx.table, ctx.rows[i])?.as_f64() {
                    Some(f) if (0.0..=1.0).contains(&f) => f,
                    other => {
                        return Err(Error::InvalidArgument(format!(
                            "percentile fraction invalid: {other:?}"
                        )))
                    }
                }
            };
            let mut kept: Vec<usize> =
                fp.iter().copied().filter(|&q| ctx.filter[q] && !ctx.key0[q].is_null()).collect();
            kept.sort_by(|&a, &b| ctx.cmp_inner(a, b));
            let s = kept.len();
            if s == 0 {
                return Ok(Value::Null);
            }
            if call.kind == PercentileCont {
                let rn = p * (s - 1) as f64;
                let (lo, hi) = (rn.floor() as usize, rn.ceil() as usize);
                let (x, y) = (
                    ctx.key0[kept[lo]].as_f64().ok_or(Error::TypeMismatch {
                        expected: "numeric",
                        got: "non-numeric",
                        context: "naive percentile_cont",
                    })?,
                    ctx.key0[kept[hi]].as_f64().ok_or(Error::TypeMismatch {
                        expected: "numeric",
                        got: "non-numeric",
                        context: "naive percentile_cont",
                    })?,
                );
                Ok(Value::Float(x + (y - x) * (rn - lo as f64)))
            } else {
                let j = ((p * s as f64).ceil() as usize).clamp(1, s);
                Ok(ctx.key0[kept[j - 1]].clone())
            }
        }
        FirstValue | LastValue | NthValue => {
            let mut kept: Vec<usize> = fp
                .iter()
                .copied()
                .filter(|&q| ctx.filter[q] && (!call.ignore_nulls || !ctx.arg0[q].is_null()))
                .collect();
            if ctx.has_inner_order {
                kept.sort_by(|&a, &b| ctx.cmp_inner(a, b));
            }
            let s = kept.len();
            let j = match call.kind {
                FirstValue => 1,
                LastValue => s,
                NthValue => match call.args[1].bind(ctx.table)?.eval(ctx.table, ctx.rows[i])? {
                    Value::Int(x) if x >= 1 => x as usize,
                    Value::Null => return Ok(Value::Null),
                    v => {
                        return Err(Error::InvalidArgument(format!(
                            "nth_value: n must be a positive integer, got {v}"
                        )))
                    }
                },
                _ => unreachable!(),
            };
            Ok(if j >= 1 && j <= s { ctx.arg0[kept[j - 1]].clone() } else { Value::Null })
        }
        Mode => {
            // Most frequent non-null value; ties resolve to the smallest.
            let mut kept: Vec<&Value> = fp
                .iter()
                .filter(|&&p| ctx.filter[p] && !ctx.arg0[p].is_null())
                .map(|&p| &ctx.arg0[p])
                .collect();
            if kept.is_empty() {
                return Ok(Value::Null);
            }
            kept.sort_by(|a, b| a.sql_cmp(b));
            let mut best: (&Value, usize) = (kept[0], 0);
            let mut run_start = 0usize;
            for i in 0..=kept.len() {
                if i == kept.len() || !kept[i].sql_eq(kept[run_start]) {
                    let len = i - run_start;
                    if len > best.1 {
                        best = (kept[run_start], len);
                    }
                    run_start = i;
                }
            }
            Ok(best.0.clone())
        }
        Lead | Lag => {
            let off_raw = match call.args.get(1) {
                None => 1,
                Some(e) => match e.bind(ctx.table)?.eval(ctx.table, ctx.rows[i])? {
                    Value::Int(x) => x,
                    Value::Null => return Ok(Value::Null),
                    v => {
                        return Err(Error::InvalidArgument(format!(
                            "lead/lag offset must be an integer, got {v}"
                        )))
                    }
                },
            };
            // LAG negates; saturate `-i64::MIN` (out of range for every
            // partition either way, and the target arithmetic is checked).
            let off =
                if call.kind == Lag { off_raw.checked_neg().unwrap_or(i64::MAX) } else { off_raw };
            let default = match call.args.get(2) {
                Some(d) => d.bind(ctx.table)?.eval(ctx.table, ctx.rows[i])?,
                None => Value::Null,
            };
            // `base + off` bounds-checked into [0, len); overflow ≡ out of
            // range.
            let target_position = |base: usize, len: usize| {
                (base as i64)
                    .checked_add(off)
                    .and_then(|t| usize::try_from(t).ok())
                    .filter(|&t| t < len)
            };
            if !ctx.has_inner_order {
                // Classic positional semantics (frame ignored). Offset 0 is
                // the current row, even under IGNORE NULLS.
                if call.ignore_nulls && off != 0 {
                    let nn: Vec<usize> = (0..ctx.m()).filter(|&p| !ctx.arg0[p].is_null()).collect();
                    let target = if off > 0 {
                        let idx = nn.partition_point(|&p| p <= i);
                        idx.checked_add(off as usize).and_then(|t| t.checked_sub(1))
                    } else {
                        let idx = nn.partition_point(|&p| p < i);
                        usize::try_from(off.unsigned_abs()).ok().and_then(|o| idx.checked_sub(o))
                    };
                    return Ok(match target.and_then(|t| nn.get(t)) {
                        Some(&p) => ctx.arg0[p].clone(),
                        None => default,
                    });
                }
                return Ok(match target_position(i, ctx.m()) {
                    Some(t) => ctx.arg0[t].clone(),
                    None => default,
                });
            }
            // Framed semantics (§4.6).
            let mut kept: Vec<usize> = fp
                .iter()
                .copied()
                .filter(|&q| ctx.filter[q] && (!call.ignore_nulls || !ctx.arg0[q].is_null()))
                .collect();
            kept.sort_by(|&a, &b| ctx.cmp_inner(a, b));
            let rn0 = kept.iter().filter(|&&p| ctx.cmp_inner(p, i) == Ordering::Less).count();
            Ok(match target_position(rn0, kept.len()) {
                Some(t) => ctx.arg0[kept[t]].clone(),
                None => default,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_window::col;

    #[test]
    fn partitions_group_by_sql_cmp_in_first_row_order() {
        let t = Table::new(vec![
            ("g", Column::strs(vec!["b", "a", "b", "a", "b", "a"])),
            (
                "f",
                Column::floats_opt(vec![None, Some(0.0), None, Some(-0.0), Some(1.0), Some(0.0)]),
            ),
        ])
        .unwrap();
        assert_eq!(partitions(&t, &[]).unwrap(), vec![vec![0, 1, 2, 3, 4, 5]]);
        assert_eq!(partitions(&t, &[col("g")]).unwrap(), vec![vec![0, 2, 4], vec![1, 3, 5]]);
        assert_eq!(
            partitions(&t, &[col("g"), col("f")]).unwrap(),
            vec![vec![0, 2], vec![1, 5], vec![3], vec![4]]
        );
        let none = Table::new(vec![("g", Column::strs(Vec::<&str>::new()))]).unwrap();
        assert_eq!(partitions(&none, &[]).unwrap(), vec![Vec::<usize>::new()]);
        assert!(partitions(&none, &[col("g")]).unwrap().is_empty());
    }
}
