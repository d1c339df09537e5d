//! Framed distributive/algebraic aggregates (SUM, COUNT, AVG, MIN, MAX)
//! without DISTINCT — the classic segment tree path of Leis et al. (§3.2).
//!
//! These are not this paper's contribution, but the engine needs them (a) for
//! completeness, (b) because the paper's algorithms explicitly slot in next
//! to them, and (c) as the distributive backbone the evaluation compares
//! against. Non-monotonic frames are free: segment trees never rely on frame
//! overlap.
//!
//! The trees come from the artifact cache: the kept-row count tree is shared
//! by every aggregate over the same mask, and the data trees (whose monoid
//! depends on the observed value types) build lazily under data-dependent
//! keys during the probe phase. A [`Strategy::Naive`] call folds the same
//! inputs without them ([`super::primitive::Fold`]'s scan column).

use super::primitive::{Fold, ScanFold};
use super::Ctx;
use crate::artifacts::ArtifactBytes;
use crate::error::{Error, Result};
use crate::order::{float_from_ordinal, float_ordinal};
use crate::plan::{ArtifactKey, CallPlan, SegFlavor};
use crate::spec::{FuncKind, FunctionCall};
use crate::strategy::Strategy;
use crate::value::Value;
use holistic_segtree::{
    MaxMonoid, MinMonoid, Monoid, PrefixSums, SegmentTree, SumF64Monoid, SumMonoid,
};
use std::sync::Arc;

/// Order-preserving i64 encoding of an f64 (total order, NaN greatest).
fn f64_to_ordinal(x: f64) -> i64 {
    (float_ordinal(x) ^ (1 << 63)) as i64
}

/// Inverse of [`f64_to_ordinal`].
fn ordinal_to_f64(i: i64) -> f64 {
    float_from_ordinal((i as u64) ^ (1 << 63))
}

/// How MIN/MAX ordinals decode back into values.
enum OrdinalDecode {
    Int,
    Date,
    Float,
    Bool,
    Str(Vec<Arc<str>>),
}

/// The cached MIN/MAX ordinal encoding (keyed by expression only — the
/// encoding covers all positions, mask-independent).
struct OrdEnc {
    ords: Vec<Option<i64>>,
    decode: OrdinalDecode,
}

impl ArtifactBytes for OrdEnc {
    fn bytes_built(&self) -> usize {
        let table = match &self.decode {
            OrdinalDecode::Str(uniq) => uniq.len() * std::mem::size_of::<Arc<str>>(),
            _ => 0,
        };
        self.ords.len() * std::mem::size_of::<Option<i64>>() + table
    }
}

/// Encodes comparable values as i64 ordinals for MIN/MAX segment trees.
fn encode_ordinals(values: &[Value]) -> Result<(Vec<Option<i64>>, OrdinalDecode)> {
    // Establish the column type from the first non-null value.
    let first = values.iter().find(|v| !v.is_null());
    let decode = match first {
        None | Some(Value::Int(_)) => OrdinalDecode::Int,
        Some(Value::Date(_)) => OrdinalDecode::Date,
        Some(Value::Float(_)) => OrdinalDecode::Float,
        Some(Value::Bool(_)) => OrdinalDecode::Bool,
        Some(Value::Str(_)) => {
            let mut uniq: Vec<Arc<str>> = values
                .iter()
                .filter_map(|v| match v {
                    Value::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect();
            uniq.sort_unstable();
            uniq.dedup();
            OrdinalDecode::Str(uniq)
        }
        Some(Value::Null) => unreachable!(),
    };
    let mut ords = Vec::with_capacity(values.len());
    for v in values {
        let o = match (v, &decode) {
            (Value::Null, _) => None,
            (Value::Int(x), OrdinalDecode::Int) => Some(*x),
            (Value::Int(x), OrdinalDecode::Float) => Some(f64_to_ordinal(*x as f64)),
            (Value::Float(x), OrdinalDecode::Float) => Some(f64_to_ordinal(*x)),
            (Value::Float(x), OrdinalDecode::Int) => Some(f64_to_ordinal(*x)), // promoted below
            (Value::Date(x), OrdinalDecode::Date) => Some(*x as i64),
            (Value::Bool(x), OrdinalDecode::Bool) => Some(*x as i64),
            (Value::Str(s), OrdinalDecode::Str(uniq)) => {
                Some(uniq.binary_search(s).expect("string interned") as i64)
            }
            (v, _) => {
                return Err(Error::TypeMismatch {
                    expected: "homogeneous comparable column",
                    got: v.type_name(),
                    context: "MIN/MAX",
                })
            }
        };
        ords.push(o);
    }
    // Mixed int/float columns: re-encode everything through the float path.
    if matches!(decode, OrdinalDecode::Int) && values.iter().any(|v| matches!(v, Value::Float(_))) {
        let ords = values.iter().map(|v| v.as_f64().map(f64_to_ordinal)).collect();
        return Ok((ords, OrdinalDecode::Float));
    }
    Ok((ords, decode))
}

fn decode_ordinal(o: i64, d: &OrdinalDecode) -> Value {
    match d {
        OrdinalDecode::Int => Value::Int(o),
        OrdinalDecode::Date => Value::Date(o as i32),
        OrdinalDecode::Float => Value::Float(ordinal_to_f64(o)),
        OrdinalDecode::Bool => Value::Bool(o != 0),
        OrdinalDecode::Str(uniq) => Value::Str(uniq[o as usize].clone()),
    }
}

/// Evaluates a non-DISTINCT framed aggregate.
pub(crate) fn evaluate(
    ctx: &Ctx<'_>,
    call: &FunctionCall,
    cp: &CallPlan,
    strategy: Strategy,
) -> Result<Vec<Value>> {
    let (keys, naive) = (&cp.keys, strategy == Strategy::Naive);
    // A frame's participating rows — those passing FILTER with a non-NULL
    // argument, exactly the mask the plan derived — counted by the mask's
    // count tree or, for a naive call, by its remap.
    let count_index = || -> Result<Arc<dyn Fold<u64>>> {
        Ok(if naive { ctx.mask_art(keys)? } else { ctx.count_segtree(keys)? })
    };
    let counted = |count: Arc<dyn Fold<u64>>| {
        ctx.probe(move |i| Ok(Value::Int(count.fold(&ctx.frames.range_set(i)) as i64)))
    };
    if call.kind == FuncKind::CountStar {
        // No argument: only the FILTER mask participates.
        return counted(count_index()?);
    }

    let values = ctx.values_art(keys)?;
    let mask = ctx.mask_art(keys)?;
    let count = count_index()?;
    // A data index's input per position: `of(i)` for a participating row,
    // the monoid's neutral element elsewhere.
    fn inputs<T: Copy>(keep: &[bool], neutral: T, of: impl Fn(usize) -> Option<T>) -> Vec<T> {
        keep.iter().enumerate().map(|(i, &k)| of(i).filter(|_| k).unwrap_or(neutral)).collect()
    }

    match call.kind {
        FuncKind::Count => counted(count),
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
                // Float addition is order-sensitive: a naive call folds the
                // very tree the cache would hold (uncached), so the combine
                // order — hence every bit — agrees.
                let data = seg_tree::<SumF64Monoid>(ctx, keys.seg(SegFlavor::SumF64), || {
                    inputs(&mask.keep, 0.0, |i| values[i].as_f64())
                })?;
                probe_fold(ctx, &*count, &*data, |s, cnt| {
                    Ok(Value::Float(if avg { s / cnt as f64 } else { s }))
                })
            } else {
                let data = data_index::<SumMonoid>(
                    ctx,
                    naive,
                    keys.seg(SegFlavor::SumI64),
                    || inputs(&mask.keep, 0, |i| values[i].as_i64()),
                    |v| Arc::new(PrefixSums::build(&v)),
                )?;
                probe_fold(ctx, &*count, &*data, |s, _| {
                    i64::try_from(s).map(Value::Int).map_err(|_| Error::Overflow("SUM"))
                })
            }
        }
        FuncKind::Min | FuncKind::Max => {
            let enc: Arc<OrdEnc> = ctx.artifact(keys.ordinal_enc(), || {
                encode_ordinals(&values).map(|(ords, decode)| OrdEnc { ords, decode })
            })?;
            let ords = |neutral: i64| inputs(&mask.keep, neutral, |i| enc.ords[i]);
            let data = if call.kind == FuncKind::Min {
                let key = keys.seg(SegFlavor::Min);
                let scan = |v| Arc::new(ScanFold::<MinMonoid>(v)) as _;
                data_index::<MinMonoid>(ctx, naive, key, || ords(i64::MAX), scan)?
            } else {
                let key = keys.seg(SegFlavor::Max);
                let scan = |v| Arc::new(ScanFold::<MaxMonoid>(v)) as _;
                data_index::<MaxMonoid>(ctx, naive, key, || ords(i64::MIN), scan)?
            };
            probe_fold(ctx, &*count, &*data, |o, _| Ok(decode_ordinal(o, &enc.decode)))
        }
        _ => unreachable!("dispatch guarantees aggregate kind"),
    }
}

/// The segment tree over `inputs()` under `key`.
fn seg_tree<M: Monoid>(
    ctx: &Ctx<'_>,
    key: &ArtifactKey,
    inputs: impl FnOnce() -> Vec<M::Input>,
) -> Result<Arc<SegmentTree<M>>> {
    ctx.artifact(key, || {
        ctx.count_build(|s| &s.segtree_builds);
        Ok(SegmentTree::<M>::build(&inputs(), ctx.parallel))
    })
}

/// The fold index over `inputs()`: the segment tree under `key`, or for a
/// naive call what `scan` makes of them.
fn data_index<M: Monoid>(
    ctx: &Ctx<'_>,
    naive: bool,
    key: &ArtifactKey,
    inputs: impl FnOnce() -> Vec<M::Input>,
    scan: impl FnOnce(Vec<M::Input>) -> Arc<dyn Fold<M::State>>,
) -> Result<Arc<dyn Fold<M::State>>> {
    Ok(if naive { scan(inputs()) } else { seg_tree::<M>(ctx, key, inputs)? })
}

/// NULL over a frame without participating rows, otherwise what `emit`
/// makes of the frame's fold and its participating-row count.
fn probe_fold<T>(
    ctx: &Ctx<'_>,
    count: &dyn Fold<u64>,
    data: &dyn Fold<T>,
    emit: impl Fn(T, u64) -> Result<Value> + Send + Sync,
) -> Result<Vec<Value>> {
    ctx.probe(|i| {
        let pieces = ctx.frames.range_set(i);
        match count.fold(&pieces) {
            0 => Ok(Value::Null),
            cnt => emit(data.fold(&pieces), cnt),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::DataType;

    /// The expected output type of MIN/MAX given inputs.
    fn minmax_probe_type(values: &[Value]) -> Result<DataType> {
        let (_, d) = encode_ordinals(values)?;
        Ok(match d {
            OrdinalDecode::Int => DataType::Int,
            OrdinalDecode::Date => DataType::Date,
            OrdinalDecode::Float => DataType::Float,
            OrdinalDecode::Bool => DataType::Bool,
            OrdinalDecode::Str(_) => DataType::Str,
        })
    }

    #[test]
    fn f64_ordinal_roundtrip_and_order() {
        let xs = [f64::NEG_INFINITY, -1.5e300, -1.0, -0.0, 0.0, 1e-300, 1.0, 2.5, f64::INFINITY];
        let ords: Vec<i64> = xs.iter().map(|&x| f64_to_ordinal(x)).collect();
        for w in ords.windows(2) {
            assert!(w[0] <= w[1], "ordinals must be monotone: {w:?}");
        }
        for &x in &xs {
            let back = ordinal_to_f64(f64_to_ordinal(x));
            assert!(back == x || (back == 0.0 && x == 0.0), "{x} -> {back}");
        }
        assert!(f64_to_ordinal(f64::NAN) > f64_to_ordinal(f64::INFINITY));
    }

    #[test]
    fn encode_strings_densely() {
        let vals = vec![Value::str("b"), Value::Null, Value::str("a"), Value::str("b")];
        let (ords, d) = encode_ordinals(&vals).unwrap();
        assert_eq!(ords, vec![Some(1), None, Some(0), Some(1)]);
        assert_eq!(decode_ordinal(0, &d), Value::str("a"));
        assert_eq!(decode_ordinal(1, &d), Value::str("b"));
    }

    #[test]
    fn mixed_int_float_promotes() {
        let vals = vec![Value::Int(2), Value::Float(1.5)];
        let (ords, _) = encode_ordinals(&vals).unwrap();
        assert!(ords[0] > ords[1]);
        assert_eq!(minmax_probe_type(&vals).unwrap(), DataType::Float);
    }

    #[test]
    fn incomparable_mix_errors() {
        let vals = vec![Value::Int(2), Value::str("x")];
        assert!(encode_ordinals(&vals).is_err());
    }
}
