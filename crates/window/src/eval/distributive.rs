//! Framed distributive/algebraic aggregates (SUM, COUNT, AVG, MIN, MAX)
//! without DISTINCT — the classic segment tree path of Leis et al. (§3.2).
//!
//! These are not this paper's contribution, but the engine needs them (a) for
//! completeness, (b) because the paper's algorithms explicitly slot in next
//! to them, and (c) as the distributive backbone the evaluation compares
//! against. Non-monotonic frames are free: segment trees never rely on frame
//! overlap.
//!
//! A tree is built only where the fold needs one. A frame's participating
//! rows are counted by the mask's remap and an integer SUM / AVG subtracts
//! exact prefix sums — one implementation each, whatever the strategy. Float
//! SUM / AVG (the combine order is the result) fold one segment tree per
//! partition on both arms — per segment of a naive call's batch; MIN / MAX
//! (no inverse) fold a segment tree, or for a
//! [`Strategy::Naive`] call scan the same inputs ([`ScanFold`]). The data
//! indexes (whose kind depends on the observed value types) build lazily
//! under data-dependent keys during the probe phase.

use super::primitive::{Fold, ScanFold, SegTrees};
use super::Ctx;
use crate::artifacts::{ArtifactBytes, MaskArtifact};
use crate::error::{Error, Result};
use crate::order::{float_from_ordinal, float_ordinal};
use crate::plan::{ArtifactKey, CallPlan, SegFlavor};
use crate::spec::{FuncKind, FunctionCall};
use crate::strategy::Strategy;
use crate::value::Value;
use holistic_segtree::{MaxMonoid, MinMonoid, Monoid, PrefixSums, SumF64Monoid};
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

/// The cached exact prefix sums of an integer argument (0 where the mask
/// drops the row): the one fold index of integer SUM and AVG, on both arms.
struct IntSums {
    sums: PrefixSums,
    rows: usize,
}

impl ArtifactBytes for IntSums {
    fn bytes_built(&self) -> usize {
        (self.rows + 1) * std::mem::size_of::<i128>()
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
    // A frame's participating rows are those passing FILTER with a non-NULL
    // argument — exactly the mask the plan derived, so its remap counts them.
    let mask = ctx.mask_art(keys)?;
    if matches!(call.kind, FuncKind::CountStar | FuncKind::Count) {
        return ctx.probe(|i| Ok(Value::Int(mask.kept_in(&ctx.frames.range_set(i)) as i64)));
    }

    let values = ctx.values_art(keys)?;
    // A data index's input per position: `of(i)` for a participating row,
    // the monoid's neutral element elsewhere.
    fn inputs<T: Copy>(keep: &[bool], neutral: T, of: impl Fn(usize) -> Option<T>) -> Vec<T> {
        keep.iter().enumerate().map(|(i, &k)| of(i).filter(|_| k).unwrap_or(neutral)).collect()
    }

    match call.kind {
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
            if is_float {
                // Float addition is order-sensitive: a naive call folds, per
                // segment, the very tree the cache would hold for its
                // partition (uncached), so the combine order — hence every
                // bit — agrees.
                let data = seg_trees::<SumF64Monoid>(ctx, keys.seg(SegFlavor::SumF64), || {
                    inputs(&mask.keep, 0.0, |i| values[i].as_f64())
                })?;
                probe_fold(ctx, &mask, &*data, |s, cnt| {
                    Ok(Value::Float(if avg { s / cnt as f64 } else { s }))
                })
            } else {
                // Integer addition has an inverse: no tree on either arm, and
                // AVG divides the exact sum (one rounding).
                let data: Arc<IntSums> = ctx.artifact(keys.seg(SegFlavor::SumI64), || {
                    let ints = inputs(&mask.keep, 0, |i| values[i].as_i64());
                    Ok(IntSums { sums: PrefixSums::build(&ints), rows: ints.len() })
                })?;
                probe_fold(ctx, &mask, &data.sums, |s, cnt| {
                    if avg {
                        Ok(Value::Float(s as f64 / cnt as f64))
                    } else {
                        i64::try_from(s).map(Value::Int).map_err(|_| Error::Overflow("SUM"))
                    }
                })
            }
        }
        FuncKind::Min | FuncKind::Max => {
            let enc: Arc<OrdEnc> = ctx.artifact(keys.ordinal_enc(), || {
                encode_ordinals(&values).map(|(ords, decode)| OrdEnc { ords, decode })
            })?;
            let ords = |neutral: i64| inputs(&mask.keep, neutral, |i| enc.ords[i]);
            let data = if call.kind == FuncKind::Min {
                data_index::<MinMonoid>(ctx, naive, keys.seg(SegFlavor::Min), || ords(i64::MAX))?
            } else {
                data_index::<MaxMonoid>(ctx, naive, keys.seg(SegFlavor::Max), || ords(i64::MIN))?
            };
            probe_fold(ctx, &mask, &*data, |o, _| Ok(decode_ordinal(o, &enc.decode)))
        }
        _ => unreachable!("dispatch guarantees aggregate kind"),
    }
}

/// The segment trees over `inputs()` under `key`, one per segment.
fn seg_trees<M: Monoid>(
    ctx: &Ctx<'_>,
    key: &ArtifactKey,
    inputs: impl FnOnce() -> Vec<M::Input>,
) -> Result<Arc<SegTrees<M>>> {
    ctx.artifact(key, || {
        ctx.count_build(|s| &s.segtree_builds);
        Ok(SegTrees::<M>::build(&inputs(), ctx.starts, ctx.parallel))
    })
}

/// MIN / MAX's fold index over `inputs()`: the segment tree under `key`, or
/// for a naive call a scan of them.
fn data_index<M: Monoid>(
    ctx: &Ctx<'_>,
    naive: bool,
    key: &ArtifactKey,
    inputs: impl FnOnce() -> Vec<M::Input>,
) -> Result<Arc<dyn Fold<M::State>>> {
    Ok(if naive { Arc::new(ScanFold::<M>(inputs())) } else { seg_trees::<M>(ctx, key, inputs)? })
}

/// NULL over a frame without participating rows, otherwise what `emit`
/// makes of the frame's fold and its participating-row count.
fn probe_fold<T>(
    ctx: &Ctx<'_>,
    mask: &MaskArtifact,
    data: &dyn Fold<T>,
    emit: impl Fn(T, usize) -> Result<Value> + Send + Sync,
) -> Result<Vec<Value>> {
    ctx.probe(|i| {
        let pieces = ctx.frames.range_set(i);
        match mask.kept_in(&pieces) {
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
