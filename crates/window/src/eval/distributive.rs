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
use crate::column::Column;
use crate::error::{Error, Result};
use crate::order::{float_from_ordinal, float_ordinal};
use crate::plan::{ArtifactKey, CallPlan, SegFlavor};
use crate::spec::{FuncKind, FunctionCall};
use crate::strategy::Strategy;
use crate::value::DataType;
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

/// Encodes a column's values as i64 ordinals for MIN/MAX segment trees, in
/// its type's order (`None` for NULL).
fn encode_ordinals(values: &Column) -> (Vec<Option<i64>>, OrdinalDecode) {
    fn ords<T>(d: &[T], v: &[bool], f: impl Fn(&T) -> i64) -> Vec<Option<i64>> {
        d.iter().enumerate().map(|(i, x)| (v.is_empty() || v[i]).then(|| f(x))).collect()
    }
    match values {
        Column::Int(d, v) => (ords(d, v, |&x| x), OrdinalDecode::Int),
        Column::Date(d, v) => (ords(d, v, |&x| x as i64), OrdinalDecode::Date),
        Column::Float(d, v) => (ords(d, v, |&x| f64_to_ordinal(x)), OrdinalDecode::Float),
        Column::Bool(d, v) => (ords(d, v, |&x| x as i64), OrdinalDecode::Bool),
        Column::Str(d, v) => {
            let mut uniq: Vec<Arc<str>> = d
                .iter()
                .enumerate()
                .filter(|&(i, _)| v.is_empty() || v[i])
                .map(|(_, s)| s.clone())
                .collect();
            uniq.sort_unstable();
            uniq.dedup();
            let ords = ords(d, v, |s| uniq.binary_search(s).expect("string interned") as i64);
            (ords, OrdinalDecode::Str(uniq))
        }
    }
}

/// The values `ords` encode (NULL for `None`), as a column of their type.
fn decode_ordinals(ords: Vec<Option<i64>>, d: &OrdinalDecode) -> Column {
    let ords = ords.into_iter();
    match d {
        OrdinalDecode::Int => Column::from_ints(ords),
        OrdinalDecode::Float => Column::from_floats(ords.map(|o| o.map(ordinal_to_f64))),
        OrdinalDecode::Date => Column::from_dates(ords.map(|o| o.map(|x| x as i32))),
        OrdinalDecode::Bool => Column::from_bools(ords.map(|o| o.map(|x| x != 0))),
        OrdinalDecode::Str(uniq) => {
            Column::Str(uniq.clone(), Vec::new()).gather(ords.map(|o| o.map(|x| x as usize)))
        }
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
) -> Result<Column> {
    let (keys, naive) = (&cp.keys, strategy == Strategy::Naive);
    // A frame's participating rows are those passing FILTER with a non-NULL
    // argument — exactly the mask the plan derived, so its remap counts them.
    let mask = ctx.mask_art(keys)?;
    if matches!(call.kind, FuncKind::CountStar | FuncKind::Count) {
        let counts = ctx.probe(|i| Ok(mask.kept_in(&ctx.frames.range_set(i)) as i64))?;
        return Ok(Column::ints(counts));
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
            let numeric = |t| matches!(t, None | Some(DataType::Int | DataType::Float));
            if let Some(got) = values.first_misfit(numeric) {
                return Err(Error::TypeMismatch { expected: "numeric", got, context: "SUM/AVG" });
            }
            if values.data_type() == DataType::Float && values.any_valid() {
                // Float addition is order-sensitive: a naive call folds, per
                // segment, the very tree the cache would hold for its
                // partition (uncached), so the combine order — hence every
                // bit — agrees.
                let data = seg_trees::<SumF64Monoid>(ctx, keys.seg(SegFlavor::SumF64), || {
                    inputs(&mask.keep, 0.0, |i| values.f64_at(i))
                })?;
                let sums = probe_fold(ctx, &mask, &*data, |s, cnt| {
                    Ok(if avg { s / cnt as f64 } else { s })
                })?;
                Ok(Column::from_floats(sums))
            } else {
                // Integer addition has an inverse: no tree on either arm, and
                // AVG divides the exact sum (one rounding).
                let data: Arc<IntSums> = ctx.artifact(keys.seg(SegFlavor::SumI64), || {
                    let ints = inputs(&mask.keep, 0, |i| values.i64_at(i));
                    Ok(IntSums { sums: PrefixSums::build(&ints), rows: ints.len() })
                })?;
                if avg {
                    let avgs =
                        probe_fold(ctx, &mask, &data.sums, |s, cnt| Ok(s as f64 / cnt as f64))?;
                    Ok(Column::from_floats(avgs))
                } else {
                    let sums = probe_fold(ctx, &mask, &data.sums, |s, _| {
                        i64::try_from(s).map_err(|_| Error::Overflow("SUM"))
                    })?;
                    Ok(Column::from_ints(sums))
                }
            }
        }
        FuncKind::Min | FuncKind::Max => {
            let enc: Arc<OrdEnc> = ctx.artifact(keys.ordinal_enc(), || {
                let (ords, decode) = encode_ordinals(&values);
                Ok(OrdEnc { ords, decode })
            })?;
            let ords = |neutral: i64| inputs(&mask.keep, neutral, |i| enc.ords[i]);
            let data = if call.kind == FuncKind::Min {
                data_index::<MinMonoid>(ctx, naive, keys.seg(SegFlavor::Min), || ords(i64::MAX))?
            } else {
                data_index::<MaxMonoid>(ctx, naive, keys.seg(SegFlavor::Max), || ords(i64::MIN))?
            };
            let folded = probe_fold(ctx, &mask, &*data, |o, _| Ok(o))?;
            Ok(decode_ordinals(folded, &enc.decode))
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
fn probe_fold<T, O: Clone + Send>(
    ctx: &Ctx<'_>,
    mask: &MaskArtifact,
    data: &dyn Fold<T>,
    emit: impl Fn(T, usize) -> Result<O> + Send + Sync,
) -> Result<Vec<Option<O>>> {
    ctx.probe(|i| {
        let pieces = ctx.frames.range_set(i);
        match mask.kept_in(&pieces) {
            0 => Ok(None),
            cnt => emit(data.fold(&pieces), cnt).map(Some),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Value;

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
        let (ords, d) = encode_ordinals(&Column::from_values(&vals).unwrap());
        assert_eq!(ords, vec![Some(1), None, Some(0), Some(1)]);
        let decoded = decode_ordinals(vec![Some(0), Some(1), None], &d);
        assert_eq!(decoded.to_values(), vec![Value::str("a"), Value::str("b"), Value::Null]);
    }

    /// Every type's ordinals keep its order and decode to its values, bit
    /// for bit, in a column of its type.
    #[test]
    fn ordinals_roundtrip_every_type() {
        let columns = [
            Column::ints_opt(vec![Some(3), None, Some(i64::MIN), Some(i64::MAX)]),
            Column::floats_opt(vec![Some(-0.0), Some(0.0), None, Some(-1.5), Some(f64::NAN)]),
            Column::strs(vec!["b", "", "a"]),
            Column::Date(vec![9, 0, -3], vec![true, false, true]),
            Column::bools(vec![true, false]),
        ];
        for col in &columns {
            let (ords, d) = encode_ordinals(col);
            for i in 0..col.len() {
                for j in 0..col.len() {
                    if col.is_valid(i) && col.is_valid(j) {
                        assert_eq!(ords[i].cmp(&ords[j]), col.cmp_rows(i, j), "{col:?}");
                    }
                }
            }
            let back = decode_ordinals(ords, &d);
            assert_eq!(back.data_type(), col.data_type());
            assert_eq!(format!("{:?}", back.to_values()), format!("{:?}", col.to_values()));
        }
    }
}
