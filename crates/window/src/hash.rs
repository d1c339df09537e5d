//! Value hashing for distinct-aggregate preprocessing.
//!
//! §6.7: "To make the sorting step independent of the data types used in the
//! query, we do not sort the values themselves but only their hashes. In the
//! absence of hash collisions, this does not deteriorate the runtime." A
//! 64-bit collision among the ≤ 2³² rows of one partition is astronomically
//! unlikely; the test-suite nevertheless cross-checks the hashed path against
//! an exact-key oracle.

use crate::column::Column;
use crate::value::Value;
use rustc_hash::FxHasher;
use std::hash::{Hash, Hasher};

/// Hashes one value with SQL equality semantics: all NULLs share one hash,
/// and `Int(x)` hashes like `Float(x as f64)` whenever that float *is* `x`, so
/// cross-type numeric equality stays consistent with [`Value::sql_eq`].
/// Integers no `f64` represents (some beyond ±2⁵³) hash by their own bits:
/// the distinct paths decide equality on the hash alone, and the rounded
/// float would merge neighbouring integers.
pub fn hash_value(v: &Value) -> u64 {
    match v {
        Value::Null => hash_with(|h| 0u8.hash(h)),
        Value::Int(x) => hash_int(*x),
        Value::Float(x) => hash_float(*x),
        Value::Str(s) => hash_str(s),
        Value::Date(d) => hash_date(*d),
        Value::Bool(b) => hash_bool(*b),
    }
}

/// The hash of every row of `col`: row `i`'s is `hash_value(&col.get(i))`,
/// computed from the typed storage without building the value.
pub(crate) fn hash_column(col: &Column) -> Vec<u64> {
    fn each<T>(d: &[T], v: &[bool], f: impl Fn(&T) -> u64) -> Vec<u64> {
        if v.is_empty() {
            return d.iter().map(f).collect();
        }
        let null = hash_value(&Value::Null);
        d.iter().zip(v).map(|(x, &ok)| if ok { f(x) } else { null }).collect()
    }
    match col {
        Column::Int(d, v) => each(d, v, |&x| hash_int(x)),
        Column::Float(d, v) => each(d, v, |&x| hash_float(x)),
        Column::Str(d, v) => each(d, v, |s| hash_str(s)),
        Column::Date(d, v) => each(d, v, |&x| hash_date(x)),
        Column::Bool(d, v) => each(d, v, |&x| hash_bool(x)),
    }
}

fn hash_with(f: impl FnOnce(&mut FxHasher)) -> u64 {
    let mut h = FxHasher::default();
    f(&mut h);
    h.finish()
}

#[inline]
fn hash_int(x: i64) -> u64 {
    let f = x as f64;
    // Compared in i128: `f as i64` saturates, so `i64::MAX` (rounded up to
    // 2⁶³) would pass for exact in 64 bits.
    if f as i128 == x as i128 {
        hash_with(|h| {
            1u8.hash(h);
            f.to_bits().hash(h);
        })
    } else {
        hash_with(|h| {
            5u8.hash(h);
            x.hash(h);
        })
    }
}

#[inline]
fn hash_float(x: f64) -> u64 {
    // Normalize -0.0 to 0.0 so equal values hash equally.
    let x = if x == 0.0 { 0.0 } else { x };
    hash_with(|h| {
        1u8.hash(h);
        x.to_bits().hash(h);
    })
}

fn hash_str(s: &str) -> u64 {
    hash_with(|h| {
        2u8.hash(h);
        s.as_bytes().hash(h);
    })
}

fn hash_date(d: i32) -> u64 {
    hash_with(|h| {
        3u8.hash(h);
        d.hash(h);
    })
}

fn hash_bool(b: bool) -> u64 {
    hash_with(|h| {
        4u8.hash(h);
        b.hash(h);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_values_hash_equal() {
        assert_eq!(hash_value(&Value::Int(5)), hash_value(&Value::Int(5)));
        assert_eq!(hash_value(&Value::Null), hash_value(&Value::Null));
        assert_eq!(hash_value(&Value::str("ab")), hash_value(&Value::str("ab")));
    }

    #[test]
    fn cross_type_numeric_equality_is_consistent() {
        assert_eq!(hash_value(&Value::Int(3)), hash_value(&Value::Float(3.0)));
        assert_eq!(hash_value(&Value::Float(0.0)), hash_value(&Value::Float(-0.0)));
    }

    #[test]
    fn integers_beyond_f64_precision_stay_distinct() {
        const P53: i64 = 1 << 53;
        let near = [P53, P53 + 1, P53 + 2, P53 + 3, -P53 - 1, i64::MAX, i64::MAX - 1, i64::MIN];
        for (i, a) in near.iter().enumerate() {
            for b in &near[i + 1..] {
                assert_ne!(hash_value(&Value::Int(*a)), hash_value(&Value::Int(*b)), "{a} vs {b}");
            }
        }
        // Exactly representable integers keep the float route at any size.
        for x in [P53, P53 + 2, 1 << 60, i64::MIN] {
            assert_eq!(hash_value(&Value::Int(x)), hash_value(&Value::Float(x as f64)), "{x}");
        }
    }

    #[test]
    fn different_values_usually_differ() {
        assert_ne!(hash_value(&Value::Int(1)), hash_value(&Value::Int(2)));
        assert_ne!(hash_value(&Value::str("a")), hash_value(&Value::str("b")));
        assert_ne!(hash_value(&Value::Null), hash_value(&Value::Int(0)));
        // Date and Int are distinct types (not sql_eq) and hash apart.
        assert_ne!(hash_value(&Value::Date(5)), hash_value(&Value::Int(5)));
    }

    #[test]
    fn typed_rows_hash_as_their_values() {
        let p53 = 1i64 << 53;
        let columns = [
            Column::ints_opt(vec![Some(3), None, Some(p53 + 1), Some(i64::MAX), Some(i64::MIN)]),
            Column::floats_opt(vec![Some(-0.0), Some(0.0), None, Some(f64::NAN), Some(3.0)]),
            Column::strs(vec!["", "a", "ab"]),
            Column::Date(vec![5, 0, -1], vec![true, false, true]),
            Column::bools(vec![true, false]),
        ];
        for col in &columns {
            let want: Vec<u64> = col.to_values().iter().map(hash_value).collect();
            assert_eq!(hash_column(col), want, "{col:?}");
        }
    }
}
