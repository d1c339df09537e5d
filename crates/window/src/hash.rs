//! Value hashing for distinct-aggregate preprocessing.
//!
//! §6.7: "To make the sorting step independent of the data types used in the
//! query, we do not sort the values themselves but only their hashes. In the
//! absence of hash collisions, this does not deteriorate the runtime." A
//! 64-bit collision among the ≤ 2³² rows of one partition is astronomically
//! unlikely; the test-suite nevertheless cross-checks the hashed path against
//! an exact-key oracle.

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
    let mut h = FxHasher::default();
    match v {
        Value::Null => 0u8.hash(&mut h),
        Value::Int(x) => {
            let f = *x as f64;
            // Compared in i128: `f as i64` saturates, so `i64::MAX`
            // (rounded up to 2⁶³) would pass for exact in 64 bits.
            if f as i128 == *x as i128 {
                1u8.hash(&mut h);
                f.to_bits().hash(&mut h);
            } else {
                5u8.hash(&mut h);
                x.hash(&mut h);
            }
        }
        Value::Float(x) => {
            1u8.hash(&mut h);
            // Normalize -0.0 to 0.0 so equal values hash equally.
            let x = if *x == 0.0 { 0.0 } else { *x };
            x.to_bits().hash(&mut h);
        }
        Value::Str(s) => {
            2u8.hash(&mut h);
            s.as_bytes().hash(&mut h);
        }
        Value::Date(d) => {
            3u8.hash(&mut h);
            d.hash(&mut h);
        }
        Value::Bool(b) => {
            4u8.hash(&mut h);
            b.hash(&mut h);
        }
    }
    h.finish()
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
}
