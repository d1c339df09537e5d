//! Exact prefix sums: framed integer `SUM` in O(1) per range.
//!
//! Integer addition has an inverse, so a range sum needs no tree: with
//! `pre[i]` the sum of the first `i` rows, rows `[a, b)` sum to
//! `pre[b] - pre[a]`. The accumulator is 128-bit like [`crate::SumMonoid`]'s,
//! so the result equals the segment tree's whatever the combine order —
//! including a sum past `i64`, which both report and the caller rejects.
//! Floats have no such array: their sum *is* the combine order.

/// Prefix sums over a sequence of `i64` rows.
pub struct PrefixSums {
    pre: Vec<i128>,
}

impl PrefixSums {
    /// Builds from per-row inputs. O(n).
    pub fn build(inputs: &[i64]) -> Self {
        let mut pre = Vec::with_capacity(inputs.len() + 1);
        let mut acc = 0i128;
        pre.push(acc);
        for &x in inputs {
            acc += x as i128;
            pre.push(acc);
        }
        PrefixSums { pre }
    }

    /// The sum of rows `[a, b)`, `a <= b <= n`.
    pub fn query(&self, a: usize, b: usize) -> i128 {
        self.pre[b] - self.pre[a]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{SegmentTree, SumMonoid};

    #[test]
    fn matches_the_segment_tree_past_i64() {
        let vals = [i64::MAX, i64::MAX, -3, i64::MIN, 0, i64::MAX];
        let (pre, tree) = (PrefixSums::build(&vals), SegmentTree::<SumMonoid>::build(&vals, false));
        for a in 0..=vals.len() {
            for b in a..=vals.len() {
                assert_eq!(pre.query(a, b), tree.query(a, b), "[{a}, {b})");
            }
        }
        assert_eq!(pre.query(0, 2), 2 * i64::MAX as i128);
    }
}
