//! Index remapping for FILTER clauses and IGNORE NULLS (§4.5, §4.7).
//!
//! Rows excluded by a FILTER predicate (or NULLs ignored by percentiles and
//! value functions) are simply never inserted into the merge sort tree; frame
//! bounds computed in full-partition positions are then translated into the
//! compacted "kept" space with a prefix-count array. O(n) preprocessing, O(1)
//! per translation.
//!
//! A [`Remap`] has two forms, chosen by [`Remap::new`] from the flags and
//! invisible outside this module:
//!
//! * **compacting** — at least one position is dropped: the prefix-count
//!   array (`n + 1` indices) and the kept-position list (`kept` indices),
//!   `8 × (n + 1 + kept)` bytes;
//! * **identity** — nothing is dropped (no FILTER, no NULL in the argument:
//!   the common case): only `n` is held, every method answers
//!   arithmetically and [`Remap::bytes`] is 0.
//!
//! Both forms clamp range bounds past the partition to `n`, so
//! `range(a, b)` is total on any `a`, `b`. Callers that *skip* the
//! translation under the identity (the incremental COUNT(DISTINCT) borrows
//! the hull frames as they are) rely on [`crate::frame::ResolvedFrames`]'s invariant
//! `start <= end <= n` instead.

use holistic_core::RangeSet;

/// A compaction of partition positions to kept positions.
pub struct Remap(Form);

/// The representation; private, so nothing outside this module can choose
/// or match on it.
enum Form {
    /// All `n` positions kept: kept index = partition position.
    Identity(usize),
    /// At least one position dropped.
    Compacting {
        /// `kept_before[i]` = number of kept positions `< i` (length n+1).
        kept_before: Vec<usize>,
        /// Kept positions in order (kept index → partition position).
        kept: Vec<usize>,
    },
}

impl Remap {
    /// Builds from a keep mask over partition positions: the identity form
    /// when no flag is false (one early-exit scan), the compacting form
    /// otherwise.
    pub fn new(keep: &[bool]) -> Self {
        if keep.iter().all(|&k| k) {
            return Remap::identity(keep.len());
        }
        let mut kept_before = Vec::with_capacity(keep.len() + 1);
        let mut kept = Vec::new();
        let mut c = 0usize;
        kept_before.push(0);
        for (i, &k) in keep.iter().enumerate() {
            if k {
                kept.push(i);
                c += 1;
            }
            kept_before.push(c);
        }
        Remap(Form::Compacting { kept_before, kept })
    }

    /// The identity remap (everything kept).
    pub fn identity(n: usize) -> Self {
        Remap(Form::Identity(n))
    }

    /// Number of kept positions.
    pub fn kept_len(&self) -> usize {
        match &self.0 {
            Form::Identity(n) => *n,
            Form::Compacting { kept, .. } => kept.len(),
        }
    }

    /// Footprint in bytes of both index arrays (for artifact accounting);
    /// 0 exactly when nothing was dropped.
    pub fn bytes(&self) -> usize {
        match &self.0 {
            Form::Identity(_) => 0,
            Form::Compacting { kept_before, kept } => {
                (kept_before.len() + kept.len()) * std::mem::size_of::<usize>()
            }
        }
    }

    /// True when nothing was dropped.
    pub fn is_identity(&self) -> bool {
        matches!(self.0, Form::Identity(_))
    }

    /// Partition position of kept index `k`.
    #[inline]
    pub fn to_position(&self, k: usize) -> usize {
        match &self.0 {
            Form::Identity(n) => {
                debug_assert!(k < *n);
                k
            }
            Form::Compacting { kept, .. } => kept[k],
        }
    }

    /// Translates a partition-position range into kept space. Bounds past
    /// the partition are clamped to its length.
    #[inline]
    pub fn range(&self, a: usize, b: usize) -> (usize, usize) {
        match &self.0 {
            Form::Identity(n) => (a.min(*n), b.min(*n)),
            Form::Compacting { kept_before, .. } => {
                let n = kept_before.len() - 1;
                (kept_before[a.min(n)], kept_before[b.min(n)])
            }
        }
    }

    /// Translates a multi-piece frame into kept space (pieces may become
    /// empty and vanish).
    pub fn range_set(&self, rs: &RangeSet) -> RangeSet {
        let mut out = RangeSet::empty();
        for (a, b) in rs.iter() {
            let (ka, kb) = self.range(a, b);
            out.push(ka, kb);
        }
        out
    }

    /// True when partition position `i` was kept.
    #[inline]
    pub fn is_kept(&self, i: usize) -> bool {
        match &self.0 {
            Form::Identity(n) => {
                debug_assert!(i < *n);
                true
            }
            Form::Compacting { kept_before, .. } => kept_before[i + 1] > kept_before[i],
        }
    }

    /// Kept index of partition position `i` (only valid when kept).
    #[inline]
    pub fn kept_index(&self, i: usize) -> usize {
        debug_assert!(self.is_kept(i));
        match &self.0 {
            Form::Identity(_) => i,
            Form::Compacting { kept_before, .. } => kept_before[i],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_compaction() {
        let r = Remap::new(&[true, false, true, true, false]);
        assert_eq!(r.kept_len(), 3);
        assert_eq!(r.to_position(0), 0);
        assert_eq!(r.to_position(1), 2);
        assert_eq!(r.to_position(2), 3);
        assert_eq!(r.range(0, 5), (0, 3));
        assert_eq!(r.range(1, 4), (1, 3));
        assert_eq!(r.range(1, 2), (1, 1)); // dropped-only span is empty
        assert!(r.is_kept(0) && !r.is_kept(1));
        assert_eq!(r.kept_index(3), 2);
    }

    #[test]
    fn identity_remap() {
        let r = Remap::identity(4);
        assert!(r.is_identity());
        assert_eq!(r.range(1, 3), (1, 3));
        assert_eq!((r.kept_len(), r.bytes()), (4, 0));
        assert_eq!((r.to_position(3), r.kept_index(3), r.is_kept(0)), (3, 3, true));
        let m = Remap::new(&[true, true]);
        assert!(m.is_identity());
        let m = Remap::new(&[true, false]);
        assert!(!m.is_identity());
    }

    #[test]
    fn range_set_translation() {
        let r = Remap::new(&[true, false, false, true, true, false, true]);
        let rs = RangeSet::from_ranges(&[(0, 2), (3, 6)]);
        let out = r.range_set(&rs);
        assert_eq!(out.iter().collect::<Vec<_>>(), vec![(0, 1), (1, 3)]);
    }

    #[test]
    fn out_of_bounds_clamped() {
        // Both forms clamp to the partition's length.
        let r = Remap::new(&[true, true]);
        assert!(r.is_identity());
        assert_eq!(r.range(0, 10), (0, 2));
        assert_eq!(r.range(7, 10), (2, 2));
        let r = Remap::new(&[true, false, true]);
        assert!(!r.is_identity());
        assert_eq!(r.range(0, 10), (0, 2));
        assert_eq!(r.range(7, 10), (2, 2));
    }

    #[test]
    fn all_dropped() {
        let r = Remap::new(&[false, false]);
        assert_eq!(r.kept_len(), 0);
        assert_eq!(r.range(0, 2), (0, 0));
    }
}
