//! Dense integer code preprocessing for rank functions and inner ORDER BY
//! clauses (Figure 8, §5.1).
//!
//! The merge sort tree stores only integers. All intricacies of SQL ORDER BY
//! clauses (multiple criteria, collations, NULLS LAST, descending order) are
//! handled up front by sorting once and numbering the rows:
//!
//! * `code[i]` — the *unique* code of row `i`: its position in the sort
//!   order with ties broken by row index. One merge sort tree over `code`
//!   answers ROW_NUMBER, RANK and CUME_DIST simultaneously:
//!   - `ROW_NUMBER(i) = count_below(frame, code[i]) + 1`
//!   - `RANK(i)       = count_below(frame, group_min[i]) + 1`
//!   - `CUME_DIST(i)  = count_below(frame, group_end[i]) / frame_size`
//! * `group_min[i]` / `group_end[i]` — the code range `[group_min, group_end)`
//!   of row `i`'s tie group (its *peers* under the ranking criterion).
//! * `group_id[i]` — dense tie-group number, the key for DENSE_RANK's
//!   3-dimensional range query.
//! * `perm[r]` — the row at sort position `r` (the permutation array of §4.5,
//!   used to build the selection tree for percentiles and value functions).

use rayon::prelude::*;

/// Output of [`dense_codes`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DenseCodes {
    /// Unique sort position per row (ties broken by row index).
    pub code: Vec<usize>,
    /// First code of the row's tie group.
    pub group_min: Vec<usize>,
    /// One past the last code of the row's tie group.
    pub group_end: Vec<usize>,
    /// Dense tie-group index per row (0, 1, 2, … in key order).
    pub group_id: Vec<usize>,
    /// `perm[r]` = row index at sort position `r` (inverse of `code`).
    pub perm: Vec<usize>,
    /// Number of distinct tie groups.
    pub num_groups: usize,
}

impl DenseCodes {
    /// Numbers an already sorted permutation: `perm[r]` is the row at sort
    /// position `r`, and `ties_with_previous(&perm, r)` (asked for `r >= 1`
    /// only) tells whether that row's key equals the key of `perm[r - 1]`.
    pub fn from_sorted(
        perm: Vec<usize>,
        ties_with_previous: impl Fn(&[usize], usize) -> bool,
    ) -> DenseCodes {
        let n = perm.len();
        let mut code = vec![0usize; n];
        let mut group_min = vec![0usize; n];
        let mut group_end = vec![0usize; n];
        let mut group_id = vec![0usize; n];
        let mut num_groups = 0usize;
        let mut r = 0;
        while r < n {
            // Tie group [r, e).
            let mut e = r + 1;
            while e < n && ties_with_previous(&perm, e) {
                e += 1;
            }
            for (rank, &row) in perm[r..e].iter().enumerate() {
                code[row] = r + rank;
                group_min[row] = r;
                group_end[row] = e;
                group_id[row] = num_groups;
            }
            num_groups += 1;
            r = e;
        }
        DenseCodes { code, group_min, group_end, group_id, perm, num_groups }
    }
}

/// Sorts rows by `keys` (ties by row index) and numbers them densely.
pub fn dense_codes<K: Ord + Send + Sync>(keys: &[K], parallel: bool) -> DenseCodes {
    let n = keys.len();
    let mut perm: Vec<usize> = (0..n).collect();
    if parallel && n >= 4096 {
        perm.par_sort_unstable_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
    } else {
        perm.sort_unstable_by(|&a, &b| keys[a].cmp(&keys[b]).then(a.cmp(&b)));
    }
    DenseCodes::from_sorted(perm, |perm, r| keys[perm[r]] == keys[perm[r - 1]])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn figure8_style_numbering() {
        // Keys with duplicates; Figure 8 numbers tuples densely by sort order.
        let keys = vec![30i64, 10, 20, 10, 30];
        let dc = dense_codes(&keys, false);
        // Sort order: 10(@1), 10(@3), 20(@2), 30(@0), 30(@4).
        assert_eq!(dc.perm, vec![1, 3, 2, 0, 4]);
        assert_eq!(dc.code, vec![3, 0, 2, 1, 4]);
        assert_eq!(dc.group_min, vec![3, 0, 2, 0, 3]);
        assert_eq!(dc.group_end, vec![5, 2, 3, 2, 5]);
        assert_eq!(dc.group_id, vec![2, 0, 1, 0, 2]);
        assert_eq!(dc.num_groups, 3);
    }

    #[test]
    fn all_distinct() {
        let keys = vec![5i64, 1, 3];
        let dc = dense_codes(&keys, false);
        assert_eq!(dc.code, vec![2, 0, 1]);
        assert_eq!(dc.group_min, dc.code);
        assert_eq!(dc.group_end, vec![3, 1, 2]);
        assert_eq!(dc.num_groups, 3);
    }

    #[test]
    fn empty_input() {
        let dc = dense_codes::<i64>(&[], false);
        assert!(dc.code.is_empty() && dc.perm.is_empty());
        assert_eq!(dc.num_groups, 0);
    }

    #[test]
    fn code_is_inverse_of_perm() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..20 {
            let n = rng.gen_range(0..300);
            let keys: Vec<i64> = (0..n).map(|_| rng.gen_range(0..20)).collect();
            let dc = dense_codes(&keys, false);
            for (r, &row) in dc.perm.iter().enumerate() {
                assert_eq!(dc.code[row], r);
            }
            // Codes are a permutation of 0..n.
            let mut sorted = dc.code.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n as usize).collect::<Vec<_>>());
        }
    }

    #[test]
    fn groups_are_consistent() {
        let mut rng = StdRng::seed_from_u64(9);
        let keys: Vec<i64> = (0..200).map(|_| rng.gen_range(0..10)).collect();
        let dc = dense_codes(&keys, false);
        for i in 0..keys.len() {
            for j in 0..keys.len() {
                if keys[i] == keys[j] {
                    assert_eq!(dc.group_id[i], dc.group_id[j]);
                    assert_eq!(dc.group_min[i], dc.group_min[j]);
                } else if keys[i] < keys[j] {
                    assert!(dc.group_id[i] < dc.group_id[j]);
                    assert!(dc.group_end[i] <= dc.group_min[j]);
                }
            }
            assert!(dc.group_min[i] <= dc.code[i] && dc.code[i] < dc.group_end[i]);
        }
    }

    #[test]
    fn parallel_matches_serial() {
        let mut rng = StdRng::seed_from_u64(10);
        let keys: Vec<i64> = (0..10_000).map(|_| rng.gen_range(0..500)).collect();
        assert_eq!(dense_codes(&keys, true), dense_codes(&keys, false));
    }
}
