//! Tuning parameters of a merge sort tree (§5.1, §6.6).

/// Build parameters of a [`crate::MergeSortTree`].
///
/// * `fanout` (the paper's *f*): each level-ℓ run is the merge of `fanout`
///   level-(ℓ−1) runs. A larger fanout shrinks the tree height — and thereby
///   total memory — exponentially, at the cost of more binary searches per
///   level during queries (bounded by `2·fanout`).
/// * `sampling` (the paper's *k*): cascading pointer bundles are stored for
///   every `sampling`-th element of every run. A larger `k` reduces pointer
///   memory linearly but widens each cascaded refinement search to at most
///   `k + 1` candidates.
///
/// The paper's empirical sweep (Figure 13) selects `f = k = 32` as the default
/// because it is within a few percent of the fastest configuration while using
/// far less memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MstParams {
    /// Merge fanout *f* (≥ 2).
    pub fanout: usize,
    /// Cascading pointer sampling stride *k* (≥ 1).
    pub sampling: usize,
    /// Build in parallel with rayon: the sort of the keys, and one scatter
    /// task per run on every level of several runs. Queries are unaffected.
    pub parallel: bool,
}

impl Default for MstParams {
    fn default() -> Self {
        MstParams { fanout: 32, sampling: 32, parallel: true }
    }
}

impl MstParams {
    /// Parameters with the given fanout and sampling stride (parallel build).
    pub fn new(fanout: usize, sampling: usize) -> Self {
        let p = MstParams { fanout, sampling, ..Self::default() };
        p.validate();
        p
    }

    /// Disables parallel construction (used by the single-threaded parameter
    /// sweep of Figure 13).
    pub fn serial(mut self) -> Self {
        self.parallel = false;
        self
    }

    /// Panics if the parameters are out of their documented domains.
    pub fn validate(&self) {
        assert!(self.fanout >= 2, "merge sort tree fanout must be at least 2");
        assert!(self.sampling >= 1, "cascading pointer sampling stride must be at least 1");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let p = MstParams::default();
        assert_eq!(p.fanout, 32);
        assert_eq!(p.sampling, 32);
        assert!(p.parallel);
    }

    #[test]
    fn serial_toggles_parallel_only() {
        let p = MstParams::new(8, 4).serial();
        assert_eq!(p.fanout, 8);
        assert_eq!(p.sampling, 4);
        assert!(!p.parallel);
    }

    #[test]
    #[should_panic(expected = "fanout")]
    fn rejects_fanout_one() {
        MstParams::new(1, 32);
    }

    #[test]
    #[should_panic(expected = "sampling")]
    fn rejects_sampling_zero() {
        MstParams::new(2, 0);
    }
}
