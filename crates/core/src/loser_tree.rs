//! A loser tree (tournament tree) for k-way merging of sorted runs.
//!
//! Multiway merges are the inner loop of the parallel sort's run merge
//! ([`crate::sort::merge_runs`]): with *f* runs every produced element costs
//! O(log f) comparisons instead of the O(f) of a naive head scan. Ties are
//! broken towards the lower run index so merges are deterministic.

/// K-way merge iterator over sorted slices.
///
/// `T` is the element type, `F` the strict-weak-order "less" predicate. Ties
/// always break towards the lower run index, making the merge deterministic
/// and stable across serial/parallel sorts.
pub struct LoserTree<'a, T, F> {
    runs: Vec<&'a [T]>,
    /// Next unconsumed position per run.
    pos: Vec<usize>,
    /// `tree[i]` (for `1 <= i < leaves`) holds the run index that *lost* the
    /// match at internal node `i`; the overall winner is kept separately.
    tree: Vec<u32>,
    winner: u32,
    leaves: usize,
    less: F,
}

impl<'a, T: Copy, F: Fn(&T, &T) -> bool> LoserTree<'a, T, F> {
    /// Builds the tournament over `runs` (each individually sorted by
    /// `less`). Empty runs are allowed; O(total
    /// elements · log fanout) to drain.
    pub fn new(runs: Vec<&'a [T]>, less: F) -> Self {
        let leaves = runs.len().next_power_of_two().max(1);
        let mut lt = LoserTree {
            pos: vec![0; runs.len()],
            tree: vec![u32::MAX; leaves],
            winner: 0,
            leaves,
            runs,
            less,
        };
        lt.winner = if lt.leaves == 1 { 0 } else { lt.seed(1, 0, lt.leaves) };
        lt
    }

    /// Current head of run `r`, if any. Padding leaves (`r >= runs.len()`)
    /// behave like exhausted runs.
    #[inline]
    fn head(&self, r: usize) -> Option<&T> {
        self.runs.get(r).and_then(|run| run.get(self.pos[r]))
    }

    /// Returns true when run `a` beats run `b` (exhausted runs always lose;
    /// ties go to the lower run index).
    #[inline]
    fn beats(&self, a: usize, b: usize) -> bool {
        match (self.head(a), self.head(b)) {
            (Some(x), Some(y)) => {
                if (self.less)(x, y) {
                    true
                } else if (self.less)(y, x) {
                    false
                } else {
                    a < b
                }
            }
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    /// Plays the initial tournament for the subtree rooted at internal node
    /// `node`, covering `span` leaves starting at `first_leaf`; returns the
    /// subtree winner and records losers along the way.
    fn seed(&mut self, node: usize, first_leaf: usize, span: usize) -> u32 {
        if span == 1 {
            return first_leaf as u32;
        }
        let l = self.seed(2 * node, first_leaf, span / 2);
        let r = self.seed(2 * node + 1, first_leaf + span / 2, span / 2);
        let (w, loser) = if self.beats(l as usize, r as usize) { (l, r) } else { (r, l) };
        self.tree[node] = loser;
        w
    }

    /// Pops the globally smallest head element, returning it with its run.
    #[inline]
    pub fn pop(&mut self) -> Option<(T, usize)> {
        let w = self.winner as usize;
        let item = *self.head(w)?;
        self.pos[w] += 1;
        // Replay the matches on the path from the winner's leaf to the root.
        let mut cur = self.winner;
        let mut node = (w + self.leaves) / 2;
        while node >= 1 {
            let opponent = self.tree[node];
            if opponent != u32::MAX && self.beats(opponent as usize, cur as usize) {
                self.tree[node] = cur;
                cur = opponent;
            }
            node /= 2;
        }
        self.winner = cur;
        Some((item, w))
    }

    /// Consumed position of run `r` (the paper's "input iterator", persisted
    /// as cascading pointer snapshots during tree construction).
    #[inline]
    pub fn position(&self, r: usize) -> usize {
        self.pos[r]
    }

    /// Number of input runs.
    #[inline]
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<T: Copy, F: Fn(&T, &T) -> bool>(mut lt: LoserTree<T, F>) -> Vec<T> {
        let mut out = Vec::new();
        while let Some((v, _)) = lt.pop() {
            out.push(v);
        }
        out
    }

    #[test]
    fn merges_two_runs() {
        let a = [1u32, 4, 6];
        let b = [2u32, 3, 7];
        let lt = LoserTree::new(vec![&a[..], &b[..]], |x, y| x < y);
        assert_eq!(drain(lt), vec![1, 2, 3, 4, 6, 7]);
    }

    #[test]
    fn merges_single_run() {
        let a = [5u32, 9];
        let lt = LoserTree::new(vec![&a[..]], |x, y| x < y);
        assert_eq!(drain(lt), vec![5, 9]);
    }

    #[test]
    fn merges_non_power_of_two_runs() {
        let runs: Vec<Vec<u32>> = vec![vec![3, 8], vec![1, 9], vec![2, 7, 10]];
        let slices: Vec<&[u32]> = runs.iter().map(|r| r.as_slice()).collect();
        let lt = LoserTree::new(slices, |x, y| x < y);
        assert_eq!(drain(lt), vec![1, 2, 3, 7, 8, 9, 10]);
    }

    #[test]
    fn handles_empty_runs() {
        let runs: Vec<Vec<u32>> = vec![vec![], vec![4, 5], vec![], vec![1]];
        let slices: Vec<&[u32]> = runs.iter().map(|r| r.as_slice()).collect();
        let lt = LoserTree::new(slices, |x, y| x < y);
        assert_eq!(drain(lt), vec![1, 4, 5]);
    }

    #[test]
    fn all_empty_yields_nothing() {
        let runs: Vec<Vec<u32>> = vec![vec![], vec![]];
        let slices: Vec<&[u32]> = runs.iter().map(|r| r.as_slice()).collect();
        let lt = LoserTree::new(slices, |x, y| x < y);
        assert_eq!(drain(lt), Vec::<u32>::new());
    }

    #[test]
    fn ties_prefer_lower_run_index() {
        let a = [1u32];
        let b = [1u32];
        let mut lt = LoserTree::new(vec![&a[..], &b[..]], |x, y| x < y);
        assert_eq!(lt.pop(), Some((1, 0)));
        assert_eq!(lt.pop(), Some((1, 1)));
        assert_eq!(lt.pop(), None);
    }

    #[test]
    fn positions_track_consumption() {
        let a = [1u32, 3];
        let b = [2u32];
        let mut lt = LoserTree::new(vec![&a[..], &b[..]], |x, y| x < y);
        lt.pop();
        assert_eq!((lt.position(0), lt.position(1)), (1, 0));
        lt.pop();
        assert_eq!((lt.position(0), lt.position(1)), (1, 1));
        assert_eq!(lt.num_runs(), 2);
    }

    #[test]
    fn random_merge_matches_sort() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..60 {
            let nruns = 1 + trial % 9;
            let mut runs: Vec<Vec<u64>> = Vec::new();
            let mut all = Vec::new();
            for _ in 0..nruns {
                let len = rng.gen_range(0..40);
                let mut run: Vec<u64> = (0..len).map(|_| rng.gen_range(0..30)).collect();
                run.sort_unstable();
                all.extend_from_slice(&run);
                runs.push(run);
            }
            all.sort_unstable();
            let slices: Vec<&[u64]> = runs.iter().map(|r| r.as_slice()).collect();
            let lt = LoserTree::new(slices, |x, y| x < y);
            assert_eq!(drain(lt), all);
        }
    }
}
