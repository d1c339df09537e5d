//! A counted B-tree — the order-statistic-tree competitor (§5.5).
//!
//! The paper benchmarks windowed percentiles against "an open-source
//! implementation of order statistic B-Trees" (Tatham's counted B-trees): a
//! B-tree whose nodes carry subtree sizes, giving O(log n) `insert`,
//! `remove`, `select` (k-th smallest) and `rank` (count of smaller elements)
//! over a multiset. Sliding a frame costs O(log n) per row — O(n log n)
//! total — but the structure is inherently serial: task-based parallelism
//! must rebuild it per task (§3.2), which [`crate::taskpar`] makes visible.
//!
//! Implementation: CLRS-style B-tree with minimum degree `T`, duplicates
//! allowed (an element equal to a separator key goes left, so `rank` returns
//! the count of *strictly smaller* elements).

use crate::incremental::OrderedMultiset;

const T: usize = 16; // minimum degree: nodes hold T-1 ..= 2T-1 keys

#[derive(Clone)]
struct Node<K> {
    keys: Vec<K>,
    #[allow(clippy::vec_box)] // children move during splits/merges; boxing keeps those moves O(1)
    children: Vec<Box<Node<K>>>,
    /// Total number of keys in this subtree.
    size: usize,
}

impl<K> Node<K> {
    fn leaf() -> Self {
        Node { keys: Vec::with_capacity(2 * T - 1), children: Vec::new(), size: 0 }
    }

    fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    fn recount(&mut self) {
        self.size = self.keys.len() + self.children.iter().map(|c| c.size).sum::<usize>();
    }
}

/// An order-statistic multiset of keys (`i64` unless named).
pub struct OrderStatisticTree<K = i64> {
    root: Box<Node<K>>,
}

impl<K: Copy + Ord> Default for OrderStatisticTree<K> {
    fn default() -> Self {
        Self::new()
    }
}

impl<K: Copy + Ord> OrderStatisticTree<K> {
    /// An empty tree.
    pub fn new() -> Self {
        OrderStatisticTree { root: Box::new(Node::leaf()) }
    }

    /// Number of stored elements.
    pub fn len(&self) -> usize {
        self.root.size
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn insert_nonfull(node: &mut Node<K>, v: K) {
        node.size += 1;
        if node.is_leaf() {
            let pos = node.keys.partition_point(|&k| k < v);
            node.keys.insert(pos, v);
            return;
        }
        let mut idx = node.keys.partition_point(|&k| k < v);
        if node.children[idx].keys.len() == 2 * T - 1 {
            split_child_of(node, idx);
            if v > node.keys[idx] {
                idx += 1;
            }
        }
        Self::insert_nonfull(&mut node.children[idx], v);
    }

    /// Number of elements strictly smaller than `v`. O(log n).
    pub fn rank(&self, v: K) -> usize {
        let mut node = &self.root;
        let mut acc = 0usize;
        loop {
            let idx = node.keys.partition_point(|&k| k < v);
            acc += idx;
            if node.is_leaf() {
                return acc;
            }
            acc += node.children[..idx].iter().map(|c| c.size).sum::<usize>();
            node = &node.children[idx];
        }
    }

    /// The discrete percentile (smallest value with cume_dist ≥ p), if any.
    pub fn percentile_disc(&self, p: f64) -> Option<K> {
        let s = self.len();
        if s == 0 {
            return None;
        }
        let j = ((p * s as f64).ceil() as usize).clamp(1, s);
        self.select(j - 1)
    }
}

/// The counted B-tree's updates and selection: what a
/// [`SortedWindow`](crate::incremental::SortedWindow) slides, in O(log n)
/// per step whatever the frame's width.
impl<K: Copy + Ord> OrderedMultiset<K> for OrderStatisticTree<K> {
    /// O(log n).
    fn insert(&mut self, v: K) {
        if self.root.keys.len() == 2 * T - 1 {
            // Grow: split the root.
            let old_root = std::mem::replace(&mut self.root, Box::new(Node::leaf()));
            self.root.children.push(old_root);
            split_child_of(&mut self.root, 0);
            self.root.recount();
        }
        Self::insert_nonfull(&mut self.root, v);
    }

    /// Panics if `v` is absent. O(log n).
    fn remove(&mut self, v: K) {
        remove_from(&mut self.root, v);
        if !self.root.is_leaf() && self.root.keys.is_empty() {
            // Shrink: the root lost its last separator.
            let child = self.root.children.pop().expect("underflowed root");
            self.root = child;
        }
    }

    /// O(log n).
    fn select(&self, k: usize) -> Option<K> {
        if k >= self.len() {
            return None;
        }
        let mut node = &self.root;
        let mut k = k;
        loop {
            if node.is_leaf() {
                return Some(node.keys[k]);
            }
            for (i, child) in node.children.iter().enumerate() {
                if k < child.size {
                    node = child;
                    break;
                }
                k -= child.size;
                if i < node.keys.len() {
                    if k == 0 {
                        return Some(node.keys[i]);
                    }
                    k -= 1;
                }
            }
        }
    }

    fn count_below(&self, t: K) -> usize {
        self.rank(t)
    }
}

fn split_child_of<K>(parent: &mut Node<K>, idx: usize) {
    let child = &mut parent.children[idx];
    debug_assert_eq!(child.keys.len(), 2 * T - 1);
    let mut right = Box::new(Node::leaf());
    right.keys = child.keys.split_off(T);
    let median = child.keys.pop().expect("full node");
    if !child.is_leaf() {
        right.children = child.children.split_off(T);
    }
    child.recount();
    right.recount();
    parent.keys.insert(idx, median);
    parent.children.insert(idx + 1, right);
}

/// CLRS B-tree deletion, counting-aware. Assumes `v` is present in the
/// subtree; the caller (and `fill`) guarantee non-minimal nodes on descent.
fn remove_from<K: Copy + Ord>(node: &mut Node<K>, v: K) {
    node.size -= 1;
    let idx = node.keys.partition_point(|&k| k < v);
    if idx < node.keys.len() && node.keys[idx] == v {
        if node.is_leaf() {
            node.keys.remove(idx);
            return;
        }
        // Internal hit: replace with predecessor or successor, or merge.
        if node.children[idx].size > 0 && node.children[idx].keys.len() >= T {
            let pred = max_of(&node.children[idx]);
            node.keys[idx] = pred;
            remove_from(&mut node.children[idx], pred);
        } else if node.children[idx + 1].keys.len() >= T {
            let succ = min_of(&node.children[idx + 1]);
            node.keys[idx] = succ;
            remove_from(&mut node.children[idx + 1], succ);
        } else {
            merge_children(node, idx);
            remove_from(&mut node.children[idx], v);
        }
        return;
    }
    debug_assert!(!node.is_leaf(), "removing absent value");
    let mut idx = idx;
    if node.children[idx].keys.len() < T {
        idx = fill(node, idx);
    }
    remove_from(&mut node.children[idx], v);
}

fn max_of<K: Copy>(node: &Node<K>) -> K {
    let mut n = node;
    while !n.is_leaf() {
        n = n.children.last().unwrap();
    }
    *n.keys.last().unwrap()
}

fn min_of<K: Copy>(node: &Node<K>) -> K {
    let mut n = node;
    while !n.is_leaf() {
        n = n.children.first().unwrap();
    }
    *n.keys.first().unwrap()
}

/// Ensures child `idx` has at least T keys; returns the (possibly shifted)
/// index of the child that now covers the original key range.
fn fill<K: Copy>(node: &mut Node<K>, idx: usize) -> usize {
    if idx > 0 && node.children[idx - 1].keys.len() >= T {
        // Borrow from the left sibling.
        let (left, right) = node.children.split_at_mut(idx);
        let left = &mut left[idx - 1];
        let cur = &mut right[0];
        let sep = node.keys[idx - 1];
        cur.keys.insert(0, sep);
        node.keys[idx - 1] = left.keys.pop().unwrap();
        if !left.is_leaf() {
            let moved = left.children.pop().unwrap();
            cur.children.insert(0, moved);
        }
        left.recount();
        cur.recount();
        idx
    } else if idx + 1 < node.children.len() && node.children[idx + 1].keys.len() >= T {
        // Borrow from the right sibling.
        let (left, right) = node.children.split_at_mut(idx + 1);
        let cur = &mut left[idx];
        let sib = &mut right[0];
        let sep = node.keys[idx];
        cur.keys.push(sep);
        node.keys[idx] = sib.keys.remove(0);
        if !sib.is_leaf() {
            let moved = sib.children.remove(0);
            cur.children.push(moved);
        }
        cur.recount();
        sib.recount();
        idx
    } else if idx + 1 < node.children.len() {
        merge_children(node, idx);
        idx
    } else {
        merge_children(node, idx - 1);
        idx - 1
    }
}

/// Merges child `idx`, separator `idx` and child `idx + 1`.
fn merge_children<K>(node: &mut Node<K>, idx: usize) {
    let sep = node.keys.remove(idx);
    let mut right = node.children.remove(idx + 1);
    let left = &mut node.children[idx];
    left.keys.push(sep);
    left.keys.append(&mut right.keys);
    left.children.append(&mut right.children);
    left.recount();
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn insert_select_rank_small() {
        let mut t = OrderStatisticTree::new();
        for v in [5, 1, 3, 3, 9, -2] {
            t.insert(v);
        }
        assert_eq!(t.len(), 6);
        let sel: Vec<_> = (0..6).map(|k| t.select(k).unwrap()).collect();
        assert_eq!(sel, vec![-2, 1, 3, 3, 5, 9]);
        assert_eq!(t.select(6), None);
        assert_eq!(t.rank(3), 2);
        assert_eq!(t.rank(4), 4);
        assert_eq!(t.rank(-100), 0);
        assert_eq!(t.rank(100), 6);
    }

    #[test]
    fn remove_keeps_order() {
        let mut t = OrderStatisticTree::new();
        for v in [4, 4, 4, 2, 8] {
            t.insert(v);
        }
        t.remove(4);
        assert_eq!(t.len(), 4);
        let sel: Vec<_> = (0..4).map(|k| t.select(k).unwrap()).collect();
        assert_eq!(sel, vec![2, 4, 4, 8]);
        t.remove(2);
        t.remove(8);
        assert_eq!((0..t.len()).map(|k| t.select(k).unwrap()).collect::<Vec<_>>(), vec![4, 4]);
    }

    #[test]
    fn percentile_disc_matches_definition() {
        let mut t = OrderStatisticTree::new();
        for v in 1..=10 {
            t.insert(v);
        }
        assert_eq!(t.percentile_disc(0.5), Some(5));
        assert_eq!(t.percentile_disc(0.0), Some(1));
        assert_eq!(t.percentile_disc(1.0), Some(10));
        assert_eq!(OrderStatisticTree::<i64>::new().percentile_disc(0.5), None);
    }

    #[test]
    fn random_against_sorted_vec_oracle() {
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..25 {
            let mut t = OrderStatisticTree::new();
            let mut oracle: Vec<i64> = Vec::new();
            for step in 0..800 {
                let remove = !oracle.is_empty() && rng.gen_bool(0.4);
                if remove {
                    let v = oracle[rng.gen_range(0..oracle.len())];
                    t.remove(v);
                    let pos = oracle.iter().position(|&x| x == v).unwrap();
                    oracle.remove(pos);
                } else {
                    let v = rng.gen_range(-30..30);
                    t.insert(v);
                    let pos = oracle.partition_point(|&x| x < v);
                    oracle.insert(pos, v);
                }
                assert_eq!(t.len(), oracle.len(), "trial {trial} step {step}");
                if step % 37 == 0 {
                    for (k, &expect) in oracle.iter().enumerate() {
                        assert_eq!(t.select(k), Some(expect), "trial {trial} step {step} k {k}");
                    }
                    for v in -31..31 {
                        assert_eq!(
                            t.rank(v),
                            oracle.partition_point(|&x| x < v),
                            "trial {trial} step {step} v {v}"
                        );
                    }
                }
            }
            // Drain completely to exercise merges down to the root.
            while let Some(v) = t.select(0) {
                t.remove(v);
            }
            assert!(t.is_empty());
        }
    }

    #[test]
    fn large_sequential_insert_drain() {
        let mut t = OrderStatisticTree::new();
        for v in 0..10_000 {
            t.insert(v);
        }
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.select(5_000), Some(5_000));
        assert_eq!(t.rank(7_500), 7_500);
        for v in (0..10_000).rev() {
            t.remove(v);
        }
        assert!(t.is_empty());
    }
}
