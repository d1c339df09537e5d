//! Task-based parallel wrappers for stateful sliding algorithms (§3.2, §5.5).
//!
//! Modern engines split work into fixed-size tasks (Hyper: 20 000 tuples).
//! A sliding-state algorithm cannot resume mid-stream: each task must first
//! *re-aggregate every tuple of its first frame* before producing output.
//! With O(n) tasks this warm-up work makes parallelized incremental
//! algorithms O(n · frame) — quadratic for large frames — which is exactly
//! the effect Figures 10–12 measure. The driver below reproduces it
//! faithfully: the warm-up is real work, so the penalty is visible even on a
//! single core.

use crate::incremental::OrderedMultiset;
use crate::ostree::OrderStatisticTree;
use rayon::prelude::*;

/// Hyper's task granularity (§5.5).
pub const HYPER_TASK_SIZE: usize = 20_000;

/// Counters of one task-parallel slide, in the spirit of the engine's
/// probe-kernel stats: they make the §3.2 re-warm overhead measurable
/// instead of opaque.
///
/// `warmup_adds` counts the `add` calls a task performs *before emitting its
/// first output row* — pure repeated work that the serial algorithm would
/// not do. `slide_adds`/`slide_removes` are the steady-state updates after
/// warm-up. The parallelization penalty of Figures 10–12 is exactly
/// `warmup_adds` growing with the frame size times the task count.
///
/// ```
/// use holistic_strategies::taskpar::{percentile_stats, SlideStats};
/// let vals = [5i64, 1, 4, 2, 3, 9, 8];
/// let frames: Vec<(usize, usize)> = (0..7usize).map(|i| (i.saturating_sub(3), i + 1)).collect();
/// let (serial, s0) = percentile_stats(&vals, &frames, 0.5, usize::MAX, false);
/// let (tasked, s1) = percentile_stats(&vals, &frames, 0.5, 2, false);
/// assert_eq!(serial, tasked);            // outputs are task-size invariant
/// assert_eq!(s0.tasks, 1);
/// assert!(s1.warmup_adds > s0.warmup_adds); // …but the re-warm work is not
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlideStats {
    /// Number of tasks the frame sequence was split into.
    pub tasks: u64,
    /// `add` calls performed before a task's first output row (re-warm work).
    pub warmup_adds: u64,
    /// `add` calls performed after a task's first output row.
    pub slide_adds: u64,
    /// `remove` calls performed after a task's first output row (warm-up
    /// never removes: the state starts empty).
    pub slide_removes: u64,
}

impl SlideStats {
    /// Total `add` calls, warm-up included.
    pub fn total_adds(&self) -> u64 {
        self.warmup_adds + self.slide_adds
    }

    /// Fraction of all `add` calls spent re-warming task states (0 when no
    /// adds happened at all).
    pub fn warmup_fraction(&self) -> f64 {
        let total = self.total_adds();
        if total == 0 {
            0.0
        } else {
            self.warmup_adds as f64 / total as f64
        }
    }

    /// Accumulates another run's counters into this one.
    pub fn merge_from(&mut self, other: &SlideStats) {
        self.tasks += other.tasks;
        self.warmup_adds += other.warmup_adds;
        self.slide_adds += other.slide_adds;
        self.slide_removes += other.slide_removes;
    }
}

/// Evaluates a sliding-state algorithm over `frames`, split into tasks of
/// `task_size` output rows. Each task builds a fresh state via `mk_state`,
/// warms it up to its first row's frame, then slides.
///
/// With `task_size >= frames.len()` this degenerates to the serial
/// incremental algorithm.
pub fn task_parallel_slide<S, Out>(
    frames: &[(usize, usize)],
    task_size: usize,
    parallel: bool,
    mk_state: impl Fn() -> S + Sync,
    add: impl Fn(&mut S, usize) + Sync,
    remove: impl Fn(&mut S, usize) + Sync,
    result: impl Fn(&mut S, usize) -> Out + Sync,
) -> Vec<Out>
where
    S: Send,
    Out: Send,
{
    task_parallel_slide_stats(frames, task_size, parallel, mk_state, add, remove, result).0
}

/// [`task_parallel_slide`] with per-run [`SlideStats`] counters.
pub fn task_parallel_slide_stats<S, Out>(
    frames: &[(usize, usize)],
    task_size: usize,
    parallel: bool,
    mk_state: impl Fn() -> S + Sync,
    add: impl Fn(&mut S, usize) + Sync,
    remove: impl Fn(&mut S, usize) + Sync,
    result: impl Fn(&mut S, usize) -> Out + Sync,
) -> (Vec<Out>, SlideStats)
where
    S: Send,
    Out: Send,
{
    use std::cell::Cell;
    let task_size = task_size.max(1);
    let run_task = |(t0, chunk): (usize, &[(usize, usize)])| -> (Vec<Out>, SlideStats) {
        let mut state = mk_state();
        let mut outs = Vec::with_capacity(chunk.len());
        // Cells: the add/remove/out closures below each observe the counters.
        let (warmup_adds, slide_adds, slide_removes) =
            (Cell::new(0u64), Cell::new(0u64), Cell::new(0u64));
        let warming = Cell::new(true);
        crate::incremental::slide(
            chunk,
            &mut state,
            |s, p| {
                let c = if warming.get() { &warmup_adds } else { &slide_adds };
                c.set(c.get() + 1);
                add(s, p)
            },
            |s, p| {
                slide_removes.set(slide_removes.get() + 1);
                remove(s, p)
            },
            |s, local_i| {
                warming.set(false);
                outs.push(result(s, t0 + local_i))
            },
        );
        let stats = SlideStats {
            tasks: 1,
            warmup_adds: warmup_adds.get(),
            slide_adds: slide_adds.get(),
            slide_removes: slide_removes.get(),
        };
        (outs, stats)
    };
    let tasks: Vec<(usize, &[(usize, usize)])> =
        frames.chunks(task_size).enumerate().map(|(t, c)| (t * task_size, c)).collect();
    let per_task: Vec<(Vec<Out>, SlideStats)> = if parallel {
        tasks.into_par_iter().map(run_task).collect()
    } else {
        tasks.into_iter().map(run_task).collect()
    };
    let mut totals = SlideStats::default();
    let mut outs = Vec::with_capacity(frames.len());
    for (o, s) in per_task {
        totals.merge_from(&s);
        outs.extend(o);
    }
    (outs, totals)
}

/// Task-parallel incremental distinct count (the "incremental" line of the
/// distinct-count panel in Figure 10).
pub fn distinct_count(
    hashes: &[u64],
    frames: &[(usize, usize)],
    task_size: usize,
    parallel: bool,
) -> Vec<usize> {
    distinct_count_stats(hashes, frames, task_size, parallel).0
}

/// [`distinct_count`] with [`SlideStats`] re-warm counters.
pub fn distinct_count_stats(
    hashes: &[u64],
    frames: &[(usize, usize)],
    task_size: usize,
    parallel: bool,
) -> (Vec<usize>, SlideStats) {
    use rustc_hash::FxHashMap;
    struct St {
        counts: FxHashMap<u64, u32>,
        distinct: usize,
    }
    task_parallel_slide_stats(
        frames,
        task_size,
        parallel,
        || St { counts: FxHashMap::default(), distinct: 0 },
        |s, p| {
            let c = s.counts.entry(hashes[p]).or_insert(0);
            if *c == 0 {
                s.distinct += 1;
            }
            *c += 1;
        },
        |s, p| {
            let c = s.counts.get_mut(&hashes[p]).expect("absent");
            *c -= 1;
            if *c == 0 {
                s.distinct -= 1;
            }
        },
        |s, _| s.distinct,
    )
}

/// Task-parallel incremental percentile (sorted-array state, §5.5).
pub fn percentile(
    values: &[i64],
    frames: &[(usize, usize)],
    p: f64,
    task_size: usize,
    parallel: bool,
) -> Vec<Option<i64>> {
    percentile_stats(values, frames, p, task_size, parallel).0
}

/// [`percentile`] with [`SlideStats`] re-warm counters.
pub fn percentile_stats(
    values: &[i64],
    frames: &[(usize, usize)],
    p: f64,
    task_size: usize,
    parallel: bool,
) -> (Vec<Option<i64>>, SlideStats) {
    task_parallel_slide_stats(
        frames,
        task_size,
        parallel,
        Vec::<i64>::new,
        |s, pos| OrderedMultiset::insert(s, values[pos]),
        |s, pos| OrderedMultiset::remove(s, values[pos]),
        |s, _| {
            if s.is_empty() {
                None
            } else {
                let j = ((p * s.len() as f64).ceil() as usize).clamp(1, s.len());
                Some(s[j - 1])
            }
        },
    )
}

/// Task-parallel order-statistic-tree percentile — the "order statistic
/// tree" line of Figures 10 and 11.
pub fn ostree_percentile(
    values: &[i64],
    frames: &[(usize, usize)],
    p: f64,
    task_size: usize,
    parallel: bool,
) -> Vec<Option<i64>> {
    ostree_percentile_stats(values, frames, p, task_size, parallel).0
}

/// [`ostree_percentile`] with [`SlideStats`] re-warm counters.
pub fn ostree_percentile_stats(
    values: &[i64],
    frames: &[(usize, usize)],
    p: f64,
    task_size: usize,
    parallel: bool,
) -> (Vec<Option<i64>>, SlideStats) {
    task_parallel_slide_stats(
        frames,
        task_size,
        parallel,
        OrderStatisticTree::new,
        |s, pos| s.insert(values[pos]),
        |s, pos| s.remove(values[pos]),
        |s, _| s.percentile_disc(p),
    )
}

/// Task-parallel order-statistic-tree windowed rank: the rank of `keys[i]`
/// among the frame rows (1 + count of strictly smaller frame elements).
pub fn ostree_rank(
    keys: &[i64],
    frames: &[(usize, usize)],
    task_size: usize,
    parallel: bool,
) -> Vec<usize> {
    task_parallel_slide(
        frames,
        task_size,
        parallel,
        OrderStatisticTree::new,
        |s, pos| s.insert(keys[pos]),
        |s, pos| s.remove(keys[pos]),
        |s, i| s.rank(keys[i]) + 1,
    )
}

/// Naive re-evaluation of a framed percentile (copy + sort per row) — the
/// "naive" line of the figures, on the same array-level interface.
pub fn naive_percentile(values: &[i64], frames: &[(usize, usize)], p: f64) -> Vec<Option<i64>> {
    frames
        .iter()
        .map(|&(a, b)| {
            if a >= b {
                return None;
            }
            let mut w: Vec<i64> = values[a..b].to_vec();
            w.sort_unstable();
            let j = ((p * w.len() as f64).ceil() as usize).clamp(1, w.len());
            Some(w[j - 1])
        })
        .collect()
}

/// Naive framed distinct count (fresh hash set per row).
pub fn naive_distinct_count(hashes: &[u64], frames: &[(usize, usize)]) -> Vec<usize> {
    frames
        .iter()
        .map(|&(a, b)| {
            let set: rustc_hash::FxHashSet<u64> = hashes[a..b.max(a)].iter().copied().collect();
            set.len()
        })
        .collect()
}

/// Naive framed rank (scan per row).
pub fn naive_rank(keys: &[i64], frames: &[(usize, usize)]) -> Vec<usize> {
    frames
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| keys[a..b.max(a)].iter().filter(|&&k| k < keys[i]).count() + 1)
        .collect()
}

/// Naive framed lead by value order (§4.6 with offset 1): sort the frame by
/// `(key, position)`, find the current row's rank, return the next entry's
/// key. `None` at the frame's top.
pub fn naive_lead(keys: &[i64], frames: &[(usize, usize)]) -> Vec<Option<i64>> {
    frames
        .iter()
        .enumerate()
        .map(|(i, &(a, b))| {
            if a >= b {
                return None;
            }
            let mut w: Vec<(i64, usize)> = (a..b).map(|p| (keys[p], p)).collect();
            w.sort_unstable();
            let rn0 = w.partition_point(|&(k, p)| (k, p) < (keys[i], i));
            w.get(rn0 + 1).map(|&(k, _)| k)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn sliding_frames(n: usize, w: usize) -> Vec<(usize, usize)> {
        (0..n).map(|i| (i.saturating_sub(w - 1), i + 1)).collect()
    }

    #[test]
    fn task_split_matches_serial() {
        let mut rng = StdRng::seed_from_u64(9);
        let vals: Vec<i64> = (0..500).map(|_| rng.gen_range(0..100)).collect();
        let frames = sliding_frames(vals.len(), 37);
        let serial = percentile(&vals, &frames, 0.5, usize::MAX, false);
        for ts in [1usize, 10, 100, 499, 500] {
            assert_eq!(percentile(&vals, &frames, 0.5, ts, false), serial, "ts={ts}");
            assert_eq!(percentile(&vals, &frames, 0.5, ts, true), serial, "par ts={ts}");
        }
    }

    #[test]
    fn distinct_count_tasks_match_naive() {
        let mut rng = StdRng::seed_from_u64(10);
        let vals: Vec<u64> = (0..400).map(|_| rng.gen_range(0..25)).collect();
        let frames = sliding_frames(vals.len(), 80);
        let expect = naive_distinct_count(&vals, &frames);
        assert_eq!(distinct_count(&vals, &frames, 64, true), expect);
        assert_eq!(crate::incremental::distinct_count(&vals, &frames), expect);
    }

    #[test]
    fn ostree_percentile_matches_naive() {
        let mut rng = StdRng::seed_from_u64(11);
        let vals: Vec<i64> = (0..300).map(|_| rng.gen_range(-40..40)).collect();
        let frames = sliding_frames(vals.len(), 55);
        for p in [0.1, 0.5, 0.99] {
            assert_eq!(
                ostree_percentile(&vals, &frames, p, 90, false),
                naive_percentile(&vals, &frames, p),
                "p={p}"
            );
        }
    }

    #[test]
    fn ostree_rank_matches_naive() {
        let mut rng = StdRng::seed_from_u64(12);
        let vals: Vec<i64> = (0..300).map(|_| rng.gen_range(0..30)).collect();
        let frames = sliding_frames(vals.len(), 44);
        assert_eq!(ostree_rank(&vals, &frames, 70, true), naive_rank(&vals, &frames));
    }

    #[test]
    fn naive_lead_finds_successor_by_value() {
        let keys = vec![10i64, 30, 20, 20];
        let frames = vec![(0, 4); 4];
        // Sorted by (key, pos): (10,0), (20,2), (20,3), (30,1).
        assert_eq!(naive_lead(&keys, &frames), vec![Some(20), None, Some(20), Some(30)]);
    }
}
