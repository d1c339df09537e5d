//! Ignored-by-default micro-timer for the three ordered multisets a
//! [`SortedWindow`] slides: the sorted vector (the paper's incremental
//! competitor), the counted B-tree (the order-statistic strategy) and the
//! counted bitset (the engine's incremental strategy). Each slides a
//! trailing frame of `w` rows over a permutation of `0..m`, as a partition's
//! dense codes are, once per call the engine slides it for: a rank
//! (ROW_NUMBER, one `count_below` per row) and a median (one `select` per
//! row). It asserts equal answers, then prints ns/row as a Markdown table.
//!
//! A second timer gives the grid a jitter axis: Fig. 12's frames, whose
//! placement jitters per row, slid on the counted bitset in row order (the
//! paper's incremental competitor) and in frame order (by start, then end,
//! as the engine slides them).
//!
//! Run with
//! `cargo test --release -p holistic-strategies --test microbench_window -- --ignored --nocapture`.

use holistic_strategies::incremental::{
    in_frame_order, CountedBitset, OrderedMultiset, SortedWindow,
};
use holistic_strategies::ostree::OrderStatisticTree;
use std::time::{Duration, Instant};

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Slides `[i + 1 − w, i + 1)` over every row `i` and asks the window, per
/// row, for the rank of row `i`'s code (`median` false) or for its median
/// code; returns a checksum of the answers and the time taken.
fn call<S: OrderedMultiset<usize>>(codes: &[usize], w: usize, median: bool) -> (u64, Duration) {
    let t0 = Instant::now();
    let mut window = SortedWindow::<_, S>::new(codes);
    let mut sum = 0u64;
    for (i, &code) in codes.iter().enumerate() {
        let (a, b) = ((i + 1).saturating_sub(w), i + 1);
        window.slide_to(a, b);
        let answer = if median {
            window.select((b - a - 1) / 2).expect("the frame holds row i")
        } else {
            window.count_below(code)
        };
        sum = sum.wrapping_mul(31).wrapping_add(answer as u64);
    }
    (sum, t0.elapsed())
}

/// A random permutation of `0..m` (Fisher–Yates), as a partition's dense
/// codes are.
fn permutation(m: usize) -> Vec<usize> {
    let mut s = m as u64;
    let mut codes: Vec<usize> = (0..m).collect();
    for i in (1..m).rev() {
        codes.swap(i, (splitmix(&mut s) % (i as u64 + 1)) as usize);
    }
    codes
}

#[test]
#[ignore = "micro-timer, run explicitly with --ignored --nocapture"]
fn window_multisets_timing() {
    let reps = 3;
    println!("ns/row, best of {reps}; ratio = vector ÷ counted bitset");
    println!("| m | w | call | vector | counted B-tree | counted bitset | ratio |");
    println!("|---|---|---|---|---|---|---|");
    for m in [50_000usize, 1_000_000] {
        let codes = permutation(m);
        for w in [8usize, 32, 130, 618, 5_000] {
            for (median, name) in [(false, "rank"), (true, "median")] {
                // Interleaved best-of: the three alternate within one
                // process so frequency drift hits them alike.
                let mut best = [Duration::MAX; 3];
                let mut sums = [0u64; 3];
                for _ in 0..reps {
                    let runs = [
                        call::<Vec<usize>>(&codes, w, median),
                        call::<OrderStatisticTree<usize>>(&codes, w, median),
                        call::<CountedBitset>(&codes, w, median),
                    ];
                    for (k, (sum, d)) in runs.into_iter().enumerate() {
                        sums[k] = sum;
                        best[k] = best[k].min(d);
                    }
                }
                assert_eq!(sums[1], sums[0], "counted B-tree, m {m} w {w} {name}");
                assert_eq!(sums[2], sums[0], "counted bitset, m {m} w {w} {name}");
                let ns = |d: Duration| d.as_nanos() as f64 / m as f64;
                println!(
                    "| {m} | {w} | {name} | {:.1} | {:.1} | {:.1} | {:.2}× |",
                    ns(best[0]),
                    ns(best[1]),
                    ns(best[2]),
                    best[0].as_secs_f64() / best[2].as_secs_f64()
                );
            }
        }
    }
}

/// Fig. 12's frames over `m` rows: `ROWS BETWEEN x PRECEDING AND 500 − x
/// FOLLOWING` with `x = ⌊jitter · (hash mod 499)⌋` per row, clamped to the
/// partition. Every frame holds its row, and at jitter 0 they are monotone.
fn jittered_frames(m: usize, jitter: f64) -> Vec<(usize, usize)> {
    let mut s = 7u64;
    (0..m)
        .map(|i| {
            let x = (jitter * (splitmix(&mut s) % 499) as f64) as usize;
            (i.saturating_sub(x), (i + 501 - x).min(m))
        })
        .collect()
}

/// Slides the counted bitset through `frames`, in frame order or in row
/// order, and asks per row for the rank of the row's code or for the
/// frame's median; returns a checksum of the answers in row order and the
/// time taken, the frame order's counting sorts included.
fn slide_jittered(
    codes: &[usize],
    frames: &[(usize, usize)],
    frame_order: bool,
    median: bool,
) -> (u64, Duration) {
    let t0 = Instant::now();
    let mut window = SortedWindow::<_, CountedBitset>::new(codes);
    let mut answers = vec![0usize; frames.len()];
    let visit = |i: usize| {
        let (a, b) = frames[i];
        window.slide_to(a, b);
        answers[i] = if median {
            window.select((b - a - 1) / 2).expect("the frame holds row i")
        } else {
            window.count_below(codes[i])
        };
    };
    if frame_order {
        in_frame_order(frames.len(), |i| frames[i]).for_each(visit);
    } else {
        (0..frames.len()).for_each(visit);
    }
    let took = t0.elapsed();
    (answers.iter().fold(0u64, |h, &x| h.wrapping_mul(31).wrapping_add(x as u64)), took)
}

#[test]
#[ignore = "micro-timer, run explicitly with --ignored --nocapture"]
fn jittered_frames_timing() {
    let reps = 3;
    println!("ns/row on the counted bitset, best of {reps}; ratio = row order ÷ frame order");
    println!("| m | jitter | call | row order | frame order | ratio |");
    println!("|---|---|---|---|---|---|");
    for m in [50_000usize, 1_000_000] {
        let codes = permutation(m);
        // The row-order slide re-enters up to a frame per row: at m = 1 M it
        // would take minutes, so it runs at 50 000 rows only.
        let row_order = m <= 50_000;
        for (median, name) in [(false, "rank"), (true, "median")] {
            let mut ordered_ns = Vec::new();
            for jitter in [0.0, 0.125, 0.25, 0.5, 1.0] {
                let frames = jittered_frames(m, jitter);
                let mut best = [Duration::MAX; 2];
                let mut sums = [0u64; 2];
                for _ in 0..reps {
                    for (k, frame_order) in [false, true].into_iter().enumerate() {
                        if k == 0 && !row_order {
                            continue;
                        }
                        let (sum, d) = slide_jittered(&codes, &frames, frame_order, median);
                        sums[k] = sum;
                        best[k] = best[k].min(d);
                    }
                }
                let ns = |d: Duration| d.as_nanos() as f64 / m as f64;
                ordered_ns.push(ns(best[1]));
                if row_order {
                    assert_eq!(sums[0], sums[1], "frame order, m {m} jitter {jitter} {name}");
                    println!(
                        "| {m} | {jitter} | {name} | {:.1} | {:.1} | {:.1}× |",
                        ns(best[0]),
                        ns(best[1]),
                        best[0].as_secs_f64() / best[1].as_secs_f64()
                    );
                } else {
                    println!("| {m} | {jitter} | {name} | — | {:.1} | — |", ns(best[1]));
                }
            }
            let (lo, hi) =
                ordered_ns.iter().fold((f64::MAX, 0f64), |(l, h), &x| (l.min(x), h.max(x)));
            println!("| {m} | spread | {name} | | {:.2}× (max ÷ min over jitter) | |", hi / lo);
        }
    }
}
