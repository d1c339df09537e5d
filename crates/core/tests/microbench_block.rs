//! Ignored-by-default micro-timer for the block kernels: core-only builds
//! iterate much faster than the full bench binary. Run with
//! `cargo test --release -p holistic-core --test microbench_block -- --ignored --nocapture`.

use holistic_core::{BlockScratch, MergeSortTree, MstParams, RangeSet};
use std::time::Instant;

fn splitmix(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

#[test]
#[ignore = "micro-timer, run explicitly with --ignored --nocapture"]
fn block_vs_scalar_timing() {
    let n = 1_000_000usize;
    let mut s = 7u64;
    // A random permutation of 0..n (Fisher–Yates), the perm-MST shape.
    let mut perm: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        let j = (splitmix(&mut s) % (i as u64 + 1)) as usize;
        perm.swap(i, j);
    }
    let tree = MergeSortTree::<u32>::build(&perm, MstParams::default().serial());

    let amp = n / 8;
    let m = 200_000usize;
    // Jittered frames: both edges jump by up to `amp`.
    let frames: Vec<(usize, usize)> = (0..m)
        .map(|i| {
            let c = i * (n / m);
            let a = c.saturating_sub((splitmix(&mut s) % amp as u64) as usize);
            let b = (c + (splitmix(&mut s) % amp as u64) as usize + 1).min(n);
            (a.min(b - 1), b)
        })
        .collect();

    let reps = 7usize;
    // Interleaved best-of: scalar and block alternate within one process so
    // frequency drift hits both sides equally.
    let best2 = |a: &mut dyn FnMut() -> usize,
                 b: &mut dyn FnMut() -> usize|
     -> (usize, std::time::Duration, usize, std::time::Duration) {
        let mut ra = (0usize, std::time::Duration::MAX);
        let mut rb = (0usize, std::time::Duration::MAX);
        for _ in 0..reps {
            let t0 = Instant::now();
            let v = a();
            let d = t0.elapsed();
            if d < ra.1 {
                ra = (v, d);
            }
            let t0 = Instant::now();
            let v = b();
            let d = t0.elapsed();
            if d < rb.1 {
                rb = (v, d);
            }
        }
        (ra.0, ra.1, rb.0, rb.1)
    };

    // ---- counts ----
    let cqs: Vec<(usize, usize, u32)> =
        frames.iter().map(|&(a, b)| (a, b, ((a + b) / 2) as u32)).collect();
    let (scalar_sum, scalar_cnt, block_sum, block_cnt) = best2(
        &mut || {
            let mut sum = 0usize;
            for &(a, b, t) in &cqs {
                sum += tree.count_below_multi(&RangeSet::single(a, b), t);
            }
            sum
        },
        &mut || {
            let mut scratch = BlockScratch::new();
            let mut out = vec![0usize; 256];
            let mut sum = 0usize;
            for ch in cqs.chunks(256) {
                tree.count_below_block(ch, &mut out[..ch.len()], &mut scratch);
                sum += out[..ch.len()].iter().sum::<usize>();
            }
            sum
        },
    );
    assert_eq!(scalar_sum, block_sum);

    // ---- selects ----
    let sqs: Vec<(RangeSet, usize)> =
        frames.iter().map(|&(a, b)| (RangeSet::single(a, b), (b - a) / 2)).collect();
    let (scalar_sel, scalar_sel_t, block_sel, block_sel_t) = best2(
        &mut || {
            let mut acc = 0usize;
            for (rs, j) in &sqs {
                acc ^= tree.select(rs, *j).unwrap_or(0);
            }
            acc
        },
        &mut || {
            let mut scratch = BlockScratch::new();
            let mut out = vec![None; 256];
            let mut acc = 0usize;
            for ch in sqs.chunks(256) {
                tree.select_block(ch, &mut out[..ch.len()], &mut scratch);
                for r in &out[..ch.len()] {
                    acc ^= r.unwrap_or(0);
                }
            }
            acc
        },
    );
    assert_eq!(scalar_sel, block_sel);

    let per = |d: std::time::Duration| d.as_nanos() as f64 / m as f64;
    println!(
        "count: scalar {:8.1} ns/q  block {:8.1} ns/q  speedup {:.3}x",
        per(scalar_cnt),
        per(block_cnt),
        per(scalar_cnt) / per(block_cnt)
    );
    println!(
        "select: scalar {:8.1} ns/q  block {:8.1} ns/q  speedup {:.3}x",
        per(scalar_sel_t),
        per(block_sel_t),
        per(scalar_sel_t) / per(block_sel_t)
    );
}
