//! Ablation study of the design choices DESIGN.md calls out (not a paper
//! figure — supplementary evidence for §4.2/§5.1's claims):
//!
//! * **(f, k)**: scalar `count_below` probes at three fanout / sampling
//!   settings;
//! * **integer width**: u32 vs u64 trees (§5.1 claims narrower integers help
//!   via memory bandwidth);
//! * **task-based parallelization penalty**: the redundant warm-up work a
//!   stateful algorithm performs under task splitting, measured directly as
//!   a work ratio (machine-independent, unlike wall-clock speedups).

use holistic_bench::json::{self, BenchRecord};
use holistic_bench::workloads::{random_ints, sliding_frames};
use holistic_bench::{env_usize, mtps, time_once};
use holistic_core::{MergeSortTree, MstParams};

fn main() {
    let n = env_usize("N", 500_000);
    let emit_json = std::env::args().any(|a| a == "--json");
    let mut records: Vec<BenchRecord> = Vec::new();
    let vals64 = random_ints(n, 9);
    let vals_u32: Vec<u32> = vals64.iter().map(|&v| (v as u32) ^ (1 << 31)).collect();
    let vals_u64: Vec<u64> = vals_u32.iter().map(|&v| v as u64).collect();
    let frames = sliding_frames(n, n / 20);

    println!("# Ablation study, n={n}, frame = 5% of n, count_below probes");

    // --- fanout and sampling ---
    println!("\n## fanout and sampling (query phase only; cf. Figure 13)");
    for (label, params) in [
        ("f=32 k=32", MstParams::default().serial()),
        ("f=32 k=4", MstParams::new(32, 4).serial()),
        ("f=4  k=4", MstParams::new(4, 4).serial()),
    ] {
        let tree = MergeSortTree::<u32>::build(&vals_u32, params);
        let (_, d) = time_once(|| {
            let mut acc = 0usize;
            for (i, &(a, b)) in frames.iter().enumerate() {
                acc = acc.wrapping_add(tree.count_below(a, b, vals_u32[i]));
            }
            acc
        });
        println!(
            "{label:<32} probe: {:>8.1} ms ({:.3} Mprobe/s)",
            d.as_secs_f64() * 1e3,
            mtps(n, d)
        );
        records.push(BenchRecord::new("fanout_sampling", n, label, d.as_nanos() as f64 / n as f64));
    }

    // --- integer width ---
    println!("\n## integer width (u32 vs u64 trees, same data)");
    {
        let t32 = MergeSortTree::<u32>::build(&vals_u32, MstParams::default().serial());
        let (_, d32) = time_once(|| {
            let mut acc = 0usize;
            for (i, &(a, b)) in frames.iter().enumerate() {
                acc = acc.wrapping_add(t32.count_below(a, b, vals_u32[i]));
            }
            acc
        });
        let t64 = MergeSortTree::<u64>::build(&vals_u64, MstParams::default().serial());
        let (_, d64) = time_once(|| {
            let mut acc = 0usize;
            for (i, &(a, b)) in frames.iter().enumerate() {
                acc = acc.wrapping_add(t64.count_below(a, b, vals_u64[i]));
            }
            acc
        });
        let s32 = t32.stats();
        let s64 = t64.stats();
        println!(
            "u32 tree: probe {:>8.1} ms, {:>6.1} MB   u64 tree: probe {:>8.1} ms, {:>6.1} MB",
            d32.as_secs_f64() * 1e3,
            s32.bytes as f64 / 1e6,
            d64.as_secs_f64() * 1e3,
            s64.bytes as f64 / 1e6,
        );
        records.push(
            BenchRecord::new("int_width", n, "u32", d32.as_nanos() as f64 / n as f64)
                .with("tree_mb", s32.bytes as f64 / 1e6),
        );
        records.push(
            BenchRecord::new("int_width", n, "u64", d64.as_nanos() as f64 / n as f64)
                .with("tree_mb", s64.bytes as f64 / 1e6),
        );
    }

    // --- task-parallelization work ratio ---
    println!("\n## task-based parallelization penalty (redundant warm-up work, §3.2)");
    println!("   counted in add/remove operations — machine independent");
    for w in [500usize, 5_000, 20_000, 100_000] {
        let frames = sliding_frames(n, w);
        let task = 20_000usize;
        // Useful sliding work: every row enters and leaves once.
        let useful: usize = 2 * n;
        // Warm-up: each task re-adds its first frame.
        let warmup: usize = frames.iter().step_by(task).map(|&(a, b)| b - a).sum();
        println!(
            "frame {w:>7}: warm-up/useful = {:>6.2}x  ({} tasks x avg first-frame {})",
            warmup as f64 / useful as f64,
            n.div_ceil(task),
            warmup / n.div_ceil(task).max(1),
        );
        records.push(
            BenchRecord::new(&format!("task_warmup/w{w}"), n, "work_ratio", f64::NAN)
                .with("warmup_over_useful", warmup as f64 / useful as f64),
        );
    }
    println!("# the ratio grows linearly with the frame size: task-parallel stateful");
    println!("# algorithms do O(frame) redundant work per task — O(n^2) for O(n) frames.");

    if emit_json {
        let path = json::write("ablation", &records).expect("write json");
        println!("# wrote {}", path.display());
    }
}
