//! Figure 12 — throughput of a framed median for increasingly non-monotonic
//! window frames.
//!
//! Paper query (§6.5):
//! `ROWS BETWEEN m·mod(l_extendedprice·7703, 499) PRECEDING
//!        AND 500 − m·mod(…) FOLLOWING` — constant ~500-row frames whose
//! *placement* jitters pseudo-randomly with amplitude `m`.
//!
//! Expected shape: at m = 0 the incremental algorithm is competitive (tiny
//! frames, §6.4); any non-zero jitter makes tuples enter and leave the frame
//! repeatedly, so the incremental algorithm falls behind — eventually below
//! even the naive algorithm (re-entry bookkeeping costs more than
//! recomputation) — while the merge sort tree does not depend on frame
//! overlap at all and stays flat.
//!
//! The `incremental` column is that competitor: Wesley & Xu's sorted vector
//! visiting the frames in row order, timed as one task of
//! `taskpar::percentile` (`incremental::percentile` visits them in frame
//! order, as the engine's sliding strategies do).

use holistic_baselines::taskpar;
use holistic_bench::json::{self, BenchRecord};
use holistic_bench::workloads::{nonmonotonic_frames, sorted_lineitem};
use holistic_bench::{algos, env_usize, mtps, time_once};
use holistic_core::MstParams;

fn main() {
    let n = env_usize("N", 200_000);
    let emit_json = std::env::args().any(|a| a == "--json");
    let mut records: Vec<BenchRecord> = Vec::new();
    let data = sorted_lineitem(n, 42);
    let vals = &data.extendedprice;

    println!("# Figure 12: framed median throughput (Mtuples/s) vs non-monotonicity m, n={n}");
    println!("{:<6} | {:>10} {:>12} {:>10}", "m", "mst", "incremental", "naive");
    for m in [0.0f64, 0.125, 0.25, 0.5, 0.75, 1.0] {
        let frames = nonmonotonic_frames(vals, m);
        let (mst_out, d) =
            time_once(|| algos::mst_percentile(vals, &frames, 0.5, MstParams::default()));
        let mst = mtps(n, d);
        let one_task = frames.len().max(1);
        let (inc_out, d) = time_once(|| taskpar::percentile(vals, &frames, 0.5, one_task, false));
        let inc = mtps(n, d);
        let (naive_out, d) = time_once(|| taskpar::naive_percentile(vals, &frames, 0.5));
        let naive = mtps(n, d);
        assert_eq!(mst_out, inc_out, "algorithms disagree at m={m}");
        assert_eq!(mst_out, naive_out, "algorithms disagree at m={m}");
        println!("{:<6} | {:>10.3} {:>12.3} {:>10.3}", m, mst, inc, naive);
        let workload = format!("nonmonotonic/m{m}");
        for (algo, tput) in [("mst", mst), ("incremental", inc), ("naive", naive)] {
            records.push(BenchRecord::new(&workload, n, algo, 1e3 / tput));
        }
    }
    println!("# (all three algorithms verified to produce identical medians)");

    if emit_json {
        let path = json::write("fig12", &records).expect("write json");
        println!("# wrote {}", path.display());
    }
}
