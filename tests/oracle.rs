//! The semantics oracle: the merge-sort-tree engine must agree with the
//! naive per-row implementation on randomized tables, window specs, frames
//! and function options.
//!
//! Scenarios are drawn from the *shared* generator in `crates/fuzz`, so the
//! oracle and the differential fuzzer agree on one definition of the spec
//! space — GROUPS frames, DESC inner ORDER BYs, per-row expression bounds,
//! huge offsets, NULL-heavy and tie-heavy tables all come from the same
//! weighted distribution. The check itself is the fuzzer's differential
//! check: float-tolerant against naive, bit-identical across every engine
//! configuration.

use holistic_fuzz::gen::{self, case_seed, generate, GenConfig};
use holistic_fuzz::{check_case, with_quiet_panics};
use holistic_windows::prelude::*;
use rand::{rngs::StdRng, SeedableRng};

fn run_cases(base_seed: u64, count: u64, cfg: &GenConfig) -> Vec<String> {
    with_quiet_panics(|| {
        (0..count)
            .filter_map(|i| {
                let case = generate(case_seed(base_seed, i), cfg);
                check_case(&case.table, &case.query).err().map(|d| {
                    format!("case {i} (seed {:#x}, n={}): {d}", case.seed, case.table.num_rows())
                })
            })
            .collect()
    })
}

#[test]
fn engine_matches_naive_on_random_workloads() {
    let cfg = GenConfig { max_n: 160, max_calls: 8 };
    let failures = run_cases(0xC0FFEE, 60, &cfg);
    assert!(failures.is_empty(), "divergences:\n{}", failures.join("\n"));
}

#[test]
fn engine_matches_naive_on_tiny_tables() {
    // Small sizes are where empty frames, single rows and all-NULL columns
    // concentrate; drive many more cases through them.
    let cfg = GenConfig { max_n: 7, max_calls: 5 };
    let failures = run_cases(0xAB1E70, 250, &cfg);
    assert!(failures.is_empty(), "divergences:\n{}", failures.join("\n"));
}

#[test]
fn engine_matches_naive_default_and_whole_partition_frames() {
    // The two fixed frames every SQL engine leans on, combined with
    // generator-drawn tables and calls.
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    let failures: Vec<String> = with_quiet_panics(|| {
        let mut out = Vec::new();
        for scenario in 0..12 {
            let table = gen::gen_table(&mut rng, 40 + scenario * 9);
            for frame in [FrameSpec::default_frame(), FrameSpec::whole_partition()] {
                let spec = WindowSpec::new()
                    .partition_by(vec![col("g")])
                    .order_by(vec![SortKey::asc(col("k"))])
                    .frame(frame);
                let mut q = WindowQuery::over(spec);
                for i in 0..6 {
                    let mut call = gen::gen_call(&mut rng);
                    call.output_name =
                        format!("c{i}_{}", call.kind.name().replace(['(', ')', '*'], ""));
                    q = q.call(call);
                }
                if let Err(d) = check_case(&table, &q) {
                    out.push(format!("scenario {scenario}: {d}"));
                }
            }
        }
        out
    });
    assert!(failures.is_empty(), "divergences:\n{}", failures.join("\n"));
}
