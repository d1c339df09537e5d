//! Runs every workload through the driver in-process at `--scale 0.01`,
//! untraced and traced, and checks what it prints against `BENCHMARK.json`.

use holistic_perfbench::cli::main_with;
use holistic_perfbench::json::Json;
use holistic_perfbench::metrics::benchmark_json;
use std::path::Path;

fn run(args: &[&str]) -> Json {
    let argv: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    let mut out = Vec::new();
    let code = main_with(&argv, &mut out);
    let text = String::from_utf8(out).expect("driver prints UTF-8");
    assert_eq!(code, 0, "{args:?} exited {code}:\n{text}");
    Json::parse(text.lines().last().expect("a result line")).expect("result line is JSON")
}

fn names(list: &Json) -> Vec<&str> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(Json::as_str).expect("a name"))
        .collect()
}

// One test function: the driver writes under the current directory, which is
// process-wide.
#[test]
fn every_workload_prints_the_committed_metrics() {
    let root =
        Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("perfbench sits in the repo root");
    let committed = root.join("BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(&committed).unwrap()).unwrap();
    assert_eq!(
        spec,
        benchmark_json(),
        "BENCHMARK.json differs from `bench --print-benchmark-json`"
    );
    let (end_to_end, per_layer) =
        (names(spec.get("end_to_end").unwrap()), names(spec.get("per_layer").unwrap()));
    let workloads = names(spec.get("workloads").unwrap());
    assert_eq!(workloads.len(), 7);
    for name in end_to_end.iter().chain(&per_layer).chain(&workloads) {
        assert!(name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)), "{name}");
    }

    let scratch = Path::new(env!("CARGO_TARGET_TMPDIR"));
    std::env::set_current_dir(scratch).unwrap();
    for w in workloads {
        for (trace, expected) in [("0", &end_to_end), ("1", &per_layer)] {
            let result =
                run(&["--workload", w, "--scale", "0.01", "--seconds", "0.2", "--trace", trace]);
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{w} trace {trace}");
            assert_eq!(result.get("failed").and_then(Json::as_f64), Some(0.0), "{w} trace {trace}");
            assert!(result.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let printed: Vec<&str> = result
                .get("metrics")
                .and_then(Json::as_obj)
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(&printed, expected, "{w} trace {trace}");
        }

        let trace =
            std::fs::read_to_string(scratch.join(format!("bench_results/trace_{w}.json"))).unwrap();
        let trace = Json::parse(&trace).unwrap();
        let spans = trace.get("spans").and_then(Json::as_arr).unwrap();
        assert!(!spans.is_empty(), "{w}: empty trace");
        for (i, s) in spans.iter().enumerate() {
            assert_eq!(s.get("id").and_then(Json::as_f64), Some(i as f64));
            assert!(
                s.get("end_ns").and_then(Json::as_f64) >= s.get("start_ns").and_then(Json::as_f64)
            );
            match s.get("parent").unwrap() {
                Json::Null => {}
                p => assert!(p.as_f64().unwrap() < i as f64, "{w}: span {i} has no earlier parent"),
            }
        }
    }
}
