//! Command line of the `bench` driver.

use crate::json::Json;
use crate::layers::run_traced;
use crate::metrics::{benchmark_json, median, spread, Better, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::run::{run_end_to_end, RunConfig, RunResult};
use crate::workloads;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::Command;

const USAGE: &str = "\
bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--scale F]
      one run of one workload; the last stdout line is the result JSON
bench --all [--seed N] [--seconds S] [--scale F] [--runs R] [--out FILE]
      every workload, untraced then traced, one child process per run
bench --selfcheck [--seed N] [--seconds S] [--scale F]
      the full set twice on this build; fails on a difference beyond a bound
bench --compare OLD.json NEW.json
      applies the bounds to two files written by --all --out
bench --list | --print-benchmark-json";

/// Directory (inside the checkout) for trace files and spill files.
const RESULTS_DIR: &str = "bench_results";

#[derive(Debug, Clone)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    scale: f64,
    trace: bool,
    runs: usize,
    out: Option<PathBuf>,
    mode: Mode,
}

#[derive(Debug, Clone, PartialEq)]
enum Mode {
    One,
    All,
    Selfcheck,
    Compare(PathBuf, PathBuf),
    List,
    PrintBenchmarkJson,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 42,
        seconds: RUN_SECONDS as f64,
        scale: 1.0,
        trace: false,
        runs: 1,
        out: None,
        mode: Mode::One,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        fn num<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
            s.parse().map_err(|_| format!("{flag}: cannot read `{s}`"))
        }
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?.clone()),
            "--seed" => a.seed = num(flag, value()?)?,
            "--seconds" => a.seconds = num(flag, value()?)?,
            "--scale" => a.scale = num(flag, value()?)?,
            "--runs" => a.runs = num(flag, value()?)?,
            "--out" => a.out = Some(PathBuf::from(value()?)),
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                }
            }
            "--all" => a.mode = Mode::All,
            "--selfcheck" => a.mode = Mode::Selfcheck,
            "--list" => a.mode = Mode::List,
            "--print-benchmark-json" => a.mode = Mode::PrintBenchmarkJson,
            "--compare" => {
                let old = PathBuf::from(value()?);
                a.mode = Mode::Compare(old, PathBuf::from(value()?));
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let in_range = a.seconds > 0.0 && a.seconds <= 600.0 && a.scale > 0.0 && a.scale <= 100.0;
    if !in_range || a.runs == 0 {
        return Err("--seconds must be in (0, 600], --scale in (0, 100], --runs at least 1".into());
    }
    Ok(a)
}

/// Runs the driver with `argv` (without the program name), writing the
/// report to `out`; returns the process exit code.
pub fn main_with(argv: &[String], out: &mut dyn Write) -> i32 {
    let args = match parse_args(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return 2;
        }
    };
    let r = match &args.mode {
        Mode::List => workloads::all()
            .iter()
            .try_for_each(|w| writeln!(out, "{}", w.name))
            .map(|_| 0)
            .map_err(|e| e.to_string()),
        Mode::PrintBenchmarkJson => {
            write!(out, "{}", benchmark_json().pretty()).map(|_| 0).map_err(|e| e.to_string())
        }
        Mode::One => run_one(&args, out),
        Mode::All => run_all(&args, out).and_then(|set| {
            if let Some(path) = &args.out {
                std::fs::write(path, set.pretty())
                    .map_err(|e| format!("{}: {e}", path.display()))?;
            }
            Ok(if failures(&set) > 0.0 { 1 } else { 0 })
        }),
        Mode::Selfcheck => selfcheck(&args, out),
        Mode::Compare(old, new) => {
            let read = |p: &Path| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("{}: {e}", p.display()))
                    .and_then(|s| Json::parse(&s))
            };
            read(old)
                .and_then(|o| Ok((o, read(new)?)))
                .and_then(|(o, n)| compare(&o, &n, false, out))
        }
    };
    r.unwrap_or_else(|e| {
        eprintln!("bench: {e}");
        2
    })
}

/// One run of one workload. Prints the metrics by name and unit, then the
/// result object as the last line.
fn run_one(args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let name = args.workload.as_deref().ok_or(format!("no --workload given\n{USAGE}"))?;
    let workload =
        workloads::by_name(name).ok_or(format!("unknown workload `{name}` (see --list)"))?;
    let cfg = RunConfig { workload, seed: args.seed, seconds: args.seconds, scale: args.scale };

    // Spill files go to the system temp directory; keep them in the checkout.
    let dir = std::env::current_dir().map_err(|e| e.to_string())?.join(RESULTS_DIR);
    std::fs::create_dir_all(dir.join("tmp")).map_err(|e| format!("{}: {e}", dir.display()))?;
    std::env::set_var("TMPDIR", dir.join("tmp"));

    let res: RunResult = if args.trace {
        let (res, tracer) = run_traced(&cfg);
        let path = dir.join(format!("trace_{name}.json"));
        std::fs::write(&path, tracer.to_json(name, cfg.seed).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        res
    } else {
        run_end_to_end(&cfg)
    };

    let io = |e: std::io::Error| e.to_string();
    writeln!(
        out,
        "workload={name} seed={} rows={} seconds={} scale={} trace={} samples={}",
        cfg.seed,
        cfg.rows(),
        cfg.seconds,
        cfg.scale,
        args.trace as u8,
        res.samples
    )
    .map_err(io)?;
    writeln!(out, "output_checksum={:016x}", res.checksum).map_err(io)?;
    let defs: Vec<(&str, &str)> = if args.trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    };
    assert!(
        res.values.names().all(|n| defs.iter().any(|(d, _)| *d == n)),
        "a metric was measured that BENCHMARK.json does not declare"
    );
    let mut metrics = Vec::new();
    for (metric, unit) in defs {
        // A layer metric that does not apply to this workload reads 0.
        let value = res.values.get(metric).filter(|v| v.is_finite()).unwrap_or(0.0);
        writeln!(out, "{metric:<36} {value:>16.4} {unit}").map_err(io)?;
        metrics.push((metric, Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])));
    }
    let correct = res.failed == 0 && res.attempted > 0;
    writeln!(out, "error_rate={}/{}", res.failed, res.attempted.max(1)).map_err(io)?;
    let line = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(res.attempted.max(1) as f64)),
        ("failed", Json::Num(res.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ]);
    writeln!(out, "{}", line.render()).map_err(io)?;
    Ok(if correct { 0 } else { 1 })
}

fn command_stdout(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Spawns this executable for one run and returns (checksum, result object).
/// One process per run keeps `peak_rss_mb` per workload.
fn child_run(args: &Args, workload: &str, trace: bool) -> Result<(String, Json), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--scale", &args.scale.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let checksum =
        stdout.lines().find_map(|l| l.strip_prefix("output_checksum=")).unwrap_or("").to_string();
    let last = stdout.lines().last().ok_or(format!("{workload}: no output"))?;
    Ok((checksum, Json::parse(last).map_err(|e| format!("{workload}: {e}"))?))
}

/// `--all`: every workload, `runs` times untraced and traced. Returns the
/// result set: per workload and metric, the list of values over the runs.
fn run_all(args: &Args, out: &mut dyn Write) -> Result<Json, String> {
    let mut per_workload = Vec::new();
    for w in workloads::all() {
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut checksums: Vec<String> = Vec::new();
        let mut series: [Vec<(String, Vec<f64>)>; 2] = [Vec::new(), Vec::new()];
        for _ in 0..args.runs {
            for trace in [false, true] {
                let (checksum, result) = child_run(args, w.name, trace)?;
                attempted += result.get("attempted").and_then(Json::as_f64).unwrap_or(1.0);
                failed += match result.get("correct") {
                    Some(Json::Bool(true)) => 0.0,
                    _ => result.get("failed").and_then(Json::as_f64).unwrap_or(1.0).max(1.0),
                };
                checksums.push(checksum);
                let metrics = result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]);
                for (name, m) in metrics {
                    let value = m.get("value").and_then(Json::as_f64).unwrap_or(0.0);
                    let list = &mut series[trace as usize];
                    match list.iter_mut().find(|(n, _)| n == name) {
                        Some((_, vs)) => vs.push(value),
                        None => list.push((name.clone(), vec![value])),
                    }
                }
            }
        }
        checksums.dedup();
        let [e2e, layer] = series;
        let to_obj = |s: Vec<(String, Vec<f64>)>| {
            Json::Obj(
                s.into_iter()
                    .map(|(n, vs)| (n, Json::Arr(vs.into_iter().map(Json::Num).collect())))
                    .collect(),
            )
        };
        writeln!(
            out,
            "== {} (checksum {}, failed {failed}/{attempted})",
            w.name,
            checksums.join(" != ")
        )
        .map_err(|e| e.to_string())?;
        for (name, vs) in &e2e {
            let unit = END_TO_END.iter().find(|m| m.name == name).map_or("", |m| m.unit);
            writeln!(out, "   {name:<20} {:>16.4} {unit}", median(vs))
                .map_err(|e| e.to_string())?;
        }
        per_workload.push((
            w.name.to_string(),
            Json::obj([
                ("output_checksum", Json::str(checksums.join(" != "))),
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("end_to_end", to_obj(e2e)),
                ("per_layer", to_obj(layer)),
            ]),
        ));
    }
    Ok(Json::obj([
        ("commit", Json::str(command_stdout("git", &["rev-parse", "HEAD"]))),
        ("rustc", Json::str(command_stdout("rustc", &["--version"]))),
        ("nproc", Json::Num(std::thread::available_parallelism().map_or(0.0, |n| n.get() as f64))),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("scale", Json::Num(args.scale)),
        ("runs", Json::Num(args.runs as f64)),
        ("workloads", Json::Obj(per_workload)),
    ]))
}

fn failures(set: &Json) -> f64 {
    set.get("workloads")
        .and_then(Json::as_obj)
        .unwrap_or(&[])
        .iter()
        .map(|(_, w)| w.get("failed").and_then(Json::as_f64).unwrap_or(1.0))
        .sum()
}

/// Member `key` of `workload`'s entry in a result set.
fn field<'a>(set: &'a Json, workload: &str, key: &str) -> Option<&'a Json> {
    set.get("workloads")?.get(workload)?.get(key)
}

fn values_of(set: &Json, workload: &str, group: &str, metric: &str) -> Vec<f64> {
    field(set, workload, group)
        .and_then(|g| g.get(metric))
        .and_then(Json::as_arr)
        .map(|a| a.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// Applies the committed bounds to two result sets, one row per (metric,
/// workload). With `same_build`, also requires every exact count and every
/// output checksum to repeat. Returns 1 on a regression or a higher error
/// rate, else 0.
fn compare(old: &Json, new: &Json, same_build: bool, out: &mut dyn Write) -> Result<i32, String> {
    let io = |e: std::io::Error| e.to_string();
    let mut bad = 0;
    writeln!(
        out,
        "{:<18} {:<16} {:>14} {:>14} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "old", "new", "worse", "spread", "bound"
    )
    .map_err(io)?;
    for w in workloads::all() {
        for m in END_TO_END {
            let (o, n) = (
                values_of(old, w.name, "end_to_end", m.name),
                values_of(new, w.name, "end_to_end", m.name),
            );
            if o.is_empty() || n.is_empty() {
                return Err(format!("{} / {}: missing from a result file", w.name, m.name));
            }
            let (mo, mn) = (median(&o), median(&n));
            let worse = match m.better {
                Better::Lower => (mn - mo) / mo,
                Better::Higher => (mo - mn) / mo,
            };
            let sp = spread(&o).unwrap_or(0.0).max(spread(&n).unwrap_or(0.0));
            let is_better = |a: f64, b: f64| if m.better == Better::Lower { a < b } else { a > b };
            let dominates = n.iter().all(|&x| o.iter().all(|&y| is_better(x, y)));
            // A spread wider than the bound leaves the pair unresolved, unless
            // every new run reads better than every old one.
            let verdict = if sp > m.bound {
                if dominates {
                    "better"
                } else {
                    "unresolved"
                }
            } else if worse > m.bound {
                bad += 1;
                "REGRESSED"
            } else if worse < -m.bound {
                "better"
            } else {
                "within bound"
            };
            writeln!(
                out,
                "{:<18} {:<16} {mo:>14.4} {mn:>14.4} {:>7.1}% {:>6.1}% {:>6.1}%  {verdict}",
                w.name,
                m.name,
                worse * 100.0,
                sp * 100.0,
                m.bound * 100.0
            )
            .map_err(io)?;
        }
        let rate = |set: &Json| {
            let f = |k| field(set, w.name, k).and_then(Json::as_f64).unwrap_or(1.0);
            f("failed") / f("attempted").max(1.0)
        };
        if rate(new) > rate(old) {
            bad += 1;
            writeln!(out, "{:<18} error_rate {} -> {}  HIGHER", w.name, rate(old), rate(new))
                .map_err(io)?;
        }
        if same_build {
            for m in PER_LAYER.iter().filter(|m| m.exact) {
                let (o, n) = (
                    values_of(old, w.name, "per_layer", m.name),
                    values_of(new, w.name, "per_layer", m.name),
                );
                if o != n {
                    bad += 1;
                    writeln!(
                        out,
                        "{:<18} {:<16} exact count differs: {o:?} vs {n:?}",
                        w.name, m.name
                    )
                    .map_err(io)?;
                }
            }
            let sum = |set: &Json| {
                field(set, w.name, "output_checksum")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string()
            };
            if sum(old) != sum(new) || sum(old).contains("!=") {
                bad += 1;
                writeln!(
                    out,
                    "{:<18} output_checksum differs: {} vs {}",
                    w.name,
                    sum(old),
                    sum(new)
                )
                .map_err(io)?;
            }
        }
    }
    writeln!(out, "{}", if bad == 0 { "compare: ok" } else { "compare: FAILED" }).map_err(io)?;
    Ok(if bad == 0 { 0 } else { 1 })
}

/// `--selfcheck`: the full set twice on this build, compared against itself.
fn selfcheck(args: &Args, out: &mut dyn Write) -> Result<i32, String> {
    let first = run_all(args, out)?;
    let second = run_all(args, out)?;
    let code = compare(&first, &second, true, out)?;
    Ok(if failures(&first) + failures(&second) > 0.0 { 1 } else { code })
}
