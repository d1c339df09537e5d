//! The end-to-end run of one workload: set-up, closed-loop timed phase with
//! one client on one thread, output checks, and the four end-to-end metrics.

use crate::metrics::{median, Values};
use crate::verify::{checksum, oracle_check, tables_identical};
use crate::workloads::{Kind, Workload, BATCH_ROWS};
use holistic_sql::SqlSession;
use holistic_window::{ExecOptions, IncrementalEngine, Table, WindowQuery};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed query iterations a run takes at least, however short `--seconds`.
const MIN_ITERS: usize = 5;
/// `append_stream` episodes a run takes at least.
const MIN_EPISODES: usize = 3;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Multiplies every row count, the batch count and the budget.
    pub scale: f64,
}

impl RunConfig {
    /// Input rows of this run.
    pub fn rows(&self) -> usize {
        self.workload.scaled_rows(self.scale)
    }

    /// Options of every timed operation: one thread, adaptive strategies,
    /// the workload's budget if it has one.
    pub fn opts(&self) -> ExecOptions {
        match self.workload.budget(self.scale) {
            Some(b) => ExecOptions::serial().memory_budget(b),
            None => ExecOptions::serial(),
        }
    }
}

/// Outcome of one run.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations and output checks attempted.
    pub attempted: u64,
    /// Of those, how many returned `Err`, panicked or failed a check.
    pub failed: u64,
    /// Metric values by name.
    pub values: Values,
    /// FNV checksum of the workload's output table (0 when none was made).
    pub checksum: u64,
    /// Timed samples behind `latency_ms_p50`.
    pub samples: usize,
}

impl RunResult {
    /// Counts one attempted operation or check; a failure is reported on
    /// stderr with `what`.
    pub fn check<T>(&mut self, what: &str, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("FAILED {what}: {e}");
                None
            }
        }
    }
}

/// Runs `f`, turning both `Err` and a panic into a message.
pub fn guarded<T, E: std::fmt::Display>(f: impl FnOnce() -> Result<T, E>) -> Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(r) => r.map_err(|e| e.to_string()),
        Err(p) => Err(format!(
            "panicked: {}",
            p.downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| p.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string payload>".into())
        )),
    }
}

/// `VmHWM` of this process in MiB (0 where `/proc` is unavailable).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A set-up query workload: the session holding the generated table, and the
/// checksum of the warm-up iteration's output.
pub struct QuerySetup {
    /// Session with the table registered under the workload's table name.
    pub session: SqlSession,
    /// Checksum every later iteration must reproduce.
    pub checksum: u64,
}

/// Set-up of a query workload: generate, register, warm-up iteration.
pub fn setup_query(cfg: &RunConfig) -> Result<QuerySetup, String> {
    let w = &cfg.workload;
    let table = w.generate(cfg.rows(), cfg.seed);
    let mut session = SqlSession::with_options(cfg.opts());
    session.register(w.table, table);
    let warm = guarded(|| session.query(&w.sql))?;
    Ok(QuerySetup { checksum: checksum(&warm), session })
}

/// A set-up `append_stream`: the open engine and the batches still to append.
pub struct StreamSetup {
    /// The lowered query (for the from-scratch check).
    pub query: WindowQuery,
    /// The rows the query is opened over.
    pub base: Table,
    /// The engine, opened over the base rows.
    pub engine: IncrementalEngine,
    /// The batches of one episode, in stream order.
    pub batches: Vec<Table>,
}

/// Set-up of `append_stream`: generate base + stream, open the engine over
/// the base rows, carve the rest into batches.
pub fn setup_stream(cfg: &RunConfig) -> Result<StreamSetup, String> {
    let w = &cfg.workload;
    let base = cfg.rows();
    let n_batches = w.batches(cfg.scale);
    let full = w.generate(base + n_batches * BATCH_ROWS, cfg.seed);
    let (query, _) = holistic_sql::parse_window_query(&w.sql).map_err(|e| e.to_string())?;
    let base_table = full.slice_rows(0, base);
    let engine = guarded(|| query.begin_incremental(&base_table, cfg.opts()))?;
    let batches = (0..n_batches)
        .map(|b| full.slice_rows(base + b * BATCH_ROWS, base + (b + 1) * BATCH_ROWS))
        .collect();
    Ok(StreamSetup { query, base: base_table, engine, batches })
}

/// The naive-oracle check of this run's workload on a prefix of its input;
/// once per run, before set-up, and not part of `setup_s`.
pub fn oracle(cfg: &RunConfig) -> Result<(), String> {
    guarded(|| oracle_check(&cfg.workload, &cfg.workload.generate(cfg.rows(), cfg.seed)))
}

/// Runs set-up [`SETUP_REPS`] times (dropping each before the next, so peak
/// memory is one set-up's) and returns the last with the per-set-up seconds.
fn repeat_setup<S>(mut setup: impl FnMut() -> Result<S, String>) -> Result<(S, Vec<f64>), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        drop(last.take());
        let t = Instant::now();
        last = Some(setup()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS >= 1"), secs))
}

/// The end-to-end run (`--trace 0`).
pub fn run_end_to_end(cfg: &RunConfig) -> RunResult {
    let mut res = RunResult::default();
    if res.check("oracle", oracle(cfg)).is_none() {
        return res;
    }
    let deadline = Duration::from_secs_f64(cfg.seconds);
    let mut lat: Vec<Duration> = Vec::new();

    let (setup_secs, peak, rows_per_s) = match cfg.workload.kind {
        Kind::Query => {
            let Some((qs, secs)) = res.check("set-up", repeat_setup(|| setup_query(cfg))) else {
                return res;
            };
            res.checksum = qs.checksum;
            let phase = Instant::now();
            let mut iters = 0;
            while phase.elapsed() < deadline || iters < MIN_ITERS {
                iters += 1;
                let t = Instant::now();
                let out = guarded(|| qs.session.query(&cfg.workload.sql));
                let d = t.elapsed();
                // The check is outside the timed interval.
                let same = out.and_then(|o| same_checksum(checksum(&o), qs.checksum));
                if res.check("query", same).is_some() {
                    lat.push(d);
                }
            }
            let total: f64 = lat.iter().map(Duration::as_secs_f64).sum();
            (secs, peak_rss_mb(), (cfg.rows() * lat.len()) as f64 / total)
        }
        Kind::AppendStream => {
            let Some((ss, secs)) = res.check("set-up", repeat_setup(|| setup_stream(cfg))) else {
                return res;
            };
            // Whole episodes until the time is up: every episode opens the
            // query over the same base rows and appends the same batches, so
            // the median over episodes filters the box's noise, not the work.
            let mut engine = ss.engine;
            let mut episode_rows_per_s = Vec::new();
            let phase = Instant::now();
            loop {
                let (mut rows, mut secs) = (0, 0.0);
                for batch in &ss.batches {
                    let t = Instant::now();
                    let r = guarded(|| engine.append(batch));
                    let d = t.elapsed();
                    if res.check("append", r).is_some() {
                        lat.push(d);
                        rows += batch.num_rows();
                        secs += d.as_secs_f64();
                    }
                }
                episode_rows_per_s.push(rows as f64 / secs);
                let sum = guarded(|| engine.output_table()).map(|out| checksum(&out));
                if episode_rows_per_s.len() == 1 {
                    res.checksum = sum.clone().unwrap_or(0);
                }
                let same = sum.and_then(|c| same_checksum(c, res.checksum));
                res.check("episode output", same);
                if phase.elapsed() >= deadline && episode_rows_per_s.len() >= MIN_EPISODES {
                    break;
                }
                match res
                    .check("re-open", guarded(|| ss.query.begin_incremental(&ss.base, cfg.opts())))
                {
                    Some(e) => engine = e,
                    None => break,
                }
            }
            // Read before the from-scratch check, which is not the workload.
            let peak = peak_rss_mb();
            let identical = guarded(|| engine.output_table()).and_then(|out| {
                let scratch = guarded(|| ss.query.execute_with(engine.table(), cfg.opts()))?;
                tables_identical(&out, &scratch)
            });
            res.check("append output vs from-scratch execute", identical);
            (secs, peak, median(&episode_rows_per_s))
        }
    };

    let ms: Vec<f64> = lat.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    res.samples = ms.len();
    res.values.set("latency_ms_p50", median(&ms));
    res.values.set("rows_per_s", rows_per_s);
    res.values.set("peak_rss_mb", peak);
    res.values.set("setup_s", median(&setup_secs));
    res
}

/// Requires an output's checksum to equal the first output's.
pub fn same_checksum(got: u64, expected: u64) -> Result<(), String> {
    (got == expected)
        .then_some(())
        .ok_or(format!("checksum {got:016x} differs from the first output's {expected:016x}"))
}
