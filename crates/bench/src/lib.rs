//! # holistic-bench — the harness regenerating every table and figure
//!
//! Array-level implementations of each evaluated algorithm on identical
//! inputs, mirroring the paper's setup (§6.1): values pre-sorted by the
//! window ORDER BY, frames given as `[start, end)` position ranges. One
//! binary per experiment regenerates the corresponding figure/table series
//! (see DESIGN.md §4 and EXPERIMENTS.md).
//!
//! ```bash
//! cargo run --release -p holistic-bench --bin fig09
//! cargo run --release -p holistic-bench --bin fig10   # N=... to rescale
//! ...
//! cargo run --release -p holistic-bench --bin table1
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algos;
pub mod json;
pub mod workloads;

use std::time::{Duration, Instant};

/// Wall-times one run of `f`.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Best-of-`reps` wall time (the paper reports end-to-end query times; we
/// take the minimum to suppress scheduling noise on the shared runner).
pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let (mut out, mut best) = time_once(&mut f);
    for _ in 1..reps.max(1) {
        let (o, d) = time_once(&mut f);
        if d < best {
            best = d;
            out = o;
        }
    }
    (out, best)
}

/// Tuples per second, in millions.
pub fn mtps(n: usize, d: Duration) -> f64 {
    n as f64 / d.as_secs_f64() / 1e6
}

/// Reads a usize from the environment with a default (used by the figure
/// binaries to scale problem sizes: `N=1000000 cargo run --bin fig11 ...`).
/// A value that is set but is not a usize ends the process with exit code 2,
/// naming the variable and the value: a benchmark must not quietly run at a
/// size nobody asked for.
pub fn env_usize(name: &str, default: usize) -> usize {
    let set = std::env::var_os(name).map(|v| v.to_string_lossy().into_owned());
    parse_usize(name, set.as_deref(), default).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2)
    })
}

/// [`env_usize`] without the environment: `value` is what the variable holds,
/// `None` when it is unset.
fn parse_usize(name: &str, value: Option<&str>, default: usize) -> Result<usize, String> {
    match value {
        None => Ok(default),
        Some(v) => {
            v.parse().map_err(|e| format!("{name}={v:?} is not a non-negative whole number ({e})"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timing_helpers_run() {
        let (v, d) = time_once(|| 21 * 2);
        assert_eq!(v, 42);
        let (v, _) = time_best(3, || 7);
        assert_eq!(v, 7);
        assert!(d.as_nanos() < 1_000_000_000);
        assert!(mtps(1_000_000, Duration::from_secs(1)) - 1.0 < 1e-9);
    }

    #[test]
    fn env_usize_defaults() {
        assert_eq!(env_usize("HOLISTIC_BENCH_UNSET_VAR", 7), 7);
    }

    #[test]
    fn set_but_unparsable_values_are_errors_not_defaults() {
        assert_eq!(parse_usize("N", None, 7), Ok(7));
        assert_eq!(parse_usize("N", Some("1000000"), 7), Ok(1_000_000));
        for bad in ["1e6", "-3", "", " 5"] {
            let msg = parse_usize("N", Some(bad), 7).unwrap_err();
            assert!(msg.contains("N=") && msg.contains(bad), "{msg}");
        }
    }
}
