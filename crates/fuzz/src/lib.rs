//! Differential fuzzing for the window engine.
//!
//! The merge sort tree engine has a large behavioral surface — six evaluator
//! families × three frame modes × constant and per-row bounds × four
//! exclusions × FILTER × IGNORE NULLS × independent inner ORDER BY — times
//! four engine configurations (serial/parallel × shared/private artifact
//! cache). This crate closes that surface with four pieces:
//!
//! * [`gen`] — a seeded, weighted generator over the full spec space. Every
//!   case is identified by a single `u64` seed; the same seed always
//!   regenerates the same table and query, so every failure is replayable.
//! * [`diff`] — the differential check: the engine must agree with the naive
//!   per-row baseline (float-tolerant, the two sides sum in different
//!   orders); all four adaptive configurations plus forced-MST must agree
//!   bit-identically with each other; and every forced alternate strategy
//!   (naive, incremental, ostree, segtree) must agree float-tolerantly with
//!   the baseline. Panics are caught and reported as failures, never
//!   allowed to take the harness down.
//! * [`mod@shrink`] — delta-debugging minimization of a failing case: first the
//!   table rows, then the calls, then individual spec features, so the
//!   reported repro is as small as the failure allows.
//! * [`mod@panic_sweep`] — the negative half: generated-*invalid* specs
//!   (negative/NULL/non-integer offsets, bad key types, malformed call
//!   shapes) must yield `Error`, never panic, on every configuration.
//! * [`mod@sql_roundtrip`] — the frontend loop: every generated spec printed
//!   as SQL must re-parse to a structurally identical spec and execute
//!   bit-identically through the `holistic-sql` session path.
//!
//! The `fuzz` binary drives all of this from the command line; `ci.sh` runs
//! a deterministic smoke portion of it on every commit, and `tests/oracle.rs`
//! at the workspace root draws its scenarios from the same generator so the
//! oracle and the fuzzer share one definition of the spec space.

pub mod append;
pub mod diff;
pub mod gen;
pub mod panic_sweep;
pub mod shrink;
pub mod sql_roundtrip;

pub use append::{append_configs, append_plan, check_append_case, AppendPlan, AppendProbe};
pub use diff::{check_budget_case, check_case, BudgetProbe, CaseProbe, Divergence};
pub use gen::{case_seed, generate, generate_append, FuzzCase, GenConfig};
pub use panic_sweep::{panic_sweep, SweepReport};
pub use shrink::shrink;
pub use sql_roundtrip::check_sql_roundtrip;

/// Runs `f` with the global panic hook silenced, restoring it afterwards.
///
/// The differential check intentionally provokes panics (that is the point:
/// it catches them and turns them into failures); without this the default
/// hook would spray every caught panic's message and backtrace to stderr.
pub fn with_quiet_panics<T>(f: impl FnOnce() -> T) -> T {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// Renders a table row-by-row for failure reports.
pub fn dump_table(table: &holistic_window::Table) -> String {
    use std::fmt::Write;
    let mut s = String::new();
    let names: Vec<&str> = table.iter().map(|(n, _)| n).collect();
    let _ = writeln!(s, "  {} rows, columns: {}", table.num_rows(), names.join(", "));
    for i in 0..table.num_rows() {
        let row: Vec<String> = table.iter().map(|(n, c)| format!("{n}={}", c.get(i))).collect();
        let _ = writeln!(s, "  [{i}] {}", row.join(" "));
    }
    s
}
