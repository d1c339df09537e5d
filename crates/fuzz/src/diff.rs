//! The differential check: naive baseline vs. every engine configuration.
//!
//! Two comparison regimes, deliberately different:
//!
//! * **engine vs. naive** — float-tolerant ([`values_close`]). The two sides
//!   derive every aggregate independently and sum floats in different orders
//!   (segment-tree pairwise vs. linear scan), so exact equality is not a
//!   sound expectation.
//! * **engine config vs. engine config** — bit-identical
//!   ([`values_identical`]). Serial/parallel, shared/private caching and the
//!   strategy, adaptive or forced, are pure execution strategies: every
//!   strategy names an index over the same kept values and dense codes, and
//!   each family's arithmetic is written once against it. Any difference at
//!   all, down to the sign of a zero, is a bug.
//!
//! Errors count as agreement only when *both* sides error (messages may
//! legitimately differ); a panic anywhere is always a failure — the engine's
//! contract is `Result`, never unwinding.

use holistic_baselines::naive;
use holistic_window::prelude::*;
use holistic_window::CallClass;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// One observed disagreement (or panic), attributed to the configuration
/// that produced it.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Which execution produced the bad result (`naive` or an
    /// [`ExecOptions::label`]).
    pub config: String,
    /// Human-readable description of the disagreement.
    pub message: String,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.config, self.message)
    }
}

/// Float-tolerant value comparison (engine vs. naive).
pub fn values_close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => {
            (x.is_nan() && y.is_nan()) || (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs()))
        }
        (Value::Float(x), Value::Int(y)) | (Value::Int(y), Value::Float(x)) => {
            (*x - *y as f64).abs() <= 1e-9
        }
        _ => a == b,
    }
}

/// Bit-identical value comparison (engine config vs. engine config).
pub fn values_identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Runs `f`, converting a panic into a [`Divergence`] attributed to `config`.
/// The vendored rayon resumes a worker's panic on the calling thread with
/// the worker's own payload, so this boundary catches parallel-mode panics
/// too, and reports their cause.
pub(crate) fn run_protected<T>(
    config: &str,
    f: impl FnOnce() -> holistic_window::Result<T>,
) -> Result<holistic_window::Result<T>, Divergence> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| Divergence {
        config: config.to_string(),
        message: format!("panicked: {}", panic_message(p.as_ref())),
    })
}

pub(crate) fn compare_tables(
    config: &str,
    against: &str,
    query: &WindowQuery,
    expect: &Table,
    got: &Table,
    eq: fn(&Value, &Value) -> bool,
) -> Result<(), Divergence> {
    for call in &query.calls {
        let name = &call.output_name;
        let (ce, cg) = match (expect.column(name), got.column(name)) {
            (Ok(a), Ok(b)) => (a, b),
            _ => {
                return Err(Divergence {
                    config: config.to_string(),
                    message: format!("output column {name} missing"),
                })
            }
        };
        for row in 0..expect.num_rows() {
            let (e, g) = (ce.get(row), cg.get(row));
            if !eq(&e, &g) {
                return Err(Divergence {
                    config: config.to_string(),
                    message: format!(
                        "column {name} row {row}: got {g}, {against} has {e} \
                         ({} {})",
                        call.kind.name(),
                        if call.inner_order.is_empty() { "" } else { "with inner order" },
                    ),
                });
            }
        }
    }
    Ok(())
}

/// What a budget case that held probed: the `--budget` summary counts these,
/// so a leg picked for the cases that compare a tree built out of core says
/// when a smaller governed footprint has made them vanish.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BudgetProbe {
    /// At least one budgeted configuration ran to completion — its output
    /// compared with the reference — having re-faulted a parked tree.
    pub compared_refaulted: bool,
    /// At least one budgeted configuration ended in `BudgetExceeded`.
    pub exceeded: bool,
}

/// Checks one case under a memory budget: budgeted configurations must be
/// **bit-identical** to an unbudgeted serial reference whenever they
/// complete, and may otherwise fail only with the typed
/// [`holistic_window::Error::BudgetExceeded`] — any other fresh error, and
/// any panic, is a divergence. Spilling and out-of-core builds are pure
/// execution strategies, so the comparison regime is the strict one.
pub fn check_budget_case(
    table: &Table,
    query: &WindowQuery,
    budget: u64,
) -> Result<BudgetProbe, Divergence> {
    let reference =
        run_protected("serial-reference", || query.execute_with(table, ExecOptions::serial()))?;
    let configs = [
        ExecOptions::serial().memory_budget(budget),
        ExecOptions::default().memory_budget(budget),
        ExecOptions::serial().force_strategy(Strategy::Mst).memory_budget(budget),
    ];
    let mut probe = BudgetProbe::default();
    for opts in configs {
        let label = opts.label();
        let res = run_protected(&label, || query.execute_profiled(table, opts))?;
        match (&reference, res) {
            // Running out of budget is always a legitimate outcome — but
            // only through the typed error, never a panic (caught above).
            (_, Err(holistic_window::Error::BudgetExceeded { .. })) => probe.exceeded = true,
            (Err(_), Err(_)) => {}
            (Err(e), Ok(_)) => {
                return Err(Divergence {
                    config: label,
                    message: format!("budgeted run succeeded where reference errors ({e})"),
                })
            }
            (Ok(_), Err(e)) => {
                return Err(Divergence {
                    config: label,
                    message: format!(
                        "budgeted run failed with a non-budget error where reference \
                         succeeds: {e}"
                    ),
                })
            }
            (Ok(expect), Ok((got, profile))) => {
                compare_tables(&label, "serial-reference", query, expect, &got, values_identical)?;
                probe.compared_refaulted |= profile.spill.refaults > 0;
            }
        }
    }
    Ok(probe)
}

/// The configurations [`check_case`] holds bit-identical: every adaptive
/// one, each strategy forced serially, and forced-MST in parallel.
pub fn exact_configs() -> Vec<ExecOptions> {
    let mut exact = ExecOptions::all_configs().to_vec();
    exact.extend(Strategy::ALL.map(|s| ExecOptions::serial().force_strategy(s)));
    exact.push(ExecOptions::default().force_strategy(Strategy::Mst));
    exact
}

/// What a case that held exercised: the default mode's summary counts
/// these, so a change to the generator that loses a shape says so.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CaseProbe {
    /// The reference output of some call mixed Int and Float values (a
    /// LEAD/LAG default of the other numeric type): the output column's
    /// typing rules decided between a Float column and a `TypeMismatch`.
    pub mixed_numeric: bool,
    /// Adaptive ran a rank-family call (ROW_NUMBER, RANK, PERCENT_RANK,
    /// CUME_DIST, NTILE) on the sliding window of the incremental strategy
    /// in some partition: the window counted below a code.
    pub rank_slid: bool,
    /// Adaptive ran a percentile (MEDIAN, PERCENTILE_DISC, PERCENTILE_CONT)
    /// on that sliding window in some partition: the window selected a code.
    pub percentile_slid: bool,
}

/// Checks one case: every configuration of [`exact_configs`] must agree
/// with the naive baseline float-tolerantly, in its `Err`-ness too, and
/// with the others bit for bit (the module-level comparison regimes). A
/// forced strategy a call cannot use falls back to the MST for that call,
/// so every case runs each forced path end to end. `Ok` means full
/// agreement and says what the case exercised; `Err` carries the first
/// divergence found.
pub fn check_case(table: &Table, query: &WindowQuery) -> Result<CaseProbe, Divergence> {
    let naive_outputs = run_protected("naive", || naive::outputs(query, table))?;
    let mixes = |values: &Vec<Value>| {
        values.iter().any(|v| matches!(v, Value::Int(_)))
            && values.iter().any(|v| matches!(v, Value::Float(_)))
    };
    let mut probe = CaseProbe {
        mixed_numeric: naive_outputs.as_ref().is_ok_and(|calls| calls.iter().any(mixes)),
        rank_slid: false,
        percentile_slid: false,
    };
    let slid = |profile: &ExecProfile, class: CallClass| {
        query.calls.iter().zip(&profile.strategy.per_call).any(|(call, decided)| {
            CallClass::of(call) == class && decided[Strategy::Incremental.index()] > 0
        })
    };
    let naive_res = naive_outputs.and_then(|calls| naive::assemble(query, &calls));
    let mut reference: Option<(String, Table)> = None;
    for opts in exact_configs() {
        let label = opts.label();
        let engine_res =
            run_protected(&label, || query.execute_profiled(table, opts))?.map(|(out, profile)| {
                if opts.strategy == StrategyMode::Adaptive {
                    probe.rank_slid |= slid(&profile, CallClass::RankLike);
                    probe.percentile_slid |= slid(&profile, CallClass::Percentile);
                }
                out
            });
        match (&naive_res, engine_res) {
            // Both sides reject the case: agreement (invalid specs are the
            // panic sweep's business, not the differential check's).
            (Err(_), Err(_)) => {}
            (Err(e), Ok(_)) => {
                return Err(Divergence {
                    config: label,
                    message: format!("engine succeeded where naive errors ({e})"),
                })
            }
            (Ok(_), Err(e)) => {
                return Err(Divergence {
                    config: label,
                    message: format!("engine error where naive succeeds: {e}"),
                })
            }
            (Ok(expect), Ok(got)) => {
                compare_tables(&label, "naive", query, expect, &got, values_close)?;
                match &reference {
                    Some((ref_label, ref_table)) => {
                        compare_tables(&label, ref_label, query, ref_table, &got, values_identical)?
                    }
                    None => reference = Some((label, got)),
                }
            }
        }
    }
    Ok(probe)
}
