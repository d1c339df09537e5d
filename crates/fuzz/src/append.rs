//! Append-sequence differential mode: the delta API vs. from-scratch.
//!
//! Splits a generated case's table into a base plus a few append batches
//! (split points derived from the case seed, so every run is replayable),
//! feeds them through [`IncrementalEngine`], and
//! demands the refreshed outputs be **bit-identical** to executing the query
//! from scratch on the full table — under every engine configuration, adaptive
//! and forced to the merge sort tree ([`append_configs`]). The
//! incremental engine promises exact equivalence whichever path (splice or
//! recompute) each batch takes; unlike the naive-vs-engine comparison there
//! is no float tolerance here.
//!
//! Cases come from [`crate::gen::generate_append`]: half of them are the
//! default mode's cases, which almost never end-append, and half are shaped
//! so the engine's splice path takes their batches. [`AppendProbe`] reports
//! whether a case spliced, read a rank off the peer groups and probed a
//! shared forest.
//!
//! Error agreement follows the differential check's rule: both sides
//! erroring is agreement (the engine may surface the error at whichever
//! batch first contains the offending data), one side erroring alone is a
//! divergence. `changed_outputs` must always contain every row of the batch
//! that introduced it.

use crate::diff::{run_protected, values_identical, Divergence};
use holistic_window::prelude::*;

/// How a case's table is carved into base + batches.
#[derive(Debug, Clone)]
pub struct AppendPlan {
    /// Rows `[0, base_n)` form the engine's initial table.
    pub base_n: usize,
    /// Exclusive end of each batch; ascending, last = total rows.
    pub cuts: Vec<usize>,
}

/// Derives a deterministic append plan from the case seed: a base of
/// roughly half the rows, then 1–3 batches (possibly empty at the tail —
/// empty appends must be no-ops, so they are worth generating).
pub fn append_plan(seed: u64, n: usize) -> AppendPlan {
    let mut s = seed ^ 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        s ^= s >> 30;
        s = s.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        s ^= s >> 27;
        s = s.wrapping_mul(0x94D0_49BB_1331_11EB);
        s ^= s >> 31;
        s
    };
    let base_n = if n == 0 { 0 } else { (next() as usize) % (n + 1) };
    let k = 1 + (next() as usize) % 3;
    let mut cuts: Vec<usize> = (0..k - 1)
        .map(|_| if n == base_n { n } else { base_n + (next() as usize) % (n - base_n + 1) })
        .collect();
    cuts.push(n);
    cuts.sort_unstable();
    AppendPlan { base_n, cuts }
}

/// What an append case that held exercised: the `--append` summary counts
/// these, so a leg says when its cases stop reaching the splice path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AppendProbe {
    /// Some configuration refreshed a partition through the splice path.
    pub spliced: bool,
    /// Some splice read a rank-family output off the peer groups.
    pub peer_rank: bool,
    /// Some splice probed a forest that another call probes too.
    pub shared_forest: bool,
}

/// The configurations an append case runs under: every engine configuration,
/// adaptive and forced to the merge sort tree. At small sizes Adaptive
/// chooses naive everywhere, so only the forced half recomputes a partition
/// through an artifact cache.
pub fn append_configs() -> Vec<ExecOptions> {
    let all = ExecOptions::all_configs();
    all.into_iter().chain(all.map(|o| o.force_strategy(Strategy::Mst))).collect()
}

/// Runs one case through the append-sequence check. `Ok` means every
/// configuration of [`append_configs`] agreed bit-for-bit with its own
/// from-scratch execution; it carries what the appends exercised.
pub fn check_append_case(
    table: &Table,
    query: &WindowQuery,
    seed: u64,
) -> Result<AppendProbe, Divergence> {
    let n = table.num_rows();
    let plan = append_plan(seed, n);
    let base = table.slice_rows(0, plan.base_n);
    let mut batches: Vec<(usize, Table)> = Vec::new(); // (first row id, rows)
    let mut at = plan.base_n;
    for &cut in &plan.cuts {
        batches.push((at, table.slice_rows(at, cut)));
        at = cut;
    }

    let mut probe = AppendProbe::default();
    for opts in append_configs() {
        let label = format!("append/{}", opts.label());
        let full_res = run_protected(&label, || query.execute_with(table, opts))?;
        let engine_res = run_protected(&label, || {
            let mut engine = query.begin_incremental(&base, opts)?;
            for (first, batch) in &batches {
                let res = engine.append(batch)?;
                for row in *first..*first + batch.num_rows() {
                    assert!(
                        res.changed_outputs.contains(&row),
                        "changed_outputs must contain appended row {row}"
                    );
                }
                probe.spliced |= res.profile.spliced_partitions > 0;
                probe.peer_rank |= res.profile.peer_rank_outputs > 0;
                probe.shared_forest |= res.profile.shared_forest_outputs > 0;
            }
            if let Some(diff) = table_difference(engine.table(), table) {
                panic!("the grown table differs from the case's table: {diff}");
            }
            engine.output_table()
        })?;
        match (&full_res, engine_res) {
            (Err(_), Err(_)) => {}
            (Err(e), Ok(_)) => {
                return Err(Divergence {
                    config: label,
                    message: format!("delta API succeeded where from-scratch errors ({e})"),
                })
            }
            (Ok(_), Err(e)) => {
                return Err(Divergence {
                    config: label,
                    message: format!("delta API error where from-scratch succeeds: {e}"),
                })
            }
            (Ok(expect), Ok(got)) => {
                for call in &query.calls {
                    let name = &call.output_name;
                    let (ce, cg) = match (expect.column(name), got.column(name)) {
                        (Ok(a), Ok(b)) => (a, b),
                        _ => {
                            return Err(Divergence {
                                config: label,
                                message: format!("output column {name} missing"),
                            })
                        }
                    };
                    for row in 0..n {
                        let (e, g) = (ce.get(row), cg.get(row));
                        if !values_identical(&e, &g) {
                            return Err(Divergence {
                                config: label.clone(),
                                message: format!(
                                    "column {name} row {row}: delta API has {g}, \
                                     from-scratch has {e} (base {} + {} batches)",
                                    plan.base_n,
                                    batches.len(),
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
    Ok(probe)
}

/// The first difference between two tables, column by column: name, type,
/// then each row's validity and value (bit-identical).
fn table_difference(got: &Table, want: &Table) -> Option<String> {
    if (got.num_columns(), got.num_rows()) != (want.num_columns(), want.num_rows()) {
        return Some(format!(
            "{} columns × {} rows, want {} × {}",
            got.num_columns(),
            got.num_rows(),
            want.num_columns(),
            want.num_rows()
        ));
    }
    for ((name, g), (want_name, w)) in got.iter().zip(want.iter()) {
        if name != want_name || g.data_type() != w.data_type() {
            return Some(format!(
                "column {name}: {:?}, want {want_name}: {:?}",
                g.data_type(),
                w.data_type()
            ));
        }
        for row in 0..want.num_rows() {
            let (gv, wv) = (g.get(row), w.get(row));
            if g.is_valid(row) != w.is_valid(row) || !values_identical(&gv, &wv) {
                return Some(format!("column {name} row {row}: {gv}, want {wv}"));
            }
        }
    }
    None
}
