//! The differential fuzzing driver.
//!
//! ```text
//! fuzz [--cases N] [--seed S] [--max-n N] [--max-calls N]
//!      [--time-budget-secs T] [--replay CASE_SEED] [--panic-sweep] [--append]
//!      [--budget BYTES] [--sql-roundtrip]
//! ```
//!
//! Default mode generates `--cases` cases from `--seed` and runs each
//! through the differential check (naive baseline + every engine
//! configuration of `diff::check_case`); its summary line counts the cases
//! whose reference output mixed Int and Float, and those in which Adaptive
//! ran a rank-family call on the incremental strategy's sliding window. On
//! the first divergence it shrinks the case, prints a replayable report and
//! exits non-zero. `--replay` re-runs exactly one case
//! by its per-case seed (printed in every failure report). `--panic-sweep`
//! runs the invalid-spec corpus instead: everything must return `Error`,
//! nothing may panic. `--append` runs the append-sequence mode instead: each
//! case's table is carved into a base plus seeded batches, fed through the
//! incremental delta API, and compared bit-identically against from-scratch
//! execution under every configuration. Half its cases are shaped for the
//! splice path (`gen::generate_append`); its summary line counts the cases
//! that spliced, those that read a rank off the peer groups and those that
//! probed a forest shared by two calls. `--budget BYTES` runs the
//! budget-constrained mode instead: every case runs under a memory budget
//! and must be bit-identical to the unbudgeted serial reference or fail
//! with the typed `BudgetExceeded` (never panic); its summary line counts the
//! cases that compared a re-faulted tree and those that ended in
//! `BudgetExceeded`. `--sql-roundtrip` runs the frontend loop instead: each
//! case's query is printed as SQL, re-parsed and re-planned (must reproduce
//! the spec structurally), and executed through the `holistic-sql` session
//! path (must be bit-identical to the builder path).

use holistic_fuzz::gen::{case_seed, generate, generate_append, GenConfig};
use holistic_fuzz::{
    check_append_case, check_budget_case, check_case, check_sql_roundtrip, dump_table, panic_sweep,
    shrink, with_quiet_panics,
};
use std::cell::Cell;
use std::time::Instant;

struct Args {
    cases: u64,
    seed: u64,
    max_n: usize,
    max_calls: usize,
    time_budget_secs: Option<u64>,
    replay: Option<u64>,
    panic_sweep: bool,
    append: bool,
    budget: Option<u64>,
    sql_roundtrip: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            cases: 500,
            seed: 0xC0FFEE,
            max_n: 48,
            max_calls: 5,
            time_budget_secs: None,
            replay: None,
            panic_sweep: false,
            append: false,
            budget: None,
            sql_roundtrip: false,
        }
    }
}

fn parse_u64(s: &str) -> Result<u64, String> {
    let r = if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u64::from_str_radix(hex, 16)
    } else {
        s.parse()
    };
    r.map_err(|_| format!("not a number: {s}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--cases" => args.cases = parse_u64(&value("--cases")?)?,
            "--seed" => args.seed = parse_u64(&value("--seed")?)?,
            "--max-n" => args.max_n = parse_u64(&value("--max-n")?)? as usize,
            "--max-calls" => args.max_calls = parse_u64(&value("--max-calls")?)?.max(1) as usize,
            "--time-budget-secs" => {
                args.time_budget_secs = Some(parse_u64(&value("--time-budget-secs")?)?)
            }
            "--replay" => args.replay = Some(parse_u64(&value("--replay")?)?),
            "--panic-sweep" => args.panic_sweep = true,
            "--append" => args.append = true,
            "--budget" => args.budget = Some(parse_u64(&value("--budget")?)?),
            "--sql-roundtrip" => args.sql_roundtrip = true,
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn usage() {
    eprintln!(
        "usage: fuzz [--cases N] [--seed S] [--max-n N] [--max-calls N]\n\
         \x20           [--time-budget-secs T] [--replay CASE_SEED] [--panic-sweep] [--append]\n\
         \x20           [--budget BYTES] [--sql-roundtrip]"
    );
}

fn replay_command(case_seed: u64, args: &Args) -> String {
    format!(
        "cargo run --release -p holistic-fuzz --bin fuzz -- --replay {case_seed:#x} \
         --max-n {} --max-calls {}{}{}{}",
        args.max_n,
        args.max_calls,
        if args.append { " --append" } else { "" },
        match args.budget {
            Some(b) => format!(" --budget {b}"),
            None => String::new(),
        },
        if args.sql_roundtrip { " --sql-roundtrip" } else { "" }
    )
}

fn report_failure(
    index: Option<u64>,
    cs: u64,
    case: &holistic_fuzz::FuzzCase,
    divergence: &holistic_fuzz::Divergence,
    args: &Args,
) {
    match index {
        Some(i) => println!("FUZZ FAILURE at case #{i} (case seed {cs:#x})"),
        None => println!("FUZZ FAILURE (case seed {cs:#x})"),
    }
    println!("  divergence: {divergence}");
    println!("  replay:     {}", replay_command(cs, args));
    let check = |t: &holistic_window::Table, q: &holistic_window::WindowQuery| {
        if args.sql_roundtrip {
            check_sql_roundtrip(t, q)
        } else if let Some(b) = args.budget {
            check_budget_case(t, q, b).map(drop)
        } else if args.append {
            check_append_case(t, q, cs).map(drop)
        } else {
            check_case(t, q).map(drop)
        }
    };
    let fails = |t: &holistic_window::Table, q: &holistic_window::WindowQuery| check(t, q).is_err();
    let (table, query) = shrink(&case.table, &case.query, &fails);
    let shrunk_div = check(&table, &query).err();
    println!(
        "  shrunk to {} rows, {} calls{}:",
        table.num_rows(),
        query.calls.len(),
        match &shrunk_div {
            Some(d) => format!(" (divergence: {d})"),
            None => String::new(),
        }
    );
    print!("{}", dump_table(&table));
    println!("  query: {query:#?}");
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            usage();
            std::process::exit(2);
        }
    };

    if args.panic_sweep {
        let start = Instant::now();
        let report = with_quiet_panics(|| panic_sweep(args.seed, args.cases as usize, args.max_n));
        for f in &report.failures {
            println!("PANIC SWEEP FAILURE: {f}");
        }
        println!(
            "panic sweep: {} cases, {} failures ({:.1}s)",
            report.cases,
            report.failures.len(),
            start.elapsed().as_secs_f64()
        );
        std::process::exit(if report.failures.is_empty() { 0 } else { 1 });
    }

    let cfg = GenConfig { max_n: args.max_n, max_calls: args.max_calls };

    // Budget mode's summary: cases where a compared config re-faulted a
    // tree, and cases where a config ended in `BudgetExceeded`.
    let (refaulted, exceeded) = (Cell::new(0u64), Cell::new(0u64));
    // Append mode's: cases that spliced, read a rank off the peer groups,
    // and probed a forest shared by two calls.
    let (spliced, peer_rank, shared_forest) = (Cell::new(0u64), Cell::new(0u64), Cell::new(0u64));
    // Default mode's: cases whose reference output mixed Int and Float, and
    // cases where Adaptive slid a rank-family call.
    let (mixed, rank_slid) = (Cell::new(0u64), Cell::new(0u64));
    let count = |c: &Cell<u64>, yes: bool| c.set(c.get() + yes as u64);
    let check = |t: &holistic_window::Table, q: &holistic_window::WindowQuery, cs: u64| {
        if args.sql_roundtrip {
            check_sql_roundtrip(t, q)
        } else if let Some(b) = args.budget {
            check_budget_case(t, q, b).map(|probe| {
                count(&refaulted, probe.compared_refaulted);
                count(&exceeded, probe.exceeded);
            })
        } else if args.append {
            check_append_case(t, q, cs).map(|probe| {
                count(&spliced, probe.spliced);
                count(&peer_rank, probe.peer_rank);
                count(&shared_forest, probe.shared_forest);
            })
        } else {
            check_case(t, q).map(|probe| {
                count(&mixed, probe.mixed_numeric);
                count(&rank_slid, probe.rank_slid);
            })
        }
    };
    let generate =
        |cs: u64| if args.append { generate_append(cs, &cfg) } else { generate(cs, &cfg) };

    if let Some(cs) = args.replay {
        let case = generate(cs);
        println!("replaying case seed {cs:#x}:");
        print!("{}", dump_table(&case.table));
        println!("  query: {:#?}", case.query);
        match with_quiet_panics(|| check(&case.table, &case.query, cs)) {
            Ok(()) => println!("replay OK: no divergence"),
            Err(d) => {
                report_failure(None, cs, &case, &d, &args);
                std::process::exit(1);
            }
        }
        return;
    }

    let start = Instant::now();
    let mut ran = 0u64;
    let failed = with_quiet_panics(|| {
        for i in 0..args.cases {
            if let Some(budget) = args.time_budget_secs {
                if start.elapsed().as_secs() >= budget {
                    println!("time budget of {budget}s reached after {ran} cases — stopping early");
                    break;
                }
            }
            let cs = case_seed(args.seed, i);
            let case = generate(cs);
            if let Err(d) = check(&case.table, &case.query, cs) {
                report_failure(Some(i), cs, &case, &d, &args);
                return true;
            }
            ran += 1;
            if ran.is_multiple_of(100) {
                println!("  {ran}/{} cases, {:.1}s", args.cases, start.elapsed().as_secs_f64());
            }
        }
        false
    });
    if failed {
        std::process::exit(1);
    }
    if args.sql_roundtrip {
        println!(
            "fuzz OK (sql-roundtrip mode): {ran} cases, seed {:#x}, max-n {}, \
             print→parse→plan structural + session-vs-builder bit-identical ({:.1}s)",
            args.seed,
            args.max_n,
            start.elapsed().as_secs_f64()
        );
    } else if let Some(b) = args.budget {
        println!(
            "fuzz OK (budget mode): {ran} cases, seed {:#x}, max-n {}, budget {b} B — \
             budgeted configs bit-identical or typed BudgetExceeded; {} cases compared a \
             re-faulted tree, {} ended in BudgetExceeded ({:.1}s)",
            args.seed,
            args.max_n,
            refaulted.get(),
            exceeded.get(),
            start.elapsed().as_secs_f64()
        );
    } else if args.append {
        println!(
            "fuzz OK (append mode): {ran} cases, seed {:#x}, max-n {}, delta API vs \
             from-scratch bit-identical over {} configs; {} cases spliced, {} read a rank \
             off the peer groups, {} probed a shared forest ({:.1}s)",
            args.seed,
            args.max_n,
            holistic_fuzz::append_configs().len(),
            spliced.get(),
            peer_rank.get(),
            shared_forest.get(),
            start.elapsed().as_secs_f64()
        );
    } else {
        println!(
            "fuzz OK: {ran} cases, seed {:#x}, max-n {}, {} exact configs vs naive; {} cases mixed Int and Float in a reference output, {} ran a \
             rank-family call on the sliding window ({:.1}s)",
            args.seed,
            args.max_n,
            holistic_fuzz::diff::exact_configs().len(),
            mixed.get(),
            rank_slid.get(),
            start.elapsed().as_secs_f64()
        );
    }
}
