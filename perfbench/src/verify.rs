//! Output checks: an FNV checksum over result tables, and the naive oracle.

use crate::workloads::{Kind, Workload};
use holistic_baselines::naive;
use holistic_fuzz::diff::{values_close, values_identical};
use holistic_sql::{PlannedItem, SqlSession};
use holistic_window::{ExecOptions, Table, Value};

/// How many leading rows of the input the oracle check runs on.
pub const ORACLE_ROWS: usize = 3_000;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h = (*h ^ b as u64).wrapping_mul(FNV_PRIME);
    }
}

/// FNV-1a over every output column's name and `Value` bits, column by column
/// in table order. Two tables hash equally exactly when they are
/// bit-identical (floats by bit pattern), up to hash collisions.
pub fn checksum(table: &Table) -> u64 {
    let mut h = FNV_OFFSET;
    for (name, col) in table.iter() {
        fnv(&mut h, name.as_bytes());
        for i in 0..col.len() {
            match col.get(i) {
                Value::Null => fnv(&mut h, &[0]),
                Value::Int(x) => {
                    fnv(&mut h, &[1]);
                    fnv(&mut h, &x.to_le_bytes());
                }
                Value::Float(x) => {
                    fnv(&mut h, &[2]);
                    fnv(&mut h, &x.to_bits().to_le_bytes());
                }
                Value::Str(s) => {
                    fnv(&mut h, &[3]);
                    fnv(&mut h, s.as_bytes());
                    fnv(&mut h, &[0xff]);
                }
                Value::Date(d) => {
                    fnv(&mut h, &[4]);
                    fnv(&mut h, &d.to_le_bytes());
                }
                Value::Bool(b) => fnv(&mut h, &[5, b as u8]),
            }
        }
    }
    h
}

/// The oracle check of one workload, on the first [`ORACLE_ROWS`] rows of its
/// input: a query workload's SQL runs through a session, the stream's query
/// is opened on two thirds of the sample and fed the rest in one append; the
/// result is compared against `holistic_baselines::naive::execute` over the
/// compiled plan's windows (float-tolerant, as the differential fuzzer
/// compares engine to oracle).
pub fn oracle_check(w: &Workload, input: &Table) -> Result<(), String> {
    let sample = input.slice_rows(0, ORACLE_ROWS.min(input.num_rows()));
    let plan = holistic_sql::compile(&w.sql).map_err(|e| format!("compile: {e}"))?;
    let got = match w.kind {
        Kind::Query => {
            let mut session = SqlSession::with_options(ExecOptions::serial());
            session.register(w.table, sample.clone());
            session.query(&w.sql).map_err(|e| format!("sample query: {e}"))?
        }
        Kind::AppendStream => {
            let split = sample.num_rows() * 2 / 3;
            let mut engine = plan.windows[0]
                .begin_incremental(&sample.slice_rows(0, split), ExecOptions::serial())
                .map_err(|e| format!("sample begin_incremental: {e}"))?;
            engine
                .append(&sample.slice_rows(split, sample.num_rows()))
                .and_then(|_| engine.output_table())
                .map_err(|e| format!("sample append: {e}"))?
        }
    };
    let expect: Vec<Table> = plan
        .windows
        .iter()
        .map(|q| naive::execute(q, &sample).map_err(|e| format!("naive oracle: {e}")))
        .collect::<Result<_, _>>()?;
    for item in &plan.items {
        let PlannedItem::Window { group, call, name, .. } = item else { continue };
        let have = got.column(name).map_err(|e| format!("output column {name}: {e}"))?;
        for row in 0..sample.num_rows() {
            let (w, h) = (expect[*group].column_at(*call).get(row), have.get(row));
            if !values_close(&w, &h) {
                return Err(format!("column {name} row {row}: engine {h}, naive oracle {w}"));
            }
        }
    }
    Ok(())
}

/// Requires `a` and `b` to be bit-identical, column by column.
pub fn tables_identical(a: &Table, b: &Table) -> Result<(), String> {
    tables_match(a, b, values_identical)
}

/// Requires `a` and `b` to agree up to the oracle's float tolerance.
pub fn tables_close(a: &Table, b: &Table) -> Result<(), String> {
    tables_match(a, b, values_close)
}

fn tables_match(a: &Table, b: &Table, eq: fn(&Value, &Value) -> bool) -> Result<(), String> {
    if a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows() {
        return Err(format!(
            "shape {}x{} vs {}x{}",
            a.num_rows(),
            a.num_columns(),
            b.num_rows(),
            b.num_columns()
        ));
    }
    for ((na, ca), (nb, cb)) in a.iter().zip(b.iter()) {
        if na != nb {
            return Err(format!("column name {na} vs {nb}"));
        }
        for row in 0..a.num_rows() {
            let (x, y) = (ca.get(row), cb.get(row));
            if !eq(&x, &y) {
                return Err(format!("column {na} row {row}: {x} vs {y}"));
            }
        }
    }
    Ok(())
}
