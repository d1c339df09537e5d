//! The seven workloads: name, table, size, SQL text, and why each exists.
//!
//! Sizes are the ISSUE's shapes cut down in 100 k steps until one operation
//! takes 0.3–0.8 s serial on the 2-core reference box, so that a run of
//! `run_seconds` collects ten or more samples (see README.md, "Sizing").

use holistic_tpch::{lineitem, stock_orders};
use holistic_window::Table;

/// Fig. 12's per-row expression bounds: ~5 000-row frames whose start jitters
/// by a hash of the price, so consecutive frames are non-monotonic.
const J: &str = "ROWS BETWEEN (l_extendedprice * 7703) % 4999 PRECEDING \
                 AND 5000 - (l_extendedprice * 7703) % 4999 FOLLOWING";

/// Rows per `append_stream` batch.
pub const BATCH_ROWS: usize = 1_000;
/// Batches in one `append_stream` episode. An episode opens the query over
/// the base rows and appends this fixed stream, so forest merges and every
/// exact count repeat; a run replays whole episodes until `--seconds` is up.
pub const EPISODE_BATCHES: usize = 250;

/// What one operation is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `SqlSession::query(sql)`: SQL text to result table.
    Query,
    /// `IncrementalEngine::append(batch)` on a query opened with
    /// `begin_incremental`.
    AppendStream,
}

/// One workload definition at scale 1.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Why the workload exists (one line, as in `BENCHMARK.json`).
    pub why: &'static str,
    /// What one operation is.
    pub kind: Kind,
    /// `FROM` table.
    pub table: &'static str,
    /// Input rows at scale 1 (`append_stream`: rows before the first append).
    pub rows: usize,
    /// Memory budget in bytes per input row (`budgeted3` only).
    pub budget_per_row: Option<f64>,
    /// The SQL text.
    pub sql: String,
}

impl Workload {
    /// Input rows at `scale`.
    pub fn scaled_rows(&self, scale: f64) -> usize {
        ((self.rows as f64 * scale).round() as usize).max(1)
    }

    /// The absolute memory budget at `scale`, if the workload has one.
    pub fn budget(&self, scale: f64) -> Option<u64> {
        self.budget_per_row.map(|b| (b * self.scaled_rows(scale) as f64) as u64)
    }

    /// Batches of one `append_stream` episode at `scale`.
    pub fn batches(&self, scale: f64) -> usize {
        ((EPISODE_BATCHES as f64 * scale).round() as usize).max(4)
    }

    /// Generates the input table: `rows` rows from `seed`. The engine sees
    /// only this table.
    pub fn generate(&self, rows: usize, seed: u64) -> Table {
        match self.table {
            "lineitem" => lineitem(rows, seed).to_table(),
            "stock_orders" => stock_orders(rows, seed),
            other => unreachable!("no generator for table {other}"),
        }
    }
}

/// All workloads, in `BENCHMARK.json` order.
pub fn all() -> Vec<Workload> {
    let q = |name, why, rows, sql: String| Workload {
        name,
        why,
        kind: Kind::Query,
        table: "lineitem",
        rows,
        budget_per_row: None,
        sql,
    };
    vec![
        q(
            "running_distinct",
            "Paper Fig. 14 query: adaptive picks incremental, so one big ORDER BY sort and the \
             session dominate and the merge sort tree is bypassed",
            1_000_000,
            "SELECT count(DISTINCT l_partkey) OVER (ORDER BY l_shipdate ROWS BETWEEN UNBOUNDED \
             PRECEDING AND CURRENT ROW) AS c FROM lineitem"
                .into(),
        ),
        q(
            "nonmonotonic3",
            "Fig. 12 shape, per-row expression bounds, three calls all chosen as mst: VM frame \
             resolution, inner sort, prevIdcs, tree build and block probes do the work",
            100_000,
            format!(
                "SELECT median(l_extendedprice) OVER w AS med, count(DISTINCT l_partkey) OVER w \
                 AS parts, rank(ORDER BY l_extendedprice) OVER w AS rk FROM lineitem WINDOW w AS \
                 (ORDER BY l_shipdate {J})"
            ),
        ),
        q(
            "dashboard6",
            "Six calls over one named window, 6 partitions, RANGE 30 PRECEDING: artifact sharing, \
             RANGE frame search, segment tree, mixed incremental + mst plan",
            300_000,
            "SELECT median(l_extendedprice) OVER w AS med, percentile_disc(0.9 ORDER BY \
             l_extendedprice) OVER w AS p90, count(DISTINCT l_partkey) OVER w AS parts, \
             count(DISTINCT l_suppkey) OVER w AS supps, rank(ORDER BY l_extendedprice DESC) OVER \
             w AS rk, sum(l_quantity) OVER w AS qty FROM lineitem WINDOW w AS (PARTITION BY \
             l_returnflag, l_linestatus ORDER BY l_shipdate RANGE BETWEEN 30 PRECEDING AND \
             CURRENT ROW)"
                .into(),
        ),
        Workload {
            budget_per_row: Some(60.0),
            ..q(
                "budgeted3",
                "nonmonotonic3's calls in six partitions under a memory budget of 0.9x the \
                 unbudgeted peak: the one workload larger than the program's own cache, trees \
                 spill and re-fault",
                200_000,
                format!(
                    "SELECT median(l_extendedprice) OVER w AS med, rank(ORDER BY l_extendedprice \
                     DESC) OVER w AS rk, count(DISTINCT l_partkey) OVER w AS parts FROM lineitem \
                     WINDOW w AS (PARTITION BY l_returnflag, l_linestatus ORDER BY l_shipdate \
                     {J})"
                ),
            )
        },
        q(
            "multi_window6",
            "Six distinct windows, some sharing PARTITION BY or ORDER BY: six engine executions \
             and six sorts, so per-window session overhead shows",
            100_000,
            "SELECT median(l_extendedprice) OVER (PARTITION BY l_returnflag ORDER BY l_shipdate \
             ROWS BETWEEN 1000 PRECEDING AND CURRENT ROW) AS w1_med, count(DISTINCT l_partkey) \
             OVER (PARTITION BY l_returnflag ORDER BY l_shipdate ROWS BETWEEN UNBOUNDED PRECEDING \
             AND CURRENT ROW) AS w2_parts, rank(ORDER BY l_extendedprice) OVER (PARTITION BY \
             l_returnflag, l_linestatus ORDER BY l_shipdate ROWS BETWEEN 1000 PRECEDING AND 1000 \
             FOLLOWING) AS w3_rk, percentile_disc(0.9 ORDER BY l_quantity) OVER (PARTITION BY \
             l_returnflag, l_linestatus ORDER BY l_receiptdate RANGE BETWEEN 30 PRECEDING AND \
             CURRENT ROW) AS w4_p90, count(DISTINCT l_suppkey) OVER (PARTITION BY l_returnflag \
             ORDER BY l_receiptdate ROWS BETWEEN 5000 PRECEDING AND CURRENT ROW) AS w5_supps, \
             sum(l_quantity) OVER (ORDER BY l_shipdate ROWS BETWEEN 100 PRECEDING AND 100 \
             FOLLOWING) AS w6_qty FROM lineitem"
                .into(),
        ),
        q(
            "small_partitions",
            "PARTITION BY l_orderkey: 50 000 partitions of 1-7 rows on the cacheless \
             naive path, so per-partition set-up cost shows instead of one big sort",
            200_000,
            "SELECT median(l_extendedprice) OVER w AS med, count(DISTINCT l_partkey) OVER w AS \
             parts, rank(ORDER BY l_extendedprice) OVER w AS rk FROM lineitem WINDOW w AS \
             (PARTITION BY l_orderkey ORDER BY l_shipdate ROWS BETWEEN UNBOUNDED PRECEDING AND \
             CURRENT ROW)"
                .into(),
        ),
        Workload {
            name: "append_stream",
            why: "Writes beside reads: 250 appends of 1000 rows into a query open over 200 000 rows, \
                  the merge sort tree as an LSM forest whose run merges cause latency spikes",
            kind: Kind::AppendStream,
            table: "stock_orders",
            rows: 200_000,
            budget_per_row: None,
            sql: "SELECT count(*) OVER w AS c, rank(ORDER BY placement_time) OVER w AS rk, \
                  median(price) OVER w AS med, percentile_disc(0.9 ORDER BY price) OVER w AS p90 \
                  FROM stock_orders WINDOW w AS (ORDER BY placement_time ROWS BETWEEN UNBOUNDED \
                  PRECEDING AND CURRENT ROW)"
                .into(),
        },
    ]
}

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
