//! Metric definitions — the single source `BENCHMARK.json` is rendered from —
//! and the small statistics the driver reports with.

use crate::json::Json;
use crate::workloads;

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The `BENCHMARK.json` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the system sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name as printed.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

/// A per-layer metric, reported by the traced run only.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    /// Name as printed: `<layer>.<what>`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// A count that must repeat bit-for-bit between runs of one seed.
    pub exact: bool,
}

/// The end-to-end metrics, in print order. The timing bounds are the widest
/// the contract allows: the reference box is a shared 2-vCPU VM whose speed
/// moves in phases of tens of seconds, and the A/A spread of a timing metric
/// over ten runs was 4-14 % (README.md, "Spreads").
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "latency_ms_p50", unit: "ms", better: Better::Lower, bound: 0.25 },
    EndToEnd { name: "rows_per_s", unit: "rows/s", better: Better::Higher, bound: 0.25 },
    EndToEnd { name: "peak_rss_mb", unit: "MiB", better: Better::Lower, bound: 0.15 },
    EndToEnd { name: "setup_s", unit: "s", better: Better::Lower, bound: 0.25 },
];

const fn t(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, exact: false }
}

const fn exact(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better, exact: true }
}

/// The per-layer metrics, in print order, grouped by layer (module).
pub const PER_LAYER: &[PerLayer] = &[
    // sql
    t("sql.parse_us", "us"),
    t("sql.plan_us", "us"),
    t("sql.assemble_ms", "ms"),
    // window::executor
    t("exec.wall_ms", "ms"),
    t("exec.plan_us", "us"),
    t("exec.build_ms", "ms"),
    t("exec.resolve_ms", "ms"),
    t("exec.probe_ms", "ms"),
    t("exec.unattributed_ms", "ms"),
    exact("exec.partitions", "count", Better::Lower),
    t("exec.parallel_ms", "ms"),
    PerLayer { name: "exec.parallel_speedup", unit: "x", better: Better::Higher, exact: false },
    t("session.latency_ms_max", "ms"),
    // window::partition
    t("partition.ms", "ms"),
    t("partition.ns_per_row", "ns/row"),
    // window::order
    t("order.keys_ms", "ms"),
    t("order.sort_ms", "ms"),
    t("order.sort_ns_per_row", "ns/row"),
    // window::frame + window::vm
    t("frame.resolve_ms", "ms"),
    t("frame.resolve_ns_per_row", "ns/row"),
    exact("frame.mean_rows", "rows", Better::Lower),
    // window::strategy
    exact("strategy.decisions.naive", "count", Better::Lower),
    exact("strategy.decisions.incremental", "count", Better::Lower),
    exact("strategy.decisions.ostree", "count", Better::Lower),
    exact("strategy.decisions.segtree", "count", Better::Lower),
    exact("strategy.decisions.mst", "count", Better::Lower),
    exact("strategy.cacheless_partitions", "count", Better::Lower),
    t("strategy.forced_mst_ms", "ms"),
    t("strategy.forced_best_ms", "ms"),
    t("strategy.regret", "x"),
    // window::artifacts
    exact("cache.hits", "count", Better::Higher),
    exact("cache.misses", "count", Better::Lower),
    exact("cache.builds", "count", Better::Lower),
    exact("cache.bytes_built_per_row", "B/row", Better::Lower),
    t("cache.no_sharing_ms", "ms"),
    // core::sort
    t("core_sort.ms", "ms"),
    t("core_sort.ns_per_row", "ns/row"),
    // core::prev_idcs
    t("prev_idcs.ms", "ms"),
    // core::mst
    t("mst.build_ms", "ms"),
    t("mst.build_ns_per_row", "ns/row"),
    exact("mst.levels", "count", Better::Lower),
    exact("mst.bytes_per_elem", "B/elem", Better::Lower),
    t("mst.count_below_ns", "ns"),
    t("mst.count_below_block_ns", "ns"),
    t("mst.select_ns", "ns"),
    t("mst.select_block_ns", "ns"),
    // segtree
    t("segtree.build_ms", "ms"),
    t("segtree.query_ns", "ns"),
    // strategies
    t("incremental.distinct_ns_per_row", "ns/row"),
    t("incremental.percentile_ns_per_row", "ns/row"),
    // core::arena (spill)
    exact("spill.bytes_spilled", "B", Better::Lower),
    exact("spill.evictions", "count", Better::Lower),
    exact("spill.refaults", "count", Better::Lower),
    exact("spill.peak_resident_bytes", "B", Better::Lower),
    t("spill.slowdown", "x"),
    // window::append + core::leveled
    t("append.begin_ms", "ms"),
    t("append.us_per_row", "us/row"),
    t("append.latency_ms_p98", "ms"),
    t("append.max_ms", "ms"),
    exact("append.splice_ratio", "ratio", Better::Higher),
    exact("append.changed_per_row", "ratio", Better::Lower),
    exact("forest.runs", "count", Better::Lower),
    exact("forest.merges", "count", Better::Lower),
    exact("forest.rebuilt_per_row", "ratio", Better::Lower),
    t("forest.append_us_per_row", "us/row"),
    t("forest.count_ns", "ns"),
    t("forest.select_ns", "ns"),
    // tpch
    t("tpch.gen_ms", "ms"),
    // trace
    PerLayer { name: "trace.spans", unit: "count", better: Better::Lower, exact: false },
    t("trace.overhead_pct", "%"),
];

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 8;

/// Measured values by metric name, in insertion order.
#[derive(Debug, Default, Clone)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name = value`; a name is set once.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push((name, value));
    }

    /// The value recorded for `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Names recorded, in insertion order.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.0.iter().map(|(n, _)| *n)
    }
}

/// Median of `xs` (mean of the middle two for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile `p` in `[0, 100]` of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method); `None` below two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    if xs.len() < 2 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let at = |q: usize| {
        // j = floor(q * (n + 1) / 4) clamped to [1, n - 1]; interpolate.
        let pos = q * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range over the median: the spread the driver gates on.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(xs)?;
    let m = median(xs);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Renders `BENCHMARK.json` from the definitions in this crate.
pub fn benchmark_json() -> Json {
    Json::obj([
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--manifest-path",
                    "perfbench/Cargo.toml",
                    "--bin",
                    "bench",
                    "--",
                ]
                .into_iter()
                .map(Json::str)
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::str("perfbench")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workloads::all()
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_match_python() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        assert_eq!(median(&xs), 5.5);
        assert_eq!(spread(&xs), Some(1.0));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(percentile(&xs, 98.0), 10.0);
        assert_eq!(percentile(&xs, 50.0), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        for n in &names {
            assert!(
                n.len() <= 64 && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total);
    }
}
