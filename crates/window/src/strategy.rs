//! The strategy layer: per-partition, per-call algorithm choice.
//!
//! The paper evaluates the merge sort tree against four classic
//! per-partition algorithms (naive re-evaluation, Wesley & Xu incremental
//! sliding state, order-statistic trees, and segment-tree selection —
//! §5/§6, Table 1). Each wins somewhere: naive on tiny partitions where any
//! preprocessing is overhead, incremental on narrow monotonic frames,
//! trees on everything wide or adversarial. This module makes that choice
//! explicit: a [`CostModel`] of calibrated constants scores every
//! applicable [`Strategy`] against cheap [`PartitionStats`] and the
//! per-partition pipeline dispatches each (partition × call) to the winner.
//!
//! Invariants the executor relies on:
//!
//! * The choice is a pure function of `(mode, class, stats, model)` — all
//!   configuration-independent inputs — so every engine configuration
//!   (serial/parallel, shared/private caches) picks the same strategy and
//!   stays bit-identical.
//! * Every strategy is bit-identical to the merge-sort-tree path by
//!   construction: each family evaluator is written once against the range
//!   primitives of `eval::primitive`, and a strategy only names the index
//!   that answers them — a scan for naive, a sliding window or a sorted-list
//!   segment tree of the same *dense codes* (exact integer ranks) for the
//!   alternates.
//! * [`Strategy::Mst`] is applicable to everything; a forced strategy that
//!   does not apply to a call falls back to it.

use crate::frame::ResolvedFrames;
use crate::spec::{FuncKind, FunctionCall};

/// One per-partition evaluation algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Per-row re-evaluation with plain scans of the arrays a tree would
    /// have been built from; no index is built and nothing is cached. The
    /// winner on tiny partitions, where building *anything* costs more than
    /// scanning every frame.
    Naive,
    /// Wesley & Xu sliding state (PVLDB 2016): a sorted window of codes
    /// (percentiles select in it, the rank family counts below a threshold
    /// in it) or a hash multiset (COUNT DISTINCT) slid along the frame
    /// sequence. Wins on narrow, mostly-monotonic frames.
    Incremental,
    /// A counted-B-tree order-statistic multiset slid along the frame
    /// sequence; `O(log f)` updates buy robustness to wide frames.
    OsTree,
    /// A sorted-list segment tree built once over the kept codes; each row
    /// selects in `O(log² n)` with no sliding state (Arasu-Widom style).
    SegTree,
    /// The paper's merge sort trees — the default, and the only strategy
    /// applicable to every call class.
    Mst,
}

impl Strategy {
    /// All strategies, in [`Strategy::index`] order.
    pub const ALL: [Strategy; 5] = [
        Strategy::Naive,
        Strategy::Incremental,
        Strategy::OsTree,
        Strategy::SegTree,
        Strategy::Mst,
    ];

    /// Stable display name (bench JSON, fuzz labels).
    pub fn name(self) -> &'static str {
        match self {
            Strategy::Naive => "naive",
            Strategy::Incremental => "incremental",
            Strategy::OsTree => "ostree",
            Strategy::SegTree => "segtree",
            Strategy::Mst => "mst",
        }
    }

    /// Dense index into per-strategy counter arrays
    /// ([`crate::executor::StrategyProfile::decisions`]).
    pub fn index(self) -> usize {
        match self {
            Strategy::Naive => 0,
            Strategy::Incremental => 1,
            Strategy::OsTree => 2,
            Strategy::SegTree => 3,
            Strategy::Mst => 4,
        }
    }
}

/// How the executor picks a strategy per (partition × call).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StrategyMode {
    /// Cost-based choice via [`CostModel`] (the default).
    #[default]
    Adaptive,
    /// Force one strategy everywhere it applies; calls it cannot evaluate
    /// fall back to [`Strategy::Mst`] (which is always applicable).
    Force(Strategy),
}

/// Coarse call classification driving applicability and cost formulas.
///
/// Derived once per call at plan time ([`CallClass::of`]); the cost model
/// never needs the full call, only its class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallClass {
    /// `COUNT(*)` — frame-size arithmetic on the FILTER mask's remap, under
    /// every strategy.
    CountStar,
    /// `COUNT(expr)` — the same arithmetic, NULL arguments masked out too.
    Count,
    /// `SUM`/`AVG` without DISTINCT.
    SumAvg,
    /// `MIN`/`MAX` (DISTINCT or not — identical semantics).
    MinMax,
    /// `COUNT(DISTINCT expr)`.
    CountDistinct,
    /// `SUM`/`AVG` DISTINCT — annotated-tree only (integer overflow degrades
    /// to float mid-probe, which no alternate reproduces bit-exactly).
    SumAvgDistinct,
    /// `COUNT(DISTINCT *)` — rejected at evaluation time.
    CountStarDistinct,
    /// `ROW_NUMBER`/`RANK`/`PERCENT_RANK`/`CUME_DIST`/`NTILE`.
    RankLike,
    /// `DENSE_RANK` (range-tree backed on the MST path).
    DenseRank,
    /// `PERCENTILE_DISC`/`PERCENTILE_CONT`/`MEDIAN` — the holistic selection
    /// family every alternate strategy targets.
    Percentile,
    /// `FIRST_VALUE`/`LAST_VALUE`/`NTH_VALUE`.
    ValueFn,
    /// `LEAD`/`LAG` without an inner ORDER BY (positional semantics).
    LeadLagClassic,
    /// `LEAD`/`LAG` with an inner ORDER BY (§4.6 framed semantics).
    LeadLagFramed,
    /// `MODE` (√-decomposition index on the MST path).
    Mode,
}

impl CallClass {
    /// Classifies a call (used by the planner; the class rides on
    /// `CallPlan`).
    pub fn of(call: &FunctionCall) -> CallClass {
        use FuncKind::*;
        match call.kind {
            CountStar => {
                if call.distinct {
                    CallClass::CountStarDistinct
                } else {
                    CallClass::CountStar
                }
            }
            Count => {
                if call.distinct {
                    CallClass::CountDistinct
                } else {
                    CallClass::Count
                }
            }
            Sum | Avg => {
                if call.distinct {
                    CallClass::SumAvgDistinct
                } else {
                    CallClass::SumAvg
                }
            }
            Min | Max => CallClass::MinMax,
            RowNumber | Rank | PercentRank | CumeDist | Ntile => CallClass::RankLike,
            DenseRank => CallClass::DenseRank,
            PercentileDisc | PercentileCont | Median => CallClass::Percentile,
            FirstValue | LastValue | NthValue => CallClass::ValueFn,
            Lead | Lag => {
                if call.inner_order.is_empty() {
                    CallClass::LeadLagClassic
                } else {
                    CallClass::LeadLagFramed
                }
            }
            Mode => CallClass::Mode,
        }
    }
}

/// Cheap per-partition statistics the cost model consumes. Computed in O(m)
/// from the resolved frame bounds — before any artifact is built — and
/// independent of every execution option, so all configurations agree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PartitionStats {
    /// Partition size (rows).
    pub m: usize,
    /// Mean frame hull width `b - a`.
    pub avg_frame: f64,
    /// Total boundary movement `Σ |Δa| + |Δb|` across consecutive rows —
    /// what sliding-state strategies actually pay. Monotonic frames give
    /// `total_slide ≈ 2m·avg_growth`; adversarial frames blow it up.
    pub total_slide: u64,
    /// Both boundaries non-decreasing row over row.
    pub monotonic: bool,
    /// The frame has an exclusion clause (hull-based alternates don't
    /// apply).
    pub has_exclusion: bool,
    /// Distinct window ORDER BY keys: the number of peer groups
    /// (`peer_start[i] == i`). A free O(m) duplication estimate — heavy key
    /// duplication predicts cheap hash upkeep for COUNT DISTINCT / MODE
    /// scans, distinct-heavy data the opposite.
    pub distinct_keys: usize,
}

impl PartitionStats {
    /// Gathers stats from resolved frame bounds in one pass.
    pub fn from_frames(frames: &ResolvedFrames) -> PartitionStats {
        let m = frames.bounds.len();
        // An exact integer sum, divided once: no float drift at any size.
        let mut sum_width = 0u128;
        let (mut total_slide, mut monotonic, mut distinct_keys) = (0u64, true, 0usize);
        let mut prev = None;
        for (i, &(a, b)) in frames.bounds.iter().enumerate() {
            sum_width += (b - a) as u128;
            if let Some((pa, pb)) = prev {
                total_slide += a.abs_diff(pa) as u64 + b.abs_diff(pb) as u64;
                monotonic &= a >= pa && b >= pb;
            }
            distinct_keys += usize::from(frames.peer_start[i] == i);
            prev = Some((a, b));
        }
        PartitionStats {
            m,
            avg_frame: if m == 0 { 0.0 } else { sum_width as f64 / m as f64 },
            total_slide,
            monotonic,
            has_exclusion: frames.has_exclusion(),
            distinct_keys,
        }
    }

    /// `distinct_keys / m` in `[0, 1]`; 1.0 on empty partitions (the
    /// conservative all-distinct assumption).
    pub fn distinct_ratio(&self) -> f64 {
        if self.m == 0 {
            1.0
        } else {
            self.distinct_keys as f64 / self.m as f64
        }
    }
}

/// Per-operation cost constants, in nanoseconds.
///
/// The engine always scores with [`CostModel::default`], whose values come
/// from the `crossover_ext` calibration benchmark (see `EXPERIMENTS.md`);
/// they only need to rank strategies correctly near the crossover points,
/// not predict absolute runtimes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Partitions at or below this size short-circuit to [`Strategy::Naive`]
    /// whenever it applies — no artifact cache, no scoring.
    pub tiny_m: usize,
    /// Naive: fixed per-row overhead (frame decode, output).
    pub naive_row: f64,
    /// Naive: per frame cell scanned.
    pub naive_cell: f64,
    /// Incremental: fixed per-row overhead.
    pub incr_row: f64,
    /// Incremental: per boundary-slide element update (hash set ops for
    /// COUNT DISTINCT; binary search for the ordered vector).
    pub incr_update: f64,
    /// Incremental: per element *shifted* by an ordered-vector
    /// insert/remove, scaled by the frame width (memmove cost).
    pub incr_shift: f64,
    /// Order-statistic tree: fixed per-row overhead (selection probe).
    pub ostree_row: f64,
    /// Order-statistic tree: per slide update, scaled by `log2(frame)`.
    pub ostree_update: f64,
    /// Sorted-list segment tree: per element per level at build.
    pub segtree_build_cell: f64,
    /// Sorted-list segment tree: per probe, scaled by `log²(m)`.
    pub segtree_probe: f64,
    /// Merge sort tree: per element per level at build.
    pub mst_build_cell: f64,
    /// Merge sort tree: per probe, scaled by `log(m)`.
    pub mst_probe: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        // Calibrated from `cargo run --release --bin crossover_ext` medians;
        // see EXPERIMENTS.md for the measured crossover table these imply.
        CostModel {
            tiny_m: 64,
            naive_row: 20.0,
            naive_cell: 1.3,
            incr_row: 45.0,
            incr_update: 14.0,
            incr_shift: 0.09,
            ostree_row: 70.0,
            ostree_update: 19.0,
            segtree_build_cell: 14.0,
            segtree_probe: 14.0,
            mst_build_cell: 19.0,
            mst_probe: 24.0,
        }
    }
}

impl CostModel {
    /// A copy of this model with the MST terms surcharged for memory
    /// pressure: a partition whose estimated tree footprint crowds the
    /// budget pays spill writes at build and re-faults at probe, neither of
    /// which the base constants price. The multiplier comes from
    /// [`holistic_strategies::memory::mst_pressure_penalty`] (1.0 with no
    /// budget or a comfortably fitting tree, saturating at its
    /// `MAX_PRESSURE_PENALTY` for trees far beyond the budget), steering
    /// borderline partitions toward budget-friendly strategies while
    /// letting the MST keep wins that survive the surcharge.
    pub fn under_memory_pressure(self, est_tree_bytes: u64, budget: Option<u64>) -> CostModel {
        let penalty = holistic_strategies::memory::mst_pressure_penalty(est_tree_bytes, budget);
        CostModel {
            mst_build_cell: self.mst_build_cell * penalty,
            mst_probe: self.mst_probe * penalty,
            ..self
        }
    }

    /// Estimated cost (ns) of evaluating one call of `class` over a
    /// partition with `stats` using `s`. Only meaningful for applicable
    /// strategies; `+∞` otherwise.
    pub fn cost(&self, s: Strategy, class: CallClass, stats: &PartitionStats) -> f64 {
        if !applicable(s, class, stats) {
            return f64::INFINITY;
        }
        let m = stats.m as f64;
        let f = stats.avg_frame;
        let slide = stats.total_slide as f64;
        let lg_m = (m + 2.0).log2();
        let lg_f = (f + 2.0).log2();
        match s {
            Strategy::Naive => {
                let cell = match class {
                    // Per-row gather + sort of the frame's codes.
                    CallClass::Percentile => self.naive_cell * lg_f * 2.0,
                    // Per-cell hash-map upkeep: inserts of *new* keys (misses,
                    // rehashing, map growth) dominate hits on already-present
                    // ones, so the per-cell charge scales with the partition's
                    // distinct-key ratio. All-distinct data recovers the old
                    // flat 4× constant; heavy duplication keeps naive scans
                    // competitive far longer.
                    CallClass::CountDistinct | CallClass::Mode => {
                        self.naive_cell * (1.0 + 3.0 * stats.distinct_ratio())
                    }
                    _ => self.naive_cell,
                };
                m * self.naive_row + m * f * cell
            }
            Strategy::Incremental => {
                let per_update = if class == CallClass::CountDistinct {
                    // Hash-multiset slide: duplicated keys mostly bump counts
                    // (cheap); distinct-heavy data inserts/evicts entries.
                    self.incr_update * (0.25 + 0.75 * stats.distinct_ratio())
                } else {
                    // Ordered-vector insert/remove: search + memmove.
                    self.incr_update + self.incr_shift * f
                };
                m * self.incr_row + slide * per_update
            }
            Strategy::OsTree => m * self.ostree_row + slide * self.ostree_update * lg_f,
            Strategy::SegTree => {
                m * self.segtree_build_cell * lg_m + m * self.segtree_probe * lg_m * lg_m
            }
            Strategy::Mst => m * self.mst_build_cell * lg_m + m * self.mst_probe * lg_m,
        }
    }
}

/// Whether `s` can evaluate calls of `class` over a partition with `stats`.
///
/// * [`Strategy::Mst`] applies to everything.
/// * [`Strategy::Naive`] applies to everything except SUM/AVG DISTINCT,
///   whose integer-overflow-degrades-to-float probe behaviour only the
///   annotated tree reproduces bit-exactly.
/// * The sliding/selection alternates target the percentile family (plus
///   COUNT DISTINCT and the rank family — ROW_NUMBER, RANK, PERCENT_RANK,
///   CUME_DIST, NTILE — for [`Strategy::Incremental`]) over hull frames —
///   frame exclusion punches holes the hull-based adapters cannot see.
pub fn applicable(s: Strategy, class: CallClass, stats: &PartitionStats) -> bool {
    match s {
        Strategy::Mst => true,
        Strategy::Naive => class != CallClass::SumAvgDistinct,
        Strategy::Incremental => {
            matches!(class, CallClass::Percentile | CallClass::CountDistinct | CallClass::RankLike)
                && !stats.has_exclusion
        }
        Strategy::OsTree | Strategy::SegTree => {
            class == CallClass::Percentile && !stats.has_exclusion
        }
    }
}

/// Picks the strategy for one (partition × call). Deterministic and
/// configuration-independent: ties break toward the earlier entry of
/// [`Strategy::ALL`].
pub fn choose(
    mode: StrategyMode,
    class: CallClass,
    stats: &PartitionStats,
    model: &CostModel,
) -> Strategy {
    choose_fitting(mode, class, stats, model, |_| true)
}

/// [`choose`], where Adaptive passes over every strategy `fits` rejects as
/// long as [`Strategy::Naive`] applies (a budget's guard: naive charges
/// nothing, so it always fits). A forced strategy stays forced.
pub(crate) fn choose_fitting(
    mode: StrategyMode,
    class: CallClass,
    stats: &PartitionStats,
    model: &CostModel,
    fits: impl Fn(Strategy) -> bool,
) -> Strategy {
    match mode {
        StrategyMode::Force(s) => {
            if applicable(s, class, stats) {
                s
            } else {
                Strategy::Mst
            }
        }
        StrategyMode::Adaptive => {
            // Tiny partitions skip scoring (and, in the executor, the whole
            // artifact cache): naive wins there by construction.
            let naive = applicable(Strategy::Naive, class, stats);
            if stats.m <= model.tiny_m && naive {
                return Strategy::Naive;
            }
            let mut best = Strategy::Mst;
            let mut best_cost = f64::INFINITY;
            for s in Strategy::ALL {
                if naive && !fits(s) {
                    continue;
                }
                let c = model.cost(s, class, stats);
                if c < best_cost {
                    best = s;
                    best_cost = c;
                }
            }
            best
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(m: usize, avg_frame: f64, total_slide: u64) -> PartitionStats {
        PartitionStats {
            m,
            avg_frame,
            total_slide,
            monotonic: true,
            has_exclusion: false,
            distinct_keys: m,
        }
    }

    #[test]
    fn tiny_partitions_choose_naive() {
        let s = stats(8, 4.0, 16);
        for class in [CallClass::Percentile, CallClass::SumAvg, CallClass::RankLike] {
            assert_eq!(
                choose(StrategyMode::Adaptive, class, &s, &CostModel::default()),
                Strategy::Naive
            );
        }
        // ... except SUM/AVG DISTINCT, which only the MST evaluates.
        assert_eq!(
            choose(StrategyMode::Adaptive, CallClass::SumAvgDistinct, &s, &CostModel::default()),
            Strategy::Mst
        );
    }

    #[test]
    fn forced_inapplicable_falls_back_to_mst() {
        let s = stats(1000, 50.0, 2000);
        assert_eq!(
            choose(
                StrategyMode::Force(Strategy::Incremental),
                CallClass::DenseRank,
                &s,
                &CostModel::default()
            ),
            Strategy::Mst
        );
        assert_eq!(
            choose(
                StrategyMode::Force(Strategy::Incremental),
                CallClass::Percentile,
                &s,
                &CostModel::default()
            ),
            Strategy::Incremental
        );
    }

    #[test]
    fn exclusion_disables_hull_alternates() {
        let mut s = stats(100_000, 100.0, 200_000);
        s.has_exclusion = true;
        for alt in [Strategy::Incremental, Strategy::OsTree, Strategy::SegTree] {
            assert!(!applicable(alt, CallClass::Percentile, &s));
        }
        assert!(applicable(Strategy::Naive, CallClass::Percentile, &s));
        assert!(applicable(Strategy::Mst, CallClass::Percentile, &s));
    }

    #[test]
    fn narrow_monotonic_percentiles_prefer_sliding() {
        // 1M rows, 8-wide monotonic frame: slide ≈ 2 per row. The sorted
        // vector (about 74 M ns) beats naive (89 M) and every tree.
        let s = stats(1_000_000, 8.0, 2_000_000);
        let picked =
            choose(StrategyMode::Adaptive, CallClass::Percentile, &s, &CostModel::default());
        assert_eq!(picked, Strategy::Incremental);
    }

    #[test]
    fn narrow_monotonic_ranks_prefer_sliding() {
        // A dashboard partition: 618-row RANGE frames sliding forward.
        let m = 50_000u64;
        let s = stats(m as usize, 618.0, 2 * m);
        let picked = choose(StrategyMode::Adaptive, CallClass::RankLike, &s, &CostModel::default());
        assert_eq!(picked, Strategy::Incremental);
    }

    #[test]
    fn jittered_ranks_keep_the_tree() {
        // 5 000-row frames whose bounds jump by a frame's width per row.
        let m = 100_000u64;
        let s = stats(m as usize, 5_000.0, 5_000 * m);
        let picked = choose(StrategyMode::Adaptive, CallClass::RankLike, &s, &CostModel::default());
        assert_eq!(picked, Strategy::Mst);
    }

    #[test]
    fn adaptive_passes_over_what_does_not_fit_while_naive_applies() {
        use crate::artifacts::governed_floor;
        let model = CostModel::default();
        let pick = |s: &PartitionStats, class, tree: u64, budget: u64| {
            let fits = |st| governed_floor(st, class, s.m, s.m, tree) <= budget;
            choose_fitting(StrategyMode::Adaptive, class, s, &model, fits)
        };
        let s = stats(20_000, 551.0, 40_000);
        let tree = 725_376;
        assert_eq!(pick(&s, CallClass::RankLike, tree, u64::MAX), Strategy::Incremental);
        assert_eq!(pick(&s, CallClass::RankLike, tree, 1_500_000), Strategy::Incremental);
        assert_eq!(pick(&s, CallClass::RankLike, tree, 800_000), Strategy::Naive);
        assert_eq!(pick(&s, CallClass::Percentile, tree, 400_000), Strategy::Naive);
        // Naive cannot evaluate SUM DISTINCT, so nothing is passed over.
        assert_eq!(pick(&s, CallClass::SumAvgDistinct, tree, 0), Strategy::Mst);
        // A running COUNT(DISTINCT) charges its hashes, not dense codes:
        // 30 MB holds a million rows' worth, and the sliding multiset stays.
        let running = stats(1_000_000, 500_000.0, 1_000_000);
        assert_eq!(
            pick(&running, CallClass::CountDistinct, 80_000_000, 30_000_000),
            Strategy::Incremental
        );
        // A forced strategy stays forced.
        let forced = StrategyMode::Force(Strategy::Mst);
        assert_eq!(
            choose_fitting(forced, CallClass::RankLike, &s, &model, |_| false),
            Strategy::Mst
        );
    }

    #[test]
    fn adversarial_slide_prefers_trees() {
        // Random frames: total slide ~ m * m/3 — sliding state thrashes.
        // The merge sort tree (about 71 M ns) beats the sorted-list segment
        // tree (409 M).
        let m = 100_000u64;
        let s = stats(m as usize, 30_000.0, m * 30_000);
        let picked =
            choose(StrategyMode::Adaptive, CallClass::Percentile, &s, &CostModel::default());
        assert_eq!(picked, Strategy::Mst);
    }

    #[test]
    fn stats_capture_slide_and_monotonicity() {
        use crate::frame::{FrameExclusion, ResolvedFrames};
        let frames = ResolvedFrames {
            bounds: vec![(0, 2), (1, 4), (0, 5)],
            exclusion: FrameExclusion::NoOthers,
            peer_start: vec![0, 1, 2],
            peer_end: vec![1, 2, 3],
        };
        let s = PartitionStats::from_frames(&frames);
        assert_eq!(s.m, 3);
        assert_eq!(s.total_slide, (1 + 2) + (1 + 1));
        assert!(!s.monotonic);
        assert!((s.avg_frame - 10.0 / 3.0).abs() < 1e-12);
        assert!(!s.has_exclusion);
        assert_eq!(s.distinct_keys, 3);
    }

    #[test]
    fn duplication_favors_naive_and_incremental_count_distinct() {
        // Same geometry, two duplication profiles: all-distinct vs. 1% keys.
        let model = CostModel::default();
        let all_distinct = stats(100_000, 200.0, 400_000);
        let mut duplicated = all_distinct;
        duplicated.distinct_keys = 1_000;
        for s in [Strategy::Naive, Strategy::Incremental] {
            let hi = model.cost(s, CallClass::CountDistinct, &all_distinct);
            let lo = model.cost(s, CallClass::CountDistinct, &duplicated);
            assert!(
                lo < hi,
                "{s:?}: duplication should lower the COUNT DISTINCT estimate ({lo} vs {hi})"
            );
        }
        // All-distinct data recovers the old flat constants exactly.
        let flat = model.naive_cell * 4.0;
        let m = all_distinct.m as f64;
        let expect = m * model.naive_row + m * all_distinct.avg_frame * flat;
        let got = model.cost(Strategy::Naive, CallClass::CountDistinct, &all_distinct);
        assert!((got - expect).abs() < 1e-6);
    }
}
