//! The strategy layer: per-partition, per-call algorithm choice.
//!
//! The paper evaluates the merge sort tree against four classic
//! per-partition algorithms (naive re-evaluation, Wesley & Xu incremental
//! sliding state, order-statistic trees, and segment-tree selection —
//! §5/§6, Table 1). The engine runs three of them as strategies: naive on
//! tiny partitions where any preprocessing is overhead, incremental on
//! narrow frames that are monotone in frame order (by start, then end), and
//! the merge sort tree on everything wide or scattered. The order-statistic
//! tree and the sorted-list segment tree stay the paper's competitors only:
//! the counted bitset the incremental strategy slides beats the one, and the
//! tree the other. This module makes the choice explicit: a [`CostModel`] of
//! calibrated constants scores every applicable [`Strategy`] against cheap
//! [`PartitionStats`] and the per-partition pipeline dispatches each
//! (partition × call) to the winner.
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
//!   that answers them — a scan for naive, a sliding window of the same
//!   *dense codes* (exact integer ranks) for incremental.
//! * [`Strategy::Mst`] is applicable to everything; a forced strategy that
//!   does not apply to a call falls back to it.

use crate::frame::ResolvedFrames;
use crate::spec::{FuncKind, FunctionCall};
use holistic_strategies::incremental::in_frame_order;

/// One per-partition evaluation algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Per-row re-evaluation with plain scans of the arrays a tree would
    /// have been built from; no index is built and nothing is cached. The
    /// winner on tiny partitions, where building *anything* costs more than
    /// scanning every frame.
    Naive,
    /// Wesley & Xu sliding state (PVLDB 2016), slid through the frames in
    /// frame order — by start, then end — with each answer placed by its
    /// row: the window's codes as a counted bitset over the partition's
    /// dense codes (percentiles select in it, the rank family counts below a
    /// threshold in it; `O(log m)` per update or query, whatever the frame's
    /// width) or a count per value id (COUNT DISTINCT). Wins on narrow frames
    /// that are monotone or a permutation of monotone ones (the paper's
    /// jittered Fig. 12 frames), where a frame's rows mostly stay.
    Incremental,
    /// Retired: applies to no call, so Adaptive never picks it and forcing
    /// it falls back to [`Strategy::Mst`]. It slid a counted-B-tree
    /// order-statistic multiset, which the counted bitset of
    /// [`Strategy::Incremental`] beats. The name stays only because
    /// benchmark decision counters are labelled by [`Strategy::index`]; it
    /// goes together with those labels.
    OsTree,
    /// Retired like [`Strategy::OsTree`], and kept for the same reason. It
    /// selected in a sorted-list segment tree (Arasu & Widom), which was
    /// never within 2× of the merge sort tree.
    SegTree,
    /// The paper's merge sort trees — the default, and the only strategy
    /// applicable to every call class.
    Mst,
}

impl Strategy {
    /// All strategies, in [`Strategy::index`] order, the two retired ones
    /// included.
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
    /// to float mid-probe, which no other index reproduces bit-exactly).
    SumAvgDistinct,
    /// `COUNT(DISTINCT *)` — rejected at evaluation time.
    CountStarDistinct,
    /// `ROW_NUMBER`/`RANK`/`PERCENT_RANK`/`CUME_DIST`/`NTILE`.
    RankLike,
    /// `DENSE_RANK` (range-tree backed on the MST path).
    DenseRank,
    /// `PERCENTILE_DISC`/`PERCENTILE_CONT`/`MEDIAN` — the holistic selection
    /// family.
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
    /// Total boundary movement `Σ |Δa| + |Δb|` between frames consecutive in
    /// frame order (by start, then end: [`in_frame_order`]), the order the
    /// sliding-state strategies visit them in — what those strategies pay.
    /// Monotonic frames are their own frame order and give
    /// `total_slide ≈ 2m·avg_growth`; so do frames that jitter about a trend
    /// (the paper's Fig. 12 shape); scattered frames blow it up.
    pub total_slide: u64,
    /// Both boundaries non-decreasing row over row.
    pub monotonic: bool,
    /// The frame has an exclusion clause (the hull-based sliding window
    /// doesn't apply).
    pub has_exclusion: bool,
}

impl PartitionStats {
    /// Gathers stats from resolved frame bounds in one pass, and for frames
    /// that are not monotonic one more, in the order the sliding strategies
    /// visit them in ([`in_frame_order`]).
    pub fn from_frames(frames: &ResolvedFrames) -> PartitionStats {
        let bounds = &frames.bounds;
        let m = bounds.len();
        // An exact integer sum, divided once: no float drift at any size.
        let mut sum_width = 0u128;
        let (mut total_slide, mut monotonic) = (0u64, true);
        let mut prev = None;
        for &(a, b) in bounds {
            sum_width += (b - a) as u128;
            if let Some((pa, pb)) = prev {
                total_slide += a.abs_diff(pa) as u64 + b.abs_diff(pb) as u64;
                monotonic &= a >= pa && b >= pb;
            }
            prev = Some((a, b));
        }
        // Monotonic frames are visited as they come; others in frame order.
        if !monotonic {
            let mut last = None;
            total_slide = 0;
            for i in in_frame_order(m, |i| bounds[i]) {
                let ((a, b), (pa, pb)) = (bounds[i], last.unwrap_or(bounds[i]));
                total_slide += a.abs_diff(pa) as u64 + b.abs_diff(pb) as u64;
                last = Some((a, b));
            }
        }
        PartitionStats {
            m,
            avg_frame: if m == 0 { 0.0 } else { sum_width as f64 / m as f64 },
            total_slide,
            monotonic,
            has_exclusion: frames.has_exclusion(),
        }
    }
}

/// Per-operation cost constants, in nanoseconds.
///
/// The engine always scores with [`CostModel::default`], whose values come
/// from the `crossover_ext` calibration benchmark (see `EXPERIMENTS.md`);
/// they only need to rank strategies correctly near the crossover points,
/// not predict absolute runtimes. They are constants: no field can be set
/// from outside this module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Partitions at or below this size short-circuit to [`Strategy::Naive`]
    /// whenever it applies — no artifact cache, no scoring.
    tiny_m: usize,
    /// Naive: fixed per-row overhead (frame decode, output).
    naive_row: f64,
    /// Naive: per frame cell scanned.
    naive_cell: f64,
    /// Incremental: fixed per-row overhead.
    incr_row: f64,
    /// Incremental: per boundary-slide element update — an insert into or
    /// removal from the counted bitset (`O(log m)`, no frame-width term), or
    /// a value id's count for COUNT DISTINCT.
    incr_update: f64,
    /// Merge sort tree: per row per level, its build and its probe together.
    mst_cell: f64,
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
            mst_cell: 43.0,
        }
    }
}

impl CostModel {
    /// A copy of this model with the MST term surcharged for memory
    /// pressure: a partition whose estimated tree footprint crowds the
    /// budget pays spill writes at build and re-faults at probe, neither of
    /// which the base constants price. The multiplier is
    /// [`mst_pressure_penalty`] (1.0 with no budget or a comfortably fitting
    /// tree, saturating at [`MAX_PRESSURE_PENALTY`] for trees far beyond the
    /// budget), steering borderline partitions toward budget-friendly
    /// strategies while letting the MST keep wins that survive the surcharge.
    pub(crate) fn under_memory_pressure(
        self,
        est_tree_bytes: u64,
        budget: Option<u64>,
    ) -> CostModel {
        CostModel { mst_cell: self.mst_cell * mst_pressure_penalty(est_tree_bytes, budget), ..self }
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
                    // Per-cell count upkeep, priced as if every value were
                    // new: the frame's values are not what the stats read.
                    CallClass::CountDistinct | CallClass::Mode => self.naive_cell * 4.0,
                    _ => self.naive_cell,
                };
                m * self.naive_row + m * f * cell
            }
            // A counted-bitset insert or removal, or a value count's:
            // whatever the frame's width, so the slide alone prices it.
            Strategy::Incremental => m * self.incr_row + slide * self.incr_update,
            Strategy::OsTree | Strategy::SegTree => {
                unreachable!("retired strategies apply nowhere")
            }
            Strategy::Mst => m * self.mst_cell * lg_m,
        }
    }
}

/// Largest multiplier [`mst_pressure_penalty`] returns. Spill I/O is slow
/// but not unboundedly so (sequential writes + segment-wise re-faults), so
/// the penalty saturates instead of growing without bound — an MST can still
/// win on a huge partition where every alternative is asymptotically worse.
const MAX_PRESSURE_PENALTY: f64 = 8.0;

/// Multiplier for the MST cost term of a partition whose tree
/// is estimated at `estimated_bytes` under an optional `budget`. The base
/// model prices a tree as if its whole arena stays resident; a tree that
/// exceeds its share of the budget is built out-of-core and/or parked and
/// re-faulted between probes instead.
///
/// * No budget: `1.0` (the base model is already right).
/// * Tree at most half the budget: `1.0` — it fits comfortably alongside
///   its siblings; no spilling is expected.
/// * Beyond half the budget the penalty ramps linearly with the
///   tree-to-budget ratio and saturates at [`MAX_PRESSURE_PENALTY`] (a tree
///   several times the budget is re-faulted roughly once per probe pass;
///   more overshoot cannot make a single pass slower than that).
/// * Zero budget: [`MAX_PRESSURE_PENALTY`] (everything thrashes).
fn mst_pressure_penalty(estimated_bytes: u64, budget: Option<u64>) -> f64 {
    let Some(b) = budget else {
        return 1.0;
    };
    if b == 0 {
        return MAX_PRESSURE_PENALTY;
    }
    let ratio = estimated_bytes as f64 / b as f64;
    if ratio <= 0.5 {
        1.0
    } else {
        (1.0 + (ratio - 0.5) * 2.0).min(MAX_PRESSURE_PENALTY)
    }
}

/// Whether `s` can evaluate calls of `class` over a partition with `stats`.
///
/// * [`Strategy::Mst`] applies to everything.
/// * [`Strategy::Naive`] applies to everything except SUM/AVG DISTINCT,
///   whose integer-overflow-degrades-to-float probe behaviour only the
///   annotated tree reproduces bit-exactly.
/// * [`Strategy::Incremental`] targets the percentile family, COUNT
///   DISTINCT and the rank family — ROW_NUMBER, RANK, PERCENT_RANK,
///   CUME_DIST, NTILE — over hull frames: frame exclusion punches holes the
///   sliding window cannot see.
/// * The retired [`Strategy::OsTree`] and [`Strategy::SegTree`] apply to
///   nothing.
pub fn applicable(s: Strategy, class: CallClass, stats: &PartitionStats) -> bool {
    match s {
        Strategy::Mst => true,
        Strategy::Naive => class != CallClass::SumAvgDistinct,
        Strategy::Incremental => {
            matches!(class, CallClass::Percentile | CallClass::CountDistinct | CallClass::RankLike)
                && !stats.has_exclusion
        }
        Strategy::OsTree | Strategy::SegTree => false,
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
        PartitionStats { m, avg_frame, total_slide, monotonic: true, has_exclusion: false }
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
        let forced = |st, class| choose(StrategyMode::Force(st), class, &s, &CostModel::default());
        assert_eq!(forced(Strategy::Incremental, CallClass::DenseRank), Strategy::Mst);
        assert_eq!(forced(Strategy::Incremental, CallClass::Percentile), Strategy::Incremental);
        // The retired strategies apply to no class.
        use CallClass::*;
        for class in [
            CountStar,
            Count,
            SumAvg,
            MinMax,
            CountDistinct,
            SumAvgDistinct,
            CountStarDistinct,
            RankLike,
            DenseRank,
            Percentile,
            ValueFn,
            LeadLagClassic,
            LeadLagFramed,
            Mode,
        ] {
            for retired in [Strategy::OsTree, Strategy::SegTree] {
                assert!(!applicable(retired, class, &s), "{retired:?} applies to {class:?}");
                assert_eq!(forced(retired, class), Strategy::Mst, "{retired:?}, {class:?}");
            }
        }
    }

    #[test]
    fn exclusion_disables_hull_alternates() {
        let mut s = stats(100_000, 100.0, 200_000);
        s.has_exclusion = true;
        assert!(!applicable(Strategy::Incremental, CallClass::Percentile, &s));
        assert!(applicable(Strategy::Naive, CallClass::Percentile, &s));
        assert!(applicable(Strategy::Mst, CallClass::Percentile, &s));
    }

    #[test]
    fn narrow_monotonic_percentiles_prefer_sliding() {
        // 1M rows, 8-wide monotonic frame: slide ≈ 2 per row. The counted
        // bitset (about 73 M ns) beats naive (89 M) and the tree.
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
    fn scattered_ranks_keep_the_tree() {
        // 5 000-row frames whose bounds jump by a frame's width per row.
        let m = 100_000u64;
        let s = stats(m as usize, 5_000.0, 5_000 * m);
        let picked = choose(StrategyMode::Adaptive, CallClass::RankLike, &s, &CostModel::default());
        assert_eq!(picked, Strategy::Mst);
    }

    #[test]
    fn frame_ordered_jitter_slides() {
        // The paper's Fig. 12 frames: 5 000 rows wide, jittered per row, so
        // not monotonic, but in frame order they slide about two positions a
        // row. The bitset's slide has no frame-width term, so it beats the
        // tree for the percentiles and the rank family alike.
        let m = 100_000u64;
        let s = PartitionStats { monotonic: false, ..stats(m as usize, 5_000.0, 2 * m) };
        for class in [CallClass::Percentile, CallClass::RankLike] {
            let picked = choose(StrategyMode::Adaptive, class, &s, &CostModel::default());
            assert_eq!(picked, Strategy::Incremental, "{class:?}");
        }
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
        // A running COUNT(DISTINCT) charges its value ids, not dense codes:
        // 30 MB holds a million rows' worth, and the slide stays.
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
        // Random frames: total slide ~ m * m/3 — sliding state thrashes,
        // and the merge sort tree (about 71 M ns) wins.
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
            bounds: vec![(2, 5), (0, 2), (1, 4), (0, 3)],
            exclusion: FrameExclusion::NoOthers,
            peer_start: Vec::new(),
            peer_end: Vec::new(),
        };
        let s = PartitionStats::from_frames(&frames);
        assert_eq!(s.m, 4);
        // In row order the bounds move (2 + 3) + (1 + 2) + (1 + 1) = 10; in
        // frame order, (0, 2) (0, 3) (1, 4) (2, 5), one step each.
        assert_eq!(s.total_slide, 1 + (1 + 1) + (1 + 1));
        assert!(!s.monotonic);
        assert!((s.avg_frame - 11.0 / 4.0).abs() < 1e-12);
        assert!(!s.has_exclusion);
        // Sorted by (start, end) with an end moving back: frame order is row
        // order, and the frames are not monotonic.
        for (bounds, monotonic) in
            [(vec![(0, 1), (0, 3), (1, 3)], true), (vec![(0, 3), (1, 2)], false)]
        {
            let (peer_start, peer_end) = (Vec::new(), Vec::new());
            let exclusion = FrameExclusion::NoOthers;
            let frames = ResolvedFrames { bounds, exclusion, peer_start, peer_end };
            let s = PartitionStats::from_frames(&frames);
            assert_eq!((s.total_slide, s.monotonic), (if monotonic { 3 } else { 2 }, monotonic));
        }
    }

    #[test]
    fn no_budget_means_no_penalty() {
        assert_eq!(mst_pressure_penalty(u64::MAX, None), 1.0);
        assert_eq!(mst_pressure_penalty(0, None), 1.0);
    }

    #[test]
    fn comfortable_fit_is_free() {
        assert_eq!(mst_pressure_penalty(0, Some(1 << 20)), 1.0);
        assert_eq!(mst_pressure_penalty(1 << 19, Some(1 << 20)), 1.0);
    }

    #[test]
    fn penalty_ramps_and_saturates() {
        let b = Some(1u64 << 20);
        // At exactly the budget the tree competes with everything else
        // resident: ratio 1.0 → penalty 2.0.
        assert_eq!(mst_pressure_penalty(1 << 20, b), 2.0);
        let p_fits = mst_pressure_penalty(3 << 18, b); // ratio 0.75 → 1.5
        assert!(p_fits > 1.0 && p_fits < 2.0);
        // Far past the budget the penalty saturates.
        assert_eq!(mst_pressure_penalty(1 << 30, b), MAX_PRESSURE_PENALTY);
        assert_eq!(mst_pressure_penalty(123, Some(0)), MAX_PRESSURE_PENALTY);
    }

    #[test]
    fn penalty_is_monotone_in_tree_size() {
        let b = Some(4096u64);
        let mut last = 0.0f64;
        for bytes in (0..20).map(|i| i * 1024) {
            let p = mst_pressure_penalty(bytes, b);
            assert!(p >= last, "penalty regressed at {bytes} bytes");
            last = p;
        }
    }
}
