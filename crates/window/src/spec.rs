//! Window query specification: the engine's public API surface.
//!
//! A [`crate::executor::WindowQuery`] bundles one OVER clause ([`WindowSpec`]) with any number
//! of window function calls evaluated against it — mirroring the paper's
//! `WINDOW w AS (...)` examples where several functions share a frame (§2.4).
//!
//! The proposed SQL extensions map onto [`FunctionCall`] fields:
//!
//! * `DISTINCT` aggregates over frames → [`FunctionCall::distinct`],
//! * the function-level `ORDER BY` (ranking / selection criterion,
//!   independent of the frame order) → [`FunctionCall::inner_order`],
//! * `FILTER (WHERE ...)` → [`FunctionCall::filter`],
//! * `IGNORE NULLS` → [`FunctionCall::ignore_nulls`].

use crate::error::{Error, Result};
use crate::expr::Expr;
use crate::frame::FrameSpec;
use crate::order::SortKey;

/// Which window function to evaluate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FuncKind {
    /// `COUNT(*)`.
    CountStar,
    /// `COUNT(expr)` — non-null rows.
    Count,
    /// `SUM(expr)`.
    Sum,
    /// `AVG(expr)`.
    Avg,
    /// `MIN(expr)`.
    Min,
    /// `MAX(expr)`.
    Max,
    /// `ROW_NUMBER(order)` against the frame (§4.4).
    RowNumber,
    /// `RANK(order)` against the frame (§4.4).
    Rank,
    /// `DENSE_RANK(order)` against the frame — range tree backed (§4.4).
    DenseRank,
    /// `PERCENT_RANK(order)`.
    PercentRank,
    /// `CUME_DIST(order)`.
    CumeDist,
    /// `NTILE(buckets)` by frame row number.
    Ntile,
    /// `PERCENTILE_DISC(fraction) (order)` (§4.5).
    PercentileDisc,
    /// `PERCENTILE_CONT(fraction) (order)` (§4.5).
    PercentileCont,
    /// `MEDIAN(expr)` ≡ `PERCENTILE_DISC(0.5)` ordered by the expression (the
    /// paper's framed-median benchmarks, §6.2–§6.5).
    Median,
    /// `FIRST_VALUE(expr [order])`.
    FirstValue,
    /// `LAST_VALUE(expr [order])`.
    LastValue,
    /// `NTH_VALUE(expr, n [order])`.
    NthValue,
    /// `LEAD(expr [, offset [, default]] [order])` (§4.6).
    Lead,
    /// `LAG(expr [, offset [, default]] [order])` (§4.6).
    Lag,
    /// `MODE(expr)` over the frame — most frequent non-null value, ties to
    /// the smallest. Not expressible with merge sort trees (§3.1); backed by
    /// a √-decomposition range mode index (extension beyond the paper).
    Mode,
}

impl FuncKind {
    /// True for the distributive/algebraic aggregate family.
    pub fn is_aggregate(self) -> bool {
        use FuncKind::*;
        matches!(self, CountStar | Count | Sum | Avg | Min | Max)
    }

    /// True for the holistic MODE aggregate.
    pub fn is_mode(self) -> bool {
        self == FuncKind::Mode
    }

    /// True for the rank family.
    pub fn is_rank(self) -> bool {
        use FuncKind::*;
        matches!(self, RowNumber | Rank | DenseRank | PercentRank | CumeDist | Ntile)
    }

    /// True for the selection family (percentiles and value functions).
    pub fn is_selection(self) -> bool {
        use FuncKind::*;
        matches!(self, PercentileDisc | PercentileCont | Median | FirstValue | LastValue | NthValue)
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        use FuncKind::*;
        match self {
            CountStar => "count(*)",
            Count => "count",
            Sum => "sum",
            Avg => "avg",
            Min => "min",
            Max => "max",
            RowNumber => "row_number",
            Rank => "rank",
            DenseRank => "dense_rank",
            PercentRank => "percent_rank",
            CumeDist => "cume_dist",
            Ntile => "ntile",
            PercentileDisc => "percentile_disc",
            PercentileCont => "percentile_cont",
            Median => "median",
            FirstValue => "first_value",
            LastValue => "last_value",
            NthValue => "nth_value",
            Lead => "lead",
            Lag => "lag",
            Mode => "mode",
        }
    }
}

/// One window function call.
#[derive(Debug, Clone)]
pub struct FunctionCall {
    /// The function.
    pub kind: FuncKind,
    /// Positional arguments (meaning depends on `kind`).
    pub args: Vec<Expr>,
    /// The function-level ORDER BY — the paper's second ordering (§2.4).
    /// Empty means: rank functions fall back to the window ORDER BY; value
    /// functions and LEAD/LAG use frame position order (classic semantics).
    pub inner_order: Vec<SortKey>,
    /// DISTINCT flag (aggregates only).
    pub distinct: bool,
    /// FILTER (WHERE ...) predicate.
    pub filter: Option<Expr>,
    /// IGNORE NULLS (value functions).
    pub ignore_nulls: bool,
    /// Output column name.
    pub output_name: String,
}

impl FunctionCall {
    /// A call with default options.
    pub fn new(kind: FuncKind, args: Vec<Expr>) -> Self {
        FunctionCall {
            kind,
            args,
            inner_order: Vec::new(),
            distinct: false,
            filter: None,
            ignore_nulls: false,
            output_name: kind.name().to_string(),
        }
    }

    /// Sets the function-level ORDER BY.
    pub fn order_by(mut self, keys: Vec<SortKey>) -> Self {
        self.inner_order = keys;
        self
    }

    /// Sets DISTINCT.
    pub fn distinct(mut self) -> Self {
        self.distinct = true;
        self
    }

    /// Sets FILTER.
    pub fn filter(mut self, predicate: Expr) -> Self {
        self.filter = Some(predicate);
        self
    }

    /// Sets IGNORE NULLS.
    pub fn ignore_nulls(mut self) -> Self {
        self.ignore_nulls = true;
        self
    }

    /// Names the output column.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.output_name = name.into();
        self
    }

    // ---- convenience constructors mirroring SQL ----

    /// `COUNT(*)`.
    pub fn count_star() -> Self {
        Self::new(FuncKind::CountStar, vec![])
    }

    /// `COUNT(expr)`.
    pub fn count(expr: Expr) -> Self {
        Self::new(FuncKind::Count, vec![expr])
    }

    /// `COUNT(DISTINCT expr)` — the paper's flagship example (§1, §4.2).
    pub fn count_distinct(expr: Expr) -> Self {
        Self::new(FuncKind::Count, vec![expr]).distinct()
    }

    /// `SUM(expr)`.
    pub fn sum(expr: Expr) -> Self {
        Self::new(FuncKind::Sum, vec![expr])
    }

    /// `SUM(DISTINCT expr)` (§4.3).
    pub fn sum_distinct(expr: Expr) -> Self {
        Self::new(FuncKind::Sum, vec![expr]).distinct()
    }

    /// `AVG(expr)`.
    pub fn avg(expr: Expr) -> Self {
        Self::new(FuncKind::Avg, vec![expr])
    }

    /// `MIN(expr)`.
    pub fn min(expr: Expr) -> Self {
        Self::new(FuncKind::Min, vec![expr])
    }

    /// `MAX(expr)`.
    pub fn max(expr: Expr) -> Self {
        Self::new(FuncKind::Max, vec![expr])
    }

    /// `ROW_NUMBER(ORDER BY ...)`.
    pub fn row_number(order: Vec<SortKey>) -> Self {
        Self::new(FuncKind::RowNumber, vec![]).order_by(order)
    }

    /// `RANK(ORDER BY ...)` (§2.4, §4.4).
    pub fn rank(order: Vec<SortKey>) -> Self {
        Self::new(FuncKind::Rank, vec![]).order_by(order)
    }

    /// `DENSE_RANK(ORDER BY ...)` (§4.4).
    pub fn dense_rank(order: Vec<SortKey>) -> Self {
        Self::new(FuncKind::DenseRank, vec![]).order_by(order)
    }

    /// `PERCENT_RANK(ORDER BY ...)`.
    pub fn percent_rank(order: Vec<SortKey>) -> Self {
        Self::new(FuncKind::PercentRank, vec![]).order_by(order)
    }

    /// `CUME_DIST(ORDER BY ...)`.
    pub fn cume_dist(order: Vec<SortKey>) -> Self {
        Self::new(FuncKind::CumeDist, vec![]).order_by(order)
    }

    /// `NTILE(buckets)` (bucket count may be a per-row expression).
    pub fn ntile(buckets: Expr, order: Vec<SortKey>) -> Self {
        Self::new(FuncKind::Ntile, vec![buckets]).order_by(order)
    }

    /// `PERCENTILE_DISC(fraction ORDER BY key)` (§4.5).
    pub fn percentile_disc(fraction: f64, key: SortKey) -> Self {
        Self::new(FuncKind::PercentileDisc, vec![crate::expr::lit(fraction)]).order_by(vec![key])
    }

    /// `PERCENTILE_CONT(fraction ORDER BY key)` (§4.5).
    pub fn percentile_cont(fraction: f64, key: SortKey) -> Self {
        Self::new(FuncKind::PercentileCont, vec![crate::expr::lit(fraction)]).order_by(vec![key])
    }

    /// Framed median of an expression (the §6 benchmark function).
    pub fn median(expr: Expr) -> Self {
        Self::new(FuncKind::Median, vec![]).order_by(vec![SortKey::asc(expr)])
    }

    /// `FIRST_VALUE(expr [ORDER BY ...])`.
    pub fn first_value(expr: Expr) -> Self {
        Self::new(FuncKind::FirstValue, vec![expr])
    }

    /// `LAST_VALUE(expr [ORDER BY ...])`.
    pub fn last_value(expr: Expr) -> Self {
        Self::new(FuncKind::LastValue, vec![expr])
    }

    /// `NTH_VALUE(expr, n [ORDER BY ...])`.
    pub fn nth_value(expr: Expr, n: Expr) -> Self {
        Self::new(FuncKind::NthValue, vec![expr, n])
    }

    /// `LEAD(expr, offset, default)`.
    pub fn lead(expr: Expr, offset: i64, default: Expr) -> Self {
        Self::new(FuncKind::Lead, vec![expr, crate::expr::lit(offset), default])
    }

    /// `LAG(expr, offset, default)`.
    pub fn lag(expr: Expr, offset: i64, default: Expr) -> Self {
        Self::new(FuncKind::Lag, vec![expr, crate::expr::lit(offset), default])
    }

    /// `MODE(expr)` over the frame (extension; see [`FuncKind::Mode`]).
    pub fn mode(expr: Expr) -> Self {
        Self::new(FuncKind::Mode, vec![expr])
    }

    /// The expression whose NULL rows this call's preprocessing drops (the
    /// family-specific half of the kept-row mask; FILTER is the other half):
    /// aggregates and MODE screen their argument, percentiles their ORDER BY
    /// key, value functions and LEAD/LAG their argument only under IGNORE
    /// NULLS. Rank functions screen nothing — NULL keys still rank.
    pub(crate) fn null_screen(&self) -> Option<&Expr> {
        use FuncKind::*;
        match self.kind {
            Count | Sum | Avg | Min | Max | Mode => self.args.first(),
            PercentileDisc | PercentileCont | Median => self.inner_order.first().map(|k| &k.expr),
            FirstValue | LastValue | NthValue | Lead | Lag if self.ignore_nulls => {
                self.args.first()
            }
            _ => None,
        }
    }

    /// The ordering criterion a rank-family call actually uses: its own
    /// function-level ORDER BY, falling back to the window ORDER BY.
    pub(crate) fn rank_order<'a>(&'a self, spec: &'a WindowSpec) -> &'a [SortKey] {
        if self.inner_order.is_empty() {
            &spec.order_by
        } else {
            &self.inner_order
        }
    }

    /// Validates structural constraints that don't need the data.
    pub fn validate(&self) -> Result<()> {
        use FuncKind::*;
        let argc = self.args.len();
        let expect = |ok: bool, what: &str| {
            if ok {
                Ok(())
            } else {
                Err(Error::InvalidArgument(format!("{}: {what}", self.kind.name())))
            }
        };
        match self.kind {
            CountStar => expect(argc == 0, "takes no arguments")?,
            Count | Sum | Avg | Min | Max => expect(argc == 1, "takes one argument")?,
            RowNumber | Rank | DenseRank | PercentRank | CumeDist => {
                expect(argc == 0, "takes no arguments")?
            }
            Ntile => expect(argc == 1, "takes the bucket count")?,
            PercentileDisc | PercentileCont => {
                expect(argc == 1, "takes the fraction")?;
                expect(self.inner_order.len() == 1, "needs exactly one ORDER BY key")?;
                // SQL's ordered-set direct argument: one value per call, not
                // per row (the evaluators read it once per partition).
                expect(
                    !self.args[0].references_column(),
                    "fraction must be a constant expression, not a column reference",
                )?;
            }
            Median => expect(self.inner_order.len() == 1, "needs exactly one ORDER BY key")?,
            FirstValue | LastValue => expect(argc == 1, "takes one argument")?,
            NthValue => expect(argc == 2, "takes expr and n")?,
            Lead | Lag => expect((1..=3).contains(&argc), "takes 1 to 3 arguments")?,
            Mode => expect(argc == 1, "takes one argument")?,
        }
        if self.kind == Mode && self.distinct {
            return Err(Error::InvalidArgument(
                "mode: DISTINCT is meaningless (every value counts once per occurrence)".into(),
            ));
        }
        if self.distinct && !self.kind.is_aggregate() {
            return Err(Error::InvalidArgument(format!(
                "{}: DISTINCT only applies to aggregates",
                self.kind.name()
            )));
        }
        if self.ignore_nulls && !matches!(self.kind, FirstValue | LastValue | NthValue | Lead | Lag)
        {
            return Err(Error::InvalidArgument(format!(
                "{}: IGNORE NULLS only applies to value functions",
                self.kind.name()
            )));
        }
        Ok(())
    }
}

/// The shared OVER clause.
#[derive(Debug, Clone)]
pub struct WindowSpec {
    /// PARTITION BY expressions.
    pub partition_by: Vec<Expr>,
    /// Window ORDER BY (establishes the frame order).
    pub order_by: Vec<SortKey>,
    /// The frame.
    pub frame: FrameSpec,
}

impl WindowSpec {
    /// An empty OVER () — one partition, whole-partition frame.
    pub fn new() -> Self {
        WindowSpec {
            partition_by: Vec::new(),
            order_by: Vec::new(),
            frame: FrameSpec::whole_partition(),
        }
    }

    /// Adds PARTITION BY keys.
    pub fn partition_by(mut self, exprs: Vec<Expr>) -> Self {
        self.partition_by = exprs;
        self
    }

    /// Adds the window ORDER BY; switches the default frame to SQL's
    /// `RANGE UNBOUNDED PRECEDING .. CURRENT ROW` if no frame was set
    /// explicitly before.
    pub fn order_by(mut self, keys: Vec<SortKey>) -> Self {
        self.order_by = keys;
        self
    }

    /// Sets the frame.
    pub fn frame(mut self, frame: FrameSpec) -> Self {
        self.frame = frame;
        self
    }
}

impl Default for WindowSpec {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    #[test]
    fn builders_produce_expected_shapes() {
        let c = FunctionCall::count_distinct(col("x"));
        assert_eq!(c.kind, FuncKind::Count);
        assert!(c.distinct);
        c.validate().unwrap();

        let m = FunctionCall::median(col("price"));
        assert_eq!(m.kind, FuncKind::Median);
        assert_eq!(m.inner_order.len(), 1);
        m.validate().unwrap();
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        assert!(FunctionCall::new(FuncKind::CountStar, vec![col("x")]).validate().is_err());
        assert!(FunctionCall::new(FuncKind::Sum, vec![]).validate().is_err());
        assert!(FunctionCall::new(FuncKind::PercentileDisc, vec![lit(0.5)]).validate().is_err()); // missing ORDER BY
        assert!(FunctionCall::rank(vec![]).distinct().validate().is_err());
        assert!(FunctionCall::rank(vec![]).ignore_nulls().validate().is_err());
        assert!(FunctionCall::first_value(col("x")).ignore_nulls().validate().is_ok());
    }

    #[test]
    fn kind_families() {
        assert!(FuncKind::Sum.is_aggregate());
        assert!(FuncKind::Rank.is_rank());
        assert!(FuncKind::Median.is_selection());
        assert!(!FuncKind::Lead.is_selection());
    }
}
