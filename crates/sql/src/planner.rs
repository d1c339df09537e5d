//! Name resolution and lowering: AST → engine spec types.
//!
//! Planning proceeds in four steps:
//!
//! 1. **Window resolution** — `WINDOW` clause definitions are resolved in
//!    order (a definition may inherit from an *earlier* name), then every
//!    `OVER` clause is resolved to a complete definition. Inheritance
//!    follows the SQL standard: the referencing window may not specify its
//!    own `PARTITION BY`, may add `ORDER BY` only if the base has none, and
//!    the base must not have a frame clause. `OVER name` (no parentheses)
//!    uses the named window as-is, frame included.
//! 2. **Lowering** — AST expressions/sort keys/frames are transcribed onto
//!    [`holistic_window::Expr`], [`SortKey`], [`FrameSpec`]; a missing frame
//!    clause becomes SQL's default (`RANGE UNBOUNDED PRECEDING .. CURRENT
//!    ROW` with `ORDER BY`, the whole partition without).
//! 3. **Grouping** — calls whose resolved OVER clauses are identical (by
//!    canonical rendered form) are packed into one [`WindowQuery`], so the
//!    engine's per-partition artifact cache shares sorts and trees across
//!    them exactly as it does for builder-API multi-call queries.
//! 4. **Validation** — each lowered call runs the engine's structural
//!    [`FunctionCall::validate`]; failures are re-attached to the call's
//!    source span as positional [`PlanError`]s.

use crate::ast::*;
use crate::error::{PlanError, Span, SqlError};
use crate::print;
use holistic_window::frame::{FrameBound, FrameSpec};
use holistic_window::spec::{FuncKind, FunctionCall, WindowSpec};
use holistic_window::{Expr, SortKey, Table, WindowQuery};
use std::collections::HashMap;

/// One planned output column, in SELECT-list order.
#[derive(Debug, Clone)]
pub enum PlannedItem {
    /// `*` — every input column.
    AllColumns {
        /// Span of the `*`.
        span: Span,
    },
    /// A scalar expression column.
    Scalar {
        /// The lowered expression.
        expr: Expr,
        /// Output column name (alias, or the rendered expression).
        name: String,
        /// Source span (for duplicate-name diagnostics).
        span: Span,
    },
    /// A window function column.
    Window {
        /// Index into [`SqlPlan::windows`].
        group: usize,
        /// Call index within that group's [`WindowQuery`].
        call: usize,
        /// Output column name.
        name: String,
        /// Source span (for duplicate-name diagnostics).
        span: Span,
    },
}

/// A fully lowered query plan.
#[derive(Debug, Clone)]
pub struct SqlPlan {
    /// Output columns in SELECT order.
    pub items: Vec<PlannedItem>,
    /// One [`WindowQuery`] per distinct resolved OVER clause; calls naming
    /// the same window (or writing an identical inline one) share a group
    /// and therefore the engine's artifact cache.
    pub windows: Vec<WindowQuery>,
    /// Lowered `WHERE` predicate (applied before window evaluation).
    pub filter: Option<Expr>,
    /// Lowered final `ORDER BY`. Bare-identifier keys naming an output
    /// column sort by that column; everything else evaluates against the
    /// (filtered) input table.
    pub order_by: Vec<SortKey>,
    /// The `FROM` table name as written.
    pub table_name: String,
    /// Span of the `FROM` table name (for unknown-table diagnostics).
    pub table_span: Span,
}

/// Parses and plans `src` in one step.
pub fn compile(src: &str) -> Result<SqlPlan, SqlError> {
    let query = crate::parser::parse_query(src)?;
    plan(src, &query, None)
}

/// Plans a parsed query. `table` (when available) enables positional
/// unknown-column errors; without it, column resolution is deferred to the
/// engine's bind step.
pub fn plan(src: &str, query: &Query, table: Option<&Table>) -> Result<SqlPlan, SqlError> {
    let named = resolve_named_windows(src, &query.windows)?;

    let mut windows: Vec<WindowQuery> = Vec::new();
    let mut group_of: HashMap<String, usize> = HashMap::new();
    let mut items: Vec<PlannedItem> = Vec::new();

    for item in &query.items {
        match item {
            SelectItem::Star(span) => items.push(PlannedItem::AllColumns { span: *span }),
            SelectItem::Scalar { expr, alias } => {
                if let Some(t) = table {
                    check_columns(src, expr, t)?;
                }
                let lowered = lower_expr(expr);
                let name = match alias {
                    Some((a, _)) => a.clone(),
                    None => print::expr_to_sql(&lowered),
                };
                items.push(PlannedItem::Scalar { expr: lowered, name, span: expr.span() });
            }
            SelectItem::Window { call, over, alias } => {
                let spec = resolve_over(src, over, &named)?;
                if let Some(t) = table {
                    check_spec_columns(src, &spec, t)?;
                    check_call_columns(src, call, t)?;
                }
                let spec = lower_spec(&spec);
                let mut lowered = lower_call(src, call)?;
                if let Some((a, _)) = alias {
                    lowered.output_name = a.clone();
                }
                lowered.validate().map_err(|e| PlanError::new(src, call.span, e.to_string()))?;
                let key = print::spec_to_sql(&spec);
                let group = match group_of.get(&key) {
                    Some(&g) => g,
                    None => {
                        let g = windows.len();
                        windows.push(WindowQuery::over(spec));
                        group_of.insert(key, g);
                        g
                    }
                };
                let name = lowered.output_name.clone();
                let call_idx = windows[group].calls.len();
                windows[group].calls.push(lowered);
                items.push(PlannedItem::Window { group, call: call_idx, name, span: call.span });
            }
        }
    }

    let filter = match &query.where_clause {
        Some(pred) => {
            if let Some(t) = table {
                check_columns(src, pred, t)?;
            }
            Some(lower_expr(pred))
        }
        None => None,
    };
    let order_by = query.order_by.iter().map(lower_sort_key).collect();

    Ok(SqlPlan {
        items,
        windows,
        filter,
        order_by,
        table_name: query.from.0.clone(),
        table_span: query.from.1,
    })
}

/// Parses a query of window calls over one shared window and returns the
/// single lowered [`WindowQuery`] plus the `FROM` table name. This is the
/// round-trip entry used by the fuzzer: `parse_window_query(to_sql(q, t))`
/// must reproduce `q` structurally.
pub fn parse_window_query(src: &str) -> Result<(WindowQuery, String), SqlError> {
    let plan = compile(src)?;
    if plan.windows.len() != 1
        || plan.items.len() != plan.windows[0].calls.len()
        || plan.filter.is_some()
        || !plan.order_by.is_empty()
    {
        return Err(SqlError::Plan(PlanError::new(
            src,
            Span::new(0, src.len().min(1)),
            "expected a pure window query: only window calls over one shared window".to_string(),
        )));
    }
    let table = plan.table_name;
    Ok((plan.windows.into_iter().next().expect("one group"), table))
}

// ---- named-window resolution ----

/// A fully resolved window definition (inheritance flattened).
#[derive(Debug, Clone, Default)]
struct ResolvedDef {
    partition_by: Vec<AstExpr>,
    order_by: Vec<AstSortKey>,
    frame: Option<AstFrame>,
}

fn resolve_named_windows(
    src: &str,
    defs: &[WindowDef],
) -> Result<HashMap<String, ResolvedDef>, SqlError> {
    let mut named: HashMap<String, ResolvedDef> = HashMap::new();
    for def in defs {
        if named.contains_key(&def.name) {
            return Err(SqlError::Plan(PlanError::new(
                src,
                def.name_span,
                format!("duplicate window name `{}`", def.name),
            )));
        }
        let resolved = resolve_def(src, &def.def, &named)?;
        named.insert(def.name.clone(), resolved);
    }
    Ok(named)
}

fn resolve_def(
    src: &str,
    def: &AstWindowDef,
    named: &HashMap<String, ResolvedDef>,
) -> Result<ResolvedDef, SqlError> {
    let base = match &def.base {
        Some((name, span)) => {
            let Some(base) = named.get(name) else {
                return Err(SqlError::Plan(PlanError::new(
                    src,
                    *span,
                    format!("unknown window `{name}` (windows may only reference earlier names)"),
                )));
            };
            if base.frame.is_some() {
                return Err(SqlError::Plan(PlanError::new(
                    src,
                    *span,
                    format!("cannot inherit from window `{name}`: it has a frame clause"),
                )));
            }
            if def.partition_by.is_some() {
                return Err(SqlError::Plan(PlanError::new(
                    src,
                    *span,
                    format!("cannot override PARTITION BY of window `{name}`"),
                )));
            }
            if def.order_by.is_some() && !base.order_by.is_empty() {
                return Err(SqlError::Plan(PlanError::new(
                    src,
                    *span,
                    format!("cannot add ORDER BY: window `{name}` already has one"),
                )));
            }
            Some(base.clone())
        }
        None => None,
    };
    let base = base.unwrap_or_default();
    Ok(ResolvedDef {
        partition_by: def.partition_by.clone().unwrap_or(base.partition_by),
        order_by: def.order_by.clone().unwrap_or(base.order_by),
        frame: def.frame.clone().or(base.frame),
    })
}

fn resolve_over(
    src: &str,
    over: &OverClause,
    named: &HashMap<String, ResolvedDef>,
) -> Result<ResolvedDef, SqlError> {
    match over {
        OverClause::Named(name, span) => match named.get(name) {
            Some(def) => Ok(def.clone()),
            None => {
                Err(SqlError::Plan(PlanError::new(src, *span, format!("unknown window `{name}`"))))
            }
        },
        OverClause::Inline(def) => resolve_def(src, def, named),
    }
}

// ---- lowering ----

/// Lowers a scalar AST expression to the engine's [`Expr`].
pub fn lower_expr(e: &AstExpr) -> Expr {
    match e {
        AstExpr::Col(name, _) => Expr::Col(name.clone()),
        AstExpr::Lit(v, _) => Expr::Lit(v.clone()),
        AstExpr::Bin(op, a, b, _) => {
            Expr::Bin(*op, Box::new(lower_expr(a)), Box::new(lower_expr(b)))
        }
        AstExpr::Not(inner, _) => Expr::Not(Box::new(lower_expr(inner))),
        AstExpr::Neg(inner, _) => Expr::Neg(Box::new(lower_expr(inner))),
    }
}

/// Lowers one sort key, applying SQL's direction-dependent NULL placement
/// defaults (`NULLS LAST` for ASC, `NULLS FIRST` for DESC).
pub fn lower_sort_key(k: &AstSortKey) -> SortKey {
    let desc = k.desc.unwrap_or(false);
    SortKey { expr: lower_expr(&k.expr), desc, nulls_first: k.nulls_first.unwrap_or(desc) }
}

fn lower_bound(b: &AstBound) -> FrameBound {
    match b {
        AstBound::UnboundedPreceding => FrameBound::UnboundedPreceding,
        AstBound::Preceding(e) => FrameBound::Preceding(lower_expr(e)),
        AstBound::CurrentRow => FrameBound::CurrentRow,
        AstBound::Following(e) => FrameBound::Following(lower_expr(e)),
        AstBound::UnboundedFollowing => FrameBound::UnboundedFollowing,
    }
}

fn lower_spec(def: &ResolvedDef) -> WindowSpec {
    let frame = match &def.frame {
        Some(f) => FrameSpec {
            mode: f.mode,
            start: lower_bound(&f.start),
            end: lower_bound(&f.end),
            exclusion: f.exclusion.unwrap_or_default(),
        },
        // SQL's default frame depends on ORDER BY presence.
        None if !def.order_by.is_empty() => FrameSpec::default_frame(),
        None => FrameSpec::whole_partition(),
    };
    WindowSpec {
        partition_by: def.partition_by.iter().map(lower_expr).collect(),
        order_by: def.order_by.iter().map(lower_sort_key).collect(),
        frame,
    }
}

fn func_kind(name: &str) -> Option<FuncKind> {
    Some(match name {
        "count" => FuncKind::Count,
        "sum" => FuncKind::Sum,
        "avg" => FuncKind::Avg,
        "min" => FuncKind::Min,
        "max" => FuncKind::Max,
        "row_number" => FuncKind::RowNumber,
        "rank" => FuncKind::Rank,
        "dense_rank" => FuncKind::DenseRank,
        "percent_rank" => FuncKind::PercentRank,
        "cume_dist" => FuncKind::CumeDist,
        "ntile" => FuncKind::Ntile,
        "percentile_disc" => FuncKind::PercentileDisc,
        "percentile_cont" => FuncKind::PercentileCont,
        "median" => FuncKind::Median,
        "first_value" => FuncKind::FirstValue,
        "last_value" => FuncKind::LastValue,
        "nth_value" => FuncKind::NthValue,
        "lead" => FuncKind::Lead,
        "lag" => FuncKind::Lag,
        "mode" => FuncKind::Mode,
        _ => return None,
    })
}

fn lower_call(src: &str, call: &AstCall) -> Result<FunctionCall, SqlError> {
    let Some(kind) = func_kind(&call.name) else {
        return Err(SqlError::Plan(PlanError::new(
            src,
            call.name_span,
            format!("unknown window function `{}`", call.name),
        )));
    };
    if call.star && kind != FuncKind::Count {
        return Err(SqlError::Plan(PlanError::new(
            src,
            call.name_span,
            format!("`*` is only valid in count(*), not {}", call.name),
        )));
    }
    let kind = if call.star { FuncKind::CountStar } else { kind };
    let args: Vec<Expr> = call.args.iter().map(lower_expr).collect();
    let inner: Vec<SortKey> = call.inner_order.iter().map(lower_sort_key).collect();

    let mut lowered = if kind == FuncKind::Median && inner.is_empty() && args.len() == 1 {
        // `median(expr)` shorthand ≡ the builder's `FunctionCall::median`:
        // one implicit ascending function-level ORDER BY key.
        FunctionCall::median(args.into_iter().next().expect("one arg"))
    } else {
        FunctionCall::new(kind, args).order_by(inner)
    };
    if call.distinct {
        lowered = lowered.distinct();
    }
    if call.ignore_nulls {
        lowered = lowered.ignore_nulls();
    }
    if let Some(pred) = &call.filter {
        lowered = lowered.filter(lower_expr(pred));
    }
    Ok(lowered)
}

// ---- positional column checking (when the table is known) ----

fn check_columns(src: &str, e: &AstExpr, table: &Table) -> Result<(), SqlError> {
    match e {
        AstExpr::Col(name, span) => {
            if table.column_index(name).is_err() {
                return Err(SqlError::Plan(PlanError::new(
                    src,
                    *span,
                    format!("unknown column `{name}`"),
                )));
            }
            Ok(())
        }
        AstExpr::Lit(..) => Ok(()),
        AstExpr::Bin(_, a, b, _) => {
            check_columns(src, a, table)?;
            check_columns(src, b, table)
        }
        AstExpr::Not(inner, _) | AstExpr::Neg(inner, _) => check_columns(src, inner, table),
    }
}

fn check_sort_keys(src: &str, keys: &[AstSortKey], table: &Table) -> Result<(), SqlError> {
    for k in keys {
        check_columns(src, &k.expr, table)?;
    }
    Ok(())
}

fn check_spec_columns(src: &str, def: &ResolvedDef, table: &Table) -> Result<(), SqlError> {
    for e in &def.partition_by {
        check_columns(src, e, table)?;
    }
    check_sort_keys(src, &def.order_by, table)?;
    if let Some(frame) = &def.frame {
        for b in [&frame.start, &frame.end] {
            if let AstBound::Preceding(e) | AstBound::Following(e) = b {
                check_columns(src, e, table)?;
            }
        }
    }
    Ok(())
}

fn check_call_columns(src: &str, call: &AstCall, table: &Table) -> Result<(), SqlError> {
    for e in &call.args {
        check_columns(src, e, table)?;
    }
    check_sort_keys(src, &call.inner_order, table)?;
    if let Some(pred) = &call.filter {
        check_columns(src, pred, table)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_calls_by_resolved_window() {
        let plan = compile(
            "SELECT sum(v) OVER w, count(*) OVER w, rank() OVER (PARTITION BY g), \
                    avg(v) OVER (w) \
             FROM t WINDOW w AS (ORDER BY k)",
        )
        .unwrap();
        // `w`, inline `(w)` (same resolved spec) and the PARTITION BY one.
        assert_eq!(plan.windows.len(), 2);
        assert_eq!(plan.windows[0].calls.len(), 3);
        assert_eq!(plan.windows[1].calls.len(), 1);
    }

    #[test]
    fn named_window_inheritance_rules() {
        // Adding ORDER BY to an orderless base is fine.
        assert!(compile("SELECT count(*) OVER (w ORDER BY k) FROM t WINDOW w AS (PARTITION BY g)")
            .is_ok());
        // Overriding PARTITION BY is not.
        let e =
            compile("SELECT count(*) OVER (w PARTITION BY v) FROM t WINDOW w AS (PARTITION BY g)")
                .unwrap_err();
        assert!(e.to_string().contains("cannot override PARTITION BY"), "{e}");
        // A framed base cannot be inherited from...
        let e =
            compile("SELECT count(*) OVER (w) FROM t WINDOW w AS (ORDER BY k ROWS 2 PRECEDING)")
                .unwrap_err();
        assert!(e.to_string().contains("frame clause"), "{e}");
        // ...but can be used directly by name.
        assert!(compile("SELECT count(*) OVER w FROM t WINDOW w AS (ORDER BY k ROWS 2 PRECEDING)")
            .is_ok());
    }

    #[test]
    fn default_frames_follow_order_by_presence() {
        use holistic_window::frame::{FrameBound, FrameMode};
        let plan = compile("SELECT count(*) OVER (ORDER BY k) FROM t").unwrap();
        let f = &plan.windows[0].spec.frame;
        assert_eq!(f.mode, FrameMode::Range);
        assert!(matches!(f.end, FrameBound::CurrentRow));
        let plan = compile("SELECT count(*) OVER () FROM t").unwrap();
        let f = &plan.windows[0].spec.frame;
        assert_eq!(f.mode, FrameMode::Rows);
        assert!(matches!(f.end, FrameBound::UnboundedFollowing));
    }

    #[test]
    fn call_shape_errors_are_positional() {
        let e = compile("SELECT rank(DISTINCT) OVER () FROM t").unwrap_err();
        assert!(e.to_string().contains("DISTINCT"), "{e}");
        let e = compile("SELECT ntile(2, 3) OVER () FROM t").unwrap_err();
        assert!(e.to_string().contains("bucket"), "{e}");
    }
}
