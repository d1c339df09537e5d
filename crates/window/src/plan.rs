//! Query planning — the *plan* phase of the plan → build → probe pipeline.
//!
//! Before any partition is touched, [`plan_query`] analyses every call of a
//! `WindowQuery` and derives, per call, what its preprocessing products are
//! made from: (a) the *canonical ordering criterion* its inner sort sorts
//! by, (b) the *kept-row mask* (FILTER ∧ family-specific NULL screen) its
//! trees are built over and (c) the expression it evaluates per position.
//! The artifact getters (`crate::artifacts`) make a product's key from these
//! when an evaluator asks for it, so two calls whose sources are
//! structurally equal share every product they both read — the inner sort,
//! the dense codes, the merge sort trees — through the per-partition cache.
//!
//! The canonical forms are *self-describing recipes*: a [`CanonicalExpr`] is
//! a lossless, hashable mirror of [`Expr`], so the build phase reconstructs
//! the exact expression to evaluate from a key alone (`to_expr`). Floats are
//! keyed by bit pattern, which makes `Eq`/`Hash` total without changing
//! equality for any literal the engine can hold.

use crate::expr::{BinOp, Expr};
use crate::order::SortKey;
use crate::spec::{FuncKind, FunctionCall, WindowSpec};
use crate::strategy::CallClass;
use crate::value::Value;
use std::sync::Arc;

/// A hashable literal: floats keyed by bit pattern, everything else as-is.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum CanonicalValue {
    /// SQL NULL.
    Null,
    /// Integer literal.
    Int(i64),
    /// Float literal, by IEEE-754 bit pattern (lossless round-trip).
    FloatBits(u64),
    /// String literal.
    Str(Arc<str>),
    /// Date literal.
    Date(i32),
    /// Boolean literal.
    Bool(bool),
}

impl CanonicalValue {
    fn from_value(v: &Value) -> Self {
        match v {
            Value::Null => CanonicalValue::Null,
            Value::Int(x) => CanonicalValue::Int(*x),
            Value::Float(x) => CanonicalValue::FloatBits(x.to_bits()),
            Value::Str(s) => CanonicalValue::Str(s.clone()),
            Value::Date(d) => CanonicalValue::Date(*d),
            Value::Bool(b) => CanonicalValue::Bool(*b),
        }
    }

    fn to_value(&self) -> Value {
        match self {
            CanonicalValue::Null => Value::Null,
            CanonicalValue::Int(x) => Value::Int(*x),
            CanonicalValue::FloatBits(b) => Value::Float(f64::from_bits(*b)),
            CanonicalValue::Str(s) => Value::Str(s.clone()),
            CanonicalValue::Date(d) => Value::Date(*d),
            CanonicalValue::Bool(b) => Value::Bool(*b),
        }
    }
}

/// A lossless, hashable mirror of [`Expr`] establishing *structural*
/// equality: two expressions are the same artifact ingredient iff their
/// canonical forms are equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum CanonicalExpr {
    /// Column reference.
    Col(String),
    /// Literal.
    Lit(CanonicalValue),
    /// Binary operation.
    Bin(BinOp, Box<CanonicalExpr>, Box<CanonicalExpr>),
    /// Logical negation.
    Not(Box<CanonicalExpr>),
    /// Arithmetic negation.
    Neg(Box<CanonicalExpr>),
}

impl CanonicalExpr {
    pub(crate) fn from_expr(e: &Expr) -> Self {
        match e {
            Expr::Col(name) => CanonicalExpr::Col(name.clone()),
            Expr::Lit(v) => CanonicalExpr::Lit(CanonicalValue::from_value(v)),
            Expr::Bin(op, a, b) => {
                CanonicalExpr::Bin(*op, Box::new(Self::from_expr(a)), Box::new(Self::from_expr(b)))
            }
            Expr::Not(a) => CanonicalExpr::Not(Box::new(Self::from_expr(a))),
            Expr::Neg(a) => CanonicalExpr::Neg(Box::new(Self::from_expr(a))),
        }
    }

    /// Reconstructs the expression the key describes (build-phase recipe).
    pub(crate) fn to_expr(&self) -> Expr {
        match self {
            CanonicalExpr::Col(name) => Expr::Col(name.clone()),
            CanonicalExpr::Lit(v) => Expr::Lit(v.to_value()),
            CanonicalExpr::Bin(op, a, b) => {
                Expr::Bin(*op, Box::new(a.to_expr()), Box::new(b.to_expr()))
            }
            CanonicalExpr::Not(a) => Expr::Not(Box::new(a.to_expr())),
            CanonicalExpr::Neg(a) => Expr::Neg(Box::new(a.to_expr())),
        }
    }
}

/// One canonical ORDER BY criterion.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CanonicalSortKey {
    pub expr: CanonicalExpr,
    pub desc: bool,
    pub nulls_first: bool,
}

impl CanonicalSortKey {
    fn from_sort_key(sk: &SortKey) -> Self {
        CanonicalSortKey {
            expr: CanonicalExpr::from_expr(&sk.expr),
            desc: sk.desc,
            nulls_first: sk.nulls_first,
        }
    }

    fn to_sort_key(&self) -> SortKey {
        SortKey { expr: self.expr.to_expr(), desc: self.desc, nulls_first: self.nulls_first }
    }
}

/// Canonicalizes an ORDER BY criteria list.
pub(crate) fn canonical_order(keys: &[SortKey]) -> Criteria {
    keys.iter().map(CanonicalSortKey::from_sort_key).collect()
}

/// Reconstructs the criteria list a canonical order describes.
pub(crate) fn sort_keys_of(keys: &[CanonicalSortKey]) -> Vec<SortKey> {
    keys.iter().map(CanonicalSortKey::to_sort_key).collect()
}

/// A canonical ORDER BY criteria list, shared by `Arc`: a call's plan, the
/// artifact keys made from it and the query's hoisted key columns hold the
/// same list.
pub(crate) type Criteria = Arc<[CanonicalSortKey]>;

/// The ordering criterion a call's selection/ranking structures sort by.
///
/// `Identity` is frame-position order (value functions without an inner
/// ORDER BY); `Keys` is an explicit criteria list. Rank-family calls with an
/// empty inner ORDER BY canonicalize to the *window* ORDER BY here, so they
/// share artifacts with calls that spell the same criterion out explicitly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum OrderKey {
    Identity,
    Keys(Criteria),
}

/// The kept-row mask: which partition rows enter the preprocessing at all.
///
/// `filter` is the call's FILTER predicate; `screen` is the expression whose
/// NULL rows the family drops (aggregate argument, percentile key, IGNORE
/// NULLS argument — see [`FunctionCall::null_screen`]). Two calls share
/// sorted structures only when *both* components match: a percentile and a
/// rank call over the same criterion still differ (the percentile screens
/// NULL keys, the rank call keeps them), so their kept-row sets diverge.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct MaskKey {
    pub filter: Option<CanonicalExpr>,
    pub screen: Option<CanonicalExpr>,
}

/// The per-call slice of a [`QueryPlan`]: what the call's artifacts are made
/// from. Which artifacts a call reads is decided where they are read — the
/// family evaluators — and each artifact getter makes its key from these
/// sources (`crate::artifacts`), so a key costs reference-count bumps.
#[derive(Debug, Clone)]
pub(crate) struct CallPlan {
    /// Canonical ordering criterion (None: the call never sorts).
    pub order: Option<OrderKey>,
    /// The kept-row mask.
    pub mask: Arc<MaskKey>,
    /// The expression the call evaluates per position: its argument, or its
    /// percentile key (None: `COUNT(*)` and the rank family).
    pub value: Option<Arc<CanonicalExpr>>,
    /// Call classification for the strategy layer (cost model input).
    pub class: CallClass,
}

/// The whole-query plan: one [`CallPlan`] per call.
#[derive(Debug, Clone)]
pub(crate) struct QueryPlan {
    pub calls: Vec<CallPlan>,
}

/// Plans all calls of one query against a shared OVER clause.
pub(crate) fn plan_query(spec: &WindowSpec, calls: &[FunctionCall]) -> QueryPlan {
    QueryPlan { calls: calls.iter().map(|call| plan_call(spec, call)).collect() }
}

fn plan_call(spec: &WindowSpec, call: &FunctionCall) -> CallPlan {
    use FuncKind::*;
    let order = match call.kind {
        RowNumber | Rank | DenseRank | PercentRank | CumeDist | Ntile => {
            Some(OrderKey::Keys(canonical_order(call.rank_order(spec))))
        }
        PercentileDisc | PercentileCont | Median => {
            Some(OrderKey::Keys(canonical_order(&call.inner_order)))
        }
        FirstValue | LastValue | NthValue => Some(if call.inner_order.is_empty() {
            OrderKey::Identity
        } else {
            OrderKey::Keys(canonical_order(&call.inner_order))
        }),
        Lead | Lag => {
            // Empty inner order = classic positional semantics; no sort.
            if call.inner_order.is_empty() {
                None
            } else {
                Some(OrderKey::Keys(canonical_order(&call.inner_order)))
            }
        }
        CountStar | Count | Sum | Avg | Min | Max | Mode => None,
    };
    let mask = MaskKey {
        filter: call.filter.as_ref().map(CanonicalExpr::from_expr),
        screen: call.null_screen().map(CanonicalExpr::from_expr),
    };
    let value = match call.kind {
        CountStar | RowNumber | Rank | DenseRank | PercentRank | CumeDist | Ntile => None,
        PercentileDisc | PercentileCont | Median => call.inner_order.first().map(|k| &k.expr),
        _ => call.args.first(),
    };
    CallPlan {
        order,
        mask: Arc::new(mask),
        value: value.map(|e| Arc::new(CanonicalExpr::from_expr(e))),
        class: CallClass::of(call),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{col, lit};

    #[test]
    fn canonical_expr_roundtrip_is_lossless() {
        let e = col("a").add(lit(1i64)).mul(col("b").sub(lit(2.5))).lt(lit(10i64)).not();
        let c = CanonicalExpr::from_expr(&e);
        let back = CanonicalExpr::from_expr(&c.to_expr());
        assert_eq!(c, back);
    }

    #[test]
    fn structurally_equal_exprs_share_keys() {
        let a = CanonicalExpr::from_expr(&col("x").add(lit(1i64)));
        let b = CanonicalExpr::from_expr(&col("x").add(lit(1i64)));
        assert_eq!(a, b);
        let c = CanonicalExpr::from_expr(&col("x").add(lit(2i64)));
        assert_ne!(a, c);
        // Floats key by bits: 0.0 and -0.0 are distinct recipes.
        let z = CanonicalExpr::from_expr(&lit(0.0));
        let nz = CanonicalExpr::from_expr(&lit(-0.0));
        assert_ne!(z, nz);
    }

    #[test]
    fn rank_family_falls_back_to_window_order() {
        // An implicit rank order is the window's: the same criterion as an
        // explicit one, so the two calls share their sort and code tree
        // (`artifact_sharing.rs::implicit_and_explicit_rank_order_share_one_sort_and_tree`).
        let spec = WindowSpec::new().order_by(vec![SortKey::asc(col("v"))]);
        let implicit = FunctionCall::rank(vec![]);
        let explicit = FunctionCall::row_number(vec![SortKey::asc(col("v"))]);
        let plan = plan_query(&spec, &[implicit, explicit]);
        assert_eq!(plan.calls[0].order, plan.calls[1].order);
        assert_eq!(plan.calls[0].mask, plan.calls[1].mask);
    }

    #[test]
    fn percentile_mask_differs_from_rank_mask() {
        // Same criterion, but the percentile screens NULL keys — the kept-row
        // sets can diverge, so the sorted structures must not be shared
        // (`artifact_sharing.rs::differing_masks_do_not_share_sorts`).
        let spec = WindowSpec::new();
        let med = FunctionCall::median(col("v"));
        let rnk = FunctionCall::rank(vec![SortKey::asc(col("v"))]);
        let plan = plan_query(&spec, &[med, rnk]);
        assert_eq!(plan.calls[0].order, plan.calls[1].order);
        assert_ne!(plan.calls[0].mask, plan.calls[1].mask);
        // What a call screens for NULLs is what it evaluates.
        assert_eq!(plan.calls[0].mask.screen.as_ref(), plan.calls[0].value.as_deref());
        assert_eq!(plan.calls[1].value, None);
    }

    #[test]
    fn value_functions_without_an_inner_order_select_by_position() {
        // Frame-position order sorts nothing: what such a call builds is
        // pinned at the cache level
        // (`artifact_sharing.rs::what_the_partition_already_answers_builds_no_index`).
        let spec = WindowSpec::new().order_by(vec![SortKey::asc(col("t"))]);
        let calls = vec![
            FunctionCall::first_value(col("v")).ignore_nulls(),
            FunctionCall::nth_value(col("v"), lit(2i64)),
        ];
        let plan = plan_query(&spec, &calls);
        assert!(plan.calls.iter().all(|cp| cp.order == Some(OrderKey::Identity)));
    }
}
