//! Query planning — the *plan* phase of the plan → build → probe pipeline.
//!
//! Before any partition is touched, [`plan_query`] analyses every call of a
//! `WindowQuery` and derives, per call, (a) the *canonical ordering
//! criterion* its preprocessing sorts by and (b) the *kept-row mask*
//! (FILTER ∧ family-specific NULL screen) its trees are built over. Two
//! calls whose criteria and masks are structurally equal share every
//! preprocessing product — the inner sort, the dense codes, the merge sort
//! trees — through the per-partition [`crate::artifacts::ArtifactCache`].
//!
//! Keys are *self-describing recipes*: a [`CanonicalExpr`] is a lossless,
//! hashable mirror of [`Expr`], so the build phase reconstructs the exact
//! expression to evaluate from the key alone (`to_expr`). Floats are keyed
//! by bit pattern, which makes `Eq`/`Hash` total without changing equality
//! for any literal the engine can hold.
//!
//! Tree index width (u32 vs u64) is deliberately absent from the keys: the
//! width is chosen per partition from the partition size alone, so within
//! one cache every build of a given key picks the same width.

use crate::expr::{BinOp, Expr};
use crate::order::SortKey;
use crate::spec::{FuncKind, FunctionCall, WindowSpec};
use crate::strategy::CallClass;
use crate::value::Value;
use rustc_hash::FxHashSet;
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
pub(crate) fn canonical_order(keys: &[SortKey]) -> Vec<CanonicalSortKey> {
    keys.iter().map(CanonicalSortKey::from_sort_key).collect()
}

/// Reconstructs the criteria list a canonical order describes.
pub(crate) fn sort_keys_of(keys: &[CanonicalSortKey]) -> Vec<SortKey> {
    keys.iter().map(CanonicalSortKey::to_sort_key).collect()
}

/// The ordering criterion a call's selection/ranking structures sort by.
///
/// `Identity` is frame-position order (value functions without an inner
/// ORDER BY); `Keys` is an explicit criteria list. Rank-family calls with an
/// empty inner ORDER BY canonicalize to the *window* ORDER BY here, so they
/// share artifacts with calls that spell the same criterion out explicitly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum OrderKey {
    Identity,
    Keys(Vec<CanonicalSortKey>),
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

/// Which annotated-tree aggregate a distinct SUM/AVG needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum AggFlavor {
    SumI64,
    SumF64,
    Avg,
}

/// Which fold index a distributive aggregate needs: exact prefix sums for an
/// integer SUM / AVG (addition has an inverse), a segment tree for the rest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum SegFlavor {
    SumI64,
    SumF64,
    Min,
    Max,
}

/// Canonical identity of one preprocessing product within a partition.
///
/// Every artifact the evaluators consume is addressed by one of these keys;
/// the per-partition cache builds each distinct key exactly once.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum ArtifactKey {
    /// Expression values per partition position (window order).
    Values(CanonicalExpr),
    /// Kept-row mask, remap and kept→table row map.
    Mask(MaskKey),
    /// Expression values per *kept* position.
    KeptValues(CanonicalExpr, MaskKey),
    /// Materialized inner ORDER BY key columns (full table).
    InnerKeys(Vec<CanonicalSortKey>),
    /// The inner sort: dense codes + permutation over kept rows (Figure 8).
    DenseCodes(OrderKey, MaskKey),
    /// Merge sort tree over the unique codes (rank family, §4.4).
    CodeMst(OrderKey, MaskKey),
    /// Merge sort tree over the permutation array (selection, §4.5).
    PermMst(OrderKey, MaskKey),
    /// Distinct preprocessing: value hashes per kept position (§6.7).
    DistinctPrep(CanonicalExpr, MaskKey),
    /// Previous-occurrence indices over those hashes (Alg. 1) — read only by
    /// the distinct trees, so tree-free partitions never build it.
    PrevIdcs(CanonicalExpr, MaskKey),
    /// Merge sort tree over the previous-occurrence indices (§4.2).
    DistinctCountMst(CanonicalExpr, MaskKey),
    /// Annotated merge sort tree for SUM/AVG DISTINCT (§4.3).
    DistinctAggMst(CanonicalExpr, MaskKey, AggFlavor),
    /// MIN/MAX ordinal encoding of the values (all positions).
    OrdinalEnc(CanonicalExpr),
    /// Fold index of a distributive aggregate's argument: a segment tree, or
    /// the prefix sums of [`SegFlavor::SumI64`]. (A frame's kept-row count
    /// has no key: the mask's remap answers it.)
    SegTree(CanonicalExpr, MaskKey, SegFlavor),
    /// 3-d range tree over tie-group ids (DENSE_RANK, §4.4).
    RangeTree(OrderKey, MaskKey),
    /// √-decomposition range mode index.
    ModeIndex(CanonicalExpr, MaskKey),
}

impl ArtifactKey {
    /// Short stable label for profiling output (`ExecProfile::artifacts`).
    /// Distinct keys of one shape share a label; footprints aggregate per
    /// label across partitions.
    pub(crate) fn label(&self) -> &'static str {
        use ArtifactKey as K;
        match self {
            K::Values(_) => "values",
            K::Mask(_) => "mask",
            K::KeptValues(..) => "kept-values",
            K::InnerKeys(_) => "inner-keys",
            K::DenseCodes(..) => "dense-codes",
            K::CodeMst(..) => "code-mst",
            K::PermMst(..) => "perm-mst",
            K::DistinctPrep(..) => "distinct-prep",
            K::PrevIdcs(..) => "prev-idcs",
            K::DistinctCountMst(..) => "distinct-count-mst",
            K::DistinctAggMst(..) => "distinct-agg-mst",
            K::OrdinalEnc(_) => "ordinal-enc",
            K::SegTree(_, _, SegFlavor::SumI64) => "prefix-sums",
            K::SegTree(_, _, SegFlavor::SumF64) => "segtree-sum-f64",
            K::SegTree(_, _, SegFlavor::Min) => "segtree-min",
            K::SegTree(_, _, SegFlavor::Max) => "segtree-max",
            K::RangeTree(..) => "range-tree",
            K::ModeIndex(..) => "mode-index",
        }
    }
}

/// Every artifact key one call's evaluator may request — eager and lazy
/// (data-dependent) alike — derived **once** at plan time. The probe phase
/// only borrows these; [`crate::artifacts::ArtifactCache::get_or_build`]
/// clones a key exactly once, when its slot is first created. Before this
/// hoist, every lazy probe-phase build re-derived its key (deep-cloning the
/// canonical expression, mask and ordering criterion) per partition and per
/// call — pure waste, since the plan already knows every key.
#[derive(Debug, Clone, Default)]
pub(crate) struct CallKeys {
    /// Kept-row mask (absent only for classic positional LEAD/LAG, which
    /// never masks).
    pub mask: Option<ArtifactKey>,
    /// Argument (or percentile key) values per partition position.
    pub values: Option<ArtifactKey>,
    /// Output values per kept position.
    pub kept_values: Option<ArtifactKey>,
    /// Materialized inner ORDER BY key columns.
    pub inner_keys: Option<ArtifactKey>,
    /// The inner sort (dense codes + permutation).
    pub dense_codes: Option<ArtifactKey>,
    /// Merge sort tree over unique codes.
    pub code_mst: Option<ArtifactKey>,
    /// Merge sort tree over the permutation array (absent in frame-position
    /// order, where selection is arithmetic on the frame's pieces).
    pub perm_mst: Option<ArtifactKey>,
    /// Distinct preprocessing (value hashes).
    pub distinct_prep: Option<ArtifactKey>,
    /// Previous-occurrence indices (distinct trees only).
    pub prev_idcs: Option<ArtifactKey>,
    /// COUNT DISTINCT tree.
    pub distinct_count_mst: Option<ArtifactKey>,
    /// DENSE_RANK 3-d range tree.
    pub range_tree: Option<ArtifactKey>,
    /// MODE √-decomposition index.
    pub mode_index: Option<ArtifactKey>,
    /// Lazy SUM/AVG DISTINCT annotated trees, one per possible flavor.
    pub distinct_agg_sum_i64: Option<ArtifactKey>,
    /// See [`CallKeys::distinct_agg_sum_i64`].
    pub distinct_agg_sum_f64: Option<ArtifactKey>,
    /// See [`CallKeys::distinct_agg_sum_i64`].
    pub distinct_agg_avg: Option<ArtifactKey>,
    /// Lazy SUM/AVG prefix sums (integer flavor; chosen by the observed data).
    pub seg_sum_i64: Option<ArtifactKey>,
    /// Lazy SUM/AVG segment tree (float flavor).
    pub seg_sum_f64: Option<ArtifactKey>,
    /// Lazy MIN segment tree over ordinals.
    pub seg_min: Option<ArtifactKey>,
    /// Lazy MAX segment tree over ordinals.
    pub seg_max: Option<ArtifactKey>,
    /// Lazy MIN/MAX ordinal encoding.
    pub ordinal_enc: Option<ArtifactKey>,
}

/// Panicking accessors: an evaluator reaching for a key its own plan did not
/// derive is a planner/evaluator mismatch, not a runtime condition.
impl CallKeys {
    pub fn mask(&self) -> &ArtifactKey {
        self.mask.as_ref().expect("plan derives a mask key for masked calls")
    }
    pub fn values(&self) -> &ArtifactKey {
        self.values.as_ref().expect("plan derives a values key")
    }
    pub fn kept_values(&self) -> &ArtifactKey {
        self.kept_values.as_ref().expect("plan derives a kept-values key")
    }
    pub fn inner_keys(&self) -> &ArtifactKey {
        self.inner_keys.as_ref().expect("plan derives an inner-keys key")
    }
    pub fn dense_codes(&self) -> &ArtifactKey {
        self.dense_codes.as_ref().expect("plan derives a dense-codes key")
    }
    pub fn code_mst(&self) -> &ArtifactKey {
        self.code_mst.as_ref().expect("plan derives a code-MST key")
    }
    pub fn perm_mst(&self) -> &ArtifactKey {
        self.perm_mst.as_ref().expect("plan derives a permutation-MST key")
    }
    pub fn distinct_prep(&self) -> &ArtifactKey {
        self.distinct_prep.as_ref().expect("plan derives a distinct-prep key")
    }
    pub fn prev_idcs(&self) -> &ArtifactKey {
        self.prev_idcs.as_ref().expect("plan derives a previous-occurrence key")
    }
    pub fn distinct_count_mst(&self) -> &ArtifactKey {
        self.distinct_count_mst.as_ref().expect("plan derives a COUNT DISTINCT tree key")
    }
    pub fn range_tree(&self) -> &ArtifactKey {
        self.range_tree.as_ref().expect("plan derives a range-tree key")
    }
    pub fn mode_index(&self) -> &ArtifactKey {
        self.mode_index.as_ref().expect("plan derives a mode-index key")
    }
    pub fn distinct_agg(&self, flavor: AggFlavor) -> &ArtifactKey {
        let k = match flavor {
            AggFlavor::SumI64 => &self.distinct_agg_sum_i64,
            AggFlavor::SumF64 => &self.distinct_agg_sum_f64,
            AggFlavor::Avg => &self.distinct_agg_avg,
        };
        k.as_ref().expect("plan derives every reachable distinct-agg flavor")
    }
    pub fn seg(&self, flavor: SegFlavor) -> &ArtifactKey {
        let k = match flavor {
            SegFlavor::SumI64 => &self.seg_sum_i64,
            SegFlavor::SumF64 => &self.seg_sum_f64,
            SegFlavor::Min => &self.seg_min,
            SegFlavor::Max => &self.seg_max,
        };
        k.as_ref().expect("plan derives every reachable fold-index flavor")
    }
    pub fn ordinal_enc(&self) -> &ArtifactKey {
        self.ordinal_enc.as_ref().expect("plan derives an ordinal-encoding key")
    }

    /// The statically-known keys to prebuild eagerly, in dependency-
    /// compatible order (the getters recurse through missing ingredients, so
    /// the order is cosmetic, not load-bearing). Lazy data-dependent keys
    /// (SUM flavors, ordinal trees, annotated distinct trees) are excluded.
    pub(crate) fn eager(&self) -> impl Iterator<Item = &ArtifactKey> {
        [
            self.values.as_ref(),
            self.mask.as_ref(),
            self.kept_values.as_ref(),
            self.inner_keys.as_ref(),
            self.dense_codes.as_ref(),
            self.code_mst.as_ref(),
            self.perm_mst.as_ref(),
            self.distinct_prep.as_ref(),
            self.prev_idcs.as_ref(),
            self.distinct_count_mst.as_ref(),
            self.range_tree.as_ref(),
            self.mode_index.as_ref(),
        ]
        .into_iter()
        .flatten()
    }
}

/// The per-call slice of a [`QueryPlan`].
#[derive(Debug, Clone)]
pub(crate) struct CallPlan {
    /// Canonical ordering criterion (None: the call never sorts).
    pub order: Option<OrderKey>,
    /// Pre-derived artifact keys (see [`CallKeys`]).
    pub keys: CallKeys,
    /// Call classification for the strategy layer (cost model input).
    pub class: CallClass,
}

/// The whole-query plan: per-call keys plus the deduplicated, statically
/// known artifact worklist the build phase forces up front.
#[derive(Debug, Clone)]
pub(crate) struct QueryPlan {
    pub calls: Vec<CallPlan>,
    /// Distinct artifacts to build eagerly, in dependency-compatible order.
    /// Data-dependent artifacts (SUM's prefix sums or float segment tree,
    /// MIN/MAX ordinal trees) are resolved lazily through the same cache
    /// instead.
    pub prebuild: Vec<ArtifactKey>,
}

/// Plans all calls of one query against a shared OVER clause.
pub(crate) fn plan_query(spec: &WindowSpec, calls: &[FunctionCall]) -> QueryPlan {
    let mut call_plans = Vec::with_capacity(calls.len());
    let mut prebuild = Vec::new();
    let mut seen: FxHashSet<ArtifactKey> = FxHashSet::default();
    for call in calls {
        let cp = plan_call(spec, call);
        for key in cp.keys.eager() {
            if seen.insert(key.clone()) {
                prebuild.push(key.clone());
            }
        }
        call_plans.push(cp);
    }
    QueryPlan { calls: call_plans, prebuild }
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
    let args: Vec<CanonicalExpr> = call.args.iter().map(CanonicalExpr::from_expr).collect();
    let keys = derive_keys(call, &order, &mask, &args);
    CallPlan { order, keys, class: CallClass::of(call) }
}

/// Derives every artifact key the call's evaluator may request — the one
/// place canonical forms are cloned into keys. Mirrors the evaluator
/// dispatch in `crate::eval` exactly; a key the evaluator asks for but this
/// function does not derive panics loudly in the [`CallKeys`] accessors.
fn derive_keys(
    call: &FunctionCall,
    order: &Option<OrderKey>,
    mask: &MaskKey,
    args: &[CanonicalExpr],
) -> CallKeys {
    use ArtifactKey as K;
    use FuncKind::*;
    let mut keys = CallKeys { mask: Some(K::Mask(mask.clone())), ..CallKeys::default() };
    match call.kind {
        // No argument: the FILTER mask is all the call reads.
        CountStar => {}
        Count | Sum | Avg | Min | Max => {
            let arg = args[0].clone();
            keys.values = Some(K::Values(arg.clone()));
            if call.distinct && !matches!(call.kind, Min | Max) {
                // MIN/MAX DISTINCT ≡ plain MIN/MAX → segment tree path below.
                keys.kept_values = Some(K::KeptValues(arg.clone(), mask.clone()));
                keys.distinct_prep = Some(K::DistinctPrep(arg.clone(), mask.clone()));
                keys.prev_idcs = Some(K::PrevIdcs(arg.clone(), mask.clone()));
                match call.kind {
                    Count => {
                        keys.distinct_count_mst = Some(K::DistinctCountMst(arg, mask.clone()));
                    }
                    Sum => {
                        keys.distinct_agg_sum_i64 =
                            Some(K::DistinctAggMst(arg.clone(), mask.clone(), AggFlavor::SumI64));
                        keys.distinct_agg_sum_f64 =
                            Some(K::DistinctAggMst(arg, mask.clone(), AggFlavor::SumF64));
                    }
                    Avg => {
                        keys.distinct_agg_avg =
                            Some(K::DistinctAggMst(arg, mask.clone(), AggFlavor::Avg));
                    }
                    _ => unreachable!("distinct aggregate kinds"),
                }
            } else {
                match call.kind {
                    // One pair of keys for both: `sum(x), avg(x)` over one
                    // mask share whichever flavor the data picks.
                    Sum | Avg => {
                        keys.seg_sum_i64 =
                            Some(K::SegTree(arg.clone(), mask.clone(), SegFlavor::SumI64));
                        keys.seg_sum_f64 = Some(K::SegTree(arg, mask.clone(), SegFlavor::SumF64));
                    }
                    Min => {
                        keys.ordinal_enc = Some(K::OrdinalEnc(arg.clone()));
                        keys.seg_min = Some(K::SegTree(arg, mask.clone(), SegFlavor::Min));
                    }
                    Max => {
                        keys.ordinal_enc = Some(K::OrdinalEnc(arg.clone()));
                        keys.seg_max = Some(K::SegTree(arg, mask.clone(), SegFlavor::Max));
                    }
                    _ => {}
                }
            }
        }
        RowNumber | Rank | DenseRank | PercentRank | CumeDist | Ntile => {
            let order = order.clone().expect("rank family always orders");
            let OrderKey::Keys(ks) = &order else { unreachable!("rank order is explicit") };
            keys.inner_keys = Some(K::InnerKeys(ks.clone()));
            keys.dense_codes = Some(K::DenseCodes(order.clone(), mask.clone()));
            if call.kind == DenseRank {
                keys.range_tree = Some(K::RangeTree(order, mask.clone()));
            } else {
                keys.code_mst = Some(K::CodeMst(order, mask.clone()));
            }
        }
        PercentileDisc | PercentileCont | Median => {
            let order = order.clone().expect("percentiles always order");
            let OrderKey::Keys(ks) = &order else { unreachable!("percentile order is explicit") };
            let key_expr = ks[0].expr.clone();
            keys.values = Some(K::Values(key_expr.clone()));
            keys.kept_values = Some(K::KeptValues(key_expr, mask.clone()));
            keys.inner_keys = Some(K::InnerKeys(ks.clone()));
            keys.dense_codes = Some(K::DenseCodes(order.clone(), mask.clone()));
            keys.perm_mst = Some(K::PermMst(order, mask.clone()));
        }
        FirstValue | LastValue | NthValue => {
            let arg = args[0].clone();
            keys.values = Some(K::Values(arg.clone()));
            keys.kept_values = Some(K::KeptValues(arg, mask.clone()));
            // Frame-position order sorts nothing and needs no tree.
            if let Some(order @ OrderKey::Keys(ks)) = order {
                keys.inner_keys = Some(K::InnerKeys(ks.clone()));
                keys.dense_codes = Some(K::DenseCodes(order.clone(), mask.clone()));
                keys.perm_mst = Some(K::PermMst(order.clone(), mask.clone()));
            }
        }
        Lead | Lag => {
            let arg = args[0].clone();
            keys.values = Some(K::Values(arg.clone()));
            match order {
                Some(order @ OrderKey::Keys(ks)) => {
                    keys.kept_values = Some(K::KeptValues(arg, mask.clone()));
                    keys.inner_keys = Some(K::InnerKeys(ks.clone()));
                    keys.dense_codes = Some(K::DenseCodes(order.clone(), mask.clone()));
                    keys.code_mst = Some(K::CodeMst(order.clone(), mask.clone()));
                    keys.perm_mst = Some(K::PermMst(order.clone(), mask.clone()));
                }
                // Classic positional LEAD/LAG: frame and mask are ignored.
                _ => keys.mask = None,
            }
        }
        Mode => {
            let arg = args[0].clone();
            keys.values = Some(K::Values(arg.clone()));
            keys.kept_values = Some(K::KeptValues(arg.clone(), mask.clone()));
            keys.mode_index = Some(K::ModeIndex(arg, mask.clone()));
        }
    }
    keys
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
        let spec = WindowSpec::new().order_by(vec![SortKey::asc(col("v"))]);
        let implicit = FunctionCall::rank(vec![]);
        let explicit = FunctionCall::row_number(vec![SortKey::asc(col("v"))]);
        let plan = plan_query(&spec, &[implicit, explicit]);
        assert_eq!(plan.calls[0].order, plan.calls[1].order);
        // One shared dense-code sort, one shared code tree.
        let sorts =
            plan.prebuild.iter().filter(|k| matches!(k, ArtifactKey::DenseCodes(..))).count();
        let msts = plan.prebuild.iter().filter(|k| matches!(k, ArtifactKey::CodeMst(..))).count();
        assert_eq!((sorts, msts), (1, 1));
    }

    #[test]
    fn percentile_mask_differs_from_rank_mask() {
        // Same criterion, but the percentile screens NULL keys — the kept-row
        // sets can diverge, so the sorted structures must not be shared.
        let spec = WindowSpec::new();
        let med = FunctionCall::median(col("v"));
        let rnk = FunctionCall::rank(vec![SortKey::asc(col("v"))]);
        let plan = plan_query(&spec, &[med, rnk]);
        assert_eq!(plan.calls[0].order, plan.calls[1].order);
        assert_ne!(plan.calls[0].keys.mask(), plan.calls[1].keys.mask());
        let sorts =
            plan.prebuild.iter().filter(|k| matches!(k, ArtifactKey::DenseCodes(..))).count();
        assert_eq!(sorts, 2);
    }

    #[test]
    fn lazy_flavors_are_planned_but_not_prebuilt() {
        // Data-dependent artifacts (SUM / AVG's prefix sums or float tree,
        // MIN/MAX ordinal trees, annotated distinct trees) must have
        // plan-derived keys — the probe path borrows them — yet stay off the
        // eager prebuild worklist, whose flavor choice needs the data.
        let spec = WindowSpec::new();
        let calls = vec![
            FunctionCall::sum(col("v")),
            FunctionCall::min(col("v")),
            FunctionCall::sum_distinct(col("v")),
            FunctionCall::avg(col("v")),
        ];
        let plan = plan_query(&spec, &calls);
        let (sum, avg) = (&plan.calls[0].keys, &plan.calls[3].keys);
        for flavor in [SegFlavor::SumI64, SegFlavor::SumF64] {
            assert!(matches!(sum.seg(flavor), ArtifactKey::SegTree(..)));
            // `sum(v), avg(v)` read one index, whichever the data picks.
            assert_eq!(sum.seg(flavor), avg.seg(flavor));
        }
        let min = &plan.calls[1].keys;
        assert!(matches!(min.ordinal_enc(), ArtifactKey::OrdinalEnc(..)));
        assert!(matches!(min.seg(SegFlavor::Min), ArtifactKey::SegTree(..)));
        let sd = &plan.calls[2].keys;
        assert!(matches!(sd.distinct_agg(AggFlavor::SumI64), ArtifactKey::DistinctAggMst(..)));
        assert!(matches!(sd.distinct_agg(AggFlavor::SumF64), ArtifactKey::DistinctAggMst(..)));
        assert!(!plan.prebuild.iter().any(|k| matches!(
            k,
            ArtifactKey::OrdinalEnc(..)
                | ArtifactKey::DistinctAggMst(..)
                | ArtifactKey::SegTree(..)
        )));
    }

    #[test]
    fn what_the_partition_already_answers_plans_no_index() {
        // A frame's kept-row count is the mask's remap and frame-position
        // selection is arithmetic on the frame's pieces: COUNT and value
        // functions without an inner ORDER BY plan a mask (and the values
        // they read), nothing to sort and no tree.
        let spec = WindowSpec::new().order_by(vec![SortKey::asc(col("t"))]);
        let calls = vec![
            FunctionCall::count_star().filter(col("v").gt(lit(0i64))),
            FunctionCall::count(col("v")),
            FunctionCall::first_value(col("v")).ignore_nulls(),
            FunctionCall::nth_value(col("v"), lit(2i64)),
        ];
        let plan = plan_query(&spec, &calls);
        assert!(plan.calls[2..].iter().all(|cp| cp.order == Some(OrderKey::Identity)));
        assert!(plan.calls.iter().all(|cp| cp.keys.perm_mst.is_none()));
        assert!(plan.prebuild.iter().all(|k| matches!(
            k,
            ArtifactKey::Values(_) | ArtifactKey::Mask(_) | ArtifactKey::KeptValues(..)
        )));
    }

    /// The artifact getters read a recipe's ingredient keys from the
    /// requesting call's own [`CallKeys`] instead of deriving (and cloning)
    /// them from the artifact's key: every key must name the same
    /// expression, mask and order as the keys of what it is built from.
    #[test]
    fn a_calls_keys_agree_with_their_ingredients() {
        use ArtifactKey as K;
        let spec = WindowSpec::new().order_by(vec![SortKey::asc(col("t"))]);
        let by = || vec![SortKey::desc(col("y")), SortKey::asc(col("t"))];
        let live = || col("y").gt(lit(0i64));
        let calls = [
            FunctionCall::count_star().filter(live()),
            FunctionCall::count(col("x")),
            FunctionCall::avg(col("x")).filter(live()),
            FunctionCall::max(col("x")).distinct(),
            FunctionCall::count_distinct(col("x")).filter(live()),
            FunctionCall::sum_distinct(col("x")),
            FunctionCall::avg(col("x")).distinct(),
            FunctionCall::rank(vec![]),
            FunctionCall::dense_rank(by()).filter(live()),
            FunctionCall::ntile(lit(3i64), by()),
            FunctionCall::median(col("y")).filter(live()),
            FunctionCall::percentile_cont(0.3, SortKey::desc(col("y"))),
            FunctionCall::first_value(col("x")).ignore_nulls(),
            FunctionCall::last_value(col("x")),
            FunctionCall::nth_value(col("x"), lit(2i64)).order_by(by()).ignore_nulls(),
            FunctionCall::lag(col("x"), 1, lit(0i64)).ignore_nulls(),
            FunctionCall::lead(col("x"), 1, lit(0i64)).order_by(by()).filter(live()),
            FunctionCall::lead(col("x"), 1, lit(0i64)).order_by(by()).ignore_nulls(),
            FunctionCall::mode(col("y")).filter(live()),
        ];
        for call in &calls {
            let k = plan_call(&spec, call).keys;
            let some = |key: K| Some(key);
            if let Some(K::Mask(MaskKey { screen: Some(e), .. })) = &k.mask {
                assert_eq!(k.values, some(K::Values(e.clone())), "{call:?}");
            }
            if let Some(K::KeptValues(e, mk)) = &k.kept_values {
                assert_eq!(k.values, some(K::Values(e.clone())), "{call:?}");
                assert_eq!(k.mask, some(K::Mask(mk.clone())), "{call:?}");
            }
            if let Some(K::DenseCodes(order, mk)) = &k.dense_codes {
                let OrderKey::Keys(ks) = order else { panic!("dense codes by keys: {call:?}") };
                assert_eq!(k.inner_keys, some(K::InnerKeys(ks.clone())), "{call:?}");
                assert_eq!(k.mask, some(K::Mask(mk.clone())), "{call:?}");
            }
            for tree in [&k.code_mst, &k.perm_mst, &k.range_tree] {
                if let Some(K::CodeMst(o, mk) | K::PermMst(o, mk) | K::RangeTree(o, mk)) = tree {
                    assert_eq!(k.dense_codes, some(K::DenseCodes(o.clone(), mk.clone())))
                }
            }
            if let Some(K::DistinctPrep(e, mk)) = &k.distinct_prep {
                assert_eq!(k.kept_values, some(K::KeptValues(e.clone(), mk.clone())), "{call:?}");
                assert_eq!(k.prev_idcs, some(K::PrevIdcs(e.clone(), mk.clone())), "{call:?}");
            }
            let distinct_trees = [
                &k.distinct_count_mst,
                &k.distinct_agg_sum_i64,
                &k.distinct_agg_sum_f64,
                &k.distinct_agg_avg,
            ];
            for tree in distinct_trees {
                if let Some(K::DistinctCountMst(e, mk) | K::DistinctAggMst(e, mk, _)) = tree {
                    assert_eq!(k.prev_idcs, some(K::PrevIdcs(e.clone(), mk.clone())), "{call:?}");
                    assert_eq!(
                        k.distinct_prep,
                        some(K::DistinctPrep(e.clone(), mk.clone())),
                        "{call:?}"
                    );
                }
            }
            for index in [&k.seg_sum_i64, &k.seg_sum_f64, &k.seg_min, &k.seg_max] {
                if let Some(K::SegTree(e, mk, _)) = index {
                    assert_eq!(k.values, some(K::Values(e.clone())), "{call:?}");
                    assert_eq!(k.mask, some(K::Mask(mk.clone())), "{call:?}");
                }
            }
            if let Some(K::ModeIndex(e, mk)) = &k.mode_index {
                assert_eq!(k.kept_values, some(K::KeptValues(e.clone(), mk.clone())), "{call:?}");
            }
        }
    }

    #[test]
    fn prebuild_deduplicates_across_families() {
        let spec = WindowSpec::new().order_by(vec![SortKey::asc(col("pos"))]);
        let calls = vec![
            FunctionCall::rank(vec![SortKey::asc(col("v"))]),
            FunctionCall::row_number(vec![SortKey::asc(col("v"))]),
            FunctionCall::lead(col("x"), 1, lit(0i64)).order_by(vec![SortKey::asc(col("v"))]),
        ];
        let plan = plan_query(&spec, &calls);
        // rank + row_number + lead (no IGNORE NULLS) all share the filterless
        // mask and the same criterion: one sort, one code MST, one perm MST.
        let count =
            |f: &dyn Fn(&ArtifactKey) -> bool| plan.prebuild.iter().filter(|k| f(k)).count();
        assert_eq!(count(&|k| matches!(k, ArtifactKey::DenseCodes(..))), 1);
        assert_eq!(count(&|k| matches!(k, ArtifactKey::CodeMst(..))), 1);
        assert_eq!(count(&|k| matches!(k, ArtifactKey::PermMst(..))), 1);
        assert_eq!(count(&|k| matches!(k, ArtifactKey::Mask(..))), 1);
    }
}
