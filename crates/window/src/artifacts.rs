//! The per-partition preprocessing-artifact cache — the *build* phase of the
//! plan → build → probe pipeline.
//!
//! Every preprocessing product an evaluator consumes (inner-sort dense
//! codes, merge sort trees, segment trees, the range tree, the mode index,
//! kept-row masks, materialized expression values) is addressed by a
//! canonical [`ArtifactKey`] and built **exactly once per partition**, no
//! matter how many calls request it. Calls whose sources coincide — e.g.
//! `RANK`, `ROW_NUMBER` and a framed `LEAD` over the same inner ORDER BY —
//! share the sort and the trees instead of redoing them per call.
//!
//! A getter makes its key from the requesting call's [`CallPlan`] when the
//! evaluator asks: the plan's sources are `Arc`-shared, so a key costs
//! reference-count bumps, and the cache moves it into the slot map on a
//! miss. Every artifact is built on its first request, whatever the
//! strategy, and [`ArtifactCache::get_or_build`] times the build.
//!
//! Artifacts are stored type-erased (`Arc<dyn Any>`) behind a `OnceLock` per
//! key: the slot map's lock is held only to fetch the slot, the build runs
//! outside it, and nested requests (an artifact building its ingredients)
//! recurse safely because dependencies form a DAG of distinct keys. Build
//! errors are cached too ([`Error`] is `Clone`), so a failing recipe fails
//! identically for every requester. Ingredient lookups happen *inside* the
//! build closures: a cache hit touches exactly one slot.
//!
//! Every artifact reports its heap footprint through [`ArtifactBytes`] when
//! built; the cache records per-slot `(label, bytes)` pairs that
//! `execute_profiled` aggregates into [`crate::ExecProfile::artifacts`].
//!
//! Every tree indexes with `u32`: the pipeline refuses a partition whose
//! positions would not fit before any artifact is asked for.

use crate::column::Column;
use crate::dictionary::codes_of;
use crate::error::{Error, Result};
use crate::eval::primitive::SegTrees;
use crate::eval::Ctx;
use crate::executor::{tree_params, CacheStats, SpillStats};
use crate::order::{dense_codes_for, KeyColumns};
use crate::plan::{sort_keys_of, CallPlan, CanonicalExpr, Criteria, MaskKey, OrderKey};
use crate::remap::Remap;
use crate::strategy::{CallClass, Strategy};
use holistic_core::aggregate::DistinctAggregate;
use holistic_core::codes::DenseCodes;
use holistic_core::{
    mst_arena_len, mst_spill_build_len, prev_idcs_dense, AnnotatedMst, MergeSortTree, MstParams,
    MstShell, RangeSet, SpillableArena, TreeIndex,
};
use holistic_rangemode::RangeModeIndex;
use holistic_rangetree::RangeTree3;
use holistic_segtree::Monoid;
use rustc_hash::FxHashMap;
use std::any::Any;
use std::cell::Cell;
use std::mem::size_of;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex, OnceLock, Weak};
use std::time::{Duration, Instant};

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

/// Canonical identity of one preprocessing product within a partition: the
/// artifact's kind and the sources it is made from, shared by `Arc` with the
/// requesting call's plan.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum ArtifactKey {
    /// Expression values per partition position (window order).
    Values(Arc<CanonicalExpr>),
    /// Kept-row mask, remap and kept→table row map.
    Mask(Arc<MaskKey>),
    /// Expression values per *kept* position.
    KeptValues(Arc<CanonicalExpr>, Arc<MaskKey>),
    /// Materialized inner ORDER BY key columns (full table).
    InnerKeys(Criteria),
    /// The inner sort: dense codes + permutation over kept rows (Figure 8).
    DenseCodes(Criteria, Arc<MaskKey>),
    /// Merge sort tree over the unique codes (rank family, §4.4).
    CodeMst(Criteria, Arc<MaskKey>),
    /// Merge sort tree over the permutation array (selection, §4.5).
    PermMst(Criteria, Arc<MaskKey>),
    /// Value ids per kept position: the DISTINCT aggregates' and MODE's;
    /// with each id's occurrence list when the flag is set (the DISTINCT
    /// aggregates' exclusion correction).
    DistinctPrep(Arc<CanonicalExpr>, Arc<MaskKey>, bool),
    /// Previous-occurrence indices over those ids (Alg. 1) — read only by
    /// the distinct trees, so tree-free partitions never build it.
    PrevIdcs(Arc<CanonicalExpr>, Arc<MaskKey>),
    /// Merge sort tree over the previous-occurrence indices (§4.2).
    DistinctCountMst(Arc<CanonicalExpr>, Arc<MaskKey>),
    /// Annotated merge sort tree for SUM/AVG DISTINCT (§4.3).
    DistinctAggMst(Arc<CanonicalExpr>, Arc<MaskKey>, AggFlavor),
    /// MIN/MAX ordinal encoding of the values (all positions).
    OrdinalEnc(Arc<CanonicalExpr>),
    /// Fold index of a distributive aggregate's argument: a segment tree, or
    /// the prefix sums of [`SegFlavor::SumI64`]. (A frame's kept-row count
    /// has no key: the mask's remap answers it.)
    SegTree(Arc<CanonicalExpr>, Arc<MaskKey>, SegFlavor),
    /// 3-d range tree over tie-group ids (DENSE_RANK, §4.4).
    RangeTree(Criteria, Arc<MaskKey>),
    /// √-decomposition range mode index.
    ModeIndex(Arc<CanonicalExpr>, Arc<MaskKey>),
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

    /// The fold index of `cp`'s argument in `flavor`.
    pub(crate) fn seg_tree(cp: &CallPlan, flavor: SegFlavor) -> Self {
        ArtifactKey::SegTree(Arc::clone(value(cp)), Arc::clone(&cp.mask), flavor)
    }

    /// The MIN/MAX ordinal encoding of `cp`'s argument.
    pub(crate) fn ordinal_enc(cp: &CallPlan) -> Self {
        ArtifactKey::OrdinalEnc(Arc::clone(value(cp)))
    }

    /// The annotated tree of `cp`'s distinct aggregate in `flavor`.
    pub(crate) fn distinct_agg(cp: &CallPlan, flavor: AggFlavor) -> Self {
        ArtifactKey::DistinctAggMst(Arc::clone(value(cp)), Arc::clone(&cp.mask), flavor)
    }
}

/// The expression `cp` evaluates per position. An evaluator asking for an
/// artifact of a call that evaluates none is a dispatch bug.
fn value(cp: &CallPlan) -> &Arc<CanonicalExpr> {
    cp.value.as_ref().expect("the call evaluates an expression")
}

/// The explicit criterion `cp` sorts by, for the artifacts of its inner
/// sort. Frame-position order and classic LEAD/LAG sort nothing.
fn criteria(cp: &CallPlan) -> &Criteria {
    match &cp.order {
        Some(OrderKey::Keys(ks)) => ks,
        _ => unreachable!("only a call with an inner ORDER BY sorts"),
    }
}

type Payload = Arc<dyn Any + Send + Sync>;
/// A built artifact plus the bytes the cache charged to the budget governor
/// on its behalf (0 for seeded and self-governed artifacts) — released when
/// the cache is dropped.
type Slot = Arc<OnceLock<std::result::Result<(Payload, usize), Error>>>;

/// Heap footprint of a cached artifact, recorded at build time and charged
/// against the memory budget.
///
/// String heap data behind `Arc<str>` rows is counted once per owned
/// reference (see [`Column::bytes`]) — an upper bound that prices what
/// keeping the artifact alive keeps alive. `Arc`-shared ingredients are
/// attributed to the artifact that owns them.
pub(crate) trait ArtifactBytes {
    /// Heap bytes owned by this artifact.
    fn bytes_built(&self) -> usize;

    /// True when the artifact manages its own budget charges (a
    /// [`SpillableMst`] charges per residency transition, not per build) —
    /// the cache then records its footprint but does not charge it.
    fn governor_charged(&self) -> bool {
        false
    }
}

impl ArtifactBytes for Column {
    fn bytes_built(&self) -> usize {
        self.bytes()
    }
}

impl ArtifactBytes for Vec<usize> {
    fn bytes_built(&self) -> usize {
        self.len() * size_of::<usize>()
    }
}

impl ArtifactBytes for KeyColumns {
    fn bytes_built(&self) -> usize {
        self.bytes()
    }
}

impl ArtifactBytes for DenseCodes {
    fn bytes_built(&self) -> usize {
        (self.code.len()
            + self.group_min.len()
            + self.group_end.len()
            + self.group_id.len()
            + self.perm.len())
            * size_of::<usize>()
    }
}

impl<I: TreeIndex> ArtifactBytes for MergeSortTree<I> {
    fn bytes_built(&self) -> usize {
        self.arena_bytes()
    }
}

impl<I: TreeIndex, A: DistinctAggregate> ArtifactBytes for AnnotatedMst<I, A> {
    fn bytes_built(&self) -> usize {
        self.bytes()
    }
}

impl<M: Monoid> ArtifactBytes for SegTrees<M> {
    fn bytes_built(&self) -> usize {
        self.bytes()
    }
}

/// A floor under the bytes a call of `class` evaluated with `s` charges the
/// memory governor over `m` partition rows of which its mask keeps `kept`,
/// known before anything is built and read off the layouts above.
/// [`Strategy::Naive`] runs cacheless and charges nothing. Every other
/// strategy charges the mask's keep flags and, over the kept rows, what the
/// class's evaluators read whatever the argument's type: the [`DenseCodes`]
/// (five words a row) for percentiles and the rank family, the
/// [`DistinctPrepArt`] ids for COUNT(DISTINCT). [`Strategy::Mst`] adds
/// its merge sort tree, `tree_bytes`, and for COUNT(DISTINCT) the
/// previous-occurrence words the tree is built from. Kept values, whose
/// width is their type's, and the artifacts of every other class are left
/// out.
pub(crate) fn governed_floor(
    s: Strategy,
    class: CallClass,
    m: usize,
    kept: usize,
    tree_bytes: u64,
) -> u64 {
    const CODES: usize = 5 * size_of::<usize>();
    const ID: usize = size_of::<u32>();
    let (per_kept, tree) = match (s, class) {
        (Strategy::Naive, _) => return 0,
        (Strategy::Mst, CallClass::Percentile | CallClass::RankLike) => (CODES, tree_bytes),
        (_, CallClass::Percentile | CallClass::RankLike) => (CODES, 0),
        (Strategy::Mst, CallClass::CountDistinct) => (ID + size_of::<usize>(), tree_bytes),
        (_, CallClass::CountDistinct) => (ID, 0),
        _ => return 0,
    };
    (m * size_of::<bool>() + kept * per_kept) as u64 + tree
}

/// Internal atomic counters; snapshotted into the public [`CacheStats`].
#[derive(Debug, Default)]
pub(crate) struct AtomicStats {
    pub hits: AtomicU64,
    pub misses: AtomicU64,
    pub bytes_built: AtomicU64,
    pub inner_sorts: AtomicU64,
    pub mst_builds: AtomicU64,
    pub segtree_builds: AtomicU64,
    pub rangetree_builds: AtomicU64,
    pub modeindex_builds: AtomicU64,
}

impl AtomicStats {
    pub fn snapshot(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Relaxed),
            misses: self.misses.load(Relaxed),
            bytes_built: self.bytes_built.load(Relaxed),
            inner_sorts: self.inner_sorts.load(Relaxed),
            mst_builds: self.mst_builds.load(Relaxed),
            segtree_builds: self.segtree_builds.load(Relaxed),
            rangetree_builds: self.rangetree_builds.load(Relaxed),
            modeindex_builds: self.modeindex_builds.load(Relaxed),
        }
    }
}

/// An artifact whose resident bytes the governor can reclaim by parking it
/// in a spill file. Candidates register themselves ([`BudgetGovernor::register`])
/// and are tried coldest-first when a charge pushes residency over budget.
pub(crate) trait ParkCandidate: Send + Sync {
    /// Attempts to spill the artifact's resident bytes; returns how many
    /// bytes were released (0 when in use, already parked, or I/O failed).
    fn try_park(&self) -> usize;
    /// Logical clock value of the last checkout (LRU ordering).
    fn last_touch(&self) -> u64;
    /// The owning partition (eviction is LRU *by partition*: all of a cold
    /// partition's artifacts go before any of a warmer one's).
    fn partition(&self) -> u64;
}

/// The query-wide memory-budget governor: one per execution, shared by every
/// per-partition [`ArtifactCache`]. Tracks resident artifact bytes, evicts
/// cold spillable artifacts when a charge overflows the budget, and turns
/// unsatisfiable charges into [`Error::BudgetExceeded`] — never a panic.
///
/// With no budget configured every charge succeeds; the governor then only
/// keeps the resident/peak telemetry that [`SpillStats`] reports.
pub(crate) struct BudgetGovernor {
    budget: Option<u64>,
    resident: AtomicU64,
    peak: AtomicU64,
    /// Logical clock for LRU ordering; bumped per checkout.
    clock: AtomicU64,
    /// Partition-id well for the caches sharing this governor.
    partition_seq: AtomicU64,
    bytes_spilled: AtomicU64,
    evictions: AtomicU64,
    refaults: AtomicU64,
    refault_bytes: AtomicU64,
    registry: Mutex<Vec<Weak<dyn ParkCandidate>>>,
}

impl BudgetGovernor {
    pub fn new(budget: Option<u64>) -> Self {
        BudgetGovernor {
            budget,
            resident: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            partition_seq: AtomicU64::new(0),
            bytes_spilled: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            refaults: AtomicU64::new(0),
            refault_bytes: AtomicU64::new(0),
            registry: Mutex::new(Vec::new()),
        }
    }

    pub fn budget(&self) -> Option<u64> {
        self.budget
    }

    /// Next LRU clock value.
    pub fn tick(&self) -> u64 {
        self.clock.fetch_add(1, Relaxed) + 1
    }

    /// Next partition id (one per [`ArtifactCache`]).
    pub fn next_partition(&self) -> u64 {
        self.partition_seq.fetch_add(1, Relaxed)
    }

    /// Registers a spillable artifact as an eviction candidate.
    pub fn register(&self, candidate: Weak<dyn ParkCandidate>) {
        self.registry.lock().expect("governor registry poisoned").push(candidate);
    }

    /// Charges `bytes` of resident footprint. Over budget, cold candidates
    /// are parked LRU-by-partition; if residency still cannot fit, the
    /// charge is rolled back and [`Error::BudgetExceeded`] returned.
    pub fn charge(&self, bytes: u64) -> Result<()> {
        self.resident.fetch_add(bytes, Relaxed);
        if let Some(b) = self.budget {
            if self.resident.load(Relaxed) > b {
                self.evict_down_to(b);
                if self.resident.load(Relaxed) > b {
                    self.resident.fetch_sub(bytes, Relaxed);
                    return Err(Error::BudgetExceeded { requested: bytes, budget: b });
                }
            }
        }
        self.peak.fetch_max(self.resident.load(Relaxed), Relaxed);
        Ok(())
    }

    /// Returns `bytes` of resident footprint (artifact parked or dropped).
    pub fn release(&self, bytes: u64) {
        self.resident.fetch_sub(bytes, Relaxed);
    }

    /// Records a re-fault of `bytes` from a spill file.
    pub fn note_refault(&self, bytes: u64) {
        self.refaults.fetch_add(1, Relaxed);
        self.refault_bytes.fetch_add(bytes, Relaxed);
    }

    /// Records `bytes` actually written to spill files (out-of-core builds
    /// and first-time parks; re-parks of an already written slab are free
    /// and report 0).
    pub fn note_spill_write(&self, bytes: u64) {
        self.bytes_spilled.fetch_add(bytes, Relaxed);
    }

    /// Parks cold candidates until residency is at most `target`.
    ///
    /// The registry lock is released before any candidate is touched:
    /// parking takes per-candidate locks and may be re-entered from a build
    /// in progress, so holding the registry across it would invite
    /// deadlock. Candidates busy elsewhere simply fail their `try_lock` and
    /// are skipped.
    fn evict_down_to(&self, target: u64) {
        let candidates: Vec<Arc<dyn ParkCandidate>> = {
            let mut reg = self.registry.lock().expect("governor registry poisoned");
            reg.retain(|w| w.strong_count() > 0);
            reg.iter().filter_map(Weak::upgrade).collect()
        };
        // A partition is as warm as its hottest artifact: evict whole cold
        // partitions before touching any artifact of a warmer one.
        let mut partition_touch: FxHashMap<u64, u64> = FxHashMap::default();
        for c in &candidates {
            let t = partition_touch.entry(c.partition()).or_insert(0);
            *t = (*t).max(c.last_touch());
        }
        let mut ordered = candidates;
        ordered.sort_by_key(|c| (partition_touch[&c.partition()], c.last_touch()));
        for c in ordered {
            if self.resident.load(Relaxed) <= target {
                break;
            }
            if c.try_park() > 0 {
                self.evictions.fetch_add(1, Relaxed);
            }
        }
    }

    /// Spill telemetry for [`crate::ExecProfile`] / the append engine.
    pub fn snapshot(&self) -> SpillStats {
        SpillStats {
            budget: self.budget,
            bytes_spilled: self.bytes_spilled.load(Relaxed),
            evictions: self.evictions.load(Relaxed),
            refaults: self.refaults.load(Relaxed),
            refault_bytes: self.refault_bytes.load(Relaxed),
            peak_resident: self.peak.load(Relaxed),
            resident: self.resident.load(Relaxed),
        }
    }
}

/// Residency state of a [`SpillableMst`]: exactly one of `tree` (resident)
/// or `shell` + `arena` (parked) is the source of truth; the arena sticks
/// around after a re-fault so later parks are free.
struct SpillInner<I: TreeIndex> {
    tree: Option<Arc<MergeSortTree<I>>>,
    shell: Option<MstShell<I>>,
    arena: Option<SpillableArena<I>>,
}

/// A merge sort tree whose arena slab the budget governor can park in a
/// spill file and re-fault on demand — the cached form of every MST
/// artifact. Evaluators never see this type: the getters check the tree out
/// ([`SpillableMst::checkout`]) and hand them a plain resident
/// [`MergeSortTree`]; a checked-out tree cannot be parked until its last
/// probe-side reference drops.
///
/// Budget accounting is per residency transition (charge on build/re-fault,
/// release on park/drop), so the artifact is self-governed:
/// [`ArtifactBytes::governor_charged`] returns true and the cache does not
/// double-charge the build.
pub(crate) struct SpillableMst<I: TreeIndex> {
    inner: Mutex<SpillInner<I>>,
    /// Full arena footprint when resident, in bytes.
    bytes: usize,
    partition: u64,
    touch: AtomicU64,
    registered: AtomicBool,
    gov: Arc<BudgetGovernor>,
}

impl<I: TreeIndex> SpillableMst<I> {
    /// Builds the tree under the governor's budget. Trees that fit build
    /// in memory (resident, charged); trees whose arena alone would
    /// dominate the budget — or whose charge fails even after eviction —
    /// build out-of-core via [`MergeSortTree::build_spilled`] and start
    /// parked, charging only the (smaller) transient build footprint.
    pub fn build(
        values: &[I],
        params: MstParams,
        gov: &Arc<BudgetGovernor>,
        partition: u64,
    ) -> Result<Self> {
        let bytes = mst_arena_len(values.len(), params) * size_of::<I>();
        let oversized = gov.budget().is_some_and(|b| (bytes as u64).saturating_mul(2) > b);
        let inner = if !oversized && gov.charge(bytes as u64).is_ok() {
            SpillInner {
                tree: Some(Arc::new(MergeSortTree::<I>::build(values, params))),
                shell: None,
                arena: None,
            }
        } else {
            // Out-of-core: charge the build's transient buffers, stream
            // the arena to disk, release the transient charge. The tree is
            // born parked; the first checkout faults it in (and only then
            // charges the full arena).
            let transient = (mst_spill_build_len(values.len(), params) * size_of::<I>()) as u64;
            gov.charge(transient)?;
            let built = MergeSortTree::<I>::build_spilled(values, params);
            gov.release(transient);
            let (shell, arena) = built.map_err(|e| Error::Spill(e.to_string()))?;
            gov.note_spill_write(arena.bytes_written());
            SpillInner { tree: None, shell: Some(shell), arena: Some(arena) }
        };
        Ok(SpillableMst {
            inner: Mutex::new(inner),
            bytes,
            partition,
            touch: AtomicU64::new(gov.tick()),
            registered: AtomicBool::new(false),
            gov: Arc::clone(gov),
        })
    }

    /// Registers the artifact as an eviction candidate (idempotent; needs
    /// the `Arc` the cache stores, hence not done in `build`).
    pub fn register(this: &Arc<Self>) {
        if !this.registered.swap(true, Relaxed) {
            let weak: Weak<dyn ParkCandidate> = Arc::downgrade(this) as Weak<dyn ParkCandidate>;
            this.gov.register(weak);
        }
    }

    /// The resident tree, re-faulting it from the spill file if parked.
    /// Fails with [`Error::BudgetExceeded`] when the arena cannot be made
    /// resident even after evicting everything cold.
    pub fn checkout(&self) -> Result<Arc<MergeSortTree<I>>> {
        self.touch.store(self.gov.tick(), Relaxed);
        let mut inner = self.inner.lock().expect("spillable tree poisoned");
        if let Some(tree) = &inner.tree {
            return Ok(Arc::clone(tree));
        }
        // Charging while holding our own lock is safe: eviction only
        // `try_lock`s candidates, so it skips us instead of deadlocking.
        self.gov.charge(self.bytes as u64)?;
        let arena = inner.arena.as_mut().expect("parked tree lost its arena");
        let slab = match arena.fault() {
            Ok(slab) => slab,
            Err(e) => {
                self.gov.release(self.bytes as u64);
                return Err(Error::Spill(e.to_string()));
            }
        };
        self.gov.note_refault(self.bytes as u64);
        let shell = inner.shell.take().expect("parked tree lost its shell");
        let tree = Arc::new(MergeSortTree::from_shell(shell, slab));
        inner.tree = Some(Arc::clone(&tree));
        Ok(tree)
    }
}

impl<I: TreeIndex> ParkCandidate for SpillableMst<I> {
    fn try_park(&self) -> usize {
        let Ok(mut inner) = self.inner.try_lock() else { return 0 };
        let Some(tree) = inner.tree.take() else { return 0 };
        let tree = match Arc::try_unwrap(tree) {
            Ok(tree) => tree,
            Err(shared) => {
                // Checked out: a probe still holds the tree.
                inner.tree = Some(shared);
                return 0;
            }
        };
        let (shell, slab) = tree.into_shell();
        if inner.arena.is_none() {
            inner.arena = Some(SpillableArena::new(shell.segments()));
        }
        let arena = inner.arena.as_mut().expect("arena just ensured");
        let before = arena.bytes_written();
        match arena.park(&slab) {
            Ok(_) => {
                self.gov.note_spill_write(arena.bytes_written() - before);
                inner.shell = Some(shell);
                self.gov.release(self.bytes as u64);
                self.bytes
            }
            Err(_) => {
                // Spill I/O failed: stay resident, release nothing. The
                // charge that triggered eviction will surface the pressure
                // as BudgetExceeded if nothing else can be parked.
                inner.tree = Some(Arc::new(MergeSortTree::from_shell(shell, slab)));
                0
            }
        }
    }

    fn last_touch(&self) -> u64 {
        self.touch.load(Relaxed)
    }

    fn partition(&self) -> u64 {
        self.partition
    }
}

impl<I: TreeIndex> ArtifactBytes for SpillableMst<I> {
    fn bytes_built(&self) -> usize {
        self.bytes
    }

    fn governor_charged(&self) -> bool {
        true
    }
}

impl<I: TreeIndex> Drop for SpillableMst<I> {
    fn drop(&mut self) {
        let resident = self.inner.get_mut().map(|inner| inner.tree.is_some()).unwrap_or(false);
        if resident {
            self.gov.release(self.bytes as u64);
        }
    }
}

/// What a build recipe hands the cache.
pub(crate) enum Built<T> {
    /// A freshly built artifact: the cache takes ownership, records its
    /// footprint and charges it to the budget.
    New(T),
    /// The recipe's product already exists as another cached artifact (kept
    /// values under a mask that drops nothing *are* the values). The entry
    /// holds that artifact's `Arc` and is recorded and charged as 0 bytes.
    Shared(Arc<T>),
}

thread_local! {
    /// Artifact builds running on this thread. A build that starts while
    /// another runs is one of its ingredients, timed as part of it.
    static BUILDS_RUNNING: Cell<usize> = const { Cell::new(0) };
}

/// Adds the time it is alive to `total`, unless it starts inside another
/// artifact build on this thread.
struct BuildTimer<'a> {
    total: &'a AtomicU64,
    start: Option<Instant>,
}

impl<'a> BuildTimer<'a> {
    fn start(total: &'a AtomicU64) -> Self {
        let running = BUILDS_RUNNING.get();
        BUILDS_RUNNING.set(running + 1);
        BuildTimer { total, start: (running == 0).then(Instant::now) }
    }
}

impl Drop for BuildTimer<'_> {
    fn drop(&mut self) {
        BUILDS_RUNNING.set(BUILDS_RUNNING.get() - 1);
        if let Some(start) = self.start {
            self.total.fetch_add(start.elapsed().as_nanos() as u64, Relaxed);
        }
    }
}

/// The per-partition artifact cache.
pub(crate) struct ArtifactCache {
    slots: Mutex<FxHashMap<ArtifactKey, Slot>>,
    /// `(label, bytes)` per slot actually built (seeded slots excluded).
    footprints: Mutex<Vec<(&'static str, usize)>>,
    stats: AtomicStats,
    /// Nanoseconds spent in builds no other build encloses.
    build_nanos: AtomicU64,
    /// The execution's shared budget governor.
    gov: Arc<BudgetGovernor>,
    /// This cache's partition id under the governor (eviction order).
    partition: u64,
}

impl ArtifactCache {
    pub fn new(gov: Arc<BudgetGovernor>) -> Self {
        let partition = gov.next_partition();
        ArtifactCache {
            slots: Mutex::new(FxHashMap::default()),
            footprints: Mutex::new(Vec::new()),
            stats: AtomicStats::default(),
            build_nanos: AtomicU64::new(0),
            gov,
            partition,
        }
    }

    pub fn stats(&self) -> &AtomicStats {
        &self.stats
    }

    /// Time spent building this cache's artifacts, each ingredient inside
    /// the build that requested it.
    pub fn build_time(&self) -> Duration {
        Duration::from_nanos(self.build_nanos.load(Relaxed))
    }

    /// The execution-wide budget governor this cache charges builds to.
    pub fn governor(&self) -> &Arc<BudgetGovernor> {
        &self.gov
    }

    /// This cache's partition id under the governor.
    pub fn partition(&self) -> u64 {
        self.partition
    }

    /// Drains the per-slot build footprints recorded so far.
    pub fn take_footprints(&self) -> Vec<(&'static str, usize)> {
        std::mem::take(&mut *self.footprints.lock().expect("artifact cache poisoned"))
    }

    /// Pre-populates a slot with an already-built artifact (the executor
    /// seeds the hoisted ORDER BY key columns this way). Counts as neither a
    /// hit nor a miss; later requests count as hits.
    pub fn seed<T: Any + Send + Sync>(&self, key: ArtifactKey, value: Arc<T>) {
        let slot: Slot = Arc::new(OnceLock::new());
        let _ = slot.set(Ok((value as Payload, 0)));
        self.slots.lock().expect("artifact cache poisoned").insert(key, slot);
    }

    /// Returns the artifact for `key`, building it with `build` on first
    /// request. Concurrent requesters block on the same slot; the build runs
    /// outside the map lock, so builds of *different* keys — including a
    /// build requesting its own ingredients — never contend. A miss moves
    /// `key` into the slot map; a hit drops it. The build is timed
    /// ([`Self::build_time`]) unless another build on this thread encloses
    /// it.
    pub fn get_or_build<T, F>(&self, key: ArtifactKey, build: F) -> Result<Arc<T>>
    where
        T: Any + Send + Sync + ArtifactBytes,
        F: FnOnce() -> Result<Built<T>>,
    {
        let label = key.label();
        let slot = Arc::clone(
            self.slots
                .lock()
                .expect("artifact cache poisoned")
                .entry(key)
                .or_insert_with(|| Arc::new(OnceLock::new())),
        );
        let mut fresh = false;
        let res = slot.get_or_init(|| {
            fresh = true;
            let _timer = BuildTimer::start(&self.build_nanos);
            build().and_then(|built| {
                // A shared product is the other artifact's `Arc`: that
                // artifact owns and is charged for the bytes, this entry
                // records 0.
                let (v, bytes) = match built {
                    Built::New(v) => {
                        let bytes = v.bytes_built();
                        (Arc::new(v), bytes)
                    }
                    Built::Shared(v) => (v, 0),
                };
                self.stats.bytes_built.fetch_add(bytes as u64, Relaxed);
                self.footprints.lock().expect("artifact cache poisoned").push((label, bytes));
                // Self-governed artifacts charge per residency transition;
                // everything else is charged for its lifetime here. A failed
                // charge is cached like any build error: the recipe fails
                // identically for every requester.
                let charged = if v.governor_charged() {
                    0
                } else {
                    self.gov.charge(bytes as u64)?;
                    bytes
                };
                Ok((v as Payload, charged))
            })
        });
        if fresh {
            self.stats.misses.fetch_add(1, Relaxed);
        } else {
            self.stats.hits.fetch_add(1, Relaxed);
        }
        match res {
            Ok((p, _)) => Ok(Arc::clone(p)
                .downcast::<T>()
                .expect("artifact payload type is fixed by its key")),
            Err(e) => Err(e.clone()),
        }
    }
}

/// The one place a cache's charges are released: every cache lives for one
/// partition's evaluation and is dropped with it.
impl Drop for ArtifactCache {
    fn drop(&mut self) {
        // Never panic in drop (we may already be unwinding): a poisoned
        // map simply forfeits its releases.
        let Ok(slots) = self.slots.get_mut() else { return };
        for slot in slots.values() {
            if let Some(Ok((_, charged))) = slot.get() {
                self.gov.release(*charged as u64);
            }
        }
    }
}

/// Kept-row mask artifact: which positions participate, plus the remapping
/// machinery every kept-row structure shares (§4.7's index remapping).
pub(crate) struct MaskArtifact {
    /// Per partition position: passes FILTER ∧ the family's NULL screen.
    pub keep: Vec<bool>,
    /// Position ↔ kept-index remapping.
    pub remap: Remap,
    /// Kept index → table row. Left empty when nothing is dropped: the list
    /// would equal the partition's own rows, which [`Self::kept_rows`] hands
    /// back instead.
    kept_rows: Vec<usize>,
}

impl MaskArtifact {
    /// The mask of a partition whose positions map to table `rows`, from its
    /// keep flags.
    pub fn build(keep: Vec<bool>, rows: &[usize]) -> Self {
        let remap = Remap::new(&keep);
        let kept_rows = if remap.is_identity() {
            Vec::new()
        } else {
            (0..remap.kept_len()).map(|k| rows[remap.to_position(k)]).collect()
        };
        MaskArtifact { keep, remap, kept_rows }
    }

    pub fn kept_len(&self) -> usize {
        self.remap.kept_len()
    }

    /// How many of the positions `pieces` are kept — a frame's participating
    /// rows, in O(1) per piece.
    pub fn kept_in(&self, pieces: &RangeSet) -> usize {
        self.remap.range_set(pieces).count()
    }

    /// Kept index → table row. `rows` is the row list the mask was built
    /// over (the artifact outlives any borrow of it inside the cache, so
    /// readers pass it back in).
    pub fn kept_rows<'a>(&'a self, rows: &'a [usize]) -> &'a [usize] {
        debug_assert_eq!(rows.len(), self.keep.len());
        if self.remap.is_identity() {
            rows
        } else {
            &self.kept_rows
        }
    }
}

impl ArtifactBytes for MaskArtifact {
    fn bytes_built(&self) -> usize {
        self.keep.len() + self.remap.bytes() + self.kept_rows.len() * size_of::<usize>()
    }
}

/// The value ids of the DISTINCT aggregates (§4.2) and MODE: each kept
/// position's value as its code in a [`crate::dictionary::Dictionary`] —
/// all the tree-free strategies read. The previous-occurrence indices only
/// the trees consume are an artifact of their own ([`Ctx::prev_idcs_art`]).
pub(crate) struct DistinctPrepArt {
    /// Value id per kept position, `0..distinct` in first-appearance order.
    pub ids: Vec<u32>,
    pub distinct: usize,
    /// Kept values (payloads / exclusion corrections). `Arc`-shared with the
    /// kept-values artifact, which is the one charged for them.
    pub values: Arc<Column>,
    /// Id → ascending kept positions ([`Ctx::occurrences`]), for the
    /// DISTINCT aggregates only.
    pub occurrences: Vec<Vec<usize>>,
}

impl DistinctPrepArt {
    /// Shifted previous-occurrence index per kept position (Algorithm 1).
    pub fn prev_idcs(&self) -> Vec<usize> {
        prev_idcs_dense(self.ids.iter().map(|&id| id as usize), self.distinct)
    }
}

impl ArtifactBytes for DistinctPrepArt {
    fn bytes_built(&self) -> usize {
        self.ids.len() * size_of::<u32>() + occurrence_bytes(&self.occurrences)
    }
}

fn occurrence_bytes(occurrences: &[Vec<usize>]) -> usize {
    occurrences.iter().map(|v| v.len() * size_of::<usize>()).sum()
}

/// DENSE_RANK artifact (§4.4): the 3-d counter over the kept rows' `(tie
/// group, its previous occurrence)` points — the range tree, or the points
/// themselves for a scan.
pub(crate) struct DenseRankArt<C> {
    pub counter: C,
    /// Tie group → ascending kept positions ([`Ctx::occurrences`]).
    pub occurrences: Vec<Vec<usize>>,
}

impl ArtifactBytes for DenseRankArt<RangeTree3> {
    fn bytes_built(&self) -> usize {
        self.counter.bytes() + occurrence_bytes(&self.occurrences)
    }
}

/// MODE artifact: dense value ids (in value order) plus the index over them
/// — the √-decomposition, or the ids themselves for a scan.
pub(crate) struct ModeArt<X> {
    /// id → value (ascending by `sql_cmp`).
    pub decode: Column,
    pub index: X,
}

impl ArtifactBytes for ModeArt<RangeModeIndex> {
    fn bytes_built(&self) -> usize {
        self.decode.bytes() + self.index.bytes()
    }
}

/// Positions, codes or prevIdcs as a tree's entries: exact, because the
/// pipeline refuses a partition whose positions do not fit `u32`.
pub(crate) fn narrow(v: &[usize]) -> Vec<u32> {
    v.iter().map(|&x| x as u32).collect()
}

/// The artifact getters. Each takes the requesting call's [`CallPlan`] and
/// makes its own key from the plan's sources when asked; its ingredients'
/// getters do the same.
impl Ctx<'_> {
    /// The artifact under `key`: the cache's, built on first request — or,
    /// for a naive call, built now and handed over, remembered in `own` if
    /// the call keeps one for it.
    fn artifact_in<T, F>(
        &self,
        key: ArtifactKey,
        own: Option<&OnceLock<Arc<T>>>,
        build: F,
    ) -> Result<Arc<T>>
    where
        T: Any + Send + Sync + ArtifactBytes,
        F: FnOnce() -> Result<Built<T>>,
    {
        match (self.cache, own.and_then(OnceLock::get)) {
            (Some(cache), _) => cache.get_or_build(key, build),
            (None, Some(held)) => Ok(Arc::clone(held)),
            (None, None) => {
                let built = match build()? {
                    Built::New(v) => Arc::new(v),
                    Built::Shared(v) => v,
                };
                Ok(match own {
                    Some(own) => Arc::clone(own.get_or_init(|| built)),
                    None => built,
                })
            }
        }
    }

    /// [`Self::artifact_in`] for a recipe that always builds anew.
    pub(crate) fn artifact<T, F>(&self, key: ArtifactKey, build: F) -> Result<Arc<T>>
    where
        T: Any + Send + Sync + ArtifactBytes,
        F: FnOnce() -> Result<T>,
    {
        self.artifact_in(key, None, || build().map(Built::New))
    }

    /// Counts one build of a cached artifact kind (a naive call keeps no
    /// statistics).
    pub(crate) fn count_build(&self, counter: impl FnOnce(&AtomicStats) -> &AtomicU64) {
        if let Some(cache) = self.cache {
            counter(cache.stats()).fetch_add(1, Relaxed);
        }
    }

    /// Expression values per partition position ([`ArtifactKey::Values`]), a
    /// typed column.
    pub(crate) fn values_art(&self, cp: &CallPlan) -> Result<Arc<Column>> {
        let e = value(cp);
        self.artifact_in(ArtifactKey::Values(Arc::clone(e)), Some(&self.own_values), || {
            self.eval_positions(&e.to_expr()).map(Built::New)
        })
    }

    /// The kept-row mask artifact ([`ArtifactKey::Mask`]).
    pub(crate) fn mask_art(&self, cp: &CallPlan) -> Result<Arc<MaskArtifact>> {
        let mk = &cp.mask;
        self.artifact_in(ArtifactKey::Mask(Arc::clone(mk)), Some(&self.own_mask), || {
            let m = self.m();
            let mut keep = match &mk.filter {
                None => vec![true; m],
                Some(f) => {
                    let bound = f.to_expr().bind(self.table)?;
                    crate::vm::mask(&bound, self.table, crate::vm::RowSel::Rows(self.rows))?
                }
            };
            if let Some(screen) = &mk.screen {
                // What a call screens for NULLs is what it evaluates.
                debug_assert_eq!(cp.value.as_deref(), Some(screen));
                // An empty validity drops nothing.
                let vals = self.values_art(cp)?;
                for (k, &ok) in keep.iter_mut().zip(vals.validity()) {
                    *k &= ok;
                }
            }
            Ok(Built::New(MaskArtifact::build(keep, self.rows)))
        })
    }

    /// Expression values per *kept* position ([`ArtifactKey::KeptValues`]).
    /// Under a mask that drops nothing this is the values artifact itself.
    pub(crate) fn kept_values_art(&self, cp: &CallPlan) -> Result<Arc<Column>> {
        let key = ArtifactKey::KeptValues(Arc::clone(value(cp)), Arc::clone(&cp.mask));
        self.artifact_in(key, None, || {
            let values = self.values_art(cp)?;
            let mask = self.mask_art(cp)?;
            if mask.kept_len() == values.len() {
                return Ok(Built::Shared(values));
            }
            let kept = (0..mask.kept_len()).map(|k| Some(mask.remap.to_position(k)));
            Ok(Built::New(values.gather(kept)))
        })
    }

    /// Materialized inner ORDER BY key columns (full table; independent of
    /// any mask, so structurally equal criteria share one evaluation —
    /// hoisted per query, and a cache is seeded with them).
    pub(crate) fn inner_keys_art(&self, cp: &CallPlan) -> Result<Arc<KeyColumns>> {
        let ks = criteria(cp);
        if self.cache.is_none() {
            if let Some(kc) = self.hoisted.get(ks) {
                return Ok(Arc::clone(kc));
            }
        }
        self.artifact(ArtifactKey::InnerKeys(Arc::clone(ks)), || {
            KeyColumns::evaluate(self.table, &sort_keys_of(ks))
        })
    }

    /// The inner sort: dense codes over the kept rows (Figure 8). Every
    /// cache miss here is one actual sort — the profile's `inner_sorts`.
    pub(crate) fn dense_codes_art(&self, cp: &CallPlan) -> Result<Arc<DenseCodes>> {
        let key = ArtifactKey::DenseCodes(Arc::clone(criteria(cp)), Arc::clone(&cp.mask));
        self.artifact(key, || {
            let kc = self.inner_keys_art(cp)?;
            let mask = self.mask_art(cp)?;
            self.count_build(|s| &s.inner_sorts);
            Ok(dense_codes_for(&kc, mask.kept_rows(self.rows), self.parallel))
        })
    }

    /// A merge sort tree over `values()`, cached spillable under `key` and
    /// checked out resident.
    fn mst(
        &self,
        key: ArtifactKey,
        values: impl FnOnce() -> Result<Vec<u32>>,
    ) -> Result<Arc<MergeSortTree<u32>>> {
        let cache = self.cache.expect("only the tree arm builds merge sort trees");
        let sp = cache.get_or_build::<SpillableMst<u32>, _>(key, || {
            let values = values()?;
            self.count_build(|s| &s.mst_builds);
            SpillableMst::build(
                &values,
                tree_params(self.parallel),
                cache.governor(),
                cache.partition(),
            )
            .map(Built::New)
        })?;
        SpillableMst::register(&sp);
        sp.checkout()
    }

    /// Merge sort tree over the unique codes (rank family / framed LEAD),
    /// [`ArtifactKey::CodeMst`].
    pub(crate) fn code_mst(&self, cp: &CallPlan) -> Result<Arc<MergeSortTree<u32>>> {
        let key = ArtifactKey::CodeMst(Arc::clone(criteria(cp)), Arc::clone(&cp.mask));
        self.mst(key, || Ok(narrow(&self.dense_codes_art(cp)?.code)))
    }

    /// Merge sort tree over the inner sort's permutation array (selection
    /// family), [`ArtifactKey::PermMst`].
    pub(crate) fn perm_mst(&self, cp: &CallPlan) -> Result<Arc<MergeSortTree<u32>>> {
        let key = ArtifactKey::PermMst(Arc::clone(criteria(cp)), Arc::clone(&cp.mask));
        self.mst(key, || Ok(narrow(&self.dense_codes_art(cp)?.perm)))
    }

    /// Each id's kept positions in ascending order, for the exclusion
    /// correction ([`Ctx::hole_only_ids`]); none unless a frame excludes.
    fn occurrences(&self, ids: impl Iterator<Item = usize>, distinct: usize) -> Vec<Vec<usize>> {
        let mut occurrences = Vec::new();
        if self.frames.has_exclusion() {
            occurrences = vec![Vec::new(); distinct];
            for (k, id) in ids.enumerate() {
                occurrences[id].push(k);
            }
        }
        occurrences
    }

    /// Value ids and, when `occurrences` is asked for and a frame excludes,
    /// their occurrence lists ([`ArtifactKey::DistinctPrep`]): the DISTINCT
    /// aggregates' hole correction reads them, MODE never does.
    pub(crate) fn distinct_prep_art(
        &self,
        cp: &CallPlan,
        occurrences: bool,
    ) -> Result<Arc<DistinctPrepArt>> {
        let lists = occurrences && self.frames.has_exclusion();
        let key = ArtifactKey::DistinctPrep(Arc::clone(value(cp)), Arc::clone(&cp.mask), lists);
        self.artifact(key, || {
            let values = self.kept_values_art(cp)?;
            let (ids, distinct) = codes_of(&values);
            let occurrences = if lists {
                self.occurrences(ids.iter().map(|&id| id as usize), distinct)
            } else {
                Vec::new()
            };
            Ok(DistinctPrepArt { ids, distinct, values, occurrences })
        })
    }

    /// Shifted previous-occurrence index per kept position (Algorithm 1), in
    /// `usize` (widened to the partition's tree index by the tree builders —
    /// its only readers), [`ArtifactKey::PrevIdcs`].
    pub(crate) fn prev_idcs_art(&self, cp: &CallPlan) -> Result<Arc<Vec<usize>>> {
        let key = ArtifactKey::PrevIdcs(Arc::clone(value(cp)), Arc::clone(&cp.mask));
        self.artifact(key, || Ok(self.distinct_prep_art(cp, true)?.prev_idcs()))
    }

    /// Merge sort tree over the previous-occurrence indices (COUNT DISTINCT),
    /// [`ArtifactKey::DistinctCountMst`].
    pub(crate) fn distinct_count_mst(&self, cp: &CallPlan) -> Result<Arc<MergeSortTree<u32>>> {
        let key = ArtifactKey::DistinctCountMst(Arc::clone(value(cp)), Arc::clone(&cp.mask));
        self.mst(key, || Ok(narrow(&self.prev_idcs_art(cp)?)))
    }

    /// DENSE_RANK's counter over tie-group ids: `index` makes it from each
    /// kept position's tie group and that group's shifted previous
    /// occurrence.
    pub(crate) fn dense_rank_parts<'d, C>(
        &self,
        dc: &'d DenseCodes,
        index: impl FnOnce(&'d [usize], Vec<usize>) -> C,
    ) -> DenseRankArt<C> {
        let prev = prev_idcs_dense(dc.group_id.iter().copied(), dc.num_groups);
        let occurrences = self.occurrences(dc.group_id.iter().copied(), dc.num_groups);
        DenseRankArt { counter: index(&dc.group_id, prev), occurrences }
    }

    /// DENSE_RANK's 3-d range tree, [`ArtifactKey::RangeTree`].
    pub(crate) fn range_tree_art(&self, cp: &CallPlan) -> Result<Arc<DenseRankArt<RangeTree3>>> {
        let key = ArtifactKey::RangeTree(Arc::clone(criteria(cp)), Arc::clone(&cp.mask));
        self.artifact(key, || {
            let dc = self.dense_codes_art(cp)?;
            self.count_build(|s| &s.rangetree_builds);
            Ok(self.dense_rank_parts(&dc, |gids, prev| {
                RangeTree3::build(&narrow(gids), &narrow(&prev), self.parallel)
            }))
        })
    }

    /// MODE's decode table and index: `index` makes it from the kept rows'
    /// value ids renumbered in value order and their number.
    pub(crate) fn mode_parts<X>(
        &self,
        cp: &CallPlan,
        index: impl FnOnce(Vec<u32>, usize) -> X,
    ) -> Result<ModeArt<X>> {
        let prep = self.distinct_prep_art(cp, false)?;
        // Ids ascend with sql_cmp, so the smallest-id tie-break picks the
        // smallest value: one sort of each id's first position.
        let mut firsts: Vec<usize> = Vec::with_capacity(prep.distinct);
        for (k, &id) in prep.ids.iter().enumerate() {
            if id as usize == firsts.len() {
                firsts.push(k);
            }
        }
        firsts.sort_by(|&a, &b| prep.values.cmp_rows(a, b));
        let mut rank = vec![0u32; prep.distinct];
        for (r, &k) in firsts.iter().enumerate() {
            rank[prep.ids[k] as usize] = r as u32;
        }
        let index = index(prep.ids.iter().map(|&id| rank[id as usize]).collect(), prep.distinct);
        Ok(ModeArt { decode: prep.values.gather(firsts.into_iter().map(Some)), index })
    }

    /// The MODE decode table and √-decomposition index,
    /// [`ArtifactKey::ModeIndex`].
    pub(crate) fn mode_art(&self, cp: &CallPlan) -> Result<Arc<ModeArt<RangeModeIndex>>> {
        let key = ArtifactKey::ModeIndex(Arc::clone(value(cp)), Arc::clone(&cp.mask));
        self.artifact(key, || {
            self.count_build(|s| &s.modeindex_builds);
            self.mode_parts(cp, |ids, u| RangeModeIndex::build(&ids, u))
        })
    }
}
