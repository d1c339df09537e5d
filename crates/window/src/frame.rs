//! Window frame specification and resolution (§2.2, §4.7).
//!
//! Frames support all of SQL:2011 plus the paper's requirements:
//!
//! * ROWS / RANGE / GROUPS modes (GROUPS is a SQL:2011 feature the paper does
//!   not discuss; it falls out of the peer-group machinery for free),
//! * UNBOUNDED / offset / CURRENT ROW bounds where offsets are arbitrary
//!   per-row *expressions* — the stock-order example of §2.2 and the
//!   non-monotonic frames of §6.5 need this,
//! * frame exclusion (EXCLUDE NO OTHERS / CURRENT ROW / GROUP / TIES), which
//!   turns a frame into at most three contiguous pieces (§4.7).
//!
//! Resolution happens once per partition ([`resolve_frames`]), yielding
//! per-row `[start, end)` bounds in *partition position* space plus exclusion
//! holes. One loop serves all three modes: the bound match, offset evaluation
//! and the error arms are written once, and a mode says only where
//! `CURRENT ROW` and "`off` units before / after row `i`" lie — ROWS by the
//! row index, GROUPS by the group table, RANGE by a search over the typed
//! ORDER BY keys that gallops out from the previous row's answer. A
//! non-literal offset expression is compiled once per partition; compiling it
//! once per query would change `resolve_frames`' signature, which the
//! benchmark calls.

use crate::error::{Error, Result};
use crate::expr::{BoundExpr, Expr};
use crate::order::{peer_bounds, KeyColumns, RangeKey, RangeKeys};
use crate::table::Table;
use crate::value::Value;
use crate::vm;
use holistic_core::cursor::gallop_partition_point;
use holistic_core::RangeSet;
use std::cmp::Ordering;

/// How frame offsets are interpreted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameMode {
    /// Physical row offsets.
    Rows,
    /// Logical value offsets over a single numeric ORDER BY key.
    Range,
    /// Peer-group offsets.
    Groups,
}

/// One frame boundary.
#[derive(Debug, Clone)]
pub enum FrameBound {
    /// From the partition start.
    UnboundedPreceding,
    /// `expr PRECEDING` (per-row evaluated, must be non-negative).
    Preceding(Expr),
    /// The current row (peer group in RANGE/GROUPS modes).
    CurrentRow,
    /// `expr FOLLOWING`.
    Following(Expr),
    /// To the partition end.
    UnboundedFollowing,
}

/// Frame exclusion clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FrameExclusion {
    /// Keep everything (default).
    #[default]
    NoOthers,
    /// Drop the current row.
    CurrentRow,
    /// Drop the current row and its peers.
    Group,
    /// Drop the peers but keep the current row.
    Ties,
}

/// A complete frame clause.
#[derive(Debug, Clone)]
pub struct FrameSpec {
    /// Offset interpretation.
    pub mode: FrameMode,
    /// Lower bound.
    pub start: FrameBound,
    /// Upper bound.
    pub end: FrameBound,
    /// Exclusion clause.
    pub exclusion: FrameExclusion,
}

impl FrameSpec {
    /// `ROWS BETWEEN start AND end`.
    pub fn rows(start: FrameBound, end: FrameBound) -> Self {
        FrameSpec { mode: FrameMode::Rows, start, end, exclusion: FrameExclusion::NoOthers }
    }

    /// `RANGE BETWEEN start AND end`.
    pub fn range(start: FrameBound, end: FrameBound) -> Self {
        FrameSpec { mode: FrameMode::Range, start, end, exclusion: FrameExclusion::NoOthers }
    }

    /// `GROUPS BETWEEN start AND end`.
    pub fn groups(start: FrameBound, end: FrameBound) -> Self {
        FrameSpec { mode: FrameMode::Groups, start, end, exclusion: FrameExclusion::NoOthers }
    }

    /// SQL's default frame: `RANGE BETWEEN UNBOUNDED PRECEDING AND CURRENT
    /// ROW` (the running frame of §6.4's closing discussion).
    pub fn default_frame() -> Self {
        FrameSpec::range(FrameBound::UnboundedPreceding, FrameBound::CurrentRow)
    }

    /// The whole partition.
    pub fn whole_partition() -> Self {
        FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::UnboundedFollowing)
    }

    /// Attaches an exclusion clause.
    pub fn exclude(mut self, e: FrameExclusion) -> Self {
        self.exclusion = e;
        self
    }
}

/// Per-row resolved frames of one sorted partition.
pub struct ResolvedFrames {
    /// `[start, end)` in partition positions, one per row. Invariant, kept by
    /// every mode of [`resolve_frames`] and checked where it returns:
    /// `start <= end <= m` (the partition's size) — an empty frame is
    /// `start == end`, never a reversed or overhanging pair. Readers index
    /// per-position arrays with these bounds unclamped (the incremental
    /// COUNT(DISTINCT) slides over them as they are when the call's mask
    /// drops nothing).
    pub bounds: Vec<(usize, usize)>,
    /// Exclusion clause in force.
    pub exclusion: FrameExclusion,
    /// Peer group start per position (under the window ORDER BY).
    pub peer_start: Vec<usize>,
    /// Peer group end (exclusive) per position.
    pub peer_end: Vec<usize>,
}

/// Up to two exclusion holes, stack-allocated: `holes()` runs per output row
/// inside the probe loops, so it must not heap-allocate.
#[derive(Debug, Clone, Copy, Default)]
pub struct Holes {
    arr: [(usize, usize); 2],
    len: u8,
}

impl Holes {
    /// Appends a hole; empty holes are dropped.
    fn push(&mut self, a: usize, b: usize) {
        if a < b {
            self.arr[self.len as usize] = (a, b);
            self.len += 1;
        }
    }

    /// The holes as a slice.
    pub fn as_slice(&self) -> &[(usize, usize)] {
        &self.arr[..self.len as usize]
    }

    /// Iterates over the holes.
    pub fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.as_slice().iter().copied()
    }
}

impl ResolvedFrames {
    /// The exclusion holes of row `i` (positions to drop from its frame).
    pub fn holes(&self, i: usize) -> Holes {
        let mut h = Holes::default();
        match self.exclusion {
            FrameExclusion::NoOthers => {}
            FrameExclusion::CurrentRow => h.push(i, i + 1),
            FrameExclusion::Group => h.push(self.peer_start[i], self.peer_end[i]),
            FrameExclusion::Ties => {
                h.push(self.peer_start[i], i);
                h.push(i + 1, self.peer_end[i]);
            }
        }
        h
    }

    /// The frame of row `i` as up to three disjoint ranges. Runs per row in
    /// every probe loop, so a frame without holes skips the hole arithmetic.
    pub fn range_set(&self, i: usize) -> RangeSet {
        let (a, b) = self.bounds[i];
        match self.exclusion {
            FrameExclusion::NoOthers => RangeSet::single(a, b),
            _ => RangeSet::frame_minus_holes(a, b, self.holes(i).as_slice()),
        }
    }

    /// True when no row's frame has exclusion holes.
    pub fn has_exclusion(&self) -> bool {
        self.exclusion != FrameExclusion::NoOthers
    }
}

/// A validated, non-negative frame offset. The integer representation is
/// kept exact: converting to f64 would silently collapse offsets beyond
/// 2^53, and casting to usize would saturate huge values into overflow
/// territory for the `i + off` frame arithmetic.
#[derive(Debug, Clone, Copy)]
enum Offset {
    /// Exact integer offset (>= 0).
    Int(i64),
    /// Finite float offset (>= 0.0).
    Float(f64),
}

impl Offset {
    /// Validates one evaluated offset: the one definition of what a frame
    /// offset may be, for literals, VM blocks and the per-row interpreter.
    fn new(v: &Value) -> Result<Offset> {
        match v {
            Value::Int(x) if *x >= 0 => Ok(Offset::Int(*x)),
            Value::Float(x) if *x >= 0.0 && x.is_finite() => Ok(Offset::Float(*x)),
            Value::Int(_) | Value::Float(_) => {
                Err(Error::InvalidFrameBound("offset must be non-negative".into()))
            }
            Value::Null => Err(Error::InvalidFrameBound("offset must not be NULL".into())),
            other => Err(Error::InvalidFrameBound(format!(
                "offset must be numeric, got {}",
                other.type_name()
            ))),
        }
    }

    /// The offset as a row/group count, clamped to `m`; a fraction counts
    /// whole units (`1.5` is one row). Anything past the partition (or
    /// group table) behaves like UNBOUNDED, so clamping is semantically
    /// exact and keeps all downstream index arithmetic in `[0, 2m]`.
    fn count(self, m: usize) -> usize {
        match self {
            Offset::Int(x) => usize::try_from(x).map_or(m, |c| c.min(m)),
            Offset::Float(x) => {
                if x >= m as f64 {
                    m
                } else {
                    x as usize
                }
            }
        }
    }

    /// Lossy float view (the RANGE fallback for float keys).
    fn as_f64(self) -> f64 {
        match self {
            Offset::Int(x) => x as f64,
            Offset::Float(x) => x,
        }
    }
}

/// Where a bound's per-row offsets come from.
enum Offsets {
    /// The same offset at every row: a literal, or an expression the VM
    /// folded to a constant.
    Const(Offset),
    /// A VM batch, every row of it validated: the typed block itself, one
    /// offset per partition position.
    Ints(Vec<i64>),
    Floats(Vec<f64>),
    /// A batch the VM returned as dynamic values (dates, mixed types).
    Mixed(Vec<Offset>),
    /// The interpreter, row by row: until (and unless) a batch succeeds, so
    /// that an invalid offset is reported for the first row that has it.
    Interp(BoundExpr),
}

impl Offsets {
    /// Binds an offset expression. A literal is validated here, once, and
    /// never reaches the VM; an invalid one stays an expression, for the
    /// first row to report.
    fn bind(expr: &Expr, table: &Table) -> Result<Offsets> {
        let bound = expr.bind(table)?;
        Ok(match &bound {
            BoundExpr::Lit(v) => Offset::new(v).map_or(Offsets::Interp(bound), Offsets::Const),
            _ => Offsets::Interp(bound),
        })
    }

    /// Evaluates an expression over the whole partition through the block
    /// VM. It stays with the interpreter when any row fails evaluation or
    /// validation, which reproduces the canonical first error.
    fn precompute(&mut self, table: &Table, rows: &[usize]) {
        let Offsets::Interp(expr) = self else { return };
        let Ok(block) = vm::run(expr, table, vm::RowSel::Rows(rows)) else {
            return;
        };
        let no_null = |valid: &[bool]| valid.iter().all(|&ok| ok);
        let batched = match block {
            vm::Block::Const(v) => Offset::new(&v).ok().map(Offsets::Const),
            vm::Block::Int(d, valid) if no_null(&valid) && d.iter().all(|&x| x >= 0) => {
                Some(Offsets::Ints(d))
            }
            vm::Block::Float(d, valid)
                if no_null(&valid) && d.iter().all(|&x| x >= 0.0 && x.is_finite()) =>
            {
                Some(Offsets::Floats(d))
            }
            vm::Block::Vals(vs) => {
                vs.iter().map(|v| Offset::new(v).ok()).collect::<Option<_>>().map(Offsets::Mixed)
            }
            _ => None,
        };
        if let Some(offsets) = batched {
            *self = offsets;
        }
    }

    /// The offset of partition position `i`. Inlined into the per-row loop:
    /// as a call it costs the ROWS workloads 2 ns a row and bound.
    #[inline(always)]
    fn at(&self, table: &Table, rows: &[usize], i: usize) -> Result<Offset> {
        match self {
            Offsets::Const(o) => Ok(*o),
            Offsets::Ints(v) => Ok(Offset::Int(v[i])),
            Offsets::Floats(v) => Ok(Offset::Float(v[i])),
            Offsets::Mixed(v) => Ok(v[i]),
            Offsets::Interp(e) => Offset::new(&e.eval(table, rows[i])?),
        }
    }
}

/// A frame bound bound to the table.
enum Bound {
    UnboundedPreceding,
    /// `offsets PRECEDING`, or FOLLOWING when the flag is set.
    Offset(Offsets, bool),
    CurrentRow,
    UnboundedFollowing,
}

impl Bound {
    fn bind(b: &FrameBound, table: &Table) -> Result<Bound> {
        Ok(match b {
            FrameBound::UnboundedPreceding => Bound::UnboundedPreceding,
            FrameBound::Preceding(e) => Bound::Offset(Offsets::bind(e, table)?, false),
            FrameBound::CurrentRow => Bound::CurrentRow,
            FrameBound::Following(e) => Bound::Offset(Offsets::bind(e, table)?, true),
            FrameBound::UnboundedFollowing => Bound::UnboundedFollowing,
        })
    }
}

/// What a frame mode contributes to [`walk`]: where `CURRENT ROW` and "`off`
/// units before / after row `i`" lie, in partition positions `<= m`.
trait Mode {
    /// `CURRENT ROW` as a frame start and a frame end.
    fn current(&self, i: usize) -> (usize, usize);

    /// An offset bound: where the rows no further than `off` units before
    /// row `i` (after it, when `following`) start or, for `end`, end.
    fn offset(&mut self, i: usize, off: Offset, following: bool, end: bool) -> usize;
}

/// `p` moved by `off <= n` along an axis of `n` units, stopping at its ends.
fn shift(p: usize, off: usize, following: bool, n: usize) -> usize {
    if following {
        (p + off).min(n)
    } else {
        p.saturating_sub(off)
    }
}

/// ROWS: the unit is the row, so row `i` spans positions `i..i + 1`.
struct Rows {
    m: usize,
}

impl Mode for Rows {
    fn current(&self, i: usize) -> (usize, usize) {
        (i, i + 1)
    }

    fn offset(&mut self, i: usize, off: Offset, following: bool, end: bool) -> usize {
        shift(i + usize::from(end), off.count(self.m), following, self.m)
    }
}

/// GROUPS: ROWS arithmetic over peer-group indices, mapped back through the
/// groups' start positions.
struct Groups<'a> {
    peer_start: &'a [usize],
    peer_end: &'a [usize],
    /// Group index per position.
    group_of: Vec<usize>,
    /// Start position per group, then `m`: group `g` spans
    /// `starts[g]..starts[g + 1]`.
    starts: Vec<usize>,
}

impl<'a> Groups<'a> {
    fn new(peer_start: &'a [usize], peer_end: &'a [usize]) -> Self {
        let m = peer_end.len();
        let mut group_of = vec![0usize; m];
        let mut starts = Vec::new();
        let mut p = 0usize;
        while p < m {
            group_of[p..peer_end[p]].fill(starts.len());
            starts.push(p);
            p = peer_end[p];
        }
        starts.push(m);
        Groups { peer_start, peer_end, group_of, starts }
    }
}

impl Mode for Groups<'_> {
    fn current(&self, i: usize) -> (usize, usize) {
        (self.peer_start[i], self.peer_end[i])
    }

    fn offset(&mut self, i: usize, off: Offset, following: bool, end: bool) -> usize {
        let groups = self.starts.len() - 1;
        let g = self.group_of[i] + usize::from(end);
        self.starts[shift(g, off.count(groups), following, groups)]
    }
}

/// RANGE: the unit is the ORDER BY key's value, so an offset bound is a
/// search for `key(i) ± off` among the partition's sorted keys. Each bound's
/// search gallops out from its answer for the previous row, so a frame that
/// slides costs O(1) per row and one that jumps O(log distance), on one path.
struct Range<'a> {
    peer_start: &'a [usize],
    peer_end: &'a [usize],
    /// The typed keys; empty when no bound has an offset (nothing reads them).
    key: RangeKey,
    /// The previous answers of the start and the end bound, inside `key.keys`.
    seeds: [usize; 2],
}

impl Mode for Range<'_> {
    fn current(&self, i: usize) -> (usize, usize) {
        (self.peer_start[i], self.peer_end[i])
    }

    fn offset(&mut self, i: usize, off: Offset, following: bool, end: bool) -> usize {
        let RangeKey { keys, first, desc } = &self.key;
        let Some(p) = i.checked_sub(*first).filter(|&p| p < keys.len()) else {
            // SQL: a NULL key row's offset frame is its peer group of NULLs.
            return if end { self.peer_end[i] } else { self.peer_start[i] };
        };
        // In key space: PRECEDING subtracts under ASC and adds under DESC.
        let add = following != *desc;
        // True for the keys a bound at threshold `t` leaves behind it, `ord`
        // being `key.cmp(t)`: those before `t` in frame order, and for a frame
        // end those equal to it too.
        let below = |ord: Ordering| {
            let ord = if *desc { ord.reverse() } else { ord };
            ord == Ordering::Less || (end && ord == Ordering::Equal)
        };
        let moved = |k: f64| if add { k + off.as_f64() } else { k - off.as_f64() };
        let seed = &mut self.seeds[usize::from(end)];
        *seed = match (keys, off) {
            // Integral keys (Int / Date) stay exact — as f64 distinct keys
            // beyond 2^53 would merge — and i64 ± i64 always fits in i128.
            (RangeKeys::Int(ks), Offset::Int(o)) => {
                let t = ks[p] as i128 + if add { o as i128 } else { -(o as i128) };
                gallop_partition_point(ks, *seed, |&k| below((k as i128).cmp(&t)))
            }
            // A float on either side: f64 under its total order.
            (RangeKeys::Int(ks), _) => {
                let t = moved(ks[p] as f64);
                gallop_partition_point(ks, *seed, |&k| below((k as f64).total_cmp(&t)))
            }
            (RangeKeys::Float(ks), _) => {
                let t = moved(ks[p]);
                gallop_partition_point(ks, *seed, |k| below(k.total_cmp(&t)))
            }
        };
        first + *seed
    }
}

/// The one loop of [`resolve_frames`]: every row's bounds under `mode`.
fn walk(
    mut mode: impl Mode,
    table: &Table,
    rows: &[usize],
    start: &Bound,
    end: &Bound,
) -> Result<Vec<(usize, usize)>> {
    let m = rows.len();
    let mut bounds = Vec::with_capacity(m);
    for i in 0..m {
        let s = match start {
            Bound::UnboundedPreceding => 0,
            Bound::Offset(offsets, following) => {
                mode.offset(i, offsets.at(table, rows, i)?, *following, false)
            }
            Bound::CurrentRow => mode.current(i).0,
            Bound::UnboundedFollowing => {
                return Err(Error::InvalidFrameBound(
                    "UNBOUNDED FOLLOWING cannot start a frame".into(),
                ))
            }
        };
        let e = match end {
            Bound::UnboundedFollowing => m,
            Bound::Offset(offsets, following) => {
                mode.offset(i, offsets.at(table, rows, i)?, *following, true)
            }
            Bound::CurrentRow => mode.current(i).1,
            Bound::UnboundedPreceding => {
                return Err(Error::InvalidFrameBound(
                    "UNBOUNDED PRECEDING cannot end a frame".into(),
                ))
            }
        };
        bounds.push((s, e.max(s)));
    }
    Ok(bounds)
}

/// Resolves all frames of a sorted partition.
///
/// `rows` maps partition positions to table rows *in window order*; `keys`
/// are the window ORDER BY keys: every mode reads them for peers, and only a
/// RANGE offset bound reads their values, which is where SQL's restriction to
/// one numeric key applies. A literal offset is validated once per call;
/// any other offset expression runs through the block VM in one
/// whole-partition batch (interpreter-identical results), falling back to
/// the per-row interpreter when the batch fails so errors keep the canonical
/// row order. An empty partition has no row to fail at.
pub fn resolve_frames(
    table: &Table,
    rows: &[usize],
    keys: &KeyColumns,
    spec: &FrameSpec,
) -> Result<ResolvedFrames> {
    let m = rows.len();
    let (peer_start, peer_end) = peer_bounds(keys, rows);
    let mut start = Bound::bind(&spec.start, table)?;
    let mut end = Bound::bind(&spec.end, table)?;

    // An unsupported ORDER BY is reported before any offset is evaluated.
    let has_offset = matches!(start, Bound::Offset(..)) || matches!(end, Bound::Offset(..));
    let key = if spec.mode == FrameMode::Range && has_offset && m > 0 {
        keys.range_key(rows)?
    } else {
        RangeKey::default()
    };
    // A statically invalid bound fails at the first row *before* the other
    // bound's expression is touched: batch nothing then, so no expression is
    // evaluated on rows the canonical path never reaches.
    if !matches!(start, Bound::UnboundedFollowing) && !matches!(end, Bound::UnboundedPreceding) {
        for bound in [&mut start, &mut end] {
            if let Bound::Offset(offsets, _) = bound {
                offsets.precompute(table, rows);
            }
        }
    }

    let bounds = match spec.mode {
        FrameMode::Rows => walk(Rows { m }, table, rows, &start, &end),
        FrameMode::Groups => walk(Groups::new(&peer_start, &peer_end), table, rows, &start, &end),
        FrameMode::Range => {
            let mode = Range { peer_start: &peer_start, peer_end: &peer_end, key, seeds: [0; 2] };
            walk(mode, table, rows, &start, &end)
        }
    }?;
    debug_assert!(
        bounds.len() == m && bounds.iter().all(|&(a, b)| a <= b && b <= m),
        "resolved frames must satisfy start <= end <= m"
    );
    Ok(ResolvedFrames { bounds, exclusion: spec.exclusion, peer_start, peer_end })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::expr::{col, lit};
    use crate::order::SortKey;

    fn setup(keys_vals: Vec<i64>) -> (Table, Vec<usize>, KeyColumns) {
        let n = keys_vals.len();
        let t = Table::new(vec![("k", Column::ints(keys_vals))]).unwrap();
        let keys = KeyColumns::evaluate(&t, &[SortKey::asc(col("k"))]).unwrap();
        let mut rows: Vec<usize> = (0..n).collect();
        crate::order::sort_permutation(&keys, &mut rows, false);
        (t, rows, keys)
    }

    #[test]
    fn rows_frame_basic() {
        let (t, rows, keys) = setup(vec![1, 2, 3, 4, 5]);
        let spec =
            FrameSpec::rows(FrameBound::Preceding(lit(1i64)), FrameBound::Following(lit(1i64)));
        let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
        assert_eq!(rf.bounds, vec![(0, 2), (0, 3), (1, 4), (2, 5), (3, 5)]);
    }

    #[test]
    fn rows_unbounded_running() {
        let (t, rows, keys) = setup(vec![3, 1, 2]);
        let spec = FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::CurrentRow);
        let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
        assert_eq!(rf.bounds, vec![(0, 1), (0, 2), (0, 3)]);
    }

    #[test]
    fn rows_degenerate_empty_frame() {
        let (t, rows, keys) = setup(vec![1, 2, 3]);
        // BETWEEN 2 FOLLOWING AND 1 FOLLOWING → always empty.
        let spec =
            FrameSpec::rows(FrameBound::Following(lit(2i64)), FrameBound::Following(lit(1i64)));
        let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
        for (a, b) in rf.bounds {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn rows_preceding_end_bound() {
        let (t, rows, keys) = setup(vec![1, 2, 3, 4]);
        // BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING.
        let spec =
            FrameSpec::rows(FrameBound::UnboundedPreceding, FrameBound::Preceding(lit(1i64)));
        let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
        assert_eq!(rf.bounds, vec![(0, 0), (0, 1), (0, 2), (0, 3)]);
    }

    #[test]
    fn range_frame_value_offsets() {
        let (t, rows, keys) = setup(vec![10, 11, 15, 20, 21]);
        // RANGE BETWEEN 1 PRECEDING AND 1 FOLLOWING.
        let spec =
            FrameSpec::range(FrameBound::Preceding(lit(1i64)), FrameBound::Following(lit(1i64)));
        let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
        assert_eq!(rf.bounds, vec![(0, 2), (0, 2), (2, 3), (3, 5), (3, 5)]);
    }

    #[test]
    fn range_current_row_is_peer_group() {
        let (t, rows, keys) = setup(vec![5, 5, 7, 7, 9]);
        let spec = FrameSpec::default_frame(); // unbounded preceding .. current row
        let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
        // Peers extend the frame end to the whole tie group.
        assert_eq!(rf.bounds, vec![(0, 2), (0, 2), (0, 4), (0, 4), (0, 5)]);
    }

    #[test]
    fn range_desc_order() {
        let t = Table::new(vec![("k", Column::ints(vec![10, 11, 15, 20, 21]))]).unwrap();
        let keys = KeyColumns::evaluate(&t, &[SortKey::desc(col("k"))]).unwrap();
        let mut rows: Vec<usize> = (0..5).collect();
        crate::order::sort_permutation(&keys, &mut rows, false);
        // Sorted: 21, 20, 15, 11, 10.
        let spec =
            FrameSpec::range(FrameBound::Preceding(lit(1i64)), FrameBound::Following(lit(1i64)));
        let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
        assert_eq!(rf.bounds, vec![(0, 2), (0, 2), (2, 3), (3, 5), (3, 5)]);
    }

    #[test]
    fn range_null_rows_frame_is_their_peer_group() {
        let t =
            Table::new(vec![("k", Column::ints_opt(vec![Some(1), None, Some(2), None]))]).unwrap();
        let keys = KeyColumns::evaluate(&t, &[SortKey::asc(col("k"))]).unwrap();
        let mut rows: Vec<usize> = (0..4).collect();
        crate::order::sort_permutation(&keys, &mut rows, false);
        // Sorted: 1, 2, NULL, NULL.
        let spec =
            FrameSpec::range(FrameBound::Preceding(lit(10i64)), FrameBound::Following(lit(0i64)));
        let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
        assert_eq!(rf.bounds[2], (2, 4));
        assert_eq!(rf.bounds[3], (2, 4));
        assert_eq!(rf.bounds[0], (0, 1));
    }

    #[test]
    fn groups_frame() {
        let (t, rows, keys) = setup(vec![5, 5, 7, 7, 7, 9]);
        let spec = FrameSpec::groups(FrameBound::Preceding(lit(1i64)), FrameBound::CurrentRow);
        let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
        assert_eq!(rf.bounds, vec![(0, 2), (0, 2), (0, 5), (0, 5), (0, 5), (2, 6)]);
    }

    #[test]
    fn exclusion_range_sets() {
        let (t, rows, keys) = setup(vec![5, 5, 5, 7]);
        let spec = FrameSpec::whole_partition().exclude(FrameExclusion::Ties);
        let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
        // Row 1 (a 5): frame [0,4) minus peers {0,2} keeping itself.
        let rs = rf.range_set(1);
        assert_eq!(rs.iter().collect::<Vec<_>>(), vec![(1, 2), (3, 4)]);
        let spec = FrameSpec::whole_partition().exclude(FrameExclusion::Group);
        let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
        assert_eq!(rf.range_set(1).iter().collect::<Vec<_>>(), vec![(3, 4)]);
        let spec = FrameSpec::whole_partition().exclude(FrameExclusion::CurrentRow);
        let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
        assert_eq!(rf.range_set(0).iter().collect::<Vec<_>>(), vec![(1, 4)]);
    }

    #[test]
    fn per_row_expression_bounds() {
        // Frame size depends on the row's own value: k PRECEDING.
        let (t, rows, keys) = setup(vec![0, 1, 2, 3]);
        let spec = FrameSpec::rows(FrameBound::Preceding(col("k")), FrameBound::CurrentRow);
        let rf = resolve_frames(&t, &rows, &keys, &spec).unwrap();
        assert_eq!(rf.bounds, vec![(0, 1), (0, 2), (0, 3), (0, 4)]);
    }

    #[test]
    fn negative_offset_is_rejected() {
        let (t, rows, keys) = setup(vec![1, 2]);
        let spec = FrameSpec::rows(FrameBound::Preceding(lit(-1i64)), FrameBound::CurrentRow);
        assert!(resolve_frames(&t, &rows, &keys, &spec).is_err());
    }

    #[test]
    fn a_literal_offset_is_one_offset() {
        let (t, _, _) = setup(vec![1]);
        assert!(matches!(Offsets::bind(&lit(2i64), &t), Ok(Offsets::Const(Offset::Int(2)))));
        // An invalid literal stays an expression, for the first row to report.
        assert!(matches!(Offsets::bind(&lit(-1i64), &t), Ok(Offsets::Interp(_))));
        // Anything else may batch, and a batch that folds is one offset too.
        let mut folded = Offsets::bind(&lit(1i64).add(lit(1i64)), &t).unwrap();
        assert!(matches!(folded, Offsets::Interp(_)));
        folded.precompute(&t, &[0]);
        assert!(matches!(folded, Offsets::Const(Offset::Int(2))));
    }

    #[test]
    fn a_batch_is_the_vm_block_when_every_row_is_valid() {
        let t = Table::new(vec![
            ("k", Column::ints(vec![1, 2])),
            ("f", Column::floats(vec![0.5, 1.0])),
            ("d", Column::dates(vec![3, 5])),
            ("n", Column::ints_opt(vec![Some(1), None])),
        ])
        .unwrap();
        let batched = |e: Expr| {
            let mut offsets = Offsets::bind(&e, &t).unwrap();
            offsets.precompute(&t, &[1, 0]);
            offsets
        };
        assert!(matches!(batched(col("k")), Offsets::Ints(v) if v == [2, 1]));
        assert!(matches!(batched(col("f")), Offsets::Floats(v) if v == [1.0, 0.5]));
        // Date arithmetic comes back as dynamic values.
        let days = batched(col("d").sub(lit(Value::Date(3))));
        assert!(
            matches!(days, Offsets::Mixed(v) if matches!(v[..], [Offset::Int(2), Offset::Int(0)]))
        );
        // One invalid row, and the interpreter reports it when it gets there.
        for invalid in [col("k").sub(lit(2i64)), col("f").sub(lit(0.75)), col("n"), col("d")] {
            assert!(matches!(batched(invalid), Offsets::Interp(_)));
        }
    }

    #[test]
    fn range_offsets_need_single_numeric_key() {
        let t =
            Table::new(vec![("a", Column::ints(vec![1, 2])), ("s", Column::strs(vec!["x", "y"]))])
                .unwrap();
        let keys = KeyColumns::evaluate(&t, &[SortKey::asc(col("s"))]).unwrap();
        let rows = vec![0usize, 1];
        let spec = FrameSpec::range(FrameBound::Preceding(lit(1i64)), FrameBound::CurrentRow);
        assert!(resolve_frames(&t, &rows, &keys, &spec).is_err());
        let keys2 =
            KeyColumns::evaluate(&t, &[SortKey::asc(col("a")), SortKey::asc(col("s"))]).unwrap();
        assert!(resolve_frames(&t, &rows, &keys2, &spec).is_err());
    }
}
