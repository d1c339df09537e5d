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
//! Resolution happens once per window, yielding per-row `[start, end)` bounds
//! in *partition position* space plus exclusion holes.

use crate::error::{Error, Result};
use crate::expr::Expr;
use crate::order::{peer_bounds, KeyColumns};
use crate::table::Table;
use crate::value::Value;
use crate::vm;
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
    /// per-position arrays with these bounds unclamped (`eval::alt` slides
    /// over them as they are when the call's mask drops nothing).
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

    /// The frame of row `i` as up to three disjoint ranges.
    pub fn range_set(&self, i: usize) -> RangeSet {
        let (a, b) = self.bounds[i];
        RangeSet::frame_minus_holes(a, b, self.holes(i).as_slice())
    }

    /// True when no row's frame has exclusion holes.
    pub fn has_exclusion(&self) -> bool {
        self.exclusion != FrameExclusion::NoOthers
    }
}

/// A frame bound with its offset expression pre-bound to the table.
enum PreBound {
    UnboundedPreceding,
    Preceding(crate::expr::BoundExpr),
    CurrentRow,
    Following(crate::expr::BoundExpr),
    UnboundedFollowing,
}

fn pre_bind(b: &FrameBound, table: &Table) -> Result<PreBound> {
    Ok(match b {
        FrameBound::UnboundedPreceding => PreBound::UnboundedPreceding,
        FrameBound::Preceding(e) => PreBound::Preceding(e.bind(table)?),
        FrameBound::CurrentRow => PreBound::CurrentRow,
        FrameBound::Following(e) => PreBound::Following(e.bind(table)?),
        FrameBound::UnboundedFollowing => PreBound::UnboundedFollowing,
    })
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
    /// The offset as a row/group count, clamped to `m`. Anything past the
    /// partition (or group table) behaves like UNBOUNDED, so clamping is
    /// semantically exact and keeps all downstream index arithmetic in
    /// `[0, 2m]`.
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

/// Evaluates a pre-bound offset expression for a table row.
fn eval_offset(expr: &crate::expr::BoundExpr, table: &Table, row: usize) -> Result<Offset> {
    let v = expr.eval(table, row)?;
    match v {
        Value::Int(x) if x >= 0 => Ok(Offset::Int(x)),
        Value::Float(x) if x >= 0.0 && x.is_finite() => Ok(Offset::Float(x)),
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

/// Converts a VM result block into validated offsets — the columnar twin of
/// [`eval_offset`]: every row must be a non-negative Int or a non-negative
/// finite Float. `None` on any violation (the per-row path then reports the
/// canonical error for the canonical row).
fn offsets_from_block(block: &vm::Block, n: usize) -> Option<Vec<Offset>> {
    fn one(v: &Value) -> Option<Offset> {
        match v {
            Value::Int(x) if *x >= 0 => Some(Offset::Int(*x)),
            Value::Float(x) if *x >= 0.0 && x.is_finite() => Some(Offset::Float(*x)),
            _ => None,
        }
    }
    match block {
        vm::Block::Const(v) => one(v).map(|o| vec![o; n]),
        vm::Block::Int(d, valid) => {
            let mut out = Vec::with_capacity(n);
            for (i, &x) in d.iter().enumerate() {
                if !vm::vld(valid, i) || x < 0 {
                    return None;
                }
                out.push(Offset::Int(x));
            }
            Some(out)
        }
        vm::Block::Float(d, valid) => {
            let mut out = Vec::with_capacity(n);
            for (i, &x) in d.iter().enumerate() {
                if !(vm::vld(valid, i) && x >= 0.0 && x.is_finite()) {
                    return None;
                }
                out.push(Offset::Float(x));
            }
            Some(out)
        }
        vm::Block::Bool(..) => None,
        vm::Block::Vals(vs) => {
            let mut out = Vec::with_capacity(n);
            for v in vs {
                out.push(one(v)?);
            }
            Some(out)
        }
    }
}

/// Batch-evaluates one bound's offset expression over the whole partition
/// through the compiled VM. Returns `None` when the bound carries no offset
/// expression, `batch` is off (see [`resolve_frames`]) or any row
/// fails evaluation or validation — callers then evaluate that bound per
/// row, which reproduces the interpreter's canonical first error.
fn precompute_offsets(
    b: &PreBound,
    table: &Table,
    rows: &[usize],
    batch: bool,
) -> Option<Vec<Offset>> {
    let e = match b {
        PreBound::Preceding(e) | PreBound::Following(e) => e,
        _ => return None,
    };
    let n = rows.len();
    if n == 0 || !batch {
        return None;
    }
    let prog = vm::Program::compile(e);
    vm::ExprVm::new()
        .run_block(&prog, table, vm::RowSel::Rows(rows))
        .ok()
        .and_then(|block| offsets_from_block(&block, n))
}

/// Resolves all frames of a sorted partition.
///
/// `rows` maps partition positions to table rows *in window order*; `keys`
/// are the window ORDER BY keys (used for peers and RANGE arithmetic).
/// Per-row offset expressions run through the compiled VM in whole-partition
/// batches (interpreter-identical results), falling back to the per-row
/// interpreter when a bound's batch fails so errors keep the canonical row
/// order.
pub fn resolve_frames(
    table: &Table,
    rows: &[usize],
    keys: &KeyColumns,
    spec: &FrameSpec,
) -> Result<ResolvedFrames> {
    let m = rows.len();
    let (peer_start, peer_end) = peer_bounds(keys, rows);
    let mut bounds = Vec::with_capacity(m);

    let pstart = pre_bind(&spec.start, table)?;
    let pend = pre_bind(&spec.end, table)?;
    // When a statically invalid bound is present, the per-row loop errors at
    // its first row *before* touching the other bound's expression; skip
    // batching entirely so no expression is evaluated on rows the canonical
    // path never reaches.
    let batch = !(matches!(pstart, PreBound::UnboundedFollowing)
        || matches!(pend, PreBound::UnboundedPreceding));

    match spec.mode {
        FrameMode::Rows => {
            let pre_s = precompute_offsets(&pstart, table, rows, batch);
            let pre_e = precompute_offsets(&pend, table, rows, batch);
            let offset_at =
                |pre: &Option<Vec<Offset>>, e: &crate::expr::BoundExpr, i: usize| match pre {
                    Some(v) => Ok(v[i]),
                    None => eval_offset(e, table, rows[i]),
                };
            #[allow(clippy::needless_range_loop)] // i is simultaneously position and index
            for i in 0..m {
                let start = match &pstart {
                    PreBound::UnboundedPreceding => 0,
                    PreBound::Preceding(e) => {
                        let off = offset_at(&pre_s, e, i)?.count(m);
                        i.saturating_sub(off)
                    }
                    PreBound::CurrentRow => i,
                    PreBound::Following(e) => {
                        let off = offset_at(&pre_s, e, i)?.count(m);
                        i.saturating_add(off).min(m)
                    }
                    PreBound::UnboundedFollowing => {
                        return Err(Error::InvalidFrameBound(
                            "UNBOUNDED FOLLOWING cannot start a frame".into(),
                        ))
                    }
                };
                let end = match &pend {
                    PreBound::UnboundedFollowing => m,
                    PreBound::Following(e) => {
                        let off = offset_at(&pre_e, e, i)?.count(m);
                        i.saturating_add(off).saturating_add(1).min(m)
                    }
                    PreBound::CurrentRow => i + 1,
                    PreBound::Preceding(e) => {
                        let off = offset_at(&pre_e, e, i)?.count(m);
                        (i + 1).saturating_sub(off)
                    }
                    PreBound::UnboundedPreceding => {
                        return Err(Error::InvalidFrameBound(
                            "UNBOUNDED PRECEDING cannot end a frame".into(),
                        ))
                    }
                };
                bounds.push((start, end.max(start).min(m)));
            }
        }
        FrameMode::Range => {
            resolve_range_frames(
                table,
                rows,
                keys,
                &pstart,
                &pend,
                &peer_start,
                &peer_end,
                &mut bounds,
                batch,
            )?;
        }
        FrameMode::Groups => {
            // Group index per position + group start/end tables.
            let mut group_of = vec![0usize; m];
            let mut starts = Vec::new();
            let mut ends = Vec::new();
            let mut g = 0usize;
            let mut p = 0usize;
            while p < m {
                let e = peer_end[p];
                starts.push(p);
                ends.push(e);
                group_of[p..e].fill(g);
                g += 1;
                p = e;
            }
            let num_groups = starts.len();
            let pre_s = precompute_offsets(&pstart, table, rows, batch);
            let pre_e = precompute_offsets(&pend, table, rows, batch);
            let offset_at =
                |pre: &Option<Vec<Offset>>, e: &crate::expr::BoundExpr, i: usize| match pre {
                    Some(v) => Ok(v[i]),
                    None => eval_offset(e, table, rows[i]),
                };
            for i in 0..m {
                let gi = group_of[i];
                let start = match &pstart {
                    PreBound::UnboundedPreceding => 0,
                    PreBound::Preceding(e) => {
                        let off = offset_at(&pre_s, e, i)?.count(num_groups);
                        starts[gi.saturating_sub(off)]
                    }
                    PreBound::CurrentRow => peer_start[i],
                    PreBound::Following(e) => {
                        let off = offset_at(&pre_s, e, i)?.count(num_groups);
                        match gi.checked_add(off) {
                            Some(g) if g < num_groups => starts[g],
                            _ => m,
                        }
                    }
                    PreBound::UnboundedFollowing => {
                        return Err(Error::InvalidFrameBound(
                            "UNBOUNDED FOLLOWING cannot start a frame".into(),
                        ))
                    }
                };
                let end = match &pend {
                    PreBound::UnboundedFollowing => m,
                    PreBound::Following(e) => {
                        let off = offset_at(&pre_e, e, i)?.count(num_groups);
                        match gi.checked_add(off) {
                            Some(g) if g < num_groups => ends[g],
                            _ => m,
                        }
                    }
                    PreBound::CurrentRow => peer_end[i],
                    PreBound::Preceding(e) => {
                        let off = offset_at(&pre_e, e, i)?.count(num_groups);
                        if off > gi {
                            0
                        } else {
                            ends[gi - off]
                        }
                    }
                    PreBound::UnboundedPreceding => {
                        return Err(Error::InvalidFrameBound(
                            "UNBOUNDED PRECEDING cannot end a frame".into(),
                        ))
                    }
                };
                bounds.push((start, end.max(start)));
            }
        }
    }

    debug_assert!(
        bounds.len() == m && bounds.iter().all(|&(a, b)| a <= b && b <= m),
        "resolved frames must satisfy start <= end <= m"
    );
    Ok(ResolvedFrames { bounds, exclusion: spec.exclusion, peer_start, peer_end })
}

/// RANGE mode: logical offsets over the single numeric ORDER BY key.
#[allow(clippy::too_many_arguments)]
fn resolve_range_frames(
    table: &Table,
    rows: &[usize],
    keys: &KeyColumns,
    pstart: &PreBound,
    pend: &PreBound,
    peer_start: &[usize],
    peer_end: &[usize],
    bounds: &mut Vec<(usize, usize)>,
    batch: bool,
) -> Result<()> {
    let m = rows.len();
    let needs_key = |b: &PreBound| matches!(b, PreBound::Preceding(_) | PreBound::Following(_));
    let offsets_used = needs_key(pstart) || needs_key(pend);

    // Without offset bounds, RANGE only needs peers — any ORDER BY is fine.
    if !offsets_used {
        for i in 0..m {
            let start = match pstart {
                PreBound::UnboundedPreceding => 0,
                PreBound::CurrentRow => peer_start[i],
                _ => unreachable!(),
            };
            let end = match pend {
                PreBound::UnboundedFollowing => m,
                PreBound::CurrentRow => peer_end[i],
                PreBound::UnboundedPreceding => {
                    return Err(Error::InvalidFrameBound(
                        "UNBOUNDED PRECEDING cannot end a frame".into(),
                    ))
                }
                _ => unreachable!(),
            };
            bounds.push((start, end.max(start)));
        }
        return Ok(());
    }

    // Offset bounds: single numeric key required (the SQL restriction).
    // Integral keys (Int / Date) stay in exact i64 arithmetic — converting
    // them to f64 silently merges distinct keys beyond 2^53. Float keys, or
    // integral keys combined with a float offset, use f64.
    let mut raw: Vec<Option<Value>> = Vec::with_capacity(m);
    let mut desc = false;
    let mut all_int = true;
    for &row in rows.iter() {
        let Some((v, d)) = keys.single_key(row) else {
            return Err(Error::Unsupported(
                "RANGE frames with offsets require exactly one ORDER BY key".into(),
            ));
        };
        desc = d;
        match v {
            Value::Null => raw.push(None),
            other => {
                if other.as_f64().is_none() {
                    return Err(Error::Unsupported(
                        "RANGE frames with offsets require a numeric ORDER BY key".into(),
                    ));
                }
                all_int &= other.as_i64().is_some();
                raw.push(Some(other));
            }
        }
    }
    let key_vals: KeyRep = if all_int {
        KeyRep::Int(raw.iter().map(|o| o.as_ref().and_then(Value::as_i64)).collect())
    } else {
        KeyRep::Float(raw.iter().map(|o| o.as_ref().and_then(Value::as_f64)).collect())
    };
    // NULL rows are contiguous at one end; compute the non-null span.
    let nn_lo = (0..m).take_while(|&p| key_vals.is_null(p)).count();
    let nn_hi = m - (0..m).rev().take_while(|&p| key_vals.is_null(p)).count();

    // The threshold `key(i) ± off` for the current row. `add` is in key
    // space: the caller has already folded the PRECEDING/FOLLOWING direction
    // and ASC/DESC together.
    let thresh = |p: usize, off: Offset, add: bool| -> Thresh {
        match (&key_vals, off) {
            // i64 ± i64 always fits in i128: the exact path.
            (KeyRep::Int(ks), Offset::Int(o)) => {
                let k = ks[p].expect("non-null span") as i128;
                Thresh::Int(if add { k + o as i128 } else { k - o as i128 })
            }
            _ => {
                let k = key_vals.as_f64(p);
                let o = off.as_f64();
                Thresh::Float(if add { k + o } else { k - o })
            }
        }
    };
    // First position in [nn_lo, nn_hi) whose key is "at or past" v coming
    // from the frame start direction (ASC: key >= v; DESC: key <= v).
    let search_start = |v: &Thresh| -> usize {
        let mut lo = nn_lo;
        let mut hi = nn_hi;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let ord = key_vals.cmp_thresh(mid, v);
            let past = if desc { ord != Ordering::Greater } else { ord != Ordering::Less };
            if past {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    };
    // One past the last position whose key is "at or before" v
    // (ASC: key <= v; DESC: key >= v).
    let search_end = |v: &Thresh| -> usize {
        let mut lo = nn_lo;
        let mut hi = nn_hi;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let ord = key_vals.cmp_thresh(mid, v);
            let within = if desc { ord != Ordering::Less } else { ord != Ordering::Greater };
            if within {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    };

    // Offsets batch only after the key checks above: the canonical error
    // order reports an unsupported ORDER BY before any offset evaluation.
    let pre_s = precompute_offsets(pstart, table, rows, batch);
    let pre_e = precompute_offsets(pend, table, rows, batch);
    let offset_at = |pre: &Option<Vec<Offset>>, e: &crate::expr::BoundExpr, i: usize| match pre {
        Some(v) => Ok(v[i]),
        None => eval_offset(e, table, rows[i]),
    };

    for i in 0..m {
        // SQL: a NULL key row's offset frame is its peer group of NULLs.
        let is_null = key_vals.is_null(i);
        let start = match pstart {
            PreBound::UnboundedPreceding => 0,
            PreBound::CurrentRow => peer_start[i],
            PreBound::Preceding(e) => {
                let off = offset_at(&pre_s, e, i)?;
                if is_null {
                    peer_start[i]
                } else {
                    search_start(&thresh(i, off, desc))
                }
            }
            PreBound::Following(e) => {
                let off = offset_at(&pre_s, e, i)?;
                if is_null {
                    peer_start[i]
                } else {
                    search_start(&thresh(i, off, !desc))
                }
            }
            PreBound::UnboundedFollowing => {
                return Err(Error::InvalidFrameBound(
                    "UNBOUNDED FOLLOWING cannot start a frame".into(),
                ))
            }
        };
        let end = match pend {
            PreBound::UnboundedFollowing => m,
            PreBound::CurrentRow => peer_end[i],
            PreBound::Following(e) => {
                let off = offset_at(&pre_e, e, i)?;
                if is_null {
                    peer_end[i]
                } else {
                    search_end(&thresh(i, off, !desc))
                }
            }
            PreBound::Preceding(e) => {
                let off = offset_at(&pre_e, e, i)?;
                if is_null {
                    peer_end[i]
                } else {
                    search_end(&thresh(i, off, desc))
                }
            }
            PreBound::UnboundedPreceding => {
                return Err(Error::InvalidFrameBound(
                    "UNBOUNDED PRECEDING cannot end a frame".into(),
                ))
            }
        };
        bounds.push((start, end.max(start)));
    }
    Ok(())
}

/// RANGE key columns: exact integers or floats.
enum KeyRep {
    /// All non-null keys are integral (Int / Date columns).
    Int(Vec<Option<i64>>),
    /// At least one float key: everything compares through f64.
    Float(Vec<Option<f64>>),
}

/// A `key ± offset` bound value: i128 holds any i64 ± i64 exactly.
enum Thresh {
    /// Exact integer threshold.
    Int(i128),
    /// Float threshold (total order via `total_cmp`).
    Float(f64),
}

impl KeyRep {
    fn is_null(&self, p: usize) -> bool {
        match self {
            KeyRep::Int(ks) => ks[p].is_none(),
            KeyRep::Float(ks) => ks[p].is_none(),
        }
    }

    fn as_f64(&self, p: usize) -> f64 {
        match self {
            KeyRep::Int(ks) => ks[p].expect("non-null span") as f64,
            KeyRep::Float(ks) => ks[p].expect("non-null span"),
        }
    }

    /// Compares the key at `p` with a threshold. Exact when both sides are
    /// integers; otherwise falls back to f64 (matching the threshold's own
    /// precision).
    fn cmp_thresh(&self, p: usize, t: &Thresh) -> Ordering {
        match (self, t) {
            (KeyRep::Int(ks), Thresh::Int(v)) => (ks[p].expect("non-null span") as i128).cmp(v),
            (_, Thresh::Float(v)) => self.as_f64(p).total_cmp(v),
            (KeyRep::Float(_), Thresh::Int(v)) => {
                // Unreachable through `thresh` (float keys always produce
                // float thresholds), but kept total for safety.
                self.as_f64(p).total_cmp(&(*v as f64))
            }
        }
    }
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
