//! ORDER BY machinery: sort keys, comparators, permutations, peer groups and
//! dense code preprocessing over arbitrary SQL values.
//!
//! The merge sort tree only stores integers; this module is the boundary
//! where SQL ordering intricacies (multiple criteria, DESC, NULLS FIRST/LAST)
//! are folded into integer codes, exactly as §5.1 prescribes. The folding
//! happens once, when the key columns are evaluated: every criterion that is
//! an Int, Date, Bool or Float is range-compressed and the criteria are
//! concatenated into one *normalized key* per row, so that comparing two
//! rows is comparing two integers and sorting is an integer sort
//! ([`holistic_core::sort::sort_pairs`]). Each criterion is read from its
//! typed column, evaluated through the VM where it is an expression. Criteria
//! that do not fit 64 bits (strings, very wide ranges) keep the `Value`
//! comparator, which is also the definition the normalized key is tested
//! against.

use crate::column::Column;
use crate::error::{Error, Result};
use crate::expr::Expr;
use crate::table::Table;
use crate::value::{DataType, Value};
use crate::vm::{self, RowSel};
use holistic_core::codes::DenseCodes;
use holistic_core::sort::{sort_pairs, sort_rows};
use rayon::prelude::*;
use std::borrow::Cow;
use std::cmp::Ordering;

/// One ORDER BY criterion.
#[derive(Debug, Clone)]
pub struct SortKey {
    /// The key expression.
    pub expr: Expr,
    /// Descending order.
    pub desc: bool,
    /// NULL placement (SQL default: last for ASC, first for DESC).
    pub nulls_first: bool,
}

impl SortKey {
    /// Ascending, NULLS LAST.
    pub fn asc(expr: Expr) -> Self {
        SortKey { expr, desc: false, nulls_first: false }
    }

    /// Descending, NULLS FIRST.
    pub fn desc(expr: Expr) -> Self {
        SortKey { expr, desc: true, nulls_first: true }
    }

    /// Overrides NULL placement.
    pub fn nulls_first(mut self, yes: bool) -> Self {
        self.nulls_first = yes;
        self
    }
}

/// Order-preserving `u64` image of an integer.
pub(crate) fn int_ordinal(x: i64) -> u64 {
    (x as u64) ^ (1 << 63)
}

/// Inverts [`int_ordinal`].
fn int_from_ordinal(o: u64) -> i64 {
    (o ^ (1 << 63)) as i64
}

/// Order-preserving `u64` image of a float under `f64::total_cmp` (which
/// `sql_cmp` uses): negatives flip every bit, non-negatives set the sign
/// bit, so `-0.0` stays below `+0.0` and NaNs keep their payload order.
pub(crate) fn float_ordinal(f: f64) -> u64 {
    let b = f.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Inverts [`float_ordinal`] bit-faithfully.
pub(crate) fn float_from_ordinal(o: u64) -> f64 {
    f64::from_bits(if o >> 63 == 1 { o & !(1 << 63) } else { !o })
}

/// The value of ordinal `o` of a criterion of type `ty`.
fn value_of(ty: DataType, o: u64) -> Value {
    let int = int_from_ordinal(o);
    match ty {
        DataType::Int => Value::Int(int),
        DataType::Date => Value::Date(int as i32),
        DataType::Bool => Value::Bool(o != 0),
        DataType::Float => Value::Float(float_from_ordinal(o)),
        DataType::Str => unreachable!("strings have no ordinal"),
    }
}

/// One criterion's values as ordinals, the input of the key layout.
struct Ordinals {
    /// Type, smallest and largest ordinal of the non-NULL rows, if any.
    range: Option<(DataType, u64, u64)>,
    /// Ordinal per row (arbitrary where `valid` is false).
    ords: Vec<u64>,
    /// False marks NULL.
    valid: Vec<bool>,
}

impl Ordinals {
    fn new(ty: DataType, ords: Vec<u64>, valid: Vec<bool>) -> Self {
        let (mut lo, mut hi) = (u64::MAX, 0);
        for (&o, _) in ords.iter().zip(&valid).filter(|(_, &ok)| ok) {
            lo = lo.min(o);
            hi = hi.max(o);
        }
        Ordinals { range: (lo <= hi).then_some((ty, lo, hi)), ords, valid }
    }

    /// A key column's ordinals: `None` for strings.
    fn of_column(col: &Column) -> Option<Self> {
        let (ty, ords, valid): (_, Vec<u64>, &Vec<bool>) = match col {
            Column::Int(d, v) => (DataType::Int, d.iter().map(|&x| int_ordinal(x)).collect(), v),
            Column::Date(d, v) => {
                (DataType::Date, d.iter().map(|&x| int_ordinal(i64::from(x))).collect(), v)
            }
            Column::Bool(d, v) => (DataType::Bool, d.iter().map(|&x| u64::from(x)).collect(), v),
            Column::Float(d, v) => {
                (DataType::Float, d.iter().map(|&x| float_ordinal(x)).collect(), v)
            }
            Column::Str(..) => return None,
        };
        // An empty validity mask means "no NULLs".
        let valid = if valid.is_empty() { vec![true; ords.len()] } else { valid.clone() };
        Some(Ordinals::new(ty, ords, valid))
    }

    /// `self` followed by `more`; `None` when their types differ.
    fn concat(mut self, more: Ordinals) -> Option<Self> {
        self.range = match (self.range, more.range) {
            (Some((a, lo, hi)), Some((b, lo2, hi2))) if a == b => {
                Some((a, lo.min(lo2), hi.max(hi2)))
            }
            (Some(_), Some(_)) => return None,
            (a, b) => a.or(b),
        };
        self.ords.extend(more.ords);
        self.valid.extend(more.valid);
        Some(self)
    }

    fn into_values(self) -> Vec<Value> {
        let ty = self.range.map_or(DataType::Int, |r| r.0);
        let value = |(&o, &ok): (&u64, &bool)| if ok { value_of(ty, o) } else { Value::Null };
        self.ords.iter().zip(&self.valid).map(value).collect()
    }
}

/// Where one criterion sits inside the normalized key, and how its values
/// map to codes: ordinals `lo..=lo + span` become `0..=span` (complemented
/// for DESC), shifted up by one under NULLS FIRST where NULL is code 0;
/// under NULLS LAST NULL is `span + 1`. The field is as wide as `span + 1`.
#[derive(Debug, Clone, Copy)]
struct Field {
    /// `None` while the criterion has only produced NULLs.
    ty: Option<DataType>,
    lo: u64,
    span: u64,
    shift: u32,
    desc: bool,
    nulls_first: bool,
}

impl Field {
    fn width(&self) -> u32 {
        u64::BITS - (self.span + 1).leading_zeros()
    }

    /// The field's code for `ord` (`None` is NULL), or `None` when the
    /// ordinal lies outside the field's range.
    fn code(&self, ord: Option<u64>) -> Option<u64> {
        let Some(ord) = ord else {
            return Some(if self.nulls_first { 0 } else { self.span + 1 });
        };
        let rel = ord.checked_sub(self.lo).filter(|&rel| rel <= self.span)?;
        Some(if self.desc { self.span - rel } else { rel } + u64::from(self.nulls_first))
    }

    /// Inverts [`Field::code`] on a whole normalized key.
    fn ordinal_in(&self, norm: u64) -> Option<u64> {
        let code = (norm >> self.shift) & (u64::MAX >> (u64::BITS - self.width()));
        if code == if self.nulls_first { 0 } else { self.span + 1 } {
            return None;
        }
        let rel = code - u64::from(self.nulls_first);
        Some(self.lo + if self.desc { self.span - rel } else { rel })
    }

    fn unpack(&self, norm: &[u64]) -> Ordinals {
        let (ords, valid) =
            norm.iter().map(|&k| self.ordinal_in(k).map_or((0, false), |o| (o, true))).unzip();
        Ordinals::new(self.ty.unwrap_or(DataType::Int), ords, valid)
    }
}

/// Lays the criteria out most-significant-first, each as narrow as its
/// ordinal range allows; `None` when they need more than 64 bits. With
/// `headroom` the spare bits are shared out among the criteria, so that a
/// growing table rarely outgrows the layout again.
fn layout(cols: &[Ordinals], flags: &[(bool, bool)], headroom: bool) -> Option<Vec<Field>> {
    let needed = |c: &Ordinals| c.range.map_or(0, |(_, lo, hi)| hi - lo);
    let mut widths = Vec::with_capacity(cols.len());
    for c in cols {
        // Codes run to `span + 1` (the NULL code), which must itself fit.
        widths.push(u64::BITS - needed(c).checked_add(1)?.leading_zeros());
    }
    let total: u32 = widths.iter().sum();
    if total > u64::BITS || cols.is_empty() {
        return None;
    }
    let spare = if headroom { (u64::BITS - total) / cols.len() as u32 } else { 0 };
    let mut shift = total + spare * cols.len() as u32;
    let mut fields = Vec::with_capacity(cols.len());
    for ((c, w), &(desc, nulls_first)) in cols.iter().zip(widths).zip(flags) {
        let width = w + spare;
        shift -= width;
        // The widest span the field's bits can code, centred on the data.
        let span = (u64::MAX >> (u64::BITS - width)) - 1;
        let min = c.range.map_or(0, |r| r.1);
        let lo = min.saturating_sub((span - needed(c)) / 2).min(u64::MAX - span);
        fields.push(Field { ty: c.range.map(|r| r.0), lo, span, shift, desc, nulls_first });
    }
    Some(fields)
}

/// Encodes rows of `cols` under `fields`; `None` when a value's type or
/// ordinal is outside its field.
fn encode(fields: &[Field], cols: &[Ordinals]) -> Option<Vec<u64>> {
    let fits = |(f, c): (&Field, &Ordinals)| c.range.is_none_or(|r| f.ty == Some(r.0));
    if !fields.iter().zip(cols).all(fits) {
        return None;
    }
    let mut norm = vec![0u64; cols.first().map_or(0, |c| c.ords.len())];
    for (f, c) in fields.iter().zip(cols) {
        for ((key, &o), &ok) in norm.iter_mut().zip(&c.ords).zip(&c.valid) {
            *key |= f.code(ok.then_some(o))? << f.shift;
        }
    }
    Some(norm)
}

/// The single ORDER BY key of one sorted partition as a RANGE offset bound
/// searches it: typed, NULLs set aside.
#[derive(Default)]
pub(crate) struct RangeKey {
    /// The non-NULL rows' keys in partition order.
    pub(crate) keys: RangeKeys,
    /// Partition position of `keys[0]`: NULLs sort to one end, so the
    /// non-NULL rows are the one span `first..first + keys.len()`.
    pub(crate) first: usize,
    /// The criterion is DESC (`keys` descends).
    pub(crate) desc: bool,
}

/// Exact integers for Int / Date keys, floats once any key is one.
pub(crate) enum RangeKeys {
    Int(Vec<i64>),
    Float(Vec<f64>),
}

impl Default for RangeKeys {
    fn default() -> Self {
        RangeKeys::Int(Vec::new())
    }
}

impl RangeKeys {
    pub(crate) fn len(&self) -> usize {
        match self {
            RangeKeys::Int(ks) => ks.len(),
            RangeKeys::Float(ks) => ks.len(),
        }
    }
}

/// Materialized sort keys for every row of a table.
#[derive(Clone)]
pub struct KeyColumns {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// One normalized key per row: `norm[a].cmp(&norm[b])` is the whole
    /// comparison. The criteria's values are recoverable from the fields.
    Packed { norm: Vec<u64>, fields: Vec<Field> },
    /// `(values per row, desc, nulls_first)` per criterion, compared with
    /// `sql_cmp`: the definition, and the path for keys that do not pack.
    Values(Vec<(Vec<Value>, bool, bool)>),
}

/// Rows `from..` of every criterion's key column, through the VM.
fn key_columns<'t>(
    table: &'t Table,
    sort_keys: &[SortKey],
    from: usize,
) -> Result<Vec<Cow<'t, Column>>> {
    let sel = RowSel::Span(from, table.num_rows());
    sort_keys.iter().map(|sk| vm::eval(&sk.expr.bind(table)?, table, sel)).collect()
}

fn flags(sort_keys: &[SortKey]) -> Vec<(bool, bool)> {
    sort_keys.iter().map(|sk| (sk.desc, sk.nulls_first)).collect()
}

fn values_repr(values: impl Iterator<Item = Vec<Value>>, sort_keys: &[SortKey]) -> Repr {
    Repr::Values(values.zip(sort_keys).map(|(v, sk)| (v, sk.desc, sk.nulls_first)).collect())
}

fn pack(cols: &[Ordinals], flags: &[(bool, bool)], headroom: bool) -> Option<Repr> {
    let fields = layout(cols, flags, headroom)?;
    let norm = encode(&fields, cols).expect("the layout covers every ordinal it was built from");
    Some(Repr::Packed { norm, fields })
}

impl KeyColumns {
    /// Evaluates `sort_keys` for every row of `table`, as normalized integer
    /// keys when the criteria pack into 64 bits and as `Value` columns
    /// otherwise; the choice depends on the key data alone.
    pub fn evaluate(table: &Table, sort_keys: &[SortKey]) -> Result<Self> {
        let cols = key_columns(table, sort_keys, 0)?;
        let packed = cols
            .iter()
            .map(|c| Ordinals::of_column(c))
            .collect::<Option<Vec<Ordinals>>>()
            .and_then(|ords| pack(&ords, &flags(sort_keys), false));
        let repr =
            packed.unwrap_or_else(|| values_repr(cols.iter().map(|c| c.to_values()), sort_keys));
        Ok(KeyColumns { repr })
    }

    /// Evaluates `sort_keys` row by row through the per-row interpreter, as
    /// `Value` columns compared with `sql_cmp`, never normalized: the
    /// semantic definition that the naive oracle and the equivalence tests
    /// hold the normalized keys against.
    pub fn evaluate_comparator(table: &Table, sort_keys: &[SortKey]) -> Result<Self> {
        let mut values = Vec::with_capacity(sort_keys.len());
        for sk in sort_keys {
            let bound = sk.expr.bind(table)?;
            values
                .push((0..table.num_rows()).map(|r| bound.eval(table, r)).collect::<Result<_>>()?);
        }
        Ok(KeyColumns { repr: values_repr(values.into_iter(), sort_keys) })
    }

    /// Extends already-materialized key columns with rows `from_row..` of a
    /// grown table — the O(b) append path: only the new rows are evaluated
    /// and, while they fit the key layout, encoded. A batch outside the
    /// layout re-packs all rows once with the spare bits as headroom (or
    /// falls back to `Value` columns when 64 bits no longer suffice).
    /// `sort_keys` must be the criteria this instance was built from.
    pub fn extend(&mut self, table: &Table, sort_keys: &[SortKey], from_row: usize) -> Result<()> {
        let batch = key_columns(table, sort_keys, from_row)?;
        let (norm, fields) = match &mut self.repr {
            Repr::Values(keys) => {
                debug_assert_eq!(keys.len(), sort_keys.len());
                for ((vals, _, _), more) in keys.iter_mut().zip(&batch) {
                    vals.extend(more.to_values());
                }
                return Ok(());
            }
            Repr::Packed { norm, fields } => (norm, fields),
        };
        let more: Option<Vec<Ordinals>> = batch.iter().map(|c| Ordinals::of_column(c)).collect();
        if let Some(codes) = more.as_ref().and_then(|more| encode(fields, more)) {
            norm.extend(codes);
            return Ok(());
        }
        let old = || fields.iter().map(|f| f.unpack(norm));
        let repacked = more.and_then(|more| {
            let all: Vec<Ordinals> =
                old().zip(more).map(|(o, m)| o.concat(m)).collect::<Option<_>>()?;
            pack(&all, &flags(sort_keys), true)
        });
        self.repr = repacked.unwrap_or_else(|| {
            let values = old().zip(&batch).map(|(o, more)| {
                let mut vals = o.into_values();
                vals.extend(more.to_values());
                vals
            });
            values_repr(values, sort_keys)
        });
        Ok(())
    }

    /// True when there are no criteria (every row is a peer of every other).
    pub fn is_trivial(&self) -> bool {
        matches!(&self.repr, Repr::Values(keys) if keys.is_empty())
    }

    /// Footprint in bytes of the materialized keys: the normalized key
    /// column, or the `Value` spines plus the string heap behind `Arc<str>`
    /// keys, counted once per owned reference (see [`Value::heap_bytes`]).
    /// The per-ref count is a deliberate upper bound — it prices what keeping
    /// these columns alive keeps alive, which is what a memory budget must
    /// charge for.
    pub fn bytes(&self) -> usize {
        match &self.repr {
            Repr::Packed { norm, fields } => {
                std::mem::size_of_val(&norm[..]) + std::mem::size_of_val(&fields[..])
            }
            Repr::Values(keys) => keys
                .iter()
                .map(|(vals, _, _)| {
                    std::mem::size_of_val(&vals[..])
                        + vals.iter().map(Value::heap_bytes).sum::<usize>()
                })
                .sum(),
        }
    }

    /// Compares two rows under the full criteria list.
    #[inline]
    pub fn cmp_rows(&self, a: usize, b: usize) -> Ordering {
        match &self.repr {
            Repr::Packed { norm, .. } => norm[a].cmp(&norm[b]),
            Repr::Values(keys) => cmp_values(keys, a, b),
        }
    }

    /// True when two rows are peers (equal under every criterion).
    #[inline]
    pub fn rows_equal(&self, a: usize, b: usize) -> bool {
        self.cmp_rows(a, b) == Ordering::Equal
    }

    /// The keys of `rows` — a partition sorted by these criteria — for RANGE
    /// offset bounds, which SQL restricts to exactly one numeric criterion.
    /// Normalized keys decode straight from the field's ordinals into the
    /// typed vector; no `Value` is built.
    pub(crate) fn range_key(&self, rows: &[usize]) -> Result<RangeKey> {
        let unsupported = |what| {
            Error::Unsupported(format!("RANGE frames with offsets require {what} ORDER BY key"))
        };
        match &self.repr {
            Repr::Packed { norm, fields } => {
                let [f] = fields[..] else { return Err(unsupported("exactly one")) };
                let ords = rows.iter().map(|&row| f.ordinal_in(norm[row]));
                let first = ords.clone().take_while(Option::is_none).count();
                let mut ords = ords.flatten();
                let keys = match f.ty {
                    Some(DataType::Float) => {
                        RangeKeys::Float(ords.map(float_from_ordinal).collect())
                    }
                    // A NULL has no type to object to.
                    Some(DataType::Bool | DataType::Str) if ords.next().is_some() => {
                        return Err(unsupported("a numeric"))
                    }
                    // Int and Date; nothing is left to decode in the other cases.
                    _ => RangeKeys::Int(ords.map(int_from_ordinal).collect()),
                };
                Ok(RangeKey { keys, first, desc: f.desc })
            }
            Repr::Values(keys) => {
                let [(vals, desc, _)] = &keys[..] else { return Err(unsupported("exactly one")) };
                let first = rows.iter().take_while(|&&row| vals[row].is_null()).count();
                let vals = || rows.iter().map(|&row| &vals[row]).filter(|v| !v.is_null());
                let keys = match vals().map(Value::as_i64).collect() {
                    Some(ints) => RangeKeys::Int(ints),
                    None => RangeKeys::Float(
                        vals()
                            .map(Value::as_f64)
                            .collect::<Option<_>>()
                            .ok_or_else(|| unsupported("a numeric"))?,
                    ),
                };
                Ok(RangeKey { keys, first, desc: *desc })
            }
        }
    }

    /// The key value of the single criterion for row `i` and whether the
    /// criterion is DESC: what the append path encodes a forest call's
    /// inner ORDER BY key from, row by row. (RANGE frames read the key
    /// typed and once per partition, through the crate-private `range_key`.)
    pub fn single_key(&self, i: usize) -> Option<(Value, bool)> {
        match &self.repr {
            Repr::Packed { norm, fields } => match fields[..] {
                [f] => {
                    let v = f
                        .ordinal_in(norm[i])
                        .zip(f.ty)
                        .map_or(Value::Null, |(o, ty)| value_of(ty, o));
                    Some((v, f.desc))
                }
                _ => None,
            },
            Repr::Values(keys) => match &keys[..] {
                [(vals, desc, _)] => Some((vals[i].clone(), *desc)),
                _ => None,
            },
        }
    }

    /// The normalized keys and an upper bound on their significant bits.
    fn normalized(&self) -> Option<(&[u64], u32)> {
        match &self.repr {
            Repr::Packed { norm, fields } => Some((norm, fields[0].shift + fields[0].width())),
            Repr::Values(_) => None,
        }
    }
}

/// The comparator: `sql_cmp` per criterion, reversed under DESC, NULLs at the
/// end NULLS FIRST/LAST names.
fn cmp_values(keys: &[(Vec<Value>, bool, bool)], a: usize, b: usize) -> Ordering {
    for (vals, desc, nulls_first) in keys {
        let (va, vb) = (&vals[a], &vals[b]);
        let ord = match (va.is_null(), vb.is_null()) {
            (true, true) => Ordering::Equal,
            (true, false) => {
                if *nulls_first {
                    Ordering::Less
                } else {
                    Ordering::Greater
                }
            }
            (false, true) => {
                if *nulls_first {
                    Ordering::Greater
                } else {
                    Ordering::Less
                }
            }
            (false, false) => {
                let o = va.sql_cmp(vb);
                if *desc {
                    o.reverse()
                } else {
                    o
                }
            }
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Sorts `rows` (indices into the table) by `keys`, ties broken by the row
/// index, so the result is unique. This is the window operator's ORDER BY
/// phase; it reuses the engine's integer sorter as the paper reuses Hyper's
/// (§5.3).
pub fn sort_permutation(keys: &KeyColumns, rows: &mut [usize], parallel: bool) {
    let Some((norm, bits)) = keys.normalized() else {
        let cmp = |&a: &usize, &b: &usize| keys.cmp_rows(a, b).then_with(|| a.cmp(&b));
        if parallel && rows.len() >= 4096 {
            rows.par_sort_unstable_by(cmp);
        } else {
            rows.sort_unstable_by(cmp);
        }
        return;
    };
    sort_rows(rows, norm, bits, parallel);
}

/// Dense code preprocessing (Figure 8): the inner ORDER BY sort and its
/// tie-group numbering.
///
/// `rows[pos]` maps partition positions to table rows; the returned codes are
/// in *position* space (0-based positions within the sorted partition), ready
/// to feed into a merge sort tree.
pub fn dense_codes_for(keys: &KeyColumns, rows: &[usize], parallel: bool) -> DenseCodes {
    let n = rows.len();
    let Some((norm, bits)) = keys.normalized() else {
        let mut perm: Vec<usize> = (0..n).collect();
        let cmp = |&a: &usize, &b: &usize| keys.cmp_rows(rows[a], rows[b]).then_with(|| a.cmp(&b));
        if parallel && n >= 4096 {
            perm.par_sort_unstable_by(cmp);
        } else {
            perm.sort_unstable_by(cmp);
        }
        return DenseCodes::from_sorted(perm, |perm, r| {
            keys.rows_equal(rows[perm[r]], rows[perm[r - 1]])
        });
    };
    let pairs = rows.iter().enumerate().map(|(pos, &row)| (norm[row], pos)).collect();
    let sorted = sort_pairs(pairs, bits, parallel);
    let perm = sorted.iter().map(|&(_, pos)| pos).collect();
    DenseCodes::from_sorted(perm, |_, r| sorted[r].0 == sorted[r - 1].0)
}

/// Peer group boundaries of an already-sorted position range: for each
/// position, the `[start, end)` of its group of equals under `keys`.
pub fn peer_bounds(keys: &KeyColumns, rows: &[usize]) -> (Vec<usize>, Vec<usize>) {
    let n = rows.len();
    let mut start = vec![0usize; n];
    let mut end = vec![0usize; n];
    let mut g = 0;
    while g < n {
        let mut e = g + 1;
        while e < n && keys.rows_equal(rows[e], rows[g]) {
            e += 1;
        }
        for s in g..e {
            start[s] = g;
            end[s] = e;
        }
        g = e;
    }
    (start, end)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::expr::col;

    fn table() -> Table {
        Table::new(vec![
            ("k", Column::ints_opt(vec![Some(3), Some(1), None, Some(3), Some(2)])),
            ("t", Column::ints(vec![0, 1, 2, 3, 4])),
        ])
        .unwrap()
    }

    #[test]
    fn asc_sorts_nulls_last() {
        let t = table();
        let keys = KeyColumns::evaluate(&t, &[SortKey::asc(col("k"))]).unwrap();
        let mut rows: Vec<usize> = (0..5).collect();
        sort_permutation(&keys, &mut rows, false);
        assert_eq!(rows, vec![1, 4, 0, 3, 2]);
    }

    #[test]
    fn desc_sorts_nulls_first() {
        let t = table();
        let keys = KeyColumns::evaluate(&t, &[SortKey::desc(col("k"))]).unwrap();
        let mut rows: Vec<usize> = (0..5).collect();
        sort_permutation(&keys, &mut rows, false);
        assert_eq!(rows, vec![2, 0, 3, 4, 1]);
    }

    #[test]
    fn nulls_first_override() {
        let t = table();
        let keys = KeyColumns::evaluate(&t, &[SortKey::asc(col("k")).nulls_first(true)]).unwrap();
        let mut rows: Vec<usize> = (0..5).collect();
        sort_permutation(&keys, &mut rows, false);
        assert_eq!(rows, vec![2, 1, 4, 0, 3]);
    }

    #[test]
    fn multi_key_comparison() {
        let t = Table::new(vec![
            ("a", Column::ints(vec![1, 1, 2])),
            ("b", Column::ints(vec![9, 3, 0])),
        ])
        .unwrap();
        let keys =
            KeyColumns::evaluate(&t, &[SortKey::asc(col("a")), SortKey::desc(col("b"))]).unwrap();
        let mut rows: Vec<usize> = (0..3).collect();
        sort_permutation(&keys, &mut rows, false);
        assert_eq!(rows, vec![0, 1, 2]); // (1,9) < (1,3) under b DESC, then (2,0)
    }

    #[test]
    fn dense_codes_over_rows() {
        let t = table();
        let keys = KeyColumns::evaluate(&t, &[SortKey::asc(col("k"))]).unwrap();
        // Partition = rows [0, 1, 3, 4] in this order (values 3, 1, 3, 2).
        let rows = vec![0usize, 1, 3, 4];
        let dc = dense_codes_for(&keys, &rows, false);
        assert_eq!(dc.perm, vec![1, 3, 0, 2]); // positions sorted: 1 (v1), 3 (v2), 0, 2 (v3, v3)
        assert_eq!(dc.code, vec![2, 0, 3, 1]);
        assert_eq!(dc.group_min, vec![2, 0, 2, 1]);
        assert_eq!(dc.group_end, vec![4, 1, 4, 2]);
        assert_eq!(dc.num_groups, 3);
    }

    #[test]
    fn peer_bounds_group_equal_keys() {
        let t = Table::new(vec![("k", Column::ints(vec![5, 5, 7, 7, 7, 9]))]).unwrap();
        let keys = KeyColumns::evaluate(&t, &[SortKey::asc(col("k"))]).unwrap();
        let rows: Vec<usize> = (0..6).collect();
        let (start, end) = peer_bounds(&keys, &rows);
        assert_eq!(start, vec![0, 0, 2, 2, 2, 5]);
        assert_eq!(end, vec![2, 2, 5, 5, 5, 6]);
    }

    #[test]
    fn bytes_counts_string_heap_payloads() {
        // Regression: `bytes()` used to count only the `Value` spine, so
        // string-key partitions under-reported footprints and a memory
        // budget would be blown silently.
        let payloads = ["a long order-by key that clearly dwarfs the spine"; 64];
        let t = Table::new(vec![("s", Column::strs(payloads.to_vec()))]).unwrap();
        let keys = KeyColumns::evaluate(&t, &[SortKey::asc(col("s"))]).unwrap();
        let payload_total: usize = payloads.iter().map(|s| s.len()).sum();
        assert!(
            keys.bytes() >= payload_total,
            "footprint {} must cover {} heap bytes",
            keys.bytes(),
            payload_total
        );
        // And the spine is still counted on top of the payload.
        assert!(keys.bytes() >= payload_total + 64 * std::mem::size_of::<Value>());

        // Integer keys hold one normalized `u64` per row however many
        // criteria there are, and no `Value` spine.
        let t = Table::new(vec![
            ("a", Column::ints((0..64).collect())),
            ("d", Column::dates((0..64).collect())),
        ])
        .unwrap();
        let keys =
            KeyColumns::evaluate(&t, &[SortKey::asc(col("a")), SortKey::desc(col("d"))]).unwrap();
        assert!(keys.bytes() >= 64 * std::mem::size_of::<u64>());
        assert!(keys.bytes() < 64 * std::mem::size_of::<Value>());
    }

    #[test]
    fn range_compression_sets_the_key_width() {
        // Seven years of dates plus the NULL code: 12 bits, not 64.
        let t = Table::new(vec![
            ("d", Column::dates((8_036..10_562).collect())),
            ("b", Column::bools(vec![true; 2_526])),
        ])
        .unwrap();
        let width =
            |keys: &[SortKey]| KeyColumns::evaluate(&t, keys).unwrap().normalized().unwrap().1;
        assert_eq!(width(&[SortKey::asc(col("d"))]), 12);
        assert_eq!(width(&[SortKey::desc(col("d")), SortKey::asc(col("b"))]), 13);
        // Expressions pack like columns; strings do not pack at all.
        assert_eq!(width(&[SortKey::asc(col("d").sub(crate::expr::lit(8_000i64)))]), 12);
        let s = Table::new(vec![("s", Column::strs(vec!["x", "y"]))]).unwrap();
        assert!(KeyColumns::evaluate(&s, &[SortKey::asc(col("s"))])
            .unwrap()
            .normalized()
            .is_none());
    }

    #[test]
    fn empty_order_by_makes_everything_peers() {
        let t = table();
        let keys = KeyColumns::evaluate(&t, &[]).unwrap();
        assert!(keys.is_trivial());
        let rows: Vec<usize> = (0..5).collect();
        let (start, end) = peer_bounds(&keys, &rows);
        assert!(start.iter().all(|&s| s == 0));
        assert!(end.iter().all(|&e| e == 5));
    }
}
