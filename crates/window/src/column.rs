//! Columnar storage.

use crate::error::{Error, Result};
use crate::value::{DataType, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// A typed column with a validity mask.
///
/// Storage is dense (one slot per row); `valid[i] == false` marks NULL. The
/// validity vector is omitted (empty) when no NULLs exist.
#[derive(Debug, Clone)]
pub enum Column {
    /// 64-bit integers.
    Int(Vec<i64>, Validity),
    /// 64-bit floats.
    Float(Vec<f64>, Validity),
    /// Strings.
    Str(Vec<Arc<str>>, Validity),
    /// Days since epoch.
    Date(Vec<i32>, Validity),
    /// Booleans.
    Bool(Vec<bool>, Validity),
}

/// NULL mask: empty means "all valid".
pub type Validity = Vec<bool>;

/// The error of offering a column a value its type does not accept.
fn push_type_error(got: &'static str) -> Error {
    Error::TypeMismatch { expected: "column element", got, context: "Column::push" }
}

/// Appends one row, `None` for NULL, with `null()` as the data under a NULL
/// and the validity left empty until the first NULL: how [`Column::push`]
/// stores a row.
fn push_opt<T>(data: &mut Vec<T>, valid: &mut Validity, item: Option<T>, null: impl FnOnce() -> T) {
    match item {
        Some(x) => {
            if !valid.is_empty() {
                valid.push(true);
            }
            data.push(x);
        }
        None => {
            if valid.is_empty() {
                valid.resize(data.len(), true);
            }
            valid.push(false);
            data.push(null());
        }
    }
}

/// Data and validity from one item per row, `None` for NULL, as pushing
/// them one by one stores them.
fn unzip_opts<T>(
    items: impl Iterator<Item = Option<T>>,
    null: impl Fn() -> T,
) -> (Vec<T>, Validity) {
    let mut data = Vec::with_capacity(items.size_hint().0);
    let mut valid = Vec::new();
    for item in items {
        push_opt(&mut data, &mut valid, item, &null);
    }
    (data, valid)
}

impl Column {
    /// Builds an integer column without NULLs.
    pub fn ints(v: Vec<i64>) -> Self {
        Column::Int(v, Vec::new())
    }

    /// Builds a float column without NULLs.
    pub fn floats(v: Vec<f64>) -> Self {
        Column::Float(v, Vec::new())
    }

    /// Builds a date column without NULLs.
    pub fn dates(v: Vec<i32>) -> Self {
        Column::Date(v, Vec::new())
    }

    /// Builds a string column without NULLs.
    pub fn strs<S: Into<Arc<str>>>(v: Vec<S>) -> Self {
        Column::Str(v.into_iter().map(Into::into).collect(), Vec::new())
    }

    /// Builds a bool column without NULLs.
    pub fn bools(v: Vec<bool>) -> Self {
        Column::Bool(v, Vec::new())
    }

    /// Builds an integer column from options.
    pub fn ints_opt(v: Vec<Option<i64>>) -> Self {
        Column::from_ints(v)
    }

    /// Builds a float column from options.
    pub fn floats_opt(v: Vec<Option<f64>>) -> Self {
        Column::from_floats(v)
    }

    /// An integer column from one option per row, `None` for NULL.
    pub(crate) fn from_ints(v: impl IntoIterator<Item = Option<i64>>) -> Self {
        let (d, valid) = unzip_opts(v.into_iter(), || 0);
        Column::Int(d, valid)
    }

    /// A float column from one option per row, `None` for NULL.
    pub(crate) fn from_floats(v: impl IntoIterator<Item = Option<f64>>) -> Self {
        let (d, valid) = unzip_opts(v.into_iter(), || 0.0);
        Column::Float(d, valid)
    }

    /// A date column from one option per row, `None` for NULL.
    pub(crate) fn from_dates(v: impl IntoIterator<Item = Option<i32>>) -> Self {
        let (d, valid) = unzip_opts(v.into_iter(), || 0);
        Column::Date(d, valid)
    }

    /// A bool column from one option per row, `None` for NULL.
    pub(crate) fn from_bools(v: impl IntoIterator<Item = Option<bool>>) -> Self {
        let (d, valid) = unzip_opts(v.into_iter(), || false);
        Column::Bool(d, valid)
    }

    /// Builds a column from dynamically typed values (type inferred from the
    /// first non-null; all-null columns become Int).
    pub fn from_values(values: &[Value]) -> Result<Self> {
        let dt = values.iter().find_map(Value::data_type).unwrap_or(DataType::Int);
        let mut col = Column::new_empty(dt);
        for v in values {
            col.push(v.clone())?;
        }
        Ok(col)
    }

    /// An empty column of the given type.
    pub fn new_empty(dt: DataType) -> Self {
        match dt {
            DataType::Int => Column::Int(Vec::new(), Vec::new()),
            DataType::Float => Column::Float(Vec::new(), Vec::new()),
            DataType::Str => Column::Str(Vec::new(), Vec::new()),
            DataType::Date => Column::Date(Vec::new(), Vec::new()),
            DataType::Bool => Column::Bool(Vec::new(), Vec::new()),
        }
    }

    /// `n` rows of `push`'s NULL data, all valid.
    fn zeroed(dt: DataType, n: usize) -> Self {
        match dt {
            DataType::Int => Column::Int(vec![0; n], Vec::new()),
            DataType::Float => Column::Float(vec![0.0; n], Vec::new()),
            DataType::Str => Column::Str(vec![Arc::from(""); n], Vec::new()),
            DataType::Date => Column::Date(vec![0; n], Vec::new()),
            DataType::Bool => Column::Bool(vec![false; n], Vec::new()),
        }
    }

    /// Appends a value (NULL or matching type).
    pub fn push(&mut self, v: Value) -> Result<()> {
        match (self, v) {
            (Column::Int(d, va), Value::Int(x)) => push_opt(d, va, Some(x), || 0),
            (Column::Int(d, va), Value::Null) => push_opt(d, va, None, || 0),
            (Column::Float(d, va), Value::Float(x)) => push_opt(d, va, Some(x), || 0.0),
            (Column::Float(d, va), Value::Int(x)) => push_opt(d, va, Some(x as f64), || 0.0),
            (Column::Float(d, va), Value::Null) => push_opt(d, va, None, || 0.0),
            (Column::Str(d, va), Value::Str(x)) => push_opt(d, va, Some(x), || Arc::from("")),
            (Column::Str(d, va), Value::Null) => push_opt(d, va, None, || Arc::from("")),
            (Column::Date(d, va), Value::Date(x)) => push_opt(d, va, Some(x), || 0),
            (Column::Date(d, va), Value::Null) => push_opt(d, va, None, || 0),
            (Column::Bool(d, va), Value::Bool(x)) => push_opt(d, va, Some(x), || false),
            (Column::Bool(d, va), Value::Null) => push_opt(d, va, None, || false),
            (_, v) => return Err(push_type_error(v.type_name())),
        }
        Ok(())
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(d, _) => d.len(),
            Column::Float(d, _) => d.len(),
            Column::Str(d, _) => d.len(),
            Column::Date(d, _) => d.len(),
            Column::Bool(d, _) => d.len(),
        }
    }

    /// True when no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int(..) => DataType::Int,
            Column::Float(..) => DataType::Float,
            Column::Str(..) => DataType::Str,
            Column::Date(..) => DataType::Date,
            Column::Bool(..) => DataType::Bool,
        }
    }

    /// The NULL mask (empty when no row is NULL).
    #[inline]
    pub(crate) fn validity(&self) -> &Validity {
        match self {
            Column::Int(_, v) | Column::Date(_, v) => v,
            Column::Float(_, v) => v,
            Column::Str(_, v) => v,
            Column::Bool(_, v) => v,
        }
    }

    /// True when row `i` is valid (non-NULL).
    #[inline]
    pub fn is_valid(&self, i: usize) -> bool {
        let v = self.validity();
        v.is_empty() || v[i]
    }

    /// True when some row holds a value.
    pub(crate) fn any_valid(&self) -> bool {
        let v = self.validity();
        !self.is_empty() && (v.is_empty() || v.contains(&true))
    }

    /// Heap bytes: the data, the validity and every string's payload (each
    /// row's own reference counted, as [`Value::heap_bytes`] counts it).
    pub(crate) fn bytes(&self) -> usize {
        let data = match self {
            Column::Int(d, _) => std::mem::size_of_val(d.as_slice()),
            Column::Float(d, _) => std::mem::size_of_val(d.as_slice()),
            Column::Str(d, _) => {
                std::mem::size_of_val(d.as_slice()) + d.iter().map(|s| s.len()).sum::<usize>()
            }
            Column::Date(d, _) => std::mem::size_of_val(d.as_slice()),
            Column::Bool(d, _) => std::mem::size_of_val(d.as_slice()),
        };
        data + self.validity().len()
    }

    /// Row `i` as [`Value::as_f64`] reads it: ints, floats and dates.
    #[inline]
    pub(crate) fn f64_at(&self, i: usize) -> Option<f64> {
        if !self.is_valid(i) {
            return None;
        }
        match self {
            Column::Int(d, _) => Some(d[i] as f64),
            Column::Float(d, _) => Some(d[i]),
            Column::Date(d, _) => Some(d[i] as f64),
            Column::Str(..) | Column::Bool(..) => None,
        }
    }

    /// Row `i` as [`Value::as_i64`] reads it: ints and dates.
    #[inline]
    pub(crate) fn i64_at(&self, i: usize) -> Option<i64> {
        if !self.is_valid(i) {
            return None;
        }
        match self {
            Column::Int(d, _) => Some(d[i]),
            Column::Date(d, _) => Some(d[i] as i64),
            _ => None,
        }
    }

    /// The type name (`"null"` for NULL) of the first row whose type — `None`
    /// for NULL — `fits` rejects: what a type check over the rows' values
    /// reports first.
    pub(crate) fn first_misfit(
        &self,
        fits: impl Fn(Option<DataType>) -> bool,
    ) -> Option<&'static str> {
        let dt = self.data_type();
        if self.validity().is_empty() {
            return (!self.is_empty() && !fits(Some(dt))).then(|| dt.name());
        }
        (0..self.len())
            .map(|i| self.is_valid(i).then_some(dt))
            .find(|t| !fits(*t))
            .map(|t| t.map_or("null", DataType::name))
    }

    /// Rows `i` and `j` in [`Value::sql_cmp`]'s order: NULLs equal to each
    /// other and after every value, floats by `total_cmp`.
    pub(crate) fn cmp_rows(&self, i: usize, j: usize) -> Ordering {
        match (self.is_valid(i), self.is_valid(j)) {
            (false, false) => return Ordering::Equal,
            (false, true) => return Ordering::Greater,
            (true, false) => return Ordering::Less,
            (true, true) => {}
        }
        match self {
            Column::Int(d, _) => d[i].cmp(&d[j]),
            Column::Float(d, _) => d[i].total_cmp(&d[j]),
            Column::Str(d, _) => d[i].cmp(&d[j]),
            Column::Date(d, _) => d[i].cmp(&d[j]),
            Column::Bool(d, _) => d[i].cmp(&d[j]),
        }
    }

    /// Whether [`Column::extend_from`] takes `src`: the error `push` raises
    /// on the first row of `src` it refuses, checked once per column rather
    /// than per value. `src` fits when it has this column's type, is `Int`
    /// going into `Float`, or holds no non-NULL row; otherwise the first row
    /// `push` refuses is the first non-NULL one, whose type is `src`'s.
    pub(crate) fn check_extend(&self, src: &Column) -> Result<()> {
        let (to, from) = (self.data_type(), src.data_type());
        if to == from || (to == DataType::Float && from == DataType::Int) || !src.any_valid() {
            return Ok(());
        }
        Err(push_type_error(from.name()))
    }

    /// Appends every row of `src` in place, with the values and validity
    /// pushing each row in turn would give, at a cost in the rows of `src`
    /// alone. [`Column::check_extend`] must have passed. The data under
    /// `src`'s NULL rows is copied as it is.
    pub(crate) fn extend_from(&mut self, src: &Column) {
        fn ext<T>(
            data: &mut Vec<T>,
            valid: &mut Validity,
            src: impl Iterator<Item = T>,
            sv: &Validity,
        ) {
            // `push` materializes the validity at the first NULL; an empty
            // column's validity is empty either way, so test the NULL.
            let materialized = !valid.is_empty() || sv.contains(&false);
            if materialized {
                valid.resize(data.len(), true);
            }
            data.extend(src);
            if materialized {
                if sv.is_empty() {
                    valid.resize(data.len(), true);
                } else {
                    valid.extend_from_slice(sv);
                }
            }
        }
        debug_assert!(self.check_extend(src).is_ok());
        match (&mut *self, src) {
            (Column::Int(d, v), Column::Int(s, sv)) => ext(d, v, s.iter().copied(), sv),
            (Column::Float(d, v), Column::Float(s, sv)) => ext(d, v, s.iter().copied(), sv),
            (Column::Float(d, v), Column::Int(s, sv)) => ext(d, v, s.iter().map(|&x| x as f64), sv),
            (Column::Str(d, v), Column::Str(s, sv)) => ext(d, v, s.iter().cloned(), sv),
            (Column::Date(d, v), Column::Date(s, sv)) => ext(d, v, s.iter().copied(), sv),
            (Column::Bool(d, v), Column::Bool(s, sv)) => ext(d, v, s.iter().copied(), sv),
            // All NULL, of another type: a NULL fits every column.
            (dst, src) => {
                for _ in 0..src.len() {
                    dst.push(Value::Null).expect("a NULL fits every column");
                }
            }
        }
    }

    /// Row `i` as a [`Value`].
    #[inline]
    pub fn get(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match self {
            Column::Int(d, _) => Value::Int(d[i]),
            Column::Float(d, _) => Value::Float(d[i]),
            Column::Str(d, _) => Value::Str(d[i].clone()),
            Column::Date(d, _) => Value::Date(d[i]),
            Column::Bool(d, _) => Value::Bool(d[i]),
        }
    }

    /// All rows as values (convenience for tests and small outputs).
    pub fn to_values(&self) -> Vec<Value> {
        (0..self.len()).map(|i| self.get(i)).collect()
    }

    /// Rows `[a, b)` as a new column of the *same* type, validity preserved.
    /// Unlike a [`Column::from_values`] round-trip, slicing never re-infers
    /// the type, so an all-NULL or empty slice keeps the source type — which
    /// is what makes sliced batches push-compatible with their source (see
    /// [`crate::table::Table::slice_rows`]).
    pub fn slice(&self, a: usize, b: usize) -> Column {
        fn vslice(valid: &Validity, a: usize, b: usize) -> Validity {
            if valid.is_empty() {
                Vec::new()
            } else {
                let s = valid[a..b].to_vec();
                if s.iter().all(|&x| x) {
                    Vec::new()
                } else {
                    s
                }
            }
        }
        match self {
            Column::Int(d, v) => Column::Int(d[a..b].to_vec(), vslice(v, a, b)),
            Column::Float(d, v) => Column::Float(d[a..b].to_vec(), vslice(v, a, b)),
            Column::Str(d, v) => Column::Str(d[a..b].to_vec(), vslice(v, a, b)),
            Column::Date(d, v) => Column::Date(d[a..b].to_vec(), vslice(v, a, b)),
            Column::Bool(d, v) => Column::Bool(d[a..b].to_vec(), vslice(v, a, b)),
        }
    }

    /// The rows where `keep` is true, in order, as a column of the same type:
    /// exactly what pushing each kept row's value into an empty column of
    /// this type builds — its validity empty unless a kept row is NULL, and
    /// `push`'s data under every NULL.
    pub fn filter(&self, keep: &[bool]) -> Column {
        debug_assert_eq!(keep.len(), self.len());
        self.gather(keep.iter().enumerate().filter(|&(_, &k)| k).map(|(i, _)| Some(i)))
    }

    /// The column whose row `k` is row `picks[k]` of this one, or NULL for a
    /// `None` pick: the same type, its validity empty unless a picked row is
    /// NULL, and `push`'s data under every NULL — what pushing the picked
    /// rows' values into an empty column of this type builds.
    pub fn gather(&self, picks: impl Iterator<Item = Option<usize>>) -> Column {
        fn pick<T: Clone>(
            d: &[T],
            v: &Validity,
            picks: impl Iterator<Item = Option<usize>>,
            null: impl Fn() -> T,
        ) -> (Vec<T>, Validity) {
            let cell = |r: usize| (v.is_empty() || v[r]).then(|| d[r].clone());
            unzip_opts(picks.map(|p| p.and_then(cell)), null)
        }
        match self {
            Column::Int(d, v) => {
                let (d, v) = pick(d, v, picks, || 0);
                Column::Int(d, v)
            }
            Column::Float(d, v) => {
                let (d, v) = pick(d, v, picks, || 0.0);
                Column::Float(d, v)
            }
            Column::Str(d, v) => {
                let empty: Arc<str> = Arc::from("");
                let (d, v) = pick(d, v, picks, || Arc::clone(&empty));
                Column::Str(d, v)
            }
            Column::Date(d, v) => {
                let (d, v) = pick(d, v, picks, || 0);
                Column::Date(d, v)
            }
            Column::Bool(d, v) => {
                let (d, v) = pick(d, v, picks, || false);
                Column::Bool(d, v)
            }
        }
    }
}

/// Row `i` of `a` and row `j` of `b` are the same output: both NULL, floats
/// with equal bits, an int and a float equal under `total_cmp`, or equal
/// values of one other type — [`Value::sql_eq`], floats compared by bits.
fn same_cell(a: &Column, i: usize, b: &Column, j: usize) -> bool {
    match (a.is_valid(i), b.is_valid(j)) {
        (false, false) => return true,
        (true, true) => {}
        _ => return false,
    }
    match (a, b) {
        (Column::Int(x, _), Column::Int(y, _)) => x[i] == y[j],
        (Column::Float(x, _), Column::Float(y, _)) => x[i].to_bits() == y[j].to_bits(),
        (Column::Int(x, _), Column::Float(y, _)) => (x[i] as f64).total_cmp(&y[j]).is_eq(),
        (Column::Float(x, _), Column::Int(y, _)) => x[i].total_cmp(&(y[j] as f64)).is_eq(),
        (Column::Str(x, _), Column::Str(y, _)) => x[i] == y[j],
        (Column::Date(x, _), Column::Date(y, _)) => x[i] == y[j],
        (Column::Bool(x, _), Column::Bool(y, _)) => x[i] == y[j],
        _ => false,
    }
}

/// One call's outputs over a partition or segment batch, in position order.
/// A call's outputs share one type, except where SQL lets them mix two: a
/// LEAD/LAG default of another type than its argument, or an integer
/// `SUM(DISTINCT)` that degrades to a float past `i64`. Those keep the
/// second type in a lane of their own, so that [`ColumnScatter`] can apply
/// the result column's typing rules in table-row order.
#[derive(Debug, Clone)]
pub(crate) struct Outputs {
    /// The outputs of the call's own type; NULL where `other` holds one.
    pub main: Column,
    /// The outputs of the second type, NULL elsewhere.
    pub other: Option<Column>,
}

impl Default for Outputs {
    fn default() -> Self {
        Column::new_empty(DataType::Int).into()
    }
}

impl From<Column> for Outputs {
    fn from(main: Column) -> Self {
        Outputs { main, other: None }
    }
}

impl Outputs {
    /// `main`, overlaid by the values of `other` (of the same length); the
    /// second lane is dropped when it holds none.
    pub(crate) fn lanes(main: Column, other: Column) -> Self {
        debug_assert_eq!(main.len(), other.len());
        Outputs { main, other: other.any_valid().then_some(other) }
    }

    /// The lane holding position `i`'s output.
    fn lane(&self, i: usize) -> &Column {
        match &self.other {
            Some(o) if o.is_valid(i) => o,
            _ => &self.main,
        }
    }

    /// Whether position `i`'s output equals position `j`'s of `b`, floats bit
    /// for bit (the append engine's diff).
    pub(crate) fn same(&self, i: usize, b: &Outputs, j: usize) -> bool {
        same_cell(self.lane(i), i, b.lane(j), j)
    }

    /// Whether [`Outputs::extend`] takes a tail of type `dt`: outputs of one
    /// lane, of that type or none yet.
    pub(crate) fn takes(&self, dt: DataType) -> bool {
        self.other.is_none() && (self.main.is_empty() || self.main.data_type() == dt)
    }

    /// Appends `tail`'s outputs; [`Outputs::takes`] must accept its type.
    pub(crate) fn extend(&mut self, tail: Column) {
        debug_assert!(self.takes(tail.data_type()));
        if self.main.is_empty() {
            self.main = tail;
        } else {
            self.main.extend_from(&tail);
        }
    }
}

/// Assembles one output column of `n` rows from [`Outputs`] that arrive keyed
/// by table row, in any order — the window operator's scatter back to input
/// order. Every value is copied once from typed storage into pre-sized typed
/// storage, and [`ColumnScatter::finish`] yields exactly what
/// [`Column::from_values`] yields on the same values laid out in row order:
/// the type of the first non-NULL row, `Int` widened into a `Float` column, an
/// all-NULL column as `Int`, and the `TypeMismatch` of the first row that
/// type does not accept.
pub(crate) struct ColumnScatter {
    n: usize,
    /// Typed storage, allocated at the first non-NULL value. Its own validity
    /// stays empty until `finish`; NULL rows keep `push`'s NULL data.
    data: Option<Column>,
    /// Row validity, allocated (all true) at the first NULL.
    valid: Validity,
    /// Per value type (indexed as [`DataType::ALL`]): the lowest row holding
    /// a value of that type, `usize::MAX` when there is none. Row order is
    /// what `from_values` types the column and reports mismatches by.
    first_row: [usize; 5],
}

impl ColumnScatter {
    /// A scatter target for `n` rows; rows never written read as NULL-free
    /// defaults, so callers write every row.
    pub(crate) fn new(n: usize) -> Self {
        ColumnScatter { n, data: None, valid: Vec::new(), first_row: [usize::MAX; 5] }
    }

    /// Writes output `k` of `outs` to row `rows[k]`.
    pub(crate) fn write(&mut self, rows: &[usize], outs: &Outputs) {
        self.put(rows, &outs.main, true);
        if let Some(other) = &outs.other {
            self.put(rows, other, false);
        }
    }

    /// Writes row `k` of `src` to row `rows[k]`: a value sets the row, a NULL
    /// clears it when `nulls` (and is skipped otherwise).
    fn put(&mut self, rows: &[usize], src: &Column, nulls: bool) {
        fn copy<S, T>(dst: &mut [T], src: &[S], rows: &[usize], sv: &[bool], f: impl Fn(&S) -> T) {
            if sv.is_empty() {
                for (&row, x) in rows.iter().zip(src) {
                    dst[row] = f(x);
                }
            } else {
                for ((&row, x), _) in rows.iter().zip(src).zip(sv).filter(|(_, &ok)| ok) {
                    dst[row] = f(x);
                }
            }
        }
        debug_assert_eq!(rows.len(), src.len());
        let sv = src.validity().as_slice();
        if !sv.is_empty() {
            let n = self.n;
            for (&row, &ok) in rows.iter().zip(sv) {
                if !ok && nulls {
                    if self.valid.is_empty() {
                        self.valid = vec![true; n];
                    }
                    self.valid[row] = false;
                } else if ok && !self.valid.is_empty() {
                    self.valid[row] = true;
                }
            }
        } else if !self.valid.is_empty() {
            for &row in rows {
                self.valid[row] = true;
            }
        }
        let valid_rows = rows.iter().enumerate().filter(|&(k, _)| sv.is_empty() || sv[k]);
        let Some(first) = valid_rows.map(|(_, &row)| row).min() else { return };
        let ty = src.data_type();
        let seen = &mut self.first_row[ty as usize];
        *seen = (*seen).min(first);
        let n = self.n;
        let col = self.data.get_or_insert_with(|| Column::zeroed(ty, n));
        if let (Column::Int(ints, _), DataType::Float) = (&*col, ty) {
            // Row order decides between a widened Float column and a
            // mismatch, and only `finish` knows it: widen what is here and
            // keep going as Float.
            *col = Column::Float(ints.iter().map(|&i| i as f64).collect(), Vec::new());
        }
        match (col, src) {
            (Column::Int(d, _), Column::Int(s, _)) => copy(d, s, rows, sv, |&x| x),
            (Column::Float(d, _), Column::Float(s, _)) => copy(d, s, rows, sv, |&x| x),
            (Column::Float(d, _), Column::Int(s, _)) => copy(d, s, rows, sv, |&x| x as f64),
            (Column::Str(d, _), Column::Str(s, _)) => copy(d, s, rows, sv, Arc::clone),
            (Column::Date(d, _), Column::Date(s, _)) => copy(d, s, rows, sv, |&x| x),
            (Column::Bool(d, _), Column::Bool(s, _)) => copy(d, s, rows, sv, |&x| x),
            // A pair no row order reconciles: `finish` reports it.
            _ => {}
        }
    }

    /// The assembled column, or the error `Column::from_values` raises on the
    /// same values in row order.
    pub(crate) fn finish(mut self) -> Result<Column> {
        if self.valid.iter().all(|&ok| ok) {
            // Every NULL a lane wrote was overlaid by a value.
            self.valid = Vec::new();
        }
        let first_row = |t: &DataType| self.first_row[*t as usize];
        let seen = || DataType::ALL.into_iter().filter(|t| first_row(t) != usize::MAX);
        let Some(ty) = seen().min_by_key(first_row) else {
            // All NULL (every row cleared in `valid`), or no rows at all.
            return Ok(Column::Int(vec![0; self.n], self.valid));
        };
        let accepted = |t: &DataType| *t == ty || (ty == DataType::Float && *t == DataType::Int);
        if let Some(bad) = seen().filter(|t| !accepted(t)).min_by_key(first_row) {
            return Err(push_type_error(bad.name()));
        }
        let mut col = self.data.expect("a typed value was written");
        debug_assert_eq!(col.data_type(), ty);
        match &mut col {
            Column::Int(_, v) | Column::Date(_, v) => *v = self.valid,
            Column::Float(_, v) => *v = self.valid,
            Column::Str(_, v) => *v = self.valid,
            Column::Bool(_, v) => *v = self.valid,
        }
        Ok(col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_get_roundtrip() {
        let mut c = Column::new_empty(DataType::Int);
        c.push(Value::Int(5)).unwrap();
        c.push(Value::Null).unwrap();
        c.push(Value::Int(-3)).unwrap();
        assert_eq!(c.len(), 3);
        assert_eq!(c.get(0), Value::Int(5));
        assert_eq!(c.get(1), Value::Null);
        assert_eq!(c.get(2), Value::Int(-3));
        assert!(!c.is_valid(1) && c.is_valid(2));
    }

    #[test]
    fn validity_stays_empty_without_nulls() {
        let mut c = Column::new_empty(DataType::Float);
        c.push(Value::Float(1.5)).unwrap();
        c.push(Value::Int(2)).unwrap(); // int→float widening
        match &c {
            Column::Float(d, v) => {
                assert_eq!(d, &vec![1.5, 2.0]);
                assert!(v.is_empty());
            }
            _ => panic!(),
        }
    }

    #[test]
    fn type_mismatch_is_an_error() {
        let mut c = Column::new_empty(DataType::Int);
        assert!(c.push(Value::str("nope")).is_err());
    }

    #[test]
    fn from_values_infers_type() {
        let vals = vec![Value::Null, Value::str("x"), Value::Null];
        let c = Column::from_values(&vals).unwrap();
        assert_eq!(c.data_type(), DataType::Str);
        assert_eq!(c.to_values(), vals);
    }

    #[test]
    fn opt_constructors() {
        let c = Column::ints_opt(vec![Some(1), None, Some(3)]);
        assert_eq!(c.get(1), Value::Null);
        let c = Column::floats_opt(vec![Some(1.0), Some(2.0)]);
        assert!(matches!(c, Column::Float(_, ref v) if v.is_empty()));
    }

    /// Same column or same error, down to validity representation, the data
    /// under NULLs and the bits of every float.
    fn assert_same(got: Result<Column>, want: Result<Column>, what: &str) {
        let bits = |c: &Column| match c {
            Column::Float(d, _) => d.iter().map(|x| x.to_bits()).collect(),
            _ => Vec::new(),
        };
        match (&got, &want) {
            (Ok(g), Ok(w)) => {
                assert_eq!(format!("{g:?}"), format!("{w:?}"), "{what}");
                assert_eq!(bits(g), bits(w), "{what}");
            }
            _ => assert_eq!(got.as_ref().err(), want.as_ref().err(), "{what}: {got:?} vs {want:?}"),
        }
    }

    /// One column of type `dt` holding `values` where they have that type,
    /// NULL elsewhere.
    fn lane(values: &[&Value], dt: DataType) -> Column {
        let mut col = Column::new_empty(dt);
        for v in values {
            let v = if v.data_type() == Some(dt) { (*v).clone() } else { Value::Null };
            col.push(v).unwrap();
        }
        col
    }

    /// Scatters `values` (in row order) as `parts` does: each part lists its
    /// rows in its own order, as a sorted partition would, and writes its
    /// outputs as an evaluator types them — a main lane of the first type it
    /// meets, a second lane of the next, and (beyond what one call yields)
    /// every further type as its rows' own write.
    fn scatter(values: &[Value], parts: &[Vec<usize>]) -> Result<Column> {
        let mut sc = ColumnScatter::new(values.len());
        for rows in parts {
            let vals: Vec<&Value> = rows.iter().map(|&r| &values[r]).collect();
            let mut types: Vec<DataType> = Vec::new();
            for t in vals.iter().filter_map(|v| v.data_type()) {
                if !types.contains(&t) {
                    types.push(t);
                }
            }
            let main = lane(&vals, types.first().copied().unwrap_or(DataType::Int));
            match types.get(1) {
                Some(&t) => sc.write(rows, &Outputs::lanes(main, lane(&vals, t))),
                None => sc.write(rows, &main.into()),
            }
            for &t in types.iter().skip(2) {
                let (sub, own): (Vec<usize>, Vec<&Value>) = rows
                    .iter()
                    .zip(&vals)
                    .filter(|(_, v)| v.data_type() == Some(t))
                    .map(|(&r, &v)| (r, v))
                    .unzip();
                sc.write(&sub, &lane(&own, t).into());
            }
        }
        sc.finish()
    }

    #[test]
    fn scatter_matches_from_values_on_the_named_cases() {
        let d = |x| Value::Date(x);
        let nan = f64::from_bits(0x7ff8_0000_0000_beef);
        let cases: Vec<(&str, Vec<Value>)> = vec![
            ("empty", vec![]),
            ("all null", vec![Value::Null, Value::Null, Value::Null]),
            ("ints", vec![Value::Int(3), Value::Int(-1), Value::Int(i64::MAX)]),
            ("ints with nulls", vec![Value::Null, Value::Int(3), Value::Null, Value::Int(4)]),
            ("floats", vec![Value::Float(-0.0), Value::Null, Value::Float(f64::NAN)]),
            ("float bits", vec![Value::Float(nan), Value::Float(-0.0), Value::Int(0)]),
            ("strs", vec![Value::str("b"), Value::Null, Value::str(""), Value::str("a")]),
            ("dates", vec![d(3), d(-1), Value::Null]),
            ("bools", vec![Value::Null, Value::Bool(true), Value::Bool(false)]),
            ("float then int widens", vec![Value::Float(0.5), Value::Int(1 << 60), Value::Int(3)]),
            ("int then float errs", vec![Value::Null, Value::Int(1), Value::Float(0.5)]),
            ("str then int errs", vec![Value::str("a"), Value::Int(1), Value::Bool(true)]),
            ("float, int, date: first misfit", vec![Value::Float(1.0), Value::Int(2), d(3)]),
        ];
        for (what, values) in cases {
            let n = values.len();
            let want = Column::from_values(&values);
            // One partition in row order, one reversed, one row each, and
            // halves arriving back to front (a type one partition meets
            // first may come later in row order).
            let forward: Vec<usize> = (0..n).collect();
            let reversed: Vec<usize> = (0..n).rev().collect();
            let singles: Vec<Vec<usize>> = reversed.iter().map(|&r| vec![r]).collect();
            let halves = vec![(n / 2..n).collect(), (0..n / 2).collect()];
            assert_same(scatter(&values, &[forward]), want.clone(), what);
            assert_same(scatter(&values, &[reversed]), want.clone(), what);
            assert_same(scatter(&values, &singles), want.clone(), what);
            assert_same(scatter(&values, &halves), want, what);
        }
    }

    /// A partition of Ints and one of Floats, in either order and either
    /// arrival: a Float column when the first row is a Float, else the
    /// mismatch — whichever partition the scatter hears from first.
    #[test]
    fn scatter_types_across_partitions_by_row_order() {
        let ints = vec![Value::Int(7), Value::Null, Value::Int(-2)];
        let floats = vec![Value::Float(-0.0), Value::Float(2.5), Value::Null];
        for (what, values) in [
            ("ints then floats", [ints.clone(), floats.clone()].concat()),
            ("floats then ints", [floats, ints].concat()),
        ] {
            let want = Column::from_values(&values);
            let (a, b): (Vec<usize>, Vec<usize>) = ((0..3).collect(), (3..6).collect());
            assert_same(scatter(&values, &[a.clone(), b.clone()]), want.clone(), what);
            assert_same(scatter(&values, &[b, a]), want, what);
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        /// Any values, cut into any partitions arriving in any order: the
        /// column (or error) `from_values` gives on the row-ordered values.
        #[test]
        fn scatter_matches_from_values(
            // One main type per case so that clean columns are common; the
            // `stray` share mixes other types in.
            main in 0u8..5,
            picks in proptest::prelude::prop::collection::vec((0u8..100, 0u8..5, -4i64..5), 0..40),
            stray in 0u8..12,
            parts in 1usize..12,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::{rngs::StdRng, Rng, SeedableRng};
            let value = |ty: u8, x: i64| match ty {
                0 => Value::Int(x),
                // Halves, signed zeros and a NaN.
                1 => Value::Float(if x == 4 { f64::NAN } else { x as f64 / 2.0 * if x == 0 { -1.0 } else { 1.0 } }),
                2 => Value::str(["a", "b", ""][x.rem_euclid(3) as usize]),
                3 => Value::Date(x as i32),
                _ => Value::Bool(x > 0),
            };
            let values: Vec<Value> = picks
                .iter()
                .map(|&(roll, other, x)| match roll {
                    0..=19 => Value::Null,
                    r if r < 20 + stray => value(other, x),
                    _ => value(main, x),
                })
                .collect();
            // Deal the rows to `parts` partitions, shuffle each (a sorted
            // partition lists its rows in window order, not row order).
            let mut rng = StdRng::seed_from_u64(seed);
            let mut dealt: Vec<Vec<usize>> = vec![Vec::new(); parts];
            for row in 0..values.len() {
                dealt[rng.gen_range(0..parts)].push(row);
            }
            for rows in &mut dealt {
                for i in (1..rows.len()).rev() {
                    rows.swap(i, rng.gen_range(0..=i));
                }
            }
            assert_same(scatter(&values, &dealt), Column::from_values(&values), "proptest");
        }
    }

    /// `filter` is the push loop it replaces, for every type with and
    /// without NULLs, under masks that keep everything, nothing and some:
    /// the same type, the same validity representation, `push`'s data under
    /// every NULL and the same float bits.
    #[test]
    fn filter_matches_the_push_loop() {
        let columns = [
            Column::ints(vec![4, -1, 7, 0]),
            Column::Int(vec![4, 99, 7, 0], vec![true, false, true, true]),
            Column::floats(vec![-0.0, f64::NAN, 1.5, 2.0]),
            Column::Float(vec![-0.0, 9.5, 1.5, f64::NAN], vec![true, false, false, true]),
            Column::strs(vec!["a", "", "c", "d"]),
            Column::Str(
                ["a", "x", "c", "d"].map(Arc::from).to_vec(),
                vec![false, false, true, true],
            ),
            Column::dates(vec![3, 1, 4, 1]),
            Column::Date(vec![3, 5, 4, 1], vec![true, true, true, false]),
            Column::bools(vec![true, false, true, true]),
            Column::Bool(vec![true, true, false, true], vec![false, true, true, false]),
        ];
        let masks = [[true; 4], [false; 4], [true, false, true, false], [false, true, true, false]];
        for col in &columns {
            for keep in &masks {
                let mut want = Column::new_empty(col.data_type());
                for i in (0..col.len()).filter(|&i| keep[i]) {
                    want.push(col.get(i)).unwrap();
                }
                assert_same(Ok(col.filter(keep)), Ok(want), &format!("{col:?} under {keep:?}"));
            }
        }
    }
}
