//! Columnar storage.

use crate::error::{Error, Result};
use crate::value::{DataType, Value};
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
        let valid: Vec<bool> = v.iter().map(|o| o.is_some()).collect();
        let data = v.into_iter().map(|o| o.unwrap_or(0)).collect();
        Column::Int(data, if valid.iter().all(|&b| b) { Vec::new() } else { valid })
    }

    /// Builds a float column from options.
    pub fn floats_opt(v: Vec<Option<f64>>) -> Self {
        let valid: Vec<bool> = v.iter().map(|o| o.is_some()).collect();
        let data = v.into_iter().map(|o| o.unwrap_or(0.0)).collect();
        Column::Float(data, if valid.iter().all(|&b| b) { Vec::new() } else { valid })
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

    /// Appends a value (NULL or matching type).
    pub fn push(&mut self, v: Value) -> Result<()> {
        fn put<T>(data: &mut Vec<T>, valid: &mut Validity, item: Option<T>, default: T) {
            match item {
                Some(x) => {
                    if !valid.is_empty() {
                        valid.push(true);
                    }
                    data.push(x);
                }
                None => {
                    if valid.is_empty() {
                        valid.extend(std::iter::repeat_n(true, data.len()));
                    }
                    valid.push(false);
                    data.push(default);
                }
            }
        }
        match (self, v) {
            (Column::Int(d, va), Value::Int(x)) => put(d, va, Some(x), 0),
            (Column::Int(d, va), Value::Null) => put(d, va, None, 0),
            (Column::Float(d, va), Value::Float(x)) => put(d, va, Some(x), 0.0),
            (Column::Float(d, va), Value::Int(x)) => put(d, va, Some(x as f64), 0.0),
            (Column::Float(d, va), Value::Null) => put(d, va, None, 0.0),
            (Column::Str(d, va), Value::Str(x)) => put(d, va, Some(x), Arc::from("")),
            (Column::Str(d, va), Value::Null) => put(d, va, None, Arc::from("")),
            (Column::Date(d, va), Value::Date(x)) => put(d, va, Some(x), 0),
            (Column::Date(d, va), Value::Null) => put(d, va, None, 0),
            (Column::Bool(d, va), Value::Bool(x)) => put(d, va, Some(x), false),
            (Column::Bool(d, va), Value::Null) => put(d, va, None, false),
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
    fn validity(&self) -> &Validity {
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

    /// Whether [`Column::extend_from`] takes `src`: the error `push` raises
    /// on the first row of `src` it refuses, checked once per column rather
    /// than per value. `src` fits when it has this column's type, is `Int`
    /// going into `Float`, or holds no non-NULL row; otherwise the first row
    /// `push` refuses is the first non-NULL one, whose type is `src`'s.
    pub(crate) fn check_extend(&self, src: &Column) -> Result<()> {
        let (to, from) = (self.data_type(), src.data_type());
        if to == from
            || (to == DataType::Float && from == DataType::Int)
            || (0..src.len()).all(|i| !src.is_valid(i))
        {
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
}

/// Assembles one output column of `n` rows from values that arrive keyed by
/// table row, in any order — the window operator's scatter back to input
/// order. Every value is written once, straight into pre-sized typed storage,
/// and [`ColumnScatter::finish`] yields exactly what [`Column::from_values`]
/// yields on the same values laid out in row order: the type of the first
/// non-NULL row, `Int` widened into a `Float` column, an all-NULL column as
/// `Int`, and the `TypeMismatch` of the first row that type does not accept.
pub(crate) struct ColumnScatter {
    n: usize,
    /// Typed storage, allocated at the first non-NULL value. Its own validity
    /// stays empty until `finish`.
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
    /// defaults, so callers write every row exactly once.
    pub(crate) fn new(n: usize) -> Self {
        ColumnScatter { n, data: None, valid: Vec::new(), first_row: [usize::MAX; 5] }
    }

    /// Writes `values[i]` to row `rows[i]`.
    pub(crate) fn write(&mut self, rows: &[usize], values: &[Value]) {
        debug_assert_eq!(rows.len(), values.len());
        for (&row, v) in rows.iter().zip(values) {
            let Some(ty) = v.data_type() else {
                if self.valid.is_empty() {
                    self.valid = vec![true; self.n];
                }
                self.valid[row] = false;
                continue;
            };
            let first = &mut self.first_row[ty as usize];
            *first = (*first).min(row);
            let n = self.n;
            let col = self.data.get_or_insert_with(|| match ty {
                DataType::Int => Column::Int(vec![0; n], Vec::new()),
                DataType::Float => Column::Float(vec![0.0; n], Vec::new()),
                DataType::Str => Column::Str(vec![Arc::from(""); n], Vec::new()),
                DataType::Date => Column::Date(vec![0; n], Vec::new()),
                DataType::Bool => Column::Bool(vec![false; n], Vec::new()),
            });
            match (col, v) {
                (Column::Int(d, _), Value::Int(x)) => d[row] = *x,
                (Column::Float(d, _), Value::Float(x)) => d[row] = *x,
                (Column::Float(d, _), Value::Int(x)) => d[row] = *x as f64,
                (Column::Str(d, _), Value::Str(x)) => d[row] = x.clone(),
                (Column::Date(d, _), Value::Date(x)) => d[row] = *x,
                (Column::Bool(d, _), Value::Bool(x)) => d[row] = *x,
                (col @ Column::Int(..), Value::Float(x)) => {
                    // Row order decides between a widened Float column and a
                    // mismatch, and only `finish` knows it: widen what is
                    // here and keep going as Float.
                    let Column::Int(ints, _) = &*col else { unreachable!("matched Int") };
                    let mut floats: Vec<f64> = ints.iter().map(|&i| i as f64).collect();
                    floats[row] = *x;
                    *col = Column::Float(floats, Vec::new());
                }
                // A pair no row order reconciles: `finish` reports it.
                _ => {}
            }
        }
    }

    /// The assembled column, or the error `Column::from_values` raises on the
    /// same values in row order.
    pub(crate) fn finish(self) -> Result<Column> {
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
    /// Scatters `values` (in row order) as `parts` does: each part lists its
    /// rows in its own order, as a sorted partition would.
    fn scatter(values: &[Value], parts: &[Vec<usize>]) -> Result<Column> {
        let mut sc = ColumnScatter::new(values.len());
        for rows in parts {
            let outs: Vec<Value> = rows.iter().map(|&r| values[r].clone()).collect();
            sc.write(rows, &outs);
        }
        sc.finish()
    }

    /// Same column or same error, down to validity representation and the
    /// bits of every float.
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

    #[test]
    fn scatter_matches_from_values_on_the_named_cases() {
        let d = |x| Value::Date(x);
        let cases: Vec<(&str, Vec<Value>)> = vec![
            ("empty", vec![]),
            ("all null", vec![Value::Null, Value::Null, Value::Null]),
            ("ints", vec![Value::Int(3), Value::Int(-1), Value::Int(i64::MAX)]),
            ("ints with nulls", vec![Value::Null, Value::Int(3), Value::Null, Value::Int(4)]),
            ("floats", vec![Value::Float(-0.0), Value::Null, Value::Float(f64::NAN)]),
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
            // One partition in row order, one reversed, and one row each.
            let forward: Vec<usize> = (0..n).collect();
            let reversed: Vec<usize> = (0..n).rev().collect();
            let singles: Vec<Vec<usize>> = reversed.iter().map(|&r| vec![r]).collect();
            assert_same(scatter(&values, &[forward]), want.clone(), what);
            assert_same(scatter(&values, &[reversed]), want.clone(), what);
            assert_same(scatter(&values, &singles), want, what);
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
                1 => Value::Float(x as f64 / 2.0),
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
}
