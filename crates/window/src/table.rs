//! Named column collections.

use crate::column::Column;
use crate::error::{Error, Result};

/// A table: equally long named columns.
#[derive(Debug, Clone, Default)]
pub struct Table {
    columns: Vec<(String, Column)>,
    rows: usize,
}

impl Table {
    /// An empty table.
    pub fn empty() -> Self {
        Table::default()
    }

    /// Builds from `(name, column)` pairs; all columns must have equal length.
    pub fn new(columns: Vec<(impl Into<String>, Column)>) -> Result<Self> {
        let mut t = Table::default();
        for (name, col) in columns {
            t.add_column(name, col)?;
        }
        Ok(t)
    }

    /// Adds a column.
    pub fn add_column(&mut self, name: impl Into<String>, col: Column) -> Result<()> {
        if self.columns.is_empty() {
            self.rows = col.len();
        } else if col.len() != self.rows {
            return Err(Error::LengthMismatch { expected: self.rows, got: col.len() });
        }
        self.columns.push((name.into(), col));
        Ok(())
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Looks a column up by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.columns
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, c)| c)
            .ok_or_else(|| Error::UnknownColumn(name.to_string()))
    }

    /// Position of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|(n, _)| n == name)
            .ok_or_else(|| Error::UnknownColumn(name.to_string()))
    }

    /// Column by position.
    pub fn column_at(&self, idx: usize) -> &Column {
        &self.columns[idx].1
    }

    /// Takes the table apart into its `(name, column)` pairs, in order.
    pub fn into_columns(self) -> Vec<(String, Column)> {
        self.columns
    }

    /// Iterates `(name, column)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Column)> {
        self.columns.iter().map(|(n, c)| (n.as_str(), c))
    }

    /// Appends the rows of `batch` (the delta-API ingest path): `batch` must
    /// carry exactly this table's columns, by name and order, with
    /// push-compatible types. Every column is checked before any grows, so
    /// on error the table is left unchanged; then each column grows in
    /// place, at a cost in the batch's rows, not the table's.
    pub fn append_rows(&mut self, batch: &Table) -> Result<()> {
        if batch.num_columns() != self.num_columns() {
            return Err(Error::LengthMismatch {
                expected: self.num_columns(),
                got: batch.num_columns(),
            });
        }
        for ((name, _), (bname, _)) in self.columns.iter().zip(batch.columns.iter()) {
            if name != bname {
                return Err(Error::UnknownColumn(bname.clone()));
            }
        }
        for ((_, dst), (_, src)) in self.columns.iter().zip(&batch.columns) {
            dst.check_extend(src)?;
        }
        for ((_, dst), (_, src)) in self.columns.iter_mut().zip(&batch.columns) {
            dst.extend_from(src);
        }
        self.rows += batch.rows;
        Ok(())
    }

    /// Rows `[a, b)` as a new table with the same columns (exact types and
    /// validity preserved — the natural way to carve a table into
    /// [`Table::append_rows`]-compatible batches).
    pub fn slice_rows(&self, a: usize, b: usize) -> Table {
        Table {
            columns: self.columns.iter().map(|(n, c)| (n.clone(), c.slice(a, b))).collect(),
            rows: b - a,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Value};

    #[test]
    fn build_and_lookup() {
        let t = Table::new(vec![
            ("a", Column::ints(vec![1, 2, 3])),
            ("b", Column::strs(vec!["x", "y", "z"])),
        ])
        .unwrap();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.column("b").unwrap().get(1), Value::str("y"));
        assert_eq!(t.column_index("a").unwrap(), 0);
        assert!(t.column("c").is_err());
    }

    #[test]
    fn rejects_ragged_columns() {
        let r = Table::new(vec![("a", Column::ints(vec![1, 2, 3])), ("b", Column::ints(vec![1]))]);
        assert!(matches!(r, Err(Error::LengthMismatch { expected: 3, got: 1 })));
    }

    #[test]
    fn empty_table() {
        let t = Table::empty();
        assert_eq!(t.num_rows(), 0);
        assert_eq!(t.num_columns(), 0);
    }

    /// Every column's type, values, data and validity, in order.
    fn snapshot(t: &Table) -> (usize, String) {
        (t.num_rows(), format!("{:?}", t.columns))
    }

    fn abc() -> Table {
        Table::new(vec![
            ("a", Column::ints(vec![1, 2])),
            ("b", Column::floats_opt(vec![Some(0.5), None])),
            ("c", Column::strs(vec!["x", "y"])),
        ])
        .unwrap()
    }

    #[test]
    fn append_mismatch_in_the_last_column_leaves_the_table_unchanged() {
        let mut t = abc();
        let before = snapshot(&t);
        let batch = Table::new(vec![
            ("a", Column::ints(vec![3])),
            ("b", Column::floats(vec![1.5])),
            ("c", Column::ints_opt(vec![Some(7)])),
        ])
        .unwrap();
        let err = t.append_rows(&batch).unwrap_err();
        assert_eq!(
            err,
            Error::TypeMismatch { expected: "column element", got: "int", context: "Column::push" }
        );
        assert_eq!(snapshot(&t), before);
    }

    #[test]
    fn append_reports_the_first_failing_column_and_its_first_non_null_type() {
        let mut t = abc();
        let batch = Table::new(vec![
            ("a", Column::ints(vec![3, 4])),
            ("b", Column::dates(vec![1, 2])),
            ("c", Column::ints_opt(vec![None, Some(7)])),
        ])
        .unwrap();
        assert!(matches!(t.append_rows(&batch), Err(Error::TypeMismatch { got: "date", .. })));
    }

    #[test]
    fn append_takes_an_all_null_column_of_another_type() {
        let mut t = abc();
        let batch = Table::new(vec![
            ("a", Column::ints(vec![3, 4])),
            ("b", Column::floats(vec![1.5, 2.5])),
            ("c", Column::ints_opt(vec![None, None])),
        ])
        .unwrap();
        t.append_rows(&batch).unwrap();
        let c = t.column("c").unwrap();
        assert_eq!(c.data_type(), DataType::Str);
        assert_eq!(c.to_values(), vec![Value::str("x"), Value::str("y"), Value::Null, Value::Null]);
    }

    #[test]
    fn append_widens_int_into_float() {
        let mut t = abc();
        let batch = Table::new(vec![
            ("a", Column::ints(vec![3])),
            ("b", Column::ints(vec![-4])),
            ("c", Column::strs(vec!["z"])),
        ])
        .unwrap();
        t.append_rows(&batch).unwrap();
        let b = t.column("b").unwrap();
        assert_eq!(b.data_type(), DataType::Float);
        assert_eq!(b.to_values(), vec![Value::Float(0.5), Value::Null, Value::Float(-4.0)]);
        assert!(matches!(b, Column::Float(_, v) if v == &vec![true, false, true]));
    }

    #[test]
    fn append_materializes_validity_only_when_a_null_arrives() {
        let mut t = Table::new(vec![("a", Column::ints(vec![1, 2]))]).unwrap();
        t.append_rows(&Table::new(vec![("a", Column::ints(vec![3]))]).unwrap()).unwrap();
        assert!(matches!(t.column_at(0), Column::Int(_, v) if v.is_empty()));
        let nulls = Table::new(vec![("a", Column::ints_opt(vec![None, Some(5)]))]).unwrap();
        t.append_rows(&nulls).unwrap();
        assert!(matches!(t.column_at(0), Column::Int(d, v) if d[..3] == [1, 2, 3] && d[4] == 5
                && v == &vec![true, true, true, false, true]));
        assert_eq!(t.num_rows(), 5);

        // A column with no rows yet takes its first NULL too.
        let mut empty = t.slice_rows(0, 0);
        empty.append_rows(&nulls).unwrap();
        assert!(matches!(empty.column_at(0), Column::Int(_, v) if v == &vec![false, true]));
        assert_eq!(empty.column_at(0).get(0), Value::Null);
    }

    #[test]
    fn append_of_an_empty_batch_is_a_no_op() {
        let mut t = abc();
        let before = snapshot(&t);
        t.append_rows(&t.slice_rows(0, 0)).unwrap();
        assert_eq!(snapshot(&t), before);
    }

    /// The append copies no existing row: with room reserved, the column's
    /// buffer stays where it was.
    #[test]
    fn append_grows_columns_in_place() {
        let mut data = Vec::with_capacity(1024);
        data.extend(0..100i64);
        let mut t = Table::new(vec![("a", Column::ints(data))]).unwrap();
        let ptr = |t: &Table| match t.column_at(0) {
            Column::Int(d, _) => d.as_ptr(),
            _ => unreachable!(),
        };
        let before = ptr(&t);
        t.append_rows(&Table::new(vec![("a", Column::ints((100..200).collect()))]).unwrap())
            .unwrap();
        assert_eq!(ptr(&t), before);
        assert_eq!(t.column_at(0).get(150), Value::Int(150));
    }
}
