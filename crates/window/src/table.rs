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
    /// push-compatible types. On error the table is left unchanged.
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
        // Validate all pushes against clones first so a mid-batch type error
        // cannot leave the table ragged.
        let mut grown: Vec<Column> = self.columns.iter().map(|(_, c)| c.clone()).collect();
        for (col, (_, src)) in grown.iter_mut().zip(batch.columns.iter()) {
            for i in 0..batch.rows {
                col.push(src.get(i))?;
            }
        }
        for ((_, dst), col) in self.columns.iter_mut().zip(grown) {
            *dst = col;
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
    use crate::value::Value;

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
}
