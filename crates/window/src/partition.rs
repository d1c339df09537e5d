//! PARTITION BY: one typed partitioner behind the batch executor and the
//! append engine.
//!
//! Each key gives every row its value's code in the key's value dictionary
//! (the one the DISTINCT aggregates and MODE use), read from the key's typed
//! column: the table's own where the key is a bare column, the VM's where
//! it is an expression. The codes fold left to right into one dense
//! partition id per row, and a counting pass scatters the rows into
//! exactly-sized lists. Grouping equality is the dictionary's,
//! [`Value::sql_eq`](crate::value::Value::sql_eq): NULL groups with NULL,
//! floats group by `total_cmp` (`-0.0` apart from `0.0`, NaNs by payload).
//!
//! The [`Partitioner`] is persistent: [`Partitioner::route`] takes only the
//! rows a table gained since the last call, and codes, ids and partition
//! order stay what one pass over the whole table would have produced.

use crate::dictionary::{Counter, Dictionary, IntSlots, VACANT};
use crate::error::{Error, Result};
use crate::expr::{BoundExpr, Expr};
use crate::table::Table;
use crate::vm::{self, RowSel};

/// Splits the table's rows into partitions by the PARTITION BY expressions.
///
/// Rows whose keys are `sql_eq`-equal land in the same partition (NULL groups
/// with NULL, as in SQL). Partitions come out in first-appearance order so
/// results are deterministic. An empty key list yields one partition.
pub fn partition_rows(table: &Table, partition_by: &[Expr]) -> Result<Vec<Vec<usize>>> {
    let routed = Partitioner::new(table, partition_by)?.route(table, 0)?;
    Ok(routed.into_iter().map(|(_, rows)| rows).collect())
}

/// Assigns table rows to partitions, incrementally.
pub struct Partitioner {
    keys: Vec<KeyCodes>,
    /// `folds[j]` joins the ids over keys `..=j` with key `j + 1`'s codes.
    folds: Vec<Fold>,
    num_partitions: usize,
    /// Scatter scratch, all `VACANT` between calls: partition id → its index
    /// in the running call's result.
    touched_at: Vec<u32>,
}

impl Partitioner {
    /// Binds the PARTITION BY expressions to `table`'s schema. Later calls
    /// may pass any table with the same columns.
    pub fn new(table: &Table, partition_by: &[Expr]) -> Result<Partitioner> {
        let keys =
            partition_by.iter().map(|e| KeyCodes::new(table, e)).collect::<Result<Vec<_>>>()?;
        Ok(Partitioner {
            folds: keys.iter().skip(1).map(|_| Fold::default()).collect(),
            // No key, one partition — even over no rows.
            num_partitions: usize::from(keys.is_empty()),
            keys,
            touched_at: Vec::new(),
        })
    }

    /// Partitions seen so far; ids are `0..num_partitions()` in
    /// first-appearance order.
    pub fn num_partitions(&self) -> usize {
        self.num_partitions
    }

    /// Routes rows `from_row..` of `table` (rows before it went through
    /// earlier calls). Returns `(partition id, its new rows ascending)` per
    /// partition that received a row, in first-touch order.
    pub fn route(&mut self, table: &Table, from_row: usize) -> Result<Vec<(usize, Vec<usize>)>> {
        let n = table.num_rows();
        let Some((first, rest)) = self.keys.split_first_mut() else {
            return Ok(vec![(0, (from_row..n).collect())]);
        };
        if n >= VACANT as usize {
            return Err(Error::Unsupported("PARTITION BY over 2^32 or more rows".into()));
        }
        let mut ids = first.encode(table, from_row)?;
        let mut card = first.dictionary.card();
        for (key, fold) in rest.iter_mut().zip(&mut self.folds) {
            let codes = key.encode(table, from_row)?;
            ids = fold.join(&ids, &codes, key.dictionary.card(), n);
            card = fold.ids.card;
        }
        self.num_partitions = card as usize;
        Ok(self.scatter(&ids, from_row))
    }

    /// The counting scatter: one pass sizes each touched partition's list,
    /// one fills it.
    fn scatter(&mut self, ids: &[u32], from_row: usize) -> Vec<(usize, Vec<usize>)> {
        self.touched_at.resize(self.num_partitions, VACANT);
        let mut counts: Vec<(usize, usize)> = Vec::new();
        for &id in ids {
            let at = &mut self.touched_at[id as usize];
            if *at == VACANT {
                *at = counts.len() as u32;
                counts.push((id as usize, 0));
            }
            counts[*at as usize].1 += 1;
        }
        let mut out: Vec<(usize, Vec<usize>)> =
            counts.into_iter().map(|(pid, count)| (pid, Vec::with_capacity(count))).collect();
        for (i, &id) in ids.iter().enumerate() {
            out[self.touched_at[id as usize] as usize].1.push(from_row + i);
        }
        for (pid, _) in &out {
            self.touched_at[*pid] = VACANT;
        }
        out
    }
}

/// One PARTITION BY key: the bound expression and the dictionary that turns
/// its values into codes.
struct KeyCodes {
    expr: BoundExpr,
    /// A bare column's type comes from the schema, an expression's from the
    /// first batch that holds a value.
    dictionary: Dictionary,
}

impl KeyCodes {
    fn new(table: &Table, expr: &Expr) -> Result<KeyCodes> {
        let expr = expr.bind(table)?;
        let dictionary = match expr {
            BoundExpr::Col(idx) => Dictionary::of_type(table.column_at(idx).data_type()),
            _ => Dictionary::default(),
        };
        Ok(KeyCodes { expr, dictionary })
    }

    /// The codes of rows `from..`.
    fn encode(&mut self, table: &Table, from: usize) -> Result<Vec<u32>> {
        let n = table.num_rows();
        let column = vm::eval(&self.expr, table, RowSel::Span(from, n))?;
        // Only a table of another schema is refused.
        self.dictionary.encode(&column, n).ok_or_else(|| Error::TypeMismatch {
            expected: "the type of the key's earlier values",
            got: column.data_type().name(),
            context: "PARTITION BY",
        })
    }
}

/// Joins the ids over a key prefix with the next key's codes into dense ids
/// over the longer prefix, through the integer `id · stride + code`.
#[derive(Default)]
struct Fold {
    slots: IntSlots,
    /// At least the next key's cardinality; a power of two.
    stride: u64,
    ids: Counter,
}

impl Fold {
    fn join(&mut self, ids: &[u32], codes: &[u32], key_card: u32, rows: usize) -> Vec<u32> {
        if u64::from(key_card) > self.stride {
            // The key outgrew the stride: re-key the pairs seen so far.
            // Strides double, so this amortises over the codes that forced it.
            let (old, new) = (self.stride, u64::from(key_card).next_power_of_two());
            let pairs = std::mem::take(&mut self.slots).entries();
            let keys = pairs.iter().map(|&(key, _)| key / old * new + key % old);
            self.slots.cover(keys.clone(), rows);
            for (key, &(_, id)) in keys.zip(&pairs) {
                self.slots.get_or_set(key, id);
            }
            self.stride = new;
        }
        let stride = self.stride;
        let keys = ids
            .iter()
            .zip(codes)
            .map(|(&id, &code)| Some(u64::from(id) * stride + u64::from(code)));
        self.slots.encode(keys, rows, &mut self.ids)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::expr::{col, lit};
    use crate::value::Value;

    #[test]
    fn no_keys_single_partition() {
        let t = Table::new(vec![("a", Column::ints(vec![1, 2, 3]))]).unwrap();
        let p = partition_rows(&t, &[]).unwrap();
        assert_eq!(p, vec![vec![0, 1, 2]]);
    }

    #[test]
    fn partitions_by_value_first_appearance_order() {
        let t = Table::new(vec![("g", Column::strs(vec!["b", "a", "b", "c", "a"]))]).unwrap();
        let p = partition_rows(&t, &[col("g")]).unwrap();
        assert_eq!(p, vec![vec![0, 2], vec![1, 4], vec![3]]);
    }

    #[test]
    fn nulls_group_together() {
        let t =
            Table::new(vec![("g", Column::ints_opt(vec![None, Some(1), None, Some(1)]))]).unwrap();
        let p = partition_rows(&t, &[col("g")]).unwrap();
        assert_eq!(p, vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn multi_key_partitioning() {
        let t = Table::new(vec![
            ("a", Column::ints(vec![1, 1, 2, 1])),
            ("b", Column::ints(vec![1, 2, 1, 1])),
        ])
        .unwrap();
        let p = partition_rows(&t, &[col("a"), col("b")]).unwrap();
        assert_eq!(p, vec![vec![0, 3], vec![1], vec![2]]);
    }

    #[test]
    fn empty_table() {
        let t = Table::new(vec![("a", Column::ints(vec![]))]).unwrap();
        let p = partition_rows(&t, &[col("a")]).unwrap();
        assert!(p.is_empty());
    }

    #[test]
    fn floats_group_by_total_cmp_in_columns_and_expressions() {
        let nan2 = f64::from_bits(f64::NAN.to_bits() ^ 1);
        let t = Table::new(vec![("f", Column::floats(vec![0.0, -0.0, f64::NAN, nan2, 0.0, nan2]))])
            .unwrap();
        let expect = vec![vec![0, 4], vec![1], vec![2], vec![3, 5]];
        assert_eq!(partition_rows(&t, &[col("f")]).unwrap(), expect);
        // The same grouping through the VM's column of an expression, and
        // through the interpreter's (below eight rows).
        assert_eq!(partition_rows(&t, &[col("f").neg().neg()]).unwrap(), expect);
        let wide =
            Table::new(vec![("f", Column::floats([0.0, -0.0, f64::NAN, nan2].repeat(3)))]).unwrap();
        let parts = partition_rows(&wide, &[col("f").neg().neg()]).unwrap();
        assert_eq!(parts, vec![vec![0, 4, 8], vec![1, 5, 9], vec![2, 6, 10], vec![3, 7, 11]]);
    }

    /// An expression's encoder is fixed by its first value, not by its first
    /// batch: an empty batch yields a column of no particular type.
    #[test]
    fn an_expression_key_routed_first_over_no_rows_keeps_its_type() {
        let t = Table::new(vec![("a", Column::ints((0..10).collect()))]).unwrap();
        let key = [lit(Value::str("x"))];
        let mut p = Partitioner::new(&t, &key).unwrap();
        assert!(p.route(&t.slice_rows(0, 0), 0).unwrap().is_empty());
        let routed = p.route(&t, 0).unwrap();
        assert_eq!(routed, vec![(0, (0..10).collect())]);
        assert_eq!(p.num_partitions(), 1);
    }

    #[test]
    fn short_and_long_strings_share_one_code_space() {
        let g = vec!["", "a", "abcdefg", "abcdefgh", "a\0", "abcdefgh", "a", "", "abcdefg", "a\0"];
        let t = Table::new(vec![("g", Column::strs(g))]).unwrap();
        let p = partition_rows(&t, &[col("g")]).unwrap();
        assert_eq!(p, vec![vec![0, 7], vec![1, 6], vec![2, 8], vec![3, 5], vec![4, 9]]);
    }

    #[test]
    fn a_table_of_another_schema_is_an_error() {
        let ints = Table::new(vec![("a", Column::ints(vec![1]))]).unwrap();
        let strs = Table::new(vec![("a", Column::strs(vec!["x"]))]).unwrap();
        let mut p = Partitioner::new(&ints, &[col("a")]).unwrap();
        assert!(matches!(p.route(&strs, 0), Err(Error::TypeMismatch { got: "str", .. })));
    }

    /// Rows arriving in batches get the ids one pass would have given them,
    /// through a key that outgrows the direct table and a second key whose
    /// cardinality outgrows the fold's stride.
    #[test]
    fn routing_in_batches_matches_one_pass() {
        let a = vec![5, 6, 5, 7, 1 << 40, 6, -(1 << 40), 5, 1 << 40];
        let b = vec![0, 0, 1, 0, 2, 0, 3, 4, 2];
        let t = Table::new(vec![("a", Column::ints(a)), ("b", Column::ints(b))]).unwrap();
        let keys = [col("a"), col("b")];
        let whole = partition_rows(&t, &keys).unwrap();

        let mut p = Partitioner::new(&t, &keys).unwrap();
        let mut parts: Vec<Vec<usize>> = Vec::new();
        for cut in [3, 4, 4, 7, 9] {
            let from = parts.iter().map(Vec::len).sum();
            for (pid, rows) in p.route(&t.slice_rows(0, cut), from).unwrap() {
                if pid == parts.len() {
                    parts.push(Vec::new());
                }
                parts[pid].extend(rows);
            }
            assert_eq!(parts.len(), p.num_partitions());
        }
        assert_eq!(parts, whole);
        assert!(matches!(p.folds[0].slots, IntSlots::Direct { .. }));
        assert!(p.keys[0].dictionary.hashes_ints());
    }
}
