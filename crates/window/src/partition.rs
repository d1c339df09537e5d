//! PARTITION BY: one typed partitioner behind the batch executor and the
//! append engine.
//!
//! Each key gives every row a dense *equality code* in first-appearance
//! order, read from the typed column in place where the key is a bare column.
//! The codes fold left to right into one dense partition id per row, and a
//! counting pass scatters the rows into exactly-sized lists. Grouping
//! equality is [`Value::sql_eq`]: NULL groups with NULL, floats group by
//! `total_cmp` (`-0.0` apart from `0.0`, NaNs by payload).
//!
//! The [`Partitioner`] is persistent: [`Partitioner::route`] takes only the
//! rows a table gained since the last call, and codes, ids and partition
//! order stay what one pass over the whole table would have produced.

use crate::column::Column;
use crate::error::{Error, Result};
use crate::expr::{BoundExpr, Expr};
use crate::hash::hash_value;
use crate::table::Table;
use crate::value::Value;
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// Splits the table's rows into partitions by the PARTITION BY expressions.
///
/// Rows whose keys are `sql_eq`-equal land in the same partition (NULL groups
/// with NULL, as in SQL). Partitions come out in first-appearance order so
/// results are deterministic. An empty key list yields one partition.
pub fn partition_rows(table: &Table, partition_by: &[Expr]) -> Result<Vec<Vec<usize>>> {
    let routed = Partitioner::new(table, partition_by)?.route(table, 0)?;
    Ok(routed.into_iter().map(|(_, rows)| rows).collect())
}

/// "No code yet" in every code table; also bounds the rows one partitioner
/// can take, since a code or id is at most the row count.
const VACANT: u32 = u32::MAX;

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
        let mut card = first.card();
        for (key, fold) in rest.iter_mut().zip(&mut self.folds) {
            let codes = key.encode(table, from_row)?;
            ids = fold.join(&ids, &codes, key.card(), n);
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
/// its values into dense codes, first appearance first.
struct KeyCodes {
    expr: BoundExpr,
    encoder: Encoder,
}

enum Encoder {
    /// A bare Int / Date / Bool column by value, a Float column by bit
    /// pattern (`total_cmp` equality is bit equality).
    Ints { slots: IntSlots, codes: Counter },
    /// A bare Str column. Strings of up to seven bytes are integers (see
    /// [`packed`]); longer ones are looked up by `&str`, one owned `Arc` per
    /// distinct string.
    Strs { short: IntSlots, long: FxHashMap<Arc<str>, u32>, codes: Counter },
    /// Any other expression, by the definition: evaluated values, hashed by
    /// `hash_value`, chains settled by `sql_eq` against `reps[code]`.
    Values { chains: FxHashMap<u64, Vec<u32>>, reps: Vec<Value> },
}

/// Hands out one key's codes. NULL takes the next code when it first appears,
/// like any other value.
#[derive(Default)]
struct Counter {
    card: u32,
    null: Option<u32>,
}

impl Counter {
    /// `code` as looked up with `self.card` offered as the fresh one: taken
    /// when the lookup handed the offer back.
    #[inline]
    fn settle(&mut self, code: u32) -> u32 {
        self.card += u32::from(code == self.card);
        code
    }

    #[inline]
    fn null(&mut self) -> u32 {
        *self.null.get_or_insert_with(|| {
            self.card += 1;
            self.card - 1
        })
    }
}

/// Rows `from..` of a typed column, `None` for NULL.
fn cells<'a, T>(
    data: &'a [T],
    valid: &'a [bool],
    from: usize,
) -> impl Iterator<Item = Option<&'a T>> + Clone {
    let valid = if valid.is_empty() { valid } else { &valid[from..] };
    data[from..].iter().enumerate().map(move |(i, x)| (valid.is_empty() || valid[i]).then_some(x))
}

/// A string of up to seven bytes as an integer: its bytes, its length on top
/// (so that equally long codes and flags are neighbours).
#[inline]
fn packed(s: &str) -> Option<u64> {
    if s.len() > 7 {
        return None;
    }
    let bytes = s.bytes().rev().fold(0, |key, byte| key << 8 | u64::from(byte));
    Some(bytes | (s.len() as u64) << 56)
}

/// Order-preserving `i64` → `u64`, so a signed range is a contiguous one.
#[inline]
fn biased(x: i64) -> u64 {
    (x as u64) ^ (1 << 63)
}

impl KeyCodes {
    fn new(table: &Table, expr: &Expr) -> Result<KeyCodes> {
        let expr = expr.bind(table)?;
        let encoder = match &expr {
            BoundExpr::Col(idx) => match table.column_at(*idx) {
                Column::Str(..) => Encoder::Strs {
                    short: IntSlots::default(),
                    long: FxHashMap::default(),
                    codes: Counter::default(),
                },
                _ => Encoder::Ints { slots: IntSlots::default(), codes: Counter::default() },
            },
            _ => Encoder::Values { chains: FxHashMap::default(), reps: Vec::new() },
        };
        Ok(KeyCodes { expr, encoder })
    }

    /// Distinct values seen so far (NULL counts as one).
    fn card(&self) -> u32 {
        match &self.encoder {
            Encoder::Ints { codes, .. } | Encoder::Strs { codes, .. } => codes.card,
            Encoder::Values { reps, .. } => reps.len() as u32,
        }
    }

    /// The codes of rows `from..`.
    fn encode(&mut self, table: &Table, from: usize) -> Result<Vec<u32>> {
        let n = table.num_rows();
        let column = match &self.expr {
            BoundExpr::Col(idx) => Some(table.column_at(*idx)),
            _ => None,
        };
        Ok(match (&mut self.encoder, column) {
            (Encoder::Ints { slots, codes }, Some(Column::Int(d, v))) => {
                slots.encode(cells(d, v, from).map(|c| c.map(|&x| biased(x))), n, codes)
            }
            (Encoder::Ints { slots, codes }, Some(Column::Date(d, v))) => {
                slots.encode(cells(d, v, from).map(|c| c.map(|&x| biased(x.into()))), n, codes)
            }
            (Encoder::Ints { slots, codes }, Some(Column::Bool(d, v))) => {
                slots.encode(cells(d, v, from).map(|c| c.map(|&x| x.into())), n, codes)
            }
            (Encoder::Ints { slots, codes }, Some(Column::Float(d, v))) => {
                slots.encode(cells(d, v, from).map(|c| c.map(|x| x.to_bits())), n, codes)
            }
            (Encoder::Strs { short, long, codes }, Some(Column::Str(d, v))) => {
                short.cover(cells(d, v, from).flatten().filter_map(|s| packed(s)), n);
                let code = |cell: Option<&Arc<str>>| {
                    let Some(s) = cell else { return codes.null() };
                    if let Some(key) = packed(s) {
                        return codes.settle(short.get_or_set(key, codes.card));
                    }
                    match long.get(&**s) {
                        Some(&code) => code,
                        None => {
                            long.insert(Arc::clone(s), codes.card);
                            codes.settle(codes.card)
                        }
                    }
                };
                cells(d, v, from).map(code).collect()
            }
            (Encoder::Values { chains, reps }, None) => {
                let mut out = Vec::with_capacity(n - from);
                for row in from..n {
                    let v: Value = self.expr.eval(table, row)?;
                    let chain = chains.entry(hash_value(&v)).or_default();
                    out.push(match chain.iter().find(|&&code| reps[code as usize].sql_eq(&v)) {
                        Some(&code) => code,
                        None => {
                            chain.push(reps.len() as u32);
                            reps.push(v);
                            reps.len() as u32 - 1
                        }
                    });
                }
                out
            }
            // The encoder was chosen from the expression and its column's
            // type: only a table of another schema gets here.
            (_, column) => {
                return Err(Error::TypeMismatch {
                    expected: "the column type the partitioner was built over",
                    got: column.map_or("expression", |c| c.data_type().name()),
                    context: "PARTITION BY",
                })
            }
        })
    }
}

/// Integer keys → `u32` slots, `VACANT` until written: a direct table while
/// the keys span a range small relative to the rows routed, a hash map from
/// the batch on that takes them past it. Chosen from the data.
enum IntSlots {
    Direct { base: u64, table: Vec<u32> },
    Map(FxHashMap<u64, u32>),
}

impl Default for IntSlots {
    fn default() -> Self {
        IntSlots::Direct { base: 0, table: Vec::new() }
    }
}

impl IntSlots {
    /// The widest key span a direct table may cover after `rows` rows: at
    /// most 16 B of table per row, and small inputs never hash.
    fn direct_span(rows: usize) -> u64 {
        4 * rows as u64 + 1024
    }

    /// Makes every one of `keys` addressable: the direct table grows to span
    /// them, or gives way to the map.
    fn cover(&mut self, keys: impl Iterator<Item = u64>, rows: usize) {
        let IntSlots::Direct { base, table } = self else { return };
        let seen = (!table.is_empty()).then(|| (*base, *base + (table.len() as u64 - 1)));
        let range = keys.fold(seen, |range, key| {
            Some(range.map_or((key, key), |(lo, hi)| (lo.min(key), hi.max(key))))
        });
        let Some((lo, hi)) = range else { return };
        if hi - lo >= Self::direct_span(rows) {
            *self = IntSlots::Map(self.entries().into_iter().collect());
            return;
        }
        if !table.is_empty() && lo < *base {
            table.splice(0..0, std::iter::repeat_n(VACANT, (*base - lo) as usize));
        }
        *base = lo;
        table.resize((hi - lo) as usize + 1, VACANT);
    }

    /// The slot's value, after writing `fresh` into it if it was vacant.
    #[inline]
    fn get_or_set(&mut self, key: u64, fresh: u32) -> u32 {
        let slot = match self {
            IntSlots::Direct { base, table } => &mut table[(key - *base) as usize],
            IntSlots::Map(map) => map.entry(key).or_insert(VACANT),
        };
        if *slot == VACANT {
            *slot = fresh;
        }
        *slot
    }

    /// Every `(key, slot)` written so far.
    fn entries(&self) -> Vec<(u64, u32)> {
        match self {
            IntSlots::Direct { base, table } => {
                let taken = table.iter().enumerate().filter(|(_, &slot)| slot != VACANT);
                taken.map(|(i, &slot)| (*base + i as u64, slot)).collect()
            }
            IntSlots::Map(map) => map.iter().map(|(&key, &slot)| (key, slot)).collect(),
        }
    }

    /// Codes for a batch of keys (`None` = NULL), after `rows` rows in all.
    fn encode(
        &mut self,
        keys: impl Iterator<Item = Option<u64>> + Clone,
        rows: usize,
        codes: &mut Counter,
    ) -> Vec<u32> {
        self.cover(keys.clone().flatten(), rows);
        keys.map(|key| match key {
            None => codes.null(),
            Some(key) => codes.settle(self.get_or_set(key, codes.card)),
        })
        .collect()
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
    use crate::expr::col;

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
    fn floats_group_by_total_cmp_and_expressions_by_sql_eq() {
        let nan2 = f64::from_bits(f64::NAN.to_bits() ^ 1);
        let t = Table::new(vec![("f", Column::floats(vec![0.0, -0.0, f64::NAN, nan2, 0.0, nan2]))])
            .unwrap();
        let expect = vec![vec![0, 4], vec![1], vec![2], vec![3, 5]];
        assert_eq!(partition_rows(&t, &[col("f")]).unwrap(), expect);
        // The same grouping through the expression arm.
        assert_eq!(partition_rows(&t, &[col("f").neg().neg()]).unwrap(), expect);
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
        let Encoder::Ints { slots, .. } = &p.keys[0].encoder else { panic!("int key") };
        assert!(matches!(slots, IntSlots::Map(_)));
    }
}
