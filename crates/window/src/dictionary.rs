//! The engine's one value identity: a dictionary that turns the values of
//! typed columns into dense `u32` codes, first appearance first.
//!
//! Two values take one code exactly when they are
//! [`Value::sql_eq`](crate::value::Value::sql_eq): NULL with NULL, integers,
//! dates and booleans by value, floats by bit pattern (`total_cmp`, so
//! `-0.0` apart from `0.0` and NaNs by payload), strings by their bytes.
//! PARTITION BY keys, the DISTINCT aggregates and MODE all read these codes;
//! nothing else in the engine decides whether two values are equal.

use crate::column::Column;
use crate::value::DataType;
use rustc_hash::FxHashMap;
use std::sync::Arc;

/// "No code yet" in every code table; also bounds the rows one dictionary
/// can take, since a code is at most the row count.
pub(crate) const VACANT: u32 = u32::MAX;

/// A dictionary of values of one type, kept across the columns it encodes.
#[derive(Default)]
pub(crate) struct Dictionary {
    codes: Counter,
    /// The values' type and their table: fixed in advance, or by the first
    /// column that holds a value (an all-NULL column may carry another type
    /// than the values that follow).
    encoder: Option<(DataType, Encoder)>,
}

impl Dictionary {
    /// A dictionary for values of type `ty`.
    pub fn of_type(ty: DataType) -> Dictionary {
        Dictionary { codes: Counter::default(), encoder: Some(Encoder::of(ty)) }
    }

    /// Distinct values seen so far (NULL counts as one): codes are
    /// `0..card()`.
    pub fn card(&self) -> u32 {
        self.codes.card
    }

    /// The codes of `column`'s rows, with `rows` rows encoded in all once
    /// this column is; `None` when the column's values are of another type
    /// than the dictionary's.
    pub fn encode(&mut self, column: &Column, rows: usize) -> Option<Vec<u32>> {
        let codes = &mut self.codes;
        if !column.any_valid() {
            return Some((0..column.len()).map(|_| codes.null()).collect());
        }
        let ty = column.data_type();
        let (fixed, encoder) = self.encoder.get_or_insert_with(|| Encoder::of(ty));
        if *fixed != ty {
            return None;
        }
        Some(match (encoder, column) {
            (Encoder::Ints(slots), Column::Int(d, v)) => {
                slots.encode(cells(d, v).map(|c| c.map(|&x| biased(x))), rows, codes)
            }
            (Encoder::Ints(slots), Column::Date(d, v)) => {
                slots.encode(cells(d, v).map(|c| c.map(|&x| biased(x.into()))), rows, codes)
            }
            (Encoder::Ints(slots), Column::Bool(d, v)) => {
                slots.encode(cells(d, v).map(|c| c.map(|&x| x.into())), rows, codes)
            }
            (Encoder::Ints(slots), Column::Float(d, v)) => {
                slots.encode(cells(d, v).map(|c| c.map(|x| x.to_bits())), rows, codes)
            }
            (Encoder::Strs { short, long }, Column::Str(d, v)) => {
                short.cover(cells(d, v).flatten().filter_map(|s| packed(s)), rows);
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
                cells(d, v).map(code).collect()
            }
            _ => unreachable!("the encoder was made for the column's type"),
        })
    }
}

/// The codes of `column`'s rows and how many distinct values they hold.
pub(crate) fn codes_of(column: &Column) -> (Vec<u32>, usize) {
    let mut dictionary = Dictionary::default();
    let codes = dictionary.encode(column, column.len()).expect("a new dictionary takes any type");
    (codes, dictionary.card() as usize)
}

enum Encoder {
    /// Int / Date / Bool values by value, Float values by bit pattern
    /// (`total_cmp` equality is bit equality).
    Ints(IntSlots),
    /// Str values. Strings of up to seven bytes are integers (see
    /// [`packed`]); longer ones are looked up by `&str`, one owned `Arc` per
    /// distinct string.
    Strs { short: IntSlots, long: FxHashMap<Arc<str>, u32> },
}

impl Encoder {
    fn of(ty: DataType) -> (DataType, Encoder) {
        let encoder = match ty {
            DataType::Str => {
                Encoder::Strs { short: IntSlots::default(), long: FxHashMap::default() }
            }
            _ => Encoder::Ints(IntSlots::default()),
        };
        (ty, encoder)
    }
}

/// Hands out codes. NULL takes the next code when it first appears, like any
/// other value.
#[derive(Default)]
pub(crate) struct Counter {
    pub card: u32,
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

/// The rows of a typed column, `None` for NULL.
fn cells<'a, T>(data: &'a [T], valid: &'a [bool]) -> impl Iterator<Item = Option<&'a T>> + Clone {
    data.iter().enumerate().map(move |(i, x)| (valid.is_empty() || valid[i]).then_some(x))
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

/// Integer keys → `u32` slots, `VACANT` until written: a direct table while
/// the keys span a range small relative to the rows encoded, a hash map from
/// the batch on that takes them past it. Chosen from the data.
pub(crate) enum IntSlots {
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
    pub fn cover(&mut self, keys: impl Iterator<Item = u64>, rows: usize) {
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
    pub fn get_or_set(&mut self, key: u64, fresh: u32) -> u32 {
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
    pub fn entries(&self) -> Vec<(u64, u32)> {
        match self {
            IntSlots::Direct { base, table } => {
                let taken = table.iter().enumerate().filter(|(_, &slot)| slot != VACANT);
                taken.map(|(i, &slot)| (*base + i as u64, slot)).collect()
            }
            IntSlots::Map(map) => map.iter().map(|(&key, &slot)| (key, slot)).collect(),
        }
    }

    /// Codes for a batch of keys (`None` = NULL), after `rows` rows in all.
    pub fn encode(
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

#[cfg(test)]
mod tests {
    use super::*;

    impl Dictionary {
        /// Whether the integer table gave way to the hash map.
        pub(crate) fn hashes_ints(&self) -> bool {
            matches!(self.encoder, Some((_, Encoder::Ints(IntSlots::Map(_)))))
        }
    }

    /// Codes by `sql_eq`: `-0.0` apart from `0.0`, NaNs by payload, NULL as
    /// one value of its own, first appearance first.
    #[test]
    fn codes_follow_sql_equality_in_first_appearance_order() {
        let nan2 = f64::from_bits(f64::NAN.to_bits() ^ 1);
        let f = Column::floats_opt(vec![
            Some(0.0),
            Some(-0.0),
            None,
            Some(f64::NAN),
            Some(nan2),
            Some(0.0),
            Some(nan2),
            None,
        ]);
        assert_eq!(codes_of(&f), (vec![0, 1, 2, 3, 4, 0, 4, 2], 5));
        let big = -175_318_655_624_032_360;
        assert_eq!(codes_of(&Column::ints(vec![1, big, 1, big])), (vec![0, 1, 0, 1], 2));
        let s = Column::strs(vec!["AAAAAAAABBBBBBBB", "$OW42/h3sfVq&E)7", "AAAAAAAABBBBBBBB"]);
        assert_eq!(codes_of(&s), (vec![0, 1, 0], 2));
    }
}
