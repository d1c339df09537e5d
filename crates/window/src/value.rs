//! Scalar values and their SQL comparison semantics.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A dynamically typed scalar.
///
/// Dates are days since 1970-01-01 (a distinct type so that RANGE frames can
/// do day arithmetic); strings are reference counted so rows copy cheaply.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// 64-bit integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(Arc<str>),
    /// Days since the epoch.
    Date(i32),
    /// Boolean.
    Bool(bool),
}

/// The type of a [`Value`] / column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataType {
    /// 64-bit integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
    /// Days since the epoch.
    Date,
    /// Boolean.
    Bool,
}

impl DataType {
    /// Every type, in declaration order (`ALL[t] as usize == t`).
    pub const ALL: [DataType; 5] =
        [DataType::Int, DataType::Float, DataType::Str, DataType::Date, DataType::Bool];

    /// The type name, for diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "str",
            DataType::Date => "date",
            DataType::Bool => "bool",
        }
    }
}

impl Value {
    /// Builds a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// True when NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// The value's type; `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
            Value::Date(_) => Some(DataType::Date),
            Value::Bool(_) => Some(DataType::Bool),
        }
    }

    /// The type name, for diagnostics.
    pub fn type_name(&self) -> &'static str {
        self.data_type().map_or("null", DataType::name)
    }

    /// Heap bytes behind this value, beyond the enum spine: the UTF-8
    /// payload of a string, zero for everything else. Each owned `Arc<str>`
    /// reference reports the full payload — footprint accounting counts the
    /// payload once per owned ref, an upper bound that prices what keeping
    /// the referencing artifact alive keeps alive.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Value::Str(s) => s.len(),
            _ => 0,
        }
    }

    /// Numeric view (ints, floats and dates), used by RANGE frame arithmetic.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            Value::Date(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Integer view.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            Value::Date(v) => Some(*v as i64),
            _ => None,
        }
    }

    /// Boolean view (for FILTER predicates; NULL is falsy, per SQL).
    pub fn is_truthy(&self) -> bool {
        matches!(self, Value::Bool(true))
    }

    /// SQL comparison: NULLs compare equal to each other and *greater* than
    /// every non-null (the engine's canonical NULLS LAST order; sort keys can
    /// flip it). Cross-type numeric comparisons (int/float) are supported;
    /// other type mixes order by type name to stay total.
    pub fn sql_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Greater,
            (_, Null) => Ordering::Less,
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            (Date(a), Date(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.as_ref().cmp(b.as_ref()),
            (Bool(a), Bool(b)) => a.cmp(b),
            (a, b) => a.type_name().cmp(b.type_name()),
        }
    }

    /// SQL equality for grouping and DISTINCT: NULL is equal to NULL (as in
    /// `GROUP BY` / `IS NOT DISTINCT FROM`).
    pub fn sql_eq(&self, other: &Value) -> bool {
        self.sql_cmp(other) == Ordering::Equal
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Date(d) => f.write_str(&format_date(*d)),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.sql_eq(other)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Days-since-epoch → (year, month, day), proleptic Gregorian with
/// astronomical year numbering; exact over the whole `i32` day range.
pub fn days_to_ymd(days: i32) -> (i32, u32, u32) {
    // Howard Hinnant's civil_from_days.
    let z = i64::from(days) + 719_468;
    let era = if z >= 0 { z } else { z - 146_096 } / 146_097;
    let doe = z - era * 146_097;
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = (doy - (153 * mp + 2) / 5 + 1) as u32;
    let m = if mp < 10 { mp + 3 } else { mp - 9 } as u32;
    ((y + if m <= 2 { 1 } else { 0 }) as i32, m, d)
}

/// (year, month, day) → days since epoch, the inverse of [`days_to_ymd`].
/// A date outside the `i32` day range wraps; [`parse_date`] rejects it.
pub fn ymd_to_days(y: i32, m: u32, d: u32) -> i32 {
    // Howard Hinnant's days_from_civil.
    let y = y as i64 - if m <= 2 { 1 } else { 0 };
    let era = if y >= 0 { y } else { y - 399 } / 400;
    let yoe = y - era * 400;
    let mp = if m > 2 { m - 3 } else { m + 9 } as i64;
    let doy = (153 * mp + 2) / 5 + d as i64 - 1;
    let doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
    (era * 146_097 + doe - 719_468) as i32
}

/// Parses `[-]YYYY-MM-DD` (a year of at least four digits, then a two-digit
/// month and day) into days since the epoch: the text [`format_date`]
/// writes, which is also what SQL's `DATE '…'` and CSV fields hold. `None`
/// when the text has another shape, the date does not exist (month 13,
/// Feb 30) or it lies outside the `i32` day range.
pub fn parse_date(text: &str) -> Option<i32> {
    let (ymd, negative) = match text.strip_prefix('-') {
        Some(rest) => (rest, true),
        None => (text, false),
    };
    let (b, n) = (ymd.as_bytes(), ymd.len());
    let dash = |i| i == n - 6 || i == n - 3;
    if n < 10
        || !b.iter().enumerate().all(|(i, c)| if dash(i) { *c == b'-' } else { c.is_ascii_digit() })
    {
        return None;
    }
    let y: i32 = ymd[..n - 6].parse().ok()?;
    let y = if negative { -y } else { y };
    let (m, d) = (ymd[n - 5..n - 3].parse().ok()?, ymd[n - 2..].parse().ok()?);
    let days = ymd_to_days(y, m, d);
    // Only a real date in range survives the round trip: month 13 or Feb 30
    // comes back as another date, and so does a day count that wrapped.
    (days_to_ymd(days) == (y, m, d)).then_some(days)
}

/// Renders days since the epoch as `[-]YYYY-MM-DD`: the year zero-padded to
/// four digits, month and day to two.
pub fn format_date(days: i32) -> String {
    let (y, m, d) = days_to_ymd(days);
    let sign = if y < 0 { "-" } else { "" };
    format!("{sign}{:04}-{m:02}-{d:02}", y.unsigned_abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_ordering_is_last() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(5)), Ordering::Greater);
        assert_eq!(Value::Int(5).sql_cmp(&Value::Null), Ordering::Less);
        assert_eq!(Value::Null.sql_cmp(&Value::Null), Ordering::Equal);
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(Value::Int(2).sql_cmp(&Value::Float(2.5)), Ordering::Less);
        assert_eq!(Value::Float(3.0).sql_cmp(&Value::Int(3)), Ordering::Equal);
    }

    #[test]
    fn nan_is_ordered_totally() {
        let nan = Value::Float(f64::NAN);
        assert_eq!(nan.sql_cmp(&nan), Ordering::Equal);
        assert_eq!(Value::Float(1.0).sql_cmp(&nan), Ordering::Less);
    }

    #[test]
    fn string_and_bool_compare() {
        assert_eq!(Value::str("abc").sql_cmp(&Value::str("abd")), Ordering::Less);
        assert_eq!(Value::Bool(false).sql_cmp(&Value::Bool(true)), Ordering::Less);
    }

    #[test]
    fn sql_eq_treats_nulls_equal() {
        assert!(Value::Null.sql_eq(&Value::Null));
        assert!(!Value::Null.sql_eq(&Value::Int(0)));
    }

    #[test]
    fn date_roundtrip() {
        for &(y, m, d) in &[(1970, 1, 1), (1992, 1, 2), (1998, 12, 31), (2000, 2, 29), (1900, 3, 1)]
        {
            let days = ymd_to_days(y, m, d);
            assert_eq!(days_to_ymd(days), (y, m, d), "{y}-{m}-{d}");
        }
        assert_eq!(ymd_to_days(1970, 1, 1), 0);
        assert_eq!(ymd_to_days(1970, 1, 2), 1);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Date(0).to_string(), "1970-01-01");
        assert_eq!(Value::Date(ymd_to_days(-1, 3, 1)).to_string(), "-0001-03-01");
        assert_eq!(Value::Date(3_000_000).to_string(), "10183-09-21");
    }

    #[test]
    fn epoch_and_neighbors() {
        assert_eq!(parse_date("1970-01-01"), Some(0));
        assert_eq!(parse_date("1969-12-31"), Some(-1));
        assert_eq!(parse_date("1970-01-02"), Some(1));
        assert_eq!(format_date(0), "1970-01-01");
        assert_eq!(format_date(-1), "1969-12-31");
    }

    #[test]
    fn round_trips_across_the_i32_range() {
        for &d in &[i32::MIN, -719468, -1, 0, 1, 365, 59, 60, 730_000, 3_000_000, i32::MAX] {
            assert_eq!(parse_date(&format_date(d)), Some(d), "day {d}");
        }
    }

    #[test]
    fn rejects_invalid_dates() {
        assert_eq!(parse_date("1970-02-30"), None);
        assert_eq!(parse_date("1970-13-01"), None);
        assert_eq!(parse_date("1970-00-01"), None);
        assert_eq!(parse_date("1970-01-00"), None);
        assert_eq!(parse_date("not-a-date"), None);
        assert_eq!(parse_date("1970-01"), None);
        assert_eq!(parse_date(""), None);
        assert_eq!(parse_date("-"), None);
    }

    #[test]
    fn rejects_other_shapes() {
        for text in
            ["1970-1-01", "1970-01-1", "197-01-01", "+1970-01-01", "1970/01/01", "--1970-01-01"]
        {
            assert_eq!(parse_date(text), None, "{text}");
        }
    }

    #[test]
    fn rejects_extreme_years_without_overflow() {
        assert_eq!(parse_date("9223372036854775807-01-01"), None);
        assert_eq!(parse_date("-9223372036854775808-01-01"), None);
        assert_eq!(parse_date("2147483647-12-31"), None);
        assert_eq!(parse_date("-2147483647-01-01"), None);
        assert_eq!(parse_date("6000001-01-01"), None);
        assert_eq!(parse_date("-6000001-01-01"), None);
        // One day past either end of the i32 range.
        assert_eq!(parse_date("5881610-07-12"), None);
        assert_eq!(parse_date("-5877641-06-22"), None);
    }

    #[test]
    fn leap_years() {
        assert!(parse_date("2000-02-29").is_some());
        assert_eq!(parse_date("1900-02-29"), None);
        assert!(parse_date("2024-02-29").is_some());
    }
}
