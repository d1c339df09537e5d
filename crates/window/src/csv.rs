//! Minimal CSV import/export for [`Table`] — enough for a downstream user to
//! load real data into the engine (no external CSV crate; RFC-4180-style
//! quoting).
//!
//! Types are inferred per column from the data: `Int` ⊂ `Float`; ISO dates
//! (`[-]YYYY-MM-DD`, read by [`crate::value::parse_date`] and written by
//! [`crate::value::format_date`]) become [`crate::value::Value::Date`];
//! `true`/`false` become booleans; empty fields are NULL; everything else is
//! a string.

use crate::column::Column;
use crate::error::{Error, Result};
use crate::table::Table;
use crate::value::{parse_date, DataType, Value};

/// Parses CSV text (first line = headers) into a table.
pub fn table_from_csv(text: &str) -> Result<Table> {
    let mut records = parse_records(text);
    if records.is_empty() {
        return Ok(Table::empty());
    }
    let headers = records.remove(0);
    let ncols = headers.len();
    for (i, rec) in records.iter().enumerate() {
        if rec.len() != ncols {
            return Err(Error::InvalidArgument(format!(
                "csv row {} has {} fields, expected {ncols}",
                i + 2,
                rec.len()
            )));
        }
    }
    let mut table = Table::empty();
    for (c, name) in headers.iter().enumerate() {
        let raw: Vec<&str> = records.iter().map(|r| r[c].as_str()).collect();
        let dt = infer_type(&raw);
        let mut col = Column::new_empty(dt);
        for field in raw {
            col.push(parse_value(field, dt))?;
        }
        table.add_column(name.clone(), col)?;
    }
    Ok(table)
}

/// Serializes a table to CSV text (headers + rows; NULL = empty field).
pub fn table_to_csv(table: &Table) -> String {
    let mut out = String::new();
    let names: Vec<&str> = table.iter().map(|(n, _)| n).collect();
    out.push_str(&names.iter().map(|n| quote(n)).collect::<Vec<_>>().join(","));
    out.push('\n');
    for row in 0..table.num_rows() {
        let fields: Vec<String> = table
            .iter()
            .map(|(_, c)| match c.get(row) {
                Value::Null => String::new(),
                Value::Str(s) => quote(&s),
                v => v.to_string(),
            })
            .collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

fn quote(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Splits CSV text into records of unquoted fields.
fn parse_records(text: &str) -> Vec<Vec<String>> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut chars = text.chars().peekable();
    let mut in_quotes = false;
    let mut any = false;
    while let Some(ch) = chars.next() {
        any = true;
        if in_quotes {
            match ch {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    field.push('"');
                }
                '"' => in_quotes = false,
                c => field.push(c),
            }
        } else {
            match ch {
                '"' => in_quotes = true,
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {}
                '\n' => {
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                c => field.push(c),
            }
        }
    }
    if any && (!field.is_empty() || !record.is_empty()) {
        record.push(field);
        records.push(record);
    }
    records
}

fn infer_type(fields: &[&str]) -> DataType {
    let mut dt: Option<DataType> = None;
    for &f in fields {
        if f.is_empty() {
            continue; // NULL, compatible with everything
        }
        let this = if f.parse::<i64>().is_ok() {
            DataType::Int
        } else if f.parse::<f64>().is_ok() {
            DataType::Float
        } else if parse_date(f).is_some() {
            DataType::Date
        } else if f == "true" || f == "false" {
            DataType::Bool
        } else {
            DataType::Str
        };
        dt = Some(match (dt, this) {
            (None, t) => t,
            (Some(a), b) if a == b => a,
            (Some(DataType::Int), DataType::Float) | (Some(DataType::Float), DataType::Int) => {
                DataType::Float
            }
            _ => DataType::Str,
        });
        if dt == Some(DataType::Str) {
            break;
        }
    }
    dt.unwrap_or(DataType::Str)
}

fn parse_value(field: &str, dt: DataType) -> Value {
    if field.is_empty() {
        return Value::Null;
    }
    match dt {
        DataType::Int => Value::Int(field.parse().expect("inferred int")),
        DataType::Float => Value::Float(field.parse().expect("inferred float")),
        DataType::Date => Value::Date(parse_date(field).expect("inferred date")),
        DataType::Bool => Value::Bool(field == "true"),
        DataType::Str => Value::str(field),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let csv = "a,b,c,d,e\n1,1.5,2020-02-29,true,hello\n2,,1999-12-31,false,\"x,y\"\n,3.0,,,z\n";
        let t = table_from_csv(csv).unwrap();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.column("a").unwrap().data_type(), DataType::Int);
        assert_eq!(t.column("b").unwrap().data_type(), DataType::Float);
        assert_eq!(t.column("c").unwrap().data_type(), DataType::Date);
        assert_eq!(t.column("d").unwrap().data_type(), DataType::Bool);
        assert_eq!(t.column("e").unwrap().data_type(), DataType::Str);
        assert_eq!(t.column("a").unwrap().get(2), Value::Null);
        assert_eq!(t.column("b").unwrap().get(1), Value::Null);
        assert_eq!(t.column("e").unwrap().get(1), Value::str("x,y"));
        // Round trip through text again.
        let text = table_to_csv(&t);
        let t2 = table_from_csv(&text).unwrap();
        for (name, c) in t.iter() {
            let c2 = t2.column(name).unwrap();
            for i in 0..t.num_rows() {
                assert!(c.get(i).sql_eq(&c2.get(i)), "{name} row {i}");
            }
        }
    }

    #[test]
    fn quoted_fields_with_newlines_and_quotes() {
        let csv = "x\n\"line1\nline2\"\n\"he said \"\"hi\"\"\"\n";
        let t = table_from_csv(csv).unwrap();
        assert_eq!(t.column("x").unwrap().get(0), Value::str("line1\nline2"));
        assert_eq!(t.column("x").unwrap().get(1), Value::str("he said \"hi\""));
    }

    #[test]
    fn mixed_int_float_becomes_float() {
        let t = table_from_csv("v\n1\n2.5\n").unwrap();
        assert_eq!(t.column("v").unwrap().data_type(), DataType::Float);
        assert_eq!(t.column("v").unwrap().get(0), Value::Float(1.0));
    }

    #[test]
    fn mixed_incompatible_becomes_string() {
        let t = table_from_csv("v\n1\nhello\n").unwrap();
        assert_eq!(t.column("v").unwrap().data_type(), DataType::Str);
        assert_eq!(t.column("v").unwrap().get(0), Value::str("1"));
    }

    #[test]
    fn invalid_dates_are_strings() {
        let t = table_from_csv("v\n2020-02-30\n2020-13-01\n").unwrap();
        assert_eq!(t.column("v").unwrap().data_type(), DataType::Str);
    }

    #[test]
    fn dates_round_trip_across_the_i32_range() {
        let days = [i32::MIN, -1, 0, 2_932_897, 3_000_000, i32::MAX];
        let t = Table::new(vec![("d", Column::dates(days.to_vec()))]).unwrap();
        let back = table_from_csv(&table_to_csv(&t)).unwrap();
        let col = back.column("d").unwrap();
        assert_eq!(col.data_type(), DataType::Date);
        for (i, &d) in days.iter().enumerate() {
            assert!(col.get(i).sql_eq(&Value::Date(d)), "day {d} came back as {}", col.get(i));
        }
    }

    #[test]
    fn ragged_rows_error() {
        assert!(table_from_csv("a,b\n1\n").is_err());
    }

    #[test]
    fn empty_input() {
        assert_eq!(table_from_csv("").unwrap().num_rows(), 0);
        // Headers only → zero-row table with columns.
        let t = table_from_csv("a,b\n").unwrap();
        assert_eq!(t.num_columns(), 2);
        assert_eq!(t.num_rows(), 0);
    }

    #[test]
    fn crlf_line_endings() {
        let t = table_from_csv("a,b\r\n1,2\r\n3,4\r\n").unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.column("b").unwrap().get(1), Value::Int(4));
    }
}
