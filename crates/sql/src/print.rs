//! `to_sql()` — pretty-printing engine specs back to parseable SQL.
//!
//! The printer is the inverse of the parser over the engine's spec types:
//! for any [`WindowQuery`] the engine accepts,
//! `parse(print(query))` lowers back to a structurally identical query, and
//! executing both yields bit-identical outputs (asserted over the full fuzz
//! spec space by `fuzz --sql-roundtrip`). Two caveats, documented in
//! `SQL.md`: non-finite float literals print as overflow/NaN-producing
//! arithmetic (`1e999`, `(1e999 - 1e999)`), and `Neg`/`Not` nodes wrapping
//! bare literals print with explicit parentheses so the parser's
//! negative-literal folding cannot collapse them.

use holistic_window::expr::{BinOp, Expr};
use holistic_window::frame::{FrameBound, FrameExclusion, FrameMode, FrameSpec};
use holistic_window::spec::{FuncKind, FunctionCall, WindowSpec};
use holistic_window::value::format_date;
use holistic_window::{SortKey, Value, WindowQuery};
use std::fmt::Write;

/// Renders a whole query as `SELECT <calls> FROM <table> WINDOW w AS (...)`,
/// with every call attached to the shared named window `w`.
pub fn to_sql(query: &WindowQuery, table: &str) -> String {
    let mut s = String::from("SELECT ");
    for (i, call) in query.calls.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "{} OVER w AS {}", call_to_sql(call), ident(&call.output_name));
    }
    let _ = write!(s, " FROM {} WINDOW w AS ({})", ident(table), spec_to_sql(&query.spec));
    s
}

/// Renders the body of an OVER clause / WINDOW definition (without parens).
/// The frame is always printed explicitly, so the rendered spec is
/// independent of the parser's default-frame rules.
pub fn spec_to_sql(spec: &WindowSpec) -> String {
    let mut parts: Vec<String> = Vec::new();
    if !spec.partition_by.is_empty() {
        let keys: Vec<String> = spec.partition_by.iter().map(expr_to_sql).collect();
        parts.push(format!("PARTITION BY {}", keys.join(", ")));
    }
    if !spec.order_by.is_empty() {
        parts.push(format!("ORDER BY {}", sort_keys_to_sql(&spec.order_by)));
    }
    parts.push(frame_to_sql(&spec.frame));
    parts.join(" ")
}

/// Renders one function call (everything before `OVER`).
pub fn call_to_sql(call: &FunctionCall) -> String {
    let mut s = String::new();
    match call.kind {
        FuncKind::CountStar => s.push_str("count(*)"),
        FuncKind::Median
            if call.args.is_empty()
                && call.inner_order.len() == 1
                && !call.inner_order[0].desc
                && !call.inner_order[0].nulls_first =>
        {
            // The builder's `median(expr)` shorthand: one implicit ASC key.
            let _ = write!(s, "median({})", expr_to_sql(&call.inner_order[0].expr));
        }
        kind => {
            s.push_str(kind.name());
            s.push('(');
            if call.distinct {
                s.push_str("DISTINCT ");
            }
            let args: Vec<String> = call.args.iter().map(expr_to_sql).collect();
            s.push_str(&args.join(", "));
            if !call.inner_order.is_empty() {
                if !call.args.is_empty() {
                    s.push(' ');
                }
                let _ = write!(s, "ORDER BY {}", sort_keys_to_sql(&call.inner_order));
            }
            s.push(')');
        }
    }
    if call.ignore_nulls {
        s.push_str(" IGNORE NULLS");
    }
    if let Some(pred) = &call.filter {
        let _ = write!(s, " FILTER (WHERE {})", expr_to_sql(pred));
    }
    s
}

/// Renders an ORDER BY criteria list.
pub fn sort_keys_to_sql(keys: &[SortKey]) -> String {
    let rendered: Vec<String> = keys
        .iter()
        .map(|k| {
            let mut s = expr_to_sql(&k.expr);
            if k.desc {
                s.push_str(" DESC");
            }
            // Direction defaults: NULLS LAST for ASC, NULLS FIRST for DESC.
            if k.nulls_first != k.desc {
                s.push_str(if k.nulls_first { " NULLS FIRST" } else { " NULLS LAST" });
            }
            s
        })
        .collect();
    rendered.join(", ")
}

/// Renders a frame clause (always in the explicit BETWEEN form).
pub fn frame_to_sql(frame: &FrameSpec) -> String {
    let mode = match frame.mode {
        FrameMode::Rows => "ROWS",
        FrameMode::Range => "RANGE",
        FrameMode::Groups => "GROUPS",
    };
    let mut s =
        format!("{mode} BETWEEN {} AND {}", bound_to_sql(&frame.start), bound_to_sql(&frame.end));
    match frame.exclusion {
        FrameExclusion::NoOthers => {}
        FrameExclusion::CurrentRow => s.push_str(" EXCLUDE CURRENT ROW"),
        FrameExclusion::Group => s.push_str(" EXCLUDE GROUP"),
        FrameExclusion::Ties => s.push_str(" EXCLUDE TIES"),
    }
    s
}

fn bound_to_sql(bound: &FrameBound) -> String {
    match bound {
        FrameBound::UnboundedPreceding => "UNBOUNDED PRECEDING".to_string(),
        FrameBound::CurrentRow => "CURRENT ROW".to_string(),
        FrameBound::UnboundedFollowing => "UNBOUNDED FOLLOWING".to_string(),
        FrameBound::Preceding(e) => format!("{} PRECEDING", offset_to_sql(e)),
        FrameBound::Following(e) => format!("{} FOLLOWING", offset_to_sql(e)),
    }
}

/// Offset expressions parse below AND/OR/NOT (so `BETWEEN ... AND ...` stays
/// unambiguous); parenthesize anything weaker-binding.
fn offset_to_sql(e: &Expr) -> String {
    if prec(e) < PREC_CMP {
        format!("({})", expr_to_sql(e))
    } else {
        expr_to_sql(e)
    }
}

const PREC_OR: u8 = 1;
const PREC_AND: u8 = 2;
const PREC_NOT: u8 = 3;
const PREC_CMP: u8 = 4;
const PREC_ADD: u8 = 5;
const PREC_MUL: u8 = 6;
const PREC_UNARY: u8 = 8;
const PREC_ATOM: u8 = 10;

fn prec(e: &Expr) -> u8 {
    match e {
        Expr::Col(_) | Expr::Lit(_) => PREC_ATOM,
        Expr::Neg(_) => PREC_UNARY,
        Expr::Not(_) => PREC_NOT,
        Expr::Bin(op, _, _) => match op {
            BinOp::Or => PREC_OR,
            BinOp::And => PREC_AND,
            BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge | BinOp::Eq | BinOp::Ne => PREC_CMP,
            BinOp::Add | BinOp::Sub => PREC_ADD,
            BinOp::Mul | BinOp::Div | BinOp::Mod => PREC_MUL,
        },
    }
}

fn op_text(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Mod => "%",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::Eq => "=",
        BinOp::Ne => "<>",
        BinOp::And => "AND",
        BinOp::Or => "OR",
    }
}

/// Renders a scalar expression with minimal parentheses.
pub fn expr_to_sql(e: &Expr) -> String {
    match e {
        Expr::Col(name) => ident(name),
        Expr::Lit(v) => value_to_sql(v),
        Expr::Neg(inner) => format!("-({})", expr_to_sql(inner)),
        Expr::Not(inner) => {
            // NOT binds above AND/OR and below comparisons.
            if prec(inner) >= PREC_NOT {
                format!("NOT {}", expr_to_sql(inner))
            } else {
                format!("NOT ({})", expr_to_sql(inner))
            }
        }
        Expr::Bin(op, l, r) => {
            let p = prec(e);
            // Comparisons are non-associative: a comparison operand of a
            // comparison always needs parentheses. Everything else is
            // left-associative.
            let lp = prec(l) < p || (p == PREC_CMP && prec(l) == PREC_CMP);
            let rp = prec(r) <= p;
            let ls = if lp { format!("({})", expr_to_sql(l)) } else { expr_to_sql(l) };
            let rs = if rp { format!("({})", expr_to_sql(r)) } else { expr_to_sql(r) };
            format!("{ls} {} {rs}", op_text(*op))
        }
    }
}

/// Renders a literal.
///
/// Non-finite floats have no SQL literal: infinities print as the
/// overflowing literal `1e999`, NaN as `(1e999 - 1e999)` — these evaluate
/// back to the same value but do not round-trip *structurally* (see SQL.md).
pub fn value_to_sql(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Bool(true) => "TRUE".to_string(),
        Value::Bool(false) => "FALSE".to_string(),
        Value::Int(i) => i.to_string(),
        Value::Float(x) => {
            if x.is_nan() {
                "(1e999 - 1e999)".to_string()
            } else if x.is_infinite() {
                if *x > 0.0 {
                    "1e999".to_string()
                } else {
                    "-1e999".to_string()
                }
            } else {
                // `{:?}` is Rust's shortest round-trip rendering; it always
                // contains `.` or `e`, so it re-parses as a float.
                let s = format!("{x:?}");
                debug_assert!(
                    s.contains(['.', 'e', 'E']),
                    "float literal {s} must re-parse as float"
                );
                s
            }
        }
        Value::Str(s) => format!("'{}'", s.replace('\'', "''")),
        Value::Date(d) => format!("DATE '{}'", format_date(*d)),
    }
}

/// Keywords that would be mis-parsed as clause starters or literals if they
/// appeared as bare identifiers; the printer double-quotes them.
const KEYWORDS: &[&str] = &[
    "select",
    "from",
    "where",
    "window",
    "as",
    "over",
    "partition",
    "by",
    "order",
    "asc",
    "desc",
    "nulls",
    "first",
    "last",
    "rows",
    "range",
    "groups",
    "between",
    "and",
    "or",
    "not",
    "unbounded",
    "preceding",
    "following",
    "current",
    "row",
    "exclude",
    "no",
    "others",
    "group",
    "ties",
    "filter",
    "distinct",
    "ignore",
    "respect",
    "within",
    "date",
    "null",
    "true",
    "false",
];

/// Renders an identifier, double-quoting when it would not lex as a bare
/// identifier or would collide with a keyword.
pub fn ident(name: &str) -> String {
    let bare = !name.is_empty()
        && name.chars().next().is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
        && !KEYWORDS.contains(&name.to_ascii_lowercase().as_str());
    if bare {
        name.to_string()
    } else {
        format!("\"{}\"", name.replace('"', "\"\""))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use holistic_window::{col, lit};

    #[test]
    fn literals() {
        assert_eq!(value_to_sql(&Value::Int(-5)), "-5");
        assert_eq!(value_to_sql(&Value::Float(0.5)), "0.5");
        assert_eq!(value_to_sql(&Value::Float(1e300)), "1e300");
        assert_eq!(value_to_sql(&Value::str("it's")), "'it''s'");
        assert_eq!(value_to_sql(&Value::Date(0)), "DATE '1970-01-01'");
        assert_eq!(value_to_sql(&Value::Null), "NULL");
    }

    #[test]
    fn dates_print_as_they_display() {
        let neg_year = holistic_window::value::ymd_to_days(-1, 3, 1);
        for d in [i32::MIN, neg_year, -1, 0, 2_932_897, 3_000_000, i32::MAX] {
            let v = Value::Date(d);
            assert_eq!(value_to_sql(&v), format!("DATE '{v}'"), "day {d}");
        }
    }

    #[test]
    fn precedence_parens() {
        // (a + b) * c needs parens; a + b * c does not.
        let e = col("a").add(col("b")).mul(col("c"));
        assert_eq!(expr_to_sql(&e), "(a + b) * c");
        let e = col("a").add(col("b").mul(col("c")));
        assert_eq!(expr_to_sql(&e), "a + b * c");
        // Right-nested same-precedence keeps parens to preserve shape.
        let e = col("a").sub(col("b").sub(col("c")));
        assert_eq!(expr_to_sql(&e), "a - (b - c)");
        let e = col("a").lt(lit(1i64)).and(col("b").gt(lit(2i64)));
        assert_eq!(expr_to_sql(&e), "a < 1 AND b > 2");
    }

    #[test]
    fn keyword_idents_are_quoted() {
        assert_eq!(ident("group"), "\"group\"");
        assert_eq!(ident("c0_count"), "c0_count");
        assert_eq!(ident("count(*)"), "\"count(*)\"");
    }

    #[test]
    fn call_median_shorthand() {
        let c = FunctionCall::median(col("price"));
        assert_eq!(call_to_sql(&c), "median(price)");
    }
}
