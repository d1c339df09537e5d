//! Snapshot battery for the frontend's rendered error messages.
//!
//! The full rendered text — wording, line/column, gutter and caret excerpt —
//! is a documented, stable API (see `SQL.md` §7). Every case here pins one
//! malformed query to its exact rendering; a diff in this file is a breaking
//! change to the error surface and must be called out in SQL.md.

use holistic_sql::SqlSession;
use holistic_window::{Column, Table, Value};

/// Renders the error a query produces against a session holding table `t`
/// with columns `a` (int), `b` (float), `s` (string).
fn render(sql: &str) -> String {
    let table = Table::new(vec![
        ("a", Column::ints(vec![1, 2, 3])),
        ("b", Column::floats(vec![1.0, 2.0, 3.0])),
        ("s", Column::strs(vec!["x", "y", "z"])),
    ])
    .unwrap();
    let mut session = SqlSession::new();
    session.register("t", table);
    match session.query(sql) {
        Ok(_) => panic!("query unexpectedly succeeded: {sql}"),
        Err(e) => e.to_string(),
    }
}

macro_rules! case {
    ($name:ident, $sql:expr, $expected:expr) => {
        #[test]
        fn $name() {
            let got = render($sql);
            assert_eq!(got, $expected, "\n--- got ---\n{got}\n--- want ---\n{}", $expected);
        }
    };
}

// ---- lexer ----

case!(
    illegal_character,
    "SELECT # FROM t",
    "parse error: expected a token, found `#`\n \
     --> line 1, column 8\n   \
     |\n \
     1 | SELECT # FROM t\n   \
     |        ^"
);

case!(
    unterminated_string,
    "SELECT 'abc FROM t",
    "parse error: expected a closing `'`, found end of input\n \
     --> line 1, column 8\n   \
     |\n \
     1 | SELECT 'abc FROM t\n   \
     |        ^^^^^^^^^^^"
);

// ---- parser: statement shape ----

case!(
    missing_select_item,
    "SELECT FROM t",
    "parse error: expected `FROM`, found `t`\n \
     --> line 1, column 13\n   \
     |\n \
     1 | SELECT FROM t\n   \
     |             ^"
);

case!(
    missing_from,
    "SELECT a",
    "parse error: expected `FROM`, found end of input\n \
     --> line 1, column 9\n   \
     |\n \
     1 | SELECT a\n   \
     |         ^"
);

case!(
    alias_requires_as,
    "SELECT a b FROM t",
    "parse error: expected `FROM`, found `b`\n \
     --> line 1, column 10\n   \
     |\n \
     1 | SELECT a b FROM t\n   \
     |          ^"
);

case!(
    trailing_garbage,
    "SELECT a FROM t garbage",
    "parse error: expected end of input, found `garbage`\n \
     --> line 1, column 17\n   \
     |\n \
     1 | SELECT a FROM t garbage\n   \
     |                 ^^^^^^^"
);

// ---- parser: frames ----

case!(
    frame_missing_second_bound,
    "SELECT median(a) OVER (ROWS BETWEEN 2 PRECEDING AND) FROM t",
    "parse error: expected an expression, found `)`\n \
     --> line 1, column 52\n   \
     |\n \
     1 | SELECT median(a) OVER (ROWS BETWEEN 2 PRECEDING AND) FROM t\n   \
     |                                                    ^"
);

case!(
    frame_between_missing_and,
    "SELECT sum(a) OVER (ROWS BETWEEN 1 PRECEDING 2 FOLLOWING) FROM t",
    "parse error: expected `AND`, found `2`\n \
     --> line 1, column 46\n   \
     |\n \
     1 | SELECT sum(a) OVER (ROWS BETWEEN 1 PRECEDING 2 FOLLOWING) FROM t\n   \
     |                                              ^"
);

case!(
    bad_exclude_mode,
    "SELECT sum(a) OVER (ROWS CURRENT ROW EXCLUDE FOO) FROM t",
    "parse error: expected `CURRENT ROW`, `GROUP`, `TIES` or `NO OTHERS`, found `FOO`\n \
     --> line 1, column 46\n   \
     |\n \
     1 | SELECT sum(a) OVER (ROWS CURRENT ROW EXCLUDE FOO) FROM t\n   \
     |                                              ^^^"
);

// ---- parser: functions ----

case!(
    unknown_function,
    "SELECT foo(a) OVER () FROM t",
    "parse error: expected a scalar expression (function calls are not supported here), found `foo`\n \
     --> line 1, column 8\n   \
     |\n \
     1 | SELECT foo(a) OVER () FROM t\n   \
     |        ^^^"
);

case!(
    distinct_star,
    "SELECT count(DISTINCT *) OVER () FROM t",
    "parse error: expected an expression, found `*`\n \
     --> line 1, column 23\n   \
     |\n \
     1 | SELECT count(DISTINCT *) OVER () FROM t\n   \
     |                       ^"
);

// ---- planner: name resolution ----

case!(
    unknown_column_in_call,
    "SELECT sum(nosuch) OVER () FROM t",
    "plan error: unknown column `nosuch`\n \
     --> line 1, column 12\n   \
     |\n \
     1 | SELECT sum(nosuch) OVER () FROM t\n   \
     |            ^^^^^^"
);

case!(
    unknown_column_in_where,
    "SELECT a FROM t WHERE nosuch > 1",
    "plan error: unknown column `nosuch`\n \
     --> line 1, column 23\n   \
     |\n \
     1 | SELECT a FROM t WHERE nosuch > 1\n   \
     |                       ^^^^^^"
);

case!(
    unknown_table,
    "SELECT 1 AS x FROM nosuch",
    "plan error: unknown table `nosuch`\n \
     --> line 1, column 20\n   \
     |\n \
     1 | SELECT 1 AS x FROM nosuch\n   \
     |                    ^^^^^^"
);

// ---- planner: named windows & inheritance (SQL.md §5) ----

case!(
    unknown_window,
    "SELECT sum(a) OVER w FROM t",
    "plan error: unknown window `w`\n \
     --> line 1, column 20\n   \
     |\n \
     1 | SELECT sum(a) OVER w FROM t\n   \
     |                    ^"
);

case!(
    window_forward_reference,
    "SELECT sum(a) OVER w2 FROM t WINDOW w2 AS (w), w AS (ORDER BY a)",
    "plan error: unknown window `w` (windows may only reference earlier names)\n \
     --> line 1, column 44\n   \
     |\n \
     1 | SELECT sum(a) OVER w2 FROM t WINDOW w2 AS (w), w AS (ORDER BY a)\n   \
     |                                            ^"
);

case!(
    inherit_partition_override,
    "SELECT sum(a) OVER w2 FROM t WINDOW w AS (PARTITION BY a), w2 AS (w PARTITION BY b)",
    "plan error: cannot override PARTITION BY of window `w`\n \
     --> line 1, column 67\n   \
     |\n \
     1 | SELECT sum(a) OVER w2 FROM t WINDOW w AS (PARTITION BY a), w2 AS (w PARTITION BY b)\n   \
     |                                                                   ^"
);

case!(
    inherit_order_by_conflict,
    "SELECT sum(a) OVER w2 FROM t WINDOW w AS (ORDER BY a), w2 AS (w ORDER BY b)",
    "plan error: cannot add ORDER BY: window `w` already has one\n \
     --> line 1, column 63\n   \
     |\n \
     1 | SELECT sum(a) OVER w2 FROM t WINDOW w AS (ORDER BY a), w2 AS (w ORDER BY b)\n   \
     |                                                               ^"
);

case!(
    inherit_framed_base,
    "SELECT sum(a) OVER (w) FROM t WINDOW w AS (ORDER BY a ROWS CURRENT ROW)",
    "plan error: cannot inherit from window `w`: it has a frame clause\n \
     --> line 1, column 21\n   \
     |\n \
     1 | SELECT sum(a) OVER (w) FROM t WINDOW w AS (ORDER BY a ROWS CURRENT ROW)\n   \
     |                     ^"
);

// ---- planner: call shapes (engine `validate`, re-spanned) ----

case!(
    sum_wrong_arity,
    "SELECT sum() OVER () FROM t",
    "plan error: invalid argument: sum: takes one argument\n \
     --> line 1, column 8\n   \
     |\n \
     1 | SELECT sum() OVER () FROM t\n   \
     |        ^^^^^"
);

case!(
    ntile_missing_bucket_count,
    "SELECT ntile() OVER (ORDER BY a) FROM t",
    "plan error: invalid argument: ntile: takes the bucket count\n \
     --> line 1, column 8\n   \
     |\n \
     1 | SELECT ntile() OVER (ORDER BY a) FROM t\n   \
     |        ^^^^^^^"
);

case!(
    distinct_on_value_function,
    "SELECT first_value(DISTINCT a) OVER (ORDER BY a) FROM t",
    "plan error: invalid argument: first_value: DISTINCT only applies to aggregates\n \
     --> line 1, column 8\n   \
     |\n \
     1 | SELECT first_value(DISTINCT a) OVER (ORDER BY a) FROM t\n   \
     |        ^^^^^^^^^^^^^^^^^^^^^^^"
);

case!(
    ignore_nulls_on_aggregate,
    "SELECT sum(a) IGNORE NULLS OVER () FROM t",
    "plan error: invalid argument: sum: IGNORE NULLS only applies to value functions\n \
     --> line 1, column 8\n   \
     |\n \
     1 | SELECT sum(a) IGNORE NULLS OVER () FROM t\n   \
     |        ^^^^^^"
);

case!(
    percentile_without_order_by,
    "SELECT percentile_disc(0.5) OVER () FROM t",
    "plan error: invalid argument: percentile_disc: needs exactly one ORDER BY key\n \
     --> line 1, column 8\n   \
     |\n \
     1 | SELECT percentile_disc(0.5) OVER () FROM t\n   \
     |        ^^^^^^^^^^^^^^^^^^^^"
);

case!(
    percentile_fraction_reads_a_column,
    "SELECT percentile_disc(b ORDER BY a) OVER () FROM t",
    "plan error: invalid argument: percentile_disc: fraction must be a constant expression, \
     not a column reference\n \
     --> line 1, column 8\n   \
     |\n \
     1 | SELECT percentile_disc(b ORDER BY a) OVER () FROM t\n   \
     |        ^^^^^^^^^^^^^^^^^^^^^^^^^^^^^"
);

// ---- session ----

case!(
    duplicate_output_column,
    "SELECT a, a FROM t",
    "plan error: duplicate output column `a` (use AS to rename)\n \
     --> line 1, column 11\n   \
     |\n \
     1 | SELECT a, a FROM t\n   \
     |           ^"
);

// The final ORDER BY resolves against output aliases first, then the input
// table, at execution time — so a bad key surfaces as an engine error, not
// a positional one. Pinned here so a future positional upgrade shows up as
// a deliberate diff.
case!(
    unknown_final_order_by_key,
    "SELECT a FROM t ORDER BY nosuch",
    "execution error: unknown column: nosuch"
);

// ---- frame offsets (SQL.md §4.2) ----

// Offsets are checked when the frame is resolved, so these are engine errors
// without a position. A negative offset does not reverse direction (that is
// LEAD/LAG's rule) and a NULL one does not empty the frame.
case!(
    negative_frame_offset,
    "SELECT sum(a) OVER (ORDER BY a ROWS BETWEEN -1 PRECEDING AND 2 FOLLOWING) FROM t",
    "execution error: invalid frame bound: offset must be non-negative"
);

case!(
    null_frame_offset,
    "SELECT sum(a) OVER (ORDER BY a RANGE NULL PRECEDING) FROM t",
    "execution error: invalid frame bound: offset must not be NULL"
);

case!(
    non_numeric_frame_offset,
    "SELECT sum(a) OVER (ORDER BY a GROUPS s PRECEDING) FROM t",
    "execution error: invalid frame bound: offset must be numeric, got str"
);

// Without an offset bound RANGE took a path of its own that had no arm for
// this and panicked.
case!(
    range_frame_starting_at_unbounded_following,
    "SELECT sum(a) OVER (ORDER BY a RANGE BETWEEN UNBOUNDED FOLLOWING AND CURRENT ROW) FROM t",
    "execution error: invalid frame bound: UNBOUNDED FOLLOWING cannot start a frame"
);

/// ROWS and GROUPS count whole units: a fractional offset is truncated.
#[test]
fn fractional_frame_offset_counts_whole_rows() {
    let table = Table::new(vec![("a", Column::ints(vec![1, 2, 3]))]).unwrap();
    let mut session = SqlSession::new();
    session.register("t", table);
    for mode in ["ROWS", "GROUPS"] {
        let sql = format!("SELECT sum(a) OVER (ORDER BY a {mode} 1.5 PRECEDING) AS x FROM t");
        let out = session.query(&sql).unwrap();
        let want: Vec<Value> = [1, 3, 5].map(Value::Int).into();
        assert_eq!(out.column("x").unwrap().to_values(), want, "{mode}");
    }
}

/// Multi-line sources render the excerpt of the offending line only, with
/// the right line number and gutter width.
#[test]
fn multiline_source_excerpt() {
    let got = render("SELECT a,\n       sum(nosuch) OVER ()\nFROM t");
    assert_eq!(
        got,
        "plan error: unknown column `nosuch`\n \
         --> line 2, column 12\n   \
         |\n \
         2 |        sum(nosuch) OVER ()\n   \
         |            ^^^^^^"
    );
}

/// The frontend never panics: every line of garbage yields a typed error.
#[test]
fn no_panics_on_garbage() {
    let garbage = [
        "",
        ";;;",
        "SELECT",
        "((((((((",
        "SELECT ( FROM t",
        "SELECT a FROM",
        "WINDOW w AS ()",
        "SELECT 0x FROM t",
        "SELECT 1e FROM t",
        "SELECT sum(a) OVER (ROWS BETWEEN AND AND) FROM t",
        "SELECT \u{0} FROM t",
        "SELECT 'a''b FROM t",
        "SELECT a FROM t ORDER BY",
        "SELECT a FROM t WHERE",
        "SELECT count(*) OVER (GROUPS 999999999999999999999999 PRECEDING) FROM t",
    ];
    for sql in garbage {
        let _ = render(sql);
    }
}
