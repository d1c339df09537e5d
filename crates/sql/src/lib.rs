//! # holistic-sql — a SQL window-query frontend for `holistic-window`
//!
//! A hand-rolled lexer, recursive-descent parser, and planner that lower a
//! documented SQL dialect onto the engine's spec types ([`WindowQuery`],
//! [`WindowSpec`], [`FunctionCall`]). The dialect covers the engine's whole
//! surface: all 21 function kinds, `ROWS`/`RANGE`/`GROUPS` frames with
//! constant *and per-row expression* bounds, the four `EXCLUDE` modes,
//! `FILTER (WHERE ...)`, `IGNORE NULLS`, `DISTINCT`, function-level `ORDER
//! BY` (in-paren or `WITHIN GROUP`), and named windows with the SQL
//! standard's inheritance rules.
//!
//! The normative language reference lives in `SQL.md` at the repository
//! root, rendered here as the [`mod@reference`] module.
//!
//! ```
//! use holistic_sql::SqlSession;
//! use holistic_window::{Column, Table, Value};
//!
//! let mut session = SqlSession::new();
//! session.register(
//!     "trades",
//!     Table::new(vec![
//!         ("sym", Column::strs(vec!["a", "b", "a", "b", "a"])),
//!         ("px", Column::ints(vec![10, 50, 20, 40, 30])),
//!     ])
//!     .unwrap(),
//! );
//!
//! let out = session
//!     .query(
//!         "SELECT sym, px, \
//!                 median(px) OVER (PARTITION BY sym \
//!                                  ROWS BETWEEN 1 PRECEDING AND CURRENT ROW) AS med \
//!          FROM trades ORDER BY sym, px",
//!     )
//!     .unwrap();
//! // Row (a, 30): frame {20, 30}, discrete median = first at cume_dist >= 0.5.
//! assert_eq!(out.column("med").unwrap().get(2), Value::Int(20));
//! ```
//!
//! Errors are typed and positional — [`ParseError`] / [`PlanError`] carry a
//! byte [`Span`] plus a rendered caret excerpt, and parsing never panics on
//! any input:
//!
//! ```
//! use holistic_sql::parse_query;
//!
//! let err = parse_query("SELECT sum(v) OVER (ROWS 2 PRECEDING BETWEEN) FROM t").unwrap_err();
//! assert!(err.to_string().contains("expected"));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod planner;
pub mod print;
pub mod session;

pub use error::{Excerpt, ParseError, PlanError, Span, SqlError};
pub use parser::parse_query;
pub use planner::{compile, parse_window_query, plan, PlannedItem, SqlPlan};
pub use print::to_sql;
pub use session::{execute_plan, SqlSession};

// Re-exported engine types that appear in this crate's public API.
pub use holistic_window::{FunctionCall, WindowQuery, WindowSpec};

/// The SQL language reference (`SQL.md`), rendered into rustdoc.
///
/// This is the normative description of the dialect: grammar, per-function
/// semantics, frame and exclusion semantics, named-window inheritance, and
/// the table of deviations from PostgreSQL.
#[doc = include_str!("../../../SQL.md")]
pub mod reference {}
