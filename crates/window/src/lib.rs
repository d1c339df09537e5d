//! # holistic-window — the window operator substrate
//!
//! A self-contained columnar window-function engine built around the merge
//! sort tree algorithms of Vogelsgesang et al. (SIGMOD 2022). It plays the
//! role Hyper plays in the paper: partitioning, ORDER BY, frame resolution,
//! and evaluation of **all** SQL:2011 window and aggregate functions over
//! **arbitrary frames** — including the paper's proposed extensions:
//!
//! * framed `DISTINCT` aggregates (`COUNT(DISTINCT x) OVER (...)`, §4.2/§4.3),
//! * framed rank functions with an independent ORDER BY (§4.4),
//! * framed percentiles and value functions (§4.5),
//! * framed `LEAD`/`LAG` (§4.6),
//! * `FILTER`, `IGNORE NULLS`, frame exclusion, per-row and non-monotonic
//!   frame bounds (§4.7).
//!
//! ```
//! use holistic_window::prelude::*;
//!
//! let t = Table::new(vec![
//!     ("day", Column::ints(vec![1, 2, 3, 4, 5])),
//!     ("price", Column::ints(vec![10, 50, 20, 40, 30])),
//! ]).unwrap();
//!
//! // Moving median over the last 2 days:
//! let out = WindowQuery::over(
//!     WindowSpec::new()
//!         .order_by(vec![SortKey::asc(col("day"))])
//!         .frame(FrameSpec::rows(FrameBound::Preceding(lit(2i64)), FrameBound::CurrentRow)),
//! )
//! .call(FunctionCall::median(col("price")).named("med"))
//! .execute(&t)
//! .unwrap();
//!
//! let med: Vec<_> = out.column("med").unwrap().to_values();
//! assert_eq!(med[4], Value::Int(30)); // median of {20, 40, 30}
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod append;
mod artifacts;
pub mod column;
pub mod csv;
mod dictionary;
pub mod error;
mod eval;
pub mod executor;
pub mod expr;
pub mod frame;
pub mod hash;
pub mod order;
pub mod partition;
mod plan;
pub mod remap;
pub mod spec;
pub mod strategy;
pub mod table;
pub mod value;
mod vm;

pub use append::{AppendProfile, AppendResult, IncrementalEngine};
pub use column::Column;
pub use error::{Error, Result};
pub use executor::{
    CacheStats, ExecOptions, ExecProfile, ProbeKernelStats, SpillStats, StrategyProfile,
    WindowQuery,
};
pub use expr::{col, lit, BinOp, Expr};
pub use frame::{FrameBound, FrameExclusion, FrameMode, FrameSpec};
pub use order::SortKey;
pub use spec::{FuncKind, FunctionCall, WindowSpec};
pub use strategy::{CallClass, CostModel, PartitionStats, Strategy, StrategyMode};
pub use table::Table;
pub use value::{DataType, Value};

/// Convenient glob import.
pub mod prelude {
    pub use crate::append::{AppendProfile, AppendResult, IncrementalEngine};
    pub use crate::column::Column;
    pub use crate::executor::{
        CacheStats, ExecOptions, ExecProfile, ProbeKernelStats, SpillStats, WindowQuery,
    };
    pub use crate::expr::{col, lit, Expr};
    pub use crate::frame::{FrameBound, FrameExclusion, FrameSpec};
    pub use crate::order::SortKey;
    pub use crate::spec::{FuncKind, FunctionCall, WindowSpec};
    pub use crate::strategy::{CostModel, Strategy, StrategyMode};
    pub use crate::table::Table;
    pub use crate::value::Value;
}
