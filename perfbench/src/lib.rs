//! # holistic-perfbench — the repo benchmark
//!
//! Seven workloads run from SQL text to result table through `SqlSession`
//! (one through `IncrementalEngine`), four end-to-end metrics per workload,
//! every output verified, and a separate traced run that times the calls
//! into each layer's public functions from outside. Definitions are
//! committed as `BENCHMARK.json` at the repository root, which
//! [`metrics::benchmark_json`] renders; see `README.md` in this directory.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cli;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod run;
pub mod trace;
pub mod verify;
pub mod workloads;
