//! # cadb-engine
//!
//! The optimizer substrate: catalog + statistics, logical statements lowered
//! from SQL, cardinality estimation, the **compression-aware cost model**
//! (paper Appendix A), hypothetical configurations and the *what-if* API
//! that physical design tools drive (§3), plus a small executor used to
//! build real physical structures and sanity-check the cost model's trends.

#![warn(missing_docs)]

pub mod access_path;
pub mod cardinality;
pub mod catalog;
pub mod config;
pub mod cost;
pub mod exec;
pub mod lower;
pub mod predicate;
pub mod stmt;
pub mod whatif;

pub use access_path::{extract_key_range, KeyRange, PathKind, QueryPlan, TablePath};
pub use catalog::Database;
pub use config::{Configuration, IndexSpec, MvSpec, Parallelism, PhysicalStructure, SizeEstimate};
pub use cost::CostModel;
pub use predicate::{PredOp, Predicate};
pub use stmt::{BulkDelete, BulkInsert, BulkUpdate, JoinEdge, Query, Statement, Workload};
pub use whatif::WhatIfOptimizer;
