//! # cadb-exec
//!
//! A vectorized execution engine that runs workload queries **directly
//! over compressed pages**, plus the actuals harness that closes the
//! estimated-vs-actual loop: everything upstream of this crate *estimates*
//! (SampleCF, deductions, what-if costing); this crate *builds, executes
//! and measures*.
//!
//! ## Compressed execution
//!
//! Scans read an index's encoded leaves through
//! [`cadb_storage::PhysicalIndex::page_cursor`] and build per-column
//! [`vector::ColumnVector`]s straight from the page's column sections —
//! RLE columns stay as `(run_len, value)` pairs, dictionary columns (PAGE
//! local dictionaries, index-wide global dictionaries) as decoded entries
//! plus per-row codes. The kernels short-circuit on that structure:
//! filters evaluate a predicate once per run or dictionary entry, gathers
//! clone from the one decoded value, and scalar integer aggregates
//! collapse a run to `run_len × value` with exact `i128` arithmetic.
//!
//! Every scan is also available as a `decompress-then-execute` reference
//! ([`scan::ExecMode::Reference`]) that decodes whole pages and operates
//! row at a time. The two paths are **bit-identical by contract** for all
//! codecs and every [`cadb_common::Parallelism`] setting (leaves are
//! batched over `cadb_common::par` with partials merged in leaf order);
//! `tests/exec_equivalence.rs` and this crate's property tests pin it.
//!
//! ## Access-path planning
//!
//! [`planner`] is the **materialized view** of the workspace's one
//! access-path planner ([`cadb_engine::access_path::plan_query`], which
//! the what-if optimizer runs over a hypothetical configuration): per
//! query it picks the cheapest structure the materialized configuration
//! holds — the base structure, a covering secondary index (seeking on the
//! key range the query's sargable prefix predicates imply —
//! [`cadb_engine::KeyRange::from_prefix`] →
//! [`cadb_storage::PhysicalIndex::page_cursor_range`]), or a matching MV
//! index that answers a grouped query outright. Planned execution
//! ([`scan::ExecMode::Compressed`]) is pinned bit-for-bit against
//! [`scan::ExecMode::ForcedBase`] (full base scans, same kernels) and the
//! reference by `tests/plan_equivalence.rs` and the metamorphic
//! properties in `tests/planner_properties.rs`; `tests/planner_views.rs`
//! pins what the two views may and may not answer differently.
//!
//! ## Actuals
//!
//! [`MeasuredRun`] materializes a recommended
//! [`cadb_engine::Configuration`] into real compressed structures (via the
//! same row streams the estimators sample), executes the workload's
//! queries over them in both modes, and reports measured size and row
//! counts next to the advisor's estimates with relative error — the
//! [`MeasuredReport`] the `repro -- exec` experiment prints and
//! `cadb::TuningSession::execute` returns. Its residual ratios feed
//! `cadb_core::ErrorModel::calibrate_samplecf`, so measurement flows back
//! into the model that produced the estimates.
//!
//! ## The write path
//!
//! [`store`] closes the *other* half of that loop: a snapshot-isolated
//! MVCC [`Store`] over the same materialized configuration commits the
//! workload's INSERT/UPDATE statements through a WAL'd single-log,
//! multi-writer path with incremental secondary-index and MV maintenance
//! — so `mv_maintenance_cost` and per-statement write costs in a
//! [`MeasuredReport`] are *measured* (actual rows matched, columns
//! changed, MV groups touched), not what-if guesses. Crash recovery
//! replays the log into a fresh store and reproduces the committed state
//! bit for bit; `tests/store_recovery.rs` tears the log at every sync
//! point to prove it.
//!
//! The log's *layout* is a parameter of that one commit protocol:
//! [`ShardedStore`] opens the same [`Store`] over per-shard WAL segments
//! routed by the build path's [`cadb_shard::Partitioning`] policies and
//! stitched into one total order by a commit-order log — with snapshots,
//! digests and per-statement actuals bit-identical to the single WAL for
//! every shard count, parallelism mode and batch size (the same
//! `tests/store_recovery.rs` suite runs over every layout).

#![warn(missing_docs)]

pub mod measured;
pub mod planner;
pub mod query;
pub mod scan;
pub mod store;
pub mod vector;

pub use measured::{
    MaterializedConfig, MeasuredReport, MeasuredRun, MeasuredStructure, WriteCostActual,
    DEFAULT_WRITE_SEED,
};
pub use planner::{plan_query, PathKind, QueryPlan, TablePath};
pub use query::{execute_planned, execute_query};
pub use scan::{
    scan_aggregate, scan_aggregate_range, scan_filter, scan_filter_range, BoundPredicate, ExecMode,
    ExecStats,
};
pub use store::{
    CommitReceipt, PageCacheStats, RecoveryReport, ShardStats, ShardedRecoveryReport, ShardedStore,
    Snapshot, Store, StoreCheckpoint, StoreTotals, WriteActual, WriteKind, MAX_SERVE_SHARDS,
};
pub use vector::{ColumnVector, IntAggregate, VectorData};
