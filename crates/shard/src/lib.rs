//! # cadb-shard
//!
//! The sharded, out-of-core build path: hash/range partitioning, parallel
//! per-shard sorts with a deterministic merge, and the memory budget every
//! build is charged to. Leaf packing itself is not here: the merged stream
//! goes to [`cadb_storage::PhysicalIndex::build_striped`], the one index
//! build path.
//!
//! The crate's contract is the workspace's determinism discipline applied
//! to physical structure builds: **sharding is an execution strategy, not a
//! data layout**. A [`ShardedIndex`] build produces bytes that depend only
//! on the logical input and the stripe grid — never on the shard count, the
//! partitioning policy, or the [`cadb_common::par::Parallelism`] mode — so
//! every downstream consumer (executor, planner, actuals harness) sees the
//! exact structure a monolithic build would have produced.
//!
//! * [`ShardedIndex`] — partition → per-shard sort → k-way merge →
//!   striped build, bit-identical across shard counts and parallelism
//!   modes.
//! * [`BuildOptions`] / [`cadb_common::MemoryBudget`] — every build meters
//!   its working sets and resident pages, surfaces the peak in
//!   [`BuildStats`], and fails (rather than thrashes) when a hard limit
//!   would be exceeded.
//! * [`ShardRouter`] — the serving path's row-at-a-time counterpart of the
//!   build-side partitioner.

#![warn(missing_docs)]

pub mod index;
pub mod partition;

pub use index::ShardedIndex;
pub use partition::{
    BuildOptions, BuildStats, Partitioning, ShardRouter, ShardSpec, DEFAULT_STRIPE_ROWS,
};
