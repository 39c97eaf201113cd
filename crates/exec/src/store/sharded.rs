//! [`ShardedStore`]: the typed handle on a [`Store`] whose log uses the
//! sharded layout (shard WALs + order log, see `store::log`). It adds no
//! protocol — commits, checkpoints, snapshots and digests are the
//! [`Store`]'s own, reached through `Deref` — only the constructors that
//! pick the layout and the accessors that have no meaning on a single WAL.

use super::log::{CommitLog, ShardLog, ShardStats, ShardedRecoveryReport};
use super::{Store, StoreCheckpoint};
use crate::measured::MaterializedConfig;
use cadb_common::{obs, CadbError, Result};
use cadb_engine::{CostModel, Database};
use cadb_shard::ShardSpec;
use std::ops::Deref;

/// A [`Store`] logging to per-shard WAL streams under a global commit
/// order.
pub struct ShardedStore<'a> {
    store: Store<'a>,
    spec: ShardSpec,
}

impl<'a> Deref for ShardedStore<'a> {
    type Target = Store<'a>;

    fn deref(&self) -> &Store<'a> {
        &self.store
    }
}

impl<'a> From<ShardedStore<'a>> for Store<'a> {
    fn from(sharded: ShardedStore<'a>) -> Store<'a> {
        sharded.store
    }
}

impl<'a> ShardedStore<'a> {
    /// Open a store over a materialized configuration, logging under the
    /// shard layout `spec`.
    pub fn open(
        db: &'a Database,
        mat: &'a MaterializedConfig,
        model: CostModel,
        spec: ShardSpec,
    ) -> Result<ShardedStore<'a>> {
        let store = Store::with_log(db, mat, model, CommitLog::sharded(spec)?);
        Ok(ShardedStore { store, spec })
    }

    /// Sharded crash recovery: decode every shard segment in parallel,
    /// then walk the order log, re-merging each record's per-shard
    /// sub-effects into the original statement and applying it in global
    /// LSN order. A record referencing a lost shard frame — a torn shard
    /// tail — ends the committed prefix: it and every later record are
    /// discarded.
    pub fn recover(
        db: &'a Database,
        mat: &'a MaterializedConfig,
        model: CostModel,
        spec: ShardSpec,
        order_bytes: &[u8],
        shard_bytes: &[Vec<u8>],
    ) -> Result<(ShardedStore<'a>, ShardedRecoveryReport)> {
        Self::recover_set(db, mat, model, spec, None, order_bytes, shard_bytes)
    }

    /// Checkpoint-anchored sharded recovery: install the artifact, resume
    /// every shard's local LSN counter, and replay only the
    /// post-checkpoint tails of the (truncated, possibly torn) log set.
    pub fn recover_with_checkpoint(
        db: &'a Database,
        mat: &'a MaterializedConfig,
        model: CostModel,
        spec: ShardSpec,
        ckpt: &StoreCheckpoint,
        order_bytes: &[u8],
        shard_bytes: &[Vec<u8>],
    ) -> Result<(ShardedStore<'a>, ShardedRecoveryReport)> {
        Self::recover_set(db, mat, model, spec, Some(ckpt), order_bytes, shard_bytes)
    }

    fn recover_set(
        db: &'a Database,
        mat: &'a MaterializedConfig,
        model: CostModel,
        spec: ShardSpec,
        ckpt: Option<&StoreCheckpoint>,
        order_bytes: &[u8],
        shard_bytes: &[Vec<u8>],
    ) -> Result<(ShardedStore<'a>, ShardedRecoveryReport)> {
        let shards = Some((spec, shard_bytes));
        let (store, order, reader) = Store::recover_log(db, mat, model, shards, ckpt, order_bytes)?;
        let report = reader.into_report(order);
        obs::publish_counters(&report.as_metrics());
        Ok((ShardedStore { store, spec }, report))
    }

    /// The shard layout this store logs under.
    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// The order log's bytes (what would be on disk at the last sync).
    pub fn order_bytes(&self) -> Vec<u8> {
        self.store.wal_bytes()
    }

    /// The order log's sync points.
    pub fn order_sync_points(&self) -> Vec<usize> {
        self.store.wal_sync_points()
    }

    /// Per-shard running counters.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        let st = self.store.state.read();
        st.log.shards().iter().map(ShardLog::stats).collect()
    }

    /// One shard's WAL segment bytes.
    pub fn shard_wal_bytes(&self, shard: usize) -> Result<Vec<u8>> {
        self.with_shard(shard, |s| s.wal.bytes().to_vec())
    }

    /// One shard's sync points.
    pub fn shard_sync_points(&self, shard: usize) -> Result<Vec<usize>> {
        self.with_shard(shard, |s| s.wal.sync_points().to_vec())
    }

    fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&ShardLog) -> R) -> Result<R> {
        let st = self.store.state.read();
        let shards = st.log.shards();
        shards.get(shard).map(f).ok_or_else(|| {
            CadbError::InvalidArgument(format!(
                "shard {shard} out of range for a {}-shard store",
                shards.len()
            ))
        })
    }
}
