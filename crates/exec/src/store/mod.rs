//! A snapshot-isolated, WAL'd store over the compressed
//! [`MaterializedConfig`] — the subsystem that turns *what-if*
//! INSERT/UPDATE/DELETE maintenance costs into *measured* ones.
//!
//! ## Architecture
//!
//! The compressed structures a [`MaterializedConfig`] built stay
//! **immutable**: the store layers [`delta::TableDelta`] version chains
//! over each table's base (MVCC; a [`Snapshot`] pins a commit-LSN
//! watermark and reads a consistent state without blocking writers) and
//! per-MV aggregate overlays over the built MV structures. DELETEs are
//! end-of-chain tombstones: the live version's interval is closed with no
//! successor, so older snapshots keep seeing the row.
//!
//! ## The commit protocol
//!
//! There is one, and every commit — live or replayed by recovery — walks
//! it:
//!
//! 1. **Prepare → price → stage, outside any lock.** Any number of
//!    writers resolve statements into [`effects::CommitEffects`], probe
//!    dimensions, price maintenance against the *whole* statement
//!    ([`maintain::maintain`], a pure function of effects + immutable
//!    bases) and encode the bytes the log will hold.
//! 2. **Assign LSNs → append → apply, in one short critical section**
//!    under the store's single state lock. The batch gets consecutive
//!    LSNs, the log appends it with **one sync point per stream** — the
//!    commit-point stream last — and the effects are applied in order.
//!    [`Store::commit_batch`] is the group-commit form: batching changes
//!    durability granularity only, never the logged bytes.
//!
//! The **log layout** is data, not a second protocol. A store opened with
//! [`Store::open`] logs to one WAL; one opened with
//! [`ShardedStore::open`] places the same commits on `N` per-shard WALs
//! (routed by a [`cadb_shard::ShardSpec`]) plus an order log whose record
//! is the commit point. Snapshots, state digests, per-statement
//! [`WriteActual`]s, checkpoint artifacts and post-recovery state are
//! **bit-identical** across layouts — `tests/store_recovery.rs` runs one
//! suite over both, through fault injection at every sync point of every
//! stream. In this process all streams are `Vec<u8>`s, so the sharded
//! layout buys no parallelism; it costs `shards + 1` appends per batch.
//!
//! ## Snapshot page cache
//!
//! Readers don't have to re-derive row caches per snapshot:
//! [`Snapshot::pages`] serves a *page image* — the table's compressed
//! leaves with the snapshot's visible delta folded in (O(delta) page patch
//! for append-only deltas, leaf rebuild otherwise) — from a cache keyed by
//! `(table, effective LSN)`, where the effective LSN is the last commit
//! that actually modified the table. Every snapshot between two
//! modifications shares one image; [`Snapshot::seek`] runs the planner's
//! B+Tree seek-cursor descent directly over it.
//!
//! ## Determinism contract
//!
//! * Per-statement measured costs are pure functions of the statement's
//!   resolved effects and the immutable bases ([`maintain::maintain`]), so
//!   the measured totals of a run are identical under
//!   [`Parallelism::Serial`] and concurrent execution.
//! * [`Store::apply_workload_batched`] prepares in parallel but commits in
//!   statement order, so recovered state, per-statement actuals **and the
//!   raw WAL bytes** ([`Store::wal_frame_digest`]) are bit-identical
//!   across every batch size and every [`Parallelism`] mode.
//! * [`Store::state_digest`] hashes the visible row *multiset* (plus MV
//!   overlays), so equal states digest equally however writers
//!   interleaved.
//! * Crash recovery ([`Store::recover`], [`ShardedStore::recover`])
//!   replays the commit-point stream in LSN order through the same
//!   stage → append → apply steps; the replayed prefix reproduces the
//!   original committed state, its measured totals **and its log bytes**
//!   bit for bit (torn tails are truncated, duplicate frames skipped, see
//!   [`cadb_storage::wal::replay`]; a commit whose shard frame was torn
//!   away ends the prefix).
//!
//! ## Checkpoint-anchored truncation
//!
//! A [`Store::checkpoint`] folds the committed deltas back into real
//! compressed structures (pure-append tables through O(delta) page
//! *patches* via [`cadb_storage::PhysicalIndex::append_rows`], updated or
//! deleted-from tables through a leaf rebuild), then **truncates every
//! log stream** to its checkpoint marker: the artifact plus the
//! post-checkpoint tails is the whole persistent state.
//! [`Store::recover_with_checkpoint`] restarts from the artifact and
//! replays only the tail frames.

pub mod delta;
pub mod effects;
mod log;
pub mod maintain;
mod sharded;

pub use log::{ShardStats, ShardedRecoveryReport, MAX_SERVE_SHARDS};
pub use sharded::ShardedStore;

use crate::measured::MaterializedConfig;
use cadb_common::rng::rng_for;
use cadb_common::{obs, CadbError, ColumnId, Parallelism, Result, Row, TableId, Value};
use cadb_compression::CompressionKind;
use cadb_engine::{
    BulkDelete, BulkInsert, BulkUpdate, CostModel, Database, IndexSpec, MvSpec, Statement, Workload,
};
use cadb_sampling::index_rows::index_row_order;
use cadb_shard::{ShardRouter, ShardSpec};
use cadb_storage::wal::{self, FrameType, FRAME_HEADER_BYTES};
use cadb_storage::PhysicalIndex;
use delta::TableDelta;
use effects::{CommitEffects, RowRewrite, RowSlot, RowTombstone};
use log::{CommitLog, LogReader, Staged};
use maintain::{fnv1a, maintain, rows_digest, MaintenanceCounters, MaintenanceRun, MvGroupDelta};
use parking_lot::RwLock;
use rand::Rng;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Running totals of everything committed so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct StoreTotals {
    /// Committed transactions.
    pub commits: u64,
    /// Summed work counters.
    pub counters: MaintenanceCounters,
    /// Summed measured maintenance cost (cost-model units).
    pub measured_cost: f64,
    /// The MV-maintenance share of `measured_cost`.
    pub measured_mv_cost: f64,
}

/// What one commit reported back to its writer.
#[derive(Debug, Clone)]
pub struct CommitReceipt {
    /// The commit's LSN.
    pub lsn: u64,
    /// Work counters of this commit alone.
    pub counters: MaintenanceCounters,
    /// Measured maintenance cost of this commit.
    pub measured_cost: f64,
    /// The MV share of it.
    pub measured_mv_cost: f64,
}

/// Which write statement produced a [`WriteActual`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// A `BulkInsert`.
    Insert,
    /// A `BulkUpdate`.
    Update,
    /// A `BulkDelete`.
    Delete,
}

/// One prepared write statement: `(statement index, kind, table, n_rows,
/// resolved effects)` — the unit [`Store::prepare_writes`] hands the
/// group-commit drivers.
pub(crate) type PreparedWrite = (usize, WriteKind, TableId, u64, CommitEffects);

/// Measured actuals of one executed write statement.
#[derive(Debug, Clone)]
pub struct WriteActual {
    /// Index of the statement in the workload's statement list.
    pub statement_index: usize,
    /// Statement kind.
    pub kind: WriteKind,
    /// Target table.
    pub table: TableId,
    /// Rows the statement asked to write.
    pub n_rows: u64,
    /// LSN the commit received.
    pub lsn: u64,
    /// Measured maintenance cost (cost-model units).
    pub measured_cost: f64,
    /// The MV-maintenance share of it.
    pub measured_mv_cost: f64,
    /// Work counters.
    pub counters: MaintenanceCounters,
}

/// What crash recovery found in the log.
#[derive(Debug, Clone, Copy)]
pub struct RecoveryReport {
    /// Commit frames applied.
    pub frames_applied: usize,
    /// Checkpoint markers seen.
    pub checkpoints_seen: usize,
    /// Unusable tail bytes truncated.
    pub truncated_bytes: usize,
    /// Duplicate frames skipped.
    pub duplicates_skipped: usize,
    /// Highest committed LSN after replay.
    pub watermark: u64,
}

/// Hit/miss counters of the snapshot page cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PageCacheStats {
    /// Reads served from a cached page image (or straight from the
    /// unmodified base structure).
    pub hits: u64,
    /// Reads that had to fold a page image (`patched + rebuilt`).
    pub misses: u64,
    /// Images folded by an O(delta) page patch (append-only delta).
    pub patched: u64,
    /// Images folded by a full leaf rebuild (updates or deletes present).
    pub rebuilt: u64,
}

impl PageCacheStats {
    /// View as named observability metrics — the same totals the cache's
    /// live bump sites stream to the installed recorder.
    pub fn as_metrics(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("store.page_cache.hits", self.hits),
            ("store.page_cache.misses", self.misses),
            ("store.page_cache.patched", self.patched),
            ("store.page_cache.rebuilt", self.rebuilt),
        ]
    }
}

impl RecoveryReport {
    /// View as named observability metrics (also published by every
    /// recovery).
    pub fn as_metrics(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("store.recovery.frames_applied", self.frames_applied as u64),
            (
                "store.recovery.checkpoints_seen",
                self.checkpoints_seen as u64,
            ),
            (
                "store.recovery.truncated_bytes",
                self.truncated_bytes as u64,
            ),
            (
                "store.recovery.duplicates_skipped",
                self.duplicates_skipped as u64,
            ),
        ]
    }
}

/// A checkpoint artifact: the committed state folded back into real
/// compressed structures, one per table the log touched, plus everything
/// recovery needs to restart *without* the pre-checkpoint log —
/// [`Store::recover_with_checkpoint`] consumes it.
#[derive(Debug)]
pub struct StoreCheckpoint {
    /// Watermark the checkpoint covers.
    pub lsn: u64,
    /// The LSN counter at checkpoint time (one past the marker frame).
    pub next_lsn: u64,
    /// The folded base structure per touched table.
    pub tables: BTreeMap<TableId, PhysicalIndex>,
    /// MV aggregate overlays at the watermark, keyed like
    /// [`Store::mv_overlay`].
    pub overlays: BTreeMap<usize, HashMap<Vec<Value>, MvGroupDelta>>,
    /// Running totals at the watermark.
    pub totals: StoreTotals,
    /// Tables folded via O(delta) page patches (append-only deltas).
    pub patched_tables: usize,
    /// Tables that needed a full leaf rebuild (had updated/deleted rows).
    pub rebuilt_tables: usize,
    /// WAL bytes the checkpoint truncated from the head of the log
    /// (everything before the checkpoint marker). Distinct from
    /// [`RecoveryReport::truncated_bytes`], which counts *unusable tail*
    /// bytes a crash tore. Summed over every stream of the log layout.
    pub truncated_wal_bytes: usize,
    /// Shard-local LSN counter after each shard stream's checkpoint
    /// marker, in shard order — what the truncated shard logs resume from.
    /// Empty under the single-log layout.
    pub shard_next_lsns: Vec<u64>,
}

impl StoreCheckpoint {
    /// Byte-level digest of the artifact — leaf bytes included, so two
    /// checkpoints are equal iff their compressed structures are
    /// bit-for-bit identical.
    pub fn digest(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        h = fnv1a(h, &self.lsn.to_le_bytes());
        for (t, ix) in &self.tables {
            h = fnv1a(h, &t.0.to_le_bytes());
            for leaf in 0..ix.n_leaf_pages() {
                h = fnv1a(h, ix.leaf_bytes(leaf));
            }
        }
        h
    }
}

#[derive(Debug, Default)]
struct StoreState {
    /// The commit log, under the store's one lock: LSN assignment, append
    /// and apply are a single critical section for every layout.
    log: CommitLog,
    next_lsn: u64,
    watermark: u64,
    deltas: BTreeMap<TableId, TableDelta>,
    /// MV aggregate overlays, keyed by structure position in `specs`.
    overlays: BTreeMap<usize, HashMap<Vec<Value>, MvGroupDelta>>,
    totals: StoreTotals,
    /// Commit LSNs that modified each table, ascending — the page cache's
    /// effective-LSN index.
    mod_lsns: BTreeMap<TableId, Vec<u64>>,
    /// Watermark of the last checkpoint that truncated the WAL head; the
    /// log cannot answer questions about LSNs before it.
    log_anchor: u64,
    /// Visible appended-row counts per table at the anchor — the baseline
    /// `snapshot_consistent` adds to what the (truncated) log says.
    anchor_appends: BTreeMap<TableId, i64>,
}

/// The snapshot page cache: folded page images keyed by
/// `(table, effective LSN)`, bounded to the two most recent effective
/// LSNs per table.
#[derive(Debug, Default)]
struct PageCache {
    entries: HashMap<(TableId, u64), Arc<PhysicalIndex>>,
    stats: PageCacheStats,
}

/// The snapshot-isolated store. See the module docs for the architecture.
pub struct Store<'a> {
    db: &'a Database,
    mat: &'a MaterializedConfig,
    specs: Vec<IndexSpec>,
    model: CostModel,
    /// The log layout — `None` for the single WAL, the shard spec for
    /// shard WALs + order log. Copied out of the log at open so staging
    /// reads it without the lock.
    layout: Option<ShardSpec>,
    /// The physical base structure reads go through, per table: the
    /// materialized config's, unless recovery installed a checkpoint
    /// artifact for the table. Cached as `Arc`s so page images and row
    /// decodes share one copy.
    base_ix: RwLock<HashMap<TableId, Arc<PhysicalIndex>>>,
    /// Base rows decoded from the compressed base structures, per table,
    /// in base scan order (= the store's row-slot addressing), cached on
    /// first touch.
    base_rows: RwLock<HashMap<TableId, Arc<Vec<Row>>>>,
    /// Dimension key → base-row ordinal maps for MV join probing.
    dim_maps: RwLock<DimMapCache>,
    page_cache: RwLock<PageCache>,
    state: RwLock<StoreState>,
}

/// Cache of dimension-key → base-row-ordinal maps, per `(table, key col)`.
type DimMapCache = HashMap<(TableId, ColumnId), Arc<HashMap<Value, u32>>>;

impl<'a> Store<'a> {
    /// Open a store over a materialized configuration, logging to a
    /// single WAL. [`ShardedStore::open`] opens the sharded log layout.
    pub fn open(db: &'a Database, mat: &'a MaterializedConfig, model: CostModel) -> Store<'a> {
        Self::with_log(db, mat, model, CommitLog::default())
    }

    fn with_log(
        db: &'a Database,
        mat: &'a MaterializedConfig,
        model: CostModel,
        log: CommitLog,
    ) -> Store<'a> {
        Store {
            db,
            mat,
            specs: mat.structures().iter().map(|s| s.spec.clone()).collect(),
            model,
            layout: log.spec(),
            base_ix: RwLock::new(HashMap::new()),
            base_rows: RwLock::new(HashMap::new()),
            dim_maps: RwLock::new(HashMap::new()),
            page_cache: RwLock::new(PageCache::default()),
            state: RwLock::new(StoreState {
                log,
                next_lsn: 1,
                ..StoreState::default()
            }),
        }
    }

    /// The structure specs the store maintains.
    pub fn specs(&self) -> &[IndexSpec] {
        &self.specs
    }

    /// The physical base structure of a table — the materialized config's,
    /// or the checkpoint artifact recovery installed over it.
    fn base_pages(&self, t: TableId) -> Result<Arc<PhysicalIndex>> {
        if let Some(ix) = self.base_ix.read().get(&t) {
            return Ok(Arc::clone(ix));
        }
        let built = Arc::new(self.mat.base(t)?.clone());
        let mut cache = self.base_ix.write();
        Ok(Arc::clone(cache.entry(t).or_insert(built)))
    }

    /// A table's base rows, decoded from its compressed base pages on
    /// first use. Slot ordinals address into this order.
    pub fn base_rows(&self, t: TableId) -> Result<Arc<Vec<Row>>> {
        if let Some(rows) = self.base_rows.read().get(&t) {
            return Ok(Arc::clone(rows));
        }
        let decoded = Arc::new(self.base_pages(t)?.scan()?);
        let mut cache = self.base_rows.write();
        Ok(Arc::clone(cache.entry(t).or_insert(decoded)))
    }

    /// The key→ordinal map for probing a dimension table by `key_col`.
    fn dim_map(&self, t: TableId, key_col: ColumnId) -> Result<Arc<HashMap<Value, u32>>> {
        if let Some(m) = self.dim_maps.read().get(&(t, key_col)) {
            return Ok(Arc::clone(m));
        }
        let rows = self.base_rows(t)?;
        let mut map = HashMap::with_capacity(rows.len());
        for (i, r) in rows.iter().enumerate() {
            if let Some(v) = r.values.get(key_col.raw()) {
                map.insert(v.clone(), i as u32);
            }
        }
        let arc = Arc::new(map);
        let mut cache = self.dim_maps.write();
        Ok(Arc::clone(cache.entry((t, key_col)).or_insert(arc)))
    }

    /// Warm every cache a commit on `t` will probe, so maintenance can run
    /// with infallible lookups (and outside any store lock). Commits do
    /// this on demand; benchmarks call it up front to take cache fills out
    /// of the measured section.
    pub fn warm_for_table(&self, t: TableId) -> Result<()> {
        self.base_rows(t)?;
        for spec in &self.specs {
            let Some(mv) = &spec.mv else { continue };
            if mv.root != t {
                continue;
            }
            for e in &mv.joins {
                self.base_rows(e.right.0)?;
                self.dim_map(e.right.0, e.right.1)?;
            }
        }
        Ok(())
    }

    /// Resolve the value of `(table, column)` for a fact row under an MV's
    /// join graph. Caches must be warm ([`Self::warm_for_table`]); a cold
    /// cache or a missed foreign key resolves to `None`.
    fn resolve_col(
        &self,
        mv: &MvSpec,
        fact_row: &Row,
        col: (TableId, ColumnId),
        depth: usize,
    ) -> Option<Value> {
        if col.0 == mv.root {
            return fact_row.values.get(col.1.raw()).cloned();
        }
        if depth > mv.joins.len() {
            return None; // defensive: cyclic join metadata
        }
        let edge = mv.joins.iter().find(|e| e.right.0 == col.0)?;
        let fk = self.resolve_col(mv, fact_row, edge.left, depth + 1)?;
        let map = self.dim_maps.read().get(&(col.0, edge.right.1)).cloned()?;
        let ordinal = *map.get(&fk)?;
        let rows = self.base_rows.read().get(&col.0).cloned()?;
        rows.get(ordinal as usize)?.values.get(col.1.raw()).cloned()
    }

    /// The compression kind of a table's base structure.
    fn base_kind(&self, t: TableId) -> CompressionKind {
        self.mat
            .base_spec(t)
            .map(|s| s.compression)
            .unwrap_or(CompressionKind::None)
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Resolve a bulk INSERT into concrete rows: clones of existing base
    /// rows at seeded offsets, so foreign keys keep resolving and value
    /// distributions stay realistic. Deterministic in `(seed, label)`.
    pub fn prepare_insert(
        &self,
        ins: &BulkInsert,
        seed: u64,
        label: &str,
    ) -> Result<CommitEffects> {
        let base = self.base_rows(ins.table)?;
        let mut rng = rng_for(seed, label);
        let mut appended = Vec::with_capacity(ins.n_rows as usize);
        if !base.is_empty() {
            for _ in 0..ins.n_rows {
                appended.push(base[rng.gen_range(0..base.len())].clone());
            }
        }
        Ok(CommitEffects {
            table: ins.table,
            appended,
            rewritten: Vec::new(),
            deleted: Vec::new(),
        })
    }

    /// Resolve a bulk UPDATE into concrete row rewrites: `n_rows` distinct
    /// base slots chosen by a seeded stride, each rewritten to a new
    /// version with the statement's column deterministically perturbed.
    ///
    /// The rewrite is derived from the *immutable base* version of each
    /// slot — never from the currently visible version chain — so the
    /// logged `old_row`/`new_row` pair is a pure function of
    /// `(statement, seed, label)` regardless of how concurrent commits
    /// interleave. That is what makes per-statement WAL frames (and the
    /// `wal_bytes` counter) bit-identical across `Parallelism` modes.
    pub fn prepare_update(
        &self,
        upd: &BulkUpdate,
        seed: u64,
        label: &str,
    ) -> Result<CommitEffects> {
        let base = self.base_rows(upd.table)?;
        let base_n = base.len();
        let mut rewritten = Vec::new();
        if base_n > 0 {
            let n = (upd.n_rows as usize).min(base_n);
            // `stride * n ≤ base_n`, so the n slots are distinct mod base_n.
            let stride = (base_n / n).max(1);
            let start = rng_for(seed, label).gen_range(0..base_n);
            for j in 0..n {
                let ordinal = ((start + j * stride) % base_n) as u32;
                let old = base[ordinal as usize].clone();
                let mut new_row = old.clone();
                if let Some(v) = new_row.values.get_mut(upd.column.raw()) {
                    *v = perturb(v);
                }
                rewritten.push(RowRewrite {
                    slot: RowSlot::Base(ordinal),
                    old_row: old,
                    new_row,
                });
            }
        }
        Ok(CommitEffects {
            table: upd.table,
            appended: Vec::new(),
            rewritten,
            deleted: Vec::new(),
        })
    }

    /// Resolve a bulk DELETE into concrete tombstones: `n_rows` distinct
    /// base slots chosen by the same seeded-stride discipline as
    /// [`Self::prepare_update`], each ending its version chain with no
    /// successor. The logged `old_row` is the slot's *immutable base*
    /// version, so the frame is a pure function of
    /// `(statement, seed, label)` however concurrent commits interleave.
    pub fn prepare_delete(
        &self,
        del: &BulkDelete,
        seed: u64,
        label: &str,
    ) -> Result<CommitEffects> {
        let base = self.base_rows(del.table)?;
        let base_n = base.len();
        let mut deleted = Vec::new();
        if base_n > 0 {
            let n = (del.n_rows as usize).min(base_n);
            let stride = (base_n / n).max(1);
            let start = rng_for(seed, label).gen_range(0..base_n);
            for j in 0..n {
                let ordinal = ((start + j * stride) % base_n) as u32;
                deleted.push(RowTombstone {
                    slot: RowSlot::Base(ordinal),
                    old_row: base[ordinal as usize].clone(),
                });
            }
        }
        Ok(CommitEffects {
            table: del.table,
            appended: Vec::new(),
            rewritten: Vec::new(),
            deleted,
        })
    }

    /// Commit resolved effects — a [`Self::commit_batch`] of one.
    pub fn commit(&self, eff: CommitEffects) -> Result<CommitReceipt> {
        self.commit_batch(std::slice::from_ref(&eff))?
            .pop()
            .ok_or_else(|| CadbError::Storage("commit produced no receipt".to_string()))
    }

    /// Stage one commit outside any lock: warm the caches it probes, price
    /// its maintenance (a pure function of effects + immutable bases) and
    /// encode its log bytes for the store's layout. Live commits and
    /// recovery's re-logging both go through here, so a recovered log set
    /// is byte-equal to the committed prefix that produced it.
    ///
    /// Maintenance is priced at the *whole-statement* frame length under
    /// every layout — costs are nonlinear in frame size, so per-shard sums
    /// would drift — which is what makes receipts layout-independent.
    fn stage(&self, eff: &CommitEffects) -> Result<(usize, MaintenanceRun, Staged)> {
        self.warm_for_table(eff.table)?;
        let base_n = self.base_rows(eff.table)?.len();
        let payload = eff.encode();
        let run = maintain(
            eff,
            &self.specs,
            &self.model,
            self.base_kind(eff.table),
            (payload.len() + FRAME_HEADER_BYTES) as u64,
            &|mv, row, col| self.resolve_col(mv, row, col, 0),
        );
        let staged = match self.layout {
            None => Staged::Whole(payload),
            Some(spec) => {
                let n_key = self
                    .mat
                    .base_spec(eff.table)
                    .map_or(0, |s| s.key_cols.len().min(self.db.dtypes(eff.table).len()));
                log::split(eff, &ShardRouter::new(spec, n_key, base_n))
            }
        };
        Ok((base_n, run, staged))
    }

    /// **Group commit**: stage every effect outside any lock
    /// (prepare → price → encode), then — in one critical section — assign
    /// consecutive LSNs, append the batch with one sync point per log
    /// stream (the commit-point stream last) and apply the effects in
    /// order.
    ///
    /// The logged bytes are identical to committing the effects one by
    /// one; only the sync-point granularity — where a crash can land —
    /// changes. Receipts (LSNs, counters, measured costs) are identical
    /// under every log layout. Those are the equivalences the recovery
    /// tests pin across batch sizes and layouts.
    pub fn commit_batch(&self, effs: &[CommitEffects]) -> Result<Vec<CommitReceipt>> {
        if effs.is_empty() {
            return Ok(Vec::new());
        }
        let _span = obs::span("store.commit_batch");
        // `recording()` gates only the clock reads feeding the latency
        // histograms — never the commit work itself.
        let t_batch = obs::recording().then(Instant::now);
        let prepare_span = obs::span("store.commit.prepare");
        let mut base_ns = Vec::with_capacity(effs.len());
        let mut runs = Vec::with_capacity(effs.len());
        let mut staged = Vec::with_capacity(effs.len());
        for eff in effs {
            let (base_n, run, frames) = self.stage(eff)?;
            base_ns.push(base_n);
            runs.push(run);
            staged.push(frames);
        }
        drop(prepare_span);
        // The critical section: consecutive LSNs, one coalesced append per
        // stream, in-order apply.
        let mut st = self.state.write();
        let first = st.next_lsn;
        st.next_lsn += effs.len() as u64;
        let append_span = obs::span("store.commit.append");
        let t_append = obs::recording().then(Instant::now);
        st.log.append(first, staged)?;
        if let Some(t0) = t_append {
            obs::observe("store.wal_append_ns", t0.elapsed().as_nanos() as u64);
        }
        drop(append_span);
        let apply_span = obs::span("store.commit.apply");
        let mut receipts = Vec::with_capacity(effs.len());
        for (i, (eff, run)) in effs.iter().zip(&runs).enumerate() {
            let lsn = first + i as u64;
            Self::apply(&mut st, eff, lsn, base_ns[i])?;
            Self::absorb(&mut st, run, lsn);
            receipts.push(CommitReceipt {
                lsn,
                counters: run.counters,
                measured_cost: run.measured_cost,
                measured_mv_cost: run.measured_mv_cost,
            });
        }
        drop(apply_span);
        obs::counter_add("store.commits", effs.len() as u64);
        obs::counter_add("store.commit_batches", 1);
        if let Some(t0) = t_batch {
            let ns = t0.elapsed().as_nanos() as u64;
            obs::observe("store.group_commit_ns", ns);
            obs::observe("store.commit_batch_rows", effs.len() as u64);
        }
        Ok(receipts)
    }

    /// Apply effects to the version chains at `lsn`.
    fn apply(st: &mut StoreState, eff: &CommitEffects, lsn: u64, base_n: usize) -> Result<()> {
        let d = st
            .deltas
            .entry(eff.table)
            .or_insert_with(|| TableDelta::new(base_n));
        for row in &eff.appended {
            d.append(row.clone(), lsn);
        }
        for rw in &eff.rewritten {
            match rw.slot {
                RowSlot::Base(o) => {
                    if (o as usize) >= d.base_n {
                        return Err(CadbError::Storage(format!(
                            "commit targets base slot {o} of a {}-row base",
                            d.base_n
                        )));
                    }
                    d.override_base(o, rw.new_row.clone(), lsn);
                }
                RowSlot::Appended(s) => {
                    if (s as usize) >= d.appended.len() {
                        return Err(CadbError::Storage(format!(
                            "commit targets appended slot {s} of {}",
                            d.appended.len()
                        )));
                    }
                    d.override_appended(s as usize, rw.new_row.clone(), lsn);
                }
            }
        }
        for ts in &eff.deleted {
            match ts.slot {
                RowSlot::Base(o) => {
                    if (o as usize) >= d.base_n {
                        return Err(CadbError::Storage(format!(
                            "delete targets base slot {o} of a {}-row base",
                            d.base_n
                        )));
                    }
                    d.tombstone_base(o, &ts.old_row, lsn);
                }
                RowSlot::Appended(s) => {
                    if (s as usize) >= d.appended.len() {
                        return Err(CadbError::Storage(format!(
                            "delete targets appended slot {s} of {}",
                            d.appended.len()
                        )));
                    }
                    d.tombstone_appended(s as usize, lsn);
                }
            }
        }
        if eff.n_rows() > 0 {
            st.mod_lsns.entry(eff.table).or_default().push(lsn);
        }
        Ok(())
    }

    /// Fold a maintenance run's counters and MV group deltas into state.
    fn absorb(st: &mut StoreState, run: &MaintenanceRun, lsn: u64) {
        for (pos, groups) in &run.mv_deltas {
            let overlay = st.overlays.entry(*pos).or_default();
            for (key, d) in groups {
                let g = overlay.entry(key.clone()).or_insert_with(|| MvGroupDelta {
                    count: 0,
                    sums: vec![0; d.sums.len()],
                });
                g.count += d.count;
                for (s, v) in g.sums.iter_mut().zip(&d.sums) {
                    *s += v;
                }
            }
        }
        st.totals.commits += 1;
        st.totals.counters.merge(&run.counters);
        st.totals.measured_cost += run.measured_cost;
        st.totals.measured_mv_cost += run.measured_mv_cost;
        st.watermark = st.watermark.max(lsn);
    }

    /// Execute every write statement of a workload (INSERTs, UPDATEs and
    /// DELETEs) and return per-statement measured actuals, in statement
    /// order. Equivalent to [`Self::apply_workload_batched`] with batch
    /// size 1.
    pub fn apply_workload(
        &self,
        w: &Workload,
        seed: u64,
        par: Parallelism,
    ) -> Result<Vec<WriteActual>> {
        self.apply_workload_batched(w, seed, par, 1)
    }

    /// The group-commit form of [`Self::apply_workload`]: prepare every
    /// write in parallel under `par` (preparation is a pure function of
    /// `(statement, seed)` and the immutable bases), then commit them **in
    /// statement order** in durable batches of `batch` — each batch one
    /// coalesced append with a single sync point per log stream.
    ///
    /// LSNs equal statement positions regardless of `par` and `batch`, so
    /// the logged bytes ([`Self::wal_frame_digest`]), the recovered state
    /// and every per-statement actual are bit-identical across batch sizes
    /// and parallelism modes; batching only coarsens the durability
    /// boundaries a crash can land between. The actuals are also identical
    /// across log layouts.
    pub fn apply_workload_batched(
        &self,
        w: &Workload,
        seed: u64,
        par: Parallelism,
        batch: usize,
    ) -> Result<Vec<WriteActual>> {
        let _span = obs::span("store.apply_workload");
        let batch = batch.max(1);
        let prepared = self.prepare_writes(w, seed, par)?;
        let mut out = Vec::with_capacity(prepared.len());
        for preps in prepared.chunks(batch) {
            let effs: Vec<CommitEffects> = preps.iter().map(|p| p.4.clone()).collect();
            let receipts = self.commit_batch(&effs)?;
            for (p, r) in preps.iter().zip(receipts) {
                out.push(WriteActual {
                    statement_index: p.0,
                    kind: p.1,
                    table: p.2,
                    n_rows: p.3,
                    lsn: r.lsn,
                    measured_cost: r.measured_cost,
                    measured_mv_cost: r.measured_mv_cost,
                    counters: r.counters,
                });
            }
        }
        Ok(out)
    }

    /// Resolve every write statement of a workload into commit effects,
    /// preparing in parallel under `par`. Preparation is a pure function
    /// of `(statement, seed)` and the immutable bases, so the prepared
    /// effects — and everything committed from them — are identical for
    /// every parallelism mode.
    fn prepare_writes(
        &self,
        w: &Workload,
        seed: u64,
        par: Parallelism,
    ) -> Result<Vec<PreparedWrite>> {
        let statements: Vec<(usize, &Statement)> = w
            .statements
            .iter()
            .enumerate()
            .map(|(i, (s, _))| (i, s))
            .collect();
        cadb_common::par_map(par, &statements, |_, &(idx, stmt)| {
            let label = format!("write-{idx}");
            Ok(Some(match stmt {
                Statement::Insert(ins) => (
                    idx,
                    WriteKind::Insert,
                    ins.table,
                    ins.n_rows,
                    self.prepare_insert(ins, seed, &label)?,
                ),
                Statement::Update(upd) => (
                    idx,
                    WriteKind::Update,
                    upd.table,
                    upd.n_rows,
                    self.prepare_update(upd, seed, &label)?,
                ),
                Statement::Delete(del) => (
                    idx,
                    WriteKind::Delete,
                    del.table,
                    del.n_rows,
                    self.prepare_delete(del, seed, &label)?,
                ),
                Statement::Select(_) => return Ok(None),
            }))
        })
        .into_iter()
        .filter_map(Result::transpose)
        .collect()
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// A snapshot pinned at the current committed watermark.
    pub fn snapshot(&self) -> Snapshot<'_, 'a> {
        Snapshot {
            store: self,
            lsn: self.state.read().watermark,
        }
    }

    /// Highest committed LSN.
    pub fn watermark(&self) -> u64 {
        self.state.read().watermark
    }

    /// Running totals.
    pub fn totals(&self) -> StoreTotals {
        self.state.read().totals
    }

    /// The committed aggregate overlay of the MV structure at `pos` in
    /// [`Self::specs`] — group key → COUNT/SUM deltas against the built MV.
    pub fn mv_overlay(&self, pos: usize) -> HashMap<Vec<Value>, MvGroupDelta> {
        self.state
            .read()
            .overlays
            .get(&pos)
            .cloned()
            .unwrap_or_default()
    }

    /// The bytes of the commit-point stream (what would be on disk at the
    /// last sync): the WAL, or the order log under the sharded layout.
    pub fn wal_bytes(&self) -> Vec<u8> {
        self.state.read().log.head().bytes().to_vec()
    }

    /// The commit-point stream's sync points — byte offsets a crash can
    /// land between.
    pub fn wal_sync_points(&self) -> Vec<usize> {
        self.state.read().log.head().sync_points().to_vec()
    }

    /// Every shard stream's WAL segment bytes, in shard order; empty under
    /// the single-log layout.
    pub fn all_shard_wal_bytes(&self) -> Vec<Vec<u8>> {
        let st = self.state.read();
        let shards = st.log.shards().iter();
        shards.map(|s| s.wal.bytes().to_vec()).collect()
    }

    /// FNV-1a digest over the raw bytes of the whole log set — frame
    /// headers, LSNs and payloads of the commit-point stream, then of
    /// every shard stream with its index. The group-commit equivalence
    /// tests' witness that batch size and parallelism mode change
    /// durability granularity only, never a single logged byte.
    pub fn wal_frame_digest(&self) -> u64 {
        self.state.read().log.digest()
    }

    /// Snapshot page-cache counters.
    pub fn page_cache_stats(&self) -> PageCacheStats {
        self.page_cache.read().stats
    }

    /// The page image of `t` at snapshot LSN `lsn`: the base's compressed
    /// leaves with the visible delta folded in, shared by every snapshot
    /// between the same two modifications of the table. Backs
    /// [`Snapshot::pages`].
    fn pages_at(&self, t: TableId, lsn: u64) -> Result<Arc<PhysicalIndex>> {
        // Effective LSN: the last commit ≤ `lsn` that modified the table.
        let eff = {
            let st = self.state.read();
            match st.mod_lsns.get(&t) {
                None => 0,
                Some(v) => match v.partition_point(|&l| l <= lsn) {
                    0 => 0,
                    i => v[i - 1],
                },
            }
        };
        if eff == 0 {
            // Unmodified at this LSN: the base structure *is* the image.
            self.page_cache.write().stats.hits += 1;
            obs::counter_add("store.page_cache.hits", 1);
            return self.base_pages(t);
        }
        // Clone out of the read guard before taking the write lock for
        // the stats bump — the scrutinee's guard must not outlive the
        // lookup.
        let cached = self.page_cache.read().entries.get(&(t, eff)).cloned();
        if let Some(ix) = cached {
            self.page_cache.write().stats.hits += 1;
            obs::counter_add("store.page_cache.hits", 1);
            return Ok(ix);
        }
        // Miss: fold an image outside the cache lock. Folding at `eff`
        // equals folding at `lsn` — no commit touched the table between.
        let (ix, patched) = {
            let st = self.state.read();
            match st.deltas.get(&t) {
                None => (self.base_pages(t)?.as_ref().clone(), true),
                Some(d) => self.fold_table(t, d, eff)?,
            }
        };
        let ix = Arc::new(ix);
        let mut pc = self.page_cache.write();
        pc.stats.misses += 1;
        obs::counter_add("store.page_cache.misses", 1);
        if patched {
            pc.stats.patched += 1;
            obs::counter_add("store.page_cache.patched", 1);
        } else {
            pc.stats.rebuilt += 1;
            obs::counter_add("store.page_cache.rebuilt", 1);
        }
        pc.entries.insert((t, eff), Arc::clone(&ix));
        // Bound the cache: keep the two most recent images per table.
        let mut lsns: Vec<u64> = pc
            .entries
            .keys()
            .filter(|(tt, _)| *tt == t)
            .map(|(_, l)| *l)
            .collect();
        if lsns.len() > 2 {
            lsns.sort_unstable();
            for stale in &lsns[..lsns.len() - 2] {
                pc.entries.remove(&(t, *stale));
            }
        }
        Ok(ix)
    }

    /// Snapshot-atomicity check: re-derive, from the log alone, how many
    /// appended rows each table must show at LSN `lsn` (appends minus
    /// appended-slot tombstones, on top of the truncation anchor's
    /// baseline), and compare with what the version chains make visible.
    /// Readers in the concurrency tests call this against live writers: a
    /// reader must never observe a partially applied batch, whichever
    /// streams its frames landed on. LSNs before the truncation anchor are
    /// vacuously consistent — the log that could answer for them was
    /// folded into a checkpoint.
    pub fn snapshot_consistent(&self, lsn: u64) -> Result<bool> {
        let st = self.state.read();
        if lsn < st.log_anchor {
            return Ok(true);
        }
        let mut reader = st.log.reader()?;
        let mut expected: BTreeMap<TableId, i64> = st.anchor_appends.clone();
        for f in &wal::replay(st.log.head().bytes()).frames {
            if f.frame_type != FrameType::Commit || f.lsn > lsn || f.lsn <= st.log_anchor {
                continue;
            }
            let Some(eff) = reader.effects(f)? else {
                continue;
            };
            let e = expected.entry(eff.table).or_default();
            *e += eff.appended.len() as i64;
            for ts in &eff.deleted {
                if matches!(ts.slot, RowSlot::Appended(_)) {
                    *e -= 1;
                }
            }
        }
        for (t, want) in expected {
            let got = st.deltas.get(&t).map_or(0, |d| d.appended_at(lsn).count()) as i64;
            if got != want {
                return Ok(false);
            }
        }
        Ok(true)
    }

    /// Order-insensitive digest of the committed state: per-table visible
    /// row multisets plus the MV overlays. Equal for any two stores whose
    /// committed states agree, however their writers interleaved.
    pub fn state_digest(&self) -> Result<u64> {
        // Decode bases first (own locks) to keep the state lock short.
        let tables: Vec<TableId> = self.state.read().deltas.keys().copied().collect();
        let mut bases = BTreeMap::new();
        for t in &tables {
            bases.insert(*t, self.base_rows(*t)?);
        }
        let st = self.state.read();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for (t, d) in &st.deltas {
            let rows = visible_rows(d, &bases[t], st.watermark);
            h = fnv1a(h, &t.0.to_le_bytes());
            h = fnv1a(h, &rows_digest(&rows).to_le_bytes());
        }
        for (pos, overlay) in &st.overlays {
            let mut entries: Vec<Vec<u8>> = overlay
                .iter()
                .filter(|(_, g)| g.count != 0 || g.sums.iter().any(|s| *s != 0))
                .map(|(k, g)| {
                    let mut buf = Vec::new();
                    cadb_common::bytes::put_row(&mut buf, &Row::new(k.clone()));
                    buf.extend_from_slice(&g.count.to_le_bytes());
                    for s in &g.sums {
                        buf.extend_from_slice(&s.to_le_bytes());
                    }
                    buf
                })
                .collect();
            entries.sort_unstable();
            h = fnv1a(h, &(*pos as u64).to_le_bytes());
            for e in &entries {
                h = fnv1a(h, e);
            }
        }
        Ok(h)
    }

    // ------------------------------------------------------------------
    // Checkpoint + recovery
    // ------------------------------------------------------------------

    /// Fold one table's delta into a compressed structure at `lsn`:
    /// append-only deltas patch the base's leaf pages in place (O(delta));
    /// overridden chains (updates or deletes) force a full leaf rebuild.
    /// Shared by [`Self::checkpoint`] and the snapshot page cache.
    fn fold_table(&self, t: TableId, d: &TableDelta, lsn: u64) -> Result<(PhysicalIndex, bool)> {
        let base_ix = self.base_pages(t)?;
        if d.overridden.is_empty() {
            let rows: Vec<Row> = d.appended_at(lsn).cloned().collect();
            let mut ix = base_ix.as_ref().clone();
            ix.append_rows(&rows)?;
            Ok((ix, true))
        } else {
            let base = self.base_rows(t)?;
            let mut rows = visible_rows(d, &base, lsn);
            let spec = self.mat.base_spec(t);
            let kind = spec.map_or(CompressionKind::None, |s| s.compression);
            let (n_key, order) = index_row_order(spec, self.db.dtypes(t).len());
            rows.sort_by(order);
            Ok((
                PhysicalIndex::build(&rows, &self.db.dtypes(t), n_key, kind)?,
                false,
            ))
        }
    }

    /// Fold the committed deltas into real compressed structures, log a
    /// checkpoint marker in **every stream** of the log layout, and
    /// truncate each to its marker: the returned artifact plus the
    /// post-checkpoint tails is the entire persistent state, and
    /// checkpoint-anchored recovery restarts from exactly that pair. The
    /// artifact's folded bytes (and [`StoreCheckpoint::digest`]) do not
    /// depend on the layout. Append-only tables are folded by patching
    /// leaf pages in place (O(delta)); tables with updated or deleted rows
    /// get a full leaf rebuild.
    ///
    /// A checkpoint is an **epoch boundary**: the folded structures become
    /// the live base (slot ordinals re-address to the artifact's scan
    /// order), the deltas reset to empty, and every derived cache — row
    /// decodes, dimension maps, page images — is invalidated. Commits
    /// prepared after the checkpoint therefore log slots in the same
    /// ordinal space recovery rebuilds; effects prepared *before* the
    /// checkpoint (and snapshots pinned before it) must not be used across
    /// the boundary.
    pub fn checkpoint(&self) -> Result<StoreCheckpoint> {
        let _span = obs::span("store.checkpoint");
        // Warm base caches outside the write lock.
        let touched: Vec<TableId> = self.state.read().deltas.keys().copied().collect();
        for t in &touched {
            self.base_rows(*t)?;
        }
        let mut st = self.state.write();
        let lsn = st.watermark;
        let mut tables = BTreeMap::new();
        let mut patched_tables = 0usize;
        let mut rebuilt_tables = 0usize;
        for (t, d) in &st.deltas {
            let (ix, patched) = self.fold_table(*t, d, lsn)?;
            if patched {
                patched_tables += 1;
            } else {
                rebuilt_tables += 1;
            }
            tables.insert(*t, ix);
        }
        let marker_lsn = st.next_lsn;
        st.next_lsn += 1;
        // Truncate everything before the markers: the artifact carries the
        // pre-checkpoint history now, so only the markers + later frames
        // need to survive.
        let (truncated_wal_bytes, shard_next_lsns) = st.log.truncate_at_marker(marker_lsn, lsn);
        self.start_epoch(&mut st, &tables, lsn);
        obs::counter_add("store.checkpoints", 1);
        obs::counter_add("store.checkpoint.patched_tables", patched_tables as u64);
        obs::counter_add("store.checkpoint.rebuilt_tables", rebuilt_tables as u64);
        obs::counter_add(
            "store.checkpoint.truncated_wal_bytes",
            truncated_wal_bytes as u64,
        );
        Ok(StoreCheckpoint {
            lsn,
            next_lsn: st.next_lsn,
            tables,
            overlays: st.overlays.clone(),
            totals: st.totals,
            patched_tables,
            rebuilt_tables,
            truncated_wal_bytes,
            shard_next_lsns,
        })
    }

    /// The epoch switch at watermark `lsn`: install the folded `tables` as
    /// the live base under fresh (empty) deltas — so the state digest
    /// covers every folded table — and invalidate everything derived from
    /// the old bases. Run by a checkpoint on the live store and by
    /// recovery when it restarts from the checkpoint's artifact.
    fn start_epoch(
        &self,
        st: &mut StoreState,
        tables: &BTreeMap<TableId, PhysicalIndex>,
        lsn: u64,
    ) {
        {
            let mut base_ix = self.base_ix.write();
            let mut rows = self.base_rows.write();
            for (t, ix) in tables {
                base_ix.insert(*t, Arc::new(ix.clone()));
                rows.remove(t);
                st.deltas.insert(*t, TableDelta::new(ix.n_rows()));
            }
        }
        self.dim_maps.write().clear();
        self.page_cache.write().entries.clear();
        st.mod_lsns.clear();
        st.log_anchor = lsn;
        st.anchor_appends = BTreeMap::new();
    }

    /// Re-apply one logged commit during recovery, re-logging it through
    /// the same stage → append → apply steps as a live commit. Counters
    /// and costs are recomputed from the logged effects — the same pure
    /// function the original commit priced — so recovered totals equal the
    /// originals.
    fn replay_commit(&self, eff: &CommitEffects, lsn: u64) -> Result<()> {
        let (base_n, run, staged) = self.stage(eff)?;
        let mut st = self.state.write();
        st.next_lsn = st.next_lsn.max(lsn + 1);
        st.log.append(lsn, vec![staged])?;
        Self::apply(&mut st, eff, lsn, base_n)?;
        Self::absorb(&mut st, &run, lsn);
        Ok(())
    }

    /// Crash recovery: open a fresh store over the same immutable bases
    /// and replay a (possibly torn) WAL segment to the last consistent
    /// committed state. Use [`Self::recover_with_checkpoint`] when the log
    /// was truncated by a [`Self::checkpoint`] — a truncated log alone no
    /// longer carries the pre-checkpoint history.
    pub fn recover(
        db: &'a Database,
        mat: &'a MaterializedConfig,
        model: CostModel,
        wal_bytes: &[u8],
    ) -> Result<(Store<'a>, RecoveryReport)> {
        let (store, report, _) = Self::recover_log(db, mat, model, None, None, wal_bytes)?;
        Ok((store, report))
    }

    /// Checkpoint-anchored crash recovery: install the artifact's folded
    /// structures as the tables' base pages, restore the overlays, totals
    /// and LSN counter the checkpoint carried, and replay **only the
    /// post-checkpoint tail frames** of the (truncated, possibly torn)
    /// WAL. Recovery work is O(tail), independent of how much history the
    /// checkpoint folded.
    pub fn recover_with_checkpoint(
        db: &'a Database,
        mat: &'a MaterializedConfig,
        model: CostModel,
        ckpt: &StoreCheckpoint,
        wal_bytes: &[u8],
    ) -> Result<(Store<'a>, RecoveryReport)> {
        let (store, report, _) = Self::recover_log(db, mat, model, None, Some(ckpt), wal_bytes)?;
        Ok((store, report))
    }

    /// The one recovery walker: replay the commit-point stream `head`
    /// (the WAL — or, with `shards = (spec, shard segments)`, the order
    /// log) frame by frame, asking the layout's [`LogReader`] for each
    /// commit's effects and re-applying them in LSN order on top of the
    /// optional checkpoint artifact. A commit the reader cannot produce
    /// (a torn shard tail) ends the committed prefix.
    fn recover_log(
        db: &'a Database,
        mat: &'a MaterializedConfig,
        model: CostModel,
        shards: Option<(ShardSpec, &[Vec<u8>])>,
        ckpt: Option<&StoreCheckpoint>,
        head: &[u8],
    ) -> Result<(Store<'a>, RecoveryReport, LogReader)> {
        let _span = obs::span("store.recover");
        let (log, mut reader) = match shards {
            None => (CommitLog::default(), LogReader::Single),
            Some((spec, segments)) => (
                CommitLog::sharded(spec)?,
                LogReader::sharded(spec.shards, segments, Parallelism::Auto)?,
            ),
        };
        let store = Store::with_log(db, mat, model, log);
        if let Some(ckpt) = ckpt {
            // Restart from the artifact: its folded structures become the
            // base pages, and the overlays, totals and LSN counters resume
            // where the checkpoint left them.
            let mut st = store.state.write();
            store.start_epoch(&mut st, &ckpt.tables, ckpt.lsn);
            st.log.resume(&ckpt.shard_next_lsns)?;
            st.next_lsn = ckpt.next_lsn;
            st.watermark = ckpt.lsn;
            st.overlays = ckpt.overlays.clone();
            st.totals = ckpt.totals;
        }
        // Commits at or below the anchor are folded into the artifact;
        // applying them again would double the write.
        let anchor = ckpt.map_or(0, |c| c.lsn);
        let rep = wal::replay(head);
        let mut frames_applied = 0usize;
        let mut checkpoints_seen = 0usize;
        for f in &rep.frames {
            match f.frame_type {
                FrameType::Checkpoint => {
                    checkpoints_seen += 1;
                    let mut st = store.state.write();
                    st.next_lsn = st.next_lsn.max(f.lsn + 1);
                    // Keep the marker in the recovered log so its bytes
                    // stay a consistent prefix of the input.
                    st.log.head_mut().append(f);
                }
                FrameType::Commit if f.lsn <= anchor => {}
                FrameType::Commit => {
                    if let Some(eff) = reader.effects(f)? {
                        store.replay_commit(&eff, f.lsn)?;
                        frames_applied += 1;
                    }
                }
            }
        }
        let report = RecoveryReport {
            frames_applied,
            checkpoints_seen,
            truncated_bytes: rep.truncated_bytes,
            duplicates_skipped: rep.duplicates_skipped,
            watermark: store.watermark(),
        };
        obs::publish_counters(&report.as_metrics());
        Ok((store, report, reader))
    }
}

/// A consistent read view pinned at a commit LSN.
pub struct Snapshot<'s, 'a> {
    store: &'s Store<'a>,
    lsn: u64,
}

impl Snapshot<'_, '_> {
    /// The pinned commit LSN.
    pub fn lsn(&self) -> u64 {
        self.lsn
    }

    /// Rows of `t` visible at this snapshot (base order, appends last).
    pub fn table_rows(&self, t: TableId) -> Result<Vec<Row>> {
        let base = self.store.base_rows(t)?;
        let st = self.store.state.read();
        Ok(match st.deltas.get(&t) {
            None => base.as_ref().clone(),
            Some(d) => visible_rows(d, &base, self.lsn),
        })
    }

    /// Number of rows of `t` visible at this snapshot.
    pub fn n_rows(&self, t: TableId) -> Result<usize> {
        let base = self.store.base_rows(t)?;
        let st = self.store.state.read();
        Ok(match st.deltas.get(&t) {
            None => base.len(),
            Some(d) => d.n_visible_at(self.lsn),
        })
    }

    /// The table's **page image** at this snapshot: its compressed leaves
    /// with the visible delta folded in, served from the store's snapshot
    /// page cache — every snapshot between two modifications of the table
    /// shares one image instead of re-deriving a row cache. Patched
    /// (append-only) images route each appended row into the leaf its key
    /// belongs to; rebuilt images (updates or deletes present) are in the
    /// base structure's key order. Either way the image scans to exactly
    /// the visible row multiset.
    pub fn pages(&self, t: TableId) -> Result<Arc<PhysicalIndex>> {
        self.store.pages_at(t, self.lsn)
    }

    /// Key-equality seek over the snapshot's page image — the same B+Tree
    /// descent the planner's seek cursors use, running directly on the
    /// patched compressed leaves.
    pub fn seek(&self, t: TableId, key: &[Value]) -> Result<Vec<Row>> {
        self.pages(t)?.seek(key)
    }
}

/// The rows of a table visible at `lsn`: base rows with overrides applied,
/// then visible appended rows.
fn visible_rows(d: &TableDelta, base: &[Row], lsn: u64) -> Vec<Row> {
    let mut out = Vec::with_capacity(d.n_visible_at(lsn));
    for (i, r) in base.iter().enumerate() {
        if let Some(row) = d.base_row_at(i as u32, r, lsn) {
            out.push(row.clone());
        }
    }
    out.extend(d.appended_at(lsn).cloned());
    out
}

/// Deterministically perturb one value for a synthesized UPDATE: integers
/// increment, strings rotate their first byte through the printable range
/// (width-preserving, so fixed-width codecs stay valid), NULL stays NULL.
fn perturb(v: &Value) -> Value {
    match v {
        Value::Int(i) => Value::Int(i.wrapping_add(1)),
        Value::Str(s) if !s.is_empty() => {
            let mut bytes = s.clone().into_bytes();
            bytes[0] = (bytes[0].wrapping_sub(b' ').wrapping_add(1) % 95) + b' ';
            Value::Str(String::from_utf8_lossy(&bytes).into_owned())
        }
        other => other.clone(),
    }
}
