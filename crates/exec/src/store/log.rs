//! The store's commit log and its two **layouts**.
//!
//! A [`CommitLog`] is the durable half of the one commit protocol in
//! [`super`]: the store stages a commit's bytes outside its lock
//! ([`Staged`]), then — inside the critical section — hands the batch to
//! [`CommitLog::append`], which writes every stream of the layout with one
//! sync point each, the **commit-point stream** last.
//!
//! * [`CommitLog::Single`] is one WAL: a commit is one frame holding the
//!   statement's [`CommitEffects`], and that WAL is the commit-point
//!   stream.
//! * [`CommitLog::Sharded`] places the same bytes on `N` shard WALs plus
//!   an **order log**. A [`ShardRouter`] splits a statement's effects
//!   across shards ([`Partitioning::Hash`](cadb_shard::Partitioning::Hash)
//!   by `key_hash` of the row, [`Partitioning::Range`](cadb_shard::Partitioning::Range)
//!   by base-ordinal ranges / statement-local round-robin); every
//!   participating shard appends one sub-frame under a shard-local LSN,
//!   and the order log appends a [`CommitOrderRecord`] under the global
//!   LSN that stitches them back into the total order. The order log is
//!   the commit-point stream: a commit is durable iff its order record and
//!   every shard frame it references are. Shard segments sync first, so a
//!   crash can tear a shard tail (commits whose frames are lost are
//!   discarded from the first gap on — the total order admits no holes) or
//!   the order tail (fully-logged shard frames without an order record are
//!   uncommitted); recovery converges to the committed prefix either way.
//!
//! Everything that reads a log back — recovery and the snapshot
//! consistency check — walks the frames of the commit-point stream and
//! asks a [`LogReader`] for each frame's effects; the reader is the only
//! place that knows whether a frame *is* the effects or *references* them.

use super::effects::{CommitEffects, RowSlot};
use super::maintain::fnv1a;
use super::RecoveryReport;
use cadb_common::{obs, CadbError, Parallelism, Result, TableId};
use cadb_shard::{ShardRouter, ShardSpec};
use cadb_storage::wal::{self, CommitOrderRecord, FrameType, WalFrame, WalSegment};
use std::collections::HashMap;

/// Most shards a sharded log layout supports — route bytes address shards
/// as `u8`.
pub const MAX_SERVE_SHARDS: usize = 255;

/// One shard's stream: its WAL segment, its local LSN counter and the
/// running totals behind [`ShardStats`].
#[derive(Debug, Default)]
pub(super) struct ShardLog {
    pub(super) wal: WalSegment,
    next_lsn: u64,
    frames: u64,
    rows_routed: u64,
}

impl ShardLog {
    pub(super) fn stats(&self) -> ShardStats {
        ShardStats {
            frames: self.frames,
            rows_routed: self.rows_routed,
            wal_bytes: self.wal.bytes().len() as u64,
        }
    }
}

/// Running per-shard counters of a sharded log. A pure function of the
/// committed statements, so a store recovered from an untorn log reports
/// the same stats as the one that wrote it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard-local commit frames appended.
    pub frames: u64,
    /// Rows routed to this shard (appended + rewritten + deleted).
    pub rows_routed: u64,
    /// Bytes currently in the shard's WAL segment.
    pub wal_bytes: u64,
}

/// What sharded crash recovery found across the log set.
#[derive(Debug, Clone)]
pub struct ShardedRecoveryReport {
    /// Per-shard replay outcome: `frames_applied` counts the shard frames
    /// an applied commit referenced; `truncated_bytes` /
    /// `duplicates_skipped` are the shard segment's own tail accounting.
    pub per_shard: Vec<RecoveryReport>,
    /// The order log's outcome: `frames_applied` is the number of commits
    /// re-applied in global order.
    pub order: RecoveryReport,
    /// Order records discarded because a shard frame they reference was
    /// lost (every later record is discarded with them — the total order
    /// admits no gaps).
    pub commits_discarded: usize,
    /// Highest committed LSN after replay.
    pub watermark: u64,
}

impl ShardedRecoveryReport {
    /// View as named observability metrics (also published by sharded
    /// recovery, next to the order log's `store.recovery.*`).
    pub fn as_metrics(&self) -> Vec<(&'static str, u64)> {
        let streams = || self.per_shard.iter().chain([&self.order]);
        vec![
            (
                "store.shard.recovery.commits_applied",
                self.order.frames_applied as u64,
            ),
            (
                "store.shard.recovery.commits_discarded",
                self.commits_discarded as u64,
            ),
            (
                "store.shard.recovery.truncated_bytes",
                streams().map(|r| r.truncated_bytes as u64).sum(),
            ),
            (
                "store.shard.recovery.duplicates_skipped",
                streams().map(|r| r.duplicates_skipped as u64).sum(),
            ),
        ]
    }
}

/// One commit's log bytes, encoded outside the store lock.
pub(super) enum Staged {
    /// [`CommitLog::Single`]: the whole statement's frame payload.
    Whole(Vec<u8>),
    /// [`CommitLog::Sharded`]: `(shard, sub-frame payload, rows routed)`
    /// per participating shard, ascending, plus the order record — whose
    /// `entries` get their shard-local LSNs at append time.
    Split {
        subs: Vec<(usize, Vec<u8>, u64)>,
        record: CommitOrderRecord,
    },
}

/// Split one statement's effects across the shards. Routing is a pure
/// function of the effects and the immutable base, so the split — and
/// every shard's logged bytes — is identical across parallelism modes and
/// batch sizes, and a recovered commit re-splits exactly as it was logged.
pub(super) fn split(eff: &CommitEffects, router: &ShardRouter) -> Staged {
    let mut per_shard: Vec<Option<CommitEffects>> = (0..router.shards()).map(|_| None).collect();
    fn sub(slot: &mut Option<CommitEffects>, table: TableId) -> &mut CommitEffects {
        slot.get_or_insert_with(|| CommitEffects {
            table,
            appended: Vec::new(),
            rewritten: Vec::new(),
            deleted: Vec::new(),
        })
    }
    let route_slot = |slot: RowSlot, old_row| match slot {
        RowSlot::Base(o) => router.route_base_slot(o, old_row),
        RowSlot::Appended(q) => router.route_append(old_row, q as u64),
    };
    let mut appended_routes = Vec::with_capacity(eff.appended.len());
    for (seq, row) in eff.appended.iter().enumerate() {
        let s = router.route_append(row, seq as u64);
        sub(&mut per_shard[s], eff.table).appended.push(row.clone());
        appended_routes.push(s as u8);
    }
    let mut rewritten_routes = Vec::with_capacity(eff.rewritten.len());
    for rw in &eff.rewritten {
        let s = route_slot(rw.slot, &rw.old_row);
        sub(&mut per_shard[s], eff.table).rewritten.push(rw.clone());
        rewritten_routes.push(s as u8);
    }
    let mut deleted_routes = Vec::with_capacity(eff.deleted.len());
    for ts in &eff.deleted {
        let s = route_slot(ts.slot, &ts.old_row);
        sub(&mut per_shard[s], eff.table).deleted.push(ts.clone());
        deleted_routes.push(s as u8);
    }
    Staged::Split {
        subs: per_shard
            .iter()
            .enumerate()
            .filter_map(|(s, sub)| {
                sub.as_ref()
                    .map(|sub| (s, sub.encode(), sub.n_rows() as u64))
            })
            .collect(),
        record: CommitOrderRecord {
            table: eff.table.0,
            entries: Vec::new(),
            appended_routes,
            rewritten_routes,
            deleted_routes,
        },
    }
}

fn commit_frame(lsn: u64, payload: Vec<u8>) -> WalFrame {
    WalFrame {
        frame_type: FrameType::Commit,
        lsn,
        payload,
    }
}

/// Append a checkpoint marker covering `watermark` and drop everything
/// before it; returns the bytes dropped.
fn mark_and_truncate(wal: &mut WalSegment, lsn: u64, watermark: u64) -> usize {
    let head = wal.bytes().len();
    wal.append(&WalFrame {
        frame_type: FrameType::Checkpoint,
        lsn,
        payload: watermark.to_le_bytes().to_vec(),
    });
    wal.truncate_head(head)
}

fn wrong_layout() -> CadbError {
    CadbError::Storage("commit staged for the other log layout".to_string())
}

/// The store's log under one of its two layouts (see the module docs).
#[derive(Debug)]
pub(super) enum CommitLog {
    Single(WalSegment),
    Sharded {
        spec: ShardSpec,
        order: WalSegment,
        shards: Vec<ShardLog>,
    },
}

impl Default for CommitLog {
    fn default() -> CommitLog {
        CommitLog::Single(WalSegment::new())
    }
}

impl CommitLog {
    /// An empty sharded log. A spec of one shard degenerates to the single
    /// protocol with the order log alongside.
    pub(super) fn sharded(spec: ShardSpec) -> Result<CommitLog> {
        if spec.shards > MAX_SERVE_SHARDS {
            return Err(CadbError::InvalidArgument(format!(
                "sharded store supports at most {MAX_SERVE_SHARDS} shards, got {}",
                spec.shards
            )));
        }
        Ok(CommitLog::Sharded {
            spec,
            order: WalSegment::new(),
            shards: (0..spec.shards).map(|_| ShardLog::default()).collect(),
        })
    }

    /// The shard layout; `None` for the single log.
    pub(super) fn spec(&self) -> Option<ShardSpec> {
        match self {
            CommitLog::Single(_) => None,
            CommitLog::Sharded { spec, .. } => Some(*spec),
        }
    }

    /// The commit-point stream: the WAL, or the order log.
    pub(super) fn head(&self) -> &WalSegment {
        match self {
            CommitLog::Single(wal) => wal,
            CommitLog::Sharded { order, .. } => order,
        }
    }

    pub(super) fn head_mut(&mut self) -> &mut WalSegment {
        match self {
            CommitLog::Single(wal) => wal,
            CommitLog::Sharded { order, .. } => order,
        }
    }

    /// The shard streams, in shard order; empty for the single log.
    pub(super) fn shards(&self) -> &[ShardLog] {
        match self {
            CommitLog::Single(_) => &[],
            CommitLog::Sharded { shards, .. } => shards,
        }
    }

    /// Append a batch of staged commits at consecutive global LSNs from
    /// `first`: all frames of a stream go in as one coalesced write (one
    /// sync point per participating stream), the commit-point stream last.
    pub(super) fn append(&mut self, first: u64, staged: Vec<Staged>) -> Result<()> {
        match self {
            CommitLog::Single(wal) => {
                let frames = staged
                    .into_iter()
                    .enumerate()
                    .map(|(i, s)| match s {
                        Staged::Whole(payload) => Ok(commit_frame(first + i as u64, payload)),
                        Staged::Split { .. } => Err(wrong_layout()),
                    })
                    .collect::<Result<Vec<_>>>()?;
                wal.append_batch(&frames);
                obs::gauge_set("store.wal_bytes", wal.bytes().len() as f64);
            }
            CommitLog::Sharded { order, shards, .. } => {
                let mut shard_frames: Vec<Vec<WalFrame>> =
                    shards.iter().map(|_| Vec::new()).collect();
                let mut order_frames = Vec::with_capacity(staged.len());
                for (i, s) in staged.into_iter().enumerate() {
                    let Staged::Split { subs, mut record } = s else {
                        return Err(wrong_layout());
                    };
                    for (s, payload, rows) in subs {
                        let (Some(sh), Some(frames)) = (shards.get_mut(s), shard_frames.get_mut(s))
                        else {
                            return Err(wrong_layout());
                        };
                        record.entries.push((s as u32, sh.next_lsn));
                        frames.push(commit_frame(sh.next_lsn, payload));
                        sh.next_lsn += 1;
                        sh.frames += 1;
                        sh.rows_routed += rows;
                    }
                    obs::observe("store.shard.fanout", record.entries.len() as u64);
                    obs::counter_add("store.shard.frames", record.entries.len() as u64);
                    order_frames.push(commit_frame(first + i as u64, record.encode()));
                }
                for (sh, frames) in shards.iter_mut().zip(&shard_frames) {
                    sh.wal.append_batch(frames);
                }
                order.append_batch(&order_frames);
                obs::counter_add("store.shard.order_records", order_frames.len() as u64);
                obs::gauge_set("store.shard.order_bytes", order.bytes().len() as f64);
            }
        }
        Ok(())
    }

    /// Log a checkpoint marker covering `watermark` in every stream —
    /// under `marker_lsn` in the commit-point stream, under the next
    /// shard-local LSN in each shard — and drop each stream's pre-marker
    /// history. Returns the bytes dropped and the shard-local LSN counters
    /// a recovery from the truncated logs resumes from.
    pub(super) fn truncate_at_marker(
        &mut self,
        marker_lsn: u64,
        watermark: u64,
    ) -> (usize, Vec<u64>) {
        match self {
            CommitLog::Single(wal) => (mark_and_truncate(wal, marker_lsn, watermark), Vec::new()),
            CommitLog::Sharded { order, shards, .. } => {
                let mut truncated = mark_and_truncate(order, marker_lsn, watermark);
                let next_lsns = shards
                    .iter_mut()
                    .map(|sh| {
                        truncated += mark_and_truncate(&mut sh.wal, sh.next_lsn, watermark);
                        sh.next_lsn += 1;
                        sh.next_lsn
                    })
                    .collect();
                (truncated, next_lsns)
            }
        }
    }

    /// Resume the shard-local LSN counters a checkpoint recorded.
    pub(super) fn resume(&mut self, shard_next_lsns: &[u64]) -> Result<()> {
        let shards: &mut [ShardLog] = match self {
            CommitLog::Single(_) => &mut [],
            CommitLog::Sharded { shards, .. } => shards,
        };
        if shards.len() != shard_next_lsns.len() {
            return Err(CadbError::InvalidArgument(format!(
                "recover: checkpoint carries {} shard counters, the log layout has {} shards",
                shard_next_lsns.len(),
                shards.len()
            )));
        }
        for (sh, next) in shards.iter_mut().zip(shard_next_lsns) {
            sh.next_lsn = *next;
        }
        Ok(())
    }

    /// FNV-1a digest over the whole log set: the commit-point stream's raw
    /// bytes, then every shard segment's with its shard index.
    pub(super) fn digest(&self) -> u64 {
        let mut h = fnv1a(0xcbf2_9ce4_8422_2325, self.head().bytes());
        for (s, sh) in self.shards().iter().enumerate() {
            h = fnv1a(h, &(s as u64).to_le_bytes());
            h = fnv1a(h, sh.wal.bytes());
        }
        h
    }

    /// A reader over this (live, untorn) log.
    pub(super) fn reader(&self) -> Result<LogReader> {
        match self {
            CommitLog::Single(_) => Ok(LogReader::Single),
            CommitLog::Sharded { shards, .. } => {
                let segments: Vec<&[u8]> = shards.iter().map(|s| s.wal.bytes()).collect();
                LogReader::sharded(shards.len(), &segments, Parallelism::Serial)
            }
        }
    }
}

/// One shard's decoded log: its commit frames by shard-local LSN plus the
/// segment's own replay accounting.
pub(super) struct DecodedShard {
    frames: HashMap<u64, CommitEffects>,
    checkpoints_seen: usize,
    truncated_bytes: usize,
    duplicates_skipped: usize,
    /// Frames an applied commit referenced.
    applied: usize,
}

/// Turns the frames of a log's commit-point stream into commit effects.
pub(super) enum LogReader {
    /// The frame payload *is* the effects.
    Single,
    /// The frame payload is an order record over the decoded shard logs.
    /// `discarded` counts records whose commit never fully hit disk — the
    /// first one ends the committed prefix, so every later record is
    /// discarded with it.
    Sharded {
        shards: Vec<DecodedShard>,
        discarded: usize,
    },
}

impl LogReader {
    /// Replay + decode the segments of an `n_shards` layout (independent
    /// work, in parallel under `par`).
    pub(super) fn sharded<S: AsRef<[u8]> + Sync>(
        n_shards: usize,
        segments: &[S],
        par: Parallelism,
    ) -> Result<LogReader> {
        if segments.len() != n_shards {
            return Err(CadbError::InvalidArgument(format!(
                "recover: {} shard logs for a {n_shards}-shard spec",
                segments.len()
            )));
        }
        let shards = cadb_common::par_map(par, segments, |_, bytes| {
            let rep = wal::replay(bytes.as_ref());
            let mut frames = HashMap::with_capacity(rep.frames.len());
            let mut checkpoints_seen = 0usize;
            for f in &rep.frames {
                match f.frame_type {
                    FrameType::Checkpoint => checkpoints_seen += 1,
                    FrameType::Commit => {
                        frames.insert(f.lsn, CommitEffects::decode(&f.payload)?);
                    }
                }
            }
            Ok(DecodedShard {
                frames,
                checkpoints_seen,
                truncated_bytes: rep.truncated_bytes,
                duplicates_skipped: rep.duplicates_skipped,
                applied: 0,
            })
        })
        .into_iter()
        .collect::<Result<Vec<_>>>()?;
        Ok(LogReader::Sharded {
            shards,
            discarded: 0,
        })
    }

    /// The effects a commit frame of the commit-point stream stands for;
    /// `None` when the commit never fully hit disk (a referenced shard
    /// frame was torn away, or disagrees with the routes) or follows one
    /// that didn't.
    pub(super) fn effects(&mut self, f: &WalFrame) -> Result<Option<CommitEffects>> {
        match self {
            LogReader::Single => CommitEffects::decode(&f.payload).map(Some),
            LogReader::Sharded { shards, discarded } => {
                if *discarded == 0 {
                    let rec = CommitOrderRecord::decode(&f.payload)?;
                    if let Some(eff) = merge_effects(&rec, shards) {
                        for (shard, _) in &rec.entries {
                            if let Some(sh) = shards.get_mut(*shard as usize) {
                                sh.applied += 1;
                            }
                        }
                        return Ok(Some(eff));
                    }
                }
                *discarded += 1;
                Ok(None)
            }
        }
    }

    /// The sharded view of a finished recovery whose walk over the order
    /// log reported `order`.
    pub(super) fn into_report(self, order: RecoveryReport) -> ShardedRecoveryReport {
        let (shards, commits_discarded) = match self {
            LogReader::Single => (Vec::new(), 0),
            LogReader::Sharded { shards, discarded } => (shards, discarded),
        };
        ShardedRecoveryReport {
            per_shard: shards
                .iter()
                .map(|sh| RecoveryReport {
                    frames_applied: sh.applied,
                    checkpoints_seen: sh.checkpoints_seen,
                    truncated_bytes: sh.truncated_bytes,
                    duplicates_skipped: sh.duplicates_skipped,
                    watermark: order.watermark,
                })
                .collect(),
            order,
            commits_discarded,
            watermark: order.watermark,
        }
    }
}

/// Re-interleave an order record's per-shard sub-effects into the
/// original statement effects, following the route bytes. Returns `None`
/// when a referenced frame is missing or the routes disagree with the
/// sub-effects — either way the commit never fully hit disk.
fn merge_effects(rec: &CommitOrderRecord, shards: &[DecodedShard]) -> Option<CommitEffects> {
    // Per participating shard: its sub-effects and how many appended /
    // rewritten / deleted rows the routes have consumed so far.
    let mut subs: HashMap<u8, (&CommitEffects, [usize; 3])> =
        HashMap::with_capacity(rec.entries.len());
    for (shard, local) in &rec.entries {
        let eff = shards.get(*shard as usize)?.frames.get(local)?;
        if eff.table.0 != rec.table {
            return None;
        }
        subs.insert(u8::try_from(*shard).ok()?, (eff, [0; 3]));
    }
    let mut out = CommitEffects {
        table: TableId(rec.table),
        appended: Vec::with_capacity(rec.appended_routes.len()),
        rewritten: Vec::with_capacity(rec.rewritten_routes.len()),
        deleted: Vec::with_capacity(rec.deleted_routes.len()),
    };
    for s in &rec.appended_routes {
        let (sub, cursors) = subs.get_mut(s)?;
        out.appended.push(sub.appended.get(cursors[0])?.clone());
        cursors[0] += 1;
    }
    for s in &rec.rewritten_routes {
        let (sub, cursors) = subs.get_mut(s)?;
        out.rewritten.push(sub.rewritten.get(cursors[1])?.clone());
        cursors[1] += 1;
    }
    for s in &rec.deleted_routes {
        let (sub, cursors) = subs.get_mut(s)?;
        out.deleted.push(sub.deleted.get(cursors[2])?.clone());
        cursors[2] += 1;
    }
    // Every routed row must be consumed: leftovers mean the routes and
    // the shard frames disagree.
    subs.values()
        .all(|(sub, c)| *c == [sub.appended.len(), sub.rewritten.len(), sub.deleted.len()])
        .then_some(out)
}
