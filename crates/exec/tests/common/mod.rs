//! Shared fixture of the store suites: the log **layout** as test data, so
//! every recovery, crash, group-commit and concurrency case runs once per
//! layout from the same body, and cross-layout identity is just "equal to
//! the first cell".

// Each test binary uses its own subset of the fixture.
#![allow(dead_code)]

use cadb_engine::{CostModel, Database, Statement, Workload};
use cadb_exec::store::effects::CommitEffects;
use cadb_exec::{
    MaterializedConfig, RecoveryReport, ShardedStore, Store, StoreCheckpoint, StoreTotals,
    WriteActual,
};
use cadb_shard::ShardSpec;
use cadb_storage::wal::{replay, CommitOrderRecord, FrameType};
use std::collections::HashSet;
use std::ops::Deref;

/// Where a store's log lives.
#[derive(Debug, Clone, Copy)]
pub enum Layout {
    /// One WAL ([`Store::open`]).
    Single,
    /// Shard WALs + order log ([`ShardedStore::open`]).
    Sharded(ShardSpec),
}

/// The matrix every layout-parameterised case runs over; `Single` first,
/// so it is the reference the others are held against.
pub fn layouts() -> [Layout; 4] {
    [
        Layout::Single,
        Layout::Sharded(ShardSpec::hash(2)),
        Layout::Sharded(ShardSpec::hash(8)),
        Layout::Sharded(ShardSpec::range(8)),
    ]
}

/// A store under either layout; derefs to the [`Store`] both are.
pub enum AnyStore<'a> {
    Single(Store<'a>),
    Sharded(ShardedStore<'a>),
}

impl<'a> Deref for AnyStore<'a> {
    type Target = Store<'a>;

    fn deref(&self) -> &Store<'a> {
        match self {
            AnyStore::Single(s) => s,
            AnyStore::Sharded(s) => s,
        }
    }
}

impl<'a> AnyStore<'a> {
    /// The sharded handle, for the accessors a single WAL doesn't have.
    pub fn sharded(&self) -> Option<&ShardedStore<'a>> {
        match self {
            AnyStore::Single(_) => None,
            AnyStore::Sharded(s) => Some(s),
        }
    }

    /// Sync points of shard stream `s`.
    pub fn shard_sync_points(&self, s: usize) -> Vec<usize> {
        self.sharded()
            .expect("sharded layout")
            .shard_sync_points(s)
            .unwrap()
    }
}

/// A captured (and possibly then torn) log set: the commit-point stream —
/// the WAL or the order log — plus the shard streams (none for `Single`).
#[derive(Debug, Clone)]
pub struct LogSet {
    pub head: Vec<u8>,
    pub shards: Vec<Vec<u8>>,
}

impl LogSet {
    pub fn of(store: &Store<'_>) -> LogSet {
        LogSet {
            head: store.wal_bytes(),
            shards: store.all_shard_wal_bytes(),
        }
    }

    pub fn total_bytes(&self) -> usize {
        self.head.len() + self.shards.iter().map(Vec::len).sum::<usize>()
    }

    /// The same set with the commit-point stream cut at `cut`.
    pub fn with_head_cut(&self, cut: usize) -> LogSet {
        let mut torn = self.clone();
        torn.head.truncate(cut);
        torn
    }

    /// The same set with shard stream `s` cut at `cut`.
    pub fn with_shard_cut(&self, s: usize, cut: usize) -> LogSet {
        let mut torn = self.clone();
        torn.shards[s].truncate(cut);
        torn
    }

    /// Oracle: how many leading commits of the commit-point stream are
    /// fully durable in this set — for a sharded set the committed prefix
    /// ends at the first order record referencing a shard frame that did
    /// not survive.
    pub fn durable_prefix(&self, layout: Layout) -> usize {
        let head = replay(&self.head);
        let commits = head
            .frames
            .iter()
            .filter(|f| f.frame_type == FrameType::Commit);
        if let Layout::Single = layout {
            return commits.count();
        }
        let shard_lsns: Vec<HashSet<u64>> = self
            .shards
            .iter()
            .map(|b| {
                let frames = replay(b).frames;
                let commits = frames.iter().filter(|f| f.frame_type == FrameType::Commit);
                commits.map(|f| f.lsn).collect()
            })
            .collect();
        commits
            .take_while(|f| {
                let rec = CommitOrderRecord::decode(&f.payload).unwrap();
                let mut entries = rec.entries.iter();
                entries.all(|(s, l)| shard_lsns[*s as usize].contains(l))
            })
            .count()
    }
}

/// What a recovery found, whatever the layout.
pub struct Recovered<'a> {
    pub store: AnyStore<'a>,
    /// The commit-point stream's report (`frames_applied` = commits).
    pub report: RecoveryReport,
    /// Order records discarded over a torn shard tail; 0 for `Single`.
    pub discarded: usize,
    /// Per-shard-stream reports; empty for `Single`.
    pub per_shard: Vec<RecoveryReport>,
}

impl Layout {
    /// Number of shard streams (0 for `Single`).
    pub fn shards(self) -> usize {
        match self {
            Layout::Single => 0,
            Layout::Sharded(spec) => spec.shards,
        }
    }

    pub fn open<'a>(self, db: &'a Database, mat: &'a MaterializedConfig) -> AnyStore<'a> {
        let model = CostModel::default();
        match self {
            Layout::Single => AnyStore::Single(Store::open(db, mat, model)),
            Layout::Sharded(spec) => {
                AnyStore::Sharded(ShardedStore::open(db, mat, model, spec).unwrap())
            }
        }
    }

    /// Recover from `logs`, on top of `ckpt` when given.
    pub fn recover<'a>(
        self,
        db: &'a Database,
        mat: &'a MaterializedConfig,
        ckpt: Option<&StoreCheckpoint>,
        logs: &LogSet,
    ) -> Recovered<'a> {
        let model = CostModel::default();
        match self {
            Layout::Single => {
                let (store, report) = match ckpt {
                    None => Store::recover(db, mat, model, &logs.head),
                    Some(c) => Store::recover_with_checkpoint(db, mat, model, c, &logs.head),
                }
                .unwrap();
                Recovered {
                    store: AnyStore::Single(store),
                    report,
                    discarded: 0,
                    per_shard: Vec::new(),
                }
            }
            Layout::Sharded(spec) => {
                let (head, shards) = (&logs.head, &logs.shards);
                let (store, rep) = match ckpt {
                    None => ShardedStore::recover(db, mat, model, spec, head, shards),
                    Some(c) => {
                        ShardedStore::recover_with_checkpoint(db, mat, model, spec, c, head, shards)
                    }
                }
                .unwrap();
                assert_eq!(rep.watermark, rep.order.watermark);
                Recovered {
                    store: AnyStore::Sharded(store),
                    report: rep.order,
                    discarded: rep.commits_discarded,
                    per_shard: rep.per_shard,
                }
            }
        }
    }
}

/// Prepare the workload's `idx`-th statement exactly as
/// `Store::apply_workload` would (same label), or `None` for a SELECT.
pub fn prepare(
    store: &Store<'_>,
    idx: usize,
    stmt: &Statement,
    seed: u64,
) -> Option<CommitEffects> {
    let label = format!("write-{idx}");
    Some(match stmt {
        Statement::Insert(i) => store.prepare_insert(i, seed, &label).unwrap(),
        Statement::Update(u) => store.prepare_update(u, seed, &label).unwrap(),
        Statement::Delete(d) => store.prepare_delete(d, seed, &label).unwrap(),
        Statement::Select(_) => return None,
    })
}

/// Commit the workload one statement (one sync point per stream) at a
/// time; returns the state digest and running totals after each committed
/// prefix (`[k]` = after the first `k` writes).
pub fn commit_one_by_one(store: &Store<'_>, w: &Workload, seed: u64) -> Vec<(u64, StoreTotals)> {
    let mut prefixes = vec![(store.state_digest().unwrap(), store.totals())];
    for (idx, (stmt, _)) in w.statements.iter().enumerate() {
        if let Some(eff) = prepare(store, idx, stmt, seed) {
            store.commit(eff).unwrap();
            prefixes.push((store.state_digest().unwrap(), store.totals()));
        }
    }
    prefixes
}

/// Per-statement actuals are bit-identical: LSNs, counters, measured costs.
pub fn assert_actuals_eq(a: &[WriteActual], b: &[WriteActual], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: actual counts");
    for (x, y) in a.iter().zip(b) {
        let i = x.statement_index;
        assert_eq!(i, y.statement_index, "{ctx}");
        assert_eq!(x.lsn, y.lsn, "{ctx}: lsn of stmt {i}");
        assert_eq!(x.counters, y.counters, "{ctx}: counters of stmt {i}");
        assert_eq!(
            x.measured_cost.to_bits(),
            y.measured_cost.to_bits(),
            "{ctx}: measured cost of stmt {i}"
        );
        assert_eq!(
            x.measured_mv_cost.to_bits(),
            y.measured_mv_cost.to_bits(),
            "{ctx}: mv cost of stmt {i}"
        );
    }
}

/// Running totals are bit-identical.
pub fn assert_totals_eq(a: &Store<'_>, b: &Store<'_>, ctx: &str) {
    let (t0, t1) = (a.totals(), b.totals());
    assert_eq!(t0.commits, t1.commits, "{ctx}: commits");
    assert_eq!(t0.counters, t1.counters, "{ctx}: counters");
    assert_eq!(
        t0.measured_cost.to_bits(),
        t1.measured_cost.to_bits(),
        "{ctx}: measured cost"
    );
    assert_eq!(
        t0.measured_mv_cost.to_bits(),
        t1.measured_mv_cost.to_bits(),
        "{ctx}: mv cost"
    );
}
