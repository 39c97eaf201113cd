//! The write side: a seeded stream of single-statement commits through the
//! monolithic `Store` with reads beside the writes, checkpoints at epoch
//! ends and recovery from the captured log; then the same statement stream
//! through the `ShardedStore`. Each rep opens fresh stores.

use crate::harness::{run_reps, Env, Outcome, RepPlan};
use crate::inputs::{write_stream, SplitMix64, StreamShape, WriteOp};
use crate::stats::{median, percentile_sorted};
use cadb::common::rng::derive_seed;
use cadb::common::{Result, Row, TableId, Value};
use cadb::engine::{CostModel, Database, Statement};
use cadb::exec::store::maintain::rows_digest;
use cadb::exec::{MaterializedConfig, PageCacheStats, ShardedStore, Store};
use cadb::shard::ShardSpec;

/// `Store::recover` calls per rep, all over the same captured bytes.
const RECOVER_CALLS: usize = 3;
const GROUP: usize = 16;
const SHARDS: usize = 4;
/// Commits after a checkpoint that count as its stall window.
const STALL_WINDOW: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fold {
    Hit,
    Patched,
    Rebuilt,
}

struct Commit {
    ns: u64,
    kind: u8,
    rows: u64,
}

/// What one rep measured and verified.
#[derive(Default)]
pub struct ServeRep {
    commits: Vec<Commit>,
    /// `(kind of fold the read triggered, seconds)`.
    reads: Vec<(Fold, f64)>,
    checkpoint_s: Vec<f64>,
    recover_s: Vec<f64>,
    recover_frames: usize,
    recover_with_checkpoint_s: f64,
    state_digest_s: f64,
    sharded_s: f64,
    cache: PageCacheStats,
    wal_bytes_epoch0: usize,
    wal_bytes_end: usize,
    truncated_bytes: usize,
    sharded_log_bytes_epoch0: usize,
    state_digest: u64,
    wal_frame_digest: u64,
    /// Traced reps only.
    group_commit_s: Option<f64>,
    sharded_recover_s: Option<f64>,
    /// Verdicts of the correctness gate, `(what, ok)`.
    checks: Vec<(&'static str, bool)>,
}

pub struct ServePhase<'a> {
    db: &'a Database,
    mat: &'a MaterializedConfig,
    shape: StreamShape,
    ops: Vec<WriteOp>,
    seed: u64,
    lineitem: TableId,
    n_orders: u64,
}

/// `Store` and `ShardedStore` share the `prepare_*` signatures but no
/// trait, so the statement dispatch is written once, for either.
macro_rules! prepare {
    ($store:expr, $op:expr, $seed:expr) => {
        match &$op.stmt {
            Statement::Insert(s) => $store.prepare_insert(s, $seed, &$op.label),
            Statement::Update(s) => $store.prepare_update(s, $seed, &$op.label),
            Statement::Delete(s) => $store.prepare_delete(s, $seed, &$op.label),
            Statement::Select(_) => unreachable!("the write stream holds no SELECT"),
        }
    };
}

fn stmt_shape(stmt: &Statement) -> (u8, u64) {
    match stmt {
        Statement::Insert(s) => (0, s.n_rows),
        Statement::Update(s) => (1, s.n_rows),
        Statement::Delete(s) => (2, s.n_rows),
        Statement::Select(_) => (3, 0),
    }
}

impl<'a> ServePhase<'a> {
    pub fn new(
        db: &'a Database,
        mat: &'a MaterializedConfig,
        shape: StreamShape,
        seed: u64,
    ) -> Self {
        assert!(
            shape.epoch_commits.is_multiple_of(GROUP) && shape.tail_commits.is_multiple_of(GROUP),
            "group commits must not straddle a checkpoint"
        );
        let orders = db.table_id("orders").expect("TPC-H table");
        ServePhase {
            db,
            mat,
            shape,
            ops: write_stream(db, seed, shape),
            seed,
            lineitem: db.table_id("lineitem").expect("TPC-H table"),
            n_orders: db.table(orders).n_rows() as u64,
        }
    }

    /// A clustered-key seek on a fresh snapshot, checked against the rows
    /// the snapshot's version chains make visible (a path that never
    /// touches the folded page image).
    fn read(&self, env: &Env, store: &Store, key: i64, rep: &mut ServeRep) -> Result<()> {
        let before = store.page_cache_stats();
        let snap = store.snapshot();
        let (rows, secs) = env.tracer.timed("store.read", || {
            snap.seek(self.lineitem, &[Value::Int(key)])
        });
        let rows = rows?;
        let after = store.page_cache_stats();
        let fold = if after.rebuilt > before.rebuilt {
            Fold::Rebuilt
        } else if after.patched > before.patched {
            Fold::Patched
        } else {
            Fold::Hit
        };
        rep.reads.push((fold, secs));
        let want: Vec<Row> = snap
            .table_rows(self.lineitem)?
            .into_iter()
            .filter(|r| r.values.first() == Some(&Value::Int(key)))
            .collect();
        rep.checks.push((
            "read equals the snapshot's visible rows",
            rows_digest(&rows) == rows_digest(&want),
        ));
        Ok(())
    }

    /// Returns the state digest just before the first checkpoint.
    fn mono(&self, env: &Env, rep: &mut ServeRep) -> Result<u64> {
        let model = CostModel::default;
        let shape = self.shape;
        let (store, _) = env
            .tracer
            .timed("store.open", || Store::open(self.db, self.mat, model()));
        let mut keys = SplitMix64(derive_seed(self.seed, "benchmark.read_keys"));
        let mut last_lsn = 0u64;
        let mut lsns_ascend = true;
        let mut wal0 = Vec::new();
        let mut digest0 = 0u64;
        let mut first_checkpoint = 0u64;
        let mut last_checkpoint = None;
        for (k, op) in self.ops.iter().enumerate() {
            let (eff, prepare_s) = env
                .tracer
                .timed("store.prepare", || prepare!(store, op, self.seed));
            let eff = eff?;
            let (receipt, commit_s) = env.tracer.timed("store.commit", || store.commit(eff));
            let receipt = receipt?;
            lsns_ascend &= receipt.lsn > last_lsn;
            last_lsn = receipt.lsn;
            let (kind, rows) = stmt_shape(&op.stmt);
            rep.commits.push(Commit {
                ns: ((prepare_s + commit_s) * 1e9) as u64,
                kind,
                rows,
            });
            if k >= shape.epochs * shape.epoch_commits {
                continue;
            }
            let i = k % shape.epoch_commits + 1;
            let read_every = shape.insert_only / shape.patched_reads;
            if (i <= shape.insert_only && i.is_multiple_of(read_every)) || i == shape.epoch_commits
            {
                self.read(env, &store, 1 + keys.below(self.n_orders) as i64, rep)?;
            }
            if i < shape.epoch_commits {
                continue;
            }
            if k + 1 == shape.epoch_commits {
                // The log and state just before the first checkpoint: what
                // `Store::recover` and the sharded store are held against.
                wal0 = store.wal_bytes();
                rep.wal_bytes_epoch0 = wal0.len();
                let (d, secs) = env
                    .tracer
                    .timed("store.state_digest", || store.state_digest());
                digest0 = d?;
                rep.state_digest_s = secs;
            }
            let (ckpt, secs) = env.tracer.timed("store.checkpoint", || store.checkpoint());
            let ckpt = ckpt?;
            rep.checkpoint_s.push(secs);
            rep.truncated_bytes += ckpt.truncated_wal_bytes;
            if k + 1 == shape.epoch_commits {
                first_checkpoint = ckpt.digest();
            }
            last_checkpoint = Some(ckpt);
        }
        rep.checks.push(("commit LSNs ascend", lsns_ascend));
        rep.cache = store.page_cache_stats();
        rep.state_digest = store.state_digest()?;
        rep.wal_frame_digest = store.wal_frame_digest();
        let tail = store.wal_bytes();
        rep.wal_bytes_end = tail.len();

        for call in 0..RECOVER_CALLS {
            let (r, secs) = env.tracer.timed("store.recover", || {
                Store::recover(self.db, self.mat, model(), &wal0)
            });
            let (recovered, report) = r?;
            rep.recover_s.push(secs);
            rep.recover_frames = report.frames_applied;
            rep.checks.push((
                "recovered state equals the live state at that LSN",
                recovered.state_digest()? == digest0
                    && report.frames_applied == shape.epoch_commits
                    && report.truncated_bytes == 0,
            ));
            if call == 0 {
                rep.checks.push((
                    "recovered store checkpoints identically",
                    recovered.checkpoint()?.digest() == first_checkpoint,
                ));
            }
        }
        let ckpt = last_checkpoint.expect("at least one epoch");
        let (r, secs) = env.tracer.timed("store.recover_with_checkpoint", || {
            Store::recover_with_checkpoint(self.db, self.mat, model(), &ckpt, &tail)
        });
        let (recovered, report) = r?;
        rep.recover_with_checkpoint_s = secs;
        rep.checks.push((
            "checkpoint + tail recovery equals the live state",
            recovered.state_digest()? == rep.state_digest
                && report.frames_applied == shape.tail_commits,
        ));
        Ok(digest0)
    }

    /// The identical statement stream through `ShardedStore` hash-4 in
    /// group commits of 16, without checkpoints or reads. After epoch 0 —
    /// the last point where both stores have applied identical effects —
    /// its state digest is held against the monolithic one.
    fn sharded(&self, env: &Env, digest0: u64, rep: &mut ServeRep) -> Result<()> {
        let spec = ShardSpec::hash(SHARDS);
        let (store, _) = env.tracer.timed("sharded.open", || {
            ShardedStore::open(self.db, self.mat, CostModel::default(), spec)
        });
        let store = store?;
        for (b, batch) in self.ops.chunks(GROUP).enumerate() {
            let (effs, prepare_s) = env.tracer.timed("sharded.prepare", || {
                batch
                    .iter()
                    .map(|op| prepare!(store, op, self.seed))
                    .collect::<Result<Vec<_>>>()
            });
            let effs = effs?;
            let (receipts, commit_s) = env
                .tracer
                .timed("sharded.commit_batch", || store.commit_batch(&effs));
            receipts?;
            rep.sharded_s += prepare_s + commit_s;
            if (b + 1) * GROUP == self.shape.epoch_commits {
                rep.checks.push((
                    "sharded state equals monolithic state",
                    store.state_digest()? == digest0,
                ));
                rep.sharded_log_bytes_epoch0 = store.order_bytes().len()
                    + store
                        .all_shard_wal_bytes()
                        .iter()
                        .map(Vec::len)
                        .sum::<usize>();
            }
        }
        if env.tracer.enabled() {
            let order = store.order_bytes();
            let logs = store.all_shard_wal_bytes();
            let (r, secs) = env.tracer.timed("sharded.recover", || {
                ShardedStore::recover(self.db, self.mat, CostModel::default(), spec, &order, &logs)
            });
            let (recovered, _) = r?;
            rep.sharded_recover_s = Some(secs);
            rep.checks.push((
                "sharded recovery equals the sharded live state",
                recovered.state_digest()? == store.state_digest()?,
            ));
        }
        Ok(())
    }

    /// Traced reps only: the stream through a fresh monolithic store exactly
    /// as the sharded store takes it (group commits of 16, no checkpoints),
    /// so the sharded number has its monolithic counterpart.
    fn group_commit(&self, env: &Env, rep: &mut ServeRep) -> Result<()> {
        let store = Store::open(self.db, self.mat, CostModel::default());
        let mut secs = 0.0;
        for batch in self.ops.chunks(GROUP) {
            let (effs, prepare_s) = env.tracer.timed("store.prepare_batch", || {
                batch
                    .iter()
                    .map(|op| prepare!(store, op, self.seed))
                    .collect::<Result<Vec<_>>>()
            });
            let effs = effs?;
            let (receipts, commit_s) = env
                .tracer
                .timed("store.commit_batch", || store.commit_batch(&effs));
            receipts?;
            secs += prepare_s + commit_s;
        }
        rep.group_commit_s = Some(secs);
        Ok(())
    }

    fn rep(&self, env: &Env) -> Result<ServeRep> {
        let _g = env.tracer.span("serve.rep");
        let mut rep = ServeRep::default();
        let digest0 = self.mono(env, &mut rep)?;
        self.sharded(env, digest0, &mut rep)?;
        if env.tracer.enabled() {
            self.group_commit(env, &mut rep)?;
        }
        Ok(rep)
    }

    pub fn run(&self, env: &Env, plan: RepPlan, out: &mut Outcome) -> Result<()> {
        let mark = env.tracer.mark();
        let reps = run_reps(env, "serve", plan, || self.rep(env))?;
        for r in reps.all() {
            out.attempted += (r.commits.len() * 2) as u64; // monolithic + sharded commits
            for (what, ok) in &r.checks {
                out.check(*ok, || format!("serve: {what}"));
            }
        }
        let n = self.ops.len() as f64;
        let commit_secs = |r: &ServeRep| r.commits.iter().map(|c| c.ns).sum::<u64>() as f64 / 1e9;
        out.put("commits_per_s", &reps.samples(|r| n / commit_secs(r)));
        out.put(
            "commit_p50_us",
            &reps.samples(|r| latency_us(r.commits.iter(), 50.0)),
        );
        out.put(
            "commit_p99_us",
            &reps.samples(|r| latency_us(r.commits.iter(), 99.0)),
        );
        out.put(
            "read_mean_ms",
            &reps.samples(|r| {
                1e3 * r.reads.iter().map(|(_, s)| s).sum::<f64>() / r.reads.len() as f64
            }),
        );
        out.put("checkpoint_s", &reps.samples(|r| median(&r.checkpoint_s)));
        out.put("recover_s", &reps.samples(|r| median(&r.recover_s)));
        out.put("sharded_commits_per_s", &reps.samples(|r| n / r.sharded_s));

        let first = reps.first();
        out.count("serve.commits", first.commits.len() as u64);
        out.count("serve.reads", first.reads.len() as u64);
        out.count(
            "serve.wal_bytes_before_first_checkpoint",
            first.wal_bytes_epoch0 as u64,
        );
        out.count("serve.wal_bytes_end", first.wal_bytes_end as u64);
        out.count("serve.frames_replayed", first.recover_frames as u64);
        out.count("serve.state_digest", first.state_digest);
        out.count("serve.wal_frame_digest", first.wal_frame_digest);
        out.count("serve.pages_patched", first.cache.patched);
        out.count("serve.pages_rebuilt", first.cache.rebuilt);
        out.count(
            "serve.sharded_log_bytes_epoch0",
            first.sharded_log_bytes_epoch0 as u64,
        );

        let Some((t, _)) = &reps.traced else {
            return Ok(());
        };
        let st = env.tracer.self_times_since(mark);
        let per_span_us = |name: &str| {
            let (ns, count) = st.get(name).copied().unwrap_or((0, 1));
            ns as f64 / count as f64 / 1e3
        };
        out.layer("store.prepare_us", per_span_us("store.prepare"));
        out.layer("store.commit_us", per_span_us("store.commit"));
        for (kind, name) in [
            (0, "store.insert_us_per_row"),
            (1, "store.update_us_per_row"),
            (2, "store.delete_us_per_row"),
        ] {
            let (ns, rows) = t
                .commits
                .iter()
                .filter(|c| c.kind == kind)
                .fold((0u64, 0u64), |(ns, rows), c| (ns + c.ns, rows + c.rows));
            out.layer(name, ns as f64 / rows as f64 / 1e3);
        }
        out.layer(
            "store.group_commit16_commits_per_s",
            n / t.group_commit_s.expect("traced rep"),
        );
        let fold_ms = |kind: Fold| {
            let v: Vec<f64> = t
                .reads
                .iter()
                .filter(|(k, _)| *k == kind)
                .map(|(_, s)| s * 1e3)
                .collect();
            if v.is_empty() {
                0.0
            } else {
                median(&v)
            }
        };
        out.layer("store.fold_patched_ms", fold_ms(Fold::Patched));
        out.layer("store.fold_rebuilt_ms", fold_ms(Fold::Rebuilt));
        out.layer(
            "store.page_cache_hit_rate",
            t.cache.hits as f64 / (t.cache.hits + t.cache.misses).max(1) as f64,
        );
        out.layer("store.pages_patched", t.cache.patched as f64);
        out.layer("store.pages_rebuilt", t.cache.rebuilt as f64);

        // The tail follows the last checkpoint: its first commits pay for
        // the caches the checkpoint dropped, the rest run at steady state.
        let tail = &t.commits[self.shape.epochs * self.shape.epoch_commits..];
        let rate = |cs: &[Commit]| cs.len() as f64 / cs.iter().map(|c| c.ns).sum::<u64>() as f64;
        let window = STALL_WINDOW.min(tail.len() / 2);
        out.layer(
            "store.post_checkpoint_stall_ratio",
            rate(&tail[..window]) / rate(&tail[window..]),
        );
        let decile = (tail.len() / 10).max(1);
        out.layer(
            "store.commit_p50_drift",
            latency_us(tail[tail.len() - decile..].iter(), 50.0)
                / latency_us(tail[..decile].iter(), 50.0),
        );
        out.layer("store.wal_bytes_end", t.wal_bytes_end as f64);
        out.layer("store.checkpoint_truncated_bytes", t.truncated_bytes as f64);
        out.layer(
            "store.recover_frames_per_s",
            t.recover_frames as f64 / median(&t.recover_s),
        );
        out.layer(
            "store.recover_with_checkpoint_s",
            t.recover_with_checkpoint_s,
        );
        out.layer("store.state_digest_ms", t.state_digest_s * 1e3);
        out.layer(
            "store.sharded.log_overhead_pct",
            100.0 * (t.sharded_log_bytes_epoch0 as f64 / t.wal_bytes_epoch0 as f64 - 1.0),
        );
        out.layer(
            "store.sharded.recover_s",
            t.sharded_recover_s.expect("traced rep"),
        );
        out.overheads(&reps);
        Ok(())
    }
}

fn latency_us<'a>(commits: impl Iterator<Item = &'a Commit>, p: f64) -> f64 {
    let mut ns: Vec<u64> = commits.map(|c| c.ns).collect();
    ns.sort_unstable();
    percentile_sorted(&ns, p) as f64 / 1e3
}
