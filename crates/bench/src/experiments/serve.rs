//! `serve` — the write-path experiment: commit the workload's
//! INSERT/UPDATE statements through the snapshot-isolated store's WAL'd
//! write path (with incremental secondary-index and MV maintenance), then
//! replay the WAL into a fresh store and verify the recovered state
//! byte-for-byte against the live one.
//!
//! This is the durability half of the actuals loop: `exec` and `plan`
//! measure the read side (query costs, access paths), `serve` measures the
//! write side — what maintaining the recommended structures *actually*
//! costs per statement, next to the what-if estimate the advisor priced
//! the configuration with — and proves the measured state survives a
//! crash.

use crate::report::Table;
use cadb_common::json::{JsonArray, JsonObject};
use cadb_common::obs::{self, HistogramSummary, TraceRecorder};
use cadb_common::Parallelism;
use cadb_core::ErrorModel;
use cadb_engine::{Configuration, CostModel, Database, WhatIfOptimizer, Workload};
use cadb_exec::{MaterializedConfig, ShardedStore, Store, WriteKind};
use cadb_shard::ShardSpec;
use std::sync::Arc;
use std::time::Instant;

use super::obs::write_burst;
use super::plan::{dtac_config, mv_rich_config};

/// Seed for the synthetic rows the write statements commit (kept distinct
/// from the advisor's sampling seed so the two never alias).
const SERVE_SEED: u64 = 0xCADB;

/// The outcome of serving one dataset × configuration: per-statement write
/// actuals plus the recovery verification verdict.
#[derive(Debug, Clone)]
pub struct ServeOutcome {
    /// Per-write actuals: `(statement_index, kind, n_rows, estimated,
    /// measured, mv_share, wal_bytes)`.
    pub writes: Vec<(usize, WriteKind, u64, f64, f64, f64, u64)>,
    /// Committed watermark LSN.
    pub watermark: u64,
    /// WAL bytes the run appended.
    pub wal_bytes: usize,
    /// Measured maintenance cost summed over all commits.
    pub measured_write_cost: f64,
    /// The MV-maintenance share of it.
    pub measured_mv_cost: f64,
    /// WAL frames recovery replayed.
    pub frames_replayed: usize,
    /// Whether recovered state digest == live state digest AND the
    /// recovered checkpoint is bit-identical to the live one.
    pub recovery_verified: bool,
}

/// Serve the workload's writes under a configuration and verify recovery.
pub fn serve_measure(db: &Database, w: &Workload, cfg: &Configuration) -> ServeOutcome {
    let mat = MaterializedConfig::build(db, cfg).expect("materialize config");
    let opt = WhatIfOptimizer::new(db);
    let store = Store::open(db, &mat, CostModel::default());
    let actuals = store
        .apply_workload(w, SERVE_SEED, Parallelism::Auto)
        .expect("serve workload");
    let writes = actuals
        .iter()
        .map(|a| {
            let (stmt, _) = &w.statements[a.statement_index];
            (
                a.statement_index,
                a.kind,
                a.n_rows,
                opt.statement_cost(stmt, cfg),
                a.measured_cost,
                a.measured_mv_cost,
                a.counters.wal_bytes,
            )
        })
        .collect();
    let totals = store.totals();
    let live_digest = store.state_digest().expect("state digest");
    // WAL snapshot before checkpointing, so live and recovered stores
    // checkpoint from the same LSN and the artifacts are comparable.
    let wal = store.wal_bytes();
    let live_checkpoint = store.checkpoint().expect("checkpoint").digest();
    let (recovered, recovery) =
        Store::recover(db, &mat, CostModel::default(), &wal).expect("recovery");
    let recovered_digest = recovered.state_digest().expect("recovered digest");
    let recovered_checkpoint = recovered
        .checkpoint()
        .expect("recovered checkpoint")
        .digest();
    ServeOutcome {
        writes,
        watermark: store.watermark(),
        wal_bytes: wal.len(),
        measured_write_cost: totals.measured_cost,
        measured_mv_cost: totals.measured_mv_cost,
        frames_replayed: recovery.frames_applied,
        recovery_verified: recovered_digest == live_digest
            && recovered_checkpoint == live_checkpoint
            && recovery.truncated_bytes == 0
            && recovery.duplicates_skipped == 0,
    }
}

/// Per-statement write-cost table for one dataset × configuration.
pub fn serve_table(name: &str, variant: &str, out: &ServeOutcome) -> Table {
    let mut t = Table::new(
        format!("serve: {name} measured write costs ({variant})"),
        &[
            "stmt", "kind", "rows", "est cost", "measured", "est/meas", "mv share", "wal B",
        ],
    );
    for (idx, kind, n_rows, est, meas, mv, wal) in &out.writes {
        let kind = match kind {
            WriteKind::Insert => "INSERT",
            WriteKind::Update => "UPDATE",
            WriteKind::Delete => "DELETE",
        };
        let ratio = if *meas > 0.0 { est / meas } else { 1.0 };
        t.row(vec![
            format!("{idx}"),
            kind.to_string(),
            format!("{n_rows}"),
            format!("{est:.1}"),
            format!("{meas:.1}"),
            format!("{ratio:.2}"),
            format!("{mv:.1}"),
            format!("{wal}"),
        ]);
    }
    let (bias, n) = ErrorModel::maintenance_bias(
        &out.writes
            .iter()
            .map(|(_, _, _, est, meas, _, _)| (*est, *meas))
            .collect::<Vec<_>>(),
    );
    t.row(vec![
        format!(
            "total: measured {:.1} (mv {:.1}), geomean est/meas {bias:.2} over {n} writes",
            out.measured_write_cost, out.measured_mv_cost
        ),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    t.row(vec![
        format!(
            "recovery: {} frames replayed to LSN {}, {} WAL bytes — {}",
            out.frames_replayed,
            out.watermark,
            out.wal_bytes,
            if out.recovery_verified {
                "state + checkpoint bit-identical"
            } else {
                "MISMATCH"
            }
        ),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    t
}

/// Machine-readable form of the serve experiment.
pub fn serve_json(datasets: &[(&str, &Database, &Workload)], scale: f64) -> String {
    let mut out_datasets = JsonArray::new();
    for (name, db, w) in datasets {
        let mut variants = JsonArray::new();
        for (variant, cfg) in [
            ("dtac", dtac_config(db, w)),
            ("mv-rich", mv_rich_config(db, w)),
        ] {
            let out = serve_measure(db, w, &cfg);
            let mut writes = JsonArray::new();
            for (idx, kind, n_rows, est, meas, mv, wal) in &out.writes {
                writes.push_raw(
                    &JsonObject::new()
                        .int("statement_index", *idx as i64)
                        .str(
                            "kind",
                            match kind {
                                WriteKind::Insert => "insert",
                                WriteKind::Update => "update",
                                WriteKind::Delete => "delete",
                            },
                        )
                        .int("n_rows", *n_rows as i64)
                        .num("estimated_cost", *est)
                        .num("measured_cost", *meas)
                        .num("measured_mv_cost", *mv)
                        .int("wal_bytes", *wal as i64)
                        .finish(),
                );
            }
            variants.push_raw(
                &JsonObject::new()
                    .str("variant", variant)
                    .raw("writes", &writes.finish())
                    .num("measured_write_cost", out.measured_write_cost)
                    .num("measured_mv_cost", out.measured_mv_cost)
                    .int("watermark", out.watermark as i64)
                    .int("wal_bytes", out.wal_bytes as i64)
                    .int("frames_replayed", out.frames_replayed as i64)
                    .bool("recovery_verified", out.recovery_verified)
                    .finish(),
            );
        }
        out_datasets.push_raw(
            &JsonObject::new()
                .str("dataset", name)
                .raw("variants", &variants.finish())
                .finish(),
        );
    }
    JsonObject::new()
        .str("experiment", "serve")
        .num("scale", scale)
        .raw("datasets", &out_datasets.finish())
        .finish()
}

/// One cell of the sharded-serve sweep: a [`write_burst`] committed
/// through `shards` per-shard WAL streams under the global commit order
/// (`shards == 0` marks the monolithic single-log baseline).
#[derive(Debug, Clone)]
pub struct ShardedServePoint {
    /// Shard count; `0` = the monolithic [`Store`].
    pub shards: usize,
    /// Statements committed.
    pub commits: u64,
    /// Wall-clock of the whole burst, milliseconds.
    pub wall_ms: f64,
    /// Committed statements per second.
    pub commits_per_sec: f64,
    /// Recorded `store.group_commit_ns` distribution.
    pub latency: HistogramSummary,
    /// Total log-set bytes: the single WAL, or order log + all shard
    /// segments.
    pub wal_bytes: usize,
    /// Order-insensitive digest of the committed state — equal in every
    /// cell by the sharded-store equivalence contract.
    pub state_digest: u64,
    /// Whether replaying the cell's log set reproduced the live digest
    /// with nothing discarded.
    pub recovery_verified: bool,
}

/// Batch size the sharded-serve sweep group-commits with; large enough
/// that the order record amortizes over several statements per sync.
const SHARDED_SERVE_BATCH: usize = 8;

/// Sweep shard counts over a [`write_burst`]: commit the same statements
/// through the monolithic store and through hash-sharded stores, reading
/// group-commit latency from the installed recorder and verifying each
/// cell's recovery. Panics if any cell's committed state diverges — the
/// sweep doubles as the sharded-equivalence check at bench scale.
pub fn sharded_serve_curve(
    db: &Database,
    cfg: &Configuration,
    shard_counts: &[usize],
) -> Vec<ShardedServePoint> {
    let w = write_burst(db);
    let mat = MaterializedConfig::build(db, cfg).expect("materialize config");
    let model = CostModel::default;
    // The monolithic baseline first, then the same burst, same batch size,
    // over each sharded layout.
    let layouts =
        std::iter::once(None).chain(shard_counts.iter().map(|&n| Some(ShardSpec::hash(n))));
    let mut out = Vec::new();
    for layout in layouts {
        let rec = Arc::new(TraceRecorder::new());
        let store: Store<'_> = match layout {
            None => Store::open(db, &mat, model()),
            Some(spec) => ShardedStore::open(db, &mat, model(), spec)
                .expect("open sharded store")
                .into(),
        };
        let guard = obs::install(rec.clone());
        let t0 = Instant::now();
        let actuals = store
            .apply_workload_batched(&w, SERVE_SEED, Parallelism::Auto, SHARDED_SERVE_BATCH)
            .expect("serve burst");
        let wall = t0.elapsed();
        drop(guard);
        // Counted from the actuals, not the `store.commits` counter: the
        // recorder is process-wide and would also count commits made by
        // whatever else runs while it is installed.
        let commits = actuals.len() as u64;
        let head = store.wal_bytes();
        let shard_logs = store.all_shard_wal_bytes();
        let digest = store.state_digest().expect("state digest");
        let (recovered, clean): (Store<'_>, bool) = match layout {
            None => {
                let (s, rep) = Store::recover(db, &mat, model(), &head).expect("recovery");
                (s, rep.truncated_bytes == 0 && rep.duplicates_skipped == 0)
            }
            Some(spec) => {
                let (s, rep) = ShardedStore::recover(db, &mat, model(), spec, &head, &shard_logs)
                    .expect("sharded recovery");
                (s.into(), rep.commits_discarded == 0)
            }
        };
        out.push(ShardedServePoint {
            shards: layout.map_or(0, |spec| spec.shards),
            commits,
            wall_ms: wall.as_secs_f64() * 1e3,
            commits_per_sec: commits as f64 / wall.as_secs_f64().max(1e-9),
            latency: rec
                .histogram("store.group_commit_ns")
                .expect("group-commit latency recorded"),
            wal_bytes: head.len() + shard_logs.iter().map(Vec::len).sum::<usize>(),
            state_digest: digest,
            recovery_verified: recovered.state_digest().expect("recovered digest") == digest
                && clean,
        });
    }
    let d0 = out[0].state_digest;
    assert!(
        out.iter().all(|p| p.state_digest == d0),
        "sharding changed the committed state"
    );
    out
}

/// The sharded-serve sweep as a table: throughput and group-commit
/// latency vs shard count, with the monolithic baseline first.
pub fn sharded_serve_table(name: &str, points: &[ShardedServePoint]) -> Table {
    let mut t = Table::new(
        format!("serve: {name} commit throughput/latency vs shard count"),
        &[
            "shards",
            "commits",
            "wall ms",
            "commits/s",
            "p50 µs",
            "p95 µs",
            "log-set B",
            "recovered",
        ],
    );
    for p in points {
        t.row(vec![
            if p.shards == 0 {
                "mono".to_string()
            } else {
                format!("{}", p.shards)
            },
            format!("{}", p.commits),
            format!("{:.1}", p.wall_ms),
            format!("{:.0}", p.commits_per_sec),
            format!("{:.1}", p.latency.p50 / 1e3),
            format!("{:.1}", p.latency.p95 / 1e3),
            format!("{}", p.wal_bytes),
            if p.recovery_verified {
                "ok"
            } else {
                "MISMATCH"
            }
            .to_string(),
        ]);
    }
    t.row(vec![
        format!(
            "state digest identical across all {} cells: {:#x}",
            points.len(),
            points.first().map(|p| p.state_digest).unwrap_or(0)
        ),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    t
}

/// Differential check behind the `serve` smoke test: the measured write
/// totals must be bitwise identical under serial and pooled execution (the
/// store's determinism contract), and both runs must recover.
pub fn serve_parallelism_differential(db: &Database, w: &Workload, cfg: &Configuration) -> bool {
    let mat = MaterializedConfig::build(db, cfg).expect("materialize config");
    let mut digests = Vec::new();
    let mut per_stmt: Vec<Vec<u64>> = Vec::new();
    for par in [Parallelism::Serial, Parallelism::Auto] {
        let store = Store::open(db, &mat, CostModel::default());
        let actuals = store
            .apply_workload(w, SERVE_SEED, par)
            .expect("serve workload");
        let mut costs: Vec<(usize, u64)> = actuals
            .iter()
            .map(|a| (a.statement_index, a.measured_cost.to_bits()))
            .collect();
        costs.sort_unstable();
        per_stmt.push(costs.into_iter().map(|(_, c)| c).collect());
        digests.push(store.state_digest().expect("digest"));
    }
    digests[0] == digests[1] && per_stmt[0] == per_stmt[1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::plan::mv_rich_config;
    use cadb_exec::MeasuredRun;

    #[test]
    fn serve_commits_measures_and_recovers() {
        let gen = cadb_datagen::TpchGen::new(0.01);
        let db = gen.build().unwrap();
        let w = gen.workload(&db).unwrap();
        let cfg = mv_rich_config(&db, &w);
        let out = serve_measure(&db, &w, &cfg);
        assert!(!out.writes.is_empty(), "TPC-H workload has writes");
        assert!(out.measured_write_cost > 0.0);
        assert!(out.measured_mv_cost > 0.0, "mv-rich config has MVs");
        assert!(out.recovery_verified, "recovery must be bit-identical");
        assert_eq!(out.frames_replayed, out.writes.len());
        let table = serve_table("tpch", "mv-rich", &out);
        assert!(table.render().contains("bit-identical"));
        assert!(serve_parallelism_differential(&db, &w, &cfg));
        let json = serve_json(&[("tpch", &db, &w)], 0.01);
        assert!(json.contains("\"experiment\":\"serve\""));
        assert!(json.contains("\"recovery_verified\":true"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn sharded_serve_sweep_is_equivalent_and_recovers() {
        let gen = cadb_datagen::TpchGen::new(0.01);
        let db = gen.build().unwrap();
        let w = gen.workload(&db).unwrap();
        let cfg = mv_rich_config(&db, &w);
        let points = sharded_serve_curve(&db, &cfg, &[1, 4]);
        assert_eq!(points.len(), 3); // mono + 2 shard counts
        assert!(points.iter().all(|p| p.recovery_verified));
        assert!(points.iter().all(|p| p.commits == points[0].commits));
        // The sweep itself asserts digest identity; the table shows it.
        let table = sharded_serve_table("tpch", &points);
        let rendered = table.render();
        assert!(rendered.contains("mono"));
        assert!(rendered.contains("state digest identical"));
    }

    /// The measured MV-maintenance number `MeasuredRun` now reports must
    /// agree with what the store actually charged for the same workload —
    /// the report is a *view* of the served run, not a separate model.
    #[test]
    fn measured_report_mv_cost_matches_served_totals() {
        let gen = cadb_datagen::TpchGen::new(0.01);
        let db = gen.build().unwrap();
        let w = gen.workload(&db).unwrap();
        let cfg = mv_rich_config(&db, &w);
        let report = MeasuredRun::new(&db, &w).execute(&cfg).unwrap();
        let measured = report.mv_maintenance_cost.expect("workload writes");
        let expected: f64 = report
            .writes
            .iter()
            .map(|wr| wr.weight * wr.measured_mv_cost)
            .sum();
        assert_eq!(measured.to_bits(), expected.to_bits());
        let whatif = report.mv_maintenance_whatif.expect("workload inserts");
        assert!(whatif.is_finite());
    }
}
