//! The store's determinism and crash-recovery contract, pinned **once, for
//! every log layout** (`common::layouts()`: the single WAL, hash-sharded
//! ×2 and ×8, range-sharded ×8). `Single` is the first cell of every
//! matrix, so "bit-identical across layouts" is asserted as "equal to the
//! first cell":
//!
//! * per-statement measured maintenance actuals (LSNs included), state
//!   digests and running totals are identical under `Serial`, `Auto` and
//!   `Threads(4)` execution (3 seeds) and under every layout;
//! * replaying the full log set reproduces state, totals, the log bytes
//!   themselves and the per-shard stats;
//! * group commit is a pure durability knob: log bytes, recovered state
//!   and per-statement actuals are bit-identical across batch sizes
//!   {1, 4, 16} and every `Parallelism` mode, and a crash preserves whole
//!   batches;
//! * replay after a crash at **every sync point of every stream** — the
//!   commit-point stream (WAL / order log: clean cuts, torn offsets
//!   strictly inside a frame, injected duplicate frames, corrupted bytes)
//!   and every shard stream (a torn shard tail ends the total order at the
//!   first commit referencing a lost frame; durable shard frames without
//!   an order record are uncommitted) — recovers exactly the last
//!   committed prefix, with random torn log sets pinned by a proptest;
//! * a checkpoint produces the same artifact under every layout,
//!   truncates every stream to its marker, and checkpoint-anchored
//!   recovery restarts from the artifact plus the tails alone, torn at
//!   every tail sync point;
//! * snapshots stay consistent under N readers × M writers — no reader
//!   observes a partially applied batch, whichever streams it landed on;
//! * DELETEs are end-of-chain tombstones: invisible to newer snapshots,
//!   still visible to older ones, replayed by recovery, folded by
//!   checkpoints, and reflected in the MV overlay;
//! * snapshot page images come from the page cache (patched for
//!   append-only deltas, rebuilt when rows were rewritten or deleted) and
//!   agree with the row-visibility view;
//! * MV overlays agree with a brute-force recompute from visible rows.

mod common;

use cadb_common::{ColumnDef, ColumnId, DataType, Parallelism, Row, TableId, TableSchema, Value};
use cadb_compression::CompressionKind;
use cadb_engine::{
    BulkDelete, BulkInsert, BulkUpdate, Configuration, CostModel, Database, IndexSpec, JoinEdge,
    MvSpec, PhysicalStructure, SizeEstimate, Statement, Workload,
};
use cadb_exec::store::effects::CommitEffects;
use cadb_exec::{MaterializedConfig, Store, WriteActual};
use cadb_storage::wal::{replay, FrameType};
use common::{
    assert_actuals_eq, assert_totals_eq, commit_one_by_one, layouts, Layout, LogSet, Recovered,
};
use std::collections::HashMap;
use std::sync::Arc;

const FACT: TableId = TableId(0);
const DIM: TableId = TableId(1);
const N_FACT: i64 = 600;
const N_DIM: i64 = 20;

fn db() -> Database {
    let mut db = Database::new();
    let f = db
        .create_table(
            TableSchema::new(
                "f",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("fk", DataType::Int),
                    ColumnDef::new("val", DataType::Int),
                    ColumnDef::new("cat", DataType::Varchar { max_len: 8 }),
                ],
                vec![ColumnId(0)],
            )
            .unwrap(),
        )
        .unwrap();
    let d = db
        .create_table(
            TableSchema::new(
                "d",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("grp", DataType::Varchar { max_len: 8 }),
                ],
                vec![ColumnId(0)],
            )
            .unwrap(),
        )
        .unwrap();
    let fact_rows: Vec<Row> = (0..N_FACT)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Int(i % N_DIM),
                Value::Int(i * 3 % 97),
                Value::Str(format!("c{}", i % 4)),
            ])
        })
        .collect();
    db.insert_rows(f, fact_rows).unwrap();
    let dim_rows: Vec<Row> = (0..N_DIM)
        .map(|i| Row::new(vec![Value::Int(i), Value::Str(format!("g{}", i % 5))]))
        .collect();
    db.insert_rows(d, dim_rows).unwrap();
    db
}

fn est(rows: f64) -> SizeEstimate {
    SizeEstimate {
        bytes: rows * 40.0,
        pages: (rows / 100.0).max(1.0),
        rows,
        compression_fraction: 1.0,
    }
}

/// Clustered base on the fact table, a plain secondary, a partial
/// secondary, and an MV over f ⋈ d grouped by the dimension attribute.
fn config() -> Configuration {
    let clustered = IndexSpec {
        table: FACT,
        key_cols: vec![ColumnId(0)],
        include_cols: vec![],
        clustered: true,
        compression: CompressionKind::Page,
        partial_filter: None,
        mv: None,
    };
    let secondary = IndexSpec {
        table: FACT,
        key_cols: vec![ColumnId(1)],
        include_cols: vec![ColumnId(2)],
        clustered: false,
        compression: CompressionKind::Row,
        partial_filter: None,
        mv: None,
    };
    let partial = IndexSpec {
        table: FACT,
        key_cols: vec![ColumnId(2)],
        include_cols: vec![],
        clustered: false,
        compression: CompressionKind::None,
        partial_filter: Some(cadb_engine::Predicate {
            table: FACT,
            column: ColumnId(3),
            op: cadb_engine::PredOp::Eq,
            values: vec![Value::Str("c1".into())],
        }),
        mv: None,
    };
    let mv = IndexSpec {
        table: FACT,
        key_cols: vec![ColumnId(0)],
        include_cols: vec![ColumnId(1), ColumnId(2)],
        clustered: false,
        compression: CompressionKind::None,
        partial_filter: None,
        mv: Some(MvSpec {
            root: FACT,
            joins: vec![JoinEdge {
                left: (FACT, ColumnId(1)),
                right: (DIM, ColumnId(0)),
            }],
            group_by: vec![(DIM, ColumnId(1))],
            agg_columns: vec![(FACT, ColumnId(2))],
        }),
    };
    Configuration::new(vec![
        PhysicalStructure {
            spec: clustered,
            size: est(N_FACT as f64),
        },
        PhysicalStructure {
            spec: secondary,
            size: est(N_FACT as f64),
        },
        PhysicalStructure {
            spec: partial,
            size: est(N_FACT as f64 / 4.0),
        },
        PhysicalStructure {
            spec: mv,
            size: est(5.0),
        },
    ])
}

/// Inserts on both tables, updates on the fact table only — so the two
/// update statements can never race on the same row slot and the final
/// state is interleaving-independent.
fn workload() -> Workload {
    let mut w = Workload::default();
    w.push(
        Statement::Insert(BulkInsert {
            table: FACT,
            n_rows: 50,
        }),
        2.0,
    );
    w.push(
        Statement::Update(BulkUpdate {
            table: FACT,
            n_rows: 40,
            column: ColumnId(2),
        }),
        1.0,
    );
    w.push(
        Statement::Insert(BulkInsert {
            table: DIM,
            n_rows: 6,
        }),
        1.0,
    );
    w.push(
        Statement::Insert(BulkInsert {
            table: FACT,
            n_rows: 25,
        }),
        0.5,
    );
    w
}

/// The post-checkpoint "tail" epoch: writes of all three kinds against the
/// folded artifact bases.
fn tail_workload() -> Workload {
    let mut w = Workload::default();
    w.push(
        Statement::Insert(BulkInsert {
            table: FACT,
            n_rows: 30,
        }),
        1.0,
    );
    w.push(
        Statement::Update(BulkUpdate {
            table: FACT,
            n_rows: 20,
            column: ColumnId(2),
        }),
        1.0,
    );
    w.push(
        Statement::Delete(BulkDelete {
            table: FACT,
            n_rows: 15,
        }),
        1.0,
    );
    w.push(
        Statement::Insert(BulkInsert {
            table: DIM,
            n_rows: 3,
        }),
        1.0,
    );
    w
}

/// The workload's writes plus a DELETE and a trailing INSERT, so group
/// commit and routing see all three statement kinds.
fn mixed_workload() -> Workload {
    let mut w = workload();
    w.push(
        Statement::Delete(BulkDelete {
            table: FACT,
            n_rows: 30,
        }),
        1.0,
    );
    w.push(
        Statement::Insert(BulkInsert {
            table: FACT,
            n_rows: 10,
        }),
        1.0,
    );
    w
}

const MODES: [Parallelism; 3] = [
    Parallelism::Serial,
    Parallelism::Auto,
    Parallelism::Threads(4),
];

/// A recovery of an untorn log found nothing to truncate, skip or discard
/// in any stream.
fn assert_clean(rec: &Recovered<'_>, ctx: &str) {
    assert_eq!(rec.discarded, 0, "{ctx}: commits discarded");
    for r in rec.per_shard.iter().chain([&rec.report]) {
        assert_eq!(r.truncated_bytes, 0, "{ctx}");
        assert_eq!(r.duplicates_skipped, 0, "{ctx}");
    }
}

#[test]
fn measured_actuals_identical_across_parallelism_and_layouts() {
    let db = db();
    let mat = MaterializedConfig::build(&db, &config()).unwrap();
    for seed in [11u64, 22, 33] {
        let mut reference: Option<(Vec<WriteActual>, u64)> = None;
        for layout in layouts() {
            for par in MODES {
                let ctx = format!("seed {seed} {layout:?} {par:?}");
                let store = layout.open(&db, &mat);
                let acts = store.apply_workload(&mixed_workload(), seed, par).unwrap();
                let digest = store.state_digest().unwrap();
                match &reference {
                    None => reference = Some((acts, digest)),
                    Some((ref_acts, ref_digest)) => {
                        assert_actuals_eq(ref_acts, &acts, &ctx);
                        assert_eq!(digest, *ref_digest, "{ctx}: state digest");
                    }
                }
            }
        }
    }
}

#[test]
fn replay_reproduces_state_totals_and_log_bit_for_bit() {
    let db = db();
    let mat = MaterializedConfig::build(&db, &config()).unwrap();
    let reference = Layout::Single.open(&db, &mat);
    reference
        .apply_workload(&mixed_workload(), 11, Parallelism::Serial)
        .unwrap();
    for layout in layouts() {
        for par in [Parallelism::Serial, Parallelism::Auto] {
            let ctx = format!("{layout:?} {par:?}");
            let store = layout.open(&db, &mat);
            store.apply_workload(&mixed_workload(), 11, par).unwrap();
            // Totals do not depend on the layout…
            assert_totals_eq(&reference, &store, &ctx);
            let rec = layout.recover(&db, &mat, None, &LogSet::of(&store));
            assert_clean(&rec, &ctx);
            assert_eq!(rec.report.watermark, store.watermark(), "{ctx}");
            assert_eq!(
                rec.store.state_digest().unwrap(),
                store.state_digest().unwrap(),
                "{ctx}"
            );
            // …and replay applies in LSN order = original commit order,
            // so the float totals accumulate in the same order: exact
            // equality.
            assert_totals_eq(&store, &rec.store, &ctx);
            // Recovery re-logs what it replays: same bytes, same stats.
            assert_eq!(
                rec.store.wal_frame_digest(),
                store.wal_frame_digest(),
                "{ctx}: recovered log set"
            );
            if let (Some(live), Some(recovered)) = (store.sharded(), rec.store.sharded()) {
                assert_eq!(recovered.shard_stats(), live.shard_stats(), "{ctx}");
            }
        }
    }
}

/// One commit at a time, recording the state digest after each; then
/// crash at every sync point of every stream. In the commit-point stream:
/// clean cuts, torn offsets strictly inside frames, a duplicated frame and
/// a corrupted byte. In each shard stream (with the order log intact):
/// clean and torn cuts. Recovery must always land on the last fully
/// committed prefix, with every stream's tail accounting exact.
#[test]
fn crash_at_every_sync_point_recovers_last_committed_prefix() {
    let db = db();
    let mat = MaterializedConfig::build(&db, &config()).unwrap();
    let mut reference = None;
    for layout in layouts() {
        let store = layout.open(&db, &mat);
        let prefixes = commit_one_by_one(&store, &workload(), 7);
        let n_commits = prefixes.len() - 1;
        let digests: Vec<u64> = prefixes.iter().map(|p| p.0).collect();
        // Every committed prefix is the same state under every layout.
        assert_eq!(reference.get_or_insert(digests.clone()), &digests);
        let logs = LogSet::of(&store);
        let syncs = store.wal_sync_points();
        assert_eq!(syncs.len(), n_commits, "{layout:?}: one sync per commit");
        let recover = |logs: &LogSet| layout.recover(&db, &mat, None, logs);

        // Clean cut at every sync point of the commit-point stream:
        // exactly k commits survive — even though every shard frame is
        // durable, a commit without its order record never happened, so
        // nothing is "discarded".
        for (k, &cut) in [0usize].iter().chain(syncs.iter()).enumerate() {
            let ctx = format!("{layout:?}: head cut at sync {k}");
            let rec = recover(&logs.with_head_cut(cut));
            assert_eq!(rec.store.state_digest().unwrap(), digests[k], "{ctx}");
            assert_eq!(rec.report.frames_applied, k, "{ctx}");
            assert_eq!(rec.store.totals().commits, prefixes[k].1.commits, "{ctx}");
            assert_eq!(
                rec.store.totals().measured_cost.to_bits(),
                prefixes[k].1.measured_cost.to_bits(),
                "{ctx}"
            );
            assert_clean(&rec, &ctx);
        }

        // Torn cut at every byte offset strictly inside the *last* frame,
        // and a few offsets inside every earlier frame: the preceding
        // prefix survives, the torn tail is truncated.
        let mut prev = 0usize;
        for (k, &end) in syncs.iter().enumerate() {
            let cuts: Vec<usize> = if k + 1 == syncs.len() {
                (prev + 1..end).collect()
            } else {
                vec![prev + 1, (prev + end) / 2, end - 1]
            };
            for cut in cuts {
                let rec = recover(&logs.with_head_cut(cut));
                let ctx = format!("{layout:?}: torn cut at {cut} in frame {k}");
                assert_eq!(rec.store.state_digest().unwrap(), digests[k], "{ctx}");
                assert_eq!(rec.report.truncated_bytes, cut - prev, "{ctx}");
            }
            prev = end;
        }

        // Duplicate frame: replaying a twice-durable frame applies it once.
        let mut dup = logs.clone();
        dup.head = [&logs.head[..syncs[0]], &logs.head[..]].concat();
        let rec = recover(&dup);
        assert_eq!(rec.store.state_digest().unwrap(), digests[n_commits]);
        assert_eq!(rec.store.totals().commits, prefixes[n_commits].1.commits);
        assert_eq!(rec.report.duplicates_skipped, 1);

        // Corrupt one byte inside frame 2's payload: frames 0 and 1 survive.
        let mut corrupt = logs.clone();
        corrupt.head[syncs[1] + 20] ^= 0x10;
        let rec = recover(&corrupt);
        assert_eq!(rec.store.state_digest().unwrap(), digests[2]);
        assert!(rec.report.truncated_bytes > 0);

        // Duplicate the first frame, then tear strictly inside the second:
        // the skipped duplicate's bytes must not inflate the torn-tail
        // count.
        let frame1 = &logs.head[syncs[0]..syncs[1]];
        let cut = frame1.len() / 2;
        let mut dup_torn = logs.clone();
        dup_torn.head = [
            &logs.head[..syncs[0]],
            &logs.head[..syncs[0]],
            &frame1[..cut],
        ]
        .concat();
        let rec = recover(&dup_torn);
        assert_eq!(rec.store.state_digest().unwrap(), digests[1]);
        assert_eq!(rec.report.duplicates_skipped, 1);
        assert_eq!(rec.report.truncated_bytes, cut, "torn tail counted once");

        // Tear each shard stream's tail with the order log intact: clean
        // cut at every sync point plus torn offsets strictly inside
        // frames. The committed prefix ends at the first commit whose
        // shard frame is gone; it and everything after are discarded.
        for s in 0..layout.shards() {
            let syncs = store.shard_sync_points(s);
            let mut cuts: Vec<usize> = vec![0];
            cuts.extend(syncs.iter().copied());
            let mut prev = 0usize;
            for &end in &syncs {
                if end > prev + 2 {
                    cuts.push(prev + 1);
                    cuts.push((prev + end) / 2);
                }
                prev = end;
            }
            for cut in cuts {
                let torn = logs.with_shard_cut(s, cut);
                let j = torn.durable_prefix(layout);
                let rec = recover(&torn);
                let ctx = format!("{layout:?}: shard {s} cut at {cut}");
                assert_eq!(rec.store.state_digest().unwrap(), digests[j], "{ctx}");
                assert_eq!(rec.report.frames_applied, j, "{ctx}");
                assert_eq!(rec.discarded, n_commits - j, "{ctx}");
                assert_eq!(rec.report.watermark, j as u64, "{ctx}");
                let base = syncs.iter().copied().filter(|&x| x <= cut).max();
                for (o, r) in rec.per_shard.iter().enumerate() {
                    let torn_bytes = if o == s { cut - base.unwrap_or(0) } else { 0 };
                    assert_eq!(r.truncated_bytes, torn_bytes, "{ctx}: shard {o}");
                    assert_eq!(r.duplicates_skipped, 0, "{ctx}: shard {o}");
                }
            }
        }
    }
}

/// A checkpoint folds the deltas into compressed structures — the same
/// artifact, bit for bit, under every layout — truncates every stream to
/// its marker, and anchors recovery: checkpoint-anchored recovery restarts
/// from the artifact plus the post-checkpoint tails alone, and a second
/// checkpoint of the recovered store is bit-identical to the live one's.
#[test]
fn checkpoint_truncates_wal_and_anchors_recovery() {
    let db = db();
    let mat = MaterializedConfig::build(&db, &config()).unwrap();
    let mut reference = None;
    for layout in layouts() {
        let ctx = format!("{layout:?}");
        let store = layout.open(&db, &mat);
        store
            .apply_workload_batched(&workload(), 5, Parallelism::Auto, 2)
            .unwrap();
        let pre_checkpoint_log = LogSet::of(&store).total_bytes();
        let pre_checkpoint_digest = store.state_digest().unwrap();

        let chk = store.checkpoint().unwrap();
        // FACT saw updates → leaf rebuild; DIM is append-only → page patches.
        assert_eq!(chk.rebuilt_tables, 1, "{ctx}");
        assert_eq!(chk.patched_tables, 1, "{ctx}");
        assert_eq!(
            reference.get_or_insert((chk.lsn, chk.digest())),
            &(chk.lsn, chk.digest()),
            "{ctx}: artifact"
        );
        assert_eq!(chk.shard_next_lsns.len(), layout.shards(), "{ctx}");
        // The whole pre-checkpoint log set is gone; only one marker per
        // stream survives.
        assert_eq!(chk.truncated_wal_bytes, pre_checkpoint_log, "{ctx}");
        let logs = LogSet::of(&store);
        for stream in logs.shards.iter().chain([&logs.head]) {
            let replayed = replay(stream);
            assert_eq!(replayed.frames.len(), 1, "{ctx}");
            assert_eq!(replayed.frames[0].frame_type, FrameType::Checkpoint);
        }
        // The epoch switch preserves the committed state bit for bit…
        assert_eq!(store.state_digest().unwrap(), pre_checkpoint_digest);
        // …and the folded structure holds exactly the visible rows.
        let folded_fact = chk.tables.get(&FACT).unwrap();
        let snap = store.snapshot();
        assert_eq!(folded_fact.n_rows(), snap.n_rows(FACT).unwrap());
        let mut want = snap.table_rows(FACT).unwrap();
        let mut got = folded_fact.scan().unwrap();
        want.sort();
        got.sort();
        assert_eq!(want, got);

        // Write a post-checkpoint tail, then recover from artifact + tails.
        store
            .apply_workload_batched(&tail_workload(), 6, Parallelism::Serial, 2)
            .unwrap();
        let rec = layout.recover(&db, &mat, Some(&chk), &LogSet::of(&store));
        assert_eq!(rec.report.checkpoints_seen, 1, "{ctx}");
        // Only the tail frames are replayed — recovery is O(tail).
        let n_tail = tail_workload().statements.len();
        assert_eq!(rec.report.frames_applied, n_tail, "{ctx}");
        assert_clean(&rec, &ctx);
        assert_eq!(rec.report.watermark, store.watermark(), "{ctx}");
        assert_eq!(rec.store.watermark(), store.watermark(), "{ctx}");
        assert_eq!(
            rec.store.state_digest().unwrap(),
            store.state_digest().unwrap(),
            "{ctx}"
        );
        assert_totals_eq(&store, &rec.store, &ctx);

        // A second checkpoint of the recovered store is bit-identical.
        assert_eq!(
            store.checkpoint().unwrap().digest(),
            rec.store.checkpoint().unwrap().digest(),
            "{ctx}: second checkpoint must be bit-identical"
        );
    }
}

/// Tear the post-checkpoint tail of the commit-point stream at every sync
/// point, and at torn offsets strictly inside tail frames (including
/// inside the marker itself): checkpoint-anchored recovery always lands on
/// the last fully committed tail prefix on top of the artifact.
#[test]
fn crash_in_post_checkpoint_tail_recovers_from_artifact_plus_prefix() {
    let db = db();
    let mat = MaterializedConfig::build(&db, &config()).unwrap();
    for layout in layouts() {
        let store = layout.open(&db, &mat);
        store
            .apply_workload(&workload(), 5, Parallelism::Serial)
            .unwrap();
        let chk = store.checkpoint().unwrap();

        // Commit the tail one statement at a time, recording digests.
        let prefixes = commit_one_by_one(&store, &tail_workload(), 6);
        let digests: Vec<u64> = prefixes.iter().map(|p| p.0).collect();
        let logs = LogSet::of(&store);
        let syncs = store.wal_sync_points();
        // syncs[0] ends the checkpoint marker; syncs[1..] end the tail
        // frames.
        assert_eq!(syncs.len(), digests.len());
        let recover = |cut: usize| layout.recover(&db, &mat, Some(&chk), &logs.with_head_cut(cut));

        // Clean cut at every sync point: artifact + k tail commits survive.
        for (i, &cut) in syncs.iter().enumerate() {
            let rec = recover(cut);
            let ctx = format!("{layout:?}: sync point {i}");
            assert_eq!(rec.store.state_digest().unwrap(), digests[i], "{ctx}");
            assert_eq!(rec.report.frames_applied, i, "{ctx}");
            assert_eq!(rec.report.checkpoints_seen, 1, "{ctx}");
            assert_clean(&rec, &ctx);
        }

        // Torn strictly inside the marker: the artifact alone survives.
        let rec = recover(syncs[0] / 2);
        assert_eq!(rec.store.state_digest().unwrap(), digests[0]);
        assert_eq!(rec.report.checkpoints_seen, 0);
        assert_eq!(rec.report.truncated_bytes, syncs[0] / 2);
        assert_eq!(rec.store.watermark(), chk.lsn);

        // Torn strictly inside every tail frame: the preceding prefix
        // survives, the torn bytes are counted exactly once.
        let mut prev = syncs[0];
        for (k, &end) in syncs[1..].iter().enumerate() {
            for cut in [prev + 1, (prev + end) / 2, end - 1] {
                let rec = recover(cut);
                let ctx = format!("{layout:?}: torn cut at {cut} in tail frame {k}");
                assert_eq!(rec.store.state_digest().unwrap(), digests[k], "{ctx}");
                assert_eq!(rec.report.truncated_bytes, cut - prev, "{ctx}");
            }
            prev = end;
        }
    }
}

/// Assert the store's MV overlay equals a brute-force group-delta
/// recompute from the visible rows — an independent derivation that never
/// touches the maintenance code path. Valid for workloads that touch each
/// base slot at most once (the store's logged `old_row` is always the
/// immutable-base version).
fn assert_mv_overlay_matches_brute_force(db: &Database, store: &Store<'_>) {
    let mv_pos = store
        .specs()
        .iter()
        .position(|s| s.mv.is_some())
        .expect("config has an MV");

    // Brute force: contribution of a fact row = (group via dim probe, val).
    let dim_rows = db.table(DIM).rows();
    let grp_of_fk: HashMap<Value, Value> = dim_rows
        .iter()
        .map(|r| (r.values[0].clone(), r.values[1].clone()))
        .collect();
    let contributions = |rows: &[Row]| -> HashMap<Vec<Value>, (i64, i64)> {
        let mut m: HashMap<Vec<Value>, (i64, i64)> = HashMap::new();
        for r in rows {
            let Some(g) = grp_of_fk.get(&r.values[1]) else {
                continue;
            };
            let e = m.entry(vec![g.clone()]).or_default();
            e.0 += 1;
            e.1 += r.values[2].as_i64().unwrap_or(0);
        }
        m
    };
    let base = contributions(&store.base_rows(FACT).unwrap());
    let visible = contributions(&store.snapshot().table_rows(FACT).unwrap());

    let overlay = store.mv_overlay(mv_pos);
    let mut keys: Vec<Vec<Value>> = base.keys().chain(visible.keys()).cloned().collect();
    keys.extend(overlay.keys().cloned());
    keys.sort_by(|a, b| Row::new(a.clone()).cmp(&Row::new(b.clone())));
    keys.dedup();
    for key in keys {
        let b = base.get(&key).copied().unwrap_or((0, 0));
        let v = visible.get(&key).copied().unwrap_or((0, 0));
        let want = (v.0 - b.0, v.1 - b.1);
        let got = overlay
            .get(&key)
            .map(|g| (g.count, g.sums[0]))
            .unwrap_or((0, 0));
        assert_eq!(got, want, "group {key:?}");
    }
}

#[test]
fn mv_overlay_matches_brute_force_recompute() {
    let db = db();
    let mat = MaterializedConfig::build(&db, &config()).unwrap();
    let store = Store::open(&db, &mat, CostModel::default());
    store
        .apply_workload(&workload(), 9, Parallelism::Serial)
        .unwrap();
    assert_mv_overlay_matches_brute_force(&db, &store);
}

/// Group commit is a pure durability knob: log bytes, recovered state and
/// per-statement actuals (LSNs included) are bit-identical across batch
/// sizes {1, 4, 16} and every `Parallelism` mode — only the sync-point
/// count (where a crash can land) changes. State and actuals are also
/// identical across layouts; the log bytes are per layout.
#[test]
fn group_commit_equivalence_across_batch_sizes_and_modes() {
    let db = db();
    let mat = MaterializedConfig::build(&db, &config()).unwrap();
    let w = mixed_workload();
    let n_writes = w.statements.len();

    let mut reference: Option<(u64, Vec<WriteActual>)> = None;
    for layout in layouts() {
        let mut log_digest = None;
        for batch in [1usize, 4, 16] {
            for par in MODES {
                let ctx = format!("{layout:?} batch {batch} par {par:?}");
                let store = layout.open(&db, &mat);
                let acts = store.apply_workload_batched(&w, 13, par, batch).unwrap();
                // Batching coalesces durability: ⌈n/batch⌉ sync points.
                assert_eq!(
                    store.wal_sync_points().len(),
                    n_writes.div_ceil(batch),
                    "{ctx}: sync points"
                );
                let wal_digest = store.wal_frame_digest();
                assert_eq!(
                    *log_digest.get_or_insert(wal_digest),
                    wal_digest,
                    "{ctx}: log bytes diverged"
                );
                let state = store.state_digest().unwrap();
                // The full log set replays to the same state and bytes.
                let rec = layout.recover(&db, &mat, None, &LogSet::of(&store));
                assert_eq!(rec.report.frames_applied, n_writes, "{ctx}");
                assert_clean(&rec, &ctx);
                assert_eq!(rec.store.state_digest().unwrap(), state, "{ctx}");
                assert_eq!(rec.store.wal_frame_digest(), wal_digest, "{ctx}");
                match &reference {
                    None => reference = Some((state, acts)),
                    Some((ref_state, ref_acts)) => {
                        assert_eq!(state, *ref_state, "{ctx}: state digest diverged");
                        assert_actuals_eq(ref_acts, &acts, &ctx);
                    }
                }
            }
        }
    }
}

/// Group commit changes durability granularity only: with batches of 2
/// and 4, a crash of the commit-point stream at a sync point preserves
/// whole batches — never a partial one — and a shard-tail crash at a
/// batch sync point discards from the first commit of the lost batch on.
#[test]
fn group_commit_crash_preserves_whole_batches() {
    let db = db();
    let mat = MaterializedConfig::build(&db, &config()).unwrap();
    let w = workload();
    let oracle = Layout::Single.open(&db, &mat);
    let digests: Vec<u64> = commit_one_by_one(&oracle, &w, 7)
        .iter()
        .map(|p| p.0)
        .collect();
    let n_writes = digests.len() - 1;

    for layout in layouts() {
        for batch in [2usize, 4] {
            let ctx = format!("{layout:?} batch {batch}");
            let store = layout.open(&db, &mat);
            store
                .apply_workload_batched(&w, 7, Parallelism::Auto, batch)
                .unwrap();
            let logs = LogSet::of(&store);
            let syncs = store.wal_sync_points();
            assert_eq!(syncs.len(), n_writes.div_ceil(batch), "{ctx}");
            for (k, &cut) in [0usize].iter().chain(syncs.iter()).enumerate() {
                let survived = (k * batch).min(n_writes);
                let rec = layout.recover(&db, &mat, None, &logs.with_head_cut(cut));
                assert_eq!(
                    rec.store.state_digest().unwrap(),
                    digests[survived],
                    "{ctx}: cut after batch {k}"
                );
                assert_eq!(rec.report.frames_applied, survived, "{ctx}");
            }
            for s in 0..layout.shards() {
                for cut in store.shard_sync_points(s) {
                    let torn = logs.with_shard_cut(s, cut);
                    let j = torn.durable_prefix(layout);
                    let rec = layout.recover(&db, &mat, None, &torn);
                    assert_eq!(
                        rec.store.state_digest().unwrap(),
                        digests[j],
                        "{ctx}: shard {s} cut {cut}"
                    );
                }
            }
        }
    }
}

/// DELETE is an end-of-chain tombstone: older snapshots keep seeing the
/// rows, newer ones don't; maintenance counters charge the secondary
/// structures; the MV overlay subtracts the deleted contributions; and
/// replaying the log reproduces the post-delete state bit for bit.
#[test]
fn deletes_tombstone_without_disturbing_older_snapshots() {
    let db = db();
    let mat = MaterializedConfig::build(&db, &config()).unwrap();
    let store = Store::open(&db, &mat, CostModel::default());

    let pre = store.snapshot();
    let n0 = pre.n_rows(FACT).unwrap();
    let before = pre.table_rows(FACT).unwrap();

    let eff = store
        .prepare_delete(
            &BulkDelete {
                table: FACT,
                n_rows: 30,
            },
            3,
            "del-0",
        )
        .unwrap();
    assert_eq!(eff.deleted.len(), 30);
    let deleted_rows: Vec<Row> = eff.deleted.iter().map(|t| t.old_row.clone()).collect();
    let receipt = store.commit(eff).unwrap();
    assert_eq!(receipt.counters.rows_deleted, 30);
    assert!(
        receipt.counters.index_rows_touched >= 30,
        "secondary index maintenance must be charged"
    );
    assert!(receipt.measured_cost > 0.0);

    // The old snapshot is undisturbed; the new one shrank by exactly the
    // tombstoned rows (as a multiset).
    let post = store.snapshot();
    assert_eq!(pre.n_rows(FACT).unwrap(), n0);
    assert_eq!(pre.table_rows(FACT).unwrap(), before);
    assert_eq!(post.n_rows(FACT).unwrap(), n0 - 30);
    let mut after_plus_deleted = post.table_rows(FACT).unwrap();
    after_plus_deleted.extend(deleted_rows);
    let mut before_sorted = before.clone();
    before_sorted.sort();
    after_plus_deleted.sort();
    assert_eq!(after_plus_deleted, before_sorted);

    // The MV overlay subtracted the deleted contributions.
    assert_mv_overlay_matches_brute_force(&db, &store);

    // Recovery replays the tombstones.
    let (recovered, rep) =
        Store::recover(&db, &mat, CostModel::default(), &store.wal_bytes()).unwrap();
    assert_eq!(rep.frames_applied, 1);
    assert_eq!(recovered.snapshot().n_rows(FACT).unwrap(), n0 - 30);
    assert_eq!(
        recovered.state_digest().unwrap(),
        store.state_digest().unwrap()
    );
    assert_eq!(
        recovered.totals().counters.rows_deleted,
        store.totals().counters.rows_deleted
    );
}

/// The snapshot page cache serves the base structure for unmodified
/// tables, an O(delta) patched image for append-only deltas, a rebuilt
/// image once rows were rewritten or deleted — shared (same `Arc`) by
/// snapshots between the same two modifications — and the images always
/// agree with the row-visibility view.
#[test]
fn snapshot_page_cache_serves_patched_and_rebuilt_images() {
    let db = db();
    let mat = MaterializedConfig::build(&db, &config()).unwrap();
    let store = Store::open(&db, &mat, CostModel::default());

    // Unmodified table: the base structure is the image (a cache hit, no
    // fold).
    let snap0 = store.snapshot();
    let p0 = snap0.pages(FACT).unwrap();
    assert_eq!(p0.n_rows(), N_FACT as usize);
    let s = store.page_cache_stats();
    assert_eq!((s.hits, s.misses), (1, 0));

    // Append-only delta: the image is the base patched with the appended
    // rows — each routed into the leaf its key belongs to.
    let ins = store
        .prepare_insert(
            &BulkInsert {
                table: FACT,
                n_rows: 20,
            },
            17,
            "cache-ins",
        )
        .unwrap();
    let appended_ids: Vec<Value> = ins.appended.iter().map(|r| r.values[0].clone()).collect();
    store.commit(ins).unwrap();
    let snap1 = store.snapshot();
    let p1 = snap1.pages(FACT).unwrap();
    assert_eq!(p1.n_rows(), N_FACT as usize + 20);
    let s = store.page_cache_stats();
    assert_eq!((s.misses, s.patched, s.rebuilt), (1, 1, 0));
    let mut want = snap1.table_rows(FACT).unwrap();
    let mut got = p1.scan().unwrap();
    want.sort();
    got.sort();
    assert_eq!(got, want, "patched image holds exactly the visible rows");

    // A second snapshot at the same visibility shares the image.
    let p1b = store.snapshot().pages(FACT).unwrap();
    assert!(Arc::ptr_eq(&p1, &p1b), "same image, no re-fold");
    // The older snapshot still reads the unpatched base.
    assert_eq!(snap0.pages(FACT).unwrap().n_rows(), N_FACT as usize);

    // An update forces a rebuilt image (base key order), and seeking it
    // finds the new version through the B+Tree descent.
    let upd = BulkUpdate {
        table: FACT,
        n_rows: 10,
        column: ColumnId(2),
    };
    let eff = store.prepare_update(&upd, 17, "cache-upd").unwrap();
    let rewritten = eff.rewritten.clone();
    store.commit(eff).unwrap();
    let snap2 = store.snapshot();
    let p2 = snap2.pages(FACT).unwrap();
    assert_eq!(store.page_cache_stats().rebuilt, 1);
    assert_eq!(p2.n_rows(), N_FACT as usize + 20);
    let mut want = snap2.table_rows(FACT).unwrap();
    let mut got = p2.scan().unwrap();
    want.sort();
    got.sort();
    assert_eq!(want, got, "rebuilt image holds exactly the visible rows");
    // Seek on a key the inserted clones didn't duplicate, so the hit set
    // is exactly the one version chain.
    let rw = rewritten
        .iter()
        .find(|rw| !appended_ids.contains(&rw.old_row.values[0]))
        .expect("an updated slot no insert cloned");
    let hits = snap2.seek(FACT, &[rw.new_row.values[0].clone()]).unwrap();
    assert!(
        hits.contains(&rw.new_row),
        "seek over the rebuilt image must find the updated version"
    );
    assert!(
        !hits.contains(&rw.old_row),
        "the superseded version must be invisible to the seek"
    );
}

/// N reader × M writer threads, under every layout: every snapshot a
/// reader takes must be consistent (appended-row visibility matches what
/// the log set says for its LSN — no reader ever observes a partially
/// applied batch, however many streams it spans), row counts must be
/// monotone in the LSN, and the full concurrent log set replays to the
/// live state.
#[test]
fn snapshots_stay_consistent_under_concurrent_writers() {
    let db = db();
    let mat = MaterializedConfig::build(&db, &config()).unwrap();
    let n_writers = 3usize;
    let commits_per_writer = 8usize;

    for layout in layouts() {
        let store = layout.open(&db, &mat);
        std::thread::scope(|scope| {
            for w in 0..n_writers {
                let store = &store;
                scope.spawn(move || {
                    for c in 0..commits_per_writer {
                        let eff = store
                            .prepare_insert(
                                &BulkInsert {
                                    table: FACT,
                                    n_rows: 10,
                                },
                                99,
                                &format!("w{w}-c{c}"),
                            )
                            .unwrap();
                        store.commit(eff).unwrap();
                    }
                });
            }
            for _ in 0..2 {
                let store = &store;
                scope.spawn(move || {
                    let mut last_n = 0usize;
                    let mut last_lsn = 0u64;
                    loop {
                        let snap = store.snapshot();
                        let n = snap.n_rows(FACT).unwrap();
                        assert!(store.snapshot_consistent(snap.lsn()).unwrap());
                        assert!(
                            snap.lsn() < last_lsn || n >= last_n,
                            "visible rows regressed: {n} < {last_n}"
                        );
                        if snap.lsn() >= last_lsn {
                            last_n = n;
                            last_lsn = snap.lsn();
                        }
                        if store.totals().commits as usize == n_writers * commits_per_writer {
                            break;
                        }
                        std::thread::yield_now();
                    }
                });
            }
        });

        let expected = N_FACT as usize + n_writers * commits_per_writer * 10;
        assert_eq!(store.snapshot().n_rows(FACT).unwrap(), expected);
        let rec = layout.recover(&db, &mat, None, &LogSet::of(&store));
        assert_clean(&rec, &format!("{layout:?}"));
        assert_eq!(
            rec.store.state_digest().unwrap(),
            store.state_digest().unwrap(),
            "{layout:?}"
        );
    }
}

/// The WAL payload codec is exercised end-to-end by recovery; pin the
/// decode error path for malformed commit payloads too.
#[test]
fn malformed_commit_payload_is_an_error_not_a_panic() {
    assert!(CommitEffects::decode(&[1, 2, 3]).is_err());
    assert!(CommitEffects::decode(&[]).is_err());
}

/// The shard layouts really spread work: more than one shard stream
/// receives frames, the per-shard stats add up to the workload's routed
/// rows, `shard_stats` mirrors the log set — and asking for a shard the
/// layout doesn't have is an error, not a panic.
#[test]
fn shard_stats_account_for_routed_rows() {
    let db = db();
    let mat = MaterializedConfig::build(&db, &config()).unwrap();
    for layout in layouts() {
        let store = layout.open(&db, &mat);
        let Some(sharded) = store.sharded() else {
            continue;
        };
        let acts = store
            .apply_workload_batched(&mixed_workload(), 3, Parallelism::Auto, 4)
            .unwrap();
        let routed: u64 = acts
            .iter()
            .map(|a| a.counters.rows_appended + a.counters.rows_rewritten + a.counters.rows_deleted)
            .sum();
        let stats = sharded.shard_stats();
        assert_eq!(stats.len(), layout.shards(), "{layout:?}");
        let by_shard: u64 = stats.iter().map(|s| s.rows_routed).sum();
        assert_eq!(by_shard, routed, "{layout:?}: every row routed once");
        let active = stats.iter().filter(|s| s.frames > 0).count();
        assert!(active > 1, "{layout:?}: spread over {active} shard(s)");
        for (s, st) in stats.iter().enumerate() {
            assert_eq!(
                st.wal_bytes as usize,
                sharded.shard_wal_bytes(s).unwrap().len(),
                "{layout:?}: shard {s} byte accounting"
            );
        }
        for out_of_range in [layout.shards(), usize::MAX] {
            assert!(sharded.shard_wal_bytes(out_of_range).is_err());
            assert!(sharded.shard_sync_points(out_of_range).is_err());
        }
    }
}

mod crash_properties {
    use super::*;
    use cadb_shard::ShardSpec;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Any torn log set — a random byte cut in a random stream of the
        /// set, under a random layout and batch size — recovers exactly
        /// the committed prefix the surviving bytes prove, and the
        /// recovered log set is that prefix: recovering it again is a
        /// fixed point.
        #[test]
        fn random_torn_log_set_recovers_a_committed_prefix(
            shards in 0usize..5,
            hash in any::<bool>(),
            batch in 1usize..4,
            victim in 0usize..6,
            frac in 0.0f64..1.0,
        ) {
            let db = db();
            let mat = MaterializedConfig::build(&db, &config()).unwrap();
            let w = workload();
            let oracle = Layout::Single.open(&db, &mat);
            let digests = commit_one_by_one(&oracle, &w, 7);
            let layout = match (shards, hash) {
                (0, _) => Layout::Single,
                (n, true) => Layout::Sharded(ShardSpec::hash(n)),
                (n, false) => Layout::Sharded(ShardSpec::range(n)),
            };
            let store = layout.open(&db, &mat);
            store.apply_workload_batched(&w, 7, Parallelism::Serial, batch).unwrap();
            let mut logs = LogSet::of(&store);
            // Cut either the commit-point stream or one shard stream at a
            // random byte offset.
            let stream = match victim % (shards + 1) {
                s if s == shards => &mut logs.head,
                s => &mut logs.shards[s],
            };
            stream.truncate((stream.len() as f64 * frac) as usize);
            let j = logs.durable_prefix(layout);
            let rec = layout.recover(&db, &mat, None, &logs);
            prop_assert_eq!(rec.store.state_digest().unwrap(), digests[j].0);
            prop_assert_eq!(rec.report.watermark, j as u64);
            let rec2 = layout.recover(&db, &mat, None, &LogSet::of(&rec.store));
            prop_assert_eq!(rec2.store.state_digest().unwrap(), digests[j].0);
            prop_assert_eq!(rec2.discarded, 0);
            prop_assert_eq!(rec2.store.wal_frame_digest(), rec.store.wal_frame_digest());
        }
    }
}
