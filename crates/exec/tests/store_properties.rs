//! Randomized properties of the MVCC store's write path, each drawn over
//! a random log layout (`common::layouts()`):
//!
//! * **DELETE snapshot isolation** — a committed delete never disturbs an
//!   older snapshot; the newer snapshot shrinks by exactly the tombstoned
//!   multiset; replaying the log reproduces the post-delete state bit for
//!   bit.
//! * **Group-commit equivalence** — for a random mixed workload
//!   (INSERT/UPDATE/DELETE), any batch size under any `Parallelism` mode
//!   produces the same log bytes, the same per-statement actuals and the
//!   same committed state as the serial batch-of-one run, and its log
//!   recovers to that state.
//! * **Torn-log recovery** — cutting the commit-point stream (the WAL, or
//!   the order log) at any byte recovers exactly the state after the last
//!   wholly durable commit.

mod common;

use cadb_common::{ColumnDef, ColumnId, DataType, Parallelism, Row, TableId, TableSchema, Value};
use cadb_compression::CompressionKind;
use cadb_engine::{
    BulkDelete, BulkInsert, BulkUpdate, Configuration, Database, IndexSpec, PhysicalStructure,
    SizeEstimate, Statement, Workload,
};
use cadb_exec::MaterializedConfig;
use common::{assert_actuals_eq, commit_one_by_one, layouts, LogSet};
use proptest::prelude::*;

const T: TableId = TableId(0);

fn db(n: usize) -> Database {
    let mut db = Database::new();
    let t = db
        .create_table(
            TableSchema::new(
                "t",
                vec![
                    ColumnDef::new("id", DataType::Int),
                    ColumnDef::new("grp", DataType::Int),
                    ColumnDef::new("val", DataType::Int),
                ],
                vec![ColumnId(0)],
            )
            .unwrap(),
        )
        .unwrap();
    let rows: Vec<Row> = (0..n as i64)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Int(i % 7),
                Value::Int(i * 5 % 83),
            ])
        })
        .collect();
    db.insert_rows(t, rows).unwrap();
    db
}

fn est(rows: f64) -> SizeEstimate {
    SizeEstimate {
        bytes: rows * 24.0,
        pages: (rows / 100.0).max(1.0),
        rows,
        compression_fraction: 1.0,
    }
}

/// Clustered compressed base plus a covering secondary, so every write
/// exercises both base-version and index maintenance.
fn config(n: usize) -> Configuration {
    let clustered = IndexSpec {
        table: T,
        key_cols: vec![ColumnId(0)],
        include_cols: vec![],
        clustered: true,
        compression: CompressionKind::Page,
        partial_filter: None,
        mv: None,
    };
    let secondary = IndexSpec {
        table: T,
        key_cols: vec![ColumnId(1)],
        include_cols: vec![ColumnId(2)],
        clustered: false,
        compression: CompressionKind::Row,
        partial_filter: None,
        mv: None,
    };
    Configuration::new(vec![
        PhysicalStructure {
            spec: clustered,
            size: est(n as f64),
        },
        PhysicalStructure {
            spec: secondary,
            size: est(n as f64),
        },
    ])
}

/// A mixed write workload from `(kind, n_rows)` pairs.
fn workload(kinds: &[(u8, u64)]) -> Workload {
    let mut w = Workload::default();
    for &(k, n) in kinds {
        match k % 3 {
            0 => w.push(
                Statement::Insert(BulkInsert {
                    table: T,
                    n_rows: n,
                }),
                1.0,
            ),
            1 => w.push(
                Statement::Update(BulkUpdate {
                    table: T,
                    n_rows: n,
                    column: ColumnId(2),
                }),
                1.0,
            ),
            _ => w.push(
                Statement::Delete(BulkDelete {
                    table: T,
                    n_rows: n,
                }),
                1.0,
            ),
        }
    }
    w
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn delete_preserves_old_snapshots_and_survives_recovery(
        layout in 0usize..4,
        n_base in 50usize..250,
        n_del in 1u64..40,
        seed in 0u64..1_000_000,
    ) {
        let layout = layouts()[layout];
        let db = db(n_base);
        let mat = MaterializedConfig::build(&db, &config(n_base)).unwrap();
        let store = layout.open(&db, &mat);
        let pre = store.snapshot();
        let before = pre.table_rows(T).unwrap();

        let eff = store
            .prepare_delete(&BulkDelete { table: T, n_rows: n_del }, seed, "p-del")
            .unwrap();
        let deleted: Vec<Row> = eff.deleted.iter().map(|t| t.old_row.clone()).collect();
        prop_assert_eq!(deleted.len(), (n_del as usize).min(n_base));
        store.commit(eff).unwrap();

        // The pre-delete snapshot is undisturbed.
        prop_assert_eq!(&pre.table_rows(T).unwrap(), &before);
        // The post-delete snapshot shrank by exactly the tombstoned rows.
        let post = store.snapshot();
        let visible = post.table_rows(T).unwrap();
        prop_assert_eq!(visible.len(), n_base - deleted.len());
        let mut reassembled = visible;
        reassembled.extend(deleted);
        reassembled.sort();
        let mut want = before.clone();
        want.sort();
        prop_assert_eq!(reassembled, want);
        // The page image agrees with the row view.
        let mut scanned = post.pages(T).unwrap().scan().unwrap();
        let mut rows = post.table_rows(T).unwrap();
        scanned.sort();
        rows.sort();
        prop_assert_eq!(scanned, rows);

        // Replay reproduces the post-delete state bit for bit.
        let rec = layout.recover(&db, &mat, None, &LogSet::of(&store));
        prop_assert_eq!(rec.report.frames_applied, 1);
        prop_assert_eq!(rec.store.state_digest().unwrap(), store.state_digest().unwrap());
    }

    #[test]
    fn group_commit_equivalent_to_serial_singleton_commits(
        layout in 0usize..4,
        n_base in 80usize..200,
        kinds in proptest::collection::vec((0u8..3, 1u64..25), 1..7),
        batch in 2usize..6,
        seed in 0u64..1_000_000,
    ) {
        let layout = layouts()[layout];
        let db = db(n_base);
        let mat = MaterializedConfig::build(&db, &config(n_base)).unwrap();
        let w = workload(&kinds);

        // Reference: serial, one commit (one sync point) per statement.
        let reference = layout.open(&db, &mat);
        let ref_acts = reference
            .apply_workload_batched(&w, seed, Parallelism::Serial, 1)
            .unwrap();

        for par in [Parallelism::Auto, Parallelism::Threads(3)] {
            let store = layout.open(&db, &mat);
            let acts = store.apply_workload_batched(&w, seed, par, batch).unwrap();
            assert_actuals_eq(&ref_acts, &acts, &format!("{layout:?} {par:?}"));
            prop_assert_eq!(store.wal_frame_digest(), reference.wal_frame_digest());
            prop_assert_eq!(
                store.state_digest().unwrap(),
                reference.state_digest().unwrap()
            );
            // Coalesced durability: ⌈n/batch⌉ sync points vs n.
            prop_assert_eq!(store.wal_sync_points().len(), kinds.len().div_ceil(batch));
            // The batched log replays to the same state.
            let rec = layout.recover(&db, &mat, None, &LogSet::of(&store));
            prop_assert_eq!(rec.report.frames_applied, kinds.len());
            prop_assert_eq!(
                rec.store.state_digest().unwrap(),
                store.state_digest().unwrap()
            );
        }
    }

    #[test]
    fn torn_log_recovers_last_durable_commit(
        layout in 0usize..4,
        n_base in 60usize..150,
        kinds in proptest::collection::vec((0u8..3, 1u64..20), 1..6),
        seed in 0u64..1_000_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let layout = layouts()[layout];
        let db = db(n_base);
        let mat = MaterializedConfig::build(&db, &config(n_base)).unwrap();
        let store = layout.open(&db, &mat);
        let digests = commit_one_by_one(&store, &workload(&kinds), seed);
        let logs = LogSet::of(&store);
        let syncs = store.wal_sync_points();
        let cut = ((logs.head.len() as f64) * cut_frac) as usize;
        // The last sync point at or before the cut indexes the surviving
        // prefix's digest.
        let durable = syncs.partition_point(|&p| p <= cut);
        let rec = layout.recover(&db, &mat, None, &logs.with_head_cut(cut));
        prop_assert_eq!(rec.store.state_digest().unwrap(), digests[durable].0);
        prop_assert_eq!(rec.report.frames_applied, durable);
        let torn_from = if durable == 0 { 0 } else { syncs[durable - 1] };
        prop_assert_eq!(rec.report.truncated_bytes, cut - torn_from);
    }
}
