//! One ordering rule for index rows: the index row stream
//! (`cadb_sampling::index_rows`), the clustered base's scan-order
//! permutation (`MaterializedConfig::build_with`) and the checkpoint's leaf
//! rebuild (`Store::checkpoint`) put a clustered index's rows in the same
//! order. The spec is keyed on a non-leading column, so the test compares
//! the three sites with each other and never with a fixed column: it holds
//! whichever columns the rule sorts by.

use cadb_common::{ColumnDef, ColumnId, DataType, Row, TableId, TableSchema, Value};
use cadb_compression::CompressionKind;
use cadb_engine::{
    BulkUpdate, Configuration, CostModel, Database, IndexSpec, PhysicalStructure, SizeEstimate,
};
use cadb_exec::{MaterializedConfig, Store};
use cadb_sampling::index_rows::index_row_stream;

const T: TableId = TableId(0);
const N: usize = 300;

fn db() -> Database {
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
    // Scrambled ids, a low-cardinality non-leading key (many ties), and a
    // payload: ordering by `id` and ordering by `grp` disagree everywhere.
    let rows: Vec<Row> = (0..N as i64)
        .map(|i| {
            Row::new(vec![
                Value::Int((i * 37) % N as i64),
                Value::Int(i % 7),
                Value::Int((i * 13) % 11),
            ])
        })
        .collect();
    db.insert_rows(t, rows).unwrap();
    db
}

fn clustered_on_grp() -> IndexSpec {
    IndexSpec {
        table: T,
        key_cols: vec![ColumnId(1)],
        include_cols: vec![],
        clustered: true,
        compression: CompressionKind::Page,
        partial_filter: None,
        mv: None,
    }
}

#[test]
fn clustered_rows_have_one_order_at_every_site() {
    let db = db();
    let spec = clustered_on_grp();
    let cfg = Configuration::new(vec![PhysicalStructure {
        spec: spec.clone(),
        size: SizeEstimate {
            bytes: (N * 24) as f64,
            pages: 1.0,
            rows: N as f64,
            compression_fraction: 1.0,
        },
    }]);
    let table_rows = db.table(T).rows();

    // Site 1: the index row stream SampleCF and every build consume.
    let (stream, _, _) = index_row_stream(&db, &spec, table_rows).unwrap();

    // Site 2: the clustered base, and the permutation that maps insertion
    // ordinals to its scan order.
    let mat = MaterializedConfig::build(&db, &cfg).unwrap();
    assert_eq!(mat.base_spec(T), Some(&spec));
    let base = mat.base(T).unwrap().scan().unwrap();
    assert_eq!(base, stream);
    for (ordinal, row) in table_rows.iter().enumerate() {
        assert_eq!(
            &base[mat.base_position(T, ordinal)],
            row,
            "ordinal {ordinal}"
        );
    }

    // Site 3: an update forces the checkpoint to rebuild the base from the
    // visible rows; the rebuilt leaves are in the stream's order of them.
    let store = Store::open(&db, &mat, CostModel::default());
    let upd = BulkUpdate {
        table: T,
        n_rows: 40,
        column: ColumnId(2),
    };
    store
        .commit(store.prepare_update(&upd, 7, "index-order").unwrap())
        .unwrap();
    let visible = store.snapshot().table_rows(T).unwrap();
    let ckpt = store.checkpoint().unwrap();
    assert_eq!(ckpt.rebuilt_tables, 1);
    let (want, _, _) = index_row_stream(&db, &spec, &visible).unwrap();
    assert_eq!(ckpt.tables[&T].scan().unwrap(), want);
}
