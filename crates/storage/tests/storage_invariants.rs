//! Integration invariants for the storage substrate: build/scan round-trips
//! across every codec, leaf-split behaviour at page boundaries, the
//! iterator-order invariant (leaves decode in key order, back to back), and
//! table round-trips through `sorted_projection` — the exact row stream
//! index builds consume.

use cadb_common::{ColumnDef, ColumnId, DataType, Row, TableSchema, Value};
use cadb_compression::CompressionKind;
use cadb_storage::{PhysicalIndex, Table};
use std::cmp::Ordering;

const ALL_KINDS: [CompressionKind; 5] = [
    CompressionKind::None,
    CompressionKind::Row,
    CompressionKind::Page,
    CompressionKind::GlobalDict,
    CompressionKind::Rle,
];

fn dtypes() -> Vec<DataType> {
    vec![
        DataType::Int,
        DataType::Char { len: 12 },
        DataType::Int,
        DataType::Date,
    ]
}

/// Key-sorted rows with heavy duplication (compressible) and ties on the
/// key column (exercises runs crossing leaf boundaries).
fn sorted_rows(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Int((i / 7) as i64),
                Value::Str(format!("tag{:03}", i % 40)),
                Value::Int((i % 11) as i64),
                Value::Int(10_000 + (i % 365) as i64),
            ])
        })
        .collect()
}

#[test]
fn build_scan_round_trip_every_codec() {
    let rows = sorted_rows(8_000);
    for kind in ALL_KINDS {
        let ix = PhysicalIndex::build(&rows, &dtypes(), 1, kind).unwrap();
        assert_eq!(ix.n_rows(), rows.len(), "{kind}");
        assert_eq!(ix.scan().unwrap(), rows, "{kind}: scan must round-trip");
        if kind.is_compressed() {
            assert!(ix.size_bytes() > 0);
            assert!(ix.compression_fraction() <= 1.05, "{kind}");
        }
    }
}

#[test]
fn leaf_split_preserves_order_and_content() {
    // Enough rows to force many leaf splits under every codec.
    let rows = sorted_rows(20_000);
    let key = [ColumnId(0)];
    for kind in ALL_KINDS {
        let ix = PhysicalIndex::build(&rows, &dtypes(), 1, kind).unwrap();
        assert!(ix.n_leaf_pages() > 4, "{kind}: expected real splits");

        // Iterator-order invariant: concatenating the decoded leaves in
        // order reproduces the input exactly, and consecutive leaves never
        // overlap backwards (last key of leaf i ≤ first key of leaf i+1).
        let mut concat = Vec::with_capacity(rows.len());
        let mut prev_last: Option<Row> = None;
        for leaf in 0..ix.n_leaf_pages() {
            let decoded = ix.decode_leaf(leaf).unwrap();
            assert!(!decoded.is_empty(), "{kind}: empty leaf {leaf}");
            for w in decoded.windows(2) {
                assert_ne!(
                    w[0].key_cmp(&w[1], &key),
                    Ordering::Greater,
                    "{kind}: leaf {leaf} out of order"
                );
            }
            if let Some(last) = &prev_last {
                assert_ne!(
                    last.key_cmp(&decoded[0], &key),
                    Ordering::Greater,
                    "{kind}: leaf {leaf} starts before leaf {} ends",
                    leaf - 1
                );
            }
            prev_last = Some(decoded.last().unwrap().clone());
            concat.extend(decoded);
        }
        assert_eq!(concat, rows, "{kind}: leaf concatenation diverged");
    }
}

#[test]
fn seek_and_range_scan_match_naive_filters() {
    let rows = sorted_rows(6_000);
    let key = [ColumnId(0)];
    for kind in ALL_KINDS {
        let ix = PhysicalIndex::build(&rows, &dtypes(), 1, kind).unwrap();
        for probe in [0i64, 3, 400, 857, 9_999] {
            let hits = ix.seek(&[Value::Int(probe)]).unwrap();
            let naive: Vec<Row> = rows
                .iter()
                .filter(|r| r.values[0] == Value::Int(probe))
                .cloned()
                .collect();
            assert_eq!(hits, naive, "{kind}: seek {probe}");
        }
        let (got, pages) = ix
            .range_scan(Some(&[Value::Int(100)]), Some(&[Value::Int(140)]))
            .unwrap();
        let naive: Vec<Row> = rows
            .iter()
            .filter(|r| {
                let probe_lo = Row::new(vec![Value::Int(100)]);
                let probe_hi = Row::new(vec![Value::Int(140)]);
                r.key_cmp(&probe_lo, &key) != Ordering::Less
                    && r.key_cmp(&probe_hi, &key) != Ordering::Greater
            })
            .cloned()
            .collect();
        assert_eq!(got, naive, "{kind}: range scan");
        assert!(pages <= ix.n_leaf_pages());
    }
}

#[test]
fn heap_round_trips_every_codec_in_insertion_order() {
    // Heaps (zero key columns) accept arbitrary order and must preserve it.
    let mut rows = sorted_rows(5_000);
    rows.reverse();
    rows.swap(0, 2_500);
    for kind in ALL_KINDS {
        let h = PhysicalIndex::build(&rows, &dtypes(), 0, kind).unwrap();
        assert_eq!(h.n_rows(), rows.len());
        assert_eq!(h.scan().unwrap(), rows, "{kind}: heap order lost");
        assert!(h.n_leaf_pages() > 1, "{kind}");
    }
}

fn table() -> Table {
    Table::new(
        TableSchema::new(
            "t",
            vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("s", DataType::Char { len: 12 }),
                ColumnDef::new("v", DataType::Int),
                ColumnDef::new("d", DataType::Date),
            ],
            vec![ColumnId(0)],
        )
        .unwrap(),
    )
}

#[test]
fn table_insert_then_index_build_round_trips() {
    // The full pipeline: unsorted inserts → sorted_projection → bulk build
    // → scan gives back exactly the sorted projection.
    let mut t = table();
    let mut rows = sorted_rows(3_000);
    rows.reverse();
    t.insert_many(rows.clone()).unwrap();
    assert_eq!(t.n_rows(), rows.len());
    assert_eq!(t.rows(), &rows[..], "insertion order preserved");

    let key = [ColumnId(0), ColumnId(1)];
    let proj = [ColumnId(0), ColumnId(1), ColumnId(2), ColumnId(3)];
    let stream = t.sorted_projection(&key, &proj);
    assert_eq!(stream.len(), rows.len());

    // The stream is a permutation of the table…
    let mut expect = rows.clone();
    expect.sort();
    let mut got = stream.clone();
    got.sort();
    assert_eq!(got, expect, "sorted_projection must be a permutation");

    // …sorted on the key, and every codec round-trips it.
    for w in stream.windows(2) {
        assert_ne!(w[0].key_cmp(&w[1], &key), Ordering::Greater);
    }
    for kind in ALL_KINDS {
        let ix = PhysicalIndex::build(&stream, &dtypes(), 2, kind).unwrap();
        assert_eq!(ix.scan().unwrap(), stream, "{kind}");
    }
}

#[test]
fn single_row_and_page_boundary_sizes() {
    // Degenerate sizes around leaf boundaries must still round-trip.
    for n in [1usize, 2, 399, 400, 401, 1_000] {
        let rows = sorted_rows(n);
        for kind in ALL_KINDS {
            let ix = PhysicalIndex::build(&rows, &dtypes(), 1, kind).unwrap();
            assert_eq!(ix.scan().unwrap(), rows, "{kind} n={n}");
            let hits = ix.seek(&[rows[0].values[0].clone()]).unwrap();
            assert!(!hits.is_empty(), "{kind} n={n}");
        }
    }
}
