//! Building the row stream of an index from a row source.
//!
//! Shared by SampleCF (which feeds it sample rows) and by ground-truth
//! measurement (which feeds it the full table): project the stored columns,
//! append the row locator for secondary indexes, sort by the key prefix.

use cadb_common::{CadbError, ColumnId, DataType, Result, Row, Value};
use cadb_compression::analyze::compressed_index_size;
use cadb_engine::exec::materialize_mv;
use cadb_engine::{Database, IndexSpec};
use std::cmp::Ordering;

/// The typed, sorted row stream an index build would consume, produced from
/// an arbitrary subset of the table's rows (`source`). Returns
/// `(rows, dtypes, n_key_cols)`.
pub fn index_row_stream(
    db: &Database,
    spec: &IndexSpec,
    source: &[Row],
) -> Result<(Vec<Row>, Vec<DataType>, usize)> {
    index_row_stream_spread(db, spec, source, source.len())
}

/// Like [`index_row_stream`], but spreads secondary-index row locators
/// evenly over a `domain`-row base table instead of using positions into
/// `source` directly.
///
/// SampleCF builds on a fraction-`f` sample, and under ROW-family null
/// suppression a locator's stored width depends on its magnitude:
/// sample-local ordinals (`0..n·f`) suppress to fewer bytes than the full
/// build's locators (`0..n`), which made sampled fractions systematically
/// optimistic — worst on narrow indexes, where the locator is a large share
/// of the stored row. Scaling ordinals by `domain / source.len()` gives the
/// sample's locator column the full build's byte-width distribution while
/// keeping locators distinct and ordered. `domain ≤ source.len()` (the full
/// build) degenerates to the identity.
pub fn index_row_stream_spread(
    db: &Database,
    spec: &IndexSpec,
    source: &[Row],
    domain: usize,
) -> Result<(Vec<Row>, Vec<DataType>, usize)> {
    if spec.mv.is_some() {
        return Err(CadbError::InvalidArgument(
            "MV index rows come from the MV sample, not the base table".into(),
        ));
    }
    let table_dtypes = db.dtypes(spec.table);
    let stored: Vec<ColumnId> = if spec.clustered {
        (0..table_dtypes.len() as u16).map(ColumnId).collect()
    } else {
        spec.stored_columns()
    };
    let mut dtypes: Vec<DataType> = stored.iter().map(|c| table_dtypes[c.raw()]).collect();

    let filtered: Vec<(usize, &Row)> = source
        .iter()
        .enumerate()
        .filter(|(_, r)| {
            spec.partial_filter
                .as_ref()
                .map(|f| f.matches(r))
                .unwrap_or(true)
        })
        .collect();

    let stride = if source.is_empty() {
        1
    } else {
        (domain / source.len()).max(1)
    };
    let mut rows: Vec<Row> = filtered
        .iter()
        .map(|(ordinal, r)| {
            let mut vals: Vec<Value> = stored.iter().map(|c| r.values[c.raw()].clone()).collect();
            if !spec.clustered {
                vals.push(Value::Int((*ordinal * stride) as i64)); // row locator
            }
            Row::new(vals)
        })
        .collect();
    if !spec.clustered {
        dtypes.push(DataType::Int);
    }

    let (n_key, order) = index_row_order(Some(spec), stored.len());
    rows.sort_by(order);
    Ok((rows, dtypes, n_key))
}

/// The one ordering rule for the rows of an index over `spec` (`None` for
/// a heap) whose stored rows are `n_cols` wide: the first
/// `spec.key_cols.len()` stored columns, then the whole row, so rows with
/// equal keys have one order too. Returns the number of key columns the
/// index is built with and the comparator. The index row stream, the
/// clustered base's scan-order permutation
/// (`cadb_exec::MaterializedConfig::build_with`) and the checkpoint's leaf
/// rebuild (`Store::fold_table`) all sort by it, so they agree on every
/// row's position.
pub fn index_row_order(
    spec: Option<&IndexSpec>,
    n_cols: usize,
) -> (usize, impl Fn(&Row, &Row) -> Ordering) {
    let n_key = spec.map_or(0, |s| s.key_cols.len().min(n_cols));
    let key: Vec<ColumnId> = (0..n_key as u16).map(ColumnId).collect();
    let order = move |a: &Row, b: &Row| a.key_cmp(b, &key).then_with(|| a.cmp(b));
    (n_key, order)
}

/// The stored-column permutation of an index over an MV: the spec's key
/// columns first, then the remaining MV-layout columns in layout order.
/// Entry `i` is the MV-layout ordinal (group-by columns, then SUM columns,
/// then COUNT(*)) stored at position `i` of the index. Shared by the index
/// build ([`mv_index_row_stream`]) and the compressed executor's MV scan,
/// which must agree on the layout to read the right columns back.
pub fn mv_layout_order(spec: &IndexSpec, n_stored: usize) -> Vec<usize> {
    let mut order: Vec<usize> = spec.key_cols.iter().map(|c| c.raw()).collect();
    for i in 0..n_stored {
        if !order.contains(&i) {
            order.push(i);
        }
    }
    order
}

/// The row stream of an index over an MV, from materialized MV rows.
/// MV stored layout: group-by columns, SUM columns, COUNT(*); the spec's
/// key columns are ordinals into that layout.
pub fn mv_index_row_stream(
    db: &Database,
    spec: &IndexSpec,
    mv_rows: &[Row],
) -> Result<(Vec<Row>, Vec<DataType>, usize)> {
    let mv = spec
        .mv
        .as_ref()
        .ok_or_else(|| CadbError::InvalidArgument("not an MV index".into()))?;
    let mut dtypes: Vec<DataType> = mv
        .group_by
        .iter()
        .map(|(t, c)| db.dtypes(*t)[c.raw()])
        .collect();
    dtypes.extend(std::iter::repeat_n(DataType::Int, mv.agg_columns.len() + 1));

    // Reorder so key columns come first.
    let n_stored = dtypes.len();
    let order = mv_layout_order(spec, n_stored);
    for &i in &order {
        if i >= n_stored {
            return Err(CadbError::InvalidArgument(format!(
                "MV index key column {i} out of range ({n_stored} stored)"
            )));
        }
    }
    let dtypes_perm: Vec<DataType> = order.iter().map(|&i| dtypes[i]).collect();
    let mut rows: Vec<Row> = mv_rows
        .iter()
        .map(|r| Row::new(order.iter().map(|&i| r.values[i].clone()).collect()))
        .collect();
    let n_key = spec.key_cols.len();
    let key: Vec<ColumnId> = (0..n_key as u16).map(ColumnId).collect();
    rows.sort_by(|a, b| a.key_cmp(b, &key).then_with(|| a.cmp(b)));
    Ok((rows, dtypes_perm, n_key))
}

/// Ground truth: the exact compression fraction of an index, measured by
/// building and compressing it over the **full** data. Expensive — this is
/// what SampleCF and the deductions avoid.
pub fn true_compression_fraction(db: &Database, spec: &IndexSpec) -> Result<f64> {
    let (rows, dtypes) = if let Some(mv) = &spec.mv {
        let mv_rows = materialize_mv(db, mv)?;
        let (r, d, _) = mv_index_row_stream(db, spec, &mv_rows)?;
        (r, d)
    } else {
        let source = db.table(spec.table).rows();
        let (r, d, _) = index_row_stream(db, spec, source)?;
        (r, d)
    };
    let m = compressed_index_size(&rows, &dtypes, spec.compression)?;
    Ok(m.compression_fraction())
}

/// Measured full size in bytes of an index (compressed as specified).
pub fn true_index_bytes(db: &Database, spec: &IndexSpec) -> Result<usize> {
    let (rows, dtypes) = if let Some(mv) = &spec.mv {
        let mv_rows = materialize_mv(db, mv)?;
        let (r, d, _) = mv_index_row_stream(db, spec, &mv_rows)?;
        (r, d)
    } else {
        let source = db.table(spec.table).rows();
        let (r, d, _) = index_row_stream(db, spec, source)?;
        (r, d)
    };
    let m = compressed_index_size(&rows, &dtypes, spec.compression)?;
    Ok(m.compressed_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadb_common::{ColumnDef, TableId, TableSchema};
    use cadb_compression::CompressionKind;
    use cadb_engine::Predicate;

    fn db() -> Database {
        let mut db = Database::new();
        let t = db
            .create_table(
                TableSchema::new(
                    "t",
                    vec![
                        ColumnDef::new("a", DataType::Int),
                        ColumnDef::new("b", DataType::Char { len: 6 }),
                        ColumnDef::new("c", DataType::Int),
                    ],
                    vec![ColumnId(0)],
                )
                .unwrap(),
            )
            .unwrap();
        let rows: Vec<Row> = (0..3000)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i % 40),
                    Value::Str(format!("s{}", i % 6)),
                    Value::Int(i),
                ])
            })
            .collect();
        db.insert_rows(t, rows).unwrap();
        db
    }

    #[test]
    fn secondary_index_gets_locator_and_sort() {
        let db = db();
        let spec = IndexSpec::secondary(TableId(0), vec![ColumnId(1), ColumnId(0)]);
        let (rows, dtypes, n_key) =
            index_row_stream(&db, &spec, db.table(TableId(0)).rows()).unwrap();
        assert_eq!(rows.len(), 3000);
        assert_eq!(dtypes.len(), 3); // b, a, locator
        assert_eq!(n_key, 2);
        // Sorted by (b, a).
        for w in rows.windows(2) {
            assert!(
                w[0].key_cmp(&w[1], &[ColumnId(0), ColumnId(1)]) != std::cmp::Ordering::Greater
            );
        }
    }

    #[test]
    fn clustered_stores_all_columns_no_locator() {
        let db = db();
        let spec = IndexSpec::clustered(TableId(0), vec![ColumnId(0)]);
        let (rows, dtypes, _) = index_row_stream(&db, &spec, db.table(TableId(0)).rows()).unwrap();
        assert_eq!(dtypes.len(), 3);
        assert_eq!(rows.len(), 3000);
    }

    #[test]
    fn partial_filter_applies() {
        let db = db();
        let mut spec = IndexSpec::secondary(TableId(0), vec![ColumnId(0)]);
        spec.partial_filter = Some(Predicate::eq(
            TableId(0),
            ColumnId(1),
            Value::Str("s3".into()),
        ));
        let (rows, ..) = index_row_stream(&db, &spec, db.table(TableId(0)).rows()).unwrap();
        assert_eq!(rows.len(), 500);
    }

    #[test]
    fn true_cf_less_than_one_for_compressible() {
        let db = db();
        let spec = IndexSpec::secondary(TableId(0), vec![ColumnId(0), ColumnId(1)])
            .with_compression(CompressionKind::Page);
        let cf = true_compression_fraction(&db, &spec).unwrap();
        assert!(cf > 0.0 && cf < 0.9, "cf={cf}");
        let bytes = true_index_bytes(&db, &spec).unwrap();
        assert!(bytes > 0);
    }

    #[test]
    fn colset_property_holds_on_ground_truth() {
        // §4.2: ORD-IND compressed sizes are equal for the same column set.
        let db = db();
        let ab = IndexSpec::secondary(TableId(0), vec![ColumnId(0), ColumnId(1)])
            .with_compression(CompressionKind::Row);
        let ba = IndexSpec::secondary(TableId(0), vec![ColumnId(1), ColumnId(0)])
            .with_compression(CompressionKind::Row);
        let sa = true_index_bytes(&db, &ab).unwrap() as f64;
        let sb = true_index_bytes(&db, &ba).unwrap() as f64;
        assert!((sa - sb).abs() / sa < 0.02, "{sa} vs {sb}");
    }
}
