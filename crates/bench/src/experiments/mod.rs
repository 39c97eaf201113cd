//! Experiment implementations, one per paper table/figure.

pub mod advise;
pub mod calibration;
pub mod designs;
pub mod estimation_runtime;
pub mod exec_actuals;
pub mod graph_quality;
pub mod motivating;
pub mod mv_rows;
pub mod plan;

use cadb_common::ColumnId;
use cadb_engine::IndexSpec;

/// The set of candidate indexes "considered for TPC-H" used by the error
/// analysis and graph experiments: all 1–3 column key combinations over the
/// interesting lineitem columns, plus a few wider ones — a few hundred
/// indexes, as in the paper's Appendix C.
pub fn lineitem_index_specs(
    db: &cadb_engine::Database,
    kinds: &[cadb_compression::CompressionKind],
    max_width: usize,
) -> Vec<IndexSpec> {
    let t = db.table_id("lineitem").expect("TPC-H database");
    // orderkey, partkey, suppkey, quantity, extendedprice, discount,
    // returnflag, shipdate, shipmode.
    let cols: Vec<ColumnId> = [0u16, 1, 2, 4, 5, 6, 8, 10, 14]
        .iter()
        .map(|c| ColumnId(*c))
        .collect();
    let mut specs = Vec::new();
    for kind in kinds {
        // Singletons.
        for &a in &cols {
            specs.push(IndexSpec::secondary(t, vec![a]).with_compression(*kind));
        }
        if max_width < 2 {
            continue;
        }
        // Pairs (ordered — order matters for ORD-DEP methods).
        for &a in &cols[..6] {
            for &b in &cols[..6] {
                if a != b {
                    specs.push(IndexSpec::secondary(t, vec![a, b]).with_compression(*kind));
                }
            }
        }
        if max_width < 3 {
            continue;
        }
        // A band of triples.
        for w in cols.windows(3) {
            specs.push(IndexSpec::secondary(t, w.to_vec()).with_compression(*kind));
        }
        if max_width >= 4 {
            for w in cols.windows(4) {
                specs.push(IndexSpec::secondary(t, w.to_vec()).with_compression(*kind));
            }
        }
    }
    specs
}

#[cfg(test)]
mod tests {
    use super::*;
    use cadb_compression::CompressionKind;

    #[test]
    fn spec_generator_produces_hundreds() {
        let db = cadb_datagen::TpchGen::new(0.01).build().unwrap();
        let specs = lineitem_index_specs(&db, &[CompressionKind::Row, CompressionKind::Page], 3);
        assert!(specs.len() > 80, "{}", specs.len());
        // Both orders of each pair exist (needed for ColSet experiments).
        let t = db.table_id("lineitem").unwrap();
        let ab = IndexSpec::secondary(t, vec![ColumnId(0), ColumnId(1)])
            .with_compression(CompressionKind::Row);
        let ba = IndexSpec::secondary(t, vec![ColumnId(1), ColumnId(0)])
            .with_compression(CompressionKind::Row);
        assert!(specs.contains(&ab) && specs.contains(&ba));
    }
}
