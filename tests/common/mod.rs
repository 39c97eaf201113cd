//! Helpers shared by the root integration suites.

use cadb::common::ColumnId;
use cadb::compression::CompressionKind;
use cadb::engine::stmt::ScalarExpr;
use cadb::engine::{IndexSpec, MvSpec, Query};
use cadb::sql::AggFunc;

/// The uncompressed MV index that answers `q` outright, when `q` is
/// MV-answerable: grouped, residual predicates on grouping columns only,
/// and `COUNT(*)`/`SUM(col)` aggregates (the executor's exact-aggregate
/// rule). One per query is the `mv-rich` configuration of `repro -- plan`
/// and the MV half of the benchmark's `rich` configuration.
pub fn mv_index(q: &Query) -> Option<IndexSpec> {
    let on_groups = q
        .predicates
        .iter()
        .all(|p| q.group_by.contains(&(p.table, p.column)));
    let answerable = q.aggregates.iter().all(|a| {
        matches!(
            (&a.func, &a.expr),
            (AggFunc::Count, None) | (AggFunc::Sum, Some(ScalarExpr::Column(..)))
        )
    });
    if q.group_by.is_empty() || !on_groups || !answerable {
        return None;
    }
    let mut agg_columns: Vec<_> = q
        .aggregates
        .iter()
        .flat_map(|a| a.columns.iter().copied())
        .filter(|tc| !q.group_by.contains(tc))
        .collect();
    agg_columns.sort_unstable();
    agg_columns.dedup();
    let mut joins = q.joins.clone();
    joins.sort_unstable();
    let mv = MvSpec {
        root: q.root,
        joins,
        group_by: q.group_by.clone(),
        agg_columns,
    };
    let n_stored = mv.stored_columns() as u16;
    let n_key = (q.group_by.len() as u16).min(n_stored);
    Some(IndexSpec {
        table: q.root,
        key_cols: (0..n_key).map(ColumnId).collect(),
        include_cols: (n_key..n_stored).map(ColumnId).collect(),
        clustered: false,
        compression: CompressionKind::None,
        partial_filter: None,
        mv: Some(mv),
    })
}
