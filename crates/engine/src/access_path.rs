//! Access-path selection: **one** enumerator and **one** cost function,
//! shared by the what-if optimizer and the compressed executor.
//!
//! The paper's advisor is sound because DTA's what-if call asks the same
//! optimizer that later runs the query (§3). Here that is literal:
//! [`plan_query`] is the only planner in the workspace. It is generic over
//! a [`PathView`] — the few facts the two callers know differently —
//!
//! * [`Hypothetical`] (`Database` + `Configuration`): pages and rows from
//!   the advisor's size estimates and catalog statistics, seek fractions
//!   from predicate selectivities, every candidate executable;
//! * `cadb_exec::MaterializedConfig`: the same estimated pages, **real**
//!   row counts and leaf fractions from the built B+Trees, and only the
//!   paths the compressed executor can run —
//!
//! and priced by the [`CostModel`] the caller hands in.
//!
//! Paths considered per table: base-structure scan (heap or clustered
//! index, possibly compressed), covering index scan, index seek on a
//! sargable key prefix (with bookmark lookups when not covering), partial
//! index (when its filter is one of the query's conjuncts), and — at
//! whole-query level — a matching MV index that replaces the join tree.
//! Ties go to the earlier candidate, the base structure first.
//!
//! The planner emits no observability counters: `whatif.*` belongs to the
//! optimizer's batch entry points, `planner.*` to the executor's wrapper.

use crate::cardinality::{
    join_output_rows, mv_estimated_rows, predicate_selectivity, query_output_rows,
};
use crate::catalog::Database;
use crate::config::{Configuration, IndexSpec, MvSpec, PhysicalStructure};
use crate::cost::{heap_pages, CostModel};
use crate::predicate::Predicate;
use crate::stmt::{JoinEdge, Query};
use cadb_common::{ColumnId, TableId, Value};
use cadb_compression::CompressionKind;
use std::collections::BTreeSet;

/// Which class of access path was chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PathKind {
    /// Full scan of the table's base structure (clustered index or heap).
    BaseScan,
    /// Full scan of a covering secondary index (narrower than the base).
    IndexScan,
    /// Key-range seek on a covering secondary index: only the leaves that
    /// can hold the sargable prefix interval are read.
    IndexSeek,
    /// Key-range seek on a non-covering index plus one bookmark lookup
    /// into the base per surviving row. Priced by what-if; the compressed
    /// executor cannot run it.
    LookupSeek,
    /// A matching MV index answers the whole query.
    MvScan,
}

/// The chosen way to read one table (or, for [`PathKind::MvScan`], the
/// whole query), with its price under the planning cost model.
#[derive(Debug, Clone, PartialEq)]
pub struct TablePath {
    /// The table this path reads (for MV paths: the MV's fact table).
    pub table: TableId,
    /// Path class.
    pub kind: PathKind,
    /// The structure used (`None` for base scans over a heap).
    pub index: Option<IndexSpec>,
    /// Pushed-down key range of a seek, when the view materializes one
    /// (the hypothetical view never clones predicate values).
    pub key_range: Option<KeyRange>,
    /// Cost of this path alone.
    pub cost: f64,
}

impl TablePath {
    /// Human-readable plan fragment.
    pub fn describe(&self) -> String {
        match (self.kind, &self.index) {
            (PathKind::BaseScan, _) | (_, None) => format!("base scan {}", self.table),
            (PathKind::IndexScan, Some(spec)) => format!("covering scan {spec}"),
            (PathKind::IndexSeek, Some(spec)) => format!("seek {spec}"),
            (PathKind::LookupSeek, Some(spec)) => format!("seek {spec} + lookups"),
            (PathKind::MvScan, Some(spec)) => format!("mv scan {spec}"),
        }
    }
}

/// The plan of one query: either a whole-query MV path, or one
/// [`TablePath`] per table the query touches (root first).
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// A matching MV index that replaces the join tree, when cheaper.
    pub mv: Option<TablePath>,
    /// Per-table paths (unused when `mv` is set).
    pub tables: Vec<TablePath>,
    /// Cost of the whole plan: the MV path, or the table paths plus join,
    /// grouping and sort work.
    pub cost: f64,
}

impl QueryPlan {
    /// The paths that run: the MV path alone, or every table path.
    pub fn paths(&self) -> &[TablePath] {
        match &self.mv {
            Some(m) => std::slice::from_ref(m),
            None => &self.tables,
        }
    }

    /// `true` when every table is read by a plain base-structure scan —
    /// i.e. the plan degenerates to the forced-base execution.
    pub fn is_base_only(&self) -> bool {
        self.paths().iter().all(|p| p.kind == PathKind::BaseScan)
    }

    /// One-line description of the whole plan.
    pub fn describe(&self) -> String {
        let parts: Vec<String> = self.paths().iter().map(TablePath::describe).collect();
        parts.join("; ")
    }

    /// The per-table path for `table` (`None` under an MV plan).
    pub fn table_path(&self, table: TableId) -> Option<&TablePath> {
        if self.mv.is_some() {
            return None;
        }
        self.tables.iter().find(|p| p.table == table)
    }

    /// `true` when both plans run the same `(table, kind, structure)`
    /// paths — "the path what-if assumed is the path that ran".
    pub fn same_paths(&self, other: &QueryPlan) -> bool {
        let same = |(a, b): (&TablePath, &TablePath)| {
            (a.table, a.kind, &a.index) == (b.table, b.kind, &b.index)
        };
        let (a, b) = (self.paths(), other.paths());
        a.len() == b.len() && a.iter().zip(b).all(same)
    }
}

/// An inclusive lexicographic key-prefix interval `[lo, hi]` implied by a
/// conjunction of predicates on an index's leading key columns — what an
/// executor seeks with (see [`extract_key_range`]).
///
/// `lo` and `hi` are value prefixes over the index's key columns; they may
/// have different lengths (an equality on the first key column followed by
/// a one-sided range on the second yields e.g. `lo = [v0, b]`, `hi = [v0]`).
/// An empty side means unbounded on that side. The interval is
/// **conservative**: every row matching the consumed predicates lies inside
/// it, but rows inside it may still fail the predicates (open bounds are
/// widened to closed ones, IN-lists to their min/max span), so a scan must
/// re-apply the predicates to the rows it reads.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyRange {
    /// Inclusive lower-bound prefix (empty = unbounded below).
    pub lo: Vec<Value>,
    /// Inclusive upper-bound prefix (empty = unbounded above).
    pub hi: Vec<Value>,
    /// Number of predicates consumed into the range.
    pub consumed: usize,
}

impl KeyRange {
    /// `true` when neither side constrains the scan.
    pub fn is_unbounded(&self) -> bool {
        self.lo.is_empty() && self.hi.is_empty()
    }

    /// The single contiguous interval a sargable key prefix (the
    /// planner's key-prefix walk) implies: its predicates up to and including the
    /// first that is not a single-value equality. A multi-value IN-list is
    /// widened to its min/max span and ends the interval there (members
    /// between the bounds are re-checked by the filter) — the one place a
    /// seek's selectivity, which keeps multiplying past an IN-list, and its
    /// key range differ. `None` when nothing bounds the leading key column.
    pub fn from_prefix(prefix: &[&Predicate]) -> Option<KeyRange> {
        let mut range = KeyRange {
            lo: Vec::new(),
            hi: Vec::new(),
            consumed: 0,
        };
        for p in prefix {
            if p.is_equality() {
                let (Some(min), Some(max)) = (p.values.iter().min(), p.values.iter().max()) else {
                    break; // empty IN-list: nothing to seek with
                };
                range.lo.push(min.clone());
                range.hi.push(max.clone());
                range.consumed += 1;
                if p.values.len() == 1 {
                    continue;
                }
            } else {
                // A range predicate: only the bounded sides extend.
                let (lo, hi) = p.bounds();
                range.lo.extend(lo.cloned());
                range.hi.extend(hi.cloned());
                range.consumed += 1;
            }
            break;
        }
        (range.consumed > 0).then_some(range)
    }
}

/// The sargable prefix of `key_cols` (an index's key columns, in order)
/// under a conjunction of single-column predicates — the one key-prefix
/// walk both views share. An equality predicate (single value or IN-list)
/// pins its column and lets the prefix continue; a sargable range
/// predicate is consumed and ends it; a key column with neither ends it.
/// A seek's selectivity is the product over the returned predicates, its
/// key range [`KeyRange::from_prefix`] of them.
fn key_prefix<'p>(preds: &[&'p Predicate], key_cols: &[ColumnId]) -> Vec<&'p Predicate> {
    let mut prefix = Vec::new();
    for key in key_cols {
        let on_key = || preds.iter().filter(|p| p.column == *key);
        if let Some(p) = on_key().find(|p| p.is_equality()) {
            prefix.push(*p);
            continue;
        }
        prefix.extend(on_key().find(|p| p.is_sargable()).copied());
        break;
    }
    prefix
}

/// Extract the key-prefix range a conjunction of single-column predicates
/// implies on `key_cols` (the leading key columns of an index, in order) —
/// the predicate→key-range bridge the compressed executor pushes into
/// [`cadb_storage`]-level range scans: [`KeyRange::from_prefix`] of the
/// planner's key-prefix walk. Returns `None` when no predicate constrains the leading
/// key column.
pub fn extract_key_range(preds: &[&Predicate], key_cols: &[ColumnId]) -> Option<KeyRange> {
    KeyRange::from_prefix(&key_prefix(preds, key_cols))
}

/// Columns of `table` the query needs to read (projection + all predicate
/// columns).
pub fn needed_columns(q: &Query, table: TableId) -> BTreeSet<ColumnId> {
    let mut cols = q.used_on(table);
    for p in q.predicates_on(table) {
        cols.insert(p.column);
    }
    cols
}

/// Base storage of a table under a configuration: the clustered index spec
/// if one is present, else the uncompressed heap.
pub(crate) fn base_structure(cfg: &Configuration, table: TableId) -> Option<&PhysicalStructure> {
    cfg.structures()
        .iter()
        .find(|s| s.spec.clustered && s.spec.table == table && s.spec.mv.is_none())
}

/// Whether an MV answers the query outright: same fact table, same join
/// set, same grouping, and the query's predicate/projection columns
/// restricted to grouping columns the MV stores.
fn mv_matches(q: &Query, mv: &MvSpec) -> bool {
    let sorted = |joins: &[JoinEdge]| {
        let mut joins = joins.to_vec();
        joins.sort_unstable();
        joins
    };
    let stored = |col| mv.agg_columns.contains(col) || mv.group_by.contains(col);
    mv.root == q.root
        && mv.group_by == q.group_by
        && sorted(&q.joins) == sorted(&mv.joins)
        // Aggregate inputs must be stored.
        && q.aggregates.iter().flat_map(|a| &a.columns).all(stored)
        // Residual predicates must be on grouping columns (appliable on the MV).
        && q.predicates.iter().all(|p| mv.group_by.contains(&(p.table, p.column)))
}

/// A table's base structure as a view holds it.
#[derive(Debug, Clone, Copy)]
pub struct BaseFacts<'a> {
    /// The clustered index serving as the base (`None` = heap).
    pub spec: Option<&'a IndexSpec>,
    /// Leaf pages.
    pub pages: f64,
    /// Rows.
    pub rows: f64,
}

/// What a planner caller knows about a configuration — everything the
/// what-if optimizer and the executor know *differently*. Eligibility
/// rules, the key-prefix walk, the enumeration order and every cost
/// formula live in [`plan_query`] and are the same for all views.
pub trait PathView {
    /// The base structure of `table`.
    fn base_facts(&self, table: TableId) -> BaseFacts<'_>;

    /// Every structure of the configuration with its leaf pages, in
    /// configuration order (ties go to the earlier one).
    fn candidates(&self) -> impl Iterator<Item = (&IndexSpec, f64)>;

    /// Rows the structure holds.
    fn rows(&self, spec: &IndexSpec) -> f64;

    /// The fraction of the structure a seek on `prefix` (the non-empty
    /// sargable prefix of its key columns) reads, and the key range to push
    /// down if this view materializes one. `None`: cannot seek with it.
    fn seek(&self, spec: &IndexSpec, prefix: &[&Predicate]) -> Option<(f64, Option<KeyRange>)>;

    /// Whether this view can run `kind` over `spec` for `q`.
    fn can_execute(&self, _q: &Query, _spec: &IndexSpec, _kind: PathKind) -> bool {
        true
    }

    /// Selectivity of one predicate. The three cardinality terms default
    /// to "no column statistics": they only ever multiply CPU, lookup and
    /// sort constants, so a view that keeps the defaults must be priced
    /// with a model in which those constants are zero.
    fn selectivity(&self, _p: &Predicate) -> f64 {
        1.0
    }

    /// Rows flowing out of the query's join tree (before grouping).
    fn joined_rows(&self, _q: &Query) -> f64 {
        0.0
    }

    /// Final output rows of the query.
    fn output_rows(&self, _q: &Query) -> f64 {
        0.0
    }
}

/// The what-if view: a hypothetical configuration over a database's
/// statistics. Nothing is built, everything is executable, and no
/// predicate value is ever cloned.
#[derive(Debug, Clone, Copy)]
pub struct Hypothetical<'a> {
    /// Catalog and statistics.
    pub db: &'a Database,
    /// The configuration being priced.
    pub cfg: &'a Configuration,
}

impl PathView for Hypothetical<'_> {
    fn base_facts(&self, table: TableId) -> BaseFacts<'_> {
        let base = base_structure(self.cfg, table);
        let heap = || heap_pages(self.db.table(table).uncompressed_bytes() as f64);
        BaseFacts {
            spec: base.map(|s| &s.spec),
            pages: base.map_or_else(heap, |s| s.size.pages),
            rows: self.db.stats(table).n_rows as f64,
        }
    }

    fn candidates(&self) -> impl Iterator<Item = (&IndexSpec, f64)> {
        self.cfg
            .structures()
            .iter()
            .map(|s| (&s.spec, s.size.pages))
    }

    fn rows(&self, spec: &IndexSpec) -> f64 {
        if let Some(mv) = &spec.mv {
            return mv_estimated_rows(self.db, mv);
        }
        // The whole table, or the filtered subset for a partial index.
        let filter_sel = match &spec.partial_filter {
            Some(f) => predicate_selectivity(self.db, f),
            None => 1.0,
        };
        self.db.stats(spec.table).n_rows as f64 * filter_sel
    }

    fn seek(&self, _spec: &IndexSpec, prefix: &[&Predicate]) -> Option<(f64, Option<KeyRange>)> {
        let sel = prefix.iter().map(|p| self.selectivity(p)).product();
        Some((sel, None))
    }

    fn selectivity(&self, p: &Predicate) -> f64 {
        predicate_selectivity(self.db, p)
    }

    fn joined_rows(&self, q: &Query) -> f64 {
        join_output_rows(self.db, q)
    }

    fn output_rows(&self, q: &Query) -> f64 {
        query_output_rows(self.db, q)
    }
}

/// A candidate while planning: structures stay borrowed from the view, so
/// only a winner is ever cloned into a [`TablePath`].
struct Choice<'v> {
    kind: PathKind,
    spec: Option<&'v IndexSpec>,
    key_range: Option<KeyRange>,
    cost: f64,
}

impl Choice<'_> {
    fn into_path(self, table: TableId) -> TablePath {
        TablePath {
            table,
            kind: self.kind,
            index: self.spec.cloned(),
            key_range: self.key_range,
            cost: self.cost,
        }
    }
}

/// Price one secondary index for one table. `None` when it is useless
/// (non-covering with no sargable prefix) or the view cannot run it.
fn index_path<'v, V: PathView>(
    view: &'v V,
    model: &CostModel,
    q: &Query,
    (spec, pages): (&'v IndexSpec, f64),
    preds: &[&Predicate],
    needed: &BTreeSet<ColumnId>,
) -> Option<Choice<'v>> {
    // Predicates not already enforced by the partial filter.
    let residual: Vec<&Predicate> = preds
        .iter()
        .copied()
        .filter(|p| Some(*p) != spec.partial_filter.as_ref())
        .collect();
    let covering = spec.covers(needed);
    let prefix = key_prefix(&residual, &spec.key_cols);
    let kind = match (prefix.is_empty(), covering) {
        (true, false) => return None,
        (true, true) => PathKind::IndexScan,
        (false, true) => PathKind::IndexSeek,
        (false, false) => PathKind::LookupSeek,
    };
    if !view.can_execute(q, spec, kind) {
        return None;
    }
    let rows = view.rows(spec);
    let ncols = needed.len() as f64;
    let seek = match kind {
        PathKind::IndexScan => None,
        _ => view.seek(spec, &prefix),
    };
    let Some((fraction, key_range)) = seek else {
        // No seek possible: only useful as a covering (narrow) scan.
        return covering.then(|| Choice {
            kind: PathKind::IndexScan,
            spec: Some(spec),
            key_range: None,
            cost: model.scan_cost(pages, rows, residual.len())
                + model.decompress_cost(spec.compression, rows, ncols),
        });
    };
    // Seek: touch the fraction of leaves selected by the prefix.
    let matched = rows * fraction;
    let leaf_pages = (pages * fraction).max(1.0);
    let residual_after = residual.len().saturating_sub(prefix.len());
    let mut cost = model.seek_descent
        + leaf_pages * model.seq_page_io
        + matched * (model.cpu_per_tuple + residual_after as f64 * model.cpu_per_predicate)
        + model.decompress_cost(spec.compression, matched, ncols);
    if !covering {
        // Bookmark lookups for rows surviving all predicates this index
        // could check (sargable prefix plus any stored residuals).
        let sel: f64 = residual.iter().map(|p| view.selectivity(p)).product();
        cost += model.lookup_cost(rows * sel.clamp(0.0, 1.0));
    }
    Some(Choice {
        kind,
        spec: Some(spec),
        key_range,
        cost,
    })
}

/// Cheapest access path for one table.
fn best_table_path<'v, V: PathView>(
    view: &'v V,
    model: &CostModel,
    q: &Query,
    table: TableId,
) -> Choice<'v> {
    let preds = q.predicates_on(table);
    let needed = needed_columns(q, table);
    let base = view.base_facts(table);
    let kind = base.spec.map_or(CompressionKind::None, |s| s.compression);
    let mut best = Choice {
        kind: PathKind::BaseScan,
        spec: base.spec,
        key_range: None,
        cost: model.scan_cost(base.pages, base.rows, preds.len())
            + model.decompress_cost(kind, base.rows, needed.len() as f64),
    };
    for cand in view.candidates() {
        let spec = cand.0;
        // A partial index is usable only when its filter is one of the
        // query's own conjuncts (conservative implication check).
        let usable = spec
            .partial_filter
            .as_ref()
            .is_none_or(|f| q.predicates.contains(f));
        if spec.table != table || spec.mv.is_some() || spec.clustered || !usable {
            continue;
        }
        if let Some(c) = index_path(view, model, q, cand, &preds, &needed) {
            if c.cost < best.cost {
                best = c;
            }
        }
    }
    best
}

/// Plan one query over a view of a configuration: the cheapest path per
/// table plus join, grouping and sort work, or a matching MV index when it
/// undercuts all of that.
pub fn plan_query<V: PathView>(view: &V, model: &CostModel, q: &Query) -> QueryPlan {
    // Relational plan: per-table best paths + join CPU + grouping/sort.
    let tables = q.tables();
    let mut cost = 0.0;
    let mut choices = Vec::with_capacity(tables.len());
    for t in &tables {
        let c = best_table_path(view, model, q, *t);
        cost += c.cost;
        choices.push(c);
    }
    let joined = view.joined_rows(q);
    cost += joined * model.cpu_per_tuple * q.joins.len() as f64;

    // Grouping: streaming when the root path delivers group-by order.
    let out_rows = view.output_rows(q);
    if q.is_grouping() {
        let root_order: &[ColumnId] = match choices.first().and_then(|c| c.spec) {
            Some(spec) => &spec.key_cols,
            None => &[],
        };
        let group_cols: Vec<ColumnId> = q
            .group_by
            .iter()
            .filter(|(t, _)| *t == q.root)
            .map(|(_, c)| *c)
            .collect();
        let streaming = !group_cols.is_empty()
            && group_cols.len() == q.group_by.len()
            && root_order.len() >= group_cols.len()
            && root_order[..group_cols.len()] == group_cols[..];
        if streaming {
            cost += joined * model.cpu_per_tuple * 0.5;
        } else {
            cost += joined * model.cpu_per_tuple + model.sort_cost(out_rows);
        }
    }
    if !q.order_by.is_empty() {
        cost += model.sort_cost(out_rows);
    }

    // An MV path can replace the whole plan.
    let mut best_mv: Option<&IndexSpec> = None;
    for (spec, pages) in view.candidates() {
        let Some(mv) = &spec.mv else { continue };
        if !mv_matches(q, mv) || !view.can_execute(q, spec, PathKind::MvScan) {
            continue;
        }
        let rows = view.rows(spec);
        let sel: f64 = q.predicates.iter().map(|p| view.selectivity(p)).product();
        let mv_cost = model.scan_cost(pages, rows, q.predicates.len())
            + model.decompress_cost(spec.compression, rows, mv.stored_columns() as f64)
            + rows * sel * model.cpu_per_tuple;
        if mv_cost < cost {
            cost = mv_cost;
            best_mv = Some(spec);
        }
    }
    QueryPlan {
        mv: best_mv.map(|spec| TablePath {
            table: spec.table,
            kind: PathKind::MvScan,
            index: Some(spec.clone()),
            key_range: None,
            cost,
        }),
        tables: choices
            .into_iter()
            .zip(tables)
            .map(|(c, t)| c.into_path(t))
            .collect(),
        cost,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SizeEstimate;
    use cadb_common::{ColumnDef, DataType, Row, TableSchema, Value};

    fn db() -> Database {
        let mut db = Database::new();
        let t = db
            .create_table(
                TableSchema::new(
                    "sales",
                    vec![
                        ColumnDef::new("orderid", DataType::Int),
                        ColumnDef::new("shipdate", DataType::Date),
                        ColumnDef::new("state", DataType::Char { len: 2 }),
                        ColumnDef::new("price", DataType::Decimal { scale: 2 }),
                        ColumnDef::new("discount", DataType::Decimal { scale: 2 }),
                    ],
                    vec![cadb_common::ColumnId(0)],
                )
                .unwrap(),
            )
            .unwrap();
        let states = ["CA", "WA", "OR", "NY"];
        let rows: Vec<Row> = (0..20_000)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::Int(14_000 + i % 365),
                    Value::Str(states[(i % 4) as usize].into()),
                    Value::Int(100 + i % 500),
                    Value::Int(i % 50),
                ])
            })
            .collect();
        db.insert_rows(t, rows).unwrap();
        db
    }

    fn q1(db: &Database) -> Query {
        // The paper's Q1: range on shipdate + equality on state, SUM agg.
        let t = db.table_id("sales").unwrap();
        let mut q = Query {
            root: t,
            ..Default::default()
        };
        q.predicates.push(Predicate::between(
            t,
            ColumnId(1),
            Value::Int(14_100),
            Value::Int(14_200),
        ));
        q.predicates
            .push(Predicate::eq(t, ColumnId(2), Value::Str("CA".into())));
        for c in [1u16, 2, 3, 4] {
            q.mark_used(t, ColumnId(c));
        }
        q.aggregates.push(crate::stmt::Aggregate {
            func: cadb_sql::AggFunc::Sum,
            columns: vec![(t, ColumnId(3)), (t, ColumnId(4))],
            expr: None,
        });
        q
    }

    fn priced(db: &Database, spec: IndexSpec) -> PhysicalStructure {
        // Rough honest sizing: rows × stored-column width.
        let t = spec.table;
        let rows = db.stats(t).n_rows as f64;
        let width: f64 = spec
            .stored_columns()
            .iter()
            .map(|c| db.dtypes(t)[c.raw()].fixed_width() as f64)
            .sum::<f64>()
            + 12.0;
        let est = SizeEstimate::uncompressed(rows * width, rows);
        let est = if spec.compression.is_compressed() {
            est.compressed(0.45)
        } else {
            est
        };
        PhysicalStructure { spec, size: est }
    }

    fn plan(db: &Database, q: &Query, cfg: &Configuration) -> QueryPlan {
        plan_query(&Hypothetical { db, cfg }, &CostModel::default(), q)
    }

    #[test]
    fn covering_index_beats_table_scan() {
        let db = db();
        let q = q1(&db);
        let t = q.root;
        let base = plan(&db, &q, &Configuration::empty());
        assert!(base.is_base_only());

        let ix = IndexSpec::secondary(t, vec![ColumnId(1), ColumnId(2)])
            .with_includes(vec![ColumnId(3), ColumnId(4)]);
        let cfg = Configuration::new(vec![priced(&db, ix)]);
        let with_ix = plan(&db, &q, &cfg);
        assert!(with_ix.cost < base.cost / 2.0, "{with_ix:?} vs {base:?}");
        assert_eq!(with_ix.tables[0].kind, PathKind::IndexSeek);
        assert!(with_ix.tables[0].index.is_some());
        // The hypothetical view prices a seek without materializing a range.
        assert!(with_ix.tables[0].key_range.is_none());
        assert_eq!(with_ix.describe(), with_ix.tables[0].describe());
    }

    #[test]
    fn compressed_covering_index_cheaper_when_io_bound() {
        let db = db();
        let q = q1(&db);
        let t = q.root;
        let ix = IndexSpec::secondary(t, vec![ColumnId(1), ColumnId(2)])
            .with_includes(vec![ColumnId(3), ColumnId(4)]);
        let plain = Configuration::new(vec![priced(&db, ix.clone())]);
        let comp = Configuration::new(vec![priced(
            &db,
            ix.with_compression(CompressionKind::Page),
        )]);
        let c_plain = plan(&db, &q, &plain).cost;
        let c_comp = plan(&db, &q, &comp).cost;
        // Here the seek touches few pages, so decompression CPU should make
        // the compressed variant slightly *worse* — the effect the paper's
        // Example 2 warns about.
        assert!(c_comp >= c_plain, "{c_comp} vs {c_plain}");
    }

    #[test]
    fn non_covering_index_pays_lookups() {
        let db = db();
        let q = q1(&db);
        let t = q.root;
        let narrow = IndexSpec::secondary(t, vec![ColumnId(1)]);
        let covering = IndexSpec::secondary(t, vec![ColumnId(1), ColumnId(2)])
            .with_includes(vec![ColumnId(3), ColumnId(4)]);
        let narrow = plan(&db, &q, &Configuration::new(vec![priced(&db, narrow)]));
        let cover = plan(&db, &q, &Configuration::new(vec![priced(&db, covering)]));
        assert!(cover.cost < narrow.cost);
        assert!(!cover.same_paths(&narrow));

        // A point query is selective enough for the lookups to pay off.
        let mut point = Query {
            root: t,
            ..Default::default()
        };
        point
            .predicates
            .push(Predicate::eq(t, ColumnId(0), Value::Int(7)));
        point.mark_used(t, ColumnId(3));
        let by_id = IndexSpec::secondary(t, vec![ColumnId(0)]);
        let p = plan(&db, &point, &Configuration::new(vec![priced(&db, by_id)]));
        assert_eq!(p.tables[0].kind, PathKind::LookupSeek);
        assert!(p.describe().ends_with("+ lookups"));
    }

    #[test]
    fn partial_index_only_when_filter_implied() {
        let db = db();
        let q = q1(&db);
        let t = q.root;
        let mut spec = IndexSpec::secondary(t, vec![ColumnId(1)]).with_includes(vec![
            ColumnId(2),
            ColumnId(3),
            ColumnId(4),
        ]);
        // Filter matching the query's state predicate → usable and cheap.
        spec.partial_filter = Some(Predicate::eq(t, ColumnId(2), Value::Str("CA".into())));
        let c_match = plan(
            &db,
            &q,
            &Configuration::new(vec![priced(&db, spec.clone())]),
        )
        .cost;
        let base = plan(&db, &q, &Configuration::empty()).cost;
        assert!(c_match < base);

        // Filter NOT implied by the query → ignored (falls back to scan).
        spec.partial_filter = Some(Predicate::eq(t, ColumnId(2), Value::Str("TX".into())));
        let c_other = plan(&db, &q, &Configuration::new(vec![priced(&db, spec)])).cost;
        assert!((c_other - base).abs() < 1e-9);
    }

    #[test]
    fn clustered_index_replaces_base_scan() {
        let db = db();
        let q = q1(&db);
        let t = q.root;
        let base = plan(&db, &q, &Configuration::empty()).cost;
        // A PAGE-compressed clustered index shrinks the base scan I/O.
        let cix =
            IndexSpec::clustered(t, vec![ColumnId(0)]).with_compression(CompressionKind::Page);
        let cfg = Configuration::new(vec![priced(&db, cix)]);
        let compressed = plan(&db, &q, &cfg).cost;
        assert!(compressed < base, "{compressed} vs {base}");
    }

    #[test]
    fn key_range_extraction() {
        let db = db();
        let q = q1(&db);
        let preds = q.predicates_on(q.root);
        // shipdate BETWEEN is the leading key → a closed range, 1 consumed.
        let r = extract_key_range(&preds, &[ColumnId(1), ColumnId(2)]).unwrap();
        assert_eq!(r.lo, vec![Value::Int(14_100)]);
        assert_eq!(r.hi, vec![Value::Int(14_200)]);
        assert_eq!(r.consumed, 1);
        // state = 'CA' first → equality continues into the range.
        let r = extract_key_range(&preds, &[ColumnId(2), ColumnId(1)]).unwrap();
        assert_eq!(r.lo, vec![Value::Str("CA".into()), Value::Int(14_100)]);
        assert_eq!(r.hi, vec![Value::Str("CA".into()), Value::Int(14_200)]);
        assert_eq!(r.consumed, 2);
        // No predicate on the leading key column → no range.
        assert!(extract_key_range(&preds, &[ColumnId(3)]).is_none());
        assert!(extract_key_range(&preds, &[]).is_none());
    }

    #[test]
    fn key_range_in_list_and_one_sided() {
        let t = TableId(0);
        let inlist = Predicate {
            table: t,
            column: ColumnId(0),
            op: crate::predicate::PredOp::Eq,
            values: vec![Value::Int(9), Value::Int(2), Value::Int(5)],
        };
        let r = extract_key_range(&[&inlist], &[ColumnId(0), ColumnId(1)]).unwrap();
        assert_eq!(r.lo, vec![Value::Int(2)]);
        assert_eq!(r.hi, vec![Value::Int(9)]);
        // The IN-list terminates the prefix even with a second key column.
        assert_eq!(r.consumed, 1);

        let lt = Predicate {
            table: t,
            column: ColumnId(0),
            op: crate::predicate::PredOp::Lt,
            values: vec![Value::Int(7)],
        };
        let r = extract_key_range(&[&lt], &[ColumnId(0)]).unwrap();
        assert!(r.lo.is_empty());
        assert_eq!(r.hi, vec![Value::Int(7)]);
        assert!(!r.is_unbounded());

        // Neq is not sargable: nothing to seek with.
        let neq = Predicate {
            table: t,
            column: ColumnId(0),
            op: crate::predicate::PredOp::Neq,
            values: vec![Value::Int(7)],
        };
        assert!(extract_key_range(&[&neq], &[ColumnId(0)]).is_none());
    }

    #[test]
    fn key_prefix_math() {
        let db = db();
        let q = q1(&db);
        let t = q.root;
        let preds = q.predicates_on(t);
        let cfg = Configuration::empty();
        let view = Hypothetical { db: &db, cfg: &cfg };
        let spec = IndexSpec::secondary(t, vec![ColumnId(1)]);
        let sel = |keys: &[ColumnId]| {
            let prefix = key_prefix(&preds, keys);
            (view.seek(&spec, &prefix).unwrap().0, prefix.len())
        };
        // (shipdate range, state eq): shipdate first → range stops prefix.
        let (sel_a, used_a) = sel(&[ColumnId(1), ColumnId(2)]);
        assert_eq!(used_a, 1);
        // (state eq, shipdate range): equality continues into the range.
        let (sel_b, used_b) = sel(&[ColumnId(2), ColumnId(1)]);
        assert_eq!(used_b, 2);
        assert!(sel_b < sel_a);
    }

    /// The one place selectivity and key range part ways, stated once: a
    /// multi-value IN-list keeps the *prefix* going (its selectivity
    /// multiplies on) but ends the contiguous *range*.
    #[test]
    fn in_list_continues_the_prefix_and_ends_the_range() {
        let t = TableId(0);
        let inlist = Predicate {
            table: t,
            column: ColumnId(0),
            op: crate::predicate::PredOp::Eq,
            values: vec![Value::Int(9), Value::Int(2)],
        };
        let range = Predicate::between(t, ColumnId(1), Value::Int(1), Value::Int(3));
        let prefix = key_prefix(&[&range, &inlist], &[ColumnId(0), ColumnId(1)]);
        assert_eq!(prefix, vec![&inlist, &range]);
        let r = KeyRange::from_prefix(&prefix).unwrap();
        assert_eq!((r.lo, r.hi), (vec![Value::Int(2)], vec![Value::Int(9)]));
        assert_eq!(r.consumed, 1);
        // An empty IN-list bounds nothing.
        let empty = Predicate {
            values: Vec::new(),
            ..inlist.clone()
        };
        assert!(extract_key_range(&[&empty], &[ColumnId(0)]).is_none());
    }
}
