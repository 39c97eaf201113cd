//! Benchmark inputs: the fixed `rich` configuration, the query classes and
//! the seeded write stream. Everything here is a pure function of the
//! database and `--seed`; the library only ever sees the generated inputs.

use cadb::common::rng::derive_seed;
use cadb::common::{ColumnId, Result, TableId};
use cadb::compression::CompressionKind;
use cadb::engine::access_path::needed_columns;
use cadb::engine::stmt::ScalarExpr;
use cadb::engine::{
    BulkDelete, BulkInsert, BulkUpdate, Configuration, Database, IndexSpec, MvSpec,
    PhysicalStructure, Query, Statement, WhatIfOptimizer, Workload,
};
use cadb::exec::{MaterializedConfig, PathKind, QueryPlan};
use cadb::sql::AggFunc;

/// `orderkey` is column 0 of both `lineitem` and `orders`.
const ORDERKEY: ColumnId = ColumnId(0);
/// Columns the stream's UPDATEs perturb: `lineitem.quantity`, `orders.totalprice`.
const LINEITEM_QUANTITY: ColumnId = ColumnId(4);
const ORDERS_TOTALPRICE: ColumnId = ColumnId(3);

/// The benchmark-defined configuration `rich`. It is *not* advisor output,
/// so an advisor change cannot move the `query` and `serve` workloads:
///
/// - a clustered PAGE index on `lineitem(orderkey)` and `orders(orderkey)`;
/// - one ROW-compressed covering secondary index per query, keyed on the
///   query's predicate columns (the `tests/plan_equivalence.rs` rule);
/// - one MV index per MV-answerable grouped query (predicates on grouping
///   columns, aggregates `COUNT(*)`/`SUM(col)`).
pub fn rich_config(db: &Database, w: &Workload) -> Configuration {
    let opt = WhatIfOptimizer::new(db);
    let mut cfg = Configuration::empty();
    for name in ["lineitem", "orders"] {
        let t = db.table_id(name).expect("TPC-H table");
        let spec = IndexSpec::clustered(t, vec![ORDERKEY]).with_compression(CompressionKind::Page);
        let size = opt.estimate_uncompressed_size(&spec).compressed(0.6);
        cfg.add(PhysicalStructure { spec, size });
    }
    for (q, _) in w.queries() {
        if let Some(spec) = covering_index(q) {
            let size = opt.estimate_uncompressed_size(&spec).compressed(0.5);
            cfg.add(PhysicalStructure { spec, size });
        }
        if let Some(spec) = mv_index(q) {
            if !cfg.contains(&spec) {
                let size = opt.estimate_uncompressed_size(&spec).compressed(0.5);
                cfg.add(PhysicalStructure { spec, size });
            }
        }
    }
    cfg
}

fn covering_index(q: &Query) -> Option<IndexSpec> {
    let t = q.root;
    let mut key: Vec<ColumnId> = Vec::new();
    for p in q.predicates_on(t) {
        if !key.contains(&p.column) {
            key.push(p.column);
        }
    }
    if key.is_empty() {
        return None;
    }
    let includes = needed_columns(q, t)
        .into_iter()
        .filter(|c| !key.contains(c))
        .collect();
    Some(
        IndexSpec::secondary(t, key)
            .with_includes(includes)
            .with_compression(CompressionKind::Row),
    )
}

fn mv_index(q: &Query) -> Option<IndexSpec> {
    if q.group_by.is_empty()
        || !q
            .predicates
            .iter()
            .all(|p| q.group_by.contains(&(p.table, p.column)))
    {
        return None;
    }
    let answerable = q.aggregates.iter().all(|a| {
        matches!(
            (&a.func, &a.expr),
            (AggFunc::Count, None) | (AggFunc::Sum, Some(ScalarExpr::Column(..)))
        )
    });
    if !answerable {
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

/// The class a query falls in under the plan it gets, by how its **root**
/// table is read. Kernel/codec gains show on `FullScan`, planner/cursor
/// gains on `Seek`, so the two move different metrics of the same run.
///
/// The share is of the structure's *rows* inside the pushed-down key
/// range, not of its leaves: at this scale a covering index has a few
/// dozen leaves, and a boundary leaf more or less would move queries
/// between classes from one seed to the next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// No key range, or one holding ≥ 80 % of the rows.
    FullScan,
    /// Pushed-down key range holding < 10 % of the rows.
    Seek,
    /// Answered by an MV index.
    Mv,
    /// A range wide enough to be neither.
    Other,
}

pub fn classify(mat: &MaterializedConfig, q: &Query, plan: &QueryPlan) -> Result<QueryClass> {
    if plan.mv.is_some() {
        return Ok(QueryClass::Mv);
    }
    let Some(path) = plan.table_path(q.root) else {
        return Ok(QueryClass::Other);
    };
    let (Some(ix), Some(r)) = (
        path.index.as_ref().and_then(|s| mat.structure(s)),
        path.key_range
            .as_ref()
            .filter(|_| path.kind == PathKind::IndexSeek),
    ) else {
        return Ok(QueryClass::FullScan);
    };
    let (in_range, _) = ix.range_scan(
        (!r.lo.is_empty()).then_some(r.lo.as_slice()),
        (!r.hi.is_empty()).then_some(r.hi.as_slice()),
    )?;
    let share = in_range.len() as f64 / ix.n_rows().max(1) as f64;
    Ok(if share < 0.10 {
        QueryClass::Seek
    } else if share >= 0.80 {
        QueryClass::FullScan
    } else {
        QueryClass::Other
    })
}

/// Shape of the `serve` write stream: `epochs` checkpoint-delimited epochs
/// followed by a tail that no checkpoint follows.
#[derive(Debug, Clone, Copy)]
pub struct StreamShape {
    pub epochs: usize,
    /// Single-statement commits per epoch (a multiple of 16, so group
    /// commits of 16 never straddle a checkpoint).
    pub epoch_commits: usize,
    /// Leading INSERT-only commits of each epoch: reads in this stretch see
    /// an append-only delta, which the store folds by *patching* pages.
    pub insert_only: usize,
    /// Reads spread over the INSERT-only stretch of each epoch. One more
    /// read ends each epoch, after updates and deletes: a *rebuilt* fold.
    pub patched_reads: usize,
    /// Mixed commits after the last checkpoint: cheap latency samples, and
    /// the log tail `recover_with_checkpoint` replays.
    pub tail_commits: usize,
}

impl StreamShape {
    pub fn total_commits(&self) -> usize {
        self.epochs * self.epoch_commits + self.tail_commits
    }
}

/// One step of the stream, with the `prepare_*` label that makes its
/// synthesized rows a function of the benchmark seed.
#[derive(Debug, Clone)]
pub struct WriteOp {
    pub stmt: Statement,
    pub label: String,
}

/// The seeded single-statement write stream of one rep. The first
/// `insert_only` commits of each epoch are INSERTs; every other commit is
/// 80 % INSERT (1/4/50 rows) / 10 % UPDATE (5 rows) / 10 % DELETE (2 rows).
/// 85 % of the statements hit `lineitem`, 15 % `orders`.
pub fn write_stream(db: &Database, seed: u64, shape: StreamShape) -> Vec<WriteOp> {
    let lineitem = db.table_id("lineitem").expect("TPC-H table");
    let orders = db.table_id("orders").expect("TPC-H table");
    let mut rng = SplitMix64(derive_seed(seed, "benchmark.write_stream"));
    let mut ops = Vec::with_capacity(shape.total_commits());
    for k in 0..shape.total_commits() {
        let in_epochs = k < shape.epochs * shape.epoch_commits;
        let insert_only = in_epochs && k % shape.epoch_commits < shape.insert_only;
        let on_lineitem = rng.below(100) < 85;
        let table: TableId = if on_lineitem { lineitem } else { orders };
        let insert_rows = [1u64, 4, 50][rng.below(3) as usize];
        let kind = rng.below(10);
        let stmt = if insert_only || kind < 8 {
            Statement::Insert(BulkInsert {
                table,
                n_rows: insert_rows,
            })
        } else if kind == 8 {
            Statement::Update(BulkUpdate {
                table,
                n_rows: 5,
                column: if on_lineitem {
                    LINEITEM_QUANTITY
                } else {
                    ORDERS_TOTALPRICE
                },
            })
        } else {
            Statement::Delete(BulkDelete { table, n_rows: 2 })
        };
        ops.push(WriteOp {
            stmt,
            label: format!("w{seed}.{k}"),
        });
    }
    ops
}

/// SplitMix64: the stream generator's own RNG, so the benchmark depends on
/// nothing but the library under test.
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (modulo bias is irrelevant at these ranges).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}
