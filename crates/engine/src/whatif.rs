//! The what-if optimizer API (§3).
//!
//! Physical design tools ask "what would this query cost under this
//! hypothetical configuration?" without materializing anything. This module
//! provides that API plus update costing and uncompressed size estimates
//! for arbitrary [`IndexSpec`]s (compressed sizes come from the estimation
//! framework in `cadb-core`, which prices the CF separately).
//!
//! The optimizer is `Sync` and its batched entry points are deterministic
//! for every [`Parallelism`] setting, which is what lets the strategy
//! objects layered on top in `cadb-core` (`SizeEstimator`,
//! `CandidateSelection`, `EnumerationStrategy` — all `Send + Sync`) share
//! one optimizer across worker pools and concurrent advisor runs.

use crate::access_path::{plan_query, Hypothetical, QueryPlan};
use crate::cardinality::{mv_estimated_rows, predicate_selectivity};
use crate::catalog::Database;
use crate::config::{Configuration, IndexSpec, Parallelism, SizeEstimate};
use crate::cost::CostModel;
use crate::stmt::{BulkDelete, BulkInsert, BulkUpdate, Statement, Workload};
use cadb_common::par::par_map;
use cadb_common::DataType;
use cadb_compression::analyze::PAGE_PAYLOAD;

/// Per-row overhead of a stored index row (slot + header). Public because
/// the deduction framework must decompose size reductions into per-column
/// and per-index parts consistently with this accounting.
pub const ROW_OVERHEAD: f64 = 5.0;
/// Row-locator bytes appended to secondary-index rows.
const ROW_LOCATOR: f64 = 8.0;

/// The what-if costing interface over a database.
#[derive(Debug)]
pub struct WhatIfOptimizer<'a> {
    db: &'a Database,
    model: CostModel,
    parallelism: Parallelism,
    /// Multiplicative correction for write-maintenance estimates: the
    /// geometric-mean `estimated / measured` ratio of a measured run
    /// (`ErrorModel::maintenance_bias`). Raw estimates are divided by it,
    /// so feeding a measured bias back re-centers the what-if write costs
    /// on the measurement — the same closed loop `calibrate_samplecf`
    /// gives the size estimates. 1.0 (the default) leaves costs untouched.
    maintenance_bias: f64,
}

impl<'a> WhatIfOptimizer<'a> {
    /// With the default cost model.
    pub fn new(db: &'a Database) -> Self {
        WhatIfOptimizer {
            db,
            model: CostModel::default(),
            parallelism: Parallelism::Auto,
            maintenance_bias: 1.0,
        }
    }

    /// With a custom cost model.
    pub fn with_model(db: &'a Database, model: CostModel) -> Self {
        WhatIfOptimizer {
            db,
            model,
            parallelism: Parallelism::Auto,
            maintenance_bias: 1.0,
        }
    }

    /// Same optimizer with a measured maintenance bias (geometric-mean
    /// `estimated / measured` over a run's write statements) fed back into
    /// the write-cost model: every INSERT/UPDATE/DELETE estimate is divided
    /// by it. Non-finite or non-positive biases are ignored.
    pub fn with_maintenance_bias(mut self, bias: f64) -> Self {
        if bias.is_finite() && bias > 0.0 {
            self.maintenance_bias = bias;
        }
        self
    }

    /// The maintenance-bias correction in effect (1.0 = uncorrected).
    pub fn maintenance_bias(&self) -> f64 {
        self.maintenance_bias
    }

    /// Same optimizer with a parallelism setting for batched entry points
    /// ([`Self::cost_workload_for`] and the batch sweeps `cadb-core` runs).
    /// Results never depend on this; `Parallelism::Serial` is the escape
    /// hatch that keeps everything on the calling thread.
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }

    /// The parallelism setting batched entry points use.
    pub fn parallelism(&self) -> Parallelism {
        self.parallelism
    }

    /// The database.
    pub fn db(&self) -> &Database {
        self.db
    }

    /// The cost model in use.
    pub fn model(&self) -> &CostModel {
        &self.model
    }

    /// Optimizer-estimated cost of a query under a configuration.
    pub fn query_cost(&self, q: &crate::stmt::Query, cfg: &Configuration) -> f64 {
        self.explain(q, cfg).cost
    }

    /// The plan the optimizer assumes under a configuration — the same
    /// [`QueryPlan`] the compressed executor consumes, produced by the same
    /// planner over the [`Hypothetical`] view.
    pub fn explain(&self, q: &crate::stmt::Query, cfg: &Configuration) -> QueryPlan {
        plan_query(&Hypothetical { db: self.db, cfg }, &self.model, q)
    }

    /// Cost of a bulk insert under a configuration: base append plus
    /// maintenance of every affected structure, with compression CPU per
    /// Appendix A.1.
    pub fn insert_cost(&self, ins: &BulkInsert, cfg: &Configuration) -> f64 {
        let n = ins.n_rows as f64;
        let row_width = self.db.schema(ins.table).row_width() as f64;
        let m = &self.model;
        // Base heap/clustered append.
        let base_kind = crate::access_path::base_structure(cfg, ins.table)
            .map(|s| s.spec.compression)
            .unwrap_or(cadb_compression::CompressionKind::None);
        let mut cost = n * m.cpu_per_tuple
            + (n * row_width / PAGE_PAYLOAD as f64) * m.seq_page_io
            + m.compress_cost(base_kind, n);
        for s in cfg.structures() {
            let spec = &s.spec;
            if spec.clustered && spec.table == ins.table && spec.mv.is_none() {
                // Ordered insertion into the clustered key.
                cost += n * m.insert_io_per_row;
                continue;
            }
            let affected = match &spec.mv {
                Some(mv) if mv.root == ins.table => n, // every fact row hits one group
                Some(_) => continue,
                None if spec.table == ins.table => {
                    let sel = spec
                        .partial_filter
                        .as_ref()
                        .map(|f| predicate_selectivity(self.db, f))
                        .unwrap_or(1.0);
                    n * sel
                }
                None => continue,
            };
            cost += affected * (m.cpu_per_tuple + m.insert_io_per_row)
                + m.compress_cost(spec.compression, affected);
        }
        cost / self.maintenance_bias
    }

    /// Cost of a bulk update under a configuration: locate + rewrite the
    /// base rows, plus maintenance of every structure that stores the
    /// rewritten column. Under MVCC an update is a delete + insert of the
    /// new row version, so affected secondary indexes pay a remove and a
    /// re-insert, and an MV over the table pays a group re-aggregation.
    pub fn update_cost(&self, upd: &BulkUpdate, cfg: &Configuration) -> f64 {
        let n = upd.n_rows as f64;
        let m = &self.model;
        let base_kind = crate::access_path::base_structure(cfg, upd.table)
            .map(|s| s.spec.compression)
            .unwrap_or(cadb_compression::CompressionKind::None);
        // Locate the row versions, decode the pages they live in, write
        // the new versions back compressed.
        let mut cost = n * m.cpu_per_tuple
            + m.lookup_cost(n)
            + m.decompress_cost(base_kind, n, 1.0)
            + m.compress_cost(base_kind, n);
        for s in cfg.structures() {
            let spec = &s.spec;
            let affected = match &spec.mv {
                // An MV over this table re-aggregates the touched groups
                // when the rewritten column is stored in the view.
                Some(mv) if mv.root == upd.table => {
                    let col = (upd.table, upd.column);
                    if mv.group_by.contains(&col) || mv.agg_columns.contains(&col) {
                        n
                    } else {
                        continue;
                    }
                }
                Some(_) => continue,
                // A secondary/clustered structure pays delete + re-insert
                // when it stores the rewritten column.
                None if spec.table == upd.table => {
                    if spec.clustered || spec.stored_columns().contains(&upd.column) {
                        n
                    } else {
                        continue;
                    }
                }
                None => continue,
            };
            // Delete + insert of the new version: two index touches.
            cost += affected * (m.cpu_per_tuple + 2.0 * m.insert_io_per_row)
                + m.compress_cost(spec.compression, affected);
        }
        cost / self.maintenance_bias
    }

    /// Cost of a bulk delete under a configuration: locate the victim
    /// versions and stamp their end watermarks (no new version is written,
    /// so no compression on the base), plus one locator removal per
    /// structure over the table and a group re-aggregation (−1 deltas) per
    /// MV rooted at it.
    pub fn delete_cost(&self, del: &BulkDelete, cfg: &Configuration) -> f64 {
        let n = del.n_rows as f64;
        let m = &self.model;
        let base_kind = crate::access_path::base_structure(cfg, del.table)
            .map(|s| s.spec.compression)
            .unwrap_or(cadb_compression::CompressionKind::None);
        // Locate the victims and decode the pages their versions live in
        // to stamp the tombstone; nothing is re-compressed.
        let mut cost =
            n * m.cpu_per_tuple + m.lookup_cost(n) + m.decompress_cost(base_kind, n, 1.0);
        for s in cfg.structures() {
            let spec = &s.spec;
            let affected = match &spec.mv {
                // Every deleted fact row retracts from exactly one group.
                Some(mv) if mv.root == del.table => n,
                Some(_) => continue,
                // Any structure over the table drops the row's locator,
                // partial structures only for rows passing their filter.
                None if spec.table == del.table => {
                    let sel = spec
                        .partial_filter
                        .as_ref()
                        .map(|f| predicate_selectivity(self.db, f))
                        .unwrap_or(1.0);
                    n * sel
                }
                None => continue,
            };
            // One index touch per removal — half an update's delete+insert.
            cost += affected * (m.cpu_per_tuple + m.insert_io_per_row);
        }
        cost / self.maintenance_bias
    }

    /// Cost of any workload statement.
    pub fn statement_cost(&self, stmt: &Statement, cfg: &Configuration) -> f64 {
        match stmt {
            Statement::Select(q) => self.query_cost(q, cfg),
            Statement::Insert(i) => self.insert_cost(i, cfg),
            Statement::Update(u) => self.update_cost(u, cfg),
            Statement::Delete(d) => self.delete_cost(d, cfg),
        }
    }

    /// Weighted total workload cost — the objective physical design tools
    /// minimize.
    pub fn workload_cost(&self, w: &Workload, cfg: &Configuration) -> f64 {
        w.statements
            .iter()
            .map(|(s, weight)| weight * self.statement_cost(s, cfg))
            .sum()
    }

    /// Batched what-if costing: price the workload under **many**
    /// hypothetical configurations in one parallel sweep.
    ///
    /// This is the entry point the advisor's enumeration and candidate
    /// selection stages drive: instead of pricing candidate configurations
    /// one at a time, they hand the whole round here and the pool of worker
    /// threads (sized by [`Self::parallelism`]) spreads the independent
    /// costings out. Element `i` of the result is exactly
    /// `self.workload_cost(w, &cfgs[i])` — each costing runs wholly inside
    /// one worker, so the floating-point sequence per configuration is
    /// unchanged and the result is bit-for-bit identical to the serial loop.
    pub fn cost_workload_for(&self, w: &Workload, cfgs: &[Configuration]) -> Vec<f64> {
        let _span = cadb_common::obs::span("whatif.batch");
        cadb_common::obs::counter_add("whatif.configs_costed", cfgs.len() as u64);
        par_map(self.parallelism, cfgs, |_, cfg| self.workload_cost(w, cfg))
    }

    /// Estimated size of a structure *without* compression, from catalog
    /// statistics: average stored-row width × estimated rows. The CF for a
    /// compressed variant is estimated elsewhere (SampleCF / deduction) and
    /// applied via [`SizeEstimate::compressed`].
    pub fn estimate_uncompressed_size(&self, spec: &IndexSpec) -> SizeEstimate {
        let (rows, width, ..) = self.row_footprint(spec);
        SizeEstimate::uncompressed(rows * width, rows)
    }

    /// Estimated **stored** size of an uncompressed (`NONE`) structure: what
    /// the storage layer's `size_bytes()` will measure, not the row
    /// footprint. The columnar leaf layout drops the per-row header the
    /// footprint charges and keeps one null bit per column per row (the
    /// footprint rounds the bitmap up to whole bytes per row); each leaf
    /// pays the fixed encode header, and internal separator pages are
    /// charged on top. Without this, `NONE` candidates were priced at their
    /// footprint and systematically over-estimated.
    pub fn estimate_stored_size(&self, spec: &IndexSpec) -> SizeEstimate {
        let (rows, width, n_cols, bitmap) = self.row_footprint(spec);
        let footprint = rows * width;
        let c = n_cols as f64;
        // Swap the footprint's per-row charges (header + rounded bitmap)
        // for the leaf layout's exact one-bit-per-column bitmaps.
        let stored_width = (width - ROW_OVERHEAD - bitmap + c / 8.0).max(1.0);
        // Fixed per-leaf encode header: page header + per-column tag and
        // block-length words, amortized at the full-page packing rate.
        let fixed = 4.0 + 5.0 * c;
        let payload = PAGE_PAYLOAD as f64;
        let leaf_bytes = rows * stored_width * payload / (payload - fixed);
        let pages = leaf_bytes / payload;
        SizeEstimate {
            bytes: leaf_bytes + crate::config::internal_overhead_bytes(pages),
            pages,
            rows,
            // The layout fraction: stored leaf bytes over the footprint —
            // comparable to a measured `compressed/uncompressed` fraction.
            compression_fraction: leaf_bytes / footprint,
        }
    }

    /// Estimated rows, per-row footprint width, stored column count (row
    /// locator included), and the footprint's per-row bitmap charge of a
    /// structure — the shared base of both size estimates.
    fn row_footprint(&self, spec: &IndexSpec) -> (f64, f64, usize, f64) {
        if let Some(mv) = &spec.mv {
            let rows = mv_estimated_rows(self.db, mv).max(1.0);
            // Group-by columns at their native widths + 8 bytes per SUM
            // aggregate + 8 bytes for COUNT(*).
            let mut width = ROW_OVERHEAD;
            for (t, c) in &mv.group_by {
                width += self.avg_col_width(*t, self.db.dtypes(*t)[c.raw()], c.raw());
            }
            width += 8.0 * (mv.agg_columns.len() as f64 + 1.0);
            let n_cols = mv.group_by.len() + mv.agg_columns.len() + 1;
            return (rows, width, n_cols, 0.0);
        }
        let stats = self.db.stats(spec.table);
        let filter_sel = spec
            .partial_filter
            .as_ref()
            .map(|f| predicate_selectivity(self.db, f))
            .unwrap_or(1.0);
        let rows = (stats.n_rows as f64 * filter_sel).max(1.0);
        let dtypes = self.db.dtypes(spec.table);
        let cols: Vec<usize> = if spec.clustered {
            (0..dtypes.len()).collect()
        } else {
            spec.stored_columns().iter().map(|c| c.raw()).collect()
        };
        let bitmap = (cols.len() as f64 / 8.0).ceil();
        let mut width = ROW_OVERHEAD + bitmap;
        for c in &cols {
            width += self.avg_col_width(spec.table, dtypes[*c], *c);
        }
        let mut n_cols = cols.len();
        if !spec.clustered {
            width += ROW_LOCATOR;
            n_cols += 1;
        }
        (rows, width, n_cols, bitmap)
    }

    fn avg_col_width(&self, table: cadb_common::TableId, dtype: DataType, col: usize) -> f64 {
        match dtype {
            DataType::Varchar { .. } => {
                let stats = self.db.stats(table);
                stats.columns[col].avg_width + 2.0
            }
            other => other.fixed_width() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PhysicalStructure;
    use crate::predicate::Predicate;
    use cadb_common::{ColumnDef, ColumnId, Row, TableId, TableSchema, Value};
    use cadb_compression::CompressionKind;

    fn db() -> Database {
        let mut db = Database::new();
        let t = db
            .create_table(
                TableSchema::new(
                    "f",
                    vec![
                        ColumnDef::new("k", DataType::Int),
                        ColumnDef::new("d", DataType::Date),
                        ColumnDef::new("s", DataType::Varchar { max_len: 20 }),
                    ],
                    vec![ColumnId(0)],
                )
                .unwrap(),
            )
            .unwrap();
        let rows: Vec<Row> = (0..10_000)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::Int(15_000 + i % 300),
                    Value::Str(format!("name{}", i % 50)),
                ])
            })
            .collect();
        db.insert_rows(t, rows).unwrap();
        db
    }

    fn priced(opt: &WhatIfOptimizer<'_>, spec: IndexSpec, cf: f64) -> PhysicalStructure {
        let base = opt.estimate_uncompressed_size(&spec);
        let size = if spec.compression.is_compressed() {
            base.compressed(cf)
        } else {
            base
        };
        PhysicalStructure { spec, size }
    }

    #[test]
    fn insert_cost_grows_with_indexes_and_compression() {
        let db = db();
        let opt = WhatIfOptimizer::new(&db);
        let ins = BulkInsert {
            table: TableId(0),
            n_rows: 5_000,
        };
        let empty = Configuration::empty();
        let c0 = opt.insert_cost(&ins, &empty);

        let ix = IndexSpec::secondary(TableId(0), vec![ColumnId(1)]);
        let cfg1 = Configuration::new(vec![priced(&opt, ix.clone(), 1.0)]);
        let c1 = opt.insert_cost(&ins, &cfg1);
        assert!(c1 > c0);

        let cfg2 = Configuration::new(vec![priced(
            &opt,
            ix.with_compression(CompressionKind::Page),
            0.4,
        )]);
        let c2 = opt.insert_cost(&ins, &cfg2);
        assert!(c2 > c1, "compressed index must cost more to maintain");
    }

    #[test]
    fn maintenance_bias_rescales_write_costs_only() {
        let db = db();
        let ins = BulkInsert {
            table: TableId(0),
            n_rows: 5_000,
        };
        let upd = crate::stmt::BulkUpdate {
            table: TableId(0),
            column: ColumnId(1),
            n_rows: 500,
        };
        let del = crate::stmt::BulkDelete {
            table: TableId(0),
            n_rows: 500,
        };
        let ix = IndexSpec::secondary(TableId(0), vec![ColumnId(1)]);
        let raw = WhatIfOptimizer::new(&db);
        let cfg = Configuration::new(vec![priced(&raw, ix, 1.0)]);
        let corrected = WhatIfOptimizer::new(&db).with_maintenance_bias(2.0);
        assert_eq!(corrected.maintenance_bias(), 2.0);
        // A bias of 2 (estimates ran 2x hot) halves every write estimate…
        for (a, b) in [
            (
                raw.insert_cost(&ins, &cfg),
                corrected.insert_cost(&ins, &cfg),
            ),
            (
                raw.update_cost(&upd, &cfg),
                corrected.update_cost(&upd, &cfg),
            ),
            (
                raw.delete_cost(&del, &cfg),
                corrected.delete_cost(&del, &cfg),
            ),
        ] {
            assert!((a / b - 2.0).abs() < 1e-12, "{a} vs {b}");
        }
        // …and leaves query costs untouched.
        let q = crate::stmt::Query {
            root: TableId(0),
            ..Default::default()
        };
        assert_eq!(raw.query_cost(&q, &cfg), corrected.query_cost(&q, &cfg));
        // Degenerate biases are ignored.
        let nop = WhatIfOptimizer::new(&db)
            .with_maintenance_bias(0.0)
            .with_maintenance_bias(f64::NAN);
        assert_eq!(nop.maintenance_bias(), 1.0);
    }

    #[test]
    fn partial_index_cheaper_to_maintain() {
        let db = db();
        let opt = WhatIfOptimizer::new(&db);
        let ins = BulkInsert {
            table: TableId(0),
            n_rows: 5_000,
        };
        let full = IndexSpec::secondary(TableId(0), vec![ColumnId(1)]);
        let mut part = full.clone();
        part.partial_filter = Some(Predicate::eq(
            TableId(0),
            ColumnId(2),
            Value::Str("name7".into()),
        ));
        let c_full = opt.insert_cost(&ins, &Configuration::new(vec![priced(&opt, full, 1.0)]));
        let c_part = opt.insert_cost(&ins, &Configuration::new(vec![priced(&opt, part, 1.0)]));
        assert!(c_part < c_full);
    }

    #[test]
    fn uncompressed_size_sane() {
        let db = db();
        let opt = WhatIfOptimizer::new(&db);
        let narrow =
            opt.estimate_uncompressed_size(&IndexSpec::secondary(TableId(0), vec![ColumnId(0)]));
        let wide = opt.estimate_uncompressed_size(
            &IndexSpec::secondary(TableId(0), vec![ColumnId(0)])
                .with_includes(vec![ColumnId(1), ColumnId(2)]),
        );
        assert!(wide.bytes > narrow.bytes);
        assert_eq!(narrow.rows, 10_000.0);
        // Clustered stores every column → wider than a narrow secondary,
        // but cheaper than a secondary storing all columns (which also
        // pays the 8-byte row locator).
        let cix =
            opt.estimate_uncompressed_size(&IndexSpec::clustered(TableId(0), vec![ColumnId(0)]));
        assert!(cix.bytes > narrow.bytes);
        assert!(cix.bytes < wide.bytes);
    }

    #[test]
    fn partial_size_scales_with_selectivity() {
        let db = db();
        let opt = WhatIfOptimizer::new(&db);
        let mut spec = IndexSpec::secondary(TableId(0), vec![ColumnId(1)]);
        let full = opt.estimate_uncompressed_size(&spec);
        spec.partial_filter = Some(Predicate::eq(
            TableId(0),
            ColumnId(2),
            Value::Str("name7".into()),
        ));
        let part = opt.estimate_uncompressed_size(&spec);
        assert!(
            part.bytes < full.bytes / 10.0,
            "{} vs {}",
            part.bytes,
            full.bytes
        );
    }

    #[test]
    fn batched_costing_matches_serial_loop() {
        let db = db();
        let ins = BulkInsert {
            table: TableId(0),
            n_rows: 1000,
        };
        let mut w = Workload::default();
        w.push(Statement::Insert(ins), 2.0);
        let mk = |opt: &WhatIfOptimizer<'_>| -> Vec<Configuration> {
            let ix = IndexSpec::secondary(TableId(0), vec![ColumnId(1)]);
            vec![
                Configuration::empty(),
                Configuration::new(vec![priced(opt, ix.clone(), 1.0)]),
                Configuration::new(vec![priced(
                    opt,
                    ix.with_compression(CompressionKind::Page),
                    0.4,
                )]),
            ]
        };
        let serial = WhatIfOptimizer::new(&db).with_parallelism(Parallelism::Serial);
        let cfgs = mk(&serial);
        let expect: Vec<f64> = cfgs.iter().map(|c| serial.workload_cost(&w, c)).collect();
        for par in [
            Parallelism::Serial,
            Parallelism::Auto,
            Parallelism::Threads(8),
        ] {
            let opt = WhatIfOptimizer::new(&db).with_parallelism(par);
            let got = opt.cost_workload_for(&w, &cfgs);
            assert_eq!(got, expect, "{par:?} diverged from serial");
        }
    }

    #[test]
    fn workload_cost_weights() {
        let db = db();
        let opt = WhatIfOptimizer::new(&db);
        let ins = BulkInsert {
            table: TableId(0),
            n_rows: 1000,
        };
        let mut w = Workload::default();
        w.push(Statement::Insert(ins.clone()), 1.0);
        let base = opt.workload_cost(&w, &Configuration::empty());
        let mut w2 = Workload::default();
        w2.push(Statement::Insert(ins), 3.0);
        let tripled = opt.workload_cost(&w2, &Configuration::empty());
        assert!((tripled - 3.0 * base).abs() < 1e-9);
    }
}
