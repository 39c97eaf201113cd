//! The estimated-vs-actual harness: materialize a recommended
//! configuration into **real** compressed structures, execute the workload
//! over them, and report measured sizes and row counts next to the
//! advisor's estimates.
//!
//! This closes the loop the paper leaves open in a reproduction that never
//! executes: every number the advisor produced (structure sizes from
//! SampleCF/deduction, what-if workload costs) can be placed beside a
//! measurement from the same code path a real scan would take.
//! [`MeasuredRun::execute`] runs every `SELECT` through **both** execution
//! modes and records whether they agreed, so an actuals report doubles as
//! an end-to-end check of the compressed executor.

use crate::planner::plan_query;
use crate::query::{execute_planned, execute_query, missing_base};
use crate::scan::ExecMode;
use crate::store::{Store, WriteKind};
use cadb_common::json::{JsonArray, JsonObject};
use cadb_common::{obs, rows_footprint, DataType, Parallelism, Reservation, Result, Row, TableId};
use cadb_compression::CompressionKind;
use cadb_engine::cardinality::query_output_rows;
use cadb_engine::exec::materialize_mv;
use cadb_engine::{Configuration, Database, IndexSpec, SizeEstimate, WhatIfOptimizer, Workload};
use cadb_sampling::index_rows::{index_row_order, index_row_stream, mv_index_row_stream};
use cadb_shard::{BuildOptions, BuildStats};
use cadb_storage::PhysicalIndex;
use std::collections::BTreeMap;

/// One recommended structure, actually built: the advisor's estimate next
/// to the measured reality.
#[derive(Debug, Clone)]
pub struct MeasuredStructure {
    /// What was built.
    pub spec: IndexSpec,
    /// The advisor's size estimate for it.
    pub estimated: SizeEstimate,
    /// Bytes the built structure actually occupies (leaf payloads +
    /// dictionaries + internal pages).
    pub measured_bytes: usize,
    /// Rows the built structure actually holds.
    pub measured_rows: usize,
    /// Measured compression fraction of the leaf level.
    pub measured_cf: f64,
}

impl MeasuredStructure {
    /// Signed relative size error: `(estimated − measured) / measured`.
    pub fn size_error(&self) -> f64 {
        self.estimated.relative_error(self.measured_bytes as f64)
    }

    /// `estimated / measured` size ratio (1.0 = perfect) — the residual
    /// the error model can be re-calibrated from.
    pub fn size_ratio(&self) -> f64 {
        if self.measured_bytes == 0 {
            1.0
        } else {
            self.estimated.bytes / self.measured_bytes as f64
        }
    }
}

/// A configuration materialized into real compressed structures.
///
/// Every table gets a *base structure* queries scan: the configuration's
/// clustered index when it has one (with that index's compression),
/// otherwise an uncompressed heap. Secondary and MV structures are built
/// too — their measured sizes are what the actuals report compares against
/// the advisor's estimates.
#[derive(Debug)]
pub struct MaterializedConfig {
    bases: BTreeMap<TableId, PhysicalIndex>,
    base_specs: BTreeMap<TableId, IndexSpec>,
    /// Advisor's estimated leaf pages for clustered bases (heaps have no
    /// estimate), feeding the access-path planner's cost model.
    base_est_pages: BTreeMap<TableId, f64>,
    /// For clustered bases: insertion ordinal → position in base scan
    /// order, so a secondary-index scan can restore base row order from
    /// its stored locators (heaps are already in insertion order).
    base_perm: BTreeMap<TableId, Vec<u32>>,
    /// The secondary and MV structures, actually built — the access paths
    /// the planner can choose beyond the bases.
    built: BTreeMap<IndexSpec, PhysicalIndex>,
    measured: Vec<MeasuredStructure>,
    /// Aggregate counters of the (sharded) build that materialized the
    /// configuration, including the budget's peak bytes.
    build_stats: BuildStats,
    /// Budget reservations for the resident built structures; released when
    /// the materialization is dropped.
    _held: Vec<Reservation>,
}

impl MaterializedConfig {
    /// Build every structure of `cfg` (and each table's base structure)
    /// for real, via the same row streams the estimation framework samples.
    ///
    /// Equivalent to [`Self::build_with`] under a monolithic (single-stripe,
    /// unlimited-budget) [`BuildOptions`]; the built bytes are identical.
    pub fn build(db: &Database, cfg: &Configuration) -> Result<Self> {
        Self::build_with(
            db,
            cfg,
            &BuildOptions::default().with_stripe_rows(usize::MAX),
        )
    }

    /// Build every structure of `cfg` through the striped out-of-core build
    /// ([`PhysicalIndex::build_striped`]): row streams are stripe-encoded
    /// on `opts.parallelism` workers, every working set and resident
    /// structure is charged to `opts.budget`, and the build fails (rather
    /// than thrashes) past a hard limit. The built bytes depend only on
    /// `opts.stripe_rows` — never on the parallelism mode — and with a
    /// single stripe they equal [`Self::build`] exactly.
    pub fn build_with(db: &Database, cfg: &Configuration, opts: &BuildOptions) -> Result<Self> {
        let _span = obs::span("exec.build_config");
        let mut held: Vec<Reservation> = Vec::new();
        let mut stats = BuildStats::default();
        // Build one structure and keep its encoded bytes charged to the
        // budget while the configuration lives.
        let mut build = |held: &mut Vec<Reservation>,
                         rows: &[Row],
                         dtypes: &[DataType],
                         n_key: usize,
                         kind: CompressionKind|
         -> Result<PhysicalIndex> {
            let ix = PhysicalIndex::build_striped(
                rows,
                dtypes,
                n_key,
                kind,
                opts.stripe_rows,
                opts.parallelism,
                &opts.budget,
            )?;
            stats.shards += 1;
            stats.stripes += rows.len().div_ceil(opts.stripe_rows.max(1));
            stats.rows += rows.len();
            held.push(opts.budget.try_reserve(ix.size_bytes())?);
            Ok(ix)
        };
        let mut bases = BTreeMap::new();
        let mut base_specs: BTreeMap<TableId, IndexSpec> = BTreeMap::new();
        let mut base_est_pages: BTreeMap<TableId, f64> = BTreeMap::new();
        let mut base_perm: BTreeMap<TableId, Vec<u32>> = BTreeMap::new();
        for t in db.table_ids() {
            // A partial clustered index cannot serve as the scan base — it
            // would silently drop the filtered-out rows from every query
            // (and both execution modes would agree on the wrong answer).
            let clustered = cfg.structures().iter().find(|s| {
                s.spec.clustered
                    && s.spec.table == t
                    && s.spec.mv.is_none()
                    && s.spec.partial_filter.is_none()
            });
            let ix = match clustered {
                Some(s) => {
                    let src = db.table(t).rows();
                    let (rows, dtypes, n_key) = index_row_stream(db, &s.spec, src)?;
                    base_specs.insert(t, s.spec.clone());
                    base_est_pages.insert(t, s.size.pages);
                    // Replicate the clustered sort as a permutation of
                    // insertion ordinals: clustered rows are the table rows
                    // in the index's row order, exactly what
                    // `index_row_stream` produced above.
                    let (_, order) = index_row_order(Some(&s.spec), db.dtypes(t).len());
                    let mut idx: Vec<u32> = (0..src.len() as u32).collect();
                    idx.sort_by(|&a, &b| order(&src[a as usize], &src[b as usize]));
                    let mut perm = vec![0u32; src.len()];
                    for (pos, &ord) in idx.iter().enumerate() {
                        perm[ord as usize] = pos as u32;
                    }
                    base_perm.insert(t, perm);
                    let _ws = opts.budget.try_reserve(rows_footprint(&rows))?;
                    build(&mut held, &rows, &dtypes, n_key, s.spec.compression)?
                }
                None => build(
                    &mut held,
                    db.table(t).rows(),
                    &db.dtypes(t),
                    0,
                    CompressionKind::None,
                )?,
            };
            bases.insert(t, ix);
        }
        let mut built: BTreeMap<IndexSpec, PhysicalIndex> = BTreeMap::new();
        let mut measured = Vec::with_capacity(cfg.structures().len());
        for s in cfg.structures() {
            // The clustered base was already built above — measure it
            // instead of materializing the full table a second time.
            if base_specs.get(&s.spec.table) == Some(&s.spec) {
                let ix = &bases[&s.spec.table];
                measured.push(MeasuredStructure {
                    spec: s.spec.clone(),
                    estimated: s.size,
                    measured_bytes: ix.size_bytes(),
                    measured_rows: ix.n_rows(),
                    measured_cf: ix.compression_fraction(),
                });
                continue;
            }
            let (rows, dtypes, n_key) = if let Some(mv) = &s.spec.mv {
                let mv_rows = materialize_mv(db, mv)?;
                mv_index_row_stream(db, &s.spec, &mv_rows)?
            } else {
                index_row_stream(db, &s.spec, db.table(s.spec.table).rows())?
            };
            let _ws = opts.budget.try_reserve(rows_footprint(&rows))?;
            let ix = build(&mut held, &rows, &dtypes, n_key, s.spec.compression)?;
            measured.push(MeasuredStructure {
                spec: s.spec.clone(),
                estimated: s.size,
                measured_bytes: ix.size_bytes(),
                measured_rows: ix.n_rows(),
                measured_cf: ix.compression_fraction(),
            });
            built.insert(s.spec.clone(), ix);
        }
        stats.peak_bytes = opts.budget.peak_bytes();
        stats.publish();
        Ok(MaterializedConfig {
            bases,
            base_specs,
            base_est_pages,
            base_perm,
            built,
            measured,
            build_stats: stats,
            _held: held,
        })
    }

    /// The base structure queries scan for a table.
    pub fn base(&self, t: TableId) -> Result<&PhysicalIndex> {
        self.bases.get(&t).ok_or_else(|| missing_base(t))
    }

    /// The clustered spec serving as a table's base, when one exists.
    pub fn base_spec(&self, t: TableId) -> Option<&IndexSpec> {
        self.base_specs.get(&t)
    }

    /// The advisor's estimated leaf pages for a table's base structure
    /// (`None` for plain heaps, which were never priced).
    pub fn base_estimated_pages(&self, t: TableId) -> Option<f64> {
        self.base_est_pages.get(&t).copied()
    }

    /// Position of insertion ordinal `ordinal` in the base structure's
    /// scan order — identity for heaps, the clustered-sort permutation
    /// otherwise. This is what lets a secondary-index scan restore exact
    /// base row order from its stored locators.
    pub fn base_position(&self, t: TableId, ordinal: usize) -> usize {
        match self.base_perm.get(&t) {
            Some(perm) => perm.get(ordinal).map(|p| *p as usize).unwrap_or(ordinal),
            None => ordinal,
        }
    }

    /// The built physical structure for a secondary or MV spec, when the
    /// configuration holds one.
    pub fn structure(&self, spec: &IndexSpec) -> Option<&PhysicalIndex> {
        self.built.get(spec)
    }

    /// Every structure of the configuration, built and measured.
    pub fn structures(&self) -> &[MeasuredStructure] {
        &self.measured
    }

    /// Aggregate counters of the build that materialized this
    /// configuration: stripes encoded, rows built, and the peak bytes the
    /// build's memory budget metered.
    pub fn build_stats(&self) -> &BuildStats {
        &self.build_stats
    }
}

/// Actuals of one executed query.
#[derive(Debug, Clone)]
pub struct QueryActual {
    /// Output rows produced.
    pub rows_out: usize,
    /// Optimizer-estimated output rows (the estimate the chosen path's
    /// measured `rows_out` is compared against).
    pub estimated_rows_out: f64,
    /// The access path the planner chose, human-readable.
    pub path: String,
    /// The access path the what-if optimizer assumed for the same query
    /// under the same configuration (same planner, hypothetical view,
    /// default cost model).
    pub whatif_path: String,
    /// `true` when what-if assumed exactly the `(table, kind, structure)`
    /// paths that ran ([`cadb_engine::QueryPlan::same_paths`]).
    pub agrees: bool,
    /// `true` when the plan uses any structure beyond the base scans
    /// (covering index, seek, or MV) — the planner actually doing work.
    pub non_base: bool,
    /// `true` when the whole query was answered from an MV index (the
    /// structured form of the path class; reports must not re-derive it
    /// from the display string).
    pub uses_mv: bool,
    /// Leaf pages the planned compressed path touched.
    pub pages_scanned: usize,
    /// Leaf pages a forced full base scan touches (the planner's win is
    /// `pages_scanned` vs this).
    pub pages_scanned_base: usize,
    /// Predicate evaluations on the planned compressed path (per run /
    /// per dictionary entry).
    pub predicate_evals_compressed: usize,
    /// Predicate evaluations on the reference path (per row).
    pub predicate_evals_reference: usize,
    /// Whether planned and reference output were bit-identical.
    pub matches_reference: bool,
}

impl QueryActual {
    /// Signed relative error of the optimizer's row estimate against the
    /// measured output rows (0 when nothing was measured).
    pub fn rows_error(&self) -> f64 {
        if self.rows_out == 0 {
            0.0
        } else {
            (self.estimated_rows_out - self.rows_out as f64) / self.rows_out as f64
        }
    }
}

/// Measured actuals of one executed write statement, next to the what-if
/// estimate the advisor priced it with — the write-side counterpart of
/// [`QueryActual`].
#[derive(Debug, Clone)]
pub struct WriteCostActual {
    /// Index of the statement in the workload's statement list.
    pub statement_index: usize,
    /// INSERT, UPDATE or DELETE.
    pub kind: WriteKind,
    /// Target table.
    pub table: TableId,
    /// Rows the statement wrote (or rewrote).
    pub n_rows: u64,
    /// The statement's workload weight.
    pub weight: f64,
    /// What-if estimated cost of the statement under the configuration
    /// (unweighted, same units as `measured_cost`).
    pub estimated_cost: f64,
    /// Measured maintenance cost: the store actually ran the write through
    /// the WAL'd commit path and counted the work (unweighted).
    pub measured_cost: f64,
    /// The MV-maintenance share of `measured_cost`.
    pub measured_mv_cost: f64,
    /// Distinct MV groups the write actually touched (what-if assumes
    /// every inserted row lands in its own group).
    pub mv_groups_touched: u64,
    /// Secondary-index rows actually maintained (what-if assumes
    /// `n · selectivity` for partial structures).
    pub index_rows_touched: u64,
    /// WAL bytes the commit appended.
    pub wal_bytes: u64,
}

impl WriteCostActual {
    /// `estimated / measured` cost ratio (1.0 = perfect; 1.0 when nothing
    /// was measured) — the maintenance residual the error model summarizes.
    pub fn cost_ratio(&self) -> f64 {
        if self.measured_cost <= 0.0 {
            1.0
        } else {
            self.estimated_cost / self.measured_cost
        }
    }
}

/// The estimated-vs-actual report of one [`MeasuredRun`].
#[derive(Debug, Clone)]
pub struct MeasuredReport {
    /// Per-structure estimates vs measurements.
    pub structures: Vec<MeasuredStructure>,
    /// Sum of estimated structure sizes.
    pub estimated_total_bytes: f64,
    /// Sum of measured structure sizes.
    pub measured_total_bytes: usize,
    /// Per-query actuals, in workload order.
    pub queries: Vec<QueryActual>,
    /// Per-write-statement actuals, in workload order: each INSERT/UPDATE
    /// was really committed through the store's WAL'd write path and its
    /// maintenance work counted.
    pub writes: Vec<WriteCostActual>,
    /// What-if estimated workload cost under the configuration.
    pub estimated_workload_cost: f64,
    /// What-if estimated workload cost with no structures (baseline).
    pub baseline_workload_cost: f64,
    /// **Measured** weighted MV-maintenance cost of the workload's writes:
    /// `Σ weight · measured_mv_cost` over [`Self::writes`], from actually
    /// running every INSERT/UPDATE through incremental MV maintenance.
    /// **`None` when the workload has no write statements** — maintenance
    /// is then unexercised, not free; earlier versions reported `0` here,
    /// which understated update cost for MV-heavy configurations (one of
    /// the two INSERT-heavy shape mismatches flagged in EXPERIMENTS.md).
    pub mv_maintenance_cost: Option<f64>,
    /// The what-if *estimate* of the same quantity (the weighted
    /// `insert_cost` delta the advisor charged MV structures), kept beside
    /// the measurement so the residual is visible. Same `None` gating.
    pub mv_maintenance_whatif: Option<f64>,
}

impl MeasuredReport {
    /// Signed relative error of the configuration's total size.
    pub fn total_size_error(&self) -> f64 {
        if self.measured_total_bytes == 0 {
            0.0
        } else {
            (self.estimated_total_bytes - self.measured_total_bytes as f64)
                / self.measured_total_bytes as f64
        }
    }

    /// `true` when every query's compressed output matched the reference.
    pub fn all_queries_verified(&self) -> bool {
        self.queries.iter().all(|q| q.matches_reference)
    }

    /// Queries whose executed path is the one what-if assumed.
    pub fn whatif_agreement(&self) -> usize {
        self.queries.iter().filter(|q| q.agrees).count()
    }

    /// `(method, estimated/measured)` residual per compressed structure —
    /// the raw material for re-calibrating the error model
    /// (`cadb_core::ErrorModel::calibrate_samplecf`).
    pub fn residual_ratios(&self) -> Vec<(CompressionKind, f64)> {
        self.structures
            .iter()
            .filter(|s| s.spec.compression.is_compressed())
            .map(|s| (s.spec.compression, s.size_ratio()))
            .collect()
    }

    /// `(estimated, measured)` maintenance-cost pairs per write statement —
    /// the raw material for `cadb_core::ErrorModel::maintenance_bias`.
    pub fn maintenance_residuals(&self) -> Vec<(f64, f64)> {
        self.writes
            .iter()
            .map(|w| (w.estimated_cost, w.measured_cost))
            .collect()
    }

    /// Measured weighted maintenance cost of **all** writes (base + index
    /// + MV), `None` when the workload has none.
    pub fn measured_write_cost(&self) -> Option<f64> {
        if self.writes.is_empty() {
            None
        } else {
            Some(self.writes.iter().map(|w| w.weight * w.measured_cost).sum())
        }
    }

    /// Machine-readable JSON form (same writer conventions as the
    /// recommendation / estimation reports).
    pub fn to_json(&self) -> String {
        let mut structures = JsonArray::new();
        for s in &self.structures {
            structures.push_raw(
                &JsonObject::new()
                    .str("spec", &s.spec.to_string())
                    .str("compression", &s.spec.compression.to_string())
                    .num("estimated_bytes", s.estimated.bytes)
                    .int("measured_bytes", s.measured_bytes as i64)
                    .num("size_error", s.size_error())
                    .num("estimated_rows", s.estimated.rows)
                    .int("measured_rows", s.measured_rows as i64)
                    .num("estimated_cf", s.estimated.compression_fraction)
                    .num("measured_cf", s.measured_cf)
                    .finish(),
            );
        }
        let mut queries = JsonArray::new();
        for q in &self.queries {
            queries.push_raw(
                &JsonObject::new()
                    .str("path", &q.path)
                    .str("whatif_path", &q.whatif_path)
                    .bool("agrees", q.agrees)
                    .bool("non_base", q.non_base)
                    .bool("uses_mv", q.uses_mv)
                    .int("rows_out", q.rows_out as i64)
                    .num("estimated_rows_out", q.estimated_rows_out)
                    .num("rows_error", q.rows_error())
                    .int("pages_scanned", q.pages_scanned as i64)
                    .int("pages_scanned_base", q.pages_scanned_base as i64)
                    .int(
                        "predicate_evals_compressed",
                        q.predicate_evals_compressed as i64,
                    )
                    .int(
                        "predicate_evals_reference",
                        q.predicate_evals_reference as i64,
                    )
                    .bool("matches_reference", q.matches_reference)
                    .finish(),
            );
        }
        let mut writes = JsonArray::new();
        for w in &self.writes {
            writes.push_raw(
                &JsonObject::new()
                    .int("statement_index", w.statement_index as i64)
                    .str(
                        "kind",
                        match w.kind {
                            WriteKind::Insert => "insert",
                            WriteKind::Update => "update",
                            WriteKind::Delete => "delete",
                        },
                    )
                    .int("table", w.table.0 as i64)
                    .int("n_rows", w.n_rows as i64)
                    .num("weight", w.weight)
                    .num("estimated_cost", w.estimated_cost)
                    .num("measured_cost", w.measured_cost)
                    .num("measured_mv_cost", w.measured_mv_cost)
                    .num("cost_ratio", w.cost_ratio())
                    .int("mv_groups_touched", w.mv_groups_touched as i64)
                    .int("index_rows_touched", w.index_rows_touched as i64)
                    .int("wal_bytes", w.wal_bytes as i64)
                    .finish(),
            );
        }
        let mut out = JsonObject::new()
            .raw("structures", &structures.finish())
            .num("estimated_total_bytes", self.estimated_total_bytes)
            .int("measured_total_bytes", self.measured_total_bytes as i64)
            .num("total_size_error", self.total_size_error())
            .raw("queries", &queries.finish())
            .raw("writes", &writes.finish())
            .bool("all_queries_verified", self.all_queries_verified())
            .int("whatif_agree", self.whatif_agreement() as i64)
            .num("estimated_workload_cost", self.estimated_workload_cost)
            .num("baseline_workload_cost", self.baseline_workload_cost)
            .bool(
                "mv_maintenance_measured",
                self.mv_maintenance_cost.is_some(),
            );
        if let Some(c) = self.mv_maintenance_cost {
            out = out.num("mv_maintenance_cost", c);
        }
        if let Some(c) = self.mv_maintenance_whatif {
            out = out.num("mv_maintenance_whatif", c);
        }
        if let Some(c) = self.measured_write_cost() {
            out = out.num("measured_write_cost", c);
        }
        out.finish()
    }
}

/// Materialize → execute → measure: the harness that turns a
/// recommendation into ground truth.
#[derive(Debug)]
pub struct MeasuredRun<'a> {
    db: &'a Database,
    workload: &'a Workload,
    parallelism: Parallelism,
    seed: u64,
    build: BuildOptions,
}

/// Default RNG seed for the synthetic rows write statements commit
/// ([`MeasuredRun::with_seed`] overrides it).
pub const DEFAULT_WRITE_SEED: u64 = 0xCADB;

impl<'a> MeasuredRun<'a> {
    /// A run over a database and the workload whose queries will be
    /// executed.
    pub fn new(db: &'a Database, workload: &'a Workload) -> Self {
        MeasuredRun {
            db,
            workload,
            parallelism: Parallelism::Auto,
            seed: DEFAULT_WRITE_SEED,
            build: BuildOptions::default().with_stripe_rows(usize::MAX),
        }
    }

    /// Build options for the materialization (stripe size, memory budget,
    /// build parallelism). The default is the monolithic single-stripe
    /// build; pass a budgeted, striped [`BuildOptions`] to run the
    /// out-of-core path and surface its peak bytes in the report.
    pub fn with_build(mut self, build: BuildOptions) -> Self {
        self.build = build;
        self
    }

    /// Worker-pool setting for the leaf-parallel scans (results identical
    /// for every setting; [`Parallelism::Serial`] is the escape hatch).
    pub fn with_parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }

    /// Seed for the synthetic rows the write statements commit (measured
    /// write costs are a deterministic function of it).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Build every structure of `cfg`, plan and execute every workload
    /// query over the compressed structures (verifying each against the
    /// decompress-then-execute reference), and report measured sizes, row
    /// counts and chosen access paths next to the estimates.
    pub fn execute(&self, cfg: &Configuration) -> Result<MeasuredReport> {
        let _span = obs::span("exec.measured_run");
        let mat = MaterializedConfig::build_with(self.db, cfg, &self.build)?;
        let opt = WhatIfOptimizer::new(self.db).with_parallelism(self.parallelism);
        let mut queries = Vec::new();
        for (q, _) in self.workload.queries() {
            let _qspan = obs::span("exec.run_query");
            let plan = plan_query(&mat, q)?;
            // Which path did what-if assume, and which one ran?
            let whatif = opt.explain(q, cfg);
            let agrees = whatif.same_paths(&plan);
            obs::counter_add(
                if agrees {
                    "planner.whatif_agree"
                } else {
                    "planner.whatif_disagree"
                },
                1,
            );
            let (rows_c, stats_c) = execute_planned(&mat, q, &plan, self.parallelism)?;
            let (rows_r, stats_r) = execute_query(&mat, q, self.parallelism, ExecMode::Reference)?;
            queries.push(QueryActual {
                rows_out: rows_c.len(),
                estimated_rows_out: query_output_rows(self.db, q),
                path: plan.describe(),
                whatif_path: whatif.describe(),
                agrees,
                non_base: !plan.is_base_only(),
                uses_mv: plan.mv.is_some(),
                pages_scanned: stats_c.pages_scanned,
                pages_scanned_base: stats_r.pages_scanned,
                predicate_evals_compressed: stats_c.predicate_evals,
                predicate_evals_reference: stats_r.predicate_evals,
                matches_reference: rows_c == rows_r,
            });
        }
        let estimated_total_bytes = cfg.total_bytes();
        let measured_total_bytes = mat.structures().iter().map(|s| s.measured_bytes).sum();
        // Writes: actually commit every INSERT/UPDATE through the store's
        // WAL'd write path and count the maintenance work, so the MV
        // maintenance number below is a *measurement*, not the what-if
        // guess it used to be. Only measurable when the workload writes;
        // an explicit `None` replaces the old silent `0`.
        let (writes, mv_maintenance_cost) = if self.workload.has_writes() {
            let store = Store::open(self.db, &mat, opt.model().clone());
            let actuals = store.apply_workload(self.workload, self.seed, self.parallelism)?;
            let writes: Vec<WriteCostActual> = actuals
                .iter()
                .map(|a| {
                    let (stmt, weight) = &self.workload.statements[a.statement_index];
                    WriteCostActual {
                        statement_index: a.statement_index,
                        kind: a.kind,
                        table: a.table,
                        n_rows: a.n_rows,
                        weight: *weight,
                        estimated_cost: opt.statement_cost(stmt, cfg),
                        measured_cost: a.measured_cost,
                        measured_mv_cost: a.measured_mv_cost,
                        mv_groups_touched: a.counters.mv_groups_touched,
                        index_rows_touched: a.counters.index_rows_touched,
                        wal_bytes: a.counters.wal_bytes,
                    }
                })
                .collect();
            let measured_mv: f64 = writes.iter().map(|w| w.weight * w.measured_mv_cost).sum();
            (writes, Some(measured_mv))
        } else {
            (Vec::new(), None)
        };
        // Keep the what-if estimate of the same quantity beside the
        // measurement: the weighted `insert_cost` delta MV structures are
        // charged for, under the same gating.
        let mv_maintenance_whatif = if self.workload.inserts().next().is_some() {
            let mut no_mv = Configuration::empty();
            for s in cfg.structures() {
                if s.spec.mv.is_none() {
                    no_mv.add(s.clone());
                }
            }
            Some(
                self.workload
                    .inserts()
                    .map(|(ins, w)| w * (opt.insert_cost(ins, cfg) - opt.insert_cost(ins, &no_mv)))
                    .sum(),
            )
        } else {
            None
        };
        Ok(MeasuredReport {
            structures: mat.structures().to_vec(),
            estimated_total_bytes,
            measured_total_bytes,
            queries,
            writes,
            estimated_workload_cost: opt.workload_cost(self.workload, cfg),
            baseline_workload_cost: opt.workload_cost(self.workload, &Configuration::empty()),
            mv_maintenance_cost,
            mv_maintenance_whatif,
        })
    }

    /// Execute one query in a given mode (exposed for benchmarks and
    /// equivalence tests). Returns the output rows and scan counters.
    pub fn execute_query(
        &self,
        mat: &MaterializedConfig,
        q: &cadb_engine::Query,
        mode: ExecMode,
    ) -> Result<(Vec<Row>, crate::scan::ExecStats)> {
        execute_query(mat, q, self.parallelism, mode)
    }
}
