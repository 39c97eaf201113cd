//! [`TuningSession`] — the one-stop fluent entry point for physical design
//! tuning.
//!
//! A session composes everything an advisor run needs — database, workload,
//! storage budget, strategy objects, parallelism, seed — in one chain and
//! returns a [`Recommendation`]:
//!
//! ```
//! use cadb::datagen::TpchGen;
//! use cadb::TuningSession;
//!
//! let gen = TpchGen::new(0.01);
//! let db = gen.build().unwrap();
//! let workload = gen.workload(&db).unwrap();
//!
//! let rec = TuningSession::new(&db)
//!     .workload(&workload)
//!     .budget_fraction(0.3)
//!     .run()
//!     .unwrap();
//! assert!(rec.improvement_percent() > 0.0);
//! ```
//!
//! The defaults reproduce full DTAc. [`TuningSession::preset`] switches to
//! the paper's ablations, and the `estimator` / `selection` / `enumeration`
//! methods accept any implementation of the strategy traits — including
//! your own (see `cadb::core::strategy`).

use cadb_common::obs::{self, TraceReport};
use cadb_core::strategy::{CandidateSelection, EnumerationStrategy, SizeEstimator, StrategySet};
use cadb_core::{Advisor, AdvisorOptions, FeatureSet, PlannerOptions, Recommendation};
use cadb_engine::{CostModel, Database, Parallelism, Workload};
use cadb_exec::{
    MaterializedConfig, MeasuredReport, MeasuredRun, RecoveryReport, ShardedStore, Store,
    WriteActual,
};
use cadb_shard::ShardSpec;
use std::sync::Arc;

use cadb_common::{CadbError, Result};

/// The paper's named advisor configurations, as [`TuningSession`] presets.
///
/// A preset only sets the *strategy-shaping* knobs (compression, selection,
/// enumeration); budget, seed, feature classes, parallelism and estimation
/// accuracy set elsewhere on the session are preserved. Each preset is a
/// thin veneer over the corresponding `AdvisorOptions::{dta, dtac,
/// dtac_none}` constructor and produces byte-identical recommendations to
/// the legacy flag path (pinned by `tests/preset_equivalence.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preset {
    /// The original DTA: no compressed variants, top-k selection, plain
    /// multi-start greedy enumeration.
    Dta,
    /// Full DTAc: compressed variants, Skyline selection, Backtracking
    /// enumeration (the default).
    Dtac,
    /// DTAc (None): compressed candidates but neither Skyline nor
    /// Backtracking — the ablation baseline of Figures 12–13.
    DtacNone,
}

/// Fluent builder for one advisor run (see the module-level example).
pub struct TuningSession<'a> {
    db: &'a Database,
    workload: Option<&'a Workload>,
    options: AdvisorOptions,
    estimator: Option<Arc<dyn SizeEstimator>>,
    selection: Option<Arc<dyn CandidateSelection>>,
    enumeration: Option<Arc<dyn EnumerationStrategy>>,
    serve_shards: Option<ShardSpec>,
}

impl<'a> TuningSession<'a> {
    /// Start a session over a database. Defaults: full DTAc with a zero
    /// storage budget — set one with [`Self::budget`] or
    /// [`Self::budget_fraction`].
    pub fn new(db: &'a Database) -> Self {
        TuningSession {
            db,
            workload: None,
            options: AdvisorOptions::dtac(0.0),
            estimator: None,
            selection: None,
            enumeration: None,
            serve_shards: None,
        }
    }

    /// Serve writes through the **sharded** serving layer: one WAL stream
    /// per shard (routed by the spec's partitioning policy) under a global
    /// commit-order log. Sharding is an execution strategy, not a
    /// semantic — [`Self::serve`] produces bit-identical state digests,
    /// write actuals and recovery outcomes for every spec, including the
    /// default single log (see the crate-level *How a write commits*
    /// section).
    pub fn serve_sharded(mut self, spec: ShardSpec) -> Self {
        self.serve_shards = Some(spec);
        self
    }

    /// The workload to tune for (required).
    pub fn workload(mut self, workload: &'a Workload) -> Self {
        self.workload = Some(workload);
        self
    }

    /// Storage bound in bytes.
    pub fn budget(mut self, bytes: f64) -> Self {
        self.options.storage_budget = bytes;
        self
    }

    /// Storage bound as a fraction of the database's uncompressed base
    /// data size (the paper's X-axes: 0.1 = a 10 % budget).
    pub fn budget_fraction(mut self, fraction: f64) -> Self {
        self.options.storage_budget = fraction * self.db.base_data_bytes() as f64;
        self
    }

    /// Apply one of the paper's named configurations. Only the
    /// strategy-shaping knobs change (compression, selection, enumeration
    /// mode); budget, seed, features, parallelism, `top_k`, merging and
    /// estimation accuracy already set on this session are preserved.
    pub fn preset(mut self, preset: Preset) -> Self {
        let budget = self.options.storage_budget;
        let base = match preset {
            Preset::Dta => AdvisorOptions::dta(budget),
            Preset::Dtac => AdvisorOptions::dtac(budget),
            Preset::DtacNone => AdvisorOptions::dtac_none(budget),
        };
        self.options = AdvisorOptions {
            features: self.options.features,
            seed: self.options.seed,
            parallelism: self.options.parallelism,
            top_k: self.options.top_k,
            merging: self.options.merging,
            estimation: self.options.estimation.clone(),
            ..base
        };
        self
    }

    /// Structure classes the advisor may propose (simple indexes vs all
    /// features — partial indexes, MV indexes).
    pub fn features(mut self, features: FeatureSet) -> Self {
        self.options.features = features;
        self
    }

    /// RNG seed for the sampling infrastructure.
    pub fn seed(mut self, seed: u64) -> Self {
        self.options.seed = seed;
        self
    }

    /// Worker-pool size for the whole pipeline (advisor stages and the
    /// size-estimation framework alike). The recommendation is identical
    /// for every setting; [`Parallelism::Serial`] keeps the run on the
    /// calling thread.
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.options = self.options.with_parallelism(par);
        self
    }

    /// Size-estimation accuracy/fraction knobs (the `(e, q)` requirement
    /// and the sampling-fraction grid of §5.1).
    pub fn estimation(mut self, options: PlannerOptions) -> Self {
        let par = self.options.estimation.parallelism;
        self.options.estimation = PlannerOptions {
            parallelism: par,
            ..options
        };
        self
    }

    /// Structures kept per query by top-k selection (and alongside the
    /// skyline).
    pub fn top_k(mut self, k: usize) -> Self {
        self.options.top_k = k;
        self
    }

    /// Toggle index merging (§6.2 end).
    pub fn merging(mut self, merging: bool) -> Self {
        self.options.merging = merging;
        self
    }

    /// Use a custom size-estimation strategy (overrides the preset's).
    pub fn estimator(mut self, estimator: impl SizeEstimator + 'static) -> Self {
        self.estimator = Some(Arc::new(estimator));
        self
    }

    /// Use a custom candidate-selection strategy (overrides the preset's).
    pub fn selection(mut self, selection: impl CandidateSelection + 'static) -> Self {
        self.selection = Some(Arc::new(selection));
        self
    }

    /// Use a custom enumeration strategy (overrides the preset's).
    pub fn enumeration(mut self, enumeration: impl EnumerationStrategy + 'static) -> Self {
        self.enumeration = Some(Arc::new(enumeration));
        self
    }

    /// The advisor options this session resolves to (diagnostics).
    pub fn options(&self) -> &AdvisorOptions {
        &self.options
    }

    /// The strategy set this session will dispatch through: the preset's
    /// strategies with any explicit overrides applied.
    pub fn strategies(&self) -> StrategySet {
        let mut strategies = StrategySet::from_options(&self.options);
        if let Some(e) = &self.estimator {
            strategies.estimator = Arc::clone(e);
        }
        if let Some(s) = &self.selection {
            strategies.selection = Arc::clone(s);
        }
        if let Some(e) = &self.enumeration {
            strategies.enumeration = Arc::clone(e);
        }
        strategies
    }

    /// Run any session work under an installed trace recorder and return
    /// the result **plus** the recorded [`TraceReport`]: the hierarchical
    /// span tree (advise → plan → execute → serve phase timings, merged by
    /// name across workers) and every named counter, gauge and latency
    /// histogram the run streamed out.
    ///
    /// Recording is purely observational — the closure's outputs are
    /// bit-identical to running it without `observe` (pinned by
    /// `tests/obs_equivalence.rs`), and when nothing is installed every
    /// instrumentation point in the workspace costs one predicted branch.
    /// The report serializes with [`TraceReport::to_json`] (the `repro
    /// --trace <file>` flag writes exactly that) and pretty-prints with
    /// [`TraceReport::render`].
    ///
    /// ```
    /// use cadb::datagen::TpchGen;
    /// use cadb::TuningSession;
    ///
    /// let gen = TpchGen::new(0.01);
    /// let db = gen.build().unwrap();
    /// let workload = gen.workload(&db).unwrap();
    ///
    /// let session = TuningSession::new(&db)
    ///     .workload(&workload)
    ///     .budget_fraction(0.3);
    /// let (rec, trace) = session.observe(|s| s.run().unwrap());
    /// assert!(rec.improvement_percent() > 0.0);
    /// // The span tree is non-empty and rooted at the advisor run…
    /// assert!(!trace.roots.is_empty());
    /// assert!(trace.find_span("advise").is_some());
    /// assert!(trace.find_span("search.greedy").is_some());
    /// // …and the run published named metrics alongside it.
    /// assert!(trace.metric_count() >= 10);
    /// assert!(trace.counter("whatif.configs_costed").unwrap_or(0) > 0);
    /// ```
    pub fn observe<R>(&self, f: impl FnOnce(&Self) -> R) -> (R, TraceReport) {
        obs::record(|| f(self))
    }

    /// Run the advisor pipeline and return its recommendation.
    pub fn run(&self) -> Result<Recommendation> {
        let workload = self.workload.ok_or_else(|| {
            CadbError::InvalidArgument(
                "TuningSession needs a workload — call .workload(&w) before .run()".to_string(),
            )
        })?;
        Advisor::new(self.db, self.options.clone()).recommend_with(workload, &self.strategies())
    }

    /// Materialize a recommendation into **real** compressed structures,
    /// execute the session's workload over them with the vectorized
    /// compressed executor (verified against the decompress-then-execute
    /// reference), and report measured sizes, row counts and chosen access
    /// paths next to the advisor's estimates — the estimated-vs-actual
    /// loop, closed.
    ///
    /// # How a query picks its access path
    ///
    /// There is **one access-path model** in the workspace,
    /// [`engine::access_path::plan_query`](cadb_engine::access_path::plan_query):
    /// for every table a query touches it enumerates the base structure
    /// (the recommendation's clustered index, or an uncompressed heap),
    /// every secondary index — as a covering scan, or as a *seek* on the
    /// sargable prefix of its key columns, so only the qualifying leaves
    /// are read — and, at whole-query level, a matching MV index that
    /// answers the aggregation outright; it prices each with one cost
    /// formula and keeps the cheapest (ties go to the earlier candidate,
    /// the base structure first). Two callers run it over two *views* of
    /// the same configuration
    /// ([`PathView`](cadb_engine::access_path::PathView)):
    ///
    /// * the **what-if optimizer** (`WhatIfOptimizer::explain` /
    ///   `query_cost`, what the advisor pays for structures with) sees a
    ///   *hypothetical* configuration: estimated pages, rows from
    ///   statistics, seek fractions from predicate selectivities,
    ///   everything executable — including bookmark lookups on
    ///   non-covering indexes — under `CostModel::default()`;
    /// * the **executor** (`cadb_exec::plan_query`, what runs here) sees
    ///   the *materialized* one: the same estimated pages, real row
    ///   counts, the real fraction of leaves a pushed-down key range
    ///   selects (the B+Tree descent yields it for free), and only what
    ///   it can run — covering paths, and MVs whose aggregates are
    ///   `COUNT(*)`/`SUM(col)` — under one constant model that prices
    ///   leaf pages only (in memory, decode work is proportional to the
    ///   pages touched; a descent is one page).
    ///
    /// So "the index what-if paid for is the index the server uses" is a
    /// comparison of two [`QueryPlan`](cadb_engine::QueryPlan)s, and the
    /// returned [`MeasuredReport`] makes it per query: the chosen path,
    /// the path what-if assumed and whether they agree
    /// ([`QueryActual::agrees`](cadb_exec::measured::QueryActual)), beside
    /// estimated-vs-measured output rows. On TPC-H the advisor's own
    /// recommendations agree on every query; an index-per-query
    /// configuration shows three visible differences out of 22 (what-if's
    /// 12-unit descent keeps it on few-leaf heaps the executor seeks past;
    /// what-if takes an MV where the executor seeks 2 of 23 leaves; the
    /// two pick different covering indexes of one seek) — see
    /// EXPERIMENTS.md. Every planned execution is still verified
    /// bit-for-bit against the reference — the planner is never allowed to
    /// change an answer (`tests/plan_equivalence.rs` pins planned ≡
    /// forced-base ≡ reference; `tests/plan_golden.rs` pins both views'
    /// plans across commits).
    ///
    /// ```
    /// use cadb::datagen::TpchGen;
    /// use cadb::TuningSession;
    ///
    /// let gen = TpchGen::new(0.01);
    /// let db = gen.build().unwrap();
    /// let workload = gen.workload(&db).unwrap();
    ///
    /// let session = TuningSession::new(&db)
    ///     .workload(&workload)
    ///     .budget_fraction(0.3);
    /// let rec = session.run().unwrap();
    /// let actuals = session.execute(&rec).unwrap();
    /// assert!(actuals.all_queries_verified());
    /// assert!(actuals.total_size_error().abs() < 1.0);
    /// ```
    pub fn execute(&self, rec: &Recommendation) -> Result<MeasuredReport> {
        let workload = self.workload.ok_or_else(|| {
            CadbError::InvalidArgument(
                "TuningSession needs a workload — call .workload(&w) before .execute()".to_string(),
            )
        })?;
        // The session's seed knob steers the *sampling* infrastructure;
        // synthesized writes keep the write path's own default so this is
        // byte-identical to a default `MeasuredRun` on the same inputs.
        MeasuredRun::new(self.db, workload)
            .with_parallelism(self.options.parallelism)
            .execute(&rec.configuration)
    }

    /// Materialize a recommendation and **serve** the workload's writes
    /// through the snapshot-isolated store: every INSERT/UPDATE/DELETE is
    /// committed through the WAL'd write path (with incremental
    /// secondary-index and MV maintenance), then the run's WAL is replayed
    /// into a fresh store and the recovered state is verified byte-for-byte
    /// against the live one — the durability half of the actuals loop.
    /// (See the crate-level *How a write commits* section for the commit
    /// pipeline itself.)
    ///
    /// The workload's SELECTs are ignored here ([`Self::execute`] measures
    /// those); a workload without writes is an error, since there would be
    /// nothing to serve.
    ///
    /// ```
    /// use cadb::datagen::TpchGen;
    /// use cadb::TuningSession;
    ///
    /// let gen = TpchGen::new(0.01);
    /// let db = gen.build().unwrap();
    /// let workload = gen.workload(&db).unwrap();
    ///
    /// let session = TuningSession::new(&db)
    ///     .workload(&workload)
    ///     .budget_fraction(0.3);
    /// let rec = session.run().unwrap();
    /// let served = session.serve(&rec).unwrap();
    /// assert!(served.recovery_verified());
    /// assert!(served.measured_write_cost > 0.0);
    /// ```
    pub fn serve(&self, rec: &Recommendation) -> Result<ServeReport> {
        let workload = self.workload.ok_or_else(|| {
            CadbError::InvalidArgument(
                "TuningSession needs a workload — call .workload(&w) before .serve()".to_string(),
            )
        })?;
        if !workload.has_writes() {
            return Err(CadbError::InvalidArgument(
                "TuningSession::serve needs a workload with INSERT/UPDATE/DELETE statements"
                    .to_string(),
            ));
        }
        let mat = MaterializedConfig::build(self.db, &rec.configuration)?;
        let model = CostModel::default;
        let store: Store<'_> = match self.serve_shards {
            None => Store::open(self.db, &mat, model()),
            Some(spec) => ShardedStore::open(self.db, &mat, model(), spec)?.into(),
        };
        let writes = store.apply_workload(
            workload,
            cadb_exec::DEFAULT_WRITE_SEED,
            self.options.parallelism,
        )?;
        let totals = store.totals();
        let state_digest = store.state_digest()?;
        // Snapshot the log set *before* checkpointing, so live and
        // recovered stores checkpoint from the same LSN and digests are
        // comparable.
        let head = store.wal_bytes();
        let shard_logs = store.all_shard_wal_bytes();
        let live_checkpoint = store.checkpoint()?.digest();
        // The commit-point stream (the WAL, or the order log) is the
        // authority on what committed: its report has one frame per
        // commit under either layout, and a torn shard tail shows up as
        // missing frames.
        let (recovered, recovery): (Store<'_>, RecoveryReport) = match self.serve_shards {
            None => Store::recover(self.db, &mat, model(), &head)?,
            Some(spec) => {
                let (recovered, report) =
                    ShardedStore::recover(self.db, &mat, model(), spec, &head, &shard_logs)?;
                (recovered.into(), report.order)
            }
        };
        let recovered_digest = recovered.state_digest()?;
        let checkpoint_identical = recovered.checkpoint()?.digest() == live_checkpoint;
        Ok(ServeReport {
            writes,
            watermark: store.watermark(),
            shards: self.serve_shards.map_or(1, |spec| spec.shards),
            wal_bytes: head.len() + shard_logs.iter().map(Vec::len).sum::<usize>(),
            shard_wal_bytes: shard_logs.iter().map(Vec::len).collect(),
            measured_write_cost: totals.measured_cost,
            measured_mv_cost: totals.measured_mv_cost,
            state_digest,
            recovery,
            recovered_digest,
            checkpoint_identical,
        })
    }
}

/// What [`TuningSession::serve`] measured and verified: the workload's
/// writes really committed through the store's WAL, and crash recovery
/// reproduced the committed state.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-statement write actuals, in workload-statement order.
    pub writes: Vec<WriteActual>,
    /// Committed watermark LSN after the run.
    pub watermark: u64,
    /// How many shards served the run (`1` = the monolithic single-log
    /// store; `>1` = [`TuningSession::serve_sharded`]).
    pub shards: usize,
    /// Total log-set bytes the run appended (before the verification
    /// checkpoint): the single WAL when monolithic, the order log plus
    /// every shard segment when sharded.
    pub wal_bytes: usize,
    /// Per-shard WAL segment sizes in shard order; empty for the
    /// monolithic store.
    pub shard_wal_bytes: Vec<usize>,
    /// Measured maintenance cost summed over all commits (unweighted,
    /// cost-model units).
    pub measured_write_cost: f64,
    /// The MV-maintenance share of `measured_write_cost`.
    pub measured_mv_cost: f64,
    /// Order-insensitive digest of the live committed state.
    pub state_digest: u64,
    /// What replaying the WAL into a fresh store found.
    pub recovery: RecoveryReport,
    /// Digest of the recovered state — equal to [`Self::state_digest`] by
    /// the recovery contract.
    pub recovered_digest: u64,
    /// Whether the recovered store's checkpoint artifact is bit-identical
    /// to the live store's.
    pub checkpoint_identical: bool,
}

impl ServeReport {
    /// `true` when recovery reproduced the committed state exactly: state
    /// digests match, checkpoints are bit-identical, and the replayed
    /// frame count matches the commits served.
    pub fn recovery_verified(&self) -> bool {
        self.state_digest == self.recovered_digest
            && self.checkpoint_identical
            && self.recovery.frames_applied == self.writes.len()
            && self.recovery.truncated_bytes == 0
            && self.recovery.duplicates_skipped == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_without_workload_is_an_error() {
        let db = Database::new();
        let err = TuningSession::new(&db).budget(1e6).run().unwrap_err();
        assert!(matches!(err, CadbError::InvalidArgument(_)), "{err}");
    }

    #[test]
    fn preset_preserves_session_knobs() {
        let db = Database::new();
        let s = TuningSession::new(&db)
            .budget(123.0)
            .seed(99)
            .parallelism(Parallelism::Serial)
            .top_k(5)
            .merging(false)
            .preset(Preset::Dta);
        assert_eq!(s.options().storage_budget, 123.0);
        assert_eq!(s.options().seed, 99);
        assert_eq!(s.options().parallelism, Parallelism::Serial);
        assert_eq!(s.options().top_k, 5);
        assert!(!s.options().merging);
        assert!(!s.options().compression);
        assert_eq!(s.strategies().selection.name(), "top-k");
        assert_eq!(s.strategies().enumeration.name(), "greedy");
    }
}
