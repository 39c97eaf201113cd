//! # cadb — Compression Aware Physical Database Design
//!
//! A from-scratch Rust reproduction of *"Compression Aware Physical
//! Database Design"* (Kimura, Narasayya, Syamala — PVLDB 4(10), 2011),
//! including the full substrate the paper's system ran on: a page-oriented
//! storage engine with real ROW/PAGE/global-dictionary/RLE compression, a
//! mini SQL front end, an optimizer with a compression-aware cost model and
//! what-if API, the sampling infrastructure (amortized samples, join
//! synopses, MV samples, SampleCF), the size-estimation framework
//! (deductions + error model + graph search), and the DTA/DTAc advisor
//! (Skyline candidate selection, Backtracking enumeration).
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! paths, hosts the [`TuningSession`] entry point, and carries the runnable
//! examples and integration tests.
//!
//! ## Quick start
//!
//! [`TuningSession`] composes database, workload, budget, strategies and
//! parallelism in one fluent chain:
//!
//! ```
//! use cadb::datagen::TpchGen;
//! use cadb::TuningSession;
//!
//! let gen = TpchGen::new(0.01);            // tiny TPC-H-like database
//! let db = gen.build().unwrap();
//! let workload = gen.workload(&db).unwrap();
//!
//! let rec = TuningSession::new(&db)
//!     .workload(&workload)
//!     .budget_fraction(0.3)                // 30 % of the base data size
//!     .run()
//!     .unwrap();
//! assert!(rec.improvement_percent() > 0.0);
//! assert!(rec.total_bytes() <= 0.3 * db.base_data_bytes() as f64);
//! ```
//!
//! The defaults reproduce full DTAc; [`Preset`] switches to the paper's
//! DTA / DTAc (None) ablations. The legacy `Advisor::new(&db,
//! AdvisorOptions::dtac(budget)).recommend(&workload)` path still works and
//! produces byte-identical output — the options presets are thin veneers
//! over the strategy objects below.
//!
//! ## Extending the advisor
//!
//! The pipeline's three variable stages are trait-based extension points
//! (defined in [`core::strategy`]):
//!
//! | Trait | Stage | Built-in implementations |
//! |-------|-------|--------------------------|
//! | [`SizeEstimator`](cadb_core::SizeEstimator) | compressed-size estimation (§5) | [`DeductionEstimator`](cadb_core::DeductionEstimator) (plan + SampleCF + deduce), [`SampleCfEstimator`](cadb_core::SampleCfEstimator) (sample everything), [`ExactEstimator`](cadb_core::ExactEstimator) (build + measure) |
//! | [`CandidateSelection`](cadb_core::CandidateSelection) | per-query candidate survivors (§6.1) | [`TopK`](cadb_core::TopK), [`Skyline`](cadb_core::Skyline) |
//! | [`EnumerationStrategy`](cadb_core::EnumerationStrategy) | final configuration under the budget (§6.2) | [`Greedy`](cadb_core::Greedy), [`DensityGreedy`](cadb_core::DensityGreedy), [`Backtracking`](cadb_core::Backtracking) |
//!
//! All three are object-safe and `Send + Sync`; implement one and hand it
//! to the session (a custom strategy is ~100 lines, not a cross-cutting
//! edit):
//!
//! ```
//! use cadb::core::strategy::{AdvisorContext, EnumerationStrategy};
//! use cadb::core::Skyline;
//! use cadb::engine::{Configuration, PhysicalStructure, Workload};
//! use cadb::TuningSession;
//!
//! /// Grab pool candidates in order while they fit the budget.
//! struct FirstFit;
//!
//! impl EnumerationStrategy for FirstFit {
//!     fn name(&self) -> &'static str {
//!         "first-fit"
//!     }
//!     fn enumerate(
//!         &self,
//!         ctx: &AdvisorContext<'_>,
//!         _workload: &Workload,
//!         pool: &[PhysicalStructure],
//!     ) -> cadb::common::Result<Configuration> {
//!         let mut cfg = Configuration::empty();
//!         for s in pool {
//!             if cfg.total_bytes() + s.size.bytes <= ctx.storage_budget {
//!                 cfg.add(s.clone());
//!             }
//!         }
//!         Ok(cfg)
//!     }
//! }
//!
//! let gen = cadb::datagen::TpchGen::new(0.01);
//! let db = gen.build().unwrap();
//! let workload = gen.workload(&db).unwrap();
//! let rec = TuningSession::new(&db)
//!     .workload(&workload)
//!     .budget_fraction(0.2)
//!     .selection(Skyline::default())
//!     .enumeration(FirstFit)
//!     .run()
//!     .unwrap();
//! assert!(rec.total_bytes() <= 0.2 * db.base_data_bytes() as f64);
//! ```
//!
//! Determinism contract: every built-in strategy produces bit-identical
//! output for every [`engine::Parallelism`]
//! setting; custom strategies should preserve that property (the
//! what-if optimizer's batched entry points make it easy — see
//! `cadb::common::par`).
//!
//! ## Executing a recommendation
//!
//! Everything above *estimates*. [`TuningSession::execute`] closes the
//! loop: it materializes a [`core::Recommendation`]'s configuration into
//! **real** compressed structures, runs the workload's queries over them
//! with the vectorized compressed executor in [`exec`], and returns a
//! [`exec::MeasuredReport`] placing measured sizes and row counts next to
//! the advisor's estimates:
//!
//! ```
//! use cadb::datagen::TpchGen;
//! use cadb::TuningSession;
//!
//! let gen = TpchGen::new(0.01);
//! let db = gen.build().unwrap();
//! let workload = gen.workload(&db).unwrap();
//!
//! let session = TuningSession::new(&db)
//!     .workload(&workload)
//!     .budget_fraction(0.3);
//! let rec = session.run().unwrap();
//! let actuals = session.execute(&rec).unwrap();
//!
//! // Every query ran over compressed pages AND over the
//! // decompress-then-execute reference, bit-identically:
//! assert!(actuals.all_queries_verified());
//! // Each recommended structure now has a measured size beside its
//! // estimate:
//! for s in &actuals.structures {
//!     assert!(s.measured_rows > 0);
//!     let _signed_relative_error = s.size_error();
//! }
//! ```
//!
//! The executor runs scan/filter/aggregate kernels **directly over
//! compressed pages** — predicates are evaluated once per RLE run or
//! dictionary entry instead of once per row — and every scan batches
//! leaves over `cadb::common::par` under the same determinism contract as
//! the estimation pipeline. The measured residuals feed back into the
//! error model via [`core::ErrorModel::calibrate_samplecf`]; `repro --
//! exec` prints the full estimated-vs-actual table.
//!
//! ## How a write commits
//!
//! [`TuningSession::serve`] measures the write path the way `execute`
//! measures reads: against a real store ([`exec::Store`]) — snapshot
//! isolation via MVCC version chains over the immutable compressed bases,
//! durability via a write-ahead log. One commit walks four steps:
//!
//! 1. **Prepare.** `prepare_insert` / `prepare_update` / `prepare_delete`
//!    resolve a statement against the current snapshot into
//!    `CommitEffects`: appended rows, rewritten slots, and — for DELETE —
//!    end-of-chain tombstones that close a version's `[begin, end)`
//!    validity without touching the row bytes older snapshots still read.
//!    Preparation only reads, so many statements prepare in parallel.
//! 2. **Price.** Maintenance for every affected structure (secondary and
//!    partial indexes, MV overlays) is priced *outside* the commit lock —
//!    a pure function of the effects and the immutable bases, which is
//!    what keeps the measured [`exec::WriteActual`]s independent of
//!    commit-time interleaving.
//! 3. **Log.** The critical section assigns the LSN and appends one WAL
//!    frame per statement; `commit_batch` appends a whole batch
//!    back-to-back under a **single sync point** per log stream (group
//!    commit). Frame bytes depend only on statement order, so replayed
//!    state, WAL-frame digests and per-statement actuals are bit-identical
//!    across batch sizes and [`engine::Parallelism`] modes — only the
//!    sync-point count changes.
//! 4. **Apply.** Version chains gain their new entries and the committed
//!    watermark advances. Readers never block: old snapshots keep their
//!    view, and a snapshot-keyed page cache serves patched compressed
//!    leaf images to new readers without re-decoding row caches.
//!
//! `Store::checkpoint` folds the committed overlays into fresh compressed
//! structures, logs a checkpoint marker, and truncates the WAL to it;
//! `Store::recover_with_checkpoint` restarts from the artifact plus the
//! post-checkpoint tail, making recovery O(tail) instead of O(history):
//!
//! ```
//! use cadb::datagen::TpchGen;
//! use cadb::engine::{CostModel, Parallelism};
//! use cadb::exec::{MaterializedConfig, Store, DEFAULT_WRITE_SEED};
//! use cadb::TuningSession;
//!
//! let gen = TpchGen::new(0.01);
//! let db = gen.build().unwrap();
//! let workload = gen.workload(&db).unwrap();
//! let rec = TuningSession::new(&db)
//!     .workload(&workload)
//!     .budget_fraction(0.3)
//!     .run()
//!     .unwrap();
//!
//! let mat = MaterializedConfig::build(&db, &rec.configuration).unwrap();
//! let store = Store::open(&db, &mat, CostModel::default());
//! // Group commit: prepare in parallel, sync once per batch of 4 —
//! // bit-identical state and actuals to serial singleton commits.
//! store
//!     .apply_workload_batched(&workload, DEFAULT_WRITE_SEED, Parallelism::Auto, 4)
//!     .unwrap();
//!
//! // Checkpoint: fold, truncate the WAL, anchor recovery.
//! let chk = store.checkpoint().unwrap();
//! let (recovered, report) =
//!     Store::recover_with_checkpoint(&db, &mat, CostModel::default(), &chk, &store.wal_bytes())
//!         .unwrap();
//! assert_eq!(report.checkpoints_seen, 1);
//! assert_eq!(report.frames_applied, 0); // no post-checkpoint tail yet
//! assert_eq!(
//!     recovered.state_digest().unwrap(),
//!     store.state_digest().unwrap()
//! );
//! ```
//!
//! **The log layout is a parameter of that one protocol, not a second
//! one.** By default the log is a single WAL. [`TuningSession::serve_sharded`]
//! ([`exec::ShardedStore`]) places the same commits on **per-shard WAL
//! streams under one global commit order**: a [`shard::ShardSpec`] (hash
//! or range) routes each row of a statement's effects to a shard, every
//! participating shard appends one sub-frame at its own local LSN, and a
//! **commit-order record** in a dedicated order log (LSN'd like any frame,
//! group-committed like any batch) stitches the local LSNs back into the
//! total order. Shard streams sync *first*, the order record *last* — its
//! durability is the commit point. Steps 1, 2 and 4 do not know the
//! layout: maintenance is still priced on the *whole* statement at its
//! single-WAL frame length (costs are nonlinear, per-shard sums would
//! drift), so [`exec::WriteActual`]s, state digests and checkpoint
//! artifacts are bit-identical to the single log's. Recovery is the same
//! walk over the commit-point stream; under the sharded layout it decodes
//! the shard segments in parallel first and re-merges each order record's
//! sub-effects into the original statement. A torn shard tail invalidates
//! exactly the commits whose order records reference lost frames —
//! everything from the first gap in the total order is discarded, so
//! recovery never surfaces a half-committed statement.
//!
//! One test suite runs over every layout (shard count × partitioning ×
//! parallelism × batch size, with fault injection at every sync point of
//! every stream), and the identity holds end to end:
//!
//! ```
//! use cadb::datagen::TpchGen;
//! use cadb::shard::ShardSpec;
//! use cadb::TuningSession;
//!
//! let gen = TpchGen::new(0.01);
//! let db = gen.build().unwrap();
//! let workload = gen.workload(&db).unwrap();
//! let session = TuningSession::new(&db)
//!     .workload(&workload)
//!     .budget_fraction(0.3);
//! let rec = session.run().unwrap();
//!
//! // Serve the same writes through one WAL and across 4 hash shards.
//! let mono = session.serve(&rec).unwrap();
//! let sharded = session.serve_sharded(ShardSpec::hash(4)).serve(&rec).unwrap();
//!
//! // Sharding changed the log layout, not the database.
//! assert_eq!(sharded.shards, 4);
//! assert_eq!(sharded.shard_wal_bytes.len(), 4);
//! assert_eq!(sharded.state_digest, mono.state_digest);
//! assert_eq!(sharded.watermark, mono.watermark);
//! assert_eq!(
//!     sharded.measured_write_cost.to_bits(),
//!     mono.measured_write_cost.to_bits()
//! );
//! // And the sharded log set recovers the committed state exactly.
//! assert!(sharded.recovery_verified());
//! ```
//!
//! ## How data flows out-of-core
//!
//! Everything above holds whole tables in memory. At real scale
//! (`repro -- all --scale 1`) the [`shard`] crate threads a chunked,
//! budgeted data path through the same stack without changing a single
//! byte of what gets built:
//!
//! 1. **Stream.** [`datagen::TableStream`] generates rows in fixed
//!    4096-row grid cells; each cell's RNG is seeded from
//!    `(seed, table, global row range)`, so any shard split of a table
//!    ([`datagen::shard_ranges`]) yields byte-identical rows in parallel.
//! 2. **Build.** [`shard::ShardedIndex`] partitions (hash or range), sorts
//!    per shard on workers, k-way merges under one total order, and hands
//!    the merged stream to [`storage::PhysicalIndex::build_striped`] — the
//!    one index build path, which packs leaves on a fixed stripe grid. The
//!    built bytes never depend on the shard count, the partitioning policy,
//!    or the [`engine::Parallelism`] mode. A [`common::MemoryBudget`]
//!    meters every working set and fails loudly past its hard limit instead
//!    of thrashing.
//! 3. **Measure.** [`exec::MaterializedConfig::build_with`] builds every
//!    structure of a configuration through the same striped build; the
//!    peak metered bytes surface in
//!    [`exec::MaterializedConfig::build_stats`] and the
//!    `shard.build_peak_bytes` observability gauge (and `repro
//!    --mem-budget` caps them).
//!
//! ```
//! use cadb::common::MemoryBudget;
//! use cadb::compression::CompressionKind;
//! use cadb::datagen::TpchGen;
//! use cadb::engine::Configuration;
//! use cadb::exec::MaterializedConfig;
//! use cadb::shard::{BuildOptions, ShardSpec, ShardedIndex};
//!
//! let gen = TpchGen::new(0.02);
//! let db = gen.build().unwrap();
//! let dtypes = db.dtypes(db.table_id("lineitem").unwrap());
//!
//! // Chunked generation: the stream covers the whole table.
//! let rows: Vec<_> = gen
//!     .stream_table("lineitem")
//!     .unwrap()
//!     .flat_map(|c| c.rows)
//!     .collect();
//! assert_eq!(rows.len() as u64, gen.stream_row_count("lineitem").unwrap());
//!
//! // Sharded builds are an execution strategy, not a layout: any shard
//! // count produces the same physical bytes, metered end to end.
//! let budget = MemoryBudget::unlimited();
//! let opts = BuildOptions::default().with_budget(budget.clone());
//! let one = ShardedIndex::build(
//!     &rows, &dtypes, 1, CompressionKind::Page, ShardSpec::range(1), &opts,
//! )
//! .unwrap();
//! let eight = ShardedIndex::build(
//!     &rows, &dtypes, 1, CompressionKind::Page, ShardSpec::hash(8), &opts,
//! )
//! .unwrap();
//! assert_eq!(one.index().size_bytes(), eight.index().size_bytes());
//! assert_eq!(one.index().scan().unwrap(), eight.index().scan().unwrap());
//! assert!(budget.peak_bytes() > 0); // the run's memory story, measured
//!
//! // The actuals harness builds a whole configuration the same way,
//! // here on a 512-row stripe grid under a hard limit.
//! let opts = BuildOptions::default()
//!     .with_stripe_rows(512)
//!     .with_budget(MemoryBudget::limited(64 << 20));
//! let mat = MaterializedConfig::build_with(&db, &Configuration::empty(), &opts).unwrap();
//! assert!(mat.build_stats().stripes > db.table_ids().len());
//! assert!(mat.build_stats().peak_bytes <= 64 << 20);
//! ```
//!
//! ## Observing a tuning session
//!
//! Every layer above is instrumented through [`common::obs`] — hierarchical
//! spans, counters, gauges and log-scale latency histograms behind one
//! [`common::obs::Recorder`] trait. Nothing records by default: with no
//! recorder installed each instrumentation point is a single predicted
//! branch, and recording **never changes results** — all the bit-identical
//! contracts above hold with observability on or off
//! (`tests/obs_equivalence.rs` pins this on TPC-H and TPC-DS).
//!
//! [`TuningSession::observe`] wraps any session work in a
//! [`common::obs::TraceRecorder`] and hands back the merged span tree and
//! metrics as a [`common::obs::TraceReport`]:
//!
//! ```
//! use cadb::datagen::TpchGen;
//! use cadb::TuningSession;
//!
//! let gen = TpchGen::new(0.01);
//! let db = gen.build().unwrap();
//! let workload = gen.workload(&db).unwrap();
//!
//! let session = TuningSession::new(&db)
//!     .workload(&workload)
//!     .budget_fraction(0.3);
//! let (rec, trace) = session.observe(|s| s.run().unwrap());
//!
//! // The span tree is non-empty: the advisor run decomposes into its
//! // pipeline stages, down to sampling and what-if batches.
//! assert!(!trace.roots.is_empty());
//! let advise = trace.find_span("advise").unwrap();
//! assert!(!advise.children.is_empty());
//! assert!(trace.find_span("whatif.batch").is_some());
//! // Named metrics ride along (candidate counts, configs costed, …).
//! assert!(trace.metric_count() >= 10);
//! assert_eq!(
//!     trace.counter("advise.chosen_structures"),
//!     Some(rec.configuration.len() as u64)
//! );
//! // `trace.to_json()` is what `repro --trace <file>` writes;
//! // `trace.render()` pretty-prints the tree.
//! # let _ = rec;
//! ```
//!
//! Commit throughput and latency are measured by the repository benchmark
//! (`BENCHMARK.json` + `benchmark/`: `commits_per_s`, `commit_p50_us`,
//! `commit_p99_us`, `store.group_commit16_commits_per_s`); a recorder
//! installed around a store also sees every group commit as a
//! `store.group_commit_ns` histogram sample.

mod session;

pub use cadb_common as common;
pub use cadb_compression as compression;
pub use cadb_core as core;
pub use cadb_datagen as datagen;
pub use cadb_engine as engine;
pub use cadb_exec as exec;
pub use cadb_sampling as sampling;
pub use cadb_shard as shard;
pub use cadb_sql as sql;
pub use cadb_stats as stats;
pub use cadb_storage as storage;
pub use session::{Preset, ServeReport, TuningSession};
