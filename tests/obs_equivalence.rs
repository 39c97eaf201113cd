//! Observability-neutrality suite: recording must never influence results.
//!
//! The `cadb_common::obs` layer's hard contract is that every
//! instrumentation point is purely observational — installing a
//! `TraceRecorder` around the advisor, the executor harness or the store
//! changes wall-clock only, never a byte of output. This suite pins that
//! on TPC-H and TPC-DS under both `Parallelism::Serial` and
//! `Parallelism::Auto`: each pipeline runs once with no recorder (the
//! one-branch no-op path) and once under `obs::record`, and the outputs
//! are compared bit-for-bit.
//!
//! The traces themselves are asserted only loosely (non-empty, expected
//! roots present): trace *shape* may grow with new instrumentation, but
//! output equality may never break.

use cadb::common::obs;
use cadb::common::Parallelism;
use cadb::core::{Advisor, AdvisorOptions, Recommendation};
use cadb::datagen::{TpcdsGen, TpchGen};
use cadb::engine::lower::lower_statement;
use cadb::engine::{CostModel, Database, Workload};
use cadb::exec::{MaterializedConfig, MeasuredRun, ShardedStore, Store, DEFAULT_WRITE_SEED};
use cadb::shard::ShardSpec;

const SCALE: f64 = 0.02;
const MODES: [Parallelism; 2] = [Parallelism::Serial, Parallelism::Auto];

fn tpch() -> (Database, Workload) {
    let gen = TpchGen::new(SCALE);
    let db = gen.build().unwrap();
    let w = gen.workload(&db).unwrap();
    (db, w)
}

fn tpcds() -> (Database, Workload) {
    let db = TpcdsGen::new(SCALE).build().unwrap();
    let mut w = Workload::default();
    for sql in [
        "SELECT itemkey, SUM(qty) FROM store_sales \
         WHERE discount BETWEEN 2 AND 7 GROUP BY itemkey",
        "SELECT SUM(netpaid) FROM store_sales WHERE qty > 60",
        "SELECT soldkey, SUM(salesprice) FROM store_sales \
         WHERE listprice < 6000 GROUP BY soldkey",
    ] {
        w.push(lower_statement(&db, sql).unwrap(), 1.0);
    }
    (db, w)
}

fn assert_recommendation_bits(plain: &Recommendation, traced: &Recommendation, ctx: &str) {
    assert_eq!(
        plain.initial_cost.to_bits(),
        traced.initial_cost.to_bits(),
        "{ctx} initial_cost"
    );
    assert_eq!(
        plain.final_cost.to_bits(),
        traced.final_cost.to_bits(),
        "{ctx} final_cost"
    );
    assert_eq!(plain.pool_size, traced.pool_size, "{ctx} pool_size");
    let (a, b) = (
        plain.configuration.structures(),
        traced.configuration.structures(),
    );
    assert_eq!(a.len(), b.len(), "{ctx} configuration size");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.spec, y.spec, "{ctx} spec");
        assert_eq!(
            x.size.bytes.to_bits(),
            y.size.bytes.to_bits(),
            "{ctx} {} bytes",
            x.spec
        );
        assert_eq!(
            x.size.compression_fraction.to_bits(),
            y.size.compression_fraction.to_bits(),
            "{ctx} {} cf",
            x.spec
        );
    }
    assert_eq!(plain.timings.sampled, traced.timings.sampled, "{ctx}");
    assert_eq!(plain.timings.deduced, traced.timings.deduced, "{ctx}");
    assert_eq!(
        plain.timings.estimation_cost_pages.to_bits(),
        traced.timings.estimation_cost_pages.to_bits(),
        "{ctx} estimation cost"
    );
}

/// Advisor outputs are bit-identical with and without a recorder, and the
/// traced run really recorded the pipeline (so this isn't vacuous).
#[test]
fn advisor_output_identical_under_recording() {
    for (name, (db, w)) in [("tpch", tpch()), ("tpcds", tpcds())] {
        let budget = 0.3 * db.base_data_bytes() as f64;
        for par in MODES {
            let opts = AdvisorOptions::dtac(budget).with_parallelism(par);
            let plain = Advisor::new(&db, opts.clone()).recommend(&w).unwrap();
            let (traced, trace) =
                obs::record(|| Advisor::new(&db, opts.clone()).recommend(&w).unwrap());
            assert_recommendation_bits(&plain, &traced, &format!("{name} {par:?}"));
            for span in ["advise", "sampling.samplecf_batch", "whatif.batch"] {
                assert!(trace.find_span(span).is_some(), "{name}: no {span} span");
            }
            assert!(trace.metric_count() >= 5, "{name} metrics missing");
        }
    }
}

/// The measured executor harness (materialize → plan → execute → write
/// actuals) reports byte-identical JSON with and without a recorder. The
/// report covers structure bytes, per-query rows/paths/page counts and
/// per-statement write costs, so JSON equality is output equality.
#[test]
fn measured_run_report_identical_under_recording() {
    for (name, (db, w)) in [("tpch", tpch()), ("tpcds", tpcds())] {
        let budget = 0.3 * db.base_data_bytes() as f64;
        let rec = Advisor::new(&db, AdvisorOptions::dtac(budget))
            .recommend(&w)
            .unwrap();
        for par in MODES {
            let run = || {
                MeasuredRun::new(&db, &w)
                    .with_parallelism(par)
                    .execute(&rec.configuration)
                    .unwrap()
                    .to_json()
            };
            let plain = run();
            let (traced, trace) = obs::record(run);
            assert_eq!(plain, traced, "{name} {par:?} measured report diverged");
            for span in [
                "exec.measured_run",
                "planner.plan_query",
                "exec.build_config",
            ] {
                assert!(trace.find_span(span).is_some(), "{name}: no {span} span");
            }
        }
    }
}

/// The store's committed state, log bytes and per-statement measured
/// costs are bit-identical with and without a recorder, across log
/// layouts, group commit batch sizes and parallelism modes — and both
/// layouts speak the same span vocabulary.
#[test]
fn store_state_and_actuals_identical_under_recording() {
    let (db, w) = tpch();
    let budget = 0.3 * db.base_data_bytes() as f64;
    let rec = Advisor::new(&db, AdvisorOptions::dtac(budget))
        .recommend(&w)
        .unwrap();
    let mat = MaterializedConfig::build(&db, &rec.configuration).unwrap();
    for layout in [None, Some(ShardSpec::hash(4))] {
        for par in MODES {
            for batch in [1usize, 16] {
                let run = || {
                    let store: Store<'_> = match layout {
                        None => Store::open(&db, &mat, CostModel::default()),
                        Some(spec) => ShardedStore::open(&db, &mat, CostModel::default(), spec)
                            .unwrap()
                            .into(),
                    };
                    let actuals = store
                        .apply_workload_batched(&w, DEFAULT_WRITE_SEED, par, batch)
                        .unwrap();
                    let costs: Vec<(usize, u64, u64)> = actuals
                        .iter()
                        .map(|a| (a.statement_index, a.measured_cost.to_bits(), a.n_rows))
                        .collect();
                    let logs = (store.wal_bytes(), store.all_shard_wal_bytes());
                    (store.state_digest().unwrap(), logs, costs)
                };
                let plain = run();
                let (traced, trace) = obs::record(run);
                let ctx = format!("{layout:?}/{par:?}/{batch}");
                assert_eq!(plain.0, traced.0, "{ctx} state digest");
                assert_eq!(plain.1, traced.1, "{ctx} log bytes");
                assert_eq!(plain.2, traced.2, "{ctx} measured costs");
                for span in [
                    "store.apply_workload",
                    "store.commit_batch",
                    "store.commit.prepare",
                    "store.commit.append",
                    "store.commit.apply",
                ] {
                    assert!(trace.find_span(span).is_some(), "{ctx}: no {span} span");
                }
                assert!(trace.counter("store.commits").unwrap_or(0) > 0);
                assert_eq!(
                    trace.counter("store.shard.order_records").is_some(),
                    layout.is_some(),
                    "{ctx}: layout-specific counters"
                );
            }
        }
    }
}

/// Recovery from the WAL behaves identically traced and untraced, and the
/// traced recovery publishes its report counters.
#[test]
fn recovery_identical_under_recording() {
    let (db, w) = tpch();
    let budget = 0.3 * db.base_data_bytes() as f64;
    let rec = Advisor::new(&db, AdvisorOptions::dtac(budget))
        .recommend(&w)
        .unwrap();
    let mat = MaterializedConfig::build(&db, &rec.configuration).unwrap();
    let store = Store::open(&db, &mat, CostModel::default());
    store
        .apply_workload(&w, DEFAULT_WRITE_SEED, Parallelism::Auto)
        .unwrap();
    let wal = store.wal_bytes();
    let live = store.state_digest().unwrap();

    let plain = {
        let (recovered, report) = Store::recover(&db, &mat, CostModel::default(), &wal).unwrap();
        (recovered.state_digest().unwrap(), report.frames_applied)
    };
    let (traced, trace) = obs::record(|| {
        let (recovered, report) = Store::recover(&db, &mat, CostModel::default(), &wal).unwrap();
        (recovered.state_digest().unwrap(), report.frames_applied)
    });
    assert_eq!(plain, traced, "recovery diverged under recording");
    assert_eq!(plain.0, live, "recovery must reproduce the live state");
    assert!(trace.find_span("store.recover").is_some());
    assert_eq!(
        trace.counter("store.recovery.frames_applied"),
        Some(plain.1 as u64)
    );
}
