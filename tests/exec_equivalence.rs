//! Compressed-execution equivalence suite.
//!
//! Pins the exec subsystem's determinism contract end to end: executing a
//! workload query **directly over compressed pages** produces output
//! bit-identical to the decompress-then-execute reference, for every codec
//! and every `Parallelism` setting, on TPC-H and TPC-DS — and the whole
//! executor agrees with the engine's row-store executor on uncompressed
//! heaps. The six physical column codecs (PLAIN, NS, PAGE's
//! prefix+local-dictionary, GDICT, GDICT's NS fallback, RLE) are all
//! exercised: each page-level `CompressionKind` below drives its column
//! codecs, and the fallback is pinned separately in the exec crate's
//! property suite.

mod common;

use cadb::common::{ColumnId, Parallelism};
use cadb::compression::CompressionKind;
use cadb::datagen::{TpcdsGen, TpchGen};
use cadb::engine::{
    Configuration, Database, IndexSpec, PhysicalStructure, WhatIfOptimizer, Workload,
};
use cadb::exec::{execute_query, ExecMode, MaterializedConfig, MeasuredRun};
use cadb::TuningSession;
use common::mv_index;

const SCALE: f64 = 0.02;

const KINDS: [CompressionKind; 5] = [
    CompressionKind::None,
    CompressionKind::Row,
    CompressionKind::Page,
    CompressionKind::GlobalDict,
    CompressionKind::Rle,
];

const PARS: [Parallelism; 4] = [
    Parallelism::Serial,
    Parallelism::Auto,
    Parallelism::Threads(2),
    Parallelism::Threads(8),
];

fn tpch() -> (Database, Workload) {
    let gen = TpchGen::new(SCALE);
    let db = gen.build().unwrap();
    let w = gen.workload(&db).unwrap();
    (db, w)
}

fn tpcds() -> (Database, Workload) {
    let gen = TpcdsGen::new(SCALE);
    let db = gen.build().unwrap();
    let w = gen.workload(&db).unwrap();
    (db, w)
}

/// A configuration giving every table a clustered index compressed with
/// `kind` — so each query's scan really decodes that codec's pages.
fn clustered_config(db: &Database, kind: CompressionKind) -> Configuration {
    let opt = WhatIfOptimizer::new(db);
    let mut cfg = Configuration::empty();
    for t in db.table_ids() {
        let spec = IndexSpec::clustered(t, vec![ColumnId(0)]).with_compression(kind);
        let size = opt.estimate_uncompressed_size(&spec);
        cfg.add(PhysicalStructure { spec, size });
    }
    cfg
}

fn assert_equivalence(name: &str, db: &Database, w: &Workload) {
    for kind in KINDS {
        let cfg = clustered_config(db, kind);
        let mat = MaterializedConfig::build(db, &cfg).unwrap();
        for (qi, (q, _)) in w.queries().enumerate() {
            let (reference, _) =
                execute_query(&mat, q, Parallelism::Serial, ExecMode::Reference).unwrap();
            for par in PARS {
                let (compressed, _) = execute_query(&mat, q, par, ExecMode::Compressed).unwrap();
                assert_eq!(
                    compressed, reference,
                    "{name} q{qi} {kind} {par:?}: compressed != reference"
                );
                // The reference path itself must also be parallelism-proof.
                let (refp, _) = execute_query(&mat, q, par, ExecMode::Reference).unwrap();
                assert_eq!(refp, reference, "{name} q{qi} {kind} {par:?} reference");
            }
        }
    }
}

#[test]
fn tpch_compressed_execution_bit_identical_across_codecs_and_parallelism() {
    let (db, w) = tpch();
    assert_equivalence("tpch", &db, &w);
}

#[test]
fn tpcds_compressed_execution_bit_identical_across_codecs_and_parallelism() {
    let (db, w) = tpcds();
    assert_equivalence("tpcds", &db, &w);
}

/// On uncompressed heaps (insertion order preserved) the exec pipeline
/// must agree with the engine's row-store executor — grouped output is
/// sorted by both, non-grouped output keeps scan order.
#[test]
fn exec_agrees_with_engine_executor_on_heaps() {
    for (name, db, w) in [
        ("tpch", tpch().0, tpch().1),
        ("tpcds", tpcds().0, tpcds().1),
    ] {
        let mat = MaterializedConfig::build(&db, &Configuration::empty()).unwrap();
        for (qi, (q, _)) in w.queries().enumerate() {
            let engine_rows = cadb::engine::exec::execute(&db, q).unwrap();
            for mode in [ExecMode::Compressed, ExecMode::Reference] {
                let (rows, _) = execute_query(&mat, q, Parallelism::Serial, mode).unwrap();
                assert_eq!(rows, engine_rows, "{name} q{qi} {mode:?} vs engine");
            }
        }
    }
}

/// The full loop: advisor → materialize → execute → measure, on both
/// benchmarks, with every query verified and sizes measured.
#[test]
fn measured_run_closes_the_loop_on_tpch_and_tpcds() {
    for (name, (db, w)) in [("tpch", tpch()), ("tpcds", tpcds())] {
        let session = TuningSession::new(&db)
            .workload(&w)
            .budget_fraction(0.3)
            .parallelism(Parallelism::Threads(2));
        let rec = session.run().unwrap();
        assert!(
            !rec.configuration.is_empty(),
            "{name}: empty recommendation"
        );
        let report = session.execute(&rec).unwrap();
        assert!(report.all_queries_verified(), "{name}: query mismatch");
        assert_eq!(report.structures.len(), rec.configuration.len());
        assert!(report.measured_total_bytes > 0, "{name}");
        for s in &report.structures {
            assert!(s.measured_rows > 0, "{name} {}", s.spec);
            // Estimates must be in the right ballpark of reality — the
            // whole point of the paper's framework (generous bound; the
            // repro EXPERIMENTS table records the actual errors).
            assert!(
                s.size_error().abs() < 1.0,
                "{name} {}: estimated {} vs measured {} ({}%)",
                s.spec,
                s.estimated.bytes,
                s.measured_bytes,
                100.0 * s.size_error()
            );
        }
        // The report is identical regardless of parallelism.
        let serial = MeasuredRun::new(&db, &w)
            .with_parallelism(Parallelism::Serial)
            .execute(&rec.configuration)
            .unwrap();
        assert_eq!(serial.to_json(), report.to_json(), "{name} parallelism");
    }
}

/// `repro -- plan`'s `mv-rich` configuration (one MV index per
/// MV-answerable query), rebuilt here because the bench crate is not a
/// dependency of the facade.
fn mv_rich_config(db: &Database, w: &Workload) -> Configuration {
    let opt = WhatIfOptimizer::new(db);
    let mut cfg = Configuration::empty();
    for spec in w.queries().filter_map(|(q, _)| mv_index(q)) {
        if !cfg.contains(&spec) {
            let size = opt.estimate_uncompressed_size(&spec).compressed(0.5);
            cfg.add(PhysicalStructure { spec, size });
        }
    }
    cfg
}

/// The measured MV-maintenance number `MeasuredRun` now reports must
/// agree with what the store actually charged for the same workload —
/// the report is a *view* of the served run, not a separate model.
#[test]
fn measured_report_mv_cost_matches_served_totals() {
    let gen = cadb_datagen::TpchGen::new(0.01);
    let db = gen.build().unwrap();
    let w = gen.workload(&db).unwrap();
    let cfg = mv_rich_config(&db, &w);
    let report = MeasuredRun::new(&db, &w).execute(&cfg).unwrap();
    let measured = report.mv_maintenance_cost.expect("workload writes");
    let expected: f64 = report
        .writes
        .iter()
        .map(|wr| wr.weight * wr.measured_mv_cost)
        .sum();
    assert_eq!(measured.to_bits(), expected.to_bits());
    let whatif = report.mv_maintenance_whatif.expect("workload inserts");
    assert!(whatif.is_finite());
}
