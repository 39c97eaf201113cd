//! `exec` — the estimated-vs-actual experiment: run the advisor, then
//! **build and execute** its recommendation and put measured numbers next
//! to the estimates.
//!
//! For TPC-H and TPC-DS: run DTAc under a 30 % budget, materialize the
//! recommended configuration into real compressed structures
//! (`cadb_exec::MeasuredRun`), execute every workload query over
//! compressed pages (verified bit-identical against the
//! decompress-then-execute reference), and report per-structure estimated
//! vs measured size with signed relative error. The residuals re-fit the
//! error model's SampleCF coefficients (`ErrorModel::calibrate_samplecf`),
//! closing the loop from measurement back into the model.

use crate::report::Table;
use cadb_common::json::{JsonArray, JsonObject};
use cadb_core::strategy::{DeductionEstimator, EstimationContext, SizeEstimator};
use cadb_core::{Advisor, AdvisorOptions, ErrorModel, MeasuredResidual, Recommendation};
use cadb_engine::{Configuration, Database, IndexSpec, WhatIfOptimizer, Workload};
use cadb_exec::{MeasuredReport, MeasuredRun};
use cadb_sampling::SampleManager;
use cadb_shard::BuildOptions;

/// Budget fraction the exec run tunes under (same as `advise`).
const BUDGET_FRACTION: f64 = 0.3;

/// Advisor run + measured execution for one dataset. Returns the
/// recommendation, the actuals report, and the sampling fraction the
/// planner actually chose for the recommended compressed structures
/// (recovered by re-planning their estimation, as `advise` does) — the
/// `f` the calibration residuals are fitted against.
pub fn measure(db: &Database, workload: &Workload) -> (Recommendation, MeasuredReport, f64) {
    measure_with_build(
        db,
        workload,
        &BuildOptions::default().with_stripe_rows(usize::MAX),
    )
}

/// [`measure`] with explicit out-of-core build options: the
/// materialization runs striped under `build.budget` (structure bytes are
/// identical for every option; only working-set shape and the reported
/// peak change), so `repro --mem-budget` can run the whole experiment
/// under a hard memory cap.
pub fn measure_with_build(
    db: &Database,
    workload: &Workload,
    build: &BuildOptions,
) -> (Recommendation, MeasuredReport, f64) {
    let budget = BUDGET_FRACTION * db.base_data_bytes() as f64;
    let options = AdvisorOptions::dtac(budget);
    let rec = Advisor::new(db, options.clone())
        .recommend(workload)
        .expect("advisor run");
    let report = MeasuredRun::new(db, workload)
        .with_build(build.clone())
        .execute(&rec.configuration)
        .expect("measured run");
    let compressed: Vec<IndexSpec> = rec
        .configuration
        .structures()
        .iter()
        .filter(|s| s.spec.compression.is_compressed())
        .map(|s| s.spec.clone())
        .collect();
    let opt = WhatIfOptimizer::new(db).with_parallelism(options.parallelism);
    let manager = SampleManager::new(db, options.seed);
    let ctx = EstimationContext {
        opt: &opt,
        manager: &manager,
    };
    let fraction = DeductionEstimator::new(options.estimation)
        .estimate_sizes(&ctx, &compressed, &[])
        .expect("size estimation")
        .fraction;
    (rec, report, fraction)
}

/// The per-structure estimated-vs-measured table for one dataset.
pub fn exec_table(name: &str, report: &MeasuredReport) -> Table {
    let mut t = Table::new(
        format!(
            "exec: {name} estimated vs measured (DTAc at {:.0}% budget)",
            BUDGET_FRACTION * 100.0
        ),
        &[
            "structure",
            "est KiB",
            "meas KiB",
            "err %",
            "est rows",
            "meas rows",
            "est cf",
            "meas cf",
        ],
    );
    for s in &report.structures {
        t.row(vec![
            s.spec.to_string(),
            format!("{:.1}", s.estimated.bytes / 1024.0),
            format!("{:.1}", s.measured_bytes as f64 / 1024.0),
            format!("{:+.1}", 100.0 * s.size_error()),
            format!("{:.0}", s.estimated.rows),
            format!("{}", s.measured_rows),
            format!("{:.2}", s.estimated.compression_fraction),
            format!("{:.2}", s.measured_cf),
        ]);
    }
    t.row(vec![
        "TOTAL".to_string(),
        format!("{:.1}", report.estimated_total_bytes / 1024.0),
        format!("{:.1}", report.measured_total_bytes as f64 / 1024.0),
        format!("{:+.1}", 100.0 * report.total_size_error()),
    ]);
    let verified = if report.all_queries_verified() {
        "all verified"
    } else {
        "MISMATCH"
    };
    let evals_c: usize = report
        .queries
        .iter()
        .map(|q| q.predicate_evals_compressed)
        .sum();
    let evals_r: usize = report
        .queries
        .iter()
        .map(|q| q.predicate_evals_reference)
        .sum();
    t.footer(format!(
        "queries: {} run, {verified}; predicate evals {evals_c} compressed vs {evals_r} reference",
        report.queries.len()
    ));
    t
}

/// The compressed-scan short-circuit, made visible: give every table a
/// clustered index per compression method, execute the whole query set
/// over those compressed pages, and count predicate evaluations on the
/// compressed path (lazy, at most one per RLE run / dictionary entry)
/// against the row-at-a-time reference. Results are bit-identical in every
/// row; only the work differs.
pub fn shortcircuit_table(name: &str, db: &Database, workload: &Workload) -> Table {
    use cadb_common::ColumnId;
    use cadb_compression::CompressionKind;
    use cadb_engine::{Configuration, IndexSpec, PhysicalStructure, WhatIfOptimizer};

    let opt = WhatIfOptimizer::new(db);
    let mut t = Table::new(
        format!("exec: {name} compressed-scan short-circuit (clustered base per method)"),
        &[
            "method",
            "evals compressed",
            "evals reference",
            "ratio",
            "verified",
        ],
    );
    for kind in [
        CompressionKind::Row,
        CompressionKind::Page,
        CompressionKind::GlobalDict,
        CompressionKind::Rle,
    ] {
        let mut cfg = Configuration::empty();
        for table in db.table_ids() {
            let spec = IndexSpec::clustered(table, vec![ColumnId(0)]).with_compression(kind);
            let size = opt.estimate_uncompressed_size(&spec);
            cfg.add(PhysicalStructure { spec, size });
        }
        let report = MeasuredRun::new(db, workload)
            .execute(&cfg)
            .expect("measured run");
        let evals_c: usize = report
            .queries
            .iter()
            .map(|q| q.predicate_evals_compressed)
            .sum();
        let evals_r: usize = report
            .queries
            .iter()
            .map(|q| q.predicate_evals_reference)
            .sum();
        t.row(vec![
            kind.to_string(),
            format!("{evals_c}"),
            format!("{evals_r}"),
            format!("{:.2}x", evals_r as f64 / evals_c.max(1) as f64),
            if report.all_queries_verified() {
                "yes".to_string()
            } else {
                "NO".to_string()
            },
        ]);
    }
    t
}

/// Re-fit the SampleCF error coefficients from the run's measured
/// residuals and render the before/after coefficients. `fraction` is the
/// sampling fraction the planner chose for these estimates (third element
/// of [`measure`]'s return).
pub fn calibration_table(report: &MeasuredReport, fraction: f64) -> Table {
    let residuals: Vec<MeasuredResidual> = report
        .residual_ratios()
        .into_iter()
        .map(|(kind, ratio)| MeasuredResidual {
            kind,
            fraction,
            ratio,
        })
        .collect();
    let base = ErrorModel::default();
    let fitted = base.calibrate_samplecf(&residuals);
    let mut t = Table::new(
        format!(
            "exec: SampleCF coefficients re-fit from {} measured residuals (f={:.0}%)",
            residuals.len(),
            100.0 * fraction
        ),
        &["coefficient", "paper fit", "measured fit"],
    );
    for (name, a, b) in [
        (
            "bias ORD-IND",
            base.samplecf_bias_ord_ind,
            fitted.samplecf_bias_ord_ind,
        ),
        (
            "sd ORD-IND",
            base.samplecf_sd_ord_ind,
            fitted.samplecf_sd_ord_ind,
        ),
        (
            "bias ORD-DEP",
            base.samplecf_bias_ord_dep,
            fitted.samplecf_bias_ord_dep,
        ),
        (
            "sd ORD-DEP",
            base.samplecf_sd_ord_dep,
            fitted.samplecf_sd_ord_dep,
        ),
    ] {
        t.row(vec![name.to_string(), format!("{a:.4}"), format!("{b:.4}")]);
    }
    t
}

/// Feed the measured maintenance residuals back into the what-if write
/// model ([`WhatIfOptimizer::with_maintenance_bias`]) and report the
/// residual bias before and after — the write-cost analogue of
/// [`calibration_table`]. Returns the summary table plus the
/// `(before, after, n)` biases so callers (and tests) can check the loop
/// actually closed.
pub fn maintenance_feedback(
    db: &Database,
    workload: &Workload,
    cfg: &Configuration,
    report: &MeasuredReport,
) -> (Table, f64, f64, usize) {
    let (before, n) = ErrorModel::maintenance_bias(&report.maintenance_residuals());
    let corrected = WhatIfOptimizer::new(db).with_maintenance_bias(before);
    let recosted: Vec<(f64, f64)> = report
        .writes
        .iter()
        .map(|w| {
            let (stmt, _) = &workload.statements[w.statement_index];
            (corrected.statement_cost(stmt, cfg), w.measured_cost)
        })
        .collect();
    let (after, _) = ErrorModel::maintenance_bias(&recosted);
    let mut t = Table::new(
        format!("exec: maintenance-cost bias fed back into what-if ({n} measured writes)"),
        &["quantity", "before feedback", "after feedback"],
    );
    t.row(vec![
        "geomean estimated/measured".to_string(),
        format!("{before:.3}"),
        format!("{after:.3}"),
    ]);
    t.row(vec![
        "|log bias|".to_string(),
        format!("{:.4}", before.ln().abs()),
        format!("{:.4}", after.ln().abs()),
    ]);
    (t, before, after, n)
}

/// Per-statement maintenance of one dataset × configuration: every write
/// the run committed through the store, its what-if estimate beside the
/// measured cost, the MV share and the WAL bytes it appended. `repro --
/// exec` prints it for the DTAc recommendation and `repro -- plan` for
/// `mv-rich`; EXPERIMENTS.md re-examines Figs. 13/17 from these rows.
pub fn write_table(name: &str, variant: &str, report: &MeasuredReport) -> Table {
    let mut t = Table::new(
        format!("writes: {name} measured maintenance per statement ({variant})"),
        &[
            "stmt", "kind", "rows", "est cost", "measured", "est/meas", "mv share", "wal B",
        ],
    );
    for w in &report.writes {
        t.row(vec![
            format!("{}", w.statement_index),
            format!("{:?}", w.kind).to_uppercase(),
            format!("{}", w.n_rows),
            format!("{:.1}", w.estimated_cost),
            format!("{:.1}", w.measured_cost),
            format!("{:.2}", w.cost_ratio()),
            format!("{:.1}", w.measured_mv_cost),
            format!("{}", w.wal_bytes),
        ]);
    }
    let measured: f64 = report.writes.iter().map(|w| w.measured_cost).sum();
    let mv: f64 = report.writes.iter().map(|w| w.measured_mv_cost).sum();
    let (bias, n) = ErrorModel::maintenance_bias(&report.maintenance_residuals());
    t.footer(format!(
        "total: measured {measured:.1} (mv {mv:.1}), geomean est/meas {bias:.2} over {n} writes"
    ));
    t
}

/// Machine-readable form of the whole experiment: one document with the
/// recommendation and the measured report per dataset.
pub fn exec_json(datasets: &[(&str, &Database, &Workload)], scale: f64) -> String {
    let mut arr = JsonArray::new();
    for (name, db, w) in datasets {
        let (rec, report, fraction) = measure(db, w);
        let (_, bias_before, bias_after, bias_n) =
            maintenance_feedback(db, w, &rec.configuration, &report);
        arr.push_raw(
            &JsonObject::new()
                .str("dataset", name)
                .num("planner_fraction", fraction)
                .num("maintenance_bias_before", bias_before)
                .num("maintenance_bias_after", bias_after)
                .int("maintenance_bias_n", bias_n as i64)
                .raw("recommendation", &rec.to_json())
                .raw("measured", &report.to_json())
                .finish(),
        );
    }
    JsonObject::new()
        .str("experiment", "exec")
        .num("scale", scale)
        .num("budget_fraction", BUDGET_FRACTION)
        .raw("datasets", &arr.finish())
        .finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_experiment_verifies_and_reports() {
        let gen = cadb_datagen::TpchGen::new(0.01);
        let db = gen.build().unwrap();
        let w = gen.workload(&db).unwrap();
        let (rec, report, fraction) = measure(&db, &w);
        assert!(fraction > 0.0 && fraction <= 1.0);
        assert!(!rec.configuration.is_empty());
        assert_eq!(report.structures.len(), rec.configuration.len());
        assert!(report.all_queries_verified());
        assert_eq!(report.queries.len(), w.queries().count());
        // Sizes were measured, not estimated.
        assert!(report.measured_total_bytes > 0);
        let table = exec_table("tpch", &report);
        assert!(table.render().contains("TOTAL"));
        assert!(calibration_table(&report, fraction)
            .render()
            .contains("measured fit"));
        // Feeding the measured maintenance bias back must re-center the
        // what-if write costs: the residual bias collapses to ~1.
        let (mt, before, after, n) = maintenance_feedback(&db, &w, &rec.configuration, &report);
        assert!(n > 0, "tpch workload has measured writes");
        assert!(after.ln().abs() <= before.ln().abs() + 1e-9);
        assert!((after - 1.0).abs() < 0.05, "after-feedback bias {after}");
        assert!(mt.render().contains("after feedback"));
        let writes = write_table("tpch", "DTAc rec", &report).render();
        assert!(writes.contains("INSERT"), "{writes}");
        assert!(writes.contains(&format!("over {n} writes")), "{writes}");
        let json = exec_json(&[("tpch", &db, &w)], 0.01);
        assert!(json.contains("\"all_queries_verified\":true"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
