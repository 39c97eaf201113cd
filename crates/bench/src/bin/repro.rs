//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [experiment] [--scale S] [--json] [--mem-budget MiB] [--trace FILE]
//!
//! experiments:
//!   table1    MV row-count estimation errors (App. B.3)
//!   fig9      SampleCF error calibration + Table 2 fits (App. C)
//!   fig10     Deduction error calibration + Table 3 fits (App. C)
//!   table4    Graph search: All vs Greedy vs Optimal (App. D.3)
//!   scaling   Greedy vs exact runtime growth (§7.1)
//!   fig11     Estimation overhead in DTAc, with/without deduction
//!   fig12     TPC-H simple indexes, SELECT-intensive, ablation
//!   fig13     TPC-H simple indexes, INSERT-intensive, ablation
//!   fig14     Sales simple indexes, SELECT-intensive, DTAc vs DTA
//!   fig15     Sales simple indexes, INSERT-intensive, DTAc vs DTA
//!   fig16     TPC-H all features, SELECT-intensive, DTAc vs DTA
//!   fig17     TPC-H all features, INSERT-intensive, DTAc vs DTA
//!   motivating  §1 Examples 1–2 (staged vs integrated)
//!   advise    one DTAc tuning run (machine-readable with --json)
//!   exec      estimated vs MEASURED: build + execute the recommendation
//!             on TPC-H and TPC-DS, plus TPC-H's per-statement measured
//!             maintenance (machine-readable with --json)
//!   plan      access-path planner actuals: which path each query took
//!             (base / covering-index seek / MV), estimated vs measured
//!             rows per path class, plus TPC-H's per-statement measured
//!             maintenance under mv-rich (machine-readable with --json)
//!   all       everything above (default)
//!
//! --json    emit machine-readable reports (Recommendation +
//!           SizeEstimationReport / MeasuredReport JSON) for the
//!           experiments that produce them (advise, exec, plan)
//! --mem-budget MiB
//!           run materializations through the striped out-of-core build
//!           path under a hard memory cap (default: unlimited, metering
//!           only); exceeded budgets fail loudly instead of thrashing
//! --trace FILE
//!           record the whole run under a TraceRecorder and write the
//!           span-tree + metrics JSON (TraceReport::to_json) to FILE
//! ```
//!
//! `repro` only reproduces the paper's evaluation; timing code paths is
//! the job of the repository benchmark (`BENCHMARK.json`, `benchmark/`).

use cadb_bench::experiments::designs::{
    design_figure, VariantSet, BUDGETS, INSERT_INTENSIVE, SELECT_INTENSIVE,
};
use cadb_bench::experiments::{
    advise, calibration, estimation_runtime, exec_actuals, graph_quality, motivating, mv_rows, plan,
};
use cadb_common::obs;
use cadb_core::FeatureSet;
use std::time::Instant;

/// Every experiment name `repro` accepts, in `all` order.
const EXPERIMENTS: [&str; 17] = [
    "all",
    "table1",
    "fig9",
    "fig10",
    "table4",
    "scaling",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "motivating",
    "advise",
    "exec",
    "plan",
];

/// Parsed command line.
#[derive(Debug)]
struct Args {
    experiment: String,
    scale: f64,
    json: bool,
    mem_budget_mib: Option<usize>,
    trace_file: Option<String>,
}

/// Parse the command line (program name excluded). Rejects an unknown
/// `--option`, an option missing its value, an unknown experiment and a
/// second experiment name, so no input is silently dropped.
fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        experiment: "all".to_string(),
        scale: 0.2,
        json: false,
        mem_budget_mib: None,
        trace_file: None,
    };
    let mut experiment: Option<&str> = None;
    let mut it = args.iter().map(String::as_str);
    while let Some(arg) = it.next() {
        match arg {
            "--json" => parsed.json = true,
            "--scale" => {
                parsed.scale = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or("--scale needs a number")?;
            }
            "--mem-budget" => {
                parsed.mem_budget_mib = Some(
                    it.next()
                        .and_then(|s| s.parse().ok())
                        .ok_or("--mem-budget needs a size in MiB")?,
                );
            }
            "--trace" => {
                parsed.trace_file =
                    Some(it.next().ok_or("--trace needs an output file path")?.into());
            }
            opt if opt.starts_with('-') => {
                return Err(format!(
                    "unknown option '{opt}'; options: --scale S, --json, --mem-budget MiB, --trace FILE"
                ));
            }
            name => {
                if let Some(first) = experiment {
                    return Err(format!(
                        "more than one experiment given ('{first}', '{name}'); run one, or 'all'"
                    ));
                }
                if !EXPERIMENTS.contains(&name) {
                    return Err(format!(
                        "unknown experiment '{name}'; one of: {}",
                        EXPERIMENTS.join(", ")
                    ));
                }
                experiment = Some(name);
            }
        }
    }
    if let Some(name) = experiment {
        parsed.experiment = name.to_string();
    }
    Ok(parsed)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });
    let t0 = Instant::now();
    match &args.trace_file {
        Some(path) => {
            // Trace the whole run: every experiment's spans/metrics land in
            // one report. Recording is observational only — the printed
            // tables are bit-identical to an untraced run.
            let ((), report) = obs::record(|| run(&args));
            std::fs::write(path, report.to_json()).unwrap_or_else(|e| {
                eprintln!("--trace: cannot write {path}: {e}");
                std::process::exit(2);
            });
            eprintln!(
                "[trace: {} root spans, {} metrics -> {path}]",
                report.roots.len(),
                report.metric_count()
            );
        }
        None => run(&args),
    }
    eprintln!(
        "[repro {}: {:.1}s]",
        args.experiment,
        t0.elapsed().as_secs_f64()
    );
}

/// Build options for the measured materializations: striped + budgeted
/// when `--mem-budget` was given, the byte-identical monolithic path
/// otherwise (but still metering, so peak bytes are always reported).
fn build_options(mem_budget_mib: Option<usize>) -> cadb_shard::BuildOptions {
    match mem_budget_mib {
        Some(mib) => cadb_shard::BuildOptions::default()
            .with_budget(cadb_common::MemoryBudget::limited(mib << 20)),
        None => cadb_shard::BuildOptions::default().with_stripe_rows(usize::MAX),
    }
}

fn tpch(scale: f64) -> (cadb_engine::Database, cadb_engine::Workload) {
    let gen = cadb_datagen::TpchGen::new(scale);
    let db = gen.build().expect("TPC-H generation");
    let w = gen.workload(&db).expect("TPC-H workload");
    (db, w)
}

fn sales(scale: f64) -> (cadb_engine::Database, cadb_engine::Workload) {
    let gen = cadb_datagen::SalesGen::new(scale);
    let db = gen.build().expect("Sales generation");
    let w = gen.workload(&db).expect("Sales workload");
    (db, w)
}

fn run(args: &Args) {
    let (which, scale, json, mem_budget_mib) = (
        args.experiment.as_str(),
        args.scale,
        args.json,
        args.mem_budget_mib,
    );
    let all = which == "all";
    if all || which == "table1" {
        let (db, _) = tpch((scale * 2.5).min(1.0));
        for t in mv_rows::table1(&db, 0.05, 42) {
            println!("{}", t.render());
        }
    }
    if all || which == "fig9" {
        for t in calibration::figure9_all(scale) {
            println!("{}", t.render());
        }
    }
    if all || which == "fig10" {
        let (db, _) = tpch(scale);
        println!("{}", calibration::figure10_for_db(&db).render());
    }
    if all || which == "table4" {
        let (db, _) = tpch(scale);
        println!("{}", graph_quality::table4(&db, 0.5, 0.9).render());
    }
    if all || which == "scaling" {
        let (db, _) = tpch(scale);
        println!("{}", graph_quality::runtime_scaling(&db).render());
    }
    if all || which == "fig11" {
        let (db, w) = tpch(scale);
        let budget = 0.4 * db.base_data_bytes() as f64;
        println!("{}", estimation_runtime::figure11(&db, &w, budget).render());
    }
    if all || which == "fig12" {
        let (db, w) = tpch(scale);
        println!(
            "{}",
            design_figure(
                "Figure 12: TPC-H SELECT-intensive, simple indexes (improvement %)",
                &db,
                &w,
                SELECT_INTENSIVE,
                &BUDGETS,
                VariantSet::Ablation,
                FeatureSet::Simple,
            )
            .render()
        );
    }
    if all || which == "fig13" {
        let (db, w) = tpch(scale);
        println!(
            "{}",
            design_figure(
                "Figure 13: TPC-H INSERT-intensive, simple indexes (improvement %)",
                &db,
                &w,
                INSERT_INTENSIVE,
                &BUDGETS,
                VariantSet::Ablation,
                FeatureSet::Simple,
            )
            .render()
        );
    }
    if all || which == "fig14" {
        let (db, w) = sales(scale);
        println!(
            "{}",
            design_figure(
                "Figure 14: Sales SELECT-intensive, simple indexes (improvement %)",
                &db,
                &w,
                SELECT_INTENSIVE,
                &BUDGETS,
                VariantSet::DtacVsDta,
                FeatureSet::Simple,
            )
            .render()
        );
    }
    if all || which == "fig15" {
        let (db, w) = sales(scale);
        println!(
            "{}",
            design_figure(
                "Figure 15: Sales INSERT-intensive, simple indexes (improvement %)",
                &db,
                &w,
                INSERT_INTENSIVE,
                &BUDGETS,
                VariantSet::DtacVsDta,
                FeatureSet::Simple,
            )
            .render()
        );
    }
    if all || which == "fig16" {
        let (db, w) = tpch(scale);
        println!(
            "{}",
            design_figure(
                "Figure 16: TPC-H SELECT-intensive, all features (improvement %)",
                &db,
                &w,
                SELECT_INTENSIVE,
                &BUDGETS,
                VariantSet::DtacVsDta,
                FeatureSet::All,
            )
            .render()
        );
    }
    if all || which == "fig17" {
        let (db, w) = tpch(scale);
        println!(
            "{}",
            design_figure(
                "Figure 17: TPC-H INSERT-intensive, all features (improvement %)",
                &db,
                &w,
                INSERT_INTENSIVE,
                &BUDGETS,
                VariantSet::DtacVsDta,
                FeatureSet::All,
            )
            .render()
        );
    }
    if all || which == "motivating" {
        let (db, w) = tpch(scale);
        println!("{}", motivating::motivating(&db, &w).render());
    }
    if all || which == "advise" {
        let (db, w) = tpch(scale);
        if json {
            println!("{}", advise::advise_json(&db, &w, scale));
        } else {
            println!("{}", advise::advise_text(&db, &w));
        }
    }
    if all || which == "exec" {
        let (db, w) = tpch(scale);
        let ds_gen = cadb_datagen::TpcdsGen::new(scale);
        let ds_db = ds_gen.build().expect("TPC-DS generation");
        let ds_w = ds_gen.workload(&ds_db).expect("TPC-DS workload");
        if json {
            println!(
                "{}",
                exec_actuals::exec_json(&[("tpch", &db, &w), ("tpcds", &ds_db, &ds_w)], scale)
            );
        } else {
            // One budget handle per dataset: the meter is shared state, so
            // a per-dataset clone keeps each peak readable on its own.
            let budget = || match mem_budget_mib {
                Some(mib) => cadb_common::MemoryBudget::limited(mib << 20),
                None => cadb_common::MemoryBudget::unlimited(),
            };
            let (budget_h, budget_ds) = (budget(), budget());
            let (rec_h, report_h, fraction_h) = exec_actuals::measure_with_build(
                &db,
                &w,
                &build_options(mem_budget_mib).with_budget(budget_h.clone()),
            );
            let (_, report_ds, _) = exec_actuals::measure_with_build(
                &ds_db,
                &ds_w,
                &build_options(mem_budget_mib).with_budget(budget_ds.clone()),
            );
            println!("{}", exec_actuals::exec_table("TPC-H", &report_h).render());
            println!(
                "{}",
                exec_actuals::exec_table("TPC-DS", &report_ds).render()
            );
            println!(
                "{}",
                exec_actuals::shortcircuit_table("TPC-H", &db, &w).render()
            );
            println!(
                "{}",
                exec_actuals::calibration_table(&report_h, fraction_h).render()
            );
            let (mt, _, _, _) =
                exec_actuals::maintenance_feedback(&db, &w, &rec_h.configuration, &report_h);
            println!("{}", mt.render());
            println!(
                "{}",
                exec_actuals::write_table("TPC-H", "DTAc rec", &report_h).render()
            );
            let (peak_h, peak_ds) = (budget_h.peak_bytes(), budget_ds.peak_bytes());
            println!(
                "exec: build peak memory {:.1} MiB (TPC-H) / {:.1} MiB (TPC-DS){}",
                peak_h as f64 / (1 << 20) as f64,
                peak_ds as f64 / (1 << 20) as f64,
                match mem_budget_mib {
                    Some(mib) => format!(", hard budget {mib} MiB"),
                    None => ", unbudgeted".to_string(),
                }
            );
        }
    }
    if all || which == "plan" {
        let (db, w) = tpch(scale);
        let ds_gen = cadb_datagen::TpcdsGen::new(scale);
        let ds_db = ds_gen.build().expect("TPC-DS generation");
        let ds_w = ds_gen.workload(&ds_db).expect("TPC-DS workload");
        if json {
            println!(
                "{}",
                plan::plan_json(&[("tpch", &db, &w), ("tpcds", &ds_db, &ds_w)], scale)
            );
        } else {
            for (name, d, wl) in [("TPC-H", &db, &w), ("TPC-DS", &ds_db, &ds_w)] {
                let dtac = plan::measure_plan(d, wl, &plan::dtac_config(d, wl));
                let rich = plan::measure_plan(d, wl, &plan::index_rich_config(d, wl));
                let mv_rich = plan::measure_plan(d, wl, &plan::mv_rich_config(d, wl));
                println!("{}", plan::plan_table(name, "DTAc rec", &dtac).render());
                println!("{}", plan::plan_table(name, "index-rich", &rich).render());
                println!("{}", plan::plan_table(name, "mv-rich", &mv_rich).render());
                println!(
                    "{}",
                    plan::path_bias_table(
                        name,
                        &[
                            ("DTAc rec", &dtac),
                            ("index-rich", &rich),
                            ("mv-rich", &mv_rich),
                        ]
                    )
                    .render()
                );
                // TPC-H only, like `exec`'s: the dataset EXPERIMENTS.md
                // re-examines Figs. 13/17 on.
                if name == "TPC-H" {
                    println!(
                        "{}",
                        exec_actuals::write_table(name, "mv-rich", &mv_rich).render()
                    );
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_experiment_and_options_in_any_order() {
        let a = parse(&["--scale", "0.05", "exec", "--json", "--mem-budget", "64"]).unwrap();
        assert_eq!(a.experiment, "exec");
        assert_eq!(a.scale, 0.05);
        assert!(a.json);
        assert_eq!(a.mem_budget_mib, Some(64));
        assert_eq!(parse(&[]).unwrap().experiment, "all");
    }

    #[test]
    fn second_experiment_name_is_rejected() {
        let e = parse(&["table1", "motivating", "--scale", "0.01"]).unwrap_err();
        assert!(e.contains("'table1'") && e.contains("'motivating'"), "{e}");
    }

    #[test]
    fn unknown_option_is_named_not_taken_as_experiment() {
        let e = parse(&["--scal", "0.01"]).unwrap_err();
        assert!(e.contains("unknown option '--scal'"), "{e}");
        let e = parse(&["serve"]).unwrap_err();
        assert!(e.contains("unknown experiment 'serve'"), "{e}");
        assert!(parse(&["plan", "--shards", "4"]).is_err());
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--scale", "x"]).is_err());
    }
}
