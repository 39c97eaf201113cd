//! One workload run: set-up, the workload's own phase at full size, then
//! the other phases at their minimum size so that every end-to-end metric
//! is reported on every workload (the driver's contract), the traced pass,
//! and the result lines.

use crate::advise::{advise_phase, PipelinePhase};
use crate::harness::{Env, Outcome, RepPlan};
use crate::inputs::{rich_config, StreamShape};
use crate::layers::probe_layers;
use crate::query::{QueryPhase, QuerySet};
use crate::serve::ServePhase;
use crate::spec::{self, END_TO_END, PER_LAYER};
use crate::trace::Tracer;
use cadb::common::json::JsonObject;
use cadb::common::{CadbError, Result};
use cadb::datagen::TpchGen;
use cadb::engine::{Configuration, Database, Workload};
use cadb::exec::MaterializedConfig;
use std::time::Instant;

/// Set-up repetitions of an end-to-end run; `setup_s` is their median.
const SETUPS: usize = 3;

/// Input sizes. "Scale 1" is this repository's miniature TPC-H (60 000-row
/// `lineitem`), not the benchmark's.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Scale of the database the `query` and `serve` phases (and the
    /// fill-in `pipeline` phase) run on. It carries the `rich`
    /// configuration, which set-up builds three times per run.
    pub small_scale: f64,
    /// Scale of the `advise` and `pipeline` workloads' own database.
    pub large_scale: f64,
    pub stream: StreamShape,
}

pub const FULL: Sizes = Sizes {
    small_scale: 0.25,
    large_scale: 1.0,
    stream: StreamShape {
        epochs: 2,
        epoch_commits: 400,
        insert_only: 128,
        patched_reads: 2,
        tail_commits: 2800,
    },
};

/// `--quick`: every code path in seconds, for the self-tests.
pub const QUICK: Sizes = Sizes {
    small_scale: 0.04,
    large_scale: 0.04,
    stream: StreamShape {
        epochs: 2,
        epoch_commits: 32,
        insert_only: 16,
        patched_reads: 2,
        tail_commits: 32,
    },
};

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
}

/// One generated database with its 22-query workload.
struct World {
    gen: TpchGen,
    db: Database,
    w: Workload,
}

/// The data set is part of the benchmark's definition, like dbgen's: its
/// generator seed is fixed and `--seed` drives what a client varies (the
/// advisor's sampling seed, the order queries arrive in, the write stream,
/// the read keys). Regenerating the data per seed was measured first: it
/// flips discrete advisor choices and moves key ranges across leaf
/// boundaries, and that input-driven spread (6–17 % on `advise_s`,
/// `build_s`, `seek_p50_us`, `measured_improvement_pct`) dwarfed the timing
/// noise the bounds are meant to sit above.
const DATA_SEED: u64 = 42;

impl World {
    fn new(scale: f64) -> Result<World> {
        let gen = TpchGen::new(scale).with_seed(DATA_SEED);
        let db = gen.build()?;
        let w = gen.workload(&db)?;
        Ok(World { gen, db, w })
    }
}

/// Everything built before the first rep.
struct Setup {
    small: World,
    rich: Configuration,
    query: QueryPhase,
    small_empty: MaterializedConfig,
    /// The `advise` / `pipeline` workload's own database.
    large: Option<World>,
    /// Reference answers and the empty configuration over `large`
    /// (`pipeline` only).
    large_exec: Option<(QuerySet, MaterializedConfig)>,
}

fn setup(args: &RunArgs, sizes: Sizes) -> Result<Setup> {
    let small = World::new(sizes.small_scale)?;
    let rich = rich_config(&small.db, &small.w);
    let mat = MaterializedConfig::build(&small.db, &rich)?;
    let query = QueryPhase::new(
        mat,
        QuerySet::new(&small.db, &small.w, args.seed)?,
        !args.quick,
    )?;
    let small_empty = MaterializedConfig::build(&small.db, &Configuration::empty())?;
    let large = match args.workload.as_str() {
        "advise" | "pipeline" => Some(World::new(sizes.large_scale)?),
        _ => None,
    };
    let large_exec = match (&large, args.workload.as_str()) {
        (Some(l), "pipeline") => Some((
            QuerySet::new(&l.db, &l.w, args.seed)?,
            MaterializedConfig::build(&l.db, &Configuration::empty())?,
        )),
        _ => None,
    };
    Ok(Setup {
        small,
        rich,
        query,
        small_empty,
        large,
        large_exec,
    })
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Run one workload and return what it measured.
pub fn run_workload(args: &RunArgs) -> Result<(Outcome, Tracer)> {
    if !spec::WORKLOADS.contains(&args.workload.as_str()) {
        return Err(CadbError::InvalidArgument(format!(
            "unknown workload '{}' (one of {:?})",
            args.workload,
            spec::WORKLOADS
        )));
    }
    let sizes = if args.quick { QUICK } else { FULL };
    let env = Env {
        seed: args.seed,
        trace: args.trace,
        tracer: Tracer::new(false),
    };
    let mut out = Outcome::default();

    // Set-up, several times over: its median is a metric of its own, so
    // that work moved out of the reps and into set-up shows.
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..if args.trace { 1 } else { SETUPS } {
        drop(built.take());
        let t = Instant::now();
        built = Some(setup(args, sizes)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let s = built.expect("set up at least once");
    out.put("setup_s", &setup_s);

    // The workload's own phase gets the lion's share of `--seconds`; every
    // other phase runs its minimum.
    let own = |share: f64, min_reps: usize, warmup: bool| RepPlan {
        budget_s: share * args.seconds,
        min_reps: if args.quick { 1 } else { min_reps },
        warmup,
    };
    let fill = |min_reps: usize, warmup: bool| own(0.0, min_reps, warmup);
    let is = |w: &str| args.workload == w;

    let small_pipeline = PipelinePhase {
        db: &s.small.db,
        w: &s.small.w,
        qs: &s.query.qs,
        empty: &s.small_empty,
    };
    let serve = ServePhase::new(&s.small.db, &s.query.mat, sizes.stream, args.seed);
    match args.workload.as_str() {
        "advise" => {
            let l = s.large.as_ref().expect("built for this workload");
            advise_phase(&env, &l.db, &l.w, own(0.45, 3, true), &mut out)?;
        }
        "query" => s.query.run(&env, own(0.45, 15, true), &mut out)?,
        "serve" => serve.run(&env, own(0.5, 2, false), &mut out)?,
        _ => {
            let l = s.large.as_ref().expect("built for this workload");
            let (qs, empty) = s.large_exec.as_ref().expect("built for this workload");
            let phase = PipelinePhase {
                db: &l.db,
                w: &l.w,
                qs,
                empty,
            };
            phase.run(&env, own(0.45, 3, true), &mut out)?;
        }
    }
    if env.trace {
        check_isolation(&env, &args.workload, &mut out);
    }
    if !is("pipeline") {
        small_pipeline.run(&env, fill(5, true), &mut out)?;
    }
    if !is("query") {
        s.query.run(&env, fill(8, true), &mut out)?;
    }
    if !is("serve") {
        serve.run(&env, fill(1, false), &mut out)?;
    }
    if env.trace {
        probe_layers(
            &env,
            &s.small.gen,
            &s.small.db,
            &s.small.w,
            &s.rich,
            &mut out,
        )?;
    }
    out.put("peak_rss_mb", &[peak_rss_mb()]);
    Ok((out, env.tracer))
}

/// The traced pass proves the workloads isolate layers: the executor and
/// the store are idle on `advise`, the advisor on `query` and `serve`.
fn check_isolation(env: &Env, workload: &str, out: &mut Outcome) {
    let idle: &[&str] = match workload {
        "advise" => &["scan.pages_scanned", "store.commits"],
        "query" => &["whatif.configs_costed", "store.commits"],
        "serve" => &["whatif.configs_costed"],
        _ => &[],
    };
    for counter in idle {
        let v = env.tracer.counter(workload, counter);
        out.count(&format!("{workload}.isolation.{counter}"), v);
        out.check(v == 0, || {
            format!("{workload}: counter {counter} = {v}, expected an idle layer")
        });
    }
}

/// What the numbers do not measure, printed above every report.
pub const CAVEATS: &str = "\
# not measured: durability (the WAL is an in-memory Vec<u8>, so commit and recover
#   metrics price encode + CRC + memcpy + apply); real TPC-H sizes (\"scale 1\" is this
#   repo's miniature, a 60 000-row lineitem); parallel speed-up (one closed-loop client,
#   Parallelism::Serial, 2 shared cores).";

/// Print the human-readable report, the `#detail` line the suite reads and
/// — last — the driver's result line.
pub fn report(args: &RunArgs, out: &Outcome) {
    println!(
        "# cadb benchmark: workload {} seed {} seconds {} trace {}{}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        if args.quick { " (quick sizes)" } else { "" }
    );
    println!("{CAVEATS}");
    let mut metrics = JsonObject::new();
    let mut detail = JsonObject::new();
    if args.trace {
        for (name, unit, _) in PER_LAYER {
            let v = out.layer.get(name).copied().unwrap_or(f64::NAN);
            println!("{name:<44} {v:>16.4} {unit}");
            metrics = metrics.raw(
                name,
                &JsonObject::new().num("value", v).str("unit", unit).finish(),
            );
        }
    } else {
        for (name, unit, _, _) in END_TO_END {
            let Some(s) = out.e2e.get(name) else {
                println!("{name:<28} missing");
                continue;
            };
            println!(
                "{name:<28} {:>14.4} {unit:<8} (q1 {:.4}, q3 {:.4}, n {})",
                s.median, s.q1, s.q3, s.n
            );
            metrics = metrics.raw(
                name,
                &JsonObject::new()
                    .num("value", s.median)
                    .str("unit", unit)
                    .finish(),
            );
            detail = detail.raw(
                name,
                &JsonObject::new()
                    .num("q1", s.q1)
                    .num("q3", s.q3)
                    .int("n", s.n as i64)
                    .finish(),
            );
        }
    }
    let mut counts = JsonObject::new();
    for (k, v) in &out.counts {
        println!("count {k:<52} {v}");
        // Digests use all 64 bits, which a JSON number cannot carry.
        counts = counts.str(k, &v.to_string());
    }
    println!("ops_attempted {} ops_failed {}", out.attempted, out.failed);
    for f in &out.failures {
        println!("FAILED {f}");
    }
    println!(
        "#detail {}",
        JsonObject::new()
            .raw("quartiles", &detail.finish())
            .raw("counts", &counts.finish())
            .finish()
    );
    println!(
        "{}",
        JsonObject::new()
            .bool("correct", out.failed == 0)
            .int("attempted", out.attempted as i64)
            .int("failed", out.failed as i64)
            .raw("metrics", &metrics.finish())
            .finish()
    );
}

/// Every metric the mode promises was measured and is a finite number.
pub fn complete(args: &RunArgs, out: &Outcome) -> std::result::Result<(), String> {
    let missing: Vec<&str> = if args.trace {
        PER_LAYER
            .iter()
            .filter(|m| !out.layer.get(m.0).is_some_and(|v| v.is_finite()))
            .map(|m| m.0)
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter(|m| !out.e2e.get(m.0).is_some_and(|s| s.median.is_finite()))
            .map(|m| m.0)
            .collect()
    };
    // A layer value outside the spec is a typo in a phase.
    let stray: Vec<&str> = out
        .layer
        .keys()
        .filter(|k| spec::per_layer_unit(k).is_none())
        .chain(
            out.e2e
                .keys()
                .filter(|k| spec::end_to_end_unit(k).is_none()),
        )
        .copied()
        .collect();
    if missing.is_empty() && stray.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "metrics missing {missing:?}, not in the spec {stray:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--quick` profile drives every code path — each workload's own
    /// phase, the fill-in phases, three set-ups, the traced pass with its
    /// probes and isolation checks — and emits exactly the spec's names.
    #[test]
    fn quick_profile_emits_every_metric_on_every_workload() {
        for workload in spec::WORKLOADS {
            for trace in [false, true] {
                // One end-to-end run is enough to cover the untraced path.
                if !trace && workload != "serve" {
                    continue;
                }
                let args = RunArgs {
                    workload: workload.to_string(),
                    seed: 5,
                    seconds: 0.5,
                    trace,
                    quick: true,
                };
                let (out, tracer) = run_workload(&args).expect("quick run");
                complete(&args, &out).unwrap_or_else(|e| panic!("{workload} trace {trace}: {e}"));
                assert_eq!(out.failed, 0, "{workload}: {:?}", out.failures);
                assert!(out.attempted > 0);
                if trace {
                    let json = tracer.to_json(workload, args.seed);
                    let parsed = crate::json::Json::parse(&json).expect("trace is valid JSON");
                    assert!(!parsed.get("spans").unwrap().as_arr().is_empty());
                    assert!(parsed
                        .get("obs_counters_by_phase")
                        .unwrap()
                        .get(workload)
                        .is_some());
                }
            }
        }
    }
}
