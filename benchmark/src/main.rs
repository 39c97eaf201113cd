//! The repository's benchmark. One command, four workloads:
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml --          # whole suite
//!     --workload NAME --seed N --seconds S --trace 0|1                  # one run (the driver's form)
//!     --quick                                                           # tiny sizes, seconds
//!     --aa N | --check-counts | --compare A.json B.json                 # harness tools
//! ```
//!
//! See `README.md` beside this package for what each number means.

mod advise;
mod harness;
mod inputs;
mod json;
mod layers;
mod query;
mod run;
mod serve;
mod spec;
mod stats;
mod suite;
mod trace;

use run::RunArgs;
use std::process::ExitCode;
use suite::Common;

const USAGE: &str = "usage: cadb-benchmark [--workload advise|query|serve|pipeline] [--seed N] \
[--seconds S] [--trace 0|1] [--quick] [--aa N] [--check-counts] [--compare A.json B.json]";

enum Mode {
    Run,
    Aa(usize),
    CheckCounts,
    Compare(String, String),
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("cadb-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn real_main() -> Result<bool, String> {
    let mut workload = None;
    let mut common = Common {
        seed: 42,
        seconds: 20.0,
        quick: false,
    };
    let mut trace = false;
    let mut mode = Mode::Run;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{what} needs a value\n{USAGE}"));
        match a.as_str() {
            "--workload" => workload = Some(value("--workload")?),
            "--seed" => {
                common.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                common.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--quick" => common.quick = true,
            "--aa" => mode = Mode::Aa(value("--aa")?.parse().map_err(|e| format!("--aa: {e}"))?),
            "--check-counts" => mode = Mode::CheckCounts,
            "--compare" => mode = Mode::Compare(value("--compare")?, value("--compare")?),
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(true);
            }
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    match (mode, workload) {
        (Mode::Compare(a, b), _) => suite::compare(&a, &b),
        (Mode::Aa(sets), _) => suite::run_aa(&common, sets.max(2)),
        (Mode::CheckCounts, Some(w)) => suite::check_counts(&common, &[w.as_str()]),
        (Mode::CheckCounts, None) => suite::check_counts(&common, &spec::WORKLOADS),
        (Mode::Run, None) => suite::run_suite(&common),
        (Mode::Run, Some(workload)) => {
            let args = RunArgs {
                workload,
                seed: common.seed,
                seconds: common.seconds,
                trace,
                quick: common.quick,
            };
            let (out, tracer) = run::run_workload(&args).map_err(|e| e.to_string())?;
            run::complete(&args, &out)?;
            if args.trace {
                let dir = suite::out_dir();
                std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
                let path = dir.join(format!("trace_{}.json", args.workload));
                std::fs::write(&path, tracer.to_json(&args.workload, args.seed))
                    .map_err(|e| e.to_string())?;
                println!("# trace written to {}", path.display());
            }
            run::report(&args, &out);
            Ok(out.failed == 0)
        }
    }
}
