//! Whole-suite modes. Each workload runs in its own child process (this
//! same executable with `--workload`), so `peak_rss_mb` is attributable and
//! one workload's allocator state cannot warm another's.

use crate::json::Json;
use crate::spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};
use cadb::common::json::JsonObject;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Options every child inherits.
#[derive(Debug, Clone)]
pub struct Common {
    pub seed: u64,
    pub seconds: f64,
    pub quick: bool,
}

/// Where result and trace files go: `benchmark/out/`, next to this
/// package's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// One child run, parsed.
pub struct ChildRun {
    pub metrics: BTreeMap<String, f64>,
    /// The exact-count block.
    pub counts: Json,
    pub quartiles: Json,
    pub attempted: u64,
    pub failed: u64,
}

/// Run one workload in a child process; echo its report when `echo`.
pub fn run_child(
    c: &Common,
    workload: &str,
    seed: u64,
    trace: bool,
    echo: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &c.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if c.quick {
        cmd.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = cmd.output().map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if echo {
        for line in stdout
            .lines()
            .filter(|l| !l.starts_with("#detail") && !l.starts_with('{'))
        {
            println!("{line}");
        }
    }
    let last = stdout.lines().last().unwrap_or("");
    let result = Json::parse(last).map_err(|e| {
        format!(
            "{workload} (trace {}): no result line ({e}), exit {}",
            trace as u8, output.status
        )
    })?;
    let detail = stdout
        .lines()
        .find_map(|l| l.strip_prefix("#detail "))
        .ok_or("no #detail line")?;
    let detail = Json::parse(detail)?;
    let block = |key: &str| detail.get(key).cloned().unwrap_or(Json::Null);
    let metrics = result
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result line without metrics")?
        .iter()
        .map(|(k, v)| {
            (
                k.clone(),
                v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            )
        })
        .collect();
    Ok(ChildRun {
        metrics,
        counts: block("counts"),
        quartiles: block("quartiles"),
        attempted: result
            .get("attempted")
            .and_then(Json::as_f64)
            .unwrap_or(0.0) as u64,
        failed: result.get("failed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
    })
}

fn metrics_json(m: &BTreeMap<String, f64>) -> String {
    let mut o = JsonObject::new();
    for (k, v) in m {
        o = o.num(k, *v);
    }
    o.finish()
}

/// The one command: all four workloads, end-to-end then traced, one report
/// and one result file. Returns whether every operation succeeded.
pub fn run_suite(c: &Common) -> Result<bool, String> {
    let mut workloads = JsonObject::new();
    let mut ok = true;
    for w in WORKLOADS {
        let e2e = run_child(c, w, c.seed, false, true)?;
        let traced = run_child(c, w, c.seed, true, true)?;
        ok &= e2e.failed == 0 && traced.failed == 0;
        workloads = workloads.raw(
            w,
            &JsonObject::new()
                .raw("end_to_end", &metrics_json(&e2e.metrics))
                .raw("quartiles", &e2e.quartiles.render())
                .raw("per_layer", &metrics_json(&traced.metrics))
                .raw("counts", &traced.counts.render())
                .int("ops_attempted", (e2e.attempted + traced.attempted) as i64)
                .int("ops_failed", (e2e.failed + traced.failed) as i64)
                .finish(),
        );
    }
    let result = JsonObject::new()
        .int("seed", c.seed as i64)
        .num("seconds", c.seconds)
        .bool("quick", c.quick)
        .raw("workloads", &workloads.finish())
        .finish();
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let path = dir.join("result.json");
    std::fs::write(&path, &result).map_err(|e| e.to_string())?;
    println!("# result written to {}", path.display());
    Ok(ok)
}

/// How much worse `new` is than `base`, as a share of `base` (negative
/// when better).
pub fn worsening(better: Better, base: f64, new: f64) -> f64 {
    match better {
        Better::Lower => new / base - 1.0,
        Better::Higher => 1.0 - new / base,
    }
}

/// `--aa N`: run the end-to-end suite N times on the same code and seed.
/// Fails when any end-to-end metric differs between its best and worst set
/// by more than its bound, or an exact-count block differs between sets.
pub fn run_aa(c: &Common, sets: usize) -> Result<bool, String> {
    let mut runs: Vec<BTreeMap<&str, ChildRun>> = Vec::new();
    for set in 0..sets {
        println!("# A/A set {} of {sets}", set + 1);
        let mut m = BTreeMap::new();
        for w in WORKLOADS {
            m.insert(w, run_child(c, w, c.seed, false, false)?);
        }
        runs.push(m);
    }
    let mut ok = true;
    println!(
        "{:<10} {:<26} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "first", "worst", "diff", "bound"
    );
    for w in WORKLOADS {
        for (name, _, better, bound) in END_TO_END {
            let vals: Vec<f64> = runs
                .iter()
                .map(|r| r[w].metrics.get(name).copied().unwrap_or(f64::NAN))
                .collect();
            let first = vals[0];
            let (lo, hi) = vals
                .iter()
                .fold((first, first), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
            let (best, worst) = match better {
                Better::Lower => (lo, hi),
                Better::Higher => (hi, lo),
            };
            // A missing metric is NaN, which `min`/`max` would skip.
            let diff = if vals.iter().any(|v| v.is_nan()) {
                f64::NAN
            } else {
                worsening(better, best, worst)
            };
            let flag = if diff.is_nan() || diff > bound {
                ok = false;
                "  EXCEEDS"
            } else {
                ""
            };
            println!(
                "{w:<10} {name:<26} {first:>14.4} {worst:>14.4} {:>7.2}% {:>5.0}%{flag}",
                diff * 100.0,
                bound * 100.0
            );
        }
        let counts_equal = runs.iter().all(|r| r[w].counts == runs[0][w].counts);
        let failed: u64 = runs.iter().map(|r| r[w].failed).sum();
        println!(
            "{w:<10} exact counts {} across sets, ops_failed {failed}",
            if counts_equal { "identical" } else { "DIFFER" }
        );
        ok &= counts_equal && failed == 0;
    }
    Ok(ok)
}

/// `--check-counts`: the same seed must reproduce the exact-count block
/// byte for byte; another seed must keep the names and move the data-
/// dependent values.
pub fn check_counts(c: &Common, workloads: &[&str]) -> Result<bool, String> {
    let mut ok = true;
    for w in workloads {
        let a = run_child(c, w, c.seed, true, false)?;
        let b = run_child(c, w, c.seed, true, false)?;
        let other = run_child(c, w, c.seed + 1, true, false)?;
        let same = a.counts == b.counts;
        let keys = |j: &Json| j.as_obj().map(|m| m.keys().cloned().collect::<Vec<_>>());
        let names_kept =
            keys(&a.counts) == keys(&other.counts) && a.metrics.keys().eq(other.metrics.keys());
        let moved = a.counts != other.counts;
        println!(
            "{w:<10} same seed: counts {}; seed+1: names {}, values {}",
            if same { "identical" } else { "DIFFER" },
            if names_kept { "kept" } else { "CHANGED" },
            if moved { "moved" } else { "UNCHANGED" },
        );
        ok &= same && names_kept && moved && a.failed + b.failed + other.failed == 0;
    }
    Ok(ok)
}

/// `--compare a.json b.json`: every ratio with its base, regressions
/// flagged against the end-to-end bounds.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |p: &str| -> Result<Json, String> {
        Json::parse(&std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?)
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let value = |j: &Json, w: &str, block: &str, name: &str| {
        j.get("workloads")?.get(w)?.get(block)?.get(name)?.as_f64()
    };
    let mut ok = true;
    println!("# base {a_path}, new {b_path}; ratio = new / base");
    println!(
        "{:<10} {:<44} {:>14} {:>14} {:>8}",
        "workload", "metric", "base", "new", "ratio"
    );
    for w in WORKLOADS {
        for (name, _, better, bound) in END_TO_END {
            let (Some(x), Some(y)) = (
                value(&a, w, "end_to_end", name),
                value(&b, w, "end_to_end", name),
            ) else {
                println!("{w:<10} {name:<44} missing in one file");
                ok = false;
                continue;
            };
            let worse = worsening(better, x, y);
            let flag = if worse > bound {
                ok = false;
                format!(
                    "  REGRESSION ({:+.1}% worse, bound {:.0}%)",
                    worse * 100.0,
                    bound * 100.0
                )
            } else {
                String::new()
            };
            println!(
                "{w:<10} {name:<44} {x:>14.4} {y:>14.4} {:>8.3}{flag}",
                y / x
            );
        }
        for (name, _, _) in PER_LAYER {
            if let (Some(x), Some(y)) = (
                value(&a, w, "per_layer", name),
                value(&b, w, "per_layer", name),
            ) {
                println!("{w:<10} {name:<44} {x:>14.4} {y:>14.4} {:>8.3}", y / x);
            }
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_direction() {
        assert!((worsening(Better::Lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(Better::Higher, 10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(worsening(Better::Lower, 10.0, 9.0) < 0.0);
        assert!(worsening(Better::Higher, 10.0, 11.0) < 0.0);
    }
}
