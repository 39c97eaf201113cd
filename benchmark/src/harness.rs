//! What every phase shares: the run environment, failure accounting, the
//! rep loop (warm-up, timed reps with no recorder installed, one traced
//! rep) and the collected results of one workload run.

use crate::stats::{median, summarize, Summary};
use crate::trace::Tracer;
use cadb::common::obs;
use cadb::common::Result;
use std::collections::BTreeMap;
use std::time::Instant;

/// One workload run's environment.
pub struct Env {
    pub seed: u64,
    /// `--trace 1`: produce the per-layer metrics instead of the
    /// end-to-end ones.
    pub trace: bool,
    pub tracer: Tracer,
}

/// Everything one workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub e2e: BTreeMap<&'static str, Summary>,
    pub layer: BTreeMap<&'static str, f64>,
    /// Exact counts: equal seeds must reproduce this block byte for byte.
    pub counts: BTreeMap<String, u64>,
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Account one checked operation. A digest mismatch counts as failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// An end-to-end metric as the median (with quartiles) of its samples.
    /// The first phase to report a metric owns it: a workload's own phase
    /// runs first, at its own size, and the phases after it only fill in
    /// the metrics it does not produce.
    pub fn put(&mut self, name: &'static str, samples: &[f64]) {
        // A fill-in phase of the traced run keeps no timed rep.
        if !samples.is_empty() {
            self.e2e.entry(name).or_insert_with(|| summarize(samples));
        }
    }

    /// A per-layer metric, owned by the first phase to report it (as `put`).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.entry(name).or_insert(value);
    }

    /// `common.obs_overhead_pct` and `common.warmup_ratio`, from the
    /// workload's own phase.
    pub fn overheads<T>(&mut self, reps: &Reps<T>) {
        if let Some((overhead, warmup)) = reps.overheads() {
            self.layer("common.obs_overhead_pct", overhead);
            self.layer("common.warmup_ratio", warmup);
        }
    }

    pub fn count(&mut self, name: &str, value: u64) {
        self.counts.insert(name.to_string(), value);
    }
}

/// How long a phase may measure and how many reps it must keep.
#[derive(Debug, Clone, Copy)]
pub struct RepPlan {
    /// Seconds of timed reps; more reps run while the next one still fits.
    /// Zero marks a fill-in phase, which runs exactly `min_reps`.
    pub budget_s: f64,
    pub min_reps: usize,
    /// Discard the first rep as a warm-up (the first advisor run in a
    /// process measured 40–50 % slower than the second).
    pub warmup: bool,
}

/// The reps of one phase: `(result, wall seconds)` each.
pub struct Reps<T> {
    pub warmup: Option<(T, f64)>,
    pub timed: Vec<(T, f64)>,
    pub traced: Option<(T, f64)>,
}

impl<T> Reps<T> {
    /// Every rep whose outputs were checked, in run order.
    pub fn all(&self) -> impl Iterator<Item = &T> {
        self.warmup
            .iter()
            .chain(self.timed.iter())
            .chain(self.traced.iter())
            .map(|(r, _)| r)
    }

    pub fn samples(&self, f: impl Fn(&T) -> f64) -> Vec<f64> {
        self.timed.iter().map(|(r, _)| f(r)).collect()
    }

    /// The rep whose exact counts are reported: the first timed one (the
    /// traced one where a fill-in phase of the traced run kept no other).
    pub fn first(&self) -> &T {
        let rep = self.timed.first().or(self.traced.as_ref());
        &rep.expect("run_reps keeps a timed or a traced rep").0
    }

    /// `common.obs_overhead_pct` and `common.warmup_ratio` of this phase,
    /// when it ran both timed reps and a traced one.
    pub fn overheads(&self) -> Option<(f64, f64)> {
        let walls: Vec<f64> = self.timed.iter().map(|(_, s)| *s).collect();
        let (traced, _) = (self.traced.as_ref()?, walls.first()?);
        let med = median(&walls);
        let warm = self.warmup.as_ref().map_or(walls[0], |(_, s)| *s);
        Some((100.0 * (traced.1 / med - 1.0), warm / med))
    }
}

/// Run the reps of one phase. Timed reps run with no `obs` recorder
/// installed and the benchmark's tracer off; in trace mode one more rep
/// runs inside `obs::record` with the tracer on, and the library counters
/// it published are kept under `phase`.
pub fn run_reps<T>(
    env: &Env,
    phase: &'static str,
    plan: RepPlan,
    mut rep: impl FnMut() -> Result<T>,
) -> Result<Reps<T>> {
    let once = |rep: &mut dyn FnMut() -> Result<T>| -> Result<(T, f64)> {
        let t = Instant::now();
        let r = rep()?;
        Ok((r, t.elapsed().as_secs_f64()))
    };
    let warmup = if plan.warmup {
        Some(once(&mut rep)?)
    } else {
        None
    };
    // The traced run keeps only what the overhead ratio needs: two timed
    // reps of the workload's own phase, none of a fill-in phase.
    let min_reps = match (env.trace, plan.budget_s > 0.0) {
        (false, _) => plan.min_reps,
        (true, true) => plan.min_reps.min(2),
        (true, false) => 0,
    };
    let start = Instant::now();
    let mut timed: Vec<(T, f64)> = Vec::new();
    loop {
        if timed.len() >= min_reps {
            // One more rep only while a typical one still fits the budget.
            let walls: Vec<f64> = timed.iter().map(|(_, s)| *s).collect();
            let fits = !walls.is_empty()
                && start.elapsed().as_secs_f64() + median(&walls) <= plan.budget_s;
            if env.trace || !fits {
                break;
            }
        }
        timed.push(once(&mut rep)?);
    }
    let traced = if env.trace {
        env.tracer.set_enabled(true);
        env.tracer.next_rep();
        let (r, report) = obs::record(|| once(&mut rep));
        env.tracer.set_enabled(false);
        env.tracer.absorb(phase, &report);
        Some(r?)
    } else {
        None
    };
    Ok(Reps {
        warmup,
        timed,
        traced,
    })
}
