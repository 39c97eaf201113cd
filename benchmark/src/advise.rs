//! The advisor side. The `advise` phase runs the advisor over a grid of
//! workload variants and budgets (nothing is executed, no store is opened);
//! the `pipeline` phase is the user loop on the advisor's own output:
//! advise → build → execute over the recommendation → execute over the
//! empty configuration.

use crate::harness::{run_reps, Env, Outcome, RepPlan};
use crate::query::{check_rounds, run_round, QuerySet, Round};
use cadb::common::{Parallelism, Result};
use cadb::core::{FeatureSet, Recommendation};
use cadb::engine::{Database, Workload};
use cadb::exec::store::maintain::fnv1a;
use cadb::exec::MaterializedConfig;
use cadb::{Preset, TuningSession};

/// The paper's SELECT-intensive and INSERT-intensive write weights
/// (Appendix D.2, as `repro` uses them).
const INSERT_WEIGHTS: [f64; 2] = [0.1, 150.0];
const BUDGET_FRACTIONS: [f64; 3] = [0.15, 0.30, 0.50];
/// Budget of the `pipeline` phase's single advisor run.
const PIPELINE_BUDGET: f64 = 0.30;

/// Digest of what the advisor chose: structure specs and estimated sizes.
/// The wall-clock timings a `Recommendation` also carries are left out.
pub fn recommendation_digest(rec: &Recommendation) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for s in rec.configuration.structures() {
        h = fnv1a(h, format!("{:?}", s.spec).as_bytes());
        h = fnv1a(h, &s.size.bytes.to_bits().to_le_bytes());
    }
    h
}

/// A recommendation must fit its budget and never price worse than the
/// empty configuration.
fn sane(rec: &Recommendation, budget_bytes: f64) -> bool {
    rec.total_bytes() <= budget_bytes * (1.0 + 1e-9) && rec.final_cost <= rec.initial_cost
}

pub struct AdviseRep {
    /// Wall time of the six advisor runs, summed.
    pub advise_s: f64,
    pub digest: u64,
    pub sane: bool,
    pub mean_improvement_pct: f64,
}

/// One rep = 6 advisor runs: insert weight {SELECT-, INSERT-intensive} ×
/// budget {15, 30, 50 %}, `Preset::Dtac`, all feature classes, Serial.
fn advise_rep(env: &Env, db: &Database, variants: &[Workload]) -> Result<AdviseRep> {
    let _g = env.tracer.span("advise.rep");
    let mut rep = AdviseRep {
        advise_s: 0.0,
        digest: 0,
        sane: true,
        mean_improvement_pct: 0.0,
    };
    for w in variants {
        for frac in BUDGET_FRACTIONS {
            let session = TuningSession::new(db)
                .workload(w)
                .preset(Preset::Dtac)
                .features(FeatureSet::All)
                .seed(env.seed)
                .parallelism(Parallelism::Serial)
                .budget_fraction(frac);
            let (rec, secs) = env.tracer.timed("core.advise", || session.run());
            let rec = rec?;
            rep.advise_s += secs;
            rep.digest = fnv1a(rep.digest, &recommendation_digest(&rec).to_le_bytes());
            rep.sane &= sane(&rec, frac * db.base_data_bytes() as f64);
            rep.mean_improvement_pct += rec.improvement_percent() / 6.0;
        }
    }
    Ok(rep)
}

/// Library counters of the traced advisor run(s) of `phase`, as layer
/// metrics and exact counts.
fn advisor_counters(env: &Env, phase: &str, out: &mut Outcome) {
    for (metric, counter) in [
        ("engine.whatif_configs_costed", "whatif.configs_costed"),
        ("sampling.sample_cf_calls", "sampling.sample_cf_calls"),
        ("core.pool_candidates", "advise.pool_candidates"),
        ("core.sampled_nodes", "advise.sampled_nodes"),
        ("core.deduced_nodes", "advise.deduced_nodes"),
        ("core.configs_scored", "search.configs_scored"),
    ] {
        let v = env.tracer.counter(phase, counter);
        out.layer(metric, v as f64);
        out.count(&format!("{phase}.{counter}"), v);
    }
}

pub fn advise_phase(
    env: &Env,
    db: &Database,
    w: &Workload,
    plan: RepPlan,
    out: &mut Outcome,
) -> Result<()> {
    let variants: Vec<Workload> = INSERT_WEIGHTS
        .iter()
        .map(|f| w.with_insert_weight(*f))
        .collect();
    let reps = run_reps(env, "advise", plan, || advise_rep(env, db, &variants))?;
    let want = reps.first().digest;
    for r in reps.all() {
        out.check(r.sane, || {
            "advise: recommendation over budget or worse than empty".into()
        });
        out.check(r.digest == want, || {
            "advise: recommendation differs between reps".into()
        });
    }
    out.put("advise_s", &reps.samples(|r| r.advise_s));
    out.count("advise.recommendation_digest", want);
    if reps.traced.is_some() {
        advisor_counters(env, "advise", out);
        out.layer(
            "core.estimated_improvement_pct",
            reps.first().mean_improvement_pct,
        );
        out.overheads(&reps);
    }
    Ok(())
}

pub struct PipelineRep {
    pub advise_s: f64,
    pub build_s: f64,
    pub over_rec: Round,
    pub over_empty: Round,
    pub digest: u64,
    pub sane: bool,
    pub estimated_improvement_pct: f64,
    pub estimated_bytes: f64,
    pub stored_bytes: u64,
}

pub struct PipelinePhase<'a> {
    pub db: &'a Database,
    pub w: &'a Workload,
    pub qs: &'a QuerySet,
    /// The empty configuration (every table an uncompressed heap), built
    /// once in set-up: the baseline `measured_improvement_pct` is against.
    pub empty: &'a MaterializedConfig,
}

impl PipelinePhase<'_> {
    fn rep(&self, env: &Env) -> Result<PipelineRep> {
        let _g = env.tracer.span("pipeline.rep");
        // The default session, sampling seed included: what the advisor
        // recommends here is the same for every `--seed` (the seeded input
        // of this phase is the order the queries arrive in), so
        // `stored_bytes_ratio` is exact and `build_s` times one
        // configuration, not whichever the sampling seed tipped it to.
        let session = TuningSession::new(self.db)
            .workload(self.w)
            .parallelism(Parallelism::Serial)
            .budget_fraction(PIPELINE_BUDGET);
        let (rec, advise_s) = env.tracer.timed("core.advise", || session.run());
        let rec = rec?;
        let (mat, build_s) = env.tracer.timed("exec.build", || {
            MaterializedConfig::build(self.db, &rec.configuration)
        });
        let mat = mat?;
        let over_rec = run_round(env, &mat, self.qs)?;
        let over_empty = run_round(env, self.empty, self.qs)?;
        Ok(PipelineRep {
            advise_s,
            build_s,
            over_rec,
            over_empty,
            digest: recommendation_digest(&rec),
            sane: sane(&rec, PIPELINE_BUDGET * self.db.base_data_bytes() as f64),
            estimated_improvement_pct: rec.improvement_percent(),
            estimated_bytes: rec.total_bytes(),
            stored_bytes: mat
                .structures()
                .iter()
                .map(|s| s.measured_bytes as u64)
                .sum(),
        })
    }

    pub fn run(&self, env: &Env, plan: RepPlan, out: &mut Outcome) -> Result<()> {
        let reps = run_reps(env, "pipeline", plan, || self.rep(env))?;
        let want = reps.first().digest;
        for r in reps.all() {
            out.check(r.sane, || {
                "pipeline: recommendation over budget or worse than empty".into()
            });
            out.check(r.digest == want, || {
                "pipeline: recommendation differs between reps".into()
            });
        }
        check_rounds(
            out,
            "pipeline over recommendation",
            reps.all().map(|r| &r.over_rec),
        );
        check_rounds(
            out,
            "pipeline over empty",
            reps.all().map(|r| &r.over_empty),
        );

        let base = self.db.base_data_bytes() as f64;
        out.put("advise_s", &reps.samples(|r| r.advise_s));
        out.put("execute_s", &reps.samples(|r| r.over_rec.secs()));
        out.put("build_s", &reps.samples(|r| r.build_s));
        out.put(
            "measured_improvement_pct",
            &reps.samples(|r| {
                100.0
                    * (1.0
                        - r.over_rec.weighted_secs(self.qs) / r.over_empty.weighted_secs(self.qs))
            }),
        );
        out.put(
            "stored_bytes_ratio",
            &reps.samples(|r| r.stored_bytes as f64 / base),
        );

        let first = reps.first();
        out.count("pipeline.recommendation_digest", want);
        out.count("pipeline.structure_bytes", first.stored_bytes);
        out.count(
            "pipeline.pages_scanned_over_recommendation",
            first
                .over_rec
                .runs
                .iter()
                .map(|r| r.stats.pages_scanned as u64)
                .sum(),
        );
        if reps.traced.is_some() {
            out.layer(
                "core.size_error_pct",
                100.0 * (first.estimated_bytes - first.stored_bytes as f64)
                    / first.stored_bytes as f64,
            );
            advisor_counters(env, "pipeline", out);
            out.layer(
                "core.estimated_improvement_pct",
                first.estimated_improvement_pct,
            );
            out.overheads(&reps);
        }
        Ok(())
    }
}
