//! The read side: one *round* plans and executes the 22 TPC-H queries over
//! a materialized configuration in compressed mode, checking every answer
//! against the reference digests computed in set-up. The `query` phase
//! runs rounds over the fixed `rich` configuration; the `pipeline` phase
//! reuses the round over the advisor's own recommendation.

use crate::harness::{run_reps, Env, Outcome, RepPlan};
use crate::inputs::{classify, QueryClass, SplitMix64};
use cadb::common::rng::derive_seed;
use cadb::common::{Parallelism, Result};
use cadb::engine::{Database, Query, Workload};
use cadb::exec::store::maintain::rows_digest;
use cadb::exec::{execute_planned, plan_query, ExecStats, MaterializedConfig};

/// The queries of a workload with their weights and reference answers.
pub struct QuerySet {
    pub queries: Vec<(Query, f64)>,
    /// `rows_digest` of each query's answer from the engine's row-at-a-time
    /// executor over the uncompressed tables: a path independent of
    /// `cadb::exec`.
    pub reference: Vec<u64>,
    /// The order the queries arrive in within a round: a seeded shuffle.
    /// What ran just before a query decides what it finds in the caches.
    pub order: Vec<usize>,
}

impl QuerySet {
    pub fn new(db: &Database, w: &Workload, seed: u64) -> Result<QuerySet> {
        let queries: Vec<(Query, f64)> = w.queries().map(|(q, wt)| (q.clone(), wt)).collect();
        let mut reference = Vec::with_capacity(queries.len());
        for (q, _) in &queries {
            reference.push(rows_digest(&cadb::engine::exec::execute(db, q)?));
        }
        let mut rng = SplitMix64(derive_seed(seed, "benchmark.query_order"));
        let mut order: Vec<usize> = (0..queries.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        Ok(QuerySet {
            queries,
            reference,
            order,
        })
    }
}

/// One query of one round.
#[derive(Debug, Clone, Copy)]
pub struct QueryRun {
    pub plan_s: f64,
    pub exec_s: f64,
    pub stats: ExecStats,
    pub rows_out: usize,
    pub correct: bool,
}

impl QueryRun {
    pub fn secs(&self) -> f64 {
        self.plan_s + self.exec_s
    }
}

pub struct Round {
    pub runs: Vec<QueryRun>,
}

impl Round {
    /// Plan + execute time of the whole round (answer checks excluded).
    pub fn secs(&self) -> f64 {
        self.runs.iter().map(QueryRun::secs).sum()
    }

    pub fn weighted_secs(&self, qs: &QuerySet) -> f64 {
        self.runs
            .iter()
            .zip(&qs.queries)
            .map(|(r, (_, w))| r.secs() * w)
            .sum()
    }
}

/// Plan and execute every query once, `Parallelism::Serial`, compressed
/// mode. Each answer is digested and compared outside the timed calls.
pub fn run_round(env: &Env, mat: &MaterializedConfig, qs: &QuerySet) -> Result<Round> {
    let _g = env.tracer.span("exec.round");
    let mut runs = vec![None; qs.queries.len()];
    for &qi in &qs.order {
        let (q, want) = (&qs.queries[qi].0, qs.reference[qi]);
        let (plan, plan_s) = env.tracer.timed("exec.plan", || plan_query(mat, q));
        let plan = plan?;
        let (out, exec_s) = env.tracer.timed("exec.execute", || {
            execute_planned(mat, q, &plan, Parallelism::Serial)
        });
        let (rows, stats) = out?;
        runs[qi] = Some(QueryRun {
            plan_s,
            exec_s,
            stats,
            rows_out: rows.len(),
            correct: rows_digest(&rows) == want,
        });
    }
    // `order` is a permutation, so every slot is filled.
    Ok(Round {
        runs: runs.into_iter().flatten().collect(),
    })
}

/// Account every query of `rounds` as a checked operation.
pub fn check_rounds<'a>(out: &mut Outcome, what: &str, rounds: impl Iterator<Item = &'a Round>) {
    for round in rounds {
        for (qi, r) in round.runs.iter().enumerate() {
            out.check(r.correct, || {
                format!("{what}: q{qi} answer differs from the reference")
            });
        }
    }
}

/// The `rich` configuration, materialized, with each query's class.
pub struct QueryPhase {
    pub mat: MaterializedConfig,
    pub qs: QuerySet,
    pub classes: Vec<QueryClass>,
}

impl QueryPhase {
    /// Classes come from the plan each query gets; both the full-scan and
    /// the seek class must hold at least three queries, or the kernel-bound
    /// and planner-bound metrics would rest on too little.
    /// (`strict` is off only at `--quick` sizes, where a handful of leaves
    /// cannot tell a seek from a scan.)
    pub fn new(mat: MaterializedConfig, qs: QuerySet, strict: bool) -> Result<QueryPhase> {
        let mut classes = Vec::with_capacity(qs.queries.len());
        let mut plans = Vec::with_capacity(qs.queries.len());
        for (q, _) in &qs.queries {
            let plan = plan_query(&mat, q)?;
            classes.push(classify(&mat, q, &plan)?);
            plans.push(plan.describe());
        }
        for class in [QueryClass::FullScan, QueryClass::Seek] {
            let n = classes.iter().filter(|c| **c == class).count();
            if n < if strict { 3 } else { 1 } {
                return Err(cadb::common::CadbError::InvalidArgument(format!(
                    "query set-up: only {n} queries in class {class:?}, need 3; plans: {plans:#?}"
                )));
            }
        }
        Ok(QueryPhase { mat, qs, classes })
    }

    fn in_class<'a>(
        &'a self,
        round: &'a Round,
        class: QueryClass,
    ) -> impl Iterator<Item = &'a QueryRun> {
        round
            .runs
            .iter()
            .zip(&self.classes)
            .filter(move |(_, c)| **c == class)
            .map(|(r, _)| r)
    }

    /// Run rounds and report `execute_s`, `full_scan_mrows_per_s` and
    /// `seek_p50_us` (plus, traced, the `exec.*` layer metrics).
    pub fn run(&self, env: &Env, plan: RepPlan, out: &mut Outcome) -> Result<()> {
        let mark = env.tracer.mark();
        let reps = run_reps(env, "query", plan, || run_round(env, &self.mat, &self.qs))?;
        check_rounds(out, "query", reps.all());

        let full_scan_rate = |r: &Round| {
            let (rows, secs) = self
                .in_class(r, QueryClass::FullScan)
                .fold((0usize, 0.0), |(n, s), q| {
                    (n + q.stats.rows_scanned, s + q.secs())
                });
            rows as f64 / secs / 1e6
        };
        // Median over rounds of the round's mean seek latency. (The median of
        // the pooled per-query latencies would sit between two queries that
        // differ by half, and which two is a matter of the seed's data.)
        let seek_us = |r: &Round| {
            let us: Vec<f64> = self
                .in_class(r, QueryClass::Seek)
                .map(|q| q.secs() * 1e6)
                .collect();
            mean(&us)
        };
        out.put("full_scan_mrows_per_s", &reps.samples(full_scan_rate));
        out.put("seek_p50_us", &reps.samples(seek_us));
        out.put("execute_s", &reps.samples(Round::secs));

        let first = reps.first();
        let total = first.runs.iter().fold(ExecStats::default(), |mut acc, r| {
            acc.merge(&r.stats);
            acc
        });
        out.count("query.pages_scanned", total.pages_scanned as u64);
        out.count("query.rows_scanned", total.rows_scanned as u64);
        out.count("query.predicate_evals", total.predicate_evals as u64);
        out.count(
            "query.rows_returned",
            first.runs.iter().map(|r| r.rows_out as u64).sum(),
        );

        if let Some((traced, _)) = &reps.traced {
            let st = env.tracer.self_times_since(mark);
            let (plan_ns, plans) = st.get("exec.plan").copied().unwrap_or((0, 1));
            out.layer(
                "exec.plan_us_per_query",
                plan_ns as f64 / plans as f64 / 1e3,
            );
            let (rows, secs) = self
                .in_class(traced, QueryClass::FullScan)
                .fold((0usize, 0.0), |(n, s), q| {
                    (n + q.stats.rows_scanned, s + q.exec_s)
                });
            out.layer("exec.full_scan_ns_per_row", secs * 1e9 / rows as f64);
            out.layer(
                "exec.predicate_evals_per_row",
                total.predicate_evals as f64 / total.rows_scanned as f64,
            );
            out.layer("exec.pages_scanned_per_round", total.pages_scanned as f64);
            let seeks: Vec<&QueryRun> = self.in_class(traced, QueryClass::Seek).collect();
            out.layer(
                "exec.seek_pages_per_query",
                seeks.iter().map(|q| q.stats.pages_scanned).sum::<usize>() as f64
                    / seeks.len() as f64,
            );
            let mvs: Vec<f64> = self
                .in_class(traced, QueryClass::Mv)
                .map(|q| q.secs() * 1e6)
                .collect();
            out.layer("exec.mv_query_us", mean(&mvs));
            let joins: Vec<f64> = traced
                .runs
                .iter()
                .zip(&self.qs.queries)
                .filter(|(_, (q, _))| !q.joins.is_empty())
                .map(|(r, _)| r.secs() * 1e3)
                .collect();
            out.layer("exec.join_query_ms", mean(&joins));
            out.layer(
                "exec.rows_examined_per_row_returned",
                total.rows_scanned as f64
                    / traced.runs.iter().map(|r| r.rows_out).sum::<usize>() as f64,
            );
            out.overheads(&reps);
        }
        Ok(())
    }
}

pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}
