//! Access-path golden file: every plan both planner views produce, pinned
//! **across commits**.
//!
//! `tests/plan_equivalence.rs` proves a plan never changes an *answer*;
//! nothing there notices when a plan itself moves. This suite writes down,
//! for TPC-H (seed 42, scale 0.2) under
//!
//! * `rich` — the repository benchmark's fixed configuration (clustered
//!   PAGE bases on `lineitem`/`orders`, one ROW covering index per query,
//!   one MV index per MV-answerable query), and
//! * `rec` — the default DTAc recommendation at a 30 % budget,
//!
//! one line per query with the executor's `(kind, index, consumed key
//! predicates)` per table, the what-if optimizer's `(kind, index)` per
//! table and its cost printed round-trip exact, plus the recommendation's
//! structure list — and diffs it against `tests/plan_golden.txt`. A PR
//! that flips a plan, moves a what-if cost by one ulp or changes the
//! recommendation shows up as a readable diff; an intentional change is
//! recorded by regenerating:
//!
//! ```sh
//! CADB_UPDATE_PLAN_GOLDEN=1 cargo test --test plan_golden
//! ```

mod common;

use cadb::common::ColumnId;
use cadb::compression::CompressionKind;
use cadb::datagen::TpchGen;
use cadb::engine::access_path::needed_columns;
use cadb::engine::{
    Configuration, Database, IndexSpec, PhysicalStructure, Query, WhatIfOptimizer, Workload,
};
use cadb::exec::{plan_query, MaterializedConfig, QueryPlan};
use cadb::TuningSession;
use common::mv_index;
use std::fmt::Write as _;
use std::path::Path;

const SNAPSHOT: &str = "tests/plan_golden.txt";
const SCALE: f64 = 0.2;

/// The benchmark's `rich` configuration (`benchmark/src/inputs.rs`),
/// rebuilt here because the benchmark package is not a dependency.
fn rich_config(db: &Database, w: &Workload) -> Configuration {
    let opt = WhatIfOptimizer::new(db);
    let priced = |spec: IndexSpec, cf: f64| {
        let size = opt.estimate_uncompressed_size(&spec).compressed(cf);
        PhysicalStructure { spec, size }
    };
    let mut cfg = Configuration::empty();
    for name in ["lineitem", "orders"] {
        let t = db.table_id(name).expect("TPC-H table");
        let spec =
            IndexSpec::clustered(t, vec![ColumnId(0)]).with_compression(CompressionKind::Page);
        cfg.add(priced(spec, 0.6));
    }
    for (q, _) in w.queries() {
        if let Some(spec) = covering_index(q) {
            cfg.add(priced(spec, 0.5));
        }
        if let Some(spec) = mv_index(q).filter(|s| !cfg.contains(s)) {
            cfg.add(priced(spec, 0.5));
        }
    }
    cfg
}

fn covering_index(q: &Query) -> Option<IndexSpec> {
    let t = q.root;
    let mut key: Vec<ColumnId> = Vec::new();
    for p in q.predicates_on(t) {
        if !key.contains(&p.column) {
            key.push(p.column);
        }
    }
    if key.is_empty() {
        return None;
    }
    let includes = needed_columns(q, t)
        .into_iter()
        .filter(|c| !key.contains(c))
        .collect();
    Some(
        IndexSpec::secondary(t, key)
            .with_includes(includes)
            .with_compression(CompressionKind::Row),
    )
}

/// `table:kind:index` per path (MV plans: the one MV path), `; `-joined.
/// `consumed` adds the executor's pushed-down key-predicate count.
fn paths(plan: &QueryPlan, consumed: bool) -> String {
    let parts: Vec<String> = match &plan.mv {
        Some(m) => vec![m],
        None => plan.tables.iter().collect(),
    }
    .into_iter()
    .map(|p| {
        let index = match &p.index {
            Some(spec) => spec.to_string(),
            None => "heap".to_string(),
        };
        let mut s = format!("{}:{:?}:{index}", p.table, p.kind);
        if consumed {
            let k = p.key_range.as_ref().map_or(0, |r| r.consumed);
            write!(s, ":k{k}").unwrap();
        }
        s
    })
    .collect();
    parts.join("; ")
}

fn section(out: &mut String, name: &str, db: &Database, w: &Workload, cfg: &Configuration) {
    let mat = MaterializedConfig::build(db, cfg).expect("materialize");
    let opt = WhatIfOptimizer::new(db);
    for (i, (q, _)) in w.queries().enumerate() {
        let exec = plan_query(&mat, q).expect("plan");
        let whatif = opt.explain(q, cfg);
        writeln!(
            out,
            "{name} q{i:02} exec {} | whatif {} | cost {:?}",
            paths(&exec, true),
            paths(&whatif, false),
            whatif.cost
        )
        .unwrap();
    }
}

fn render() -> String {
    let gen = TpchGen::new(SCALE);
    let db = gen.build().unwrap();
    let w = gen.workload(&db).unwrap();
    let mut out = String::new();
    writeln!(
        out,
        "# TPC-H seed 42, scale {SCALE}. Regenerate: CADB_UPDATE_PLAN_GOLDEN=1 cargo test --test plan_golden"
    )
    .unwrap();
    section(&mut out, "rich", &db, &w, &rich_config(&db, &w));
    let rec = TuningSession::new(&db)
        .workload(&w)
        .budget_fraction(0.3)
        .run()
        .unwrap();
    for s in rec.configuration.structures() {
        writeln!(out, "rec structure {} bytes {:?}", s.spec, s.size.bytes).unwrap();
    }
    section(&mut out, "rec", &db, &w, &rec.configuration);
    out
}

#[test]
fn plans_match_golden_file() {
    let got = render();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(SNAPSHOT);
    if std::env::var_os("CADB_UPDATE_PLAN_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("read tests/plan_golden.txt");
    let diff: Vec<String> = want
        .lines()
        .zip(got.lines())
        .filter(|(a, b)| a != b)
        .map(|(a, b)| format!("- {a}\n+ {b}"))
        .collect();
    assert!(
        diff.is_empty() && want.lines().count() == got.lines().count(),
        "plans moved ({} vs {} lines); rerun with CADB_UPDATE_PLAN_GOLDEN=1 if intended:\n{}",
        want.lines().count(),
        got.lines().count(),
        diff.join("\n")
    );
}
