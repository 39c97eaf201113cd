//! Quickstart: tune a TPC-H-like workload with the compression-aware
//! advisor (DTAc) through the `TuningSession` entry point and inspect the
//! recommendation.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use cadb::datagen::TpchGen;
use cadb::engine::WhatIfOptimizer;
use cadb::TuningSession;

fn main() {
    // 1. A small TPC-H-shaped database (scale 0.05 ⇒ 3 000 lineitem rows)
    //    and its 22-query + 2-bulk-load workload.
    let gen = TpchGen::new(0.05);
    let db = gen.build().expect("generate database");
    let workload = gen.workload(&db).expect("generate workload");
    let base_bytes = db.base_data_bytes() as f64;
    println!(
        "database: {} tables, {:.1} MiB uncompressed",
        db.table_ids().len(),
        base_bytes / (1024.0 * 1024.0)
    );

    // 2. Ask for a design within 25 % of the base data size. The session
    //    defaults to full DTAc (Skyline selection + Backtracking
    //    enumeration + the §5 deduction estimator); chain `.preset(...)`
    //    or `.selection(...)`/`.enumeration(...)`/`.estimator(...)` to
    //    swap any stage.
    let budget = 0.25 * base_bytes;
    let rec = TuningSession::new(&db)
        .workload(&workload)
        .budget(budget)
        .run()
        .expect("advisor run");

    println!(
        "\nrecommendation: {} structures, {:.1} KiB of {:.1} KiB budget",
        rec.configuration.len(),
        rec.total_bytes() / 1024.0,
        budget / 1024.0
    );
    for s in rec.configuration.structures() {
        println!(
            "  {:<55} {:>8.1} KiB (cf {:.2})",
            s.spec.to_string(),
            s.size.bytes / 1024.0,
            s.size.compression_fraction
        );
    }
    println!(
        "\nestimated workload cost: {:.0} -> {:.0}  ({:.1}% improvement)",
        rec.initial_cost,
        rec.final_cost,
        rec.improvement_percent()
    );

    // 3. The recommendation is also available machine-readable.
    println!("\nJSON: {}", rec.to_json());

    // 4. Inspect a query plan under the recommendation via the what-if API.
    let opt = WhatIfOptimizer::new(&db);
    let mut queries = workload.queries();
    if let Some((q, _)) = queries.next() {
        // `explain` returns the same `QueryPlan` the compressed executor
        // consumes (one planner, hypothetical view).
        let plan = opt.explain(q, &rec.configuration);
        println!("\nplan for the first query (cost {:.1}):", plan.cost);
        for path in plan.paths() {
            println!("  {} (cost {:.1})", path.describe(), path.cost);
        }
    }
}
