//! Criterion micro-benchmarks for the performance-critical paths:
//! page compression encode/decode per method, SampleCF, the greedy graph
//! search, and a full advisor run.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use cadb_common::Parallelism;
use cadb_compression::analyze::compressed_index_size;
use cadb_compression::page::{decode_page, encode_page, PageContext};
use cadb_compression::CompressionKind;
use cadb_core::greedy::greedy_assign;
use cadb_core::{Advisor, AdvisorOptions, ErrorModel, EstimationGraph};
use cadb_engine::WhatIfOptimizer;
use cadb_exec::{scan_filter, scan_filter_range, BoundPredicate, ExecMode};
use cadb_sampling::{sample_cf, sample_cf_batch, SampleManager};
use cadb_storage::PhysicalIndex;

fn bench_page_codec(c: &mut Criterion) {
    let db = cadb_datagen::TpchGen::new(0.05).build().unwrap();
    let t = db.table_id("lineitem").unwrap();
    let spec = cadb_engine::IndexSpec::secondary(
        t,
        vec![cadb_common::ColumnId(8), cadb_common::ColumnId(14)],
    )
    .with_includes(vec![cadb_common::ColumnId(10), cadb_common::ColumnId(5)]);
    let (rows, dtypes, _) =
        cadb_sampling::index_rows::index_row_stream(&db, &spec, db.table(t).rows()).unwrap();
    let page_rows = &rows[..400.min(rows.len())];

    let mut group = c.benchmark_group("page_codec");
    for kind in [
        CompressionKind::None,
        CompressionKind::Row,
        CompressionKind::Page,
        CompressionKind::Rle,
    ] {
        let ctx = PageContext {
            dtypes: &dtypes,
            kind,
            global_dicts: None,
        };
        group.bench_with_input(BenchmarkId::new("encode", kind), &ctx, |b, ctx| {
            b.iter(|| encode_page(black_box(page_rows), ctx).unwrap())
        });
        let encoded = encode_page(page_rows, &ctx).unwrap();
        group.bench_with_input(BenchmarkId::new("decode", kind), &ctx, |b, ctx| {
            b.iter(|| decode_page(black_box(&encoded.bytes), ctx).unwrap())
        });
    }
    group.finish();

    c.bench_function("compressed_index_size/PAGE/12k_rows", |b| {
        b.iter(|| compressed_index_size(black_box(&rows), &dtypes, CompressionKind::Page).unwrap())
    });
}

fn bench_compressed_scan(c: &mut Criterion) {
    // Filtered scan over real compressed leaves: the compressed path
    // (per-run / per-dictionary predicate evaluation) vs the
    // decompress-then-execute reference, per method. Results are
    // bit-identical by contract; only the work differs.
    let db = cadb_datagen::TpchGen::new(0.05).build().unwrap();
    let t = db.table_id("lineitem").unwrap();
    let spec = cadb_engine::IndexSpec::clustered(t, vec![cadb_common::ColumnId(0)]);
    let (rows, dtypes, n_key) =
        cadb_sampling::index_rows::index_row_stream(&db, &spec, db.table(t).rows()).unwrap();
    // Filter on returnflag (col 8), a low-cardinality CHAR column where
    // dictionary/RLE short-circuits pay off.
    let preds = vec![BoundPredicate {
        col: 8,
        pred: cadb_engine::Predicate::eq(
            t,
            cadb_common::ColumnId(8),
            cadb_common::Value::Str("R".into()),
        ),
    }];
    let mut group = c.benchmark_group("compressed_scan");
    for kind in [
        CompressionKind::Row,
        CompressionKind::Page,
        CompressionKind::Rle,
    ] {
        let ix = PhysicalIndex::build(&rows, &dtypes, n_key, kind).unwrap();
        group.bench_with_input(BenchmarkId::new("compressed", kind), &ix, |b, ix| {
            b.iter(|| {
                scan_filter(
                    black_box(ix),
                    &preds,
                    Parallelism::Serial,
                    ExecMode::Compressed,
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("reference", kind), &ix, |b, ix| {
            b.iter(|| {
                scan_filter(
                    black_box(ix),
                    &preds,
                    Parallelism::Serial,
                    ExecMode::Reference,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_planned_scan(c: &mut Criterion) {
    // Seek vs full-leaf scan on a selective predicate: the access-path
    // planner's win, isolated. A secondary index keyed on shipdate lets a
    // narrow BETWEEN push down as a key range; the seek touches only the
    // qualifying leaves while the full scan filters every leaf. Results
    // are identical by contract (pinned by planner_properties); only the
    // leaf I/O differs.
    let db = cadb_datagen::TpchGen::new(0.05).build().unwrap();
    let t = db.table_id("lineitem").unwrap();
    // Key: shipdate (col 10); includes: extendedprice (col 5).
    let spec = cadb_engine::IndexSpec::secondary(t, vec![cadb_common::ColumnId(10)])
        .with_includes(vec![cadb_common::ColumnId(5)]);
    let (rows, dtypes, n_key) =
        cadb_sampling::index_rows::index_row_stream(&db, &spec, db.table(t).rows()).unwrap();
    // One month out of the ~6.6-year shipdate span: ~1% of the rows.
    let pred = cadb_engine::Predicate::between(
        t,
        cadb_common::ColumnId(10),
        cadb_common::Value::Int(cadb_engine::lower::date_to_days(1994, 6, 1)),
        cadb_common::Value::Int(cadb_engine::lower::date_to_days(1994, 6, 30)),
    );
    let range = cadb_engine::extract_key_range(&[&pred], &spec.key_cols).unwrap();
    let preds = vec![BoundPredicate { col: 0, pred }];
    let mut group = c.benchmark_group("planned_scan");
    for kind in [CompressionKind::Row, CompressionKind::Page] {
        let ix = PhysicalIndex::build(&rows, &dtypes, n_key, kind).unwrap();
        // Sanity: the seek must agree with the full scan and touch fewer
        // leaves, or the bench is measuring a broken planner.
        let (full, full_stats) =
            scan_filter(&ix, &preds, Parallelism::Serial, ExecMode::Compressed).unwrap();
        let (seek, seek_stats) = scan_filter_range(
            &ix,
            &preds,
            Some(&range),
            Parallelism::Serial,
            ExecMode::Compressed,
        )
        .unwrap();
        assert_eq!(full, seek);
        assert!(seek_stats.pages_scanned < full_stats.pages_scanned);
        group.bench_with_input(BenchmarkId::new("seek", kind), &ix, |b, ix| {
            b.iter(|| {
                scan_filter_range(
                    black_box(ix),
                    &preds,
                    Some(&range),
                    Parallelism::Serial,
                    ExecMode::Compressed,
                )
                .unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("full_scan", kind), &ix, |b, ix| {
            b.iter(|| {
                scan_filter(
                    black_box(ix),
                    &preds,
                    Parallelism::Serial,
                    ExecMode::Compressed,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_obs_overhead(c: &mut Criterion) {
    use cadb_common::obs::{self, TraceRecorder};
    use std::sync::Arc;

    // Cost of the observability layer on the hottest instrumented path,
    // the compressed filtered scan (spans scan.filter + one ExecStats
    // publish per call):
    //  * `noop`      — no recorder installed; every instrumentation point
    //                  is one predicted branch. Must stay within 2% of
    //                  historical compressed_scan numbers — this is the
    //                  price every user pays.
    //  * `recording` — a TraceRecorder installed; spans and counters land
    //                  in mutex-guarded tables. Allowed to cost more; it
    //                  only runs when a trace was asked for.
    let db = cadb_datagen::TpchGen::new(0.05).build().unwrap();
    let t = db.table_id("lineitem").unwrap();
    let spec = cadb_engine::IndexSpec::clustered(t, vec![cadb_common::ColumnId(0)]);
    let (rows, dtypes, n_key) =
        cadb_sampling::index_rows::index_row_stream(&db, &spec, db.table(t).rows()).unwrap();
    let preds = vec![BoundPredicate {
        col: 8,
        pred: cadb_engine::Predicate::eq(
            t,
            cadb_common::ColumnId(8),
            cadb_common::Value::Str("R".into()),
        ),
    }];
    let ix = PhysicalIndex::build(&rows, &dtypes, n_key, CompressionKind::Page).unwrap();
    let scan = |ix: &PhysicalIndex| {
        scan_filter(
            black_box(ix),
            &preds,
            Parallelism::Serial,
            ExecMode::Compressed,
        )
        .unwrap()
    };

    let mut group = c.benchmark_group("obs_overhead");
    group.bench_with_input(BenchmarkId::new("compressed_scan", "noop"), &ix, |b, ix| {
        assert!(!obs::recording());
        b.iter(|| scan(ix))
    });
    {
        let rec = Arc::new(TraceRecorder::new());
        let _guard = obs::install(rec);
        group.bench_with_input(
            BenchmarkId::new("compressed_scan", "recording"),
            &ix,
            |b, ix| {
                assert!(obs::recording());
                b.iter(|| scan(ix))
            },
        );
    }
    group.finish();
}

fn bench_samplecf(c: &mut Criterion) {
    let db = cadb_datagen::TpchGen::new(0.1).build().unwrap();
    let t = db.table_id("lineitem").unwrap();
    let spec = cadb_engine::IndexSpec::secondary(
        t,
        vec![cadb_common::ColumnId(10), cadb_common::ColumnId(2)],
    )
    .with_compression(CompressionKind::Page);
    let manager = SampleManager::new(&db, 1);
    // Warm the sample cache so the bench isolates the index-build cost.
    sample_cf(&manager, &spec, 0.05).unwrap();
    c.bench_function("samplecf/PAGE/f=5%", |b| {
        b.iter(|| sample_cf(black_box(&manager), &spec, 0.05).unwrap())
    });
}

fn bench_samplecf_batch(c: &mut Criterion) {
    // A full SampleCF round (fresh manager each iteration, as the advisor
    // sees it): serial loop vs the worker-pool batch. Records the
    // serial-vs-parallel wall time behind the `par` repro experiment.
    let db = cadb_datagen::TpchGen::new(0.1).build().unwrap();
    let specs = cadb_bench::experiments::lineitem_index_specs(
        &db,
        &[CompressionKind::Row, CompressionKind::Page],
        2,
    );
    let mut group = c.benchmark_group("samplecf_round");
    group.sample_size(10);
    group.bench_function("serial", |b| {
        b.iter(|| {
            let mgr = SampleManager::new(&db, 1);
            sample_cf_batch(black_box(&mgr), &specs, 0.05, Parallelism::Serial).unwrap()
        })
    });
    let workers = Parallelism::Auto.effective_threads().max(4);
    group.bench_function(&format!("threads_{workers}"), |b| {
        b.iter(|| {
            let mgr = SampleManager::new(&db, 1);
            sample_cf_batch(black_box(&mgr), &specs, 0.05, Parallelism::Threads(workers)).unwrap()
        })
    });
    group.finish();
}

fn bench_greedy_search(c: &mut Criterion) {
    let db = cadb_datagen::TpchGen::new(0.05).build().unwrap();
    let opt = WhatIfOptimizer::new(&db);
    let specs = cadb_bench::experiments::lineitem_index_specs(
        &db,
        &[CompressionKind::Row, CompressionKind::Page],
        3,
    );
    c.bench_function(
        &format!("greedy_graph_search/{}_indexes", specs.len()),
        |b| {
            b.iter(|| {
                let mut g =
                    EstimationGraph::new(&opt, ErrorModel::default(), 0.05, black_box(&specs), &[]);
                greedy_assign(&mut g, &opt, 0.5, 0.9)
            })
        },
    );
}

fn bench_advisor(c: &mut Criterion) {
    let gen = cadb_datagen::TpchGen::new(0.02);
    let db = gen.build().unwrap();
    let w = gen.workload(&db).unwrap();
    let budget = 0.3 * db.base_data_bytes() as f64;
    let mut group = c.benchmark_group("advisor");
    group.sample_size(10);
    group.bench_function("dtac_tpch_scale0.02", |b| {
        b.iter(|| {
            Advisor::new(&db, AdvisorOptions::dtac(black_box(budget)))
                .recommend(&w)
                .unwrap()
        })
    });
    group.finish();
}

fn bench_store_concurrency(c: &mut Criterion) {
    use cadb_engine::{BulkInsert, CostModel, Statement, Workload};
    use cadb_exec::{MaterializedConfig, ShardedStore, Store};

    let gen = cadb_datagen::TpchGen::new(0.02);
    let db = gen.build().unwrap();
    let w = gen.workload(&db).unwrap();
    let cfg = cadb_bench::experiments::plan::mv_rich_config(&db, &w);
    let mat = MaterializedConfig::build(&db, &cfg).unwrap();
    let t = db.table_id("lineitem").unwrap();

    // N snapshot readers × M committing writers over the MVCC store: the
    // single-log/multi-writer commit path under read pressure. Readers
    // come in two flavors — the gen-1 row-cache view (`n_rows` over the
    // version chains) and the gen-2 snapshot page cache (`pages`, a folded
    // compressed image shared between modifications) — so the cache's
    // before/after effect is one report apart.
    let mut group = c.benchmark_group("store_concurrency");
    group.sample_size(10);
    for (readers, writers) in [(0usize, 1usize), (2, 2), (4, 4)] {
        let mut writes = Workload::default();
        for _ in 0..writers * 2 {
            writes.push(
                Statement::Insert(BulkInsert {
                    table: t,
                    n_rows: 50,
                }),
                1.0,
            );
        }
        // Four reader/log-layout cells per contention level: the gen-1
        // row view and the gen-2 page cache over the single WAL, then the
        // row view again over hash-sharded logs — identical committed
        // state by the layout contract, so the sharded cells measure what
        // the order record + fan-out cost under read pressure.
        let cells = [
            ("row_view", false, None),
            ("page_cache", true, None),
            ("sharded", false, Some(1usize)),
            ("sharded", false, Some(4)),
        ];
        for (label, pages, shards) in cells {
            let param = match shards {
                None => format!("{readers}x{writers}"),
                Some(n) => format!("{readers}x{writers}x{n}"),
            };
            let id = BenchmarkId::new(label, param);
            group.bench_with_input(id, &writes, |b, writes| {
                b.iter(|| {
                    let store: Store<'_> = match shards {
                        None => Store::open(&db, &mat, CostModel::default()),
                        Some(n) => ShardedStore::open(
                            &db,
                            &mat,
                            CostModel::default(),
                            cadb_shard::ShardSpec::hash(n),
                        )
                        .unwrap()
                        .into(),
                    };
                    store.warm_for_table(t).unwrap();
                    std::thread::scope(|s| {
                        for _ in 0..readers {
                            s.spawn(|| {
                                for _ in 0..8 {
                                    let snap = store.snapshot();
                                    if pages {
                                        black_box(snap.pages(t).unwrap().n_rows());
                                    } else {
                                        black_box(snap.n_rows(t).unwrap());
                                    }
                                }
                            });
                        }
                        store
                            .apply_workload(
                                black_box(writes),
                                7,
                                Parallelism::Threads(writers.max(1)),
                            )
                            .unwrap()
                    })
                })
            });
        }
    }
    group.finish();
}

fn bench_wal_batch(c: &mut Criterion) {
    use cadb_engine::{BulkInsert, CostModel, Statement, Workload};
    use cadb_exec::{MaterializedConfig, Store};

    let gen = cadb_datagen::TpchGen::new(0.02);
    let db = gen.build().unwrap();
    let w = gen.workload(&db).unwrap();
    let cfg = cadb_bench::experiments::plan::mv_rich_config(&db, &w);
    let mat = MaterializedConfig::build(&db, &cfg).unwrap();
    let t = db.table_id("lineitem").unwrap();

    // Commit throughput vs group-commit batch size: the same 16 prepared
    // INSERT statements, one coalesced WAL append (sync point) per batch.
    // The logged bytes are bit-identical across rows by the store's
    // group-commit contract; only the number of sync points differs.
    let mut writes = Workload::default();
    for _ in 0..16 {
        writes.push(
            Statement::Insert(BulkInsert {
                table: t,
                n_rows: 25,
            }),
            1.0,
        );
    }
    let mut group = c.benchmark_group("wal_batch");
    group.sample_size(10);
    for batch in [1usize, 4, 16] {
        group.bench_with_input(
            BenchmarkId::new("commit_batch", batch),
            &writes,
            |b, writes| {
                b.iter(|| {
                    let store = Store::open(&db, &mat, CostModel::default());
                    store.warm_for_table(t).unwrap();
                    store
                        .apply_workload_batched(black_box(writes), 7, Parallelism::Serial, batch)
                        .unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_sharded_build(c: &mut Criterion) {
    use cadb_shard::{BuildOptions, Partitioning, ShardSpec, ShardedIndex};

    // Partitioned keyed build over streamed lineitem rows: the monolithic
    // single-shard path vs range/hash sharding with parallel workers. Every
    // variant produces bit-identical bytes (pinned by crates/shard tests);
    // this bench tracks what the sharding costs or saves in wall time.
    let gen = cadb_datagen::TpchGen::new(0.05);
    let db = gen.build().unwrap();
    let t = db.table_id("lineitem").unwrap();
    let dtypes = db.dtypes(t);
    let rows: Vec<_> = gen
        .stream_table("lineitem")
        .unwrap()
        .flat_map(|c| c.rows)
        .collect();

    let mut group = c.benchmark_group("sharded_build");
    group.sample_size(10);
    for (label, spec, par) in [
        ("mono", ShardSpec::range(1), Parallelism::Serial),
        ("range8/serial", ShardSpec::range(8), Parallelism::Serial),
        ("range8/auto", ShardSpec::range(8), Parallelism::Auto),
        (
            "hash8/auto",
            ShardSpec {
                shards: 8,
                partitioning: Partitioning::Hash,
            },
            Parallelism::Auto,
        ),
    ] {
        let opts = BuildOptions::default().with_parallelism(par);
        group.bench_with_input(BenchmarkId::new("lineitem", label), &rows, |b, rows| {
            b.iter(|| {
                ShardedIndex::build(
                    black_box(rows),
                    &dtypes,
                    1,
                    cadb_compression::CompressionKind::Page,
                    spec,
                    &opts,
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_page_codec,
    bench_compressed_scan,
    bench_planned_scan,
    bench_obs_overhead,
    bench_samplecf,
    bench_samplecf_batch,
    bench_greedy_search,
    bench_advisor,
    bench_store_concurrency,
    bench_wal_batch,
    bench_sharded_build
);
criterion_main!(benches);
