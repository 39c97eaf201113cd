//! Per-layer probes of the traced run: each crate's public functions timed
//! from outside, over the small database. They explain moves in the
//! end-to-end metrics; none of them gates a change.

use crate::harness::{Env, Outcome};
use crate::inputs::SplitMix64;
use crate::stats::median;
use cadb::common::{rows_footprint, ColumnId, DataType, Parallelism, Result, Row, Value};
use cadb::compression::page::decode_column_values;
use cadb::compression::{column_sections, decode_page, encode_page, CompressionKind, PageContext};
use cadb::core::advisor::{candidates, merge};
use cadb::core::strategy::{AdvisorContext, EstimationContext, StrategySet};
use cadb::core::AdvisorOptions;
use cadb::datagen::tpch::QUERIES;
use cadb::datagen::TpchGen;
use cadb::engine::lower::lower_statement;
use cadb::engine::{
    Configuration, Database, IndexSpec, PhysicalStructure, Predicate, WhatIfOptimizer, Workload,
};
use cadb::exec::store::effects::CommitEffects;
use cadb::exec::{scan_filter, BoundPredicate, ExecMode};
use cadb::sampling::{sample_cf_batch, SampleManager};
use cadb::shard::{BuildOptions, ShardRouter, ShardSpec, ShardedIndex};
use cadb::storage::wal::{
    self, crc32, encode_frame, FrameType, WalFrame, WalSegment, FRAME_HEADER_BYTES,
};
use cadb::storage::PhysicalIndex;
use cadb::TuningSession;
use std::hint::black_box;
use std::time::Instant;

const MB: f64 = 1e6;
/// Rows per page in the codec probes.
const PAGE_ROWS: usize = 400;
const CODEC_PAGES: usize = 10;
const RETURNFLAG: usize = 8;

/// Median seconds of three runs of `f`.
fn secs<R>(mut f: impl FnMut() -> Result<R>) -> Result<f64> {
    let mut runs = Vec::with_capacity(3);
    for _ in 0..3 {
        let t = Instant::now();
        black_box(f()?);
        runs.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&runs))
}

/// Every probe, each under its own span. `rich` supplies the fixed
/// configurations the what-if probe prices.
pub fn probe_layers(
    env: &Env,
    gen: &TpchGen,
    db: &Database,
    w: &Workload,
    rich: &Configuration,
    out: &mut Outcome,
) -> Result<()> {
    env.tracer.set_enabled(true);
    env.tracer.next_rep();
    let lineitem = db.table_id("lineitem")?;
    let dtypes = db.dtypes(lineitem);
    // `lineitem` sorted on `orderkey`: the row stream of a clustered build.
    let columns: Vec<ColumnId> = (0..dtypes.len() as u16).map(ColumnId).collect();
    let rows = &db
        .table(lineitem)
        .sorted_projection(&[ColumnId(0)], &columns);
    {
        let _g = env.tracer.span("probe.datagen");
        datagen(gen, out)?;
    }
    {
        let _g = env.tracer.span("probe.sql_engine");
        sql_engine(db, w, rich, out)?;
    }
    {
        let _g = env.tracer.span("probe.sampling_core");
        sampling_core(env, db, w, out)?;
    }
    {
        let _g = env.tracer.span("probe.compression");
        compression(rows, &dtypes, out)?;
    }
    {
        let _g = env.tracer.span("probe.storage_exec");
        storage_exec(env, db, rows, &dtypes, out)?;
    }
    {
        let _g = env.tracer.span("probe.shard");
        // Unsorted input: routing and sorting it is the sharded build's job.
        shard(db.table(lineitem).rows(), &dtypes, out)?;
    }
    env.tracer.set_enabled(false);
    Ok(())
}

fn datagen(gen: &TpchGen, out: &mut Outcome) -> Result<()> {
    out.layer("datagen.build_s", secs(|| gen.build())?);
    let mut n = 0usize;
    let t = secs(|| {
        n = gen
            .stream_table("lineitem")?
            .map(|chunk| black_box(chunk).rows.len())
            .sum();
        Ok(())
    })?;
    out.layer("datagen.stream_mrows_per_s", n as f64 / t / 1e6);
    Ok(())
}

fn sql_engine(db: &Database, w: &Workload, rich: &Configuration, out: &mut Outcome) -> Result<()> {
    let t = secs(|| {
        QUERIES
            .iter()
            .map(|sql| lower_statement(db, sql))
            .collect::<Result<Vec<_>>>()
    })?;
    out.layer("sql.lower_us_per_stmt", t * 1e6 / QUERIES.len() as f64);
    // 64 fixed configurations: every subset of the first six `rich`
    // structures.
    let pool: Vec<&PhysicalStructure> = rich.structures().iter().take(6).collect();
    let configs: Vec<Configuration> = (0..64u32)
        .map(|bits| {
            Configuration::new(
                pool.iter()
                    .enumerate()
                    .filter(|(j, _)| bits & (1 << j) != 0)
                    .map(|(_, s)| (*s).clone())
                    .collect(),
            )
        })
        .collect();
    let opt = WhatIfOptimizer::new(db).with_parallelism(Parallelism::Serial);
    let t = secs(|| Ok(configs.iter().map(|c| opt.workload_cost(w, c)).sum::<f64>()))?;
    out.layer(
        "engine.whatif_us_per_config",
        t * 1e6 / configs.len() as f64,
    );
    Ok(())
}

/// The advisor's stages re-run one by one through their public functions,
/// as `Advisor::recommend_with` chains them.
fn sampling_core(env: &Env, db: &Database, w: &Workload, out: &mut Outcome) -> Result<()> {
    let lineitem = db.table_id("lineitem")?;
    let options = AdvisorOptions::dtac(0.3 * db.base_data_bytes() as f64)
        .with_parallelism(Parallelism::Serial);
    let strategies = StrategySet::from_options(&options);
    let opt = WhatIfOptimizer::new(db).with_parallelism(Parallelism::Serial);

    let t = Instant::now();
    SampleManager::new(db, env.seed).table_sample(lineitem, 0.01)?;
    out.layer(
        "sampling.base_sample_build_ms",
        t.elapsed().as_secs_f64() * 1e3,
    );

    let t = Instant::now();
    let mut pool = candidates::generate_candidates(&opt, w, &options);
    merge::add_merged_candidates(&opt, w, &mut pool, &options);
    out.layer("core.candidates_ms", t.elapsed().as_secs_f64() * 1e3);

    let compressed: Vec<IndexSpec> = pool
        .iter()
        .filter(|s| s.compression.is_compressed() && s.mv.is_none())
        .cloned()
        .collect();
    let manager = SampleManager::new(db, env.seed);
    let t = Instant::now();
    black_box(sample_cf_batch(
        &manager,
        &compressed,
        0.01,
        Parallelism::Serial,
    )?);
    out.layer(
        "sampling.samplecf_round_ms",
        t.elapsed().as_secs_f64() * 1e3,
    );

    let manager = SampleManager::new(db, env.seed);
    let targets: Vec<IndexSpec> = pool
        .iter()
        .filter(|s| s.compression.is_compressed())
        .cloned()
        .collect();
    let t = Instant::now();
    let report = strategies.estimator.estimate_sizes(
        &EstimationContext {
            opt: &opt,
            manager: &manager,
        },
        &targets,
        &[],
    )?;
    out.layer("core.estimate_sizes_ms", t.elapsed().as_secs_f64() * 1e3);

    let priced: Vec<PhysicalStructure> = pool
        .into_iter()
        .filter_map(|spec| {
            let size = if spec.compression.is_compressed() {
                *report.estimates.get(&spec)?
            } else {
                opt.estimate_stored_size(&spec)
            };
            Some(PhysicalStructure { spec, size })
        })
        .collect();
    let ctx = AdvisorContext {
        opt: &opt,
        storage_budget: options.storage_budget,
    };
    let t = Instant::now();
    let selected = strategies.selection.select(&ctx, w, &priced)?;
    out.layer("core.selection_ms", t.elapsed().as_secs_f64() * 1e3);
    let t = Instant::now();
    black_box(strategies.enumeration.enumerate(&ctx, w, &selected)?);
    out.layer("core.enumerate_ms", t.elapsed().as_secs_f64() * 1e3);

    // Thread-pool behaviour is a per-layer ratio, never an end-to-end metric.
    let advise = |par: Parallelism| -> Result<f64> {
        let session = TuningSession::new(db)
            .workload(w)
            .seed(env.seed)
            .parallelism(par)
            .budget_fraction(0.3);
        let t = Instant::now();
        black_box(session.run()?);
        Ok(t.elapsed().as_secs_f64())
    };
    let serial = advise(Parallelism::Serial)?;
    out.layer(
        "core.advise_auto_ratio",
        advise(Parallelism::Auto)? / serial,
    );
    Ok(())
}

fn compression(rows: &[Row], dtypes: &[DataType], out: &mut Outcome) -> Result<()> {
    let pages: Vec<&[Row]> = rows.chunks(PAGE_ROWS).take(CODEC_PAGES).collect();
    for (kind, enc_name, dec_name, cf_name) in [
        (
            CompressionKind::None,
            "compression.none.encode_mb_per_s",
            "compression.none.decode_mb_per_s",
            "compression.none.cf",
        ),
        (
            CompressionKind::Row,
            "compression.row.encode_mb_per_s",
            "compression.row.decode_mb_per_s",
            "compression.row.cf",
        ),
        (
            CompressionKind::Page,
            "compression.page.encode_mb_per_s",
            "compression.page.decode_mb_per_s",
            "compression.page.cf",
        ),
        (
            CompressionKind::Rle,
            "compression.rle.encode_mb_per_s",
            "compression.rle.decode_mb_per_s",
            "compression.rle.cf",
        ),
    ] {
        let ctx = PageContext {
            dtypes,
            kind,
            global_dicts: None,
        };
        let mut encoded = Vec::new();
        for p in &pages {
            encoded.push(encode_page(p, &ctx)?);
        }
        let raw: usize = encoded.iter().map(|e| e.uncompressed_bytes).sum();
        let stored: usize = encoded.iter().map(|e| e.bytes.len()).sum();
        let t = secs(|| {
            pages
                .iter()
                .map(|p| encode_page(p, &ctx))
                .collect::<Result<Vec<_>>>()
        })?;
        out.layer(enc_name, raw as f64 / MB / t);
        let t = secs(|| {
            encoded
                .iter()
                .map(|e| decode_page(&e.bytes, &ctx))
                .collect::<Result<Vec<_>>>()
        })?;
        out.layer(dec_name, raw as f64 / MB / t);
        out.layer(cf_name, stored as f64 / raw as f64);
        if kind != CompressionKind::Page {
            continue;
        }
        // Column-at-a-time decode, the executor's way into a PAGE leaf.
        let t = secs(|| {
            let mut n = 0;
            for e in &encoded {
                let (n_rows, sections) = column_sections(&e.bytes)?;
                for (col, sec) in sections.iter().enumerate() {
                    n += decode_column_values(
                        sec.block,
                        sec.tag,
                        &dtypes[col],
                        &ctx,
                        col,
                        sec.n_non_null(n_rows),
                    )?
                    .len();
                }
            }
            Ok(n)
        })?;
        out.layer(
            "compression.page.decode_column_mb_per_s",
            raw as f64 / MB / t,
        );
    }
    Ok(())
}

fn storage_exec(
    env: &Env,
    db: &Database,
    rows: &[Row],
    dtypes: &[DataType],
    out: &mut Outcome,
) -> Result<()> {
    let lineitem = db.table_id("lineitem")?;
    let n = rows.len() as f64;
    let t = Instant::now();
    let page = PhysicalIndex::build(rows, dtypes, 1, CompressionKind::Page)?;
    out.layer(
        "storage.index_build_mrows_per_s",
        n / t.elapsed().as_secs_f64() / 1e6,
    );

    // Walk the leaves as a scan enters them: cursor step, then the leaf's
    // column-section directory (the cursor step alone is a slice iterator).
    let walks = 20;
    let t = secs(|| {
        let mut sections = 0;
        for _ in 0..walks {
            for leaf in page.page_cursor() {
                sections += column_sections(leaf.bytes)?.1.len();
            }
        }
        Ok(sections)
    })?;
    out.layer(
        "storage.cursor_leaves_per_s",
        (walks * page.n_leaf_pages()) as f64 / t,
    );

    let mut rng = SplitMix64(env.seed);
    let max_key = match rows.last().and_then(|r| r.values.first()) {
        Some(Value::Int(k)) => *k as u64,
        _ => 1,
    };
    let keys: Vec<[Value; 1]> = (0..1000)
        .map(|_| [Value::Int(1 + rng.below(max_key) as i64)])
        .collect();
    let t = secs(|| {
        Ok(keys
            .iter()
            .map(|k| page.page_cursor_range(Some(k), Some(k)).len())
            .sum::<usize>())
    })?;
    out.layer("storage.range_seek_us", t * 1e6 / keys.len() as f64);

    // WAL: frames shaped like the stream's 50-row INSERT commits.
    let effects = CommitEffects {
        table: lineitem,
        appended: rows[..50.min(rows.len())].to_vec(),
        rewritten: Vec::new(),
        deleted: Vec::new(),
    };
    let payload = effects.encode();
    out.layer(
        "storage.wal_bytes_per_row_byte",
        (payload.len() + FRAME_HEADER_BYTES) as f64 / rows_footprint(&effects.appended) as f64,
    );
    let frames: Vec<WalFrame> = (1..=256u64)
        .map(|lsn| WalFrame {
            frame_type: FrameType::Commit,
            lsn,
            payload: payload.clone(),
        })
        .collect();
    let bytes: usize = frames
        .iter()
        .map(|f| f.payload.len() + FRAME_HEADER_BYTES)
        .sum();
    let mb = bytes as f64 / MB;
    let t = secs(|| {
        Ok(frames
            .iter()
            .map(|f| crc32(&f.payload))
            .fold(0u32, |a, c| a ^ c))
    })?;
    out.layer("storage.crc32_mb_per_s", mb / t);
    let t = secs(|| Ok(frames.iter().map(|f| encode_frame(f).len()).sum::<usize>()))?;
    out.layer("storage.wal_encode_mb_per_s", mb / t);
    let t = secs(|| {
        let mut seg = WalSegment::new();
        for batch in frames.chunks(16) {
            seg.append_batch(batch);
        }
        Ok(seg)
    })?;
    out.layer("storage.wal_append_mb_per_s", mb / t);
    let mut seg = WalSegment::new();
    seg.append_batch(&frames);
    let t = secs(|| Ok(wal::replay(seg.bytes()).frames.len()))?;
    out.layer("storage.wal_replay_mb_per_s", mb / t);

    // The same filter scan over each leaf encoding, compressed kernels
    // against decompress-then-filter.
    let preds = [BoundPredicate {
        col: RETURNFLAG,
        pred: Predicate::eq(
            lineitem,
            ColumnId(RETURNFLAG as u16),
            Value::Str("R".into()),
        ),
    }];
    let (mut compressed_s, mut reference_s) = (0.0, 0.0);
    for (kind, name) in [
        (CompressionKind::Row, "exec.scan_filter.row.ns_per_row"),
        (CompressionKind::Page, "exec.scan_filter.page.ns_per_row"),
        (CompressionKind::Rle, "exec.scan_filter.rle.ns_per_row"),
    ] {
        let built;
        let ix = if kind == CompressionKind::Page {
            &page
        } else {
            built = PhysicalIndex::build(rows, dtypes, 1, kind)?;
            &built
        };
        let mut matched = [0usize; 2];
        let mut scan = |mode: ExecMode, slot: usize| {
            secs(|| {
                let (hits, _) = scan_filter(ix, &preds, Parallelism::Serial, mode)?;
                matched[slot] = hits.len();
                Ok(())
            })
        };
        let c = scan(ExecMode::Compressed, 0)?;
        let r = scan(ExecMode::Reference, 1)?;
        out.check(matched[0] == matched[1], || {
            format!("scan_filter {kind}: compressed and reference disagree")
        });
        out.layer(name, c * 1e9 / n);
        compressed_s += c;
        reference_s += r;
    }
    out.layer(
        "exec.compressed_vs_reference_ratio",
        compressed_s / reference_s,
    );
    Ok(())
}

fn shard(rows: &[Row], dtypes: &[DataType], out: &mut Outcome) -> Result<()> {
    let opts = BuildOptions::default().with_parallelism(Parallelism::Serial);
    let n = rows.len() as f64;
    for (spec, name) in [
        (ShardSpec::range(1), "shard.build_mono_mrows_per_s"),
        (ShardSpec::range(8), "shard.build_range8_mrows_per_s"),
    ] {
        let t = Instant::now();
        let ix = ShardedIndex::build(rows, dtypes, 1, CompressionKind::Page, spec, &opts)?;
        out.layer(name, n / t.elapsed().as_secs_f64() / 1e6);
        if spec.shards == 8 {
            out.layer("shard.build_peak_bytes", ix.stats().peak_bytes as f64);
        }
    }
    let router = ShardRouter::new(ShardSpec::hash(4), 1, rows.len());
    let t = secs(|| {
        Ok(rows
            .iter()
            .enumerate()
            .map(|(i, r)| router.route_append(r, i as u64))
            .sum::<usize>())
    })?;
    out.layer("shard.route_ns_per_row", t * 1e9 / n);
    Ok(())
}
