//! The sharded-path determinism contract: sharded build ≡ monolithic build
//! (page counts, per-leaf byte digests, measured size estimates, scans),
//! across shard counts × `Parallelism` modes × partitioning policies ×
//! 3 seeds.

use cadb_common::rng::rng_for;
use cadb_common::{ColumnId, DataType, MemoryBudget, Parallelism, Row, Value};
use cadb_compression::CompressionKind;
use cadb_shard::{BuildOptions, Partitioning, ShardSpec, ShardedIndex};
use cadb_storage::PhysicalIndex;
use proptest::prelude::*;
use rand::Rng;

const SEEDS: [u64; 3] = [11, 22, 33];
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];
const PAR_MODES: [Parallelism; 3] = [
    Parallelism::Serial,
    Parallelism::Auto,
    Parallelism::Threads(4),
];
const KINDS: [CompressionKind; 3] = [
    CompressionKind::None,
    CompressionKind::Page,
    CompressionKind::GlobalDict,
];

fn dtypes() -> Vec<DataType> {
    vec![DataType::Int, DataType::Char { len: 8 }, DataType::Int]
}

/// Unsorted, seeded rows with duplicate keys and a low-cardinality string.
fn gen_rows(seed: u64, n: usize, key_mod: i64) -> Vec<Row> {
    let mut rng = rng_for(seed, "shard-prop");
    (0..n)
        .map(|_| {
            Row::new(vec![
                Value::Int(rng.gen_range(0..key_mod.max(1))),
                Value::Str(format!("s{}", rng.gen_range(0..7u64))),
                Value::Int(rng.gen_range(-1000..1000)),
            ])
        })
        .collect()
}

/// FNV-1a digest over every leaf's encoded bytes — the byte-identity probe.
fn digest(ix: &PhysicalIndex) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for leaf in 0..ix.n_leaf_pages() {
        for &b in ix.leaf_bytes(leaf) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h ^= 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn globally_sorted(rows: &[Row], n_key: usize) -> Vec<Row> {
    let key: Vec<ColumnId> = (0..n_key as u16).map(ColumnId).collect();
    let mut sorted = rows.to_vec();
    sorted.sort_by(|a, b| a.key_cmp(b, &key).then_with(|| a.cmp(b)));
    sorted
}

proptest! {
    /// Sharded keyed build over *unsorted* input equals the monolithic
    /// `PhysicalIndex::build` over the globally sorted rows, byte for byte,
    /// for every shard count, partitioning policy and parallelism mode.
    #[test]
    fn sharded_build_equals_monolithic(
        n in 200usize..600,
        key_mod in 1i64..60,
        seed_ix in 0usize..SEEDS.len(),
    ) {
        let rows = gen_rows(SEEDS[seed_ix], n, key_mod);
        let dt = dtypes();
        for kind in KINDS {
            let mono = PhysicalIndex::build(&globally_sorted(&rows, 1), &dt, 1, kind).unwrap();
            let mono_digest = digest(&mono);
            let mono_scan = mono.scan().unwrap();
            for shards in SHARD_COUNTS {
                for partitioning in [Partitioning::Range, Partitioning::Hash] {
                    for par in PAR_MODES {
                        // One stripe ⇒ the monolithic packing exactly.
                        let opts = BuildOptions::default()
                            .with_parallelism(par)
                            .with_stripe_rows(usize::MAX);
                        let spec = ShardSpec { shards, partitioning };
                        let sharded =
                            ShardedIndex::build(&rows, &dt, 1, kind, spec, &opts).unwrap();
                        let ix = sharded.index();
                        prop_assert_eq!(ix.n_leaf_pages(), mono.n_leaf_pages());
                        prop_assert_eq!(digest(ix), mono_digest,
                            "digest mismatch: {} shards, {:?}, {:?}, {}",
                            shards, partitioning, par, kind);
                        prop_assert_eq!(ix.size_bytes(), mono.size_bytes());
                        prop_assert_eq!(ix.uncompressed_bytes(), mono.uncompressed_bytes());
                        // Sharded build's scan ≡ monolithic scan.
                        prop_assert_eq!(&ix.scan().unwrap(), &mono_scan);
                    }
                }
            }
        }
    }

    /// With a fixed multi-stripe grid, the built bytes are invariant to the
    /// shard count and parallelism mode (stripe grid, not shard layout,
    /// owns the page boundaries).
    #[test]
    fn stripe_grid_owns_page_boundaries(
        n in 300usize..700,
        stripe in 64usize..160,
        seed_ix in 0usize..SEEDS.len(),
    ) {
        let rows = gen_rows(SEEDS[seed_ix], n, 25);
        let dt = dtypes();
        let reference = ShardedIndex::build(
            &rows, &dt, 1, CompressionKind::Page,
            ShardSpec::range(1),
            &BuildOptions::default()
                .with_parallelism(Parallelism::Serial)
                .with_stripe_rows(stripe),
        ).unwrap();
        let want = digest(reference.index());
        prop_assert!(reference.index().n_leaf_pages() > 1);
        for shards in SHARD_COUNTS {
            for partitioning in [Partitioning::Range, Partitioning::Hash] {
                for par in PAR_MODES {
                    let got = ShardedIndex::build(
                        &rows, &dt, 1, CompressionKind::Page,
                        ShardSpec { shards, partitioning },
                        &BuildOptions::default()
                            .with_parallelism(par)
                            .with_stripe_rows(stripe),
                    ).unwrap();
                    prop_assert_eq!(digest(got.index()), want);
                }
            }
        }
    }

    /// Already-sorted input through the sharded path ≡ monolithic, and heap
    /// mode preserves input order for every shard count.
    #[test]
    fn presorted_and_heap_paths(
        n in 200usize..500,
        seed_ix in 0usize..SEEDS.len(),
    ) {
        let rows = gen_rows(SEEDS[seed_ix], n, 40);
        let dt = dtypes();
        let sorted = globally_sorted(&rows, 1);
        let opts = BuildOptions::default().with_stripe_rows(usize::MAX);
        let mono = PhysicalIndex::build(&sorted, &dt, 1, CompressionKind::Page).unwrap();
        let fast = ShardedIndex::build(
            &sorted, &dt, 1, CompressionKind::Page, ShardSpec::range(4), &opts).unwrap();
        prop_assert_eq!(digest(fast.index()), digest(&mono));
        // Heap: Range keeps arrival order; Hash is rejected.
        let heap = ShardedIndex::build(
            &rows, &dt, 0, CompressionKind::None, ShardSpec::range(4), &opts).unwrap();
        prop_assert_eq!(&heap.index().scan().unwrap(), &rows);
        prop_assert!(ShardedIndex::build(
            &rows, &dt, 0, CompressionKind::None, ShardSpec::hash(4), &opts).is_err());
    }
}

#[test]
fn budget_meters_and_rejects() {
    let rows = gen_rows(7, 2000, 50);
    let dt = dtypes();
    // A metering (unlimited) budget records a real peak.
    let budget = MemoryBudget::unlimited();
    let opts = BuildOptions::default()
        .with_stripe_rows(256)
        .with_budget(budget.clone());
    let built = ShardedIndex::build(
        &rows,
        &dt,
        1,
        CompressionKind::Page,
        ShardSpec::hash(4),
        &opts,
    )
    .unwrap();
    assert!(built.stats().peak_bytes > 0);
    assert_eq!(built.stats().peak_bytes, budget.peak_bytes());
    assert_eq!(built.stats().rows, 2000);
    assert!(built.stats().stripes >= 7);
    // All reservations are released once the build is done.
    assert_eq!(budget.current_bytes(), 0);

    // A hard limit far below the working set fails with a budget error.
    let tight = BuildOptions::default()
        .with_stripe_rows(256)
        .with_budget(MemoryBudget::limited(1024));
    let err = ShardedIndex::build(
        &rows,
        &dt,
        1,
        CompressionKind::Page,
        ShardSpec::hash(4),
        &tight,
    )
    .unwrap_err();
    assert_eq!(err.category(), "budget");
}
