//! Sharded B+Tree builds: partition → per-shard sort → deterministic merge
//! → [`PhysicalIndex::build_striped`], the one index build path.
//!
//! The invariant everything here defends: **the built bytes are a pure
//! function of `(rows, dtypes, n_key_cols, kind, stripe_rows)`** — never of
//! the shard count, the partitioning policy, or the [`Parallelism`] mode.
//! Two mechanisms make that hold:
//!
//! 1. Per-shard sorts and the k-way merge use one total order — key
//!    comparison, then whole-row comparison, then original position — so
//!    the merged permutation is the same global sort no matter how rows
//!    were routed to shards.
//! 2. Leaf-page boundaries and `GlobalDict` codes come from the striped
//!    build over the merged stream, not from shard boundaries.
//!
//! [`Parallelism`]: cadb_common::par::Parallelism

use crate::partition::{
    key_hash, rows_footprint, BuildOptions, BuildStats, Partitioning, ShardSpec,
};
use cadb_common::obs;
use cadb_common::par::try_par_map;
use cadb_common::{CadbError, ColumnId, DataType, Result, Row};
use cadb_compression::CompressionKind;
use cadb_storage::PhysicalIndex;

/// A B+Tree index built through the sharded out-of-core pipeline. The
/// finished structure is a plain [`PhysicalIndex`] — executors, planners
/// and the actuals harness consume it unchanged — plus the build's
/// [`BuildStats`].
#[derive(Debug)]
pub struct ShardedIndex {
    index: PhysicalIndex,
    stats: BuildStats,
}

impl ShardedIndex {
    /// Build from **unsorted** input: route rows to shards per `spec`, sort
    /// each shard on a worker, k-way merge the runs, and build the merged
    /// stream with [`PhysicalIndex::build_striped`] under `opts`.
    /// Bit-identical for every shard count, partitioning policy and
    /// [`cadb_common::par::Parallelism`] mode (given equal
    /// `opts.stripe_rows`); with a single stripe it is bit-identical to
    /// [`PhysicalIndex::build`] over the sorted rows. A heap
    /// (`n_key_cols == 0`) keeps the input order and needs Range
    /// partitioning.
    pub fn build(
        rows: &[Row],
        dtypes: &[DataType],
        n_key_cols: usize,
        kind: CompressionKind,
        spec: ShardSpec,
        opts: &BuildOptions,
    ) -> Result<Self> {
        let _span = obs::span("shard.build");
        let budget = &opts.budget;
        let build = |rows: &[Row]| {
            PhysicalIndex::build_striped(
                rows,
                dtypes,
                n_key_cols,
                kind,
                opts.stripe_rows,
                opts.parallelism,
                budget,
            )
        };
        let (shards, index) = if n_key_cols == 0 {
            if spec.partitioning == Partitioning::Hash {
                return Err(CadbError::InvalidArgument(
                    "heap (0 key columns) requires Range partitioning: input order is the layout"
                        .into(),
                ));
            }
            // A heap's layout is the input order — no sort, no merge.
            (spec.shards.max(1), build(rows)?)
        } else {
            let shards = spec.shards.clamp(1, rows.len().max(1));
            let order = merged_order(rows, n_key_cols, spec.partitioning, shards, opts)?;
            // Materialize the merged stream and build it.
            let _merged_ws = budget.try_reserve(rows_footprint(rows))?;
            let merged: Vec<Row> = order.into_iter().map(|i| rows[i].clone()).collect();
            (shards, build(&merged)?)
        };
        let stats = BuildStats {
            shards,
            stripes: rows.len().div_ceil(opts.stripe_rows.max(1)),
            rows: rows.len(),
            peak_bytes: budget.peak_bytes(),
        };
        stats.publish();
        Ok(ShardedIndex { index, stats })
    }

    /// The finished physical structure.
    pub fn index(&self) -> &PhysicalIndex {
        &self.index
    }

    /// Consume into the finished physical structure.
    pub fn into_index(self) -> PhysicalIndex {
        self.index
    }

    /// Counters of the build that produced this index.
    pub fn stats(&self) -> &BuildStats {
        &self.stats
    }
}

/// Positions of `rows` in the one global sort, found by routing them to
/// `shards` shards, sorting each shard on a worker (charging `opts.budget`
/// for the shard's index working set) and k-way merging the runs.
fn merged_order(
    rows: &[Row],
    n_key_cols: usize,
    partitioning: Partitioning,
    shards: usize,
    opts: &BuildOptions,
) -> Result<Vec<usize>> {
    let key_cols: Vec<ColumnId> = (0..n_key_cols as u16).map(ColumnId).collect();
    // Route each position to its shard.
    let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); shards];
    match partitioning {
        Partitioning::Range => {
            for (s, chunk_assigned) in assigned.iter_mut().enumerate() {
                let lo = rows.len() * s / shards;
                let hi = rows.len() * (s + 1) / shards;
                chunk_assigned.extend(lo..hi);
            }
        }
        Partitioning::Hash => {
            for (i, r) in rows.iter().enumerate() {
                assigned[(key_hash(r, n_key_cols) % shards as u64) as usize].push(i);
            }
        }
    }

    // Per-shard sort by the shared total order.
    let total = |a: usize, b: usize| {
        rows[a]
            .key_cmp(&rows[b], &key_cols)
            .then_with(|| rows[a].cmp(&rows[b]))
            .then(a.cmp(&b))
    };
    let sort_span = obs::span("shard.sort_shards");
    let runs: Vec<Vec<usize>> = try_par_map(opts.parallelism, &assigned, |_, idxs| {
        let _ws = opts
            .budget
            .try_reserve(idxs.len() * std::mem::size_of::<usize>())?;
        let mut run = idxs.clone();
        run.sort_unstable_by(|&a, &b| total(a, b));
        Ok::<Vec<usize>, CadbError>(run)
    })?;
    drop(sort_span);

    // K-way merge: always pick the globally least (row, position). The
    // result is exactly the one global sort, whatever the routing was.
    let _span = obs::span("shard.merge");
    let mut heads = vec![0usize; runs.len()];
    let mut merged = Vec::with_capacity(rows.len());
    loop {
        let mut best: Option<(usize, usize)> = None; // (shard, idx)
        for (s, run) in runs.iter().enumerate() {
            if let Some(&i) = run.get(heads[s]) {
                best = match best {
                    Some((_, bi)) if total(i, bi) != std::cmp::Ordering::Less => best,
                    _ => Some((s, i)),
                };
            }
        }
        match best {
            Some((s, i)) => {
                heads[s] += 1;
                merged.push(i);
            }
            None => return Ok(merged),
        }
    }
}
