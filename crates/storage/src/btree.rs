//! B+Tree physical indexes over compressed leaf pages.
//!
//! An index is bulk-built from a sorted row stream: rows are packed into
//! compressed leaf pages (via `cadb-compression`), then internal levels of
//! separator keys are stacked until a single root fits. Leaves stay encoded
//! in memory; every read path decodes the page it touches, so scans over
//! compressed indexes really pay decompression CPU.
//!
//! There is one build path. [`PhysicalIndex::build_striped`] cuts the input
//! into stripes, encodes each (the only call of `pack_pages` for an index)
//! and assembles the leaves; [`PhysicalIndex::build`] is its one-stripe
//! case. A heap is an index with zero key columns: any input order is
//! accepted and scans return the rows in input order.
//!
//! Internal pages are charged to the index size using a fixed fanout-based
//! accounting, matching how a real engine's non-leaf levels add a small
//! (<1 %) overhead on top of the leaf level.

use cadb_common::par::{try_par_map, Parallelism};
use cadb_common::{
    obs, rows_footprint, CadbError, ColumnId, DataType, MemoryBudget, Reservation, Result, Row,
    Value,
};
use cadb_compression::analyze::{build_dictionaries, pack_pages, PAGE_SIZE};
use cadb_compression::bytesrepr::value_from_bytes;
use cadb_compression::page::{decode_column, decode_page, EncodedPage, PageContext};
use cadb_compression::{CompressionKind, GlobalDictionary};
use std::cmp::Ordering;

/// Fanout of internal (separator) nodes.
const INTERNAL_FANOUT: usize = 256;

/// A bulk-built, immutable B+Tree index (or heap when `n_key_cols == 0`).
#[derive(Debug, Clone)]
pub struct PhysicalIndex {
    dtypes: Vec<DataType>,
    n_key_cols: usize,
    kind: CompressionKind,
    /// Encoded leaf pages, in key order.
    leaves: Vec<EncodedPage>,
    /// First key (key-column projection) of each leaf.
    leaf_low_keys: Vec<Row>,
    /// Number of internal pages across all levels.
    internal_pages: usize,
    /// Global dictionaries (only for `GlobalDict`).
    dicts: Option<Vec<GlobalDictionary>>,
    n_rows: usize,
    compressed_bytes: usize,
    uncompressed_bytes: usize,
    /// Rows living in leaf patch sections (see [`Self::append_rows`]),
    /// not yet folded into clean page encodings by a fresh build.
    patched_rows: usize,
}

impl PhysicalIndex {
    /// Bulk-build an index from rows **already sorted** on the first
    /// `n_key_cols` columns. `dtypes` describes the stored columns (key
    /// columns first, then included columns). The one-stripe case of
    /// [`Self::build_striped`], byte for byte.
    pub fn build(
        rows: &[Row],
        dtypes: &[DataType],
        n_key_cols: usize,
        kind: CompressionKind,
    ) -> Result<Self> {
        let dicts = whole_input_dicts(rows, dtypes, kind);
        let stripe = encode_stripe(rows, dtypes, n_key_cols, kind, dicts.as_deref())?;
        Self::from_stripes(vec![stripe], dtypes, n_key_cols, kind, dicts)
    }

    /// Striped bulk build — the index build every out-of-core and parallel
    /// caller goes through: cut the sorted input into `stripe_rows`-row
    /// stripes, encode them on a worker pool, and assemble. With a single
    /// stripe (`stripe_rows >= rows.len()`) the result is **byte-identical**
    /// to [`Self::build`]; with any fixed stripe size the result is a pure
    /// function of `(rows, stripe_rows)` — identical for every
    /// [`Parallelism`] mode and for every upstream sharding whose shard
    /// boundaries align to the stripe grid.
    ///
    /// `budget` is charged for each stripe's raw rows while it encodes and
    /// for its encoded pages until the index is assembled; a hard limit
    /// fails the build with a budget error instead of overrunning it.
    pub fn build_striped(
        rows: &[Row],
        dtypes: &[DataType],
        n_key_cols: usize,
        kind: CompressionKind,
        stripe_rows: usize,
        par: Parallelism,
        budget: &MemoryBudget,
    ) -> Result<Self> {
        let _span = obs::span("storage.build_striped");
        let dicts = whole_input_dicts(rows, dtypes, kind);
        let chunks: Vec<&[Row]> = rows.chunks(stripe_rows.max(1)).collect();
        let encoded = try_par_map(par, &chunks, |_, chunk| {
            let raw = budget.try_reserve(rows_footprint(chunk))?;
            let stripe = encode_stripe(chunk, dtypes, n_key_cols, kind, dicts.as_deref())?;
            drop(raw);
            let held = budget.try_reserve(stripe.encoded_bytes())?;
            Ok::<_, CadbError>((stripe, held))
        })?;
        let (stripes, held): (Vec<StripePages>, Vec<Reservation>) = encoded.into_iter().unzip();
        let index = Self::from_stripes(stripes, dtypes, n_key_cols, kind, dicts);
        drop(held);
        index
    }

    /// Assemble an index from stripes encoded by [`encode_stripe`], in
    /// global key order. Validates that consecutive stripes do not overlap
    /// in key space (which, combined with the per-stripe sort check,
    /// establishes whole-input sortedness), then concatenates leaves and
    /// stacks the internal levels.
    fn from_stripes(
        stripes: Vec<StripePages>,
        dtypes: &[DataType],
        n_key_cols: usize,
        kind: CompressionKind,
        dicts: Option<Vec<GlobalDictionary>>,
    ) -> Result<Self> {
        let key_cols: Vec<ColumnId> = (0..n_key_cols as u16).map(ColumnId).collect();
        let mut prev_last: Option<&Row> = None;
        for s in &stripes {
            if let (Some(prev), Some(first)) = (prev_last, s.first_key.as_ref()) {
                if prev.key_cmp(first, &key_cols) == Ordering::Greater {
                    return Err(CadbError::InvalidArgument(
                        "stripes are not in global key order".into(),
                    ));
                }
            }
            if s.last_key.is_some() {
                prev_last = s.last_key.as_ref();
            }
        }
        let mut leaves = Vec::with_capacity(stripes.iter().map(|s| s.leaves.len()).sum());
        let mut leaf_low_keys = Vec::with_capacity(leaves.capacity());
        let mut n_rows = 0usize;
        for s in stripes {
            n_rows += s.n_rows;
            leaves.extend(s.leaves);
            leaf_low_keys.extend(s.low_keys);
        }
        let mut internal_pages = 0usize;
        let mut level = leaves.len();
        while level > 1 {
            level = level.div_ceil(INTERNAL_FANOUT);
            internal_pages += level;
        }
        let dict_bytes: usize = dicts
            .as_deref()
            .map(|ds| ds.iter().map(GlobalDictionary::storage_bytes).sum())
            .unwrap_or(0);
        let leaf_bytes: usize = leaves.iter().map(|p| p.bytes.len()).sum();
        let uncompressed: usize = leaves.iter().map(|p| p.uncompressed_bytes).sum();
        Ok(PhysicalIndex {
            dtypes: dtypes.to_vec(),
            n_key_cols,
            kind,
            leaf_low_keys,
            internal_pages,
            dicts,
            n_rows,
            compressed_bytes: leaf_bytes + dict_bytes + internal_pages * PAGE_SIZE,
            uncompressed_bytes: uncompressed,
            patched_rows: 0,
            leaves,
        })
    }

    /// Compression method of this index.
    pub fn kind(&self) -> CompressionKind {
        self.kind
    }

    /// Stored column types (keys first).
    pub fn dtypes(&self) -> &[DataType] {
        &self.dtypes
    }

    /// Number of key columns.
    pub fn n_key_cols(&self) -> usize {
        self.n_key_cols
    }

    /// Total rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Leaf page count.
    pub fn n_leaf_pages(&self) -> usize {
        self.leaves.len()
    }

    /// The raw encoded bytes of one leaf page (patch section included) —
    /// what a byte-level artifact digest hashes.
    pub fn leaf_bytes(&self, leaf: usize) -> &[u8] {
        &self.leaves[leaf].bytes
    }

    /// Total size in bytes (leaf payloads + dictionaries + internal pages).
    pub fn size_bytes(&self) -> usize {
        self.compressed_bytes
    }

    /// Uncompressed footprint of the same rows in bytes.
    pub fn uncompressed_bytes(&self) -> usize {
        self.uncompressed_bytes
    }

    /// Measured compression fraction of the leaf level.
    pub fn compression_fraction(&self) -> f64 {
        if self.uncompressed_bytes == 0 {
            1.0
        } else {
            (self.compressed_bytes - self.internal_pages * PAGE_SIZE) as f64
                / self.uncompressed_bytes as f64
        }
    }

    fn ctx(&self) -> PageContext<'_> {
        PageContext {
            dtypes: &self.dtypes,
            kind: self.kind,
            global_dicts: self.dicts.as_deref(),
        }
    }

    /// The page-codec context of this index (column types, method,
    /// dictionaries) — everything needed to interpret the encoded leaf
    /// bytes a [`PageCursor`] yields.
    pub fn page_context(&self) -> PageContext<'_> {
        self.ctx()
    }

    /// Cursor over the **encoded** leaf pages in key order, without
    /// decoding anything. This is the entry point for executors that
    /// operate directly on compressed pages (see `cadb-exec`); pair each
    /// leaf with [`Self::page_context`] to interpret it.
    pub fn page_cursor(&self) -> PageCursor<'_> {
        PageCursor {
            leaves: &self.leaves,
            offset: 0,
            next: 0,
        }
    }

    /// Cursor over only the encoded leaves that can contain rows inside the
    /// inclusive key-prefix interval `[lo, hi]` — the **seek** entry point
    /// for executors: instead of walking every leaf, descend (binary search
    /// over leaf low keys) to the first leaf that may hold `lo` and stop at
    /// the first leaf whose low key exceeds `hi`.
    ///
    /// Every row matching the interval is guaranteed to live in a yielded
    /// leaf; yielded boundary leaves may also hold rows *outside* the
    /// interval, so callers re-apply their predicates to the rows they
    /// decode (which the executor does anyway). Leaf ordinals are preserved
    /// — `LeafPage::ordinal` still refers to the whole index's leaf order,
    /// so partial-scan results merge deterministically with full scans.
    ///
    /// The leading boundary leaf is additionally trimmed by decoding only
    /// its **last row's key columns** through a one-position column decode
    /// ([`Self::leaf_last_key`]); when that single row already falls below
    /// `lo`, the leaf cannot contain a match and is skipped without
    /// touching the rest of its payload. The trim is
    /// best-effort: any decode irregularity (e.g. NULLs in key columns)
    /// conservatively keeps the leaf.
    pub fn page_cursor_range(&self, lo: Option<&[Value]>, hi: Option<&[Value]>) -> PageCursor<'_> {
        if self.leaves.is_empty() {
            return self.page_cursor();
        }
        let mut start = match lo {
            Some(k) if !k.is_empty() => self.locate_leaf(k),
            _ => 0,
        };
        let end = match hi {
            Some(k) if !k.is_empty() => {
                let cols: Vec<ColumnId> = (0..k.len().min(self.n_key_cols) as u16)
                    .map(ColumnId)
                    .collect();
                let probe = Row::new(k.to_vec());
                // First leaf whose low key is strictly greater than `hi`:
                // every row at or after it exceeds the interval.
                self.leaf_low_keys
                    .partition_point(|low| low.key_cmp(&probe, &cols) != Ordering::Greater)
            }
            _ => self.leaves.len(),
        };
        let end = end.max(start);
        // Boundary trim: the descent lands one leaf early whenever a run of
        // `lo` could spill backwards; check that leaf's last key cheaply.
        if let Some(k) = lo.filter(|k| !k.is_empty()) {
            if start < end {
                if let Ok(Some(last)) = self.leaf_last_key(start, k.len()) {
                    let cols: Vec<ColumnId> = (0..k.len().min(self.n_key_cols) as u16)
                        .map(ColumnId)
                        .collect();
                    if last.key_cmp(&Row::new(k.to_vec()), &cols) == Ordering::Less {
                        start += 1;
                    }
                }
            }
        }
        PageCursor {
            leaves: &self.leaves[start..end],
            offset: start,
            next: 0,
        }
    }

    /// The last row's leading `prefix_len` key columns of one leaf, decoded
    /// one position per key column (`decode_column` over `n-1..n`) instead
    /// of the whole page. Returns `Ok(None)` when the leaf is empty or a key
    /// column holds NULLs (the positions of the non-null value stream then
    /// stop aligning with row positions, so the caller must not draw
    /// conclusions from it).
    pub fn leaf_last_key(&self, leaf: usize, prefix_len: usize) -> Result<Option<Row>> {
        let ctx = self.ctx();
        let (n, sections) = cadb_compression::column_sections(&self.leaves[leaf].bytes)?;
        if n == 0 {
            return Ok(None);
        }
        let n_cols = prefix_len.min(self.n_key_cols);
        let mut vals = Vec::with_capacity(n_cols);
        for (c, (sec, dtype)) in sections.iter().zip(&self.dtypes).enumerate().take(n_cols) {
            if sec.n_non_null(n) != n {
                return Ok(None); // NULL in a key column: stay conservative
            }
            // `decode_column` returns exactly the one requested value.
            let to_value = |b: Vec<u8>| value_from_bytes(&b, dtype);
            let last = decode_column(sec.block, sec.tag, dtype, &ctx, c, n, n - 1..n, to_value)?;
            vals.extend(last.expand()?);
        }
        Ok(Some(Row::new(vals)))
    }

    /// Decode and return all rows of one leaf page, patch-aware: rows
    /// appended via [`Self::append_rows`] are merged back into key order
    /// (stable — originally packed rows sort before equal-keyed appends).
    pub fn decode_leaf(&self, leaf: usize) -> Result<Vec<Row>> {
        let (base, patch) = cadb_compression::split_patch(&self.leaves[leaf].bytes)?;
        let mut rows = decode_page(base, &self.ctx())?;
        if !patch.is_empty() {
            let key: Vec<ColumnId> = (0..self.n_key_cols as u16).map(ColumnId).collect();
            let mut extra = patch;
            extra.sort_by(|a, b| a.key_cmp(b, &key));
            let mut merged = Vec::with_capacity(rows.len() + extra.len());
            let mut it = extra.into_iter().peekable();
            for r in rows.drain(..) {
                while let Some(e) = it.next_if(|e| e.key_cmp(&r, &key) == Ordering::Less) {
                    merged.push(e);
                }
                merged.push(r);
            }
            merged.extend(it);
            rows = merged;
        }
        Ok(rows)
    }

    /// Full scan: decode every leaf in key order.
    pub fn scan(&self) -> Result<Vec<Row>> {
        let mut out = Vec::with_capacity(self.n_rows);
        for i in 0..self.leaves.len() {
            out.extend(self.decode_leaf(i)?);
        }
        Ok(out)
    }

    /// Index of the first leaf that may contain `key` (a prefix of the key
    /// columns), found by binary search over leaf low keys — the B+Tree
    /// descent.
    fn locate_leaf(&self, key: &[Value]) -> usize {
        let cols: Vec<ColumnId> = (0..key.len().min(self.n_key_cols) as u16)
            .map(ColumnId)
            .collect();
        let probe = Row::new(key.to_vec());
        // First leaf whose low key is ≥ probe, minus one: a run of rows
        // equal to the probe can begin at the tail of the previous leaf
        // (whose low key is strictly smaller).
        let pp = self
            .leaf_low_keys
            .partition_point(|low| low.key_cmp(&probe, &cols) == Ordering::Less);
        pp.saturating_sub(1)
    }

    /// Range scan over a key-prefix interval `[lo, hi]` (inclusive, either
    /// side optional). Returns matching rows and the number of leaf pages
    /// touched (the real I/O).
    pub fn range_scan(
        &self,
        lo: Option<&[Value]>,
        hi: Option<&[Value]>,
    ) -> Result<(Vec<Row>, usize)> {
        if self.leaves.is_empty() {
            return Ok((Vec::new(), 0));
        }
        let start = match lo {
            Some(k) => self.locate_leaf(k),
            None => 0,
        };
        let mut out = Vec::new();
        let mut pages = 0usize;
        'outer: for i in start..self.leaves.len() {
            let rows = self.decode_leaf(i)?;
            pages += 1;
            for r in rows {
                if let Some(l) = lo {
                    let cols: Vec<ColumnId> = (0..l.len().min(self.n_key_cols) as u16)
                        .map(ColumnId)
                        .collect();
                    if r.key_cmp(&Row::new(l.to_vec()), &cols) == Ordering::Less {
                        continue;
                    }
                }
                if let Some(h) = hi {
                    let cols: Vec<ColumnId> = (0..h.len().min(self.n_key_cols) as u16)
                        .map(ColumnId)
                        .collect();
                    if r.key_cmp(&Row::new(h.to_vec()), &cols) == Ordering::Greater {
                        break 'outer;
                    }
                }
                out.push(r);
            }
        }
        Ok((out, pages))
    }

    /// Point lookup on a full or prefix key.
    pub fn seek(&self, key: &[Value]) -> Result<Vec<Row>> {
        Ok(self.range_scan(Some(key), Some(key))?.0)
    }

    /// Rows appended via patch sections and not yet folded into clean
    /// page encodings. While this is non-zero, the decode paths
    /// ([`Self::scan`], [`Self::decode_leaf`], [`Self::range_scan`],
    /// [`Self::seek`]) see every row, but the raw-page cursors the
    /// vectorized executor walks ([`Self::page_cursor`]) do **not** — a
    /// patched index must be rebuilt from its rows ([`Self::build`]) before
    /// being handed back to compressed execution.
    pub fn patched_rows(&self) -> usize {
        self.patched_rows
    }

    /// Append rows by patching the leaf each row's key routes to — the
    /// incremental write path a checkpoint uses to fold committed deltas
    /// into compressed structures without re-encoding every page. Cost is
    /// O(rows appended), not O(index size). Returns the number of leaves
    /// patched. Rows must have the index's stored arity; key order within
    /// `rows` is not required.
    pub fn append_rows(&mut self, rows: &[Row]) -> Result<usize> {
        if rows.is_empty() {
            return Ok(0);
        }
        for r in rows {
            if r.arity() != self.dtypes.len() {
                return Err(CadbError::Schema(format!(
                    "append arity {} != stored arity {}",
                    r.arity(),
                    self.dtypes.len()
                )));
            }
        }
        if self.leaves.is_empty() {
            // Degenerate empty index: bulk-build from scratch.
            let key: Vec<ColumnId> = (0..self.n_key_cols as u16).map(ColumnId).collect();
            let mut sorted = rows.to_vec();
            sorted.sort_by(|a, b| a.key_cmp(b, &key));
            *self = PhysicalIndex::build(&sorted, &self.dtypes, self.n_key_cols, self.kind)?;
            return Ok(self.leaves.len());
        }
        // Route each row to its target leaf: the B+Tree descent for keyed
        // indexes, the last (append) leaf for heaps.
        let mut by_leaf: std::collections::BTreeMap<usize, Vec<Row>> =
            std::collections::BTreeMap::new();
        for r in rows {
            let leaf = if self.n_key_cols == 0 {
                self.leaves.len() - 1
            } else {
                let key: Vec<Value> = r.values[..self.n_key_cols].to_vec();
                self.locate_leaf(&key)
            };
            by_leaf.entry(leaf).or_default().push(r.clone());
        }
        let n_patched = by_leaf.len();
        for (leaf, group) in by_leaf {
            let before = self.leaves[leaf].bytes.len();
            cadb_compression::append_patch(&mut self.leaves[leaf].bytes, &group)?;
            let added = self.leaves[leaf].bytes.len() - before;
            self.leaves[leaf].n_rows += group.len();
            // Patch rows are stored uncompressed; account the growth on
            // both sides so the measured compression fraction stays honest.
            self.leaves[leaf].uncompressed_bytes += added;
            self.compressed_bytes += added;
            self.uncompressed_bytes += added;
            self.n_rows += group.len();
            self.patched_rows += group.len();
        }
        Ok(n_patched)
    }
}

/// Global dictionaries over the **whole** input for
/// [`CompressionKind::GlobalDict`] (first-seen interning order), so every
/// stripe encodes with the same codes no matter how the input is cut.
fn whole_input_dicts(
    rows: &[Row],
    dtypes: &[DataType],
    kind: CompressionKind,
) -> Option<Vec<GlobalDictionary>> {
    (kind == CompressionKind::GlobalDict).then(|| build_dictionaries(rows, dtypes))
}

/// Encode one **stripe**: pack a contiguous, key-sorted slice of the global
/// row stream into leaf pages — the only place an index calls
/// [`pack_pages`]. Pure and `Sync`-friendly, so stripes encode on a worker
/// pool. Page boundaries restart at each stripe, so an index is a pure
/// function of its stripe grid.
fn encode_stripe(
    rows: &[Row],
    dtypes: &[DataType],
    n_key_cols: usize,
    kind: CompressionKind,
    dicts: Option<&[GlobalDictionary]>,
) -> Result<StripePages> {
    if n_key_cols > dtypes.len() {
        return Err(CadbError::InvalidArgument(format!(
            "{n_key_cols} key columns but only {} stored columns",
            dtypes.len()
        )));
    }
    if kind == CompressionKind::GlobalDict && dicts.is_none() {
        return Err(CadbError::InvalidArgument(
            "GlobalDict stripe encode requires whole-input dictionaries".into(),
        ));
    }
    let key_cols: Vec<ColumnId> = (0..n_key_cols as u16).map(ColumnId).collect();
    for w in rows.windows(2) {
        if w[0].key_cmp(&w[1], &key_cols) == Ordering::Greater {
            return Err(CadbError::InvalidArgument(
                "index build requires key-sorted input".into(),
            ));
        }
    }
    let ctx = PageContext {
        dtypes,
        kind,
        global_dicts: dicts,
    };
    let leaves = pack_pages(rows, &ctx)?;
    // First key of each leaf, recovered from row offsets.
    let mut low_keys = Vec::with_capacity(leaves.len());
    let mut off = 0usize;
    for leaf in &leaves {
        if leaf.n_rows > 0 {
            low_keys.push(rows[off].project(&key_cols));
        } else {
            low_keys.push(Row::new(vec![]));
        }
        off += leaf.n_rows;
    }
    Ok(StripePages {
        first_key: rows.first().map(|r| r.project(&key_cols)),
        last_key: rows.last().map(|r| r.project(&key_cols)),
        n_rows: rows.len(),
        leaves,
        low_keys,
    })
}

/// Leaf pages of one stripe of a bulk build — the unit of parallel work
/// produced by [`encode_stripe`] and consumed by
/// [`PhysicalIndex::from_stripes`].
#[derive(Debug)]
struct StripePages {
    leaves: Vec<EncodedPage>,
    low_keys: Vec<Row>,
    n_rows: usize,
    /// Key projection of the stripe's first / last row (None when empty),
    /// used to validate global key order when stripes are assembled.
    first_key: Option<Row>,
    last_key: Option<Row>,
}

impl StripePages {
    /// Encoded payload bytes of this stripe's leaves — what a memory
    /// budget charges for holding the stripe resident.
    fn encoded_bytes(&self) -> usize {
        self.leaves.iter().map(|p| p.bytes.len()).sum()
    }
}

/// Borrowed view of one encoded leaf page, yielded by
/// [`PhysicalIndex::page_cursor`].
#[derive(Debug, Clone, Copy)]
pub struct LeafPage<'a> {
    /// Leaf ordinal within the index (key order).
    pub ordinal: usize,
    /// The encoded page bytes (interpret with
    /// [`PhysicalIndex::page_context`]).
    pub bytes: &'a [u8],
    /// Rows stored in this leaf.
    pub n_rows: usize,
}

/// Iterator over an index's encoded leaves in key order, without decoding.
/// Produced by [`PhysicalIndex::page_cursor`] (all leaves) and
/// [`PhysicalIndex::page_cursor_range`] (a key-range slice; ordinals keep
/// referring to the whole index's leaf order).
#[derive(Debug, Clone)]
pub struct PageCursor<'a> {
    leaves: &'a [EncodedPage],
    /// Ordinal of `leaves[0]` within the whole index.
    offset: usize,
    next: usize,
}

impl<'a> Iterator for PageCursor<'a> {
    type Item = LeafPage<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        let leaf = self.leaves.get(self.next)?;
        let ordinal = self.offset + self.next;
        self.next += 1;
        Some(LeafPage {
            ordinal,
            bytes: &leaf.bytes,
            n_rows: leaf.n_rows,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.leaves.len() - self.next;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for PageCursor<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn dtypes() -> Vec<DataType> {
        vec![DataType::Int, DataType::Char { len: 8 }, DataType::Int]
    }

    fn sorted_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int((i / 4) as i64),
                    Value::Str(format!("v{}", i % 9)),
                    Value::Int(i as i64),
                ])
            })
            .collect()
    }

    #[test]
    fn build_and_scan_round_trips() {
        let rows = sorted_rows(3000);
        for kind in [
            CompressionKind::None,
            CompressionKind::Page,
            CompressionKind::GlobalDict,
        ] {
            let ix = PhysicalIndex::build(&rows, &dtypes(), 1, kind).unwrap();
            assert_eq!(ix.scan().unwrap(), rows, "{kind}");
            assert_eq!(ix.n_rows(), 3000);
            assert!(ix.n_leaf_pages() > 1);
        }
    }

    #[test]
    fn unsorted_input_rejected() {
        let mut rows = sorted_rows(10);
        rows.swap(0, 9);
        assert!(PhysicalIndex::build(&rows, &dtypes(), 1, CompressionKind::None).is_err());
    }

    #[test]
    fn seek_finds_all_matches() {
        let rows = sorted_rows(2000);
        let ix = PhysicalIndex::build(&rows, &dtypes(), 1, CompressionKind::Page).unwrap();
        let hits = ix.seek(&[Value::Int(100)]).unwrap();
        assert_eq!(hits.len(), 4);
        for h in &hits {
            assert_eq!(h.values[0], Value::Int(100));
        }
        assert!(ix.seek(&[Value::Int(9999)]).unwrap().is_empty());
    }

    #[test]
    fn range_scan_bounds_and_page_count() {
        let rows = sorted_rows(4000);
        let ix = PhysicalIndex::build(&rows, &dtypes(), 1, CompressionKind::Row).unwrap();
        let (hits, pages_narrow) = ix
            .range_scan(Some(&[Value::Int(10)]), Some(&[Value::Int(19)]))
            .unwrap();
        assert_eq!(hits.len(), 40);
        let (_, pages_full) = ix.range_scan(None, None).unwrap();
        assert!(pages_narrow < pages_full);
        assert_eq!(pages_full, ix.n_leaf_pages());
    }

    #[test]
    fn compressed_smaller_than_plain() {
        let rows = sorted_rows(5000);
        let plain = PhysicalIndex::build(&rows, &dtypes(), 1, CompressionKind::None).unwrap();
        let page = PhysicalIndex::build(&rows, &dtypes(), 1, CompressionKind::Page).unwrap();
        assert!(page.size_bytes() < plain.size_bytes());
        assert!(page.compression_fraction() < 1.0);
        assert!(page.n_leaf_pages() < plain.n_leaf_pages());
    }

    #[test]
    fn composite_key_seek() {
        let mut rows: Vec<Row> = (0..500)
            .map(|i| {
                Row::new(vec![
                    Value::Int((i % 5) as i64),
                    Value::Str(format!("k{}", i % 3)),
                    Value::Int(i as i64),
                ])
            })
            .collect();
        rows.sort();
        let ix = PhysicalIndex::build(&rows, &dtypes(), 2, CompressionKind::Row).unwrap();
        let hits = ix.seek(&[Value::Int(2), Value::Str("k1".into())]).unwrap();
        assert!(!hits.is_empty());
        for h in &hits {
            assert_eq!(h.values[0], Value::Int(2));
            assert_eq!(h.values[1], Value::Str("k1".into()));
        }
        // Prefix seek on the first key column only.
        let prefix = ix.seek(&[Value::Int(2)]).unwrap();
        assert_eq!(prefix.len(), 100);
    }

    #[test]
    fn empty_index() {
        let ix = PhysicalIndex::build(&[], &dtypes(), 1, CompressionKind::Row).unwrap();
        assert_eq!(ix.n_rows(), 0);
        assert!(ix.scan().unwrap().is_empty());
        assert!(ix.seek(&[Value::Int(1)]).unwrap().is_empty());
    }

    /// Deliberately unsorted two-column rows for zero-key (heap) builds.
    fn heap_rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int(((n - i) % 37) as i64),
                    Value::Str(format!("pay{}", i % 5)),
                ])
            })
            .collect()
    }

    fn heap_dtypes() -> Vec<DataType> {
        vec![DataType::Int, DataType::Char { len: 10 }]
    }

    #[test]
    fn heap_mode_no_key_cols() {
        // n_key_cols = 0 accepts any order (a heap).
        let mut rows = sorted_rows(100);
        rows.reverse();
        let ix = PhysicalIndex::build(&rows, &dtypes(), 0, CompressionKind::Row).unwrap();
        assert_eq!(ix.scan().unwrap(), rows);
    }

    #[test]
    fn heap_preserves_insertion_order() {
        let rs = heap_rows(2500);
        let h = PhysicalIndex::build(&rs, &heap_dtypes(), 0, CompressionKind::Row).unwrap();
        assert_eq!(h.scan().unwrap(), rs);
        assert_eq!(h.n_rows(), 2500);
        assert!(h.n_leaf_pages() >= 1);
    }

    #[test]
    fn compressed_heap_is_smaller() {
        let rs = heap_rows(4000);
        let plain = PhysicalIndex::build(&rs, &heap_dtypes(), 0, CompressionKind::None).unwrap();
        let comp = PhysicalIndex::build(&rs, &heap_dtypes(), 0, CompressionKind::Page).unwrap();
        assert!(comp.size_bytes() < plain.size_bytes());
        assert!(comp.compression_fraction() < 1.0);
        assert_eq!(comp.kind(), CompressionKind::Page);
    }

    #[test]
    fn page_cursor_walks_every_leaf_without_decoding() {
        let rows = sorted_rows(3000);
        let ix = PhysicalIndex::build(&rows, &dtypes(), 1, CompressionKind::Rle).unwrap();
        let cursor = ix.page_cursor();
        assert_eq!(cursor.len(), ix.n_leaf_pages());
        let mut total_rows = 0usize;
        for (i, leaf) in ix.page_cursor().enumerate() {
            assert_eq!(leaf.ordinal, i);
            total_rows += leaf.n_rows;
            // The raw bytes decode to exactly the rows decode_leaf reports.
            let decoded = cadb_compression::decode_page(leaf.bytes, &ix.page_context()).unwrap();
            assert_eq!(decoded, ix.decode_leaf(i).unwrap());
        }
        assert_eq!(total_rows, ix.n_rows());
    }

    #[test]
    fn page_cursor_range_covers_exactly_the_matching_leaves() {
        let rows = sorted_rows(4000);
        for kind in [
            CompressionKind::None,
            CompressionKind::Row,
            CompressionKind::Page,
            CompressionKind::Rle,
        ] {
            let ix = PhysicalIndex::build(&rows, &dtypes(), 1, kind).unwrap();
            let lo = [Value::Int(100)];
            let hi = [Value::Int(180)];
            let cursor = ix.page_cursor_range(Some(&lo), Some(&hi));
            let ranged: Vec<LeafPage<'_>> = cursor.collect();
            assert!(!ranged.is_empty());
            assert!(
                ranged.len() < ix.n_leaf_pages(),
                "{kind}: seek touched every leaf"
            );
            // Ordinals are contiguous and refer to whole-index leaf order.
            for w in ranged.windows(2) {
                assert_eq!(w[0].ordinal + 1, w[1].ordinal);
            }
            // Every row in [lo, hi] lives inside the yielded leaves.
            let mut in_range = 0usize;
            for leaf in &ranged {
                for r in cadb_compression::decode_page(leaf.bytes, &ix.page_context()).unwrap() {
                    if r.values[0] >= lo[0] && r.values[0] <= hi[0] {
                        in_range += 1;
                    }
                }
            }
            let truth = rows
                .iter()
                .filter(|r| r.values[0] >= lo[0] && r.values[0] <= hi[0])
                .count();
            assert_eq!(in_range, truth, "{kind}");
            // Unbounded on both sides degenerates to the full cursor.
            assert_eq!(ix.page_cursor_range(None, None).len(), ix.n_leaf_pages());
            // A range past the data yields no leaves beyond the last one's
            // boundary trim tolerance.
            let above = ix.page_cursor_range(Some(&[Value::Int(1_000_000)]), None);
            assert!(above.len() <= 1);
            // Empty index: no leaves.
            let empty = PhysicalIndex::build(&[], &dtypes(), 1, kind).unwrap();
            assert_eq!(empty.page_cursor_range(Some(&lo), Some(&hi)).len(), 0);
        }
    }

    #[test]
    fn leaf_last_key_matches_decoded_leaf() {
        let rows = sorted_rows(3000);
        let ix = PhysicalIndex::build(&rows, &dtypes(), 1, CompressionKind::Page).unwrap();
        for leaf in 0..ix.n_leaf_pages() {
            let last = ix.leaf_last_key(leaf, 1).unwrap().unwrap();
            let decoded = ix.decode_leaf(leaf).unwrap();
            assert_eq!(last.values[0], decoded.last().unwrap().values[0]);
        }
    }

    #[test]
    fn append_rows_patches_and_rebuild_folds() {
        let rows = sorted_rows(3000);
        for kind in [
            CompressionKind::None,
            CompressionKind::Page,
            CompressionKind::GlobalDict,
        ] {
            let mut ix = PhysicalIndex::build(&rows, &dtypes(), 1, kind).unwrap();
            let extra: Vec<Row> = (0..40)
                .map(|i| {
                    Row::new(vec![
                        Value::Int((i * 17) as i64),
                        Value::Str("new".into()),
                        Value::Int(100_000 + i as i64),
                    ])
                })
                .collect();
            let patched = ix.append_rows(&extra).unwrap();
            assert!(patched >= 1, "{kind}");
            assert_eq!(ix.patched_rows(), 40);
            assert_eq!(ix.n_rows(), 3040);
            // Decode paths see every row, in key order.
            let scanned = ix.scan().unwrap();
            assert_eq!(scanned.len(), 3040, "{kind}");
            let key = [ColumnId(0)];
            for w in scanned.windows(2) {
                assert_ne!(w[0].key_cmp(&w[1], &key), Ordering::Greater, "{kind}");
            }
            // Rebuild folds the patches into clean encodings.
            let clean = PhysicalIndex::build(&scanned, &dtypes(), 1, kind).unwrap();
            assert_eq!(clean.patched_rows(), 0);
            assert_eq!(clean.n_rows(), 3040);
            assert_eq!(clean.scan().unwrap(), scanned, "{kind}");
        }
    }

    #[test]
    fn append_to_heap_goes_to_the_tail() {
        let rows = sorted_rows(500);
        let mut ix = PhysicalIndex::build(&rows, &dtypes(), 0, CompressionKind::None).unwrap();
        let extra = vec![Row::new(vec![
            Value::Int(-1),
            Value::Str("tail".into()),
            Value::Int(9),
        ])];
        ix.append_rows(&extra).unwrap();
        let scanned = ix.scan().unwrap();
        assert_eq!(scanned.last().unwrap(), &extra[0]);
        assert_eq!(scanned.len(), 501);
    }

    #[test]
    fn append_to_empty_index_bulk_builds() {
        let mut ix = PhysicalIndex::build(&[], &dtypes(), 1, CompressionKind::Page).unwrap();
        let mut extra = sorted_rows(100);
        extra.reverse(); // append does not require sorted input
        ix.append_rows(&extra).unwrap();
        assert_eq!(ix.n_rows(), 100);
        assert_eq!(ix.patched_rows(), 0);
        let mut expected = extra.clone();
        expected.sort_by(|a, b| a.key_cmp(b, &[ColumnId(0)]));
        assert_eq!(ix.scan().unwrap(), expected);
    }

    #[test]
    fn append_wrong_arity_rejected() {
        let mut ix =
            PhysicalIndex::build(&sorted_rows(10), &dtypes(), 1, CompressionKind::None).unwrap();
        let bad = vec![Row::new(vec![Value::Int(1)])];
        assert!(ix.append_rows(&bad).is_err());
    }

    fn assert_bit_identical(a: &PhysicalIndex, b: &PhysicalIndex, what: &str) {
        assert_eq!(a.n_leaf_pages(), b.n_leaf_pages(), "{what}: leaf count");
        for i in 0..a.n_leaf_pages() {
            assert_eq!(a.leaf_bytes(i), b.leaf_bytes(i), "{what}: leaf {i}");
        }
        assert_eq!(a.size_bytes(), b.size_bytes(), "{what}: size");
        assert_eq!(
            a.uncompressed_bytes(),
            b.uncompressed_bytes(),
            "{what}: uncompressed"
        );
        assert_eq!(a.n_rows(), b.n_rows(), "{what}: rows");
    }

    fn striped(
        rows: &[Row],
        kind: CompressionKind,
        stripe_rows: usize,
        par: Parallelism,
    ) -> PhysicalIndex {
        let budget = MemoryBudget::unlimited();
        PhysicalIndex::build_striped(rows, &dtypes(), 1, kind, stripe_rows, par, &budget).unwrap()
    }

    #[test]
    fn single_stripe_build_is_bit_identical_to_monolithic() {
        let rows = sorted_rows(3000);
        for kind in [
            CompressionKind::None,
            CompressionKind::Page,
            CompressionKind::GlobalDict,
            CompressionKind::Rle,
        ] {
            let mono = PhysicalIndex::build(&rows, &dtypes(), 1, kind).unwrap();
            let striped = striped(&rows, kind, usize::MAX, Parallelism::Serial);
            assert_bit_identical(&mono, &striped, &format!("{kind}"));
            assert_eq!(striped.scan().unwrap(), rows, "{kind}");
        }
    }

    #[test]
    fn striped_build_is_parallelism_invariant() {
        let rows = sorted_rows(5000);
        for kind in [CompressionKind::Page, CompressionKind::GlobalDict] {
            let serial = striped(&rows, kind, 512, Parallelism::Serial);
            for par in [Parallelism::Auto, Parallelism::Threads(4)] {
                let p = striped(&rows, kind, 512, par);
                assert_bit_identical(&serial, &p, &format!("{kind}/{par:?}"));
            }
            assert_eq!(serial.scan().unwrap(), rows, "{kind}");
            // A striped index still seeks correctly.
            let hits = serial.seek(&[Value::Int(100)]).unwrap();
            assert_eq!(hits.len(), 4, "{kind}");
        }
    }

    #[test]
    fn budgeted_striped_build_meters_and_rejects() {
        let rows = sorted_rows(5000);
        let unmetered = striped(&rows, CompressionKind::Page, 512, Parallelism::Serial);
        for par in [Parallelism::Serial, Parallelism::Threads(4)] {
            let budget = MemoryBudget::limited(usize::MAX);
            let ix = PhysicalIndex::build_striped(
                &rows,
                &dtypes(),
                1,
                CompressionKind::Page,
                512,
                par,
                &budget,
            )
            .unwrap();
            assert_bit_identical(&unmetered, &ix, &format!("metered {par:?}"));
            // A stripe's raw rows and the encoded stripes were resident;
            // every reservation is released once the index is assembled.
            assert!(budget.peak_bytes() >= rows_footprint(&rows[..512]));
            assert_eq!(budget.current_bytes(), 0);
        }
        // A hard limit below one stripe's working set fails, not overruns.
        let tight = MemoryBudget::limited(1024);
        let err = PhysicalIndex::build_striped(
            &rows,
            &dtypes(),
            1,
            CompressionKind::Page,
            512,
            Parallelism::Serial,
            &tight,
        )
        .unwrap_err();
        assert_eq!(err.category(), "budget");
        assert_eq!(tight.current_bytes(), 0);
    }

    #[test]
    fn stripes_assemble_manually() {
        let rows = sorted_rows(2000);
        let dt = dtypes();
        let stripes: Vec<StripePages> = rows
            .chunks(1000)
            .map(|c| encode_stripe(c, &dt, 1, CompressionKind::Page, None).unwrap())
            .collect();
        assert!(!stripes[0].leaves.is_empty());
        assert_eq!(stripes[0].n_rows + stripes[1].n_rows, 2000);
        assert!(stripes[0].encoded_bytes() > 0);
        let ix = PhysicalIndex::from_stripes(stripes, &dt, 1, CompressionKind::Page, None).unwrap();
        assert_eq!(ix.scan().unwrap(), rows);
        let direct = striped(&rows, CompressionKind::Page, 1000, Parallelism::Serial);
        assert_bit_identical(&ix, &direct, "manual assembly");
    }

    #[test]
    fn out_of_order_stripes_rejected() {
        let rows = sorted_rows(2000);
        let dt = dtypes();
        let lo = encode_stripe(&rows[..1000], &dt, 1, CompressionKind::None, None).unwrap();
        let hi = encode_stripe(&rows[1000..], &dt, 1, CompressionKind::None, None).unwrap();
        assert!(
            PhysicalIndex::from_stripes(vec![hi, lo], &dt, 1, CompressionKind::None, None).is_err()
        );
        // Unsorted rows inside a stripe are rejected too.
        let mut bad = rows[..100].to_vec();
        bad.swap(0, 99);
        assert!(encode_stripe(&bad, &dt, 1, CompressionKind::None, None).is_err());
        // GlobalDict stripes need whole-input dictionaries.
        assert!(encode_stripe(&rows[..100], &dt, 1, CompressionKind::GlobalDict, None).is_err());
    }

    #[test]
    fn empty_striped_build() {
        let ix = striped(&[], CompressionKind::Page, 4096, Parallelism::Auto);
        assert_eq!(ix.n_rows(), 0);
        assert!(ix.scan().unwrap().is_empty());
    }

    #[test]
    fn internal_pages_counted_for_large_index() {
        let rows = sorted_rows(60_000);
        let ix = PhysicalIndex::build(&rows, &dtypes(), 1, CompressionKind::None).unwrap();
        assert!(ix.n_leaf_pages() > INTERNAL_FANOUT / 2);
        // Size must include at least the leaf payloads.
        let leaf_bytes: usize = (0..ix.n_leaf_pages())
            .map(|i| ix.leaves[i].bytes.len())
            .sum();
        assert!(ix.size_bytes() >= leaf_bytes);
    }
}
