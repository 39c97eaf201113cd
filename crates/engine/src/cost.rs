//! The compression-aware cost model (paper Appendix A).
//!
//! Costs are abstract units (roughly "milliseconds"): sequential and random
//! page I/O plus per-tuple CPU. Compression enters in exactly the two places
//! the paper modified SQL Server:
//!
//! * **updates** (A.1): `CPUCost_update = Base + α · #tuples_written`,
//! * **reads** (A.2): `CPUCost_read = Base + β · #tuples_read · #columns_read`,
//!
//! while the I/O term shrinks automatically because compressed structures
//! have fewer pages. `α` and `β` per method live on
//! [`CompressionKind::alpha`]/[`beta`](CompressionKind::beta); the unit
//! scalars here calibrate them against the I/O units.

use cadb_compression::analyze::PAGE_PAYLOAD;
use cadb_compression::CompressionKind;

/// Tunable cost constants.
#[derive(Debug, Clone)]
pub struct CostModel {
    /// Cost of reading one page sequentially.
    pub seq_page_io: f64,
    /// Cost of one random page access.
    pub rnd_page_io: f64,
    /// CPU cost of processing one tuple.
    pub cpu_per_tuple: f64,
    /// CPU cost of evaluating one predicate on one tuple.
    pub cpu_per_predicate: f64,
    /// Per-tuple·log2(n) factor for sorts.
    pub sort_factor: f64,
    /// Amortized I/O + page-split cost per row inserted into an index.
    pub insert_io_per_row: f64,
    /// Unit scale for the compression constant α (per tuple written).
    pub alpha_unit: f64,
    /// Unit scale for the decompression constant β (per tuple × column read).
    pub beta_unit: f64,
    /// Cost of the B+Tree descent for one seek (root-to-leaf random reads).
    pub seek_descent: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            seq_page_io: 1.0,
            rnd_page_io: 4.0,
            cpu_per_tuple: 0.005,
            cpu_per_predicate: 0.001,
            sort_factor: 0.002,
            insert_io_per_row: 0.08,
            alpha_unit: 0.05,
            beta_unit: 0.01,
            seek_descent: 12.0,
        }
    }
}

impl CostModel {
    /// Decompression CPU for reading `tuples` rows touching `cols` columns
    /// of a structure compressed with `kind` (Appendix A.2). SQL Server
    /// decompresses only the used columns, hence the `cols` factor.
    pub fn decompress_cost(&self, kind: CompressionKind, tuples: f64, cols: f64) -> f64 {
        kind.beta() * self.beta_unit * tuples.max(0.0) * cols.max(0.0)
    }

    /// Compression CPU for writing `tuples` rows into a structure
    /// compressed with `kind` (Appendix A.1).
    pub fn compress_cost(&self, kind: CompressionKind, tuples: f64) -> f64 {
        kind.alpha() * self.alpha_unit * tuples.max(0.0)
    }

    /// Cost of a full sequential scan over `pages` pages yielding `tuples`
    /// rows, evaluating `n_preds` predicates per row.
    pub fn scan_cost(&self, pages: f64, tuples: f64, n_preds: usize) -> f64 {
        pages.max(1.0) * self.seq_page_io
            + tuples.max(0.0) * (self.cpu_per_tuple + n_preds as f64 * self.cpu_per_predicate)
    }

    /// Cost of sorting `tuples` rows.
    pub fn sort_cost(&self, tuples: f64) -> f64 {
        if tuples <= 1.0 {
            return 0.0;
        }
        self.sort_factor * tuples * tuples.log2()
    }

    /// Cost of `n` random row lookups into a base table (bookmark lookups
    /// of a non-covering index plan).
    pub fn lookup_cost(&self, n: f64) -> f64 {
        n.max(0.0) * self.rnd_page_io
    }

    /// Pages needed to store `bytes` of data.
    pub fn bytes_to_pages(&self, bytes: f64) -> f64 {
        heap_pages(bytes)
    }
}

/// Pages an uncompressed heap of `bytes` occupies (at least one) — a fact
/// about the page format, not a tunable of the model.
pub(crate) fn heap_pages(bytes: f64) -> f64 {
    (bytes / PAGE_PAYLOAD as f64).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decompress_scales_with_cols_and_kind() {
        let m = CostModel::default();
        let row = m.decompress_cost(CompressionKind::Row, 1000.0, 4.0);
        let page = m.decompress_cost(CompressionKind::Page, 1000.0, 4.0);
        let none = m.decompress_cost(CompressionKind::None, 1000.0, 4.0);
        assert_eq!(none, 0.0);
        assert!(page > row);
        assert!(row > 0.0);
        assert!(
            m.decompress_cost(CompressionKind::Page, 1000.0, 8.0) > page,
            "more columns → more decompression"
        );
    }

    #[test]
    fn compress_cost_ordering() {
        let m = CostModel::default();
        assert_eq!(m.compress_cost(CompressionKind::None, 100.0), 0.0);
        assert!(
            m.compress_cost(CompressionKind::Page, 100.0)
                > m.compress_cost(CompressionKind::Row, 100.0)
        );
    }

    #[test]
    fn compression_can_win_or_lose_a_scan() {
        // The crux of the paper: fewer pages vs extra CPU. A wide scan
        // with CF=0.4 must win; reading few tuples from an already tiny
        // structure must not benefit.
        let m = CostModel::default();
        let tuples = 100_000.0;
        let cols = 4.0;
        let plain_pages = 1250.0;
        let plain = m.scan_cost(plain_pages, tuples, 1);
        let compressed = m.scan_cost(plain_pages * 0.4, tuples, 1)
            + m.decompress_cost(CompressionKind::Page, tuples, cols);
        assert!(compressed < plain, "{compressed} !< {plain}");

        // Tiny structure: I/O saving (a fraction of a page) can't pay for
        // decompressing the tuples.
        let small = m.scan_cost(1.0, 200.0, 1);
        let small_c =
            m.scan_cost(1.0, 200.0, 1) + m.decompress_cost(CompressionKind::Page, 200.0, cols);
        assert!(small_c > small);
    }

    #[test]
    fn sort_cost_monotone() {
        let m = CostModel::default();
        assert_eq!(m.sort_cost(1.0), 0.0);
        assert!(m.sort_cost(10_000.0) > m.sort_cost(1_000.0));
    }

    #[test]
    fn bytes_to_pages_floor_one() {
        let m = CostModel::default();
        assert_eq!(m.bytes_to_pages(10.0), 1.0);
        assert!(m.bytes_to_pages(1e6) > 100.0);
    }
}
