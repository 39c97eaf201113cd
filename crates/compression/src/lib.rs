//! # cadb-compression
//!
//! Real, lossless page-compression implementations mirroring what the paper's
//! substrate (Microsoft SQL Server 2008 R2) provides, plus the two extra
//! methods the paper's taxonomy discusses:
//!
//! * **ROW** compression = NULL/blank suppression (order-independent),
//! * **PAGE** compression = ROW + per-page prefix suppression + per-page
//!   local dictionary (order-dependent),
//! * **global dictionary** encoding (order-independent, one dictionary per
//!   column across the whole index, as in DB2),
//! * **RLE** run-length encoding (order-dependent).
//!
//! All methods are implemented as actual encoders *and* decoders over pages
//! of values, so compressed sizes in the rest of the workspace are measured,
//! not assumed — the compression-fraction distributions that the paper's
//! estimators (SampleCF, deductions) have to cope with arise organically.
//! Every column block is read by one parser, [`decode_column`].
//!
//! The unit of compression is a *page* of rows (column-wise within the page),
//! matching how SQL Server applies ROW/PAGE compression per 8 KiB page.

#![warn(missing_docs)]

pub mod analyze;
pub mod bytesrepr;
pub mod global_dict;
pub mod local_dict;
pub mod method;
pub mod null_suppress;
pub mod page;
pub mod patch;
pub mod prefix;
pub mod rle;

pub use analyze::{compressed_index_size, CompressionMeasurement};
pub use global_dict::GlobalDictionary;
pub use method::CompressionKind;
pub use page::{
    column_sections, decode_column, decode_page, encode_page, ColumnData, ColumnSection,
    EncodedPage, PageContext,
};
pub use patch::{append_patch, has_patch, split_patch};
