//! # cadb-storage
//!
//! The storage substrate: in-memory tables plus page-oriented B+Tree
//! indexes ([`PhysicalIndex`]) whose leaf pages are stored in their
//! *encoded* form using `cadb-compression`. Sizes reported by this crate
//! are therefore measured from real encoded bytes, and reads really
//! decompress pages — the CPU/I/O trade-off the paper's cost model charges
//! for is physically present.
//!
//! [`PhysicalIndex::build_striped`] is the one index build path (the
//! sharded builds in `cadb-shard` and the executor's materialization call
//! it; [`PhysicalIndex::build`] is its one-stripe case). There is no
//! separate heap type: a heap is an index with zero key columns.

#![warn(missing_docs)]

pub mod btree;
pub mod table;
pub mod wal;

pub use btree::{LeafPage, PageCursor, PhysicalIndex};
pub use table::Table;
pub use wal::{FrameType, WalFrame, WalReplay, WalSegment};
