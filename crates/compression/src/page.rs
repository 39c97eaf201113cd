//! Page encoder/decoder: composes the per-column codecs into a full
//! compressed page, column-wise, with per-column null bitmaps.
//!
//! Layout:
//! ```text
//! [n_rows: u16][n_cols: u16]
//! per column:
//!   [tag: u8]                       -- actual encoding used (may fall back)
//!   [null bitmap: ceil(n_rows/8)]
//!   [block_len: u32][block bytes]
//! ```
//!
//! For `CompressionKind::GlobalDict` each column independently falls back to
//! ROW (NULL-suppression) encoding when dictionary ids would be larger than
//! the suppressed values — mirroring how real engines apply dictionary
//! encoding only where it pays.
//!
//! There is one encoder per column block (`encode_column`) and one parser,
//! [`decode_column`]: it is the only code that reads a block by its
//! [`tag`], and it returns [`ColumnData`] — the values in the shape the
//! codec stored them (plain, runs, dictionary + codes), each distinct value
//! decoded once. Every reader is built on it: [`decode_page`],
//! [`decode_column_values`], the B+Tree's boundary-key probe and the
//! executor's column vectors.

use crate::bytesrepr::{append_value_bytes, value_from_bytes, value_width};
use crate::global_dict::{self, GlobalDictionary};
use crate::local_dict::{self, Token};
use crate::method::CompressionKind;
use crate::null_suppress;
use crate::prefix::{self, read_slice, read_u16, read_u32};
use crate::rle;
use cadb_common::{CadbError, DataType, Result, Row, Value};
use std::collections::HashMap;
use std::ops::Range;

/// Per-row header bytes in the uncompressed accounting (slot + status).
pub const ROW_HEADER_BYTES: usize = 4;

/// Everything the page codec needs to know about its environment.
#[derive(Debug, Clone, Copy)]
pub struct PageContext<'a> {
    /// Column types, in stored order.
    pub dtypes: &'a [DataType],
    /// Compression method for the whole page.
    pub kind: CompressionKind,
    /// Per-column global dictionaries; required when `kind == GlobalDict`.
    pub global_dicts: Option<&'a [GlobalDictionary]>,
}

/// A compressed page plus its uncompressed-footprint accounting.
#[derive(Debug, Clone)]
pub struct EncodedPage {
    /// The encoded bytes (this *is* the measured compressed size).
    pub bytes: Vec<u8>,
    /// Number of rows stored.
    pub n_rows: usize,
    /// What the same rows would occupy uncompressed (row headers + null
    /// bitmap + canonical value bytes).
    pub uncompressed_bytes: usize,
}

impl EncodedPage {
    /// Compression fraction of this page (compressed / uncompressed).
    pub fn compression_fraction(&self) -> f64 {
        if self.uncompressed_bytes == 0 {
            1.0
        } else {
            self.bytes.len() as f64 / self.uncompressed_bytes as f64
        }
    }
}

/// Column encoding tags, stored per column in the page. Public so that
/// callers can see the physical encoding each column actually used — which
/// may differ from the page's [`CompressionKind`] (e.g. the GDICT → NS
/// fallback).
pub mod tag {
    /// Raw canonical value bytes, back to back.
    pub const PLAIN: u8 = 0;
    /// NULL-suppressed values, each with a 2-byte length prefix.
    pub const NS: u8 = 1;
    /// The PAGE pipeline: anchor + prefix suppression + local dictionary.
    pub const PAGE: u8 = 2;
    /// Index-wide dictionary ids.
    pub const GDICT: u8 = 3;
    /// Run-length encoded NULL-suppressed values.
    pub const RLE: u8 = 4;
}

/// Borrowed view of one column's encoded section within a page: the tag it
/// was actually stored with, its null bitmap and its value block. Produced
/// by [`column_sections`]; the executor's per-column vectors are built from
/// this without decoding the whole page.
#[derive(Debug, Clone, Copy)]
pub struct ColumnSection<'a> {
    /// Actual encoding of the block (one of the [`tag`] constants).
    pub tag: u8,
    /// Null bitmap, one bit per row (bit set = NULL).
    pub bitmap: &'a [u8],
    /// The encoded value block (non-null values only).
    pub block: &'a [u8],
}

impl ColumnSection<'_> {
    /// Number of non-NULL values in the first `n_rows` rows.
    pub fn n_non_null(&self, n_rows: usize) -> usize {
        (0..n_rows)
            .filter(|i| self.bitmap[i / 8] & (1 << (i % 8)) == 0)
            .count()
    }

    /// `true` when row `i` is NULL.
    pub fn is_null(&self, i: usize) -> bool {
        self.bitmap[i / 8] & (1 << (i % 8)) != 0
    }
}

/// Split an encoded page into its per-column sections without decoding any
/// values. Returns `(n_rows, sections)`; this is the page cursor the
/// vectorized executor walks.
pub fn column_sections(bytes: &[u8]) -> Result<(usize, Vec<ColumnSection<'_>>)> {
    let mut pos = 0usize;
    let n = read_u16(bytes, &mut pos)? as usize;
    let n_cols = read_u16(bytes, &mut pos)? as usize;
    let mut sections = Vec::with_capacity(n_cols);
    for _ in 0..n_cols {
        let used_tag = *bytes
            .get(pos)
            .ok_or_else(|| CadbError::Storage("page truncated at tag".into()))?;
        pos += 1;
        let bitmap = read_slice(bytes, &mut pos, n.div_ceil(8))?;
        let block_len = read_u32(bytes, &mut pos)? as usize;
        let block = read_slice(bytes, &mut pos, block_len)?;
        sections.push(ColumnSection {
            tag: used_tag,
            bitmap,
            block,
        });
    }
    Ok((n, sections))
}

/// Split a [`tag::PAGE`] column block into its `(anchor, local-dict block)`
/// parts. Each dictionary entry / literal in the sub-block is a
/// prefix-encoded, NULL-suppressed value against the anchor.
fn split_page_block(block: &[u8]) -> Result<(&[u8], &[u8])> {
    let mut pos = 0usize;
    let anchor_len = read_u16(block, &mut pos)? as usize;
    let anchor = read_slice(block, &mut pos, anchor_len)?;
    Ok((anchor, &block[pos..]))
}

/// Encode one page of rows.
///
/// All rows must have arity `ctx.dtypes.len()`. Returns an error when
/// `GlobalDict` is requested without dictionaries.
pub fn encode_page(rows: &[Row], ctx: &PageContext<'_>) -> Result<EncodedPage> {
    let n = rows.len();
    if n > u16::MAX as usize {
        return Err(CadbError::InvalidArgument(format!(
            "page cannot hold {n} rows"
        )));
    }
    let n_cols = ctx.dtypes.len();
    let mut uncompressed = 0usize;
    for r in rows {
        if r.arity() != n_cols {
            return Err(CadbError::Schema(format!(
                "row arity {} != page arity {n_cols}",
                r.arity()
            )));
        }
        uncompressed += ROW_HEADER_BYTES + n_cols.div_ceil(8);
        for (v, t) in r.values.iter().zip(ctx.dtypes) {
            uncompressed += value_width(v, t);
        }
    }

    let mut out = Vec::new();
    out.extend_from_slice(&(n as u16).to_le_bytes());
    out.extend_from_slice(&(n_cols as u16).to_le_bytes());

    for (c, dtype) in ctx.dtypes.iter().enumerate() {
        // Null bitmap + the canonical bytes of non-null values.
        let mut bitmap = vec![0u8; n.div_ceil(8)];
        let mut canon: Vec<Vec<u8>> = Vec::with_capacity(n);
        for (i, r) in rows.iter().enumerate() {
            let v = &r.values[c];
            if v.is_null() {
                bitmap[i / 8] |= 1 << (i % 8);
            } else {
                let mut b = Vec::new();
                append_value_bytes(v, dtype, &mut b);
                canon.push(b);
            }
        }

        let (used_tag, block) = encode_column(&canon, dtype, ctx, c)?;
        out.push(used_tag);
        out.extend_from_slice(&bitmap);
        out.extend_from_slice(&(block.len() as u32).to_le_bytes());
        out.extend_from_slice(&block);
    }

    Ok(EncodedPage {
        bytes: out,
        n_rows: n,
        uncompressed_bytes: uncompressed,
    })
}

fn encode_column(
    canon: &[Vec<u8>],
    dtype: &DataType,
    ctx: &PageContext<'_>,
    col: usize,
) -> Result<(u8, Vec<u8>)> {
    match ctx.kind {
        CompressionKind::None => {
            let mut block = Vec::new();
            for v in canon {
                block.extend_from_slice(v);
            }
            Ok((tag::PLAIN, block))
        }
        CompressionKind::Row => Ok((tag::NS, encode_ns_block(canon, dtype))),
        CompressionKind::Page => {
            // ROW-compress first, then prefix against the anchor, then the
            // page-local dictionary — the SQL Server PAGE pipeline (App. A.1).
            let ns: Vec<Vec<u8>> = canon
                .iter()
                .map(|v| null_suppress::suppress(v, dtype))
                .collect();
            let anchor = prefix::choose_anchor(&ns);
            let prefixed: Vec<Vec<u8>> =
                ns.iter().map(|v| prefix::encode_one(&anchor, v)).collect();
            let dict_block = local_dict::encode(&prefixed);
            let mut block = Vec::with_capacity(anchor.len() + 2 + dict_block.len());
            block.extend_from_slice(&(anchor.len() as u16).to_le_bytes());
            block.extend_from_slice(&anchor);
            block.extend_from_slice(&dict_block);
            Ok((tag::PAGE, block))
        }
        CompressionKind::GlobalDict => {
            let dicts = ctx.global_dicts.ok_or_else(|| {
                CadbError::InvalidArgument(
                    "GlobalDict compression requires per-column dictionaries".into(),
                )
            })?;
            let dict = dicts.get(col).ok_or_else(|| {
                CadbError::InvalidArgument(format!("no global dictionary for column {col}"))
            })?;
            let gd_block = global_dict::encode(canon, dict)?;
            let ns_block = encode_ns_block(canon, dtype);
            if gd_block.len() < ns_block.len() {
                Ok((tag::GDICT, gd_block))
            } else {
                Ok((tag::NS, ns_block))
            }
        }
        CompressionKind::Rle => {
            let ns: Vec<Vec<u8>> = canon
                .iter()
                .map(|v| null_suppress::suppress(v, dtype))
                .collect();
            Ok((tag::RLE, rle::encode(&ns)))
        }
    }
}

fn encode_ns_block(canon: &[Vec<u8>], dtype: &DataType) -> Vec<u8> {
    let mut block = Vec::new();
    for v in canon {
        let s = null_suppress::suppress(v, dtype);
        block.extend_from_slice(&(s.len() as u16).to_le_bytes());
        block.extend_from_slice(&s);
    }
    block
}

/// Decode a page produced by [`encode_page`].
pub fn decode_page(bytes: &[u8], ctx: &PageContext<'_>) -> Result<Vec<Row>> {
    let (n, sections) = column_sections(bytes)?;
    if sections.len() != ctx.dtypes.len() {
        return Err(CadbError::Schema(format!(
            "page has {} columns, context has {}",
            sections.len(),
            ctx.dtypes.len()
        )));
    }
    let mut columns: Vec<Vec<Value>> = Vec::with_capacity(sections.len());
    for (c, (sec, dtype)) in sections.iter().zip(ctx.dtypes).enumerate() {
        let n_non_null = sec.n_non_null(n);
        let to_value = |b: Vec<u8>| value_from_bytes(&b, dtype);
        let values = decode_column(
            sec.block,
            sec.tag,
            dtype,
            ctx,
            c,
            n_non_null,
            0..n_non_null,
            to_value,
        )?
        .expand()?;
        // One value per non-null row, which `decode_column` guarantees.
        let mut vals = vec![Value::Null; n];
        for (i, v) in (0..n).filter(|&i| !sec.is_null(i)).zip(values) {
            vals[i] = v;
        }
        columns.push(vals);
    }
    // Transpose columns back into rows.
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        rows.push(Row::new(
            columns
                .iter_mut()
                .map(|col| std::mem::replace(&mut col[i], Value::Null))
                .collect(),
        ));
    }
    Ok(rows)
}

/// Decode one column block back into the canonical bytes of its non-null
/// values: [`decode_column`] over the whole block, one byte string per
/// value.
pub fn decode_column_values(
    block: &[u8],
    used_tag: u8,
    dtype: &DataType,
    ctx: &PageContext<'_>,
    col: usize,
    n_non_null: usize,
) -> Result<Vec<Vec<u8>>> {
    decode_column(
        block,
        used_tag,
        dtype,
        ctx,
        col,
        n_non_null,
        0..n_non_null,
        Ok,
    )?
    .expand()
}

/// One column block decoded by [`decode_column`]: its non-null values in
/// the shape the codec stored them, each distinct value decoded once —
/// canonical bytes by default, or whatever the decode mapped them to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ColumnData<T = Vec<u8>> {
    /// One value per position (PLAIN and NS blocks).
    Plain(Vec<T>),
    /// `(run_len, value)` runs over the positions (RLE blocks).
    Runs(Vec<(usize, T)>),
    /// Dictionary entries plus one code per position (PAGE and GDICT
    /// blocks). PAGE lists the page-dictionary entries the positions use in
    /// block order (on a full decode, the whole page dictionary), then one
    /// entry per inline literal in position order; GDICT lists the
    /// index-wide entries the positions use, in first-use order.
    Dict {
        /// Decoded dictionary entries.
        entries: Vec<T>,
        /// Per-position indexes into `entries`.
        codes: Vec<u32>,
    },
}

impl<T: Clone> ColumnData<T> {
    /// Number of positions held.
    fn len(&self) -> usize {
        match self {
            ColumnData::Plain(vals) => vals.len(),
            ColumnData::Runs(runs) => runs.iter().map(|(n, _)| n).sum(),
            ColumnData::Dict { codes, .. } => codes.len(),
        }
    }

    /// One value per position, in order: runs repeat and dictionary codes
    /// resolve as clones.
    pub fn expand(self) -> Result<Vec<T>> {
        match self {
            ColumnData::Plain(vals) => Ok(vals),
            ColumnData::Runs(runs) => {
                let mut out = Vec::with_capacity(runs.iter().map(|(n, _)| n).sum());
                for (n, v) in runs {
                    out.extend(std::iter::repeat_n(v, n));
                }
                Ok(out)
            }
            ColumnData::Dict { entries, codes } => codes
                .iter()
                .map(|&c| {
                    entries.get(c as usize).cloned().ok_or_else(|| {
                        CadbError::Storage(format!("dictionary code {c} out of range"))
                    })
                })
                .collect(),
        }
    }
}

/// Decode one column block — the only parser of the codecs' block formats.
///
/// `used_tag` is the section's actual encoding (a [`tag`] constant), `col`
/// the column ordinal (it picks the GDICT dictionary) and `n_non_null` the
/// number of non-NULL rows in the section's bitmap. `value` maps each
/// distinct value's canonical bytes as soon as they are decoded (`Ok` keeps
/// the bytes), so nothing is materialized twice. Only the non-null
/// positions in `range` (clamped to `0..n_non_null`) are materialized; a
/// full decode is `0..n_non_null`. Fixed-width PLAIN slices straight to the
/// range, RLE clips runs to it without expanding them, PAGE and GDICT
/// expand only the dictionary entries it references, and the
/// length-prefixed NS and VARCHAR PLAIN streams are walked up to its end.
///
/// A block that claims more values than `n_non_null` fails before any of
/// them is expanded; an `Ok` holds exactly the positions of `range`.
#[allow(clippy::too_many_arguments)] // the block's coordinates, range and value mapping
pub fn decode_column<T: Clone>(
    block: &[u8],
    used_tag: u8,
    dtype: &DataType,
    ctx: &PageContext<'_>,
    col: usize,
    n_non_null: usize,
    range: Range<usize>,
    mut value: impl FnMut(Vec<u8>) -> Result<T>,
) -> Result<ColumnData<T>> {
    let hi = range.end.min(n_non_null);
    let lo = range.start.min(hi);
    let data = match used_tag {
        tag::PLAIN if !matches!(dtype, DataType::Varchar { .. }) => {
            let w = dtype.fixed_width();
            let mut pos = lo * w;
            let mut out = Vec::with_capacity(hi - lo);
            for _ in lo..hi {
                out.push(value(read_slice(block, &mut pos, w)?.to_vec())?);
            }
            ColumnData::Plain(out)
        }
        tag::PLAIN | tag::NS => {
            // Length-prefixed streams: a VARCHAR's canonical bytes keep
            // the prefix, NS values are re-expanded.
            let mut pos = 0usize;
            let mut out = Vec::with_capacity(hi - lo);
            for i in 0..hi {
                let start = pos;
                let len = read_u16(block, &mut pos)? as usize;
                let s = read_slice(block, &mut pos, len)?;
                if i >= lo {
                    out.push(value(if used_tag == tag::NS {
                        null_suppress::expand(s, dtype)
                    } else {
                        block[start..pos].to_vec()
                    })?);
                }
            }
            ColumnData::Plain(out)
        }
        tag::RLE => {
            let mut seen = 0usize;
            let mut runs = Vec::new();
            for run in rle::runs(block)? {
                let (len, ns) = run?;
                let start = seen;
                seen += len;
                check_count("RLE runs", seen, n_non_null)?;
                let take = seen.min(hi).saturating_sub(start.max(lo));
                if take > 0 {
                    runs.push((take, value(null_suppress::expand(ns, dtype))?));
                }
            }
            ColumnData::Runs(runs)
        }
        tag::PAGE => {
            let (anchor, dict_block) = split_page_block(block)?;
            let (raw, tokens) = local_dict::decode_parts(dict_block)?;
            check_count("PAGE tokens", tokens.len(), n_non_null)?;
            let expand = |enc: &[u8]| -> Result<Vec<u8>> {
                Ok(null_suppress::expand(
                    &prefix::decode_one(anchor, enc)?,
                    dtype,
                ))
            };
            // Slots: the page-dictionary entries the range uses, in block
            // order, then one per inline literal. A full decode uses every
            // entry, since the encoder admits only values that repeat.
            const UNUSED: u32 = u32::MAX;
            let mut slot_of = vec![UNUSED; raw.len()];
            for t in tokens.iter().take(hi).skip(lo) {
                if let Token::Code(c) = t {
                    slot_of[*c as usize] = 0;
                }
            }
            let mut entries = Vec::with_capacity(raw.len());
            for (slot, enc) in slot_of.iter_mut().zip(&raw) {
                if *slot != UNUSED {
                    *slot = entries.len() as u32;
                    entries.push(value(expand(enc)?)?);
                }
            }
            let mut codes = Vec::with_capacity(hi - lo);
            for t in tokens.into_iter().take(hi).skip(lo) {
                codes.push(match t {
                    Token::Code(c) => slot_of[c as usize],
                    Token::Literal(enc) => {
                        entries.push(value(expand(&enc)?)?);
                        entries.len() as u32 - 1
                    }
                });
            }
            ColumnData::Dict { entries, codes }
        }
        tag::GDICT => {
            let dict = ctx.global_dicts.and_then(|d| d.get(col)).ok_or_else(|| {
                CadbError::InvalidArgument(format!(
                    "decoding GDICT column {col} requires its global dictionary"
                ))
            })?;
            let ids = global_dict::decode_ids(block)?;
            check_count("GDICT ids", ids.len(), n_non_null)?;
            // Index-wide ids map onto dense slots in first-use order, so the
            // work is proportional to the page, not to the dictionary.
            let mut slot_of: HashMap<u32, u32> = HashMap::new();
            let mut entries = Vec::new();
            let mut codes = Vec::with_capacity(hi - lo);
            for &id in ids.get(lo..hi).unwrap_or_default() {
                let code = match slot_of.get(&id) {
                    Some(&s) => s,
                    None => {
                        let entry = dict.entry(id).ok_or_else(|| {
                            CadbError::Storage(format!("gdict id {id} out of range"))
                        })?;
                        let s = entries.len() as u32;
                        entries.push(value(entry.to_vec())?);
                        slot_of.insert(id, s);
                        s
                    }
                };
                codes.push(code);
            }
            ColumnData::Dict { entries, codes }
        }
        other => return Err(CadbError::Storage(format!("unknown column tag {other}"))),
    };
    if data.len() != hi - lo {
        return Err(CadbError::Storage(format!(
            "column {col}: decoded {} values, expected {}",
            data.len(),
            hi - lo
        )));
    }
    Ok(data)
}

/// A block that claims more values than its column has non-null rows is
/// corrupt; checked before the values are expanded.
fn check_count(what: &str, count: usize, n_non_null: usize) -> Result<()> {
    if count > n_non_null {
        return Err(CadbError::Storage(format!(
            "{what} hold {count} values, the null bitmap only {n_non_null}"
        )));
    }
    Ok(())
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cadb_common::Value;

    /// Decode a bare codec block of `n` values through [`decode_column`]
    /// as a VARCHAR column, for which NULL suppression is the identity:
    /// how the codec modules' tests round-trip arbitrary byte strings.
    pub(crate) fn decode_bytes(
        block: &[u8],
        used_tag: u8,
        dicts: Option<&[GlobalDictionary]>,
        n: usize,
    ) -> Result<Vec<Vec<u8>>> {
        let ctx = PageContext {
            dtypes: &[],
            kind: CompressionKind::None,
            global_dicts: dicts,
        };
        let varchar = DataType::Varchar { max_len: u16::MAX };
        decode_column(block, used_tag, &varchar, &ctx, 0, n, 0..n, Ok)?.expand()
    }

    fn dtypes() -> Vec<DataType> {
        vec![
            DataType::Int,
            DataType::Char { len: 10 },
            DataType::Varchar { max_len: 20 },
            DataType::Date,
        ]
    }

    fn rows(n: usize) -> Vec<Row> {
        (0..n)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i as i64 % 16),
                    Value::Str(format!("st{}", i % 4)),
                    if i % 7 == 0 {
                        Value::Null
                    } else {
                        Value::Str(format!("comment {}", i % 3))
                    },
                    Value::Int(10_000 + (i as i64 % 30)),
                ])
            })
            .collect()
    }

    fn roundtrip(kind: CompressionKind) -> EncodedPage {
        let d = dtypes();
        let rs = rows(200);
        let dicts: Vec<GlobalDictionary> = (0..d.len())
            .map(|c| {
                GlobalDictionary::build(
                    rs.iter()
                        .filter(|r| !r.values[c].is_null())
                        .map(|r| crate::bytesrepr::value_bytes(&r.values[c], &d[c]))
                        .collect::<Vec<_>>()
                        .iter()
                        .map(|v| v.as_slice()),
                )
            })
            .collect();
        let ctx = PageContext {
            dtypes: &d,
            kind,
            global_dicts: Some(&dicts),
        };
        let page = encode_page(&rs, &ctx).unwrap();
        assert_eq!(decode_page(&page.bytes, &ctx).unwrap(), rs, "{kind}");
        page
    }

    #[test]
    fn all_methods_round_trip() {
        for kind in [CompressionKind::None, CompressionKind::Row]
            .into_iter()
            .chain(CompressionKind::ALL_COMPRESSED)
        {
            roundtrip(kind);
        }
    }

    #[test]
    fn compression_actually_compresses() {
        let plain = roundtrip(CompressionKind::None);
        for kind in CompressionKind::ALL_COMPRESSED {
            let page = roundtrip(kind);
            assert!(
                page.bytes.len() < plain.bytes.len(),
                "{kind}: {} !< {}",
                page.bytes.len(),
                plain.bytes.len()
            );
            assert!(page.compression_fraction() < 1.0, "{kind}");
        }
    }

    #[test]
    fn page_beats_row_on_repetitive_data() {
        // Low-cardinality repeated strings: the dictionary stage must win
        // over plain NULL suppression.
        let row = roundtrip(CompressionKind::Row);
        let page = roundtrip(CompressionKind::Page);
        assert!(page.bytes.len() < row.bytes.len());
    }

    #[test]
    fn empty_page() {
        let d = dtypes();
        let ctx = PageContext {
            dtypes: &d,
            kind: CompressionKind::Row,
            global_dicts: None,
        };
        let page = encode_page(&[], &ctx).unwrap();
        assert_eq!(page.n_rows, 0);
        assert_eq!(page.uncompressed_bytes, 0);
        assert!(decode_page(&page.bytes, &ctx).unwrap().is_empty());
    }

    #[test]
    fn column_sections_expose_layout_without_decoding() {
        let d = dtypes();
        let rs = rows(100);
        let ctx = PageContext {
            dtypes: &d,
            kind: CompressionKind::Rle,
            global_dicts: None,
        };
        let page = encode_page(&rs, &ctx).unwrap();
        let (n, sections) = column_sections(&page.bytes).unwrap();
        assert_eq!(n, 100);
        assert_eq!(sections.len(), d.len());
        for sec in &sections {
            assert_eq!(sec.tag, tag::RLE);
        }
        // Column 2 has NULLs every 7th row.
        assert!(sections[2].n_non_null(n) < n);
        assert!(sections[2].is_null(0));
        // Decoding a single section reproduces that column of the rows.
        let canon =
            decode_column_values(sections[0].block, sections[0].tag, &d[0], &ctx, 0, n).unwrap();
        assert_eq!(canon.len(), n);
        assert_eq!(
            value_from_bytes(&canon[5], &d[0]).unwrap(),
            rs[5].values[0].clone()
        );
    }

    #[test]
    fn range_decode_equals_full_decode_sliced_for_every_codec() {
        let d = dtypes();
        let rs = rows(200);
        let dicts: Vec<GlobalDictionary> = (0..d.len())
            .map(|c| {
                GlobalDictionary::build(
                    rs.iter()
                        .filter(|r| !r.values[c].is_null())
                        .map(|r| crate::bytesrepr::value_bytes(&r.values[c], &d[c]))
                        .collect::<Vec<_>>()
                        .iter()
                        .map(|v| v.as_slice()),
                )
            })
            .collect();
        for kind in [CompressionKind::None, CompressionKind::Row]
            .into_iter()
            .chain(CompressionKind::ALL_COMPRESSED)
        {
            let ctx = PageContext {
                dtypes: &d,
                kind,
                global_dicts: Some(&dicts),
            };
            let page = encode_page(&rs, &ctx).unwrap();
            let (n, sections) = column_sections(&page.bytes).unwrap();
            for (c, sec) in sections.iter().enumerate() {
                let n_nn = sec.n_non_null(n);
                let decode = |range: Range<usize>| {
                    decode_column(sec.block, sec.tag, &d[c], &ctx, c, n_nn, range, Ok)
                        .unwrap()
                        .expand()
                        .unwrap()
                };
                let full = decode(0..n_nn);
                assert_eq!(
                    full,
                    decode_column_values(sec.block, sec.tag, &d[c], &ctx, c, n_nn).unwrap()
                );
                for range in [0..0, 0..1, 0..n_nn, 3..17, n_nn.saturating_sub(1)..n_nn] {
                    assert_eq!(
                        decode(range.clone()),
                        full[range.clone()],
                        "{kind} col {c} {range:?}"
                    );
                }
                // Out-of-bounds ranges clamp instead of erroring.
                assert!(decode(n_nn..n_nn + 10).is_empty(), "{kind} col {c}");
            }
        }
    }

    #[test]
    fn range_decode_expands_only_the_dictionary_entries_it_uses() {
        let d = dtypes();
        let rs = rows(200);
        let ctx = PageContext {
            dtypes: &d,
            kind: CompressionKind::Page,
            global_dicts: None,
        };
        let page = encode_page(&rs, &ctx).unwrap();
        let (n, sections) = column_sections(&page.bytes).unwrap();
        // Column 1 cycles through four strings, all in the page dictionary.
        let sec = &sections[1];
        let full = decode_column(sec.block, sec.tag, &d[1], &ctx, 1, n, 0..n, Ok).unwrap();
        let last = decode_column(sec.block, sec.tag, &d[1], &ctx, 1, n, n - 1..n, Ok).unwrap();
        match (full, last) {
            (
                ColumnData::Dict { entries, codes },
                ColumnData::Dict {
                    entries: last_entries,
                    codes: last_codes,
                },
            ) => {
                assert_eq!(entries.len(), 4);
                assert_eq!(codes.len(), n);
                assert_eq!(last_codes, vec![0]);
                assert_eq!(last_entries, vec![entries[codes[n - 1] as usize].clone()]);
            }
            other => panic!("PAGE column decoded as {other:?}"),
        }
    }

    #[test]
    fn rle_runs_past_the_bitmap_are_rejected_before_expanding() {
        let d = vec![DataType::Int];
        let ctx = PageContext {
            dtypes: &d,
            kind: CompressionKind::Rle,
            global_dicts: None,
        };
        let rs: Vec<Row> = (0..4).map(|_| Row::new(vec![Value::Int(7)])).collect();
        let mut bytes = encode_page(&rs, &ctx).unwrap().bytes;
        // Page header (4) + tag (1) + bitmap (1) + block length (4), then
        // the block: [n_runs: u16][run_len: u16]... Claim 65 535 rows.
        let at = 4 + 1 + 1 + 4 + 2;
        assert_eq!(bytes[at..at + 2], 4u16.to_le_bytes());
        bytes[at..at + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert!(decode_page(&bytes, &ctx).is_err());
        let (n, sections) = column_sections(&bytes).unwrap();
        let sec = &sections[0];
        for range in [0..n, n - 1..n] {
            assert!(decode_column(sec.block, sec.tag, &d[0], &ctx, 0, n, range, Ok).is_err());
        }
    }

    #[test]
    fn gdict_without_dicts_errors() {
        let d = dtypes();
        let ctx = PageContext {
            dtypes: &d,
            kind: CompressionKind::GlobalDict,
            global_dicts: None,
        };
        assert!(encode_page(&rows(3), &ctx).is_err());
    }

    #[test]
    fn arity_mismatch_errors() {
        let d = dtypes();
        let ctx = PageContext {
            dtypes: &d,
            kind: CompressionKind::Row,
            global_dicts: None,
        };
        assert!(encode_page(&[Row::new(vec![Value::Int(1)])], &ctx).is_err());
    }

    #[test]
    fn uncompressed_accounting_matches_widths() {
        let d = vec![DataType::Int, DataType::Char { len: 6 }];
        let rs = vec![
            Row::new(vec![Value::Int(1), Value::Str("ab".into())]),
            Row::new(vec![Value::Int(2), Value::Str("cd".into())]),
        ];
        let ctx = PageContext {
            dtypes: &d,
            kind: CompressionKind::None,
            global_dicts: None,
        };
        let page = encode_page(&rs, &ctx).unwrap();
        // Per row: 4 header + 1 bitmap + 8 int + 6 char = 19.
        assert_eq!(page.uncompressed_bytes, 38);
    }
}
