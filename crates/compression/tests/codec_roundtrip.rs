//! Deterministic round-trip coverage for every codec in this crate:
//! encode → decode must be the identity, and the measured sizes must be
//! sane (compressible fixtures actually shrink, incompressible ones never
//! blow up past their documented overhead).
//!
//! These complement the in-module proptests: fixed fixtures mean a failure
//! here points at a codec regression, not at an unlucky generated input.
//! Every decode goes through the one block parser, `decode_column`; the
//! corruption sweep at the end feeds it damaged pages.

use cadb_common::{DataType, Result, Row, Value};
use cadb_compression::analyze::{build_dictionaries, compressed_index_size};
use cadb_compression::bytesrepr::value_bytes;
use cadb_compression::global_dict::{self, GlobalDictionary};
use cadb_compression::page::{
    column_sections, decode_column, decode_page, encode_page, tag, ColumnData, PageContext,
};
use cadb_compression::{local_dict, null_suppress, prefix, rle, CompressionKind};

/// Deterministic mixed-shape byte values: runs, shared prefixes, empties.
fn fixture_values() -> Vec<Vec<u8>> {
    let mut vals = Vec::new();
    for i in 0..40u8 {
        // Runs of identical values (RLE-friendly).
        vals.push(vec![7, 7, 7, i / 10]);
        // A shared long prefix with a varying tail (prefix-friendly).
        let mut v = b"prefix-2011-".to_vec();
        v.push(b'a' + i % 5);
        vals.push(v);
        // A tiny alphabet of short values (dictionary-friendly).
        vals.push(vec![b'x' + i % 3]);
        if i % 13 == 0 {
            vals.push(Vec::new());
        }
    }
    vals
}

fn plain_bytes(vals: &[Vec<u8>]) -> usize {
    vals.iter().map(Vec::len).sum()
}

/// Decode a bare codec block of `n` values through
/// `decode_column` as a VARCHAR column (NULL suppression is then the
/// identity, so arbitrary byte strings round-trip).
fn decode_block(
    block: &[u8],
    used_tag: u8,
    dicts: Option<&[GlobalDictionary]>,
    n: usize,
) -> Vec<Vec<u8>> {
    let ctx = PageContext {
        dtypes: &[],
        kind: CompressionKind::None,
        global_dicts: dicts,
    };
    let varchar = DataType::Varchar { max_len: u16::MAX };
    decode_column(block, used_tag, &varchar, &ctx, 0, n, 0..n, Ok)
        .and_then(ColumnData::expand)
        .unwrap()
}

/// A PAGE block with an empty anchor around a local-dictionary block of
/// `vals`, each prefix-encoded as `[0][bytes]`.
fn page_block(vals: &[Vec<u8>]) -> Vec<u8> {
    let prefixed: Vec<Vec<u8>> = vals.iter().map(|v| prefix::encode_one(&[], v)).collect();
    let mut block = 0u16.to_le_bytes().to_vec();
    block.extend(local_dict::encode(&prefixed));
    block
}

#[test]
fn rle_round_trip_and_size() {
    let vals = fixture_values();
    let block = rle::encode(&vals);
    assert_eq!(decode_block(&block, tag::RLE, None, vals.len()), vals);

    // A single long run must collapse to far below its plain payload.
    let run: Vec<Vec<u8>> = vec![b"constant".to_vec(); 500];
    let run_block = rle::encode(&run);
    assert_eq!(decode_block(&run_block, tag::RLE, None, run.len()), run);
    assert!(
        run_block.len() * 10 < plain_bytes(&run),
        "500-value run encoded to {} bytes vs {} plain",
        run_block.len(),
        plain_bytes(&run)
    );
}

#[test]
fn prefix_round_trip_and_size() {
    let vals = fixture_values();
    let anchor = prefix::choose_anchor(&vals);
    for v in &vals {
        assert_eq!(
            &prefix::decode_one(&anchor, &prefix::encode_one(&anchor, v)).unwrap(),
            v
        );
    }

    // All values sharing a 12-byte prefix: one match byte plus a one-byte
    // suffix each, far below the plain payload.
    let shared: Vec<Vec<u8>> = (0..100u8)
        .map(|i| {
            let mut v = b"2011-07-SAME".to_vec();
            v.push(i);
            v
        })
        .collect();
    let anchor = prefix::choose_anchor(&shared);
    let mut encoded = 0;
    for v in &shared {
        let enc = prefix::encode_one(&anchor, v);
        assert_eq!(&prefix::decode_one(&anchor, &enc).unwrap(), v);
        encoded += enc.len();
    }
    assert!(
        encoded * 4 < plain_bytes(&shared),
        "prefix-encoded {encoded} vs plain {}",
        plain_bytes(&shared)
    );
}

#[test]
fn null_suppress_round_trip_and_size() {
    let cases = [
        (Value::Int(0), DataType::Int),
        (Value::Int(1), DataType::Int),
        (Value::Int(-1), DataType::Int),
        (Value::Int(255), DataType::Int),
        (Value::Int(i64::MAX), DataType::Int),
        (Value::Int(i64::MIN), DataType::Int),
        (Value::Int(733_000), DataType::Date),
        (Value::Str("".into()), DataType::Char { len: 10 }),
        (Value::Str("abc".into()), DataType::Char { len: 10 }),
    ];
    for (v, t) in &cases {
        let canon = value_bytes(v, t);
        let s = null_suppress::suppress(&canon, t);
        assert_eq!(null_suppress::expand(&s, t), canon, "{v:?} ({t:?})");
        assert!(
            s.len() <= canon.len(),
            "{v:?}: suppressed {} > canonical {}",
            s.len(),
            canon.len()
        );
    }
    // Small magnitudes must actually shrink from the 8-byte canonical form.
    let canon = value_bytes(&Value::Int(3), &DataType::Int);
    assert!(null_suppress::suppress(&canon, &DataType::Int).len() < canon.len());
}

#[test]
fn local_dict_round_trip_and_size() {
    let vals = fixture_values();
    assert_eq!(
        decode_block(&page_block(&vals), tag::PAGE, None, vals.len()),
        vals
    );

    // 300 occurrences of 3 distinct 16-byte values: the dictionary pays for
    // itself many times over.
    let dup: Vec<Vec<u8>> = (0..300usize)
        .map(|i| {
            let mut v = vec![b'A' + (i % 3) as u8; 16];
            v[15] = b'0' + (i % 3) as u8;
            v
        })
        .collect();
    let dup_block = local_dict::encode(&dup);
    assert_eq!(
        decode_block(&page_block(&dup), tag::PAGE, None, dup.len()),
        dup
    );
    assert!(
        dup_block.len() * 4 < plain_bytes(&dup),
        "dictionary block {} vs plain {}",
        dup_block.len(),
        plain_bytes(&dup)
    );
}

#[test]
fn global_dict_round_trip_and_size() {
    let vals = fixture_values();
    let dict = GlobalDictionary::build(vals.iter().map(|v| v.as_slice()));
    let block = global_dict::encode(&vals, &dict).unwrap();
    let dicts = [dict];
    assert_eq!(
        decode_block(&block, tag::GDICT, Some(&dicts), vals.len()),
        vals
    );

    // With few distinct long values, per-value ids beat the plain payload
    // (the dictionary itself is amortized across the whole index).
    let dup: Vec<Vec<u8>> = (0..400usize)
        .map(|i| format!("nation-name-number-{}", i % 8).into_bytes())
        .collect();
    let dup_dict = GlobalDictionary::build(dup.iter().map(|v| v.as_slice()));
    let dup_block = global_dict::encode(&dup, &dup_dict).unwrap();
    let dup_dicts = [dup_dict];
    assert_eq!(
        decode_block(&dup_block, tag::GDICT, Some(&dup_dicts), dup.len()),
        dup
    );
    assert!(
        dup_block.len() * 4 < plain_bytes(&dup),
        "id stream {} vs plain {}",
        dup_block.len(),
        plain_bytes(&dup)
    );
}

/// A deterministic, compressible page of (int, varchar, date) rows with a
/// sprinkling of NULLs — the same shape the integration suite uses.
fn fixture_rows(n: usize) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Int((i % 50) as i64),
                if i % 11 == 0 {
                    Value::Null
                } else {
                    Value::Str(format!("cat{:02}", i % 7))
                },
                Value::Int(733_000 + (i % 30) as i64),
            ])
        })
        .collect()
}

fn fixture_dtypes() -> Vec<DataType> {
    vec![
        DataType::Int,
        DataType::Varchar { max_len: 8 },
        DataType::Date,
    ]
}

#[test]
fn page_round_trip_every_kind() {
    let rows = fixture_rows(300);
    let dtypes = fixture_dtypes();
    let dicts = build_dictionaries(&rows, &dtypes);
    for kind in [
        CompressionKind::None,
        CompressionKind::Row,
        CompressionKind::Page,
        CompressionKind::GlobalDict,
        CompressionKind::Rle,
    ] {
        let ctx = PageContext {
            dtypes: &dtypes,
            kind,
            global_dicts: (kind == CompressionKind::GlobalDict).then_some(dicts.as_slice()),
        };
        let encoded = encode_page(&rows, &ctx).unwrap();
        assert_eq!(decode_page(&encoded.bytes, &ctx).unwrap(), rows, "{kind}");
        assert_eq!(encoded.n_rows, rows.len(), "{kind}");
        assert!(encoded.uncompressed_bytes > 0, "{kind}");
        // Every real method must shrink this redundant page.
        if kind.is_compressed() {
            assert!(
                encoded.compression_fraction() < 1.0,
                "{kind}: cf={}",
                encoded.compression_fraction()
            );
        }
    }
}

#[test]
fn page_round_trips_empty_and_single_row() {
    let dtypes = fixture_dtypes();
    for rows in [Vec::new(), fixture_rows(1)] {
        for kind in [CompressionKind::None, CompressionKind::Page] {
            let ctx = PageContext {
                dtypes: &dtypes,
                kind,
                global_dicts: None,
            };
            let encoded = encode_page(&rows, &ctx).unwrap();
            assert_eq!(decode_page(&encoded.bytes, &ctx).unwrap(), rows, "{kind}");
        }
    }
}

#[test]
fn measured_index_size_is_consistent_across_kinds() {
    let rows = fixture_rows(2000);
    let dtypes = fixture_dtypes();
    let mut seen = Vec::new();
    for kind in [
        CompressionKind::None,
        CompressionKind::Row,
        CompressionKind::Page,
        CompressionKind::GlobalDict,
        CompressionKind::Rle,
    ] {
        let m = compressed_index_size(&rows, &dtypes, kind).unwrap();
        assert_eq!(m.n_rows, rows.len(), "{kind}");
        assert!(m.compressed_bytes > 0, "{kind}");
        assert!(m.compression_fraction() > 0.0, "{kind}");
        if kind.is_compressed() {
            assert!(
                m.compression_fraction() < 1.0,
                "{kind}: cf={} on redundant fixture",
                m.compression_fraction()
            );
        }
        seen.push((kind, m.compressed_bytes));
    }
    // PAGE (prefix + local dict on top of ROW) must beat plain ROW
    // suppression on this repetitive fixture.
    let bytes_of = |k: CompressionKind| seen.iter().find(|(kk, _)| *kk == k).unwrap().1;
    assert!(bytes_of(CompressionKind::Page) < bytes_of(CompressionKind::Row));
    assert!(bytes_of(CompressionKind::Row) < bytes_of(CompressionKind::None));
}

/// Decode possibly damaged page bytes every way the readers do: the whole
/// page, and every section through `decode_column` in full and for its
/// last position. Returns the row count of an `Ok` page decode.
fn decode_everything(bytes: &[u8], ctx: &PageContext<'_>) -> Result<usize> {
    if let Ok((n, sections)) = column_sections(bytes) {
        for (c, (sec, dtype)) in sections.iter().zip(ctx.dtypes).enumerate() {
            let n_nn = sec.n_non_null(n);
            for range in [0..n_nn, n_nn.saturating_sub(1)..n_nn] {
                let _ = decode_column(sec.block, sec.tag, dtype, ctx, c, n_nn, range, Ok);
            }
        }
    }
    decode_page(bytes, ctx).map(|rows| rows.len())
}

#[test]
fn corrupted_pages_decode_to_err_or_a_full_page_never_a_panic() {
    // No checksum yet, so a damaged page may decode to different values;
    // what must hold is Err-or-Ok, never a panic, and an Ok page has the
    // row count its (possibly damaged) header states.
    let rows = fixture_rows(40);
    assert!(rows.iter().any(|r| r.values[1].is_null()));
    let dtypes = fixture_dtypes();
    let dicts = build_dictionaries(&rows, &dtypes);
    let header_rows = |b: &[u8]| u16::from_le_bytes([b[0], b[1]]) as usize;
    for kind in [
        CompressionKind::None,
        CompressionKind::Row,
        CompressionKind::Page,
        CompressionKind::GlobalDict,
        CompressionKind::Rle,
    ] {
        let ctx = PageContext {
            dtypes: &dtypes,
            kind,
            global_dicts: (kind == CompressionKind::GlobalDict).then_some(dicts.as_slice()),
        };
        let page = encode_page(&rows, &ctx).unwrap().bytes;
        assert_eq!(
            decode_everything(&page, &ctx).unwrap(),
            rows.len(),
            "{kind}"
        );
        for cut in 0..page.len() {
            if let Ok(n) = decode_everything(&page[..cut], &ctx) {
                assert_eq!(n, header_rows(&page[..cut]), "{kind} cut at {cut}");
            }
        }
        let mut damaged = page.clone();
        for bit in 0..page.len() * 8 {
            damaged[bit / 8] ^= 1 << (bit % 8);
            if let Ok(n) = decode_everything(&damaged, &ctx) {
                assert_eq!(n, header_rows(&damaged), "{kind} bit {bit} flipped");
            }
            damaged[bit / 8] ^= 1 << (bit % 8);
        }
    }
}
