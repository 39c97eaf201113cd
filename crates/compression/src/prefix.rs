//! Per-page prefix suppression.
//!
//! SQL Server PAGE compression stores, per column per page, an *anchor*
//! value; each value then records how many leading bytes it shares with the
//! anchor plus its remaining suffix (§2.1). We pick the median value of the
//! page as the anchor — on sorted index pages values cluster, so the median
//! maximizes total shared prefix without an O(n²) search.
//!
//! One value against the anchor is `[match_len: u8][suffix bytes]`. The
//! PAGE block stores the anchor once, ahead of its page-local dictionary
//! (see `page`).

use cadb_common::{CadbError, Result};

/// Pick the anchor value for a page: the median by byte-string order.
/// On sorted index pages values cluster, so the median maximizes total
/// shared prefix without an O(n²) search.
pub fn choose_anchor(values: &[Vec<u8>]) -> Vec<u8> {
    if values.is_empty() {
        return Vec::new();
    }
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[a].cmp(&values[b]));
    values[idx[idx.len() / 2]].clone()
}

/// Prefix-encode a single value against an anchor:
/// `[match_len: u8][suffix bytes]`.
pub fn encode_one(anchor: &[u8], v: &[u8]) -> Vec<u8> {
    let m = common_prefix_len(anchor, v).min(255);
    let mut out = Vec::with_capacity(1 + v.len() - m);
    out.push(m as u8);
    out.extend_from_slice(&v[m..]);
    out
}

/// Invert [`encode_one`].
pub fn decode_one(anchor: &[u8], enc: &[u8]) -> Result<Vec<u8>> {
    let m = *enc
        .first()
        .ok_or_else(|| CadbError::Storage("empty prefix-encoded value".into()))?
        as usize;
    if m > anchor.len() {
        return Err(CadbError::Storage("prefix match exceeds anchor".into()));
    }
    let mut v = Vec::with_capacity(m + enc.len() - 1);
    v.extend_from_slice(&anchor[..m]);
    v.extend_from_slice(&enc[1..]);
    Ok(v)
}

fn common_prefix_len(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b.iter()).take_while(|(x, y)| x == y).count()
}

pub(crate) fn read_u16(block: &[u8], pos: &mut usize) -> Result<u16> {
    let b = block
        .get(*pos..*pos + 2)
        .ok_or_else(|| CadbError::Storage("block truncated reading u16".into()))?;
    *pos += 2;
    Ok(u16::from_le_bytes([b[0], b[1]]))
}

pub(crate) fn read_u32(block: &[u8], pos: &mut usize) -> Result<u32> {
    let b = block
        .get(*pos..*pos + 4)
        .ok_or_else(|| CadbError::Storage("block truncated reading u32".into()))?;
    *pos += 4;
    Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
}

pub(crate) fn read_slice<'a>(block: &'a [u8], pos: &mut usize, len: usize) -> Result<&'a [u8]> {
    let s = block
        .get(*pos..*pos + len)
        .ok_or_else(|| CadbError::Storage("block truncated reading slice".into()))?;
    *pos += len;
    Ok(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(vals: &[Vec<u8>]) -> usize {
        let anchor = choose_anchor(vals);
        let mut encoded = 0;
        for v in vals {
            let enc = encode_one(&anchor, v);
            assert_eq!(&decode_one(&anchor, &enc).unwrap(), v);
            encoded += enc.len();
        }
        encoded
    }

    #[test]
    fn round_trip_shared_prefixes() {
        let vals: Vec<Vec<u8>> = ["aaabc", "aaacd", "aaade", "aaabc"]
            .iter()
            .map(|s| s.as_bytes().to_vec())
            .collect();
        // The paper's example: {aaabc, aaacd, aaade} share "aaa", so each
        // value stores one match byte plus at most a two-byte suffix.
        assert!(round_trip(&vals) <= 3 * vals.len());
    }

    #[test]
    fn disjoint_and_empty_values_still_round_trip() {
        let vals: Vec<Vec<u8>> = vec![b"xyz".to_vec(), b"abc".to_vec(), vec![], b"q".to_vec()];
        round_trip(&vals);
        round_trip(&[]);
    }

    #[test]
    fn malformed_values_error() {
        assert!(decode_one(b"abc", &[]).is_err());
        assert!(decode_one(b"abc", &[4, b'x']).is_err());
        assert_eq!(decode_one(b"abc", &[3]).unwrap(), b"abc");
    }

    proptest! {
        #[test]
        fn prop_round_trip(vals in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40), 0..50)) {
            round_trip(&vals);
        }

        #[test]
        fn prop_decode_errors_instead_of_panicking(
            anchor in proptest::collection::vec(any::<u8>(), 0..8),
            enc in proptest::collection::vec(any::<u8>(), 0..12),
        ) {
            match decode_one(&anchor, &enc) {
                Ok(v) => {
                    let m = enc[0] as usize;
                    prop_assert!(m <= anchor.len());
                    prop_assert_eq!(&v[..m], &anchor[..m]);
                    prop_assert_eq!(&v[m..], &enc[1..]);
                }
                Err(_) => prop_assert!(enc.first().is_none_or(|&m| m as usize > anchor.len())),
            }
        }

        #[test]
        fn prop_identical_values_compress(v in proptest::collection::vec(any::<u8>(), 8..32),
                                          n in 4usize..40) {
            // All-identical values: every value collapses to a full match
            // against the anchor, one byte each.
            let vals: Vec<Vec<u8>> = (0..n).map(|_| v.clone()).collect();
            prop_assert_eq!(round_trip(&vals), n);
        }
    }
}
