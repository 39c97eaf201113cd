//! Per-page local dictionary encoding.
//!
//! The second stage of PAGE compression (§2.1): frequently occurring values
//! on a page are replaced with small pointers into a page-local dictionary.
//! Because the dictionary is rebuilt per page, the achieved size depends on
//! how values are clustered across pages — this is the canonical ORD-DEP
//! method and the reason the paper's `ColExt` deduction needs the
//! fragmentation penalty (§4.2).
//!
//! Block layout:
//! ```text
//! [n_dict: u16]  n_dict × ( [len: u16][bytes] )
//! [n: u16]       n × token(u16)   -- 0xFFFF = literal escape,
//!                                    followed by [len: u16][bytes]
//! ```
//!
//! A value enters the dictionary only when doing so shrinks the block:
//! with frequency `f` and encoded length `L`, literals cost `f·(L+2)` while
//! the dictionary costs `(L+2) + 2f`; we require `f ≥ 2` and positive gain.

use crate::prefix::{read_slice, read_u16};
use cadb_common::{CadbError, Result};
use std::collections::HashMap;

/// Token reserved to mark an inline literal.
const LITERAL: u16 = 0xFFFF;
/// Maximum number of dictionary entries per page.
const MAX_DICT: usize = 0xFFFE;

/// Encode byte-strings with a page-local dictionary.
pub fn encode(values: &[Vec<u8>]) -> Vec<u8> {
    // Count frequencies preserving first-seen order for determinism.
    let mut freq: HashMap<&[u8], u32> = HashMap::new();
    let mut order: Vec<&[u8]> = Vec::new();
    for v in values {
        let e = freq.entry(v.as_slice()).or_insert(0);
        if *e == 0 {
            order.push(v.as_slice());
        }
        *e += 1;
    }
    // Admit profitable entries: f·(L+2) > (L+2) + 2f  ⇔  (f−1)(L+2) > 2f.
    let mut dict: Vec<&[u8]> = order
        .into_iter()
        .filter(|v| {
            let f = freq[*v] as usize;
            let l = v.len() + 2;
            f >= 2 && (f - 1) * l > 2 * f
        })
        .collect();
    // Most frequent first so the hottest values stay in even if truncated.
    dict.sort_by(|a, b| freq[b].cmp(&freq[a]).then_with(|| a.cmp(b)));
    dict.truncate(MAX_DICT);
    let token_of: HashMap<&[u8], u16> = dict
        .iter()
        .enumerate()
        .map(|(i, v)| (*v, i as u16))
        .collect();

    let mut out = Vec::new();
    out.extend_from_slice(&(dict.len() as u16).to_le_bytes());
    for d in &dict {
        out.extend_from_slice(&(d.len() as u16).to_le_bytes());
        out.extend_from_slice(d);
    }
    out.extend_from_slice(&(values.len() as u16).to_le_bytes());
    for v in values {
        match token_of.get(v.as_slice()) {
            Some(tok) => out.extend_from_slice(&tok.to_le_bytes()),
            None => {
                out.extend_from_slice(&LITERAL.to_le_bytes());
                out.extend_from_slice(&(v.len() as u16).to_le_bytes());
                out.extend_from_slice(v);
            }
        }
    }
    out
}

/// One token of a local-dictionary block: either a pointer into the
/// page-local dictionary or an inline literal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// Index into the dictionary returned alongside the tokens.
    Code(u16),
    /// A value stored inline because the dictionary did not pay for it.
    Literal(Vec<u8>),
}

/// Decode a local-dictionary block into its `(dictionary, tokens)` parts
/// **without** expanding tokens to values; `page::decode_column` builds on
/// it, so a dictionary entry is expanded once however many rows use it.
pub fn decode_parts(block: &[u8]) -> Result<(Vec<Vec<u8>>, Vec<Token>)> {
    let mut pos = 0usize;
    let n_dict = read_u16(block, &mut pos)? as usize;
    let mut dict = Vec::with_capacity(n_dict);
    for _ in 0..n_dict {
        let len = read_u16(block, &mut pos)? as usize;
        dict.push(read_slice(block, &mut pos, len)?.to_vec());
    }
    let n = read_u16(block, &mut pos)? as usize;
    let mut tokens = Vec::with_capacity(n);
    for _ in 0..n {
        let tok = read_u16(block, &mut pos)?;
        if tok == LITERAL {
            let len = read_u16(block, &mut pos)? as usize;
            tokens.push(Token::Literal(read_slice(block, &mut pos, len)?.to_vec()));
        } else {
            if tok as usize >= dict.len() {
                return Err(CadbError::Storage(format!(
                    "dictionary token {tok} out of range"
                )));
            }
            tokens.push(Token::Code(tok));
        }
    }
    Ok((dict, tokens))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::tag;
    use crate::page::tests::decode_bytes;
    use crate::prefix::encode_one;
    use proptest::prelude::*;

    fn bytes(s: &str) -> Vec<u8> {
        s.as_bytes().to_vec()
    }

    /// Round trip through the page decoder: a PAGE block with an empty
    /// anchor, so every value is prefix-encoded as `[0][bytes]`.
    fn round_trip(vals: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let prefixed: Vec<Vec<u8>> = vals.iter().map(|v| encode_one(&[], v)).collect();
        let mut block = 0u16.to_le_bytes().to_vec();
        block.extend(encode(&prefixed));
        decode_bytes(&block, tag::PAGE, None, vals.len()).unwrap()
    }

    #[test]
    fn paper_example_round_trip() {
        // Page {AA, BB, BB, AA} → dictionary {AA, BB} + tokens (§2.1).
        let vals = vec![bytes("AA"), bytes("BB"), bytes("BB"), bytes("AA")];
        assert_eq!(round_trip(&vals), vals);
    }

    #[test]
    fn repeated_long_values_compress() {
        let v = bytes("a-rather-long-repeated-string");
        let vals: Vec<Vec<u8>> = (0..50).map(|_| v.clone()).collect();
        let block = encode(&vals);
        let plain: usize = vals.iter().map(|x| x.len()).sum();
        assert!(block.len() < plain / 5);
        assert_eq!(round_trip(&vals), vals);
    }

    #[test]
    fn unique_values_skip_dictionary() {
        let vals: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 4]).collect();
        let block = encode(&vals);
        // No value repeats, so the dictionary must be empty.
        assert_eq!(u16::from_le_bytes([block[0], block[1]]), 0);
        assert_eq!(round_trip(&vals), vals);
    }

    #[test]
    fn short_repeats_not_admitted_when_unprofitable() {
        // f = 2, L+2 = 3: (f−1)·3 = 3 ≤ 2f = 4 → not profitable.
        let vals = vec![bytes("x"), bytes("x")];
        let block = encode(&vals);
        assert_eq!(u16::from_le_bytes([block[0], block[1]]), 0);
        assert_eq!(round_trip(&vals), vals);
    }

    #[test]
    fn empty_input() {
        assert!(round_trip(&[]).is_empty());
    }

    #[test]
    fn decode_parts_exposes_codes_and_literals() {
        let hot = bytes("a-long-repeated-value");
        let mut vals: Vec<Vec<u8>> = (0..10).map(|_| hot.clone()).collect();
        vals.push(bytes("once"));
        let (dict, tokens) = decode_parts(&encode(&vals)).unwrap();
        assert_eq!(dict, vec![hot.clone()]);
        assert_eq!(tokens.len(), 11);
        assert_eq!(
            tokens
                .iter()
                .filter(|t| matches!(t, Token::Code(0)))
                .count(),
            10
        );
        assert_eq!(tokens[10], Token::Literal(bytes("once")));
    }

    #[test]
    fn corrupt_token_errors() {
        let vals = vec![bytes("aaaa"); 8];
        let mut block = encode(&vals);
        // Point the first token past the dictionary (not the literal escape).
        let tok_pos = block.len() - 8 * 2;
        block[tok_pos] = 0x42;
        block[tok_pos + 1] = 0x00;
        assert!(decode_parts(&block).is_err());
    }

    proptest! {
        #[test]
        fn prop_round_trip(vals in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..24), 0..80)) {
            prop_assert_eq!(round_trip(&vals), vals);
        }

        #[test]
        fn prop_more_duplicates_never_bigger(
            base in proptest::collection::vec(any::<u8>(), 8..16),
            n in 8usize..64,
        ) {
            // A page of n copies must encode no larger than n distinct values
            // of the same length.
            let dup: Vec<Vec<u8>> = (0..n).map(|_| base.clone()).collect();
            let mut distinct: Vec<Vec<u8>> = Vec::with_capacity(n);
            for i in 0..n {
                let mut v = base.clone();
                v[0] = v[0].wrapping_add(i as u8);
                if i >= 256 { v[1] = v[1].wrapping_add(1); }
                distinct.push(v);
            }
            prop_assert!(encode(&dup).len() <= encode(&distinct).len());
        }
    }
}
