//! Run-length encoding (RLE).
//!
//! Collapses consecutive equal values within a page into `(run_len, value)`
//! pairs. Extremely effective on sorted leading columns, nearly useless on
//! fragmented ones — the textbook ORD-DEP method, included because the paper
//! notes the ColExt fragmentation model "is also applicable to RLE" (§4.2)
//! and flags RLE-heavy column stores as future work (§8).
//!
//! Block layout:
//! ```text
//! [n_runs: u16]  n_runs × ( [run_len: u16][val_len: u16][bytes] )
//! ```

use crate::prefix::{read_slice, read_u16};
use cadb_common::Result;

/// Maximum run length per entry (longer runs split).
const MAX_RUN: usize = u16::MAX as usize;

/// Encode byte-strings with run-length encoding.
pub fn encode(values: &[Vec<u8>]) -> Vec<u8> {
    let mut runs: Vec<(usize, &[u8])> = Vec::new();
    for v in values {
        match runs.last_mut() {
            Some((len, val)) if *val == v.as_slice() && *len < MAX_RUN => *len += 1,
            _ => runs.push((1, v.as_slice())),
        }
    }
    let mut out = Vec::new();
    out.extend_from_slice(&(runs.len() as u16).to_le_bytes());
    for (len, val) in runs {
        out.extend_from_slice(&(len as u16).to_le_bytes());
        out.extend_from_slice(&(val.len() as u16).to_le_bytes());
        out.extend_from_slice(val);
    }
    out
}

/// Iterate the `(run_len, value)` pairs of an RLE block **without**
/// materializing the repeated values; `page::decode_column` builds on it.
pub fn runs(block: &[u8]) -> Result<RunIter<'_>> {
    let mut pos = 0usize;
    let n_runs = read_u16(block, &mut pos)? as usize;
    Ok(RunIter {
        block,
        pos,
        remaining: n_runs,
    })
}

/// Borrowing iterator over the runs of an RLE block (see [`runs`]).
#[derive(Debug, Clone)]
pub struct RunIter<'a> {
    block: &'a [u8],
    pos: usize,
    remaining: usize,
}

impl<'a> Iterator for RunIter<'a> {
    type Item = Result<(usize, &'a [u8])>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        let item = (|| {
            let run_len = read_u16(self.block, &mut self.pos)? as usize;
            let val_len = read_u16(self.block, &mut self.pos)? as usize;
            let val = read_slice(self.block, &mut self.pos, val_len)?;
            Ok((run_len, val))
        })();
        if item.is_err() {
            self.remaining = 0; // corrupt block: stop after reporting
        }
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (0, Some(self.remaining))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::tag;
    use crate::page::tests::decode_bytes;
    use proptest::prelude::*;

    fn b(s: &str) -> Vec<u8> {
        s.as_bytes().to_vec()
    }

    fn decode(block: &[u8], n: usize) -> Result<Vec<Vec<u8>>> {
        decode_bytes(block, tag::RLE, None, n)
    }

    #[test]
    fn runs_collapse() {
        let vals = vec![b("a"), b("a"), b("a"), b("b"), b("a")];
        let block = encode(&vals);
        assert_eq!(decode(&block, vals.len()).unwrap(), vals);
        // 3 runs: aaa, b, a.
        assert_eq!(u16::from_le_bytes([block[0], block[1]]), 3);
    }

    #[test]
    fn sorted_column_compresses_hard() {
        let mut vals = Vec::new();
        for v in 0..4u8 {
            for _ in 0..500 {
                vals.push(vec![v; 8]);
            }
        }
        let block = encode(&vals);
        let plain: usize = vals.iter().map(|x| x.len()).sum();
        assert!(block.len() * 50 < plain, "{} vs {plain}", block.len());
        assert_eq!(decode(&block, vals.len()).unwrap(), vals);
    }

    #[test]
    fn order_dependence_is_real() {
        // Same multiset, different order → different size. This is the
        // property that makes RLE ORD-DEP.
        let sorted: Vec<Vec<u8>> = (0..100).map(|i| vec![(i / 50) as u8; 8]).collect();
        let interleaved: Vec<Vec<u8>> = (0..100).map(|i| vec![(i % 2) as u8; 8]).collect();
        assert!(encode(&sorted).len() < encode(&interleaved).len());
    }

    #[test]
    fn long_runs_split() {
        let vals: Vec<Vec<u8>> = (0..70_000).map(|_| b("x")).collect();
        let block = encode(&vals);
        assert_eq!(decode(&block, 70_000).unwrap().len(), 70_000);
        // One value short of the runs: rejected, not expanded.
        assert!(decode(&block, 69_999).is_err());
    }

    #[test]
    fn empty_input() {
        assert!(decode(&encode(&[]), 0).unwrap().is_empty());
    }

    #[test]
    fn run_iterator_matches_decode() {
        let vals = vec![b("a"), b("a"), b("bb"), b("bb"), b("bb"), b("c")];
        let block = encode(&vals);
        let collected: Vec<(usize, Vec<u8>)> = runs(&block)
            .unwrap()
            .map(|r| r.map(|(n, v)| (n, v.to_vec())))
            .collect::<Result<_>>()
            .unwrap();
        assert_eq!(
            collected,
            vec![(2, b("a")), (3, b("bb")), (1, b("c"))],
            "run structure"
        );
        let total: usize = collected.iter().map(|(n, _)| n).sum();
        assert_eq!(total, vals.len());
    }

    #[test]
    fn run_iterator_stops_on_corrupt_block() {
        let vals = vec![b("abc"); 4];
        let mut block = encode(&vals);
        block.truncate(block.len() - 2); // chop the value tail
        let results: Vec<_> = runs(&block).unwrap().collect();
        assert_eq!(results.len(), 1);
        assert!(results[0].is_err());
    }

    proptest! {
        #[test]
        fn prop_round_trip(vals in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..8), 0..200)) {
            prop_assert_eq!(decode(&encode(&vals), vals.len()).unwrap(), vals);
        }
    }
}
