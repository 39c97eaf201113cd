//! Global (index-wide) dictionary encoding.
//!
//! One dictionary per column across *all* pages of an index, as in DB2 LUW
//! (§2.1). Because the dictionary is shared, the compressed size of the data
//! pages does not depend on tuple order — the second ORD-IND method in the
//! paper's taxonomy. The dictionary itself is stored once and its size is
//! charged to the index by [`crate::analyze`].
//!
//! Page block layout (per column):
//! ```text
//! [n: u16][id_width: u8]  n × ( id: id_width little-endian bytes )
//! ```

use crate::prefix::{read_slice, read_u16};
use cadb_common::{CadbError, Result};
use std::collections::HashMap;

/// An immutable, index-wide dictionary for one column.
#[derive(Debug, Clone, Default)]
pub struct GlobalDictionary {
    entries: Vec<Vec<u8>>,
    ids: HashMap<Vec<u8>, u32>,
}

impl GlobalDictionary {
    /// Build a dictionary over every distinct value of a column.
    pub fn build<'a>(values: impl IntoIterator<Item = &'a [u8]>) -> Self {
        let mut dict = GlobalDictionary::default();
        for v in values {
            dict.intern(v);
        }
        dict
    }

    /// Intern a value, returning its id.
    pub fn intern(&mut self, v: &[u8]) -> u32 {
        if let Some(id) = self.ids.get(v) {
            return *id;
        }
        let id = self.entries.len() as u32;
        self.entries.push(v.to_vec());
        self.ids.insert(v.to_vec(), id);
        id
    }

    /// Id of a value, if present.
    pub fn id_of(&self, v: &[u8]) -> Option<u32> {
        self.ids.get(v).copied()
    }

    /// Value for an id.
    pub fn entry(&self, id: u32) -> Option<&[u8]> {
        self.entries.get(id as usize).map(|v| v.as_slice())
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if the dictionary has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Bytes needed per id reference given the dictionary cardinality.
    pub fn id_width(&self) -> usize {
        match self.entries.len() {
            0..=0xFF => 1,
            0x100..=0xFFFF => 2,
            0x10000..=0xFF_FFFF => 3,
            _ => 4,
        }
    }

    /// On-disk footprint of the dictionary itself: per entry a 2-byte length
    /// plus the bytes.
    pub fn storage_bytes(&self) -> usize {
        self.entries.iter().map(|e| e.len() + 2).sum::<usize>() + 4
    }
}

/// Encode one page's column values as dictionary ids.
///
/// Every value must already be interned; returns an error otherwise (the
/// caller builds the dictionary over the full column first).
pub fn encode(values: &[Vec<u8>], dict: &GlobalDictionary) -> Result<Vec<u8>> {
    let w = dict.id_width();
    let mut out = Vec::with_capacity(3 + values.len() * w);
    out.extend_from_slice(&(values.len() as u16).to_le_bytes());
    out.push(w as u8);
    for v in values {
        let id = dict
            .id_of(v)
            .ok_or_else(|| CadbError::Internal("value missing from global dictionary".into()))?;
        out.extend_from_slice(&id.to_le_bytes()[..w]);
    }
    Ok(out)
}

/// Decode a page's column block into raw dictionary ids, **without**
/// touching the dictionary; `page::decode_column` builds on it, so an
/// entry is copied once however many rows use it.
pub fn decode_ids(block: &[u8]) -> Result<Vec<u32>> {
    let mut pos = 0usize;
    let n = read_u16(block, &mut pos)? as usize;
    let w = *block
        .get(pos)
        .ok_or_else(|| CadbError::Storage("gdict block truncated".into()))? as usize;
    pos += 1;
    if !(1..=4).contains(&w) {
        return Err(CadbError::Storage(format!("bad gdict id width {w}")));
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let raw = read_slice(block, &mut pos, w)?;
        let mut id_bytes = [0u8; 4];
        id_bytes[..w].copy_from_slice(raw);
        out.push(u32::from_le_bytes(id_bytes));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::tag;
    use crate::page::tests::decode_bytes;
    use proptest::prelude::*;

    fn decode(block: &[u8], dict: &GlobalDictionary, n: usize) -> Result<Vec<Vec<u8>>> {
        decode_bytes(block, tag::GDICT, Some(std::slice::from_ref(dict)), n)
    }

    #[test]
    fn build_and_round_trip() {
        let vals: Vec<Vec<u8>> = ["AA", "BB", "BB", "AA"]
            .iter()
            .map(|s| s.as_bytes().to_vec())
            .collect();
        let dict = GlobalDictionary::build(vals.iter().map(|v| v.as_slice()));
        assert_eq!(dict.len(), 2);
        let block = encode(&vals, &dict).unwrap();
        assert_eq!(decode(&block, &dict, vals.len()).unwrap(), vals);
        // 4 values × 1-byte ids + 3-byte header.
        assert_eq!(block.len(), 7);
    }

    #[test]
    fn id_width_scales() {
        let mut dict = GlobalDictionary::default();
        for i in 0..300u32 {
            dict.intern(&i.to_le_bytes());
        }
        assert_eq!(dict.id_width(), 2);
        assert_eq!(dict.len(), 300);
    }

    #[test]
    fn same_size_regardless_of_order() {
        // ORD-IND: page payload depends only on the multiset of values.
        let a: Vec<Vec<u8>> = (0..100).map(|i| vec![(i % 4) as u8; 6]).collect();
        let mut b = a.clone();
        b.sort();
        let dict = GlobalDictionary::build(a.iter().map(|v| v.as_slice()));
        assert_eq!(
            encode(&a, &dict).unwrap().len(),
            encode(&b, &dict).unwrap().len()
        );
    }

    #[test]
    fn decode_ids_round_trips_through_dictionary() {
        let vals: Vec<Vec<u8>> = (0..50).map(|i| vec![(i % 3) as u8; 4]).collect();
        let dict = GlobalDictionary::build(vals.iter().map(|v| v.as_slice()));
        let block = encode(&vals, &dict).unwrap();
        let ids = decode_ids(&block).unwrap();
        assert_eq!(ids.len(), 50);
        assert!(ids.iter().all(|&id| id < dict.len() as u32));
        let via_ids: Vec<Vec<u8>> = ids
            .iter()
            .map(|&id| dict.entry(id).unwrap().to_vec())
            .collect();
        assert_eq!(via_ids, vals);
    }

    #[test]
    fn missing_value_is_error() {
        let dict = GlobalDictionary::build([b"x".as_slice()]);
        assert!(encode(&[b"y".to_vec()], &dict).is_err());
    }

    #[test]
    fn storage_bytes_counts_entries() {
        let dict = GlobalDictionary::build([b"abc".as_slice(), b"de".as_slice()]);
        assert_eq!(dict.storage_bytes(), (3 + 2) + (2 + 2) + 4);
    }

    proptest! {
        #[test]
        fn prop_round_trip(vals in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..12), 0..120)) {
            let dict = GlobalDictionary::build(vals.iter().map(|v| v.as_slice()));
            let block = encode(&vals, &dict).unwrap();
            prop_assert_eq!(decode(&block, &dict, vals.len()).unwrap(), vals);
        }
    }
}
