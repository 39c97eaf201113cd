//! The write-ahead-log segment format.
//!
//! A segment is a flat byte sequence of self-delimiting *frames*:
//!
//! ```text
//! [payload_len u32 LE][crc32 u32 LE][frame_type u8][lsn u64 LE][payload …]
//! ```
//!
//! The CRC covers everything after it (type byte, LSN, payload), so any
//! torn or bit-flipped tail is detected. Replay follows the classic
//! ARIES-style discipline restricted to redo:
//!
//! * frames are applied in order until the first frame that is incomplete
//!   (*torn tail*) or fails its CRC (*partial frame*) — everything from
//!   that offset on is truncated, never applied;
//! * a frame whose LSN was already seen is skipped (*duplicate frame*,
//!   e.g. a retried append that was made durable twice).
//!
//! The byte format lives in the storage crate — next to the page formats —
//! so the store (`cadb_exec::store`) and the fault-injection tests share
//! one definition of what a sync point is: the segment records the byte
//! offset after every appended frame, and a crash can be simulated by
//! cutting the segment at (or anywhere between) those offsets.

use cadb_common::bytes::{get_u32, get_u64, put_u32, put_u64};
use cadb_common::{CadbError, Result};

/// Fixed bytes before a frame's payload: length, CRC, type, LSN.
pub const FRAME_HEADER_BYTES: usize = 4 + 4 + 1 + 8;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameType {
    /// One committed transaction's effects.
    Commit,
    /// A checkpoint marker: every LSN ≤ this frame's is folded into the
    /// checkpointed structures; replay may start after it.
    Checkpoint,
}

impl FrameType {
    fn to_byte(self) -> u8 {
        match self {
            FrameType::Commit => 1,
            FrameType::Checkpoint => 2,
        }
    }

    fn from_byte(b: u8) -> Result<FrameType> {
        match b {
            1 => Ok(FrameType::Commit),
            2 => Ok(FrameType::Checkpoint),
            b => Err(CadbError::Storage(format!("WAL: unknown frame type {b}"))),
        }
    }
}

/// One decoded WAL frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalFrame {
    /// Kind of record.
    pub frame_type: FrameType,
    /// Log sequence number — strictly increasing per committed frame.
    pub lsn: u64,
    /// Frame body (commit frames: the byte-codec'd effects).
    pub payload: Vec<u8>,
}

/// CRC-32 (IEEE 802.3 polynomial, reflected), bitwise — no table needed
/// for the frame sizes a WAL sees.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Encode one frame into its segment bytes.
pub fn encode_frame(frame: &WalFrame) -> Vec<u8> {
    let mut body = Vec::with_capacity(1 + 8 + frame.payload.len());
    body.push(frame.frame_type.to_byte());
    put_u64(&mut body, frame.lsn);
    body.extend_from_slice(&frame.payload);
    let mut out = Vec::with_capacity(8 + body.len());
    put_u32(&mut out, frame.payload.len() as u32);
    put_u32(&mut out, crc32(&body));
    out.extend_from_slice(&body);
    out
}

/// An in-memory WAL segment: append-only bytes plus the offset after each
/// durably appended frame (the *sync points* fault injection cuts at).
#[derive(Debug, Default, Clone)]
pub struct WalSegment {
    bytes: Vec<u8>,
    sync_points: Vec<usize>,
}

impl WalSegment {
    /// Empty segment.
    pub fn new() -> Self {
        WalSegment::default()
    }

    /// Append one frame; returns the sync point (byte offset after it).
    pub fn append(&mut self, frame: &WalFrame) -> usize {
        self.bytes.extend_from_slice(&encode_frame(frame));
        let point = self.bytes.len();
        self.sync_points.push(point);
        point
    }

    /// Append a batch of frames as **one coalesced durable write**: all
    /// frame bytes go in back to back and a single sync point is recorded
    /// after the last — the group-commit discipline, where one fsync makes
    /// a whole batch durable and a crash can only land between batches
    /// (or tear the batch's tail, which replay truncates frame by frame).
    /// Returns the sync point. Appending an empty batch records nothing.
    pub fn append_batch(&mut self, frames: &[WalFrame]) -> usize {
        if frames.is_empty() {
            return self.bytes.len();
        }
        for frame in frames {
            self.bytes.extend_from_slice(&encode_frame(frame));
        }
        let point = self.bytes.len();
        self.sync_points.push(point);
        point
    }

    /// Drop every byte before `offset` (which must be a frame boundary —
    /// in practice the start offset of a checkpoint marker frame): the
    /// checkpoint-anchored truncation that keeps the log bounded. Sync
    /// points at or before the cut disappear (a point *at* the cut would
    /// be the new segment's degenerate empty prefix); the rest shift down.
    /// Returns the number of bytes dropped.
    pub fn truncate_head(&mut self, offset: usize) -> usize {
        let offset = offset.min(self.bytes.len());
        self.bytes.drain(..offset);
        self.sync_points.retain(|&p| p > offset);
        for p in &mut self.sync_points {
            *p -= offset;
        }
        offset
    }

    /// The raw segment bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Byte offsets after each appended frame, in append order.
    pub fn sync_points(&self) -> &[usize] {
        &self.sync_points
    }

    /// Number of appended frames.
    pub fn n_frames(&self) -> usize {
        self.sync_points.len()
    }
}

/// The **global commit-order record** of a sharded log set: the payload of
/// one `Commit` frame in the *order log* that stitches a committed
/// statement's per-shard WAL frames back into the single total order.
///
/// A sharded commit splits its effects by the partitioning policy: every
/// participating shard appends one frame (its sub-effects, under a
/// shard-local LSN) to its own segment, then the order log appends this
/// record under the **global** LSN. The record carries
///
/// * which `(shard, shard-local LSN)` frames the commit is made of, and
/// * the *route bytes*: for every appended / rewritten / deleted row of
///   the original statement, in original order, the shard it was routed
///   to — so recovery can re-interleave the per-shard sub-effects into
///   exactly the bytes the monolithic store would have logged.
///
/// A commit is durable **iff its order record is durable and every frame
/// it references is**; the order append is the commit point (shard
/// segments sync first). Recovery that finds an order record referencing
/// a missing shard frame discards that commit and everything after it —
/// the total order admits no gaps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitOrderRecord {
    /// Raw id of the table the statement wrote.
    pub table: u32,
    /// `(shard, shard-local LSN)` per participating shard, ascending by
    /// shard. Empty for a commit that wrote no rows.
    pub entries: Vec<(u32, u64)>,
    /// Shard id per appended row of the original statement, in order.
    pub appended_routes: Vec<u8>,
    /// Shard id per rewritten row of the original statement, in order.
    pub rewritten_routes: Vec<u8>,
    /// Shard id per deleted row of the original statement, in order.
    pub deleted_routes: Vec<u8>,
}

impl CommitOrderRecord {
    /// Encode into an order-log frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(
            4 + 4
                + self.entries.len() * 12
                + 12
                + self.appended_routes.len()
                + self.rewritten_routes.len()
                + self.deleted_routes.len(),
        );
        put_u32(&mut out, self.table);
        put_u32(&mut out, self.entries.len() as u32);
        for (shard, lsn) in &self.entries {
            put_u32(&mut out, *shard);
            put_u64(&mut out, *lsn);
        }
        for routes in [
            &self.appended_routes,
            &self.rewritten_routes,
            &self.deleted_routes,
        ] {
            put_u32(&mut out, routes.len() as u32);
            out.extend_from_slice(routes);
        }
        out
    }

    /// Decode an order-log frame payload; rejects trailing bytes and
    /// entries out of shard order (both would mean a corrupt record the
    /// CRC happened to miss).
    pub fn decode(bytes: &[u8]) -> Result<CommitOrderRecord> {
        let mut p = 0usize;
        let table = get_u32(bytes, &mut p)?;
        let n_entries = get_u32(bytes, &mut p)? as usize;
        let mut entries = Vec::with_capacity(n_entries.min(1024));
        for _ in 0..n_entries {
            let shard = get_u32(bytes, &mut p)?;
            let lsn = get_u64(bytes, &mut p)?;
            if entries.last().is_some_and(|(s, _)| *s >= shard) {
                return Err(CadbError::Storage(
                    "order record: shard entries out of order".to_string(),
                ));
            }
            entries.push((shard, lsn));
        }
        let mut routes = || -> Result<Vec<u8>> {
            let n = get_u32(bytes, &mut p)? as usize;
            let end = p
                .checked_add(n)
                .filter(|e| *e <= bytes.len())
                .ok_or_else(|| {
                    CadbError::Storage("order record: truncated route bytes".to_string())
                })?;
            let section = bytes[p..end].to_vec();
            p = end;
            Ok(section)
        };
        let appended_routes = routes()?;
        let rewritten_routes = routes()?;
        let deleted_routes = routes()?;
        if p != bytes.len() {
            return Err(CadbError::Storage(format!(
                "order record: {} trailing bytes",
                bytes.len() - p
            )));
        }
        Ok(CommitOrderRecord {
            table,
            entries,
            appended_routes,
            rewritten_routes,
            deleted_routes,
        })
    }
}

/// The outcome of scanning a (possibly torn) segment.
#[derive(Debug)]
pub struct WalReplay {
    /// Frames to apply, in log order, duplicates already dropped.
    pub frames: Vec<WalFrame>,
    /// Bytes of unusable tail that were truncated (0 for a clean segment).
    pub truncated_bytes: usize,
    /// Frames dropped because their LSN was already applied.
    pub duplicates_skipped: usize,
}

/// Scan a segment's bytes into applicable frames, truncating the tail at
/// the first incomplete or corrupt frame and skipping duplicate LSNs.
pub fn replay(bytes: &[u8]) -> WalReplay {
    let mut frames: Vec<WalFrame> = Vec::new();
    let mut duplicates_skipped = 0usize;
    let mut off = 0usize;
    while off < bytes.len() {
        let Some((frame, frame_end)) = frame_at(bytes, off) else {
            break; // torn or corrupt tail — truncate from here
        };
        if frames.iter().any(|f| f.lsn == frame.lsn) {
            duplicates_skipped += 1;
        } else {
            frames.push(frame);
        }
        off = frame_end;
    }
    WalReplay {
        frames,
        truncated_bytes: bytes.len() - off,
        duplicates_skipped,
    }
}

/// The complete, CRC-valid frame starting at `off` and its end offset,
/// else None (a torn or corrupt frame).
fn frame_at(bytes: &[u8], off: usize) -> Option<(WalFrame, usize)> {
    let mut p = off;
    let payload_len = get_u32(bytes, &mut p).ok()? as usize;
    let stored_crc = get_u32(bytes, &mut p).ok()?;
    let body_end = p.checked_add(1 + 8 + payload_len)?;
    let body = bytes.get(p..body_end)?;
    if crc32(body) != stored_crc {
        return None;
    }
    let frame_type = FrameType::from_byte(body[0]).ok()?;
    let mut q = 1;
    let lsn = get_u64(body, &mut q).ok()?;
    let frame = WalFrame {
        frame_type,
        lsn,
        payload: body[q..].to_vec(),
    };
    Some((frame, body_end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(lsn: u64, payload: &[u8]) -> WalFrame {
        WalFrame {
            frame_type: FrameType::Commit,
            lsn,
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn roundtrip_in_order() {
        let mut seg = WalSegment::new();
        for i in 0..5u64 {
            seg.append(&frame(i, &[i as u8; 3]));
        }
        let r = replay(seg.bytes());
        assert_eq!(r.frames.len(), 5);
        assert_eq!(r.truncated_bytes, 0);
        assert_eq!(r.duplicates_skipped, 0);
        assert_eq!(r.frames[3], frame(3, &[3; 3]));
    }

    #[test]
    fn torn_tail_truncates_only_the_tail() {
        let mut seg = WalSegment::new();
        for i in 0..4u64 {
            seg.append(&frame(i, b"payload"));
        }
        // Cut anywhere strictly inside the last frame: the first three
        // frames must survive, the tail must be truncated.
        let third = seg.sync_points()[2];
        for cut in third + 1..seg.bytes().len() {
            let r = replay(&seg.bytes()[..cut]);
            assert_eq!(r.frames.len(), 3, "cut at {cut}");
            assert_eq!(r.truncated_bytes, cut - third);
        }
    }

    #[test]
    fn corrupt_frame_stops_replay() {
        let mut seg = WalSegment::new();
        seg.append(&frame(1, b"aaaa"));
        seg.append(&frame(2, b"bbbb"));
        let mut bytes = seg.bytes().to_vec();
        // Flip one payload bit of the second frame.
        let p = seg.sync_points()[0] + FRAME_HEADER_BYTES;
        bytes[p] ^= 0x40;
        let r = replay(&bytes);
        assert_eq!(r.frames.len(), 1);
        assert!(r.truncated_bytes > 0);
    }

    #[test]
    fn duplicate_lsn_is_skipped() {
        let mut seg = WalSegment::new();
        seg.append(&frame(1, b"a"));
        seg.append(&frame(1, b"a"));
        seg.append(&frame(2, b"b"));
        let r = replay(seg.bytes());
        assert_eq!(r.frames.len(), 2);
        assert_eq!(r.duplicates_skipped, 1);
        assert_eq!(r.frames[1].lsn, 2);
    }

    #[test]
    fn duplicate_skip_then_torn_tail_counts_tail_once() {
        // Regression guard for the tail accounting: a duplicate-LSN frame
        // advances the scan offset like any applied frame, so the torn
        // bytes after it must be counted exactly once — not once for the
        // skipped frame and again for the tail.
        let mut seg = WalSegment::new();
        seg.append(&frame(1, b"first"));
        seg.append(&frame(1, b"first")); // duplicated append
        seg.append(&frame(2, b"second"));
        let after_dup = seg.sync_points()[1];
        for cut in after_dup + 1..seg.bytes().len() {
            let r = replay(&seg.bytes()[..cut]);
            assert_eq!(r.frames.len(), 1, "cut at {cut}");
            assert_eq!(r.duplicates_skipped, 1, "cut at {cut}");
            assert_eq!(r.truncated_bytes, cut - after_dup, "cut at {cut}");
        }
    }

    #[test]
    fn batch_append_records_one_sync_point() {
        let mut seg = WalSegment::new();
        let frames: Vec<WalFrame> = (1..=3u64).map(|i| frame(i, &[i as u8; 4])).collect();
        let point = seg.append_batch(&frames);
        assert_eq!(point, seg.bytes().len());
        assert_eq!(seg.sync_points(), &[seg.bytes().len()]);
        assert_eq!(seg.n_frames(), 1); // one durable unit
        let r = replay(seg.bytes());
        assert_eq!(r.frames.len(), 3);
        assert_eq!(r.truncated_bytes, 0);
        // Byte stream is identical to three singleton appends.
        let mut singles = WalSegment::new();
        for f in &frames {
            singles.append(f);
        }
        assert_eq!(seg.bytes(), singles.bytes());
        assert_eq!(seg.append_batch(&[]), seg.bytes().len());
    }

    #[test]
    fn truncate_head_drops_prefix_and_shifts_sync_points() {
        let mut seg = WalSegment::new();
        for i in 0..4u64 {
            seg.append(&frame(i, b"payload"));
        }
        let keep_from = seg.sync_points()[1];
        let tail_len = seg.bytes().len() - keep_from;
        assert_eq!(seg.truncate_head(keep_from), keep_from);
        assert_eq!(seg.bytes().len(), tail_len);
        assert_eq!(seg.n_frames(), 2);
        let r = replay(seg.bytes());
        assert_eq!(r.frames.len(), 2);
        assert_eq!(r.frames[0].lsn, 2);
        assert_eq!(r.truncated_bytes, 0);
    }

    #[test]
    fn checkpoint_frames_roundtrip() {
        let mut seg = WalSegment::new();
        seg.append(&WalFrame {
            frame_type: FrameType::Checkpoint,
            lsn: 9,
            payload: Vec::new(),
        });
        let r = replay(seg.bytes());
        assert_eq!(r.frames[0].frame_type, FrameType::Checkpoint);
    }

    #[test]
    fn crc32_known_vector() {
        // The canonical IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn order_record_roundtrips() {
        let rec = CommitOrderRecord {
            table: 7,
            entries: vec![(0, 3), (2, 9)],
            appended_routes: vec![0, 2, 0],
            rewritten_routes: vec![2],
            deleted_routes: Vec::new(),
        };
        let bytes = rec.encode();
        assert_eq!(CommitOrderRecord::decode(&bytes).unwrap(), rec);
        // An empty commit (no rows, no shards) still roundtrips.
        let empty = CommitOrderRecord {
            table: 1,
            entries: Vec::new(),
            appended_routes: Vec::new(),
            rewritten_routes: Vec::new(),
            deleted_routes: Vec::new(),
        };
        assert_eq!(CommitOrderRecord::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn order_record_rejects_corruption() {
        let rec = CommitOrderRecord {
            table: 7,
            entries: vec![(1, 3)],
            appended_routes: vec![1, 1],
            rewritten_routes: Vec::new(),
            deleted_routes: Vec::new(),
        };
        let mut bytes = rec.encode();
        bytes.push(0); // trailing byte
        assert!(CommitOrderRecord::decode(&bytes).is_err());
        assert!(CommitOrderRecord::decode(&rec.encode()[..5]).is_err());
        let unordered = CommitOrderRecord {
            entries: vec![(2, 3), (1, 4)],
            ..rec
        };
        assert!(CommitOrderRecord::decode(&unordered.encode()).is_err());
    }
}
