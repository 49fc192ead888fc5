//! Write-ahead log for streaming ingest: CRC32-framed, append-only
//! records in front of the in-memory delta segment.
//!
//! ## On-disk layout
//!
//! ```text
//! header   := "BIXW" | version u32 LE                        (8 bytes)
//! record   := "WREC" | seq u64 LE | payload_len u32 LE
//!           | crc32(payload) u32 LE | payload                (20 + n bytes)
//! payload  := 0x01 | count u32 LE | count × value u32 LE     (append batch,
//!                                     u32::MAX = null row)
//!           | 0x02 | count u32 LE | count × row u64 LE       (delete batch)
//! ```
//!
//! Appends are **not** atomic — a crash can persist any prefix — so every
//! record is self-validating: magic, length, and checksum. Replay walks
//! the log from the header and stops at the first record that fails any
//! check (truncated frame, bad magic, checksum mismatch, malformed
//! payload, or a sequence number that does not increase), reporting the
//! valid prefix length so the caller can truncate the torn tail away.
//! Everything before the stop point is exactly what was durably written;
//! a batch is acknowledged only after its record is appended *and*
//! fsynced, so an acknowledged batch is always inside the valid prefix.

use crate::checksum::crc32;
use crate::error::StorageError;

/// The write-ahead log's file name inside a stored index.
pub const WAL_FILE: &str = "wal.bixl";

/// WAL file magic.
pub const WAL_MAGIC: &[u8; 4] = b"BIXW";

/// WAL format version.
pub const WAL_VERSION: u32 = 1;

/// Header length: magic + version.
pub const WAL_HEADER_LEN: usize = 8;

/// Per-record frame length ahead of the payload: magic + seq + len + crc.
pub const WAL_RECORD_HEADER_LEN: usize = 20;

const RECORD_MAGIC: &[u8; 4] = b"WREC";
const OP_APPEND: u8 = 0x01;
const OP_DELETE: u8 = 0x02;
/// Null sentinel in an append batch (a real value can never be
/// `u32::MAX`: column values are `< cardinality <= u32::MAX`).
const NULL_SENTINEL: u32 = u32::MAX;

/// One logged mutation batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// Rows appended at the end of the index; `None` is a null row.
    Append {
        /// The appended values in row order.
        values: Vec<Option<u32>>,
    },
    /// Rows deleted by absolute row id.
    Delete {
        /// The deleted row ids.
        rows: Vec<u64>,
    },
}

/// A decoded WAL record: a batch and its commit sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Strictly-increasing commit sequence number.
    pub seq: u64,
    /// The logged batch.
    pub op: WalOp,
}

/// Outcome of replaying a WAL byte image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalReplay {
    /// Every record in the valid prefix, in commit order.
    pub records: Vec<WalRecord>,
    /// Byte length of the valid prefix (header + whole good records).
    /// Truncating the file to this length removes the torn tail.
    pub valid_bytes: u64,
    /// `true` when bytes past the valid prefix were dropped — a torn
    /// append, a crashed fsync, or at-rest tail corruption.
    pub truncated: bool,
}

/// A fresh WAL image: the 8-byte header, no records.
pub fn wal_header() -> Vec<u8> {
    let mut out = Vec::with_capacity(WAL_HEADER_LEN);
    out.extend_from_slice(WAL_MAGIC);
    out.extend_from_slice(&WAL_VERSION.to_le_bytes());
    out
}

fn encode_payload(op: &WalOp) -> Vec<u8> {
    match op {
        WalOp::Append { values } => {
            let mut out = Vec::with_capacity(5 + values.len() * 4);
            out.push(OP_APPEND);
            out.extend_from_slice(&(values.len() as u32).to_le_bytes());
            for v in values {
                debug_assert!(*v != Some(NULL_SENTINEL), "u32::MAX is the null sentinel");
                out.extend_from_slice(&v.unwrap_or(NULL_SENTINEL).to_le_bytes());
            }
            out
        }
        WalOp::Delete { rows } => {
            let mut out = Vec::with_capacity(5 + rows.len() * 8);
            out.push(OP_DELETE);
            out.extend_from_slice(&(rows.len() as u32).to_le_bytes());
            for r in rows {
                out.extend_from_slice(&r.to_le_bytes());
            }
            out
        }
    }
}

fn decode_payload(payload: &[u8]) -> Option<WalOp> {
    let (&tag, rest) = payload.split_first()?;
    let count = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
    let body = &rest[4..];
    match tag {
        OP_APPEND => {
            if body.len() != count * 4 {
                return None;
            }
            let values = body
                .chunks_exact(4)
                .map(|c| {
                    let v = u32::from_le_bytes(c.try_into().unwrap());
                    (v != NULL_SENTINEL).then_some(v)
                })
                .collect();
            Some(WalOp::Append { values })
        }
        OP_DELETE => {
            if body.len() != count * 8 {
                return None;
            }
            let rows = body
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                .collect();
            Some(WalOp::Delete { rows })
        }
        _ => None,
    }
}

/// Encodes one record ready to append to the log.
pub fn encode_record(seq: u64, op: &WalOp) -> Vec<u8> {
    let payload = encode_payload(op);
    let mut out = Vec::with_capacity(WAL_RECORD_HEADER_LEN + payload.len());
    out.extend_from_slice(RECORD_MAGIC);
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Replays a WAL byte image, returning the valid record prefix.
///
/// An empty image is a fresh log (no records, nothing truncated). A
/// structurally bad *header* is a hard [`StorageError::Corrupt`] — the
/// whole file is untrustworthy and acknowledged batches may be lost,
/// which must not be silent. A bad *record* merely ends the valid
/// prefix: everything after it is reported as truncated tail.
pub fn replay(bytes: &[u8]) -> Result<WalReplay, StorageError> {
    if bytes.is_empty() {
        return Ok(WalReplay {
            records: Vec::new(),
            valid_bytes: 0,
            truncated: false,
        });
    }
    if bytes.len() < WAL_HEADER_LEN && wal_header().starts_with(bytes) {
        // A strict prefix of the canonical header: the crash landed inside
        // the very first header write, before any record could exist —
        // a torn fresh log, not corruption of acknowledged data.
        return Ok(WalReplay {
            records: Vec::new(),
            valid_bytes: 0,
            truncated: true,
        });
    }
    if bytes.len() < WAL_HEADER_LEN || &bytes[..4] != WAL_MAGIC {
        return Err(StorageError::corrupt(WAL_FILE, "bad WAL header magic"));
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
    if version != WAL_VERSION {
        return Err(StorageError::corrupt(
            WAL_FILE,
            format!("unsupported WAL version {version}"),
        ));
    }
    let mut records = Vec::new();
    let mut offset = WAL_HEADER_LEN;
    let mut last_seq: Option<u64> = None;
    loop {
        let rest = &bytes[offset..];
        if rest.is_empty() {
            // Clean end of log.
            return Ok(WalReplay {
                records,
                valid_bytes: offset as u64,
                truncated: false,
            });
        }
        let Some((record_len, op)) = validate_record(rest, last_seq) else {
            // Torn or corrupt tail: stop at the last good record.
            return Ok(WalReplay {
                records,
                valid_bytes: offset as u64,
                truncated: true,
            });
        };
        let seq = u64::from_le_bytes(rest[4..12].try_into().unwrap());
        records.push(WalRecord { seq, op });
        last_seq = Some(seq);
        offset += record_len;
    }
}

/// Checks one record at the head of `rest`; returns its total length and
/// decoded operation when every check passes (frame complete, magic,
/// checksum, payload decodes, sequence increases).
fn validate_record(rest: &[u8], last_seq: Option<u64>) -> Option<(usize, WalOp)> {
    if rest.len() < WAL_RECORD_HEADER_LEN || &rest[..4] != RECORD_MAGIC {
        return None;
    }
    let seq = u64::from_le_bytes(rest[4..12].try_into().unwrap());
    if last_seq.is_some_and(|last| seq <= last) {
        return None;
    }
    let payload_len = u32::from_le_bytes(rest[12..16].try_into().unwrap()) as usize;
    let expected_crc = u32::from_le_bytes(rest[16..20].try_into().unwrap());
    let total = WAL_RECORD_HEADER_LEN.checked_add(payload_len)?;
    if rest.len() < total {
        return None;
    }
    let payload = &rest[WAL_RECORD_HEADER_LEN..total];
    if crc32(payload) != expected_crc {
        return None;
    }
    Some((total, decode_payload(payload)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::Append {
                values: vec![Some(3), None, Some(0), Some(7)],
            },
            WalOp::Delete { rows: vec![1, 5] },
            WalOp::Append {
                values: vec![Some(2)],
            },
        ]
    }

    fn sample_log() -> Vec<u8> {
        let mut log = wal_header();
        for (i, op) in sample_ops().iter().enumerate() {
            log.extend_from_slice(&encode_record(i as u64 + 1, op));
        }
        log
    }

    #[test]
    fn roundtrip_replays_all_records() {
        let log = sample_log();
        let out = replay(&log).unwrap();
        assert!(!out.truncated);
        assert_eq!(out.valid_bytes, log.len() as u64);
        assert_eq!(out.records.len(), 3);
        for (i, (record, op)) in out.records.iter().zip(sample_ops()).enumerate() {
            assert_eq!(record.seq, i as u64 + 1);
            assert_eq!(record.op, op);
        }
    }

    #[test]
    fn empty_image_is_a_fresh_log() {
        let out = replay(&[]).unwrap();
        assert!(out.records.is_empty());
        assert_eq!(out.valid_bytes, 0);
        assert!(!out.truncated);
        // Header only: still fresh, but the header counts as valid bytes.
        let out = replay(&wal_header()).unwrap();
        assert!(out.records.is_empty());
        assert_eq!(out.valid_bytes, WAL_HEADER_LEN as u64);
    }

    #[test]
    fn every_torn_tail_length_recovers_the_valid_prefix() {
        let log = sample_log();
        let full = replay(&log).unwrap();
        // Record boundaries: header + cumulative record lengths.
        let mut boundaries = vec![WAL_HEADER_LEN as u64];
        let mut at = WAL_HEADER_LEN;
        for op in sample_ops() {
            at += encode_record(1, &op).len();
            boundaries.push(at as u64);
        }
        for cut in WAL_HEADER_LEN..log.len() {
            let out = replay(&log[..cut]).unwrap();
            // The valid prefix is the largest boundary <= cut.
            let want_valid = *boundaries
                .iter()
                .filter(|&&b| b <= cut as u64)
                .max()
                .unwrap();
            assert_eq!(out.valid_bytes, want_valid, "cut={cut}");
            assert_eq!(out.truncated, (cut as u64) != want_valid, "cut={cut}");
            let want_records = boundaries.iter().filter(|&&b| b <= cut as u64).count() - 1;
            assert_eq!(out.records.len(), want_records, "cut={cut}");
            assert_eq!(out.records, full.records[..want_records], "cut={cut}");
        }
    }

    #[test]
    fn corrupt_tail_byte_truncates_not_errors() {
        let mut log = sample_log();
        let last = log.len() - 3;
        log[last] ^= 0x40; // flip a bit inside the final record's payload
        let out = replay(&log).unwrap();
        assert!(out.truncated);
        assert_eq!(out.records.len(), 2, "final record dropped");
        // Garbage appended after valid records is likewise dropped.
        let mut log = sample_log();
        log.extend_from_slice(b"garbage tail bytes");
        let out = replay(&log).unwrap();
        assert!(out.truncated);
        assert_eq!(out.records.len(), 3);
    }

    #[test]
    fn sequence_regression_ends_the_valid_prefix() {
        let mut log = wal_header();
        let op = WalOp::Delete { rows: vec![0] };
        log.extend_from_slice(&encode_record(5, &op));
        log.extend_from_slice(&encode_record(5, &op)); // duplicate seq
        let out = replay(&log).unwrap();
        assert_eq!(out.records.len(), 1);
        assert!(out.truncated);
    }

    #[test]
    fn bad_header_is_a_hard_error() {
        assert!(replay(b"NOTW\x01\x00\x00\x00").is_err());
        let mut versioned = wal_header();
        versioned[4] = 9; // unsupported version
        assert!(replay(&versioned).is_err());
        // Short but NOT a header prefix: untrustworthy.
        assert!(replay(b"BIY").is_err());
    }

    #[test]
    fn torn_header_creation_is_a_fresh_log() {
        // A crash inside the very first header write leaves a strict
        // prefix of the canonical header — a torn fresh log, recoverable,
        // with nothing acknowledged to lose.
        let header = wal_header();
        for cut in 1..header.len() {
            let out = replay(&header[..cut]).unwrap();
            assert!(out.records.is_empty(), "cut={cut}");
            assert_eq!(out.valid_bytes, 0, "cut={cut}");
            assert!(out.truncated, "cut={cut}");
        }
    }

    #[test]
    fn null_sentinel_roundtrips() {
        let op = WalOp::Append {
            values: vec![None, Some(u32::MAX - 1), None],
        };
        let mut log = wal_header();
        log.extend_from_slice(&encode_record(1, &op));
        let out = replay(&log).unwrap();
        assert_eq!(out.records[0].op, op);
    }
}
