//! Checksummed on-disk frame wrapped around every stored file.
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "BIXF"
//! 4       4     format version, u32 little-endian (currently 2)
//! 8       8     payload length, u64 little-endian
//! 16      4     CRC32 of the payload (see [`checksum`](crate::checksum))
//! 20      …     payload (compressed bitmap bytes, or manifest text)
//! ```
//!
//! Compression happens first and the frame wraps the compressed bytes, so
//! verification reads exactly the stored size. [`unframe`] hands back the
//! payload as a slice of the buffer it was given, so a reader decodes
//! straight out of the bytes the store returned. A file without the frame
//! — anything that does not start with the magic — is corrupt.

use crate::checksum::crc32;
use crate::error::StorageError;

/// Frame magic, first four bytes of every framed file.
pub const MAGIC: [u8; 4] = *b"BIXF";
/// Current format version written by [`frame`].
pub const FORMAT_VERSION: u32 = 2;
/// Bytes of header before the payload.
pub const HEADER_LEN: usize = 20;

/// Wraps `payload` in a checksummed frame.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Verifies the frame around `data` and returns the payload, borrowed
/// from `data` — verification is one checksum pass and no copy. `file`
/// names the source in errors.
pub fn unframe<'a>(file: &str, data: &'a [u8]) -> Result<&'a [u8], StorageError> {
    if data.len() < HEADER_LEN {
        return Err(StorageError::corrupt(
            file,
            format!(
                "{} bytes is shorter than the {HEADER_LEN}-byte header",
                data.len()
            ),
        ));
    }
    if data[..4] != MAGIC {
        return Err(StorageError::corrupt(file, "bad magic"));
    }
    let version = u32::from_le_bytes(data[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(StorageError::corrupt(
            file,
            format!("unsupported format version {version}"),
        ));
    }
    let payload_len = u64::from_le_bytes(data[8..16].try_into().expect("8 bytes"));
    let expected = u32::from_le_bytes(data[16..20].try_into().expect("4 bytes"));
    let payload = &data[HEADER_LEN..];
    // The length is outside input: a value that does not fit `usize` must
    // not wrap into one that matches.
    if usize::try_from(payload_len) != Ok(payload.len()) {
        return Err(StorageError::corrupt(
            file,
            format!(
                "header says {payload_len} payload bytes, file holds {}",
                payload.len()
            ),
        ));
    }
    let actual = crc32(payload);
    if actual != expected {
        return Err(StorageError::ChecksumMismatch {
            file: file.to_string(),
            expected,
            actual,
        });
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for payload in [&b""[..], b"x", &[0xAB; 1000][..]] {
            let framed = frame(payload);
            assert_eq!(framed.len(), HEADER_LEN + payload.len());
            assert_eq!(unframe("t", &framed).unwrap(), payload);
        }
    }

    /// Bytes recorded from the commit before the CRC kernel was rewritten:
    /// the frame (and so every stored file's size and checksum) must not
    /// move when the checksum implementation does.
    #[test]
    fn frame_bytes_are_frozen() {
        let framed = frame(b"bitmap index design and evaluation");
        assert_eq!(
            framed,
            [
                66, 73, 88, 70, 2, 0, 0, 0, 34, 0, 0, 0, 0, 0, 0, 0, 106, 158, 254, 156, 98, 105,
                116, 109, 97, 112, 32, 105, 110, 100, 101, 120, 32, 100, 101, 115, 105, 103, 110,
                32, 97, 110, 100, 32, 101, 118, 97, 108, 117, 97, 116, 105, 111, 110
            ]
        );
    }

    #[test]
    fn unframed_payloads_are_corrupt() {
        for raw in [
            &b""[..],
            b"BIX",
            b"version=1\nn_rows=3\nscheme=bs\ncodec=none\n",
        ] {
            assert!(matches!(
                unframe("t", raw),
                Err(StorageError::Corrupt { .. })
            ));
        }
    }

    #[test]
    fn detects_any_flipped_bit() {
        let framed = frame(b"some payload worth protecting");
        for byte in 0..framed.len() {
            let mut bad = framed.clone();
            bad[byte] ^= 0x10;
            assert!(
                unframe("t", &bad).is_err(),
                "flip in byte {byte} undetected"
            );
        }
    }

    /// One flipped bit is a `ChecksumMismatch` wherever the checksum's
    /// fold treats it differently: the first byte, a word at each multiple
    /// of its 300-word span, the last folded word, a word of the 300 it
    /// leaves standing, and the tail under one word.
    #[test]
    fn detects_a_flipped_bit_wherever_the_checksum_folds() {
        const SPAN_BYTES: usize = 300 * 8;
        for len in [1 << 16, (1 << 18) + 3] {
            let payload: Vec<u8> = (0..len).map(|i| (i * 131 + i / 251) as u8).collect();
            let framed = frame(&payload);
            let folded_bytes = (len / 8 - 300) * 8;
            let mut places = vec![0];
            places.extend(
                (SPAN_BYTES..folded_bytes)
                    .step_by(SPAN_BYTES)
                    .map(|at| at + 5),
            );
            places.extend([folded_bytes - 8, folded_bytes + 1234, len - 1]);
            for at in places {
                let mut bad = framed.clone();
                bad[HEADER_LEN + at] ^= 1 << (at % 8);
                assert!(
                    matches!(
                        unframe("t", &bad),
                        Err(StorageError::ChecksumMismatch { .. })
                    ),
                    "len {len}: flip at byte {at} undetected"
                );
            }
        }
    }

    #[test]
    fn detects_truncation() {
        let framed = frame(&[7u8; 64]);
        for keep in [0, 10, HEADER_LEN, framed.len() - 1] {
            assert!(unframe("t", &framed[..keep]).is_err(), "keep {keep}");
        }
    }

    /// A declared length no buffer can have is refused on the header
    /// alone: `Corrupt`, not the `ChecksumMismatch` a checksum pass over
    /// the payload would have produced.
    #[test]
    fn hostile_length_is_corrupt_before_any_checksum() {
        let payload = [7u8; 64];
        for declared in [u64::MAX, (1 << 32) + payload.len() as u64] {
            let mut framed = frame(&payload);
            framed[8..16].copy_from_slice(&declared.to_le_bytes());
            framed[16] ^= 0xFF; // a checksum pass would now fail too
            match unframe("t", &framed) {
                Err(StorageError::Corrupt { detail, .. }) => {
                    assert!(detail.contains(&declared.to_string()), "{detail}")
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn checksum_error_is_typed() {
        let mut framed = frame(b"payload");
        let last = framed.len() - 1;
        framed[last] ^= 0xFF; // corrupt payload, header intact
        match unframe("f.bmp", &framed) {
            Err(StorageError::ChecksumMismatch { file, .. }) => assert_eq!(file, "f.bmp"),
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
    }

    #[test]
    fn rejects_future_versions() {
        let mut framed = frame(b"data");
        framed[4] = 99;
        assert!(matches!(
            unframe("t", &framed),
            Err(StorageError::Corrupt { .. })
        ));
    }
}
