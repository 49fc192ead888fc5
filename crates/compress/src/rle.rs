//! Byte-level run-length codec.
//!
//! Format: a sequence of `(varint run_len, byte)` pairs. Simple, fast, and a
//! useful lower bound on what LZ77-family codecs achieve on bitmap files,
//! which are dominated by long runs of `0x00` / `0xff` bytes.

use crate::{output_buffer, varint, Codec, DecodeError};

/// Run-length codec over bytes. Stateless; see module docs for the format.
#[derive(Debug, Clone, Copy, Default)]
pub struct Rle;

impl Codec for Rle {
    fn name(&self) -> &'static str {
        "rle"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + input.len() / 32);
        let mut i = 0;
        while i < input.len() {
            let byte = input[i];
            let mut j = i + 1;
            while j < input.len() && input[j] == byte {
                j += 1;
            }
            varint::write(&mut out, (j - i) as u64);
            out.push(byte);
            i = j;
        }
        out
    }

    fn decompress(&self, input: &[u8], original_len: usize) -> Result<Vec<u8>, DecodeError> {
        let mut out = output_buffer(input, original_len);
        let mut pos = 0;
        while pos < input.len() {
            let run = varint::read(input, &mut pos)?;
            let &byte = input
                .get(pos)
                .ok_or_else(|| DecodeError("rle: missing run byte".into()))?;
            pos += 1;
            // The run length is untrusted: `out.len() + run` must neither
            // wrap nor pass the declared length before anything is resized.
            let new_len = usize::try_from(run)
                .ok()
                .and_then(|run| out.len().checked_add(run))
                .filter(|&new_len| new_len <= original_len)
                .ok_or_else(|| DecodeError("rle: output longer than declared".into()))?;
            out.resize(new_len, byte);
        }
        if out.len() != original_len {
            return Err(DecodeError(format!(
                "rle: produced {} bytes, expected {original_len}",
                out.len()
            )));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) {
        let c = Rle.compress(data);
        assert_eq!(Rle.decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn empty() {
        roundtrip(&[]);
        assert_eq!(Rle.compress(&[]).len(), 0);
    }

    #[test]
    fn single_long_run() {
        let data = vec![0u8; 100_000];
        let c = Rle.compress(&data);
        assert!(c.len() <= 4, "run should collapse, got {} bytes", c.len());
        roundtrip(&data);
    }

    #[test]
    fn alternating_worst_case() {
        let data: Vec<u8> = (0..1000).map(|i| (i % 2) as u8).collect();
        roundtrip(&data);
        // worst case: 2 bytes per input byte
        assert!(Rle.compress(&data).len() <= 2 * data.len());
    }

    #[test]
    fn mixed_runs() {
        let mut data = vec![0xffu8; 300];
        data.extend(std::iter::repeat_n(0u8, 500));
        data.extend(0..=255u8);
        roundtrip(&data);
    }

    #[test]
    fn rejects_wrong_length() {
        let c = Rle.compress(&[1, 1, 1]);
        assert!(Rle.decompress(&c, 2).is_err());
        assert!(Rle.decompress(&c, 4).is_err());
    }

    #[test]
    fn hostile_run_length_is_a_typed_error() {
        // A run of u64::MAX after one real byte: `out.len() + run` wraps
        // to 0 in a release build and panics in a debug one.
        let mut input = vec![1, 0xAA];
        varint::write(&mut input, u64::MAX);
        input.push(0xBB);
        for declared in [0, 1, 2, usize::MAX / 2, usize::MAX] {
            assert!(Rle.decompress(&input, declared).is_err(), "{declared}");
        }
    }

    #[test]
    fn hostile_declared_length_reserves_nothing() {
        // Three bytes of input cannot back a declared isize::MAX bytes:
        // the error must come from decoding, not from the allocator.
        let err = Rle.decompress(&[2, 0xAA, 0x80], usize::MAX / 2);
        assert!(err.is_err());
        let err = Rle.decompress(&[3, 0xAA], usize::MAX / 2).unwrap_err();
        assert!(err.0.contains("produced 3 bytes"), "{err}");
    }

    #[test]
    fn rejects_truncation() {
        let c = Rle.compress(&[7u8; 500]);
        assert!(Rle.decompress(&c[..c.len() - 1], 500).is_err());
    }
}
