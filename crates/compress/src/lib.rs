//! # bindex-compress
//!
//! Compression substrate for bitmap storage (Section 9 of the paper).
//!
//! The paper compresses bitmap files with zlib's *deflation* (an LZ77
//! variant). zlib is not available in this build, so this crate provides
//! from-scratch codecs that exploit the same redundancy:
//!
//! * [`Rle`] — a byte-level run-length codec, the simplest baseline;
//! * [`Lzss`] — an LZ77/LZSS codec with a hash-chain match finder and greedy
//!   parsing (deflate without the entropy-coding stage);
//! * [`Deflate`] — LZ77 plus two length-limited canonical Huffman
//!   alphabets, the designated **zlib substitution** for the Section 9
//!   experiments;
//! * [`wah::WahBitmap`] — a Word-Aligned Hybrid compressed bitmap supporting
//!   logical operations directly on the compressed form. WAH post-dates the
//!   paper and is included as an ablation of its Section 9 conclusions.
//!
//! All byte codecs implement the [`Codec`] trait and are exercised by
//! round-trip property tests in `tests/`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bitio;
mod deflate;
pub mod huffman;
pub mod lz77;
mod lzss;
mod repr;
mod rle;
pub mod varint;
pub mod wah;

pub use deflate::Deflate;
pub use lzss::Lzss;
pub use repr::Repr;
pub use rle::Rle;

/// Error raised when decoding malformed compressed bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

/// Output bytes a decoder reserves per input byte before it has decoded
/// anything. Bitmap files legitimately expand far more than this (a
/// megabyte of zeros is four bytes of RLE); such streams grow their buffer
/// as the runs and matches that justify it are decoded.
const RESERVE_PER_INPUT_BYTE: usize = 64;

/// The up-front reservation for decoding `input` to a declared
/// `original_len` bytes. The declared length comes from a manifest, not
/// from the stream, so on its own it must never size an allocation: a
/// corrupt manifest would otherwise abort the process on a three-byte
/// file.
fn output_buffer(input: &[u8], original_len: usize) -> Vec<u8> {
    Vec::with_capacity(original_len.min(input.len().saturating_mul(RESERVE_PER_INPUT_BYTE)))
}

/// A lossless byte-stream codec.
pub trait Codec {
    /// Short stable name used in experiment output (e.g. `"lzss"`).
    fn name(&self) -> &'static str;

    /// Compresses `input` into a fresh buffer.
    fn compress(&self, input: &[u8]) -> Vec<u8>;

    /// Decompresses `input`; the caller supplies the exact original length
    /// as an integrity check (the storage layer always knows it).
    fn decompress(&self, input: &[u8], original_len: usize) -> Result<Vec<u8>, DecodeError>;

    /// Convenience: `compressed_size / original_size` in percent, as reported
    /// by Table 4 of the paper.
    fn ratio_pct(&self, input: &[u8]) -> f64 {
        if input.is_empty() {
            return 100.0;
        }
        100.0 * self.compress(input).len() as f64 / input.len() as f64
    }
}

/// The codecs available to the storage layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// No compression; bytes stored verbatim.
    None,
    /// Byte run-length encoding.
    Rle,
    /// LZ77/LZSS without entropy coding.
    Lzss,
    /// LZ77 + canonical Huffman — the zlib substitution used for the
    /// paper's experiments.
    Deflate,
}

impl CodecKind {
    /// Compresses with the selected codec (`None` copies).
    pub fn compress(self, input: &[u8]) -> Vec<u8> {
        match self {
            CodecKind::None => input.to_vec(),
            CodecKind::Rle => Rle.compress(input),
            CodecKind::Lzss => Lzss::default().compress(input),
            CodecKind::Deflate => Deflate::default().compress(input),
        }
    }

    /// Decompresses with the selected codec.
    pub fn decompress(self, input: &[u8], original_len: usize) -> Result<Vec<u8>, DecodeError> {
        match self {
            CodecKind::None => {
                if input.len() != original_len {
                    return Err(DecodeError(format!(
                        "stored {} bytes, expected {original_len}",
                        input.len()
                    )));
                }
                Ok(input.to_vec())
            }
            CodecKind::Rle => Rle.decompress(input, original_len),
            CodecKind::Lzss => Lzss::default().decompress(input, original_len),
            CodecKind::Deflate => Deflate::default().decompress(input, original_len),
        }
    }

    /// Stable name for experiment output.
    pub fn name(self) -> &'static str {
        match self {
            CodecKind::None => "none",
            CodecKind::Rle => "rle",
            CodecKind::Lzss => "lzss",
            CodecKind::Deflate => "deflate",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrip_all() {
        let data: Vec<u8> = (0..2000u32).map(|i| (i % 7) as u8 * 36).collect();
        for kind in [
            CodecKind::None,
            CodecKind::Rle,
            CodecKind::Lzss,
            CodecKind::Deflate,
        ] {
            let c = kind.compress(&data);
            let d = kind.decompress(&c, data.len()).unwrap();
            assert_eq!(d, data, "codec {}", kind.name());
        }
    }

    #[test]
    fn none_checks_length() {
        assert!(CodecKind::None.decompress(&[1, 2, 3], 4).is_err());
    }
}
