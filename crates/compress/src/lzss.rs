//! LZ77/LZSS codec — the in-tree substitution for zlib's deflate.
//!
//! Greedy parsing with a hash-chain match finder over 4-byte prefixes, a
//! 64 KiB sliding window, and a varint token stream:
//!
//! * literal run: `varint(count << 1)` followed by `count` raw bytes;
//! * match:       `varint(len << 1 | 1)` followed by `varint(distance)`.
//!
//! Matches may overlap their own output (`distance < len`), which is what
//! lets a run of identical bytes compress to a single token — the dominant
//! pattern in bitmap files. Compared to deflate the codec lacks the Huffman
//! entropy stage, so absolute ratios are a modest constant worse; the
//! redundancy it exploits (runs and repeated byte patterns) is the same, which
//! is all the paper's Section 9 conclusions rest on (see DESIGN.md §5).

use crate::lz77::{self, Token};
use crate::{output_buffer, varint, Codec, DecodeError};

/// LZSS codec. `max_chain` bounds the match-finder effort (default 64,
/// a zlib-level-6-like compromise).
#[derive(Debug, Clone, Copy)]
pub struct Lzss {
    max_chain: usize,
}

impl Default for Lzss {
    fn default() -> Self {
        Self { max_chain: 64 }
    }
}

impl Lzss {
    /// Creates a codec with a custom hash-chain search depth.
    ///
    /// Larger values find longer matches at higher CPU cost; `1` approximates
    /// the fastest deflate level.
    pub fn with_max_chain(max_chain: usize) -> Self {
        Self {
            max_chain: max_chain.max(1),
        }
    }
}

impl Codec for Lzss {
    fn name(&self) -> &'static str {
        "lzss"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + input.len() / 16);
        let mut lits: Vec<u8> = Vec::new();
        for token in lz77::parse(input, self.max_chain) {
            match token {
                Token::Literal(b) => lits.push(b),
                Token::Match { len, dist } => {
                    flush_literals(&mut out, &lits);
                    lits.clear();
                    varint::write(&mut out, (u64::from(len) << 1) | 1);
                    varint::write(&mut out, u64::from(dist));
                }
            }
        }
        flush_literals(&mut out, &lits);
        out
    }

    fn decompress(&self, input: &[u8], original_len: usize) -> Result<Vec<u8>, DecodeError> {
        let mut out = output_buffer(input, original_len);
        let mut pos = 0usize;
        while pos < input.len() {
            let token = varint::read(input, &mut pos)?;
            if token & 1 == 0 {
                // literal run
                let count = (token >> 1) as usize;
                let end = pos
                    .checked_add(count)
                    .ok_or_else(|| DecodeError("lzss: literal overflow".into()))?;
                if end > input.len() {
                    return Err(DecodeError("lzss: truncated literal run".into()));
                }
                out.extend_from_slice(&input[pos..end]);
                pos = end;
            } else {
                let len = (token >> 1) as usize;
                let dist = varint::read(input, &mut pos)? as usize;
                if dist == 0 || dist > out.len() {
                    return Err(DecodeError(format!(
                        "lzss: bad distance {dist} at output length {}",
                        out.len()
                    )));
                }
                // The match length is untrusted: refuse it before copying,
                // not after the copy has outgrown memory.
                if len > original_len.saturating_sub(out.len()) {
                    return Err(DecodeError("lzss: output longer than declared".into()));
                }
                // Chunked copy: each `extend_from_within` chunk is at most
                // `dist` long, so overlapping matches replicate correctly.
                let mut remaining = len;
                while remaining > 0 {
                    let start = out.len() - dist;
                    let take = remaining.min(dist);
                    out.extend_from_within(start..start + take);
                    remaining -= take;
                }
            }
            if out.len() > original_len {
                return Err(DecodeError("lzss: output longer than declared".into()));
            }
        }
        if out.len() != original_len {
            return Err(DecodeError(format!(
                "lzss: produced {} bytes, expected {original_len}",
                out.len()
            )));
        }
        Ok(out)
    }
}

fn flush_literals(out: &mut Vec<u8>, lits: &[u8]) {
    if !lits.is_empty() {
        varint::write(out, (lits.len() as u64) << 1);
        out.extend_from_slice(lits);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(data: &[u8]) -> usize {
        let codec = Lzss::default();
        let c = codec.compress(data);
        assert_eq!(codec.decompress(&c, data.len()).unwrap(), data);
        c.len()
    }

    #[test]
    fn empty_and_tiny() {
        roundtrip(&[]);
        roundtrip(&[42]);
        roundtrip(&[1, 2, 3]);
    }

    #[test]
    fn hostile_lengths_are_typed_errors() {
        let codec = Lzss::default();
        // A declared isize::MAX bytes on three bytes of input, and on a
        // well-formed stream: decoding fails, the allocator is never asked.
        assert!(codec.decompress(&[2, 0xAA, 0x03], usize::MAX / 2).is_err());
        let stream = codec.compress(&[7u8; 500]);
        let err = codec.decompress(&stream, usize::MAX / 2).unwrap_err();
        assert!(err.0.contains("produced 500 bytes"), "{err}");
        // A match longer than the declared output is refused up front.
        let mut input = vec![2, 0xAA];
        varint::write(&mut input, u64::MAX);
        varint::write(&mut input, 1);
        let err = codec.decompress(&input, 10).unwrap_err();
        assert!(err.0.contains("longer than declared"), "{err}");
    }

    #[test]
    fn long_zero_run_collapses() {
        let data = vec![0u8; 1 << 20];
        let size = roundtrip(&data);
        // match length caps at 64 KiB, so ~16 match tokens expected
        assert!(size < 128, "1 MiB of zeros compressed to {size} bytes");
    }

    #[test]
    fn repeated_pattern_compresses() {
        let pattern = b"bitmap-index-";
        let data: Vec<u8> = pattern.iter().cycle().take(50_000).copied().collect();
        let size = roundtrip(&data);
        assert!(size < data.len() / 50, "got {size}");
    }

    #[test]
    fn incompressible_random_survives() {
        // xorshift pseudo-random bytes: round-trips, expands only slightly.
        let mut state = 0x1234_5678_9abc_def0u64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state & 0xff) as u8
            })
            .collect();
        let size = roundtrip(&data);
        assert!(size <= data.len() + data.len() / 64 + 16);
    }

    #[test]
    fn overlapping_match_distance_one() {
        // aaaa... must decode via overlapping copy.
        let data = vec![b'a'; 1000];
        let c = Lzss::default().compress(&data);
        assert_eq!(Lzss::default().decompress(&c, 1000).unwrap(), data);
    }

    #[test]
    fn far_back_reference_within_window() {
        let mut data = vec![0u8; 40_000];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let copy = data.clone();
        data.extend_from_slice(&copy); // second half matches 40 kB back
        let size = roundtrip(&data);
        assert!(size < data.len() / 2 + 1024);
    }

    #[test]
    fn rejects_bad_distance() {
        let mut buf = Vec::new();
        varint::write(&mut buf, (5u64 << 1) | 1); // match len 5
        varint::write(&mut buf, 3); // distance 3 but output is empty
        assert!(Lzss::default().decompress(&buf, 5).is_err());
    }

    #[test]
    fn rejects_wrong_declared_length() {
        let data = vec![9u8; 100];
        let c = Lzss::default().compress(&data);
        assert!(Lzss::default().decompress(&c, 99).is_err());
        assert!(Lzss::default().decompress(&c, 101).is_err());
    }

    #[test]
    fn max_chain_levels_agree() {
        let data: Vec<u8> = (0..30_000u32).map(|i| ((i / 100) % 256) as u8).collect();
        for chain in [1, 8, 256] {
            let codec = Lzss::with_max_chain(chain);
            let c = codec.compress(&data);
            assert_eq!(codec.decompress(&c, data.len()).unwrap(), data);
        }
    }
}
