//! Deflate-like codec: LZ77 parsing + canonical Huffman entropy coding —
//! the faithful stand-in for zlib's *deflation* used by the Section 9
//! experiments (see DESIGN.md §5).
//!
//! Differences from RFC 1951 deflate are in the container only (no
//! multi-block framing, own length/distance bucket tables, byte-array
//! code-length header); the algorithmic substance — greedy hash-chain
//! LZ77 over a 64 KiB window followed by two length-limited canonical
//! Huffman alphabets (literal/length and distance) — matches what zlib
//! does, so the compression behaviour on bitmap files tracks the paper's.
//!
//! ## Format
//!
//! * byte 0: mode — `0` stored, `1` compressed;
//! * stored: the raw bytes follow;
//! * compressed: `varint(token_count)`, the two code-length arrays
//!   (one byte per symbol), then the LSB-first Huffman bit stream. Each
//!   token is a literal symbol (0–255) or `256 + length-bucket` followed
//!   by extra length bits, a distance-bucket symbol from the second
//!   alphabet, and extra distance bits.

use crate::bitio::{BitReader, BitWriter};
use crate::huffman::{code_lengths, Decoder, Encoder};
use crate::lz77::{self, Token, MIN_MATCH};
use crate::{output_buffer, varint, Codec, DecodeError};

/// Number of length buckets (lengths 4 ..= 65536).
const LEN_CODES: usize = 32;
/// Literal/length alphabet size: 256 literals + length buckets.
const MAIN_SYMS: usize = 256 + LEN_CODES;
/// Number of distance buckets (distances 1 ..= 65536).
const DIST_CODES: usize = 32;

/// `(base, extra_bits)` for bucket `k` of a geometric bucket table.
fn bucket_table(min: u32, codes: usize) -> Vec<(u32, u32)> {
    // Buckets: sizes 1,1,1,1,2,2,4,4,8,8,... (deflate-style pairs).
    let mut out = Vec::with_capacity(codes);
    let mut base = min;
    let mut extra = 0u32;
    for k in 0..codes {
        out.push((base, extra));
        base += 1 << extra;
        if k >= 3 && k % 2 == 1 {
            extra += 1;
        }
    }
    out
}

fn len_table() -> Vec<(u32, u32)> {
    bucket_table(MIN_MATCH as u32, LEN_CODES)
}

fn dist_table() -> Vec<(u32, u32)> {
    bucket_table(1, DIST_CODES)
}

/// Finds the bucket for `v` in a table: largest `k` with `base[k] <= v`.
fn bucket_of(table: &[(u32, u32)], v: u32) -> usize {
    debug_assert!(v >= table[0].0);
    match table.binary_search_by_key(&v, |&(base, _)| base) {
        Ok(k) => k,
        Err(k) => k - 1,
    }
}

/// The deflate-like codec. `max_chain` bounds the LZ77 match search.
#[derive(Debug, Clone, Copy)]
pub struct Deflate {
    max_chain: usize,
}

impl Default for Deflate {
    fn default() -> Self {
        Self { max_chain: 64 }
    }
}

impl Deflate {
    /// Creates a codec with a custom hash-chain search depth.
    pub fn with_max_chain(max_chain: usize) -> Self {
        Self {
            max_chain: max_chain.max(1),
        }
    }
}

impl Codec for Deflate {
    fn name(&self) -> &'static str {
        "deflate"
    }

    fn compress(&self, input: &[u8]) -> Vec<u8> {
        let tokens = lz77::parse(input, self.max_chain);
        let lens_tab = len_table();
        let dists_tab = dist_table();

        // Pass 1: symbol frequencies.
        let mut main_freq = vec![0u64; MAIN_SYMS];
        let mut dist_freq = vec![0u64; DIST_CODES];
        for &t in &tokens {
            match t {
                Token::Literal(b) => main_freq[b as usize] += 1,
                Token::Match { len, dist } => {
                    main_freq[256 + bucket_of(&lens_tab, len)] += 1;
                    dist_freq[bucket_of(&dists_tab, dist)] += 1;
                }
            }
        }
        let main_lens = code_lengths(&main_freq);
        let dist_lens = code_lengths(&dist_freq);
        let main_enc = Encoder::new(&main_lens);
        let dist_enc = Encoder::new(&dist_lens);

        // Pass 2: emit.
        let mut out = vec![1u8]; // mode: compressed
        varint::write(&mut out, tokens.len() as u64);
        out.extend(main_lens.iter().map(|&l| l as u8));
        out.extend(dist_lens.iter().map(|&l| l as u8));
        let mut w = BitWriter::new();
        for &t in &tokens {
            match t {
                Token::Literal(b) => main_enc.write(&mut w, b as usize),
                Token::Match { len, dist } => {
                    let lk = bucket_of(&lens_tab, len);
                    main_enc.write(&mut w, 256 + lk);
                    let (base, extra) = lens_tab[lk];
                    w.write(u64::from(len - base), extra);
                    let dk = bucket_of(&dists_tab, dist);
                    dist_enc.write(&mut w, dk);
                    let (dbase, dextra) = dists_tab[dk];
                    w.write(u64::from(dist - dbase), dextra);
                }
            }
        }
        out.extend(w.finish());

        // Fall back to stored mode when entropy coding does not pay.
        if out.len() > input.len() {
            let mut stored = Vec::with_capacity(input.len() + 1);
            stored.push(0u8);
            stored.extend_from_slice(input);
            return stored;
        }
        out
    }

    fn decompress(&self, input: &[u8], original_len: usize) -> Result<Vec<u8>, DecodeError> {
        let (&mode, rest) = input
            .split_first()
            .ok_or_else(|| DecodeError("deflate: empty input".into()))?;
        match mode {
            0 => {
                if rest.len() != original_len {
                    return Err(DecodeError(format!(
                        "deflate: stored {} bytes, expected {original_len}",
                        rest.len()
                    )));
                }
                Ok(rest.to_vec())
            }
            1 => {
                let mut pos = 0usize;
                let n_tokens = varint::read(rest, &mut pos)? as usize;
                let need = pos + MAIN_SYMS + DIST_CODES;
                if rest.len() < need {
                    return Err(DecodeError("deflate: truncated header".into()));
                }
                let main_lens: Vec<u32> = rest[pos..pos + MAIN_SYMS]
                    .iter()
                    .map(|&b| u32::from(b))
                    .collect();
                let dist_lens: Vec<u32> = rest[pos + MAIN_SYMS..need]
                    .iter()
                    .map(|&b| u32::from(b))
                    .collect();
                let main_dec = Decoder::new(&main_lens)?;
                let dist_dec = Decoder::new(&dist_lens)?;
                let lens_tab = len_table();
                let dists_tab = dist_table();
                let mut r = BitReader::new(&rest[need..]);
                let mut out = output_buffer(rest, original_len);
                for _ in 0..n_tokens {
                    let sym = main_dec.read(&mut r)?;
                    if sym < 256 {
                        out.push(sym as u8);
                    } else {
                        let lk = sym - 256;
                        if lk >= LEN_CODES {
                            return Err(DecodeError(format!("deflate: bad length code {lk}")));
                        }
                        let (base, extra) = lens_tab[lk];
                        let len = base + r.read(extra)? as u32;
                        let dk = dist_dec.read(&mut r)?;
                        let (dbase, dextra) = dists_tab[dk];
                        let dist = dbase + r.read(dextra)? as u32;
                        if dist == 0 || dist as usize > out.len() {
                            return Err(DecodeError(format!(
                                "deflate: bad distance {dist} at {}",
                                out.len()
                            )));
                        }
                        // Chunked copy: `extend_from_within` per `dist`-sized
                        // chunk handles overlapping matches efficiently.
                        let mut remaining = len as usize;
                        while remaining > 0 {
                            let start = out.len() - dist as usize;
                            let take = remaining.min(dist as usize);
                            out.extend_from_within(start..start + take);
                            remaining -= take;
                        }
                    }
                    if out.len() > original_len {
                        return Err(DecodeError("deflate: output longer than declared".into()));
                    }
                }
                if out.len() != original_len {
                    return Err(DecodeError(format!(
                        "deflate: produced {} bytes, expected {original_len}",
                        out.len()
                    )));
                }
                Ok(out)
            }
            m => Err(DecodeError(format!("deflate: unknown mode {m}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Lzss;

    fn roundtrip(data: &[u8]) -> usize {
        let codec = Deflate::default();
        let c = codec.compress(data);
        assert_eq!(codec.decompress(&c, data.len()).unwrap(), data);
        c.len()
    }

    #[test]
    fn hostile_declared_length_is_a_typed_error() {
        // A well-formed stream under a declared isize::MAX bytes: the
        // length check fails, the allocator is never asked for that much.
        let codec = Deflate::default();
        let stream = codec.compress(&[7u8; 500]);
        let err = codec.decompress(&stream, usize::MAX / 2).unwrap_err();
        assert!(err.0.contains("produced 500 bytes"), "{err}");
        assert!(codec.decompress(&[1, 0x80, 0x01], usize::MAX / 2).is_err());
    }

    #[test]
    fn bucket_tables_are_monotone_and_cover() {
        for table in [len_table(), dist_table()] {
            for w in table.windows(2) {
                assert_eq!(w[0].0 + (1 << w[0].1), w[1].0, "contiguous buckets");
            }
        }
        let lt = len_table();
        assert_eq!(lt[0].0, 4);
        let last = lt[LEN_CODES - 1];
        assert!(
            u64::from(last.0) + (1u64 << last.1) > 65536,
            "covers MAX_MATCH"
        );
        let dt = dist_table();
        assert_eq!(dt[0].0, 1);
        let dlast = dt[DIST_CODES - 1];
        assert!(
            u64::from(dlast.0) + (1u64 << dlast.1) > 65536,
            "covers WINDOW"
        );
    }

    #[test]
    fn bucket_lookup_is_exact() {
        let lt = len_table();
        for v in [4u32, 5, 7, 8, 100, 1000, 65535, 65536] {
            let k = bucket_of(&lt, v);
            let (base, extra) = lt[k];
            assert!(base <= v && v < base + (1 << extra), "v={v} k={k}");
        }
        let dt = dist_table();
        for v in [1u32, 2, 3, 17, 4096, 65536] {
            let k = bucket_of(&dt, v);
            let (base, extra) = dt[k];
            assert!(base <= v && v < base + (1 << extra), "v={v} k={k}");
        }
    }

    #[test]
    fn roundtrip_shapes() {
        roundtrip(&[]);
        roundtrip(&[42]);
        roundtrip(b"hello hello hello hello");
        roundtrip(&vec![0u8; 100_000]);
        let mixed: Vec<u8> = (0..60_000u32).map(|i| ((i * i) % 251) as u8).collect();
        roundtrip(&mixed);
    }

    #[test]
    fn beats_lzss_on_skewed_bytes() {
        // Pseudo-random bytes drawn from a skewed alphabet (no long runs,
        // no repeats for LZ to find): exactly where Huffman pays and bare
        // LZSS cannot.
        let mut state = 0x853c_49e6_748f_ea9bu64;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                match (state >> 32) % 16 {
                    0..=10 => 0x00,
                    11..=13 => 0xff,
                    14 => 0x0f,
                    _ => (state & 0xff) as u8,
                }
            })
            .collect();
        let d = Deflate::default().compress(&data).len();
        let l = Lzss::default().compress(&data).len();
        assert!(d < l, "deflate {d} vs lzss {l}");
        assert!(d < data.len() / 2, "deflate {d} on skewed input");
    }

    #[test]
    fn incompressible_falls_back_to_stored() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let data: Vec<u8> = (0..10_000)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 32) as u8
            })
            .collect();
        let c = Deflate::default().compress(&data);
        assert_eq!(c.len(), data.len() + 1, "stored mode: 1 byte overhead");
        assert_eq!(Deflate::default().decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn rejects_corruption() {
        let data = vec![7u8; 4000];
        let c = Deflate::default().compress(&data);
        assert!(Deflate::default().decompress(&c, 3999).is_err());
        assert!(Deflate::default()
            .decompress(&c[..c.len() - 1], 4000)
            .is_err());
        let mut bad = c.clone();
        bad[0] = 9;
        assert!(Deflate::default().decompress(&bad, 4000).is_err());
        assert!(Deflate::default().decompress(&[], 0).is_err());
    }

    #[test]
    fn long_zero_run_is_tiny() {
        let size = roundtrip(&vec![0u8; 1 << 20]);
        // header dominates: two code-length arrays ~316 bytes.
        assert!(size < 400, "1 MiB of zeros -> {size} bytes");
    }
}
