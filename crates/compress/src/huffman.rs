//! Canonical Huffman coding with a 15-bit length limit — the entropy stage
//! of the deflate-like codec.
//!
//! Code lengths are computed with the classic two-queue Huffman algorithm
//! and then clamped to [`MAX_CODE_LEN`] with zlib's overflow-repair step
//! (demote the deepest leaves until Kraft's inequality holds again).
//! Codes are assigned canonically (shorter codes first, ties by symbol),
//! so the decoder only needs the length array.

use crate::bitio::{BitReader, BitWriter};
use crate::DecodeError;

/// Maximum code length, as in deflate.
pub const MAX_CODE_LEN: u32 = 15;

/// Computes length-limited Huffman code lengths for `freqs`.
///
/// Symbols with zero frequency get length 0 (no code). If only one symbol
/// occurs it is assigned length 1.
pub fn code_lengths(freqs: &[u64]) -> Vec<u32> {
    let n = freqs.len();
    let mut lens = vec![0u32; n];
    let active: Vec<usize> = (0..n).filter(|&i| freqs[i] > 0).collect();
    match active.len() {
        0 => return lens,
        1 => {
            lens[active[0]] = 1;
            return lens;
        }
        _ => {}
    }

    // Standard Huffman over (freq, node). Internal nodes get parents;
    // leaf depth = code length.
    #[derive(Clone)]
    struct Node {
        freq: u64,
        // leaf: Some(symbol); internal: None
        symbol: Option<usize>,
        left: usize,
        right: usize,
    }
    let mut nodes: Vec<Node> = active
        .iter()
        .map(|&s| Node {
            freq: freqs[s],
            symbol: Some(s),
            left: usize::MAX,
            right: usize::MAX,
        })
        .collect();
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = nodes
        .iter()
        .enumerate()
        .map(|(i, nd)| Reverse((nd.freq, i)))
        .collect();
    while heap.len() > 1 {
        let Reverse((fa, a)) = heap.pop().unwrap();
        let Reverse((fb, b)) = heap.pop().unwrap();
        let idx = nodes.len();
        nodes.push(Node {
            freq: fa + fb,
            symbol: None,
            left: a,
            right: b,
        });
        heap.push(Reverse((fa + fb, idx)));
    }
    let root = nodes.len() - 1;
    // Iterative depth assignment.
    let mut stack = vec![(root, 0u32)];
    while let Some((i, depth)) = stack.pop() {
        let node = nodes[i].clone();
        match node.symbol {
            Some(s) => lens[s] = depth.max(1),
            None => {
                stack.push((node.left, depth + 1));
                stack.push((node.right, depth + 1));
            }
        }
    }

    limit_lengths(&mut lens, MAX_CODE_LEN);
    lens
}

/// Clamps code lengths to `max` while keeping the Kraft sum exactly 1
/// (zlib's `gen_bitlen` overflow repair, reformulated).
fn limit_lengths(lens: &mut [u32], max: u32) {
    if lens.iter().all(|&l| l <= max) {
        return;
    }
    // Kraft units of 2^-max per code.
    let unit = |l: u32| 1u64 << (max - l.min(max));
    for l in lens.iter_mut().filter(|l| **l > max) {
        *l = max;
    }
    let total: u64 = lens.iter().filter(|&&l| l > 0).map(|&l| unit(l)).sum();
    let budget = 1u64 << max;
    let mut excess = total.saturating_sub(budget);
    // Demote (lengthen is impossible at max; instead promote shorter codes
    // to longer ones frees budget): increasing a code's length from l to
    // l+1 frees 2^(max-l) - 2^(max-l-1) = 2^(max-l-1) units.
    while excess > 0 {
        // Find the longest code < max (largest l) to minimize quality loss.
        let victim = (0..lens.len())
            .filter(|&i| lens[i] > 0 && lens[i] < max)
            .max_by_key(|&i| lens[i])
            .expect("repairable overflow");
        let freed = 1u64 << (max - lens[victim] - 1);
        lens[victim] += 1;
        excess = excess.saturating_sub(freed);
    }
}

/// Canonical encoder table: `codes[s]` = (code bits LSB-first-ready, len).
pub struct Encoder {
    codes: Vec<(u64, u32)>,
}

impl Encoder {
    /// Builds the canonical codes for `lens`.
    pub fn new(lens: &[u32]) -> Self {
        let mut symbols: Vec<usize> = (0..lens.len()).filter(|&i| lens[i] > 0).collect();
        symbols.sort_by_key(|&s| (lens[s], s));
        let mut codes = vec![(0u64, 0u32); lens.len()];
        let mut code = 0u64;
        let mut prev_len = 0u32;
        for &s in &symbols {
            code <<= lens[s] - prev_len;
            prev_len = lens[s];
            // Reverse the bits so the MSB-first canonical code can be
            // written LSB-first.
            codes[s] = (reverse_bits(code, lens[s]), lens[s]);
            code += 1;
        }
        Self { codes }
    }

    /// Writes symbol `s`.
    ///
    /// # Panics
    /// Panics if `s` has no code.
    pub fn write(&self, w: &mut BitWriter, s: usize) {
        let (code, len) = self.codes[s];
        assert!(len > 0, "symbol {s} has no code");
        w.write(code, len);
    }
}

fn reverse_bits(v: u64, len: u32) -> u64 {
    let mut out = 0u64;
    for i in 0..len {
        out |= ((v >> i) & 1) << (len - 1 - i);
    }
    out
}

/// Canonical decoder: a single-level lookup table over `max_len` peeked
/// bits — entry `p` holds `(symbol + 1, code_len)` for the (unique) code
/// that is a prefix of bit pattern `p`, or `(0, 0)` for invalid patterns.
pub struct Decoder {
    /// `table[peeked_bits] = (symbol + 1, len)`; `(0, _)` marks invalid.
    table: Vec<(u16, u8)>,
    max_len: u32,
}

impl Decoder {
    /// Builds the decoder from the code-length array.
    pub fn new(lens: &[u32]) -> Result<Self, DecodeError> {
        let max_len = lens.iter().copied().max().unwrap_or(0);
        if max_len > MAX_CODE_LEN {
            return Err(DecodeError(format!("code length {max_len} exceeds limit")));
        }
        if lens.len() >= u16::MAX as usize {
            return Err(DecodeError("alphabet too large".into()));
        }
        // Kraft check: must not oversubscribe.
        let mut kraft = 0u64;
        for &l in lens {
            if l > 0 {
                kraft += 1u64 << (MAX_CODE_LEN - l);
            }
        }
        if kraft > 1u64 << MAX_CODE_LEN {
            return Err(DecodeError("oversubscribed code".into()));
        }
        // Assign canonical codes exactly as the encoder does, then splat
        // each (LSB-first-reversed) code across all table entries that
        // extend it.
        let mut symbols: Vec<usize> = (0..lens.len()).filter(|&i| lens[i] > 0).collect();
        symbols.sort_by_key(|&s| (lens[s], s));
        let mut table = vec![(0u16, 0u8); 1usize << max_len];
        let mut code = 0u64;
        let mut prev_len = 0u32;
        for &s in &symbols {
            code <<= lens[s] - prev_len;
            prev_len = lens[s];
            let rev = reverse_bits(code, lens[s]);
            let stride = 1usize << lens[s];
            let mut p = rev as usize;
            while p < table.len() {
                table[p] = ((s + 1) as u16, lens[s] as u8);
                p += stride;
            }
            code += 1;
        }
        Ok(Self { table, max_len })
    }

    /// Decodes one symbol.
    pub fn read(&self, r: &mut BitReader<'_>) -> Result<usize, DecodeError> {
        if self.max_len == 0 {
            return Err(DecodeError("empty code".into()));
        }
        let peeked = r.peek(self.max_len) as usize;
        let (sym1, len) = self.table[peeked];
        if sym1 == 0 {
            return Err(DecodeError("invalid Huffman code".into()));
        }
        r.consume(u32::from(len))?;
        Ok(usize::from(sym1) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_symbols(freqs: &[u64], stream: &[usize]) {
        let lens = code_lengths(freqs);
        let enc = Encoder::new(&lens);
        let mut w = BitWriter::new();
        for &s in stream {
            enc.write(&mut w, s);
        }
        let bytes = w.finish();
        let dec = Decoder::new(&lens).unwrap();
        let mut r = BitReader::new(&bytes);
        for &s in stream {
            assert_eq!(dec.read(&mut r).unwrap(), s);
        }
    }

    #[test]
    fn two_symbols() {
        roundtrip_symbols(&[5, 3], &[0, 1, 1, 0, 0, 0, 1]);
    }

    #[test]
    fn single_symbol_gets_one_bit() {
        let lens = code_lengths(&[0, 7, 0]);
        assert_eq!(lens, vec![0, 1, 0]);
        roundtrip_symbols(&[0, 7, 0], &[1, 1, 1]);
    }

    #[test]
    fn skewed_distribution_compresses() {
        // Frequencies 1024, 512, ..., 1: optimal lengths 1, 2, 3, ...
        let freqs: Vec<u64> = (0..10u32).map(|i| 1u64 << (10 - i)).collect();
        let lens = code_lengths(&freqs);
        assert_eq!(lens[0], 1);
        assert!(lens[9] <= MAX_CODE_LEN);
        // Expected bits < fixed 4-bit encoding.
        let total_bits: u64 = freqs
            .iter()
            .zip(&lens)
            .map(|(&f, &l)| f * u64::from(l))
            .sum();
        let fixed: u64 = freqs.iter().sum::<u64>() * 4;
        assert!(total_bits < fixed);
    }

    #[test]
    fn kraft_holds_after_limiting() {
        // Fibonacci frequencies force deep trees; limiting must repair.
        let mut freqs = vec![0u64; 40];
        let (mut a, mut b) = (1u64, 1u64);
        for f in freqs.iter_mut() {
            *f = a;
            let c = a + b;
            a = b;
            b = c;
        }
        let lens = code_lengths(&freqs);
        assert!(lens.iter().all(|&l| l <= MAX_CODE_LEN && l > 0));
        let kraft: f64 = lens.iter().map(|&l| 2f64.powi(-(l as i32))).sum();
        assert!(kraft <= 1.0 + 1e-12, "kraft {kraft}");
        // And it still decodes.
        let stream: Vec<usize> = (0..40).chain((0..40).rev()).collect();
        roundtrip_symbols(&freqs, &stream);
    }

    #[test]
    fn uniform_large_alphabet() {
        let freqs = vec![3u64; 300];
        let lens = code_lengths(&freqs);
        assert!(lens.iter().all(|&l| (8..=10).contains(&l)));
        roundtrip_symbols(&freqs, &(0..300).collect::<Vec<_>>());
    }

    #[test]
    fn decoder_rejects_oversubscribed() {
        // Three codes of length 1 oversubscribe.
        assert!(Decoder::new(&[1, 1, 1]).is_err());
    }

    #[test]
    fn decoder_rejects_garbage_stream() {
        let lens = code_lengths(&[1, 1, 1, 1]); // 2-bit codes for 4 symbols
        let dec = Decoder::new(&lens).unwrap();
        let bytes = [0xffu8];
        let mut r = BitReader::new(&bytes);
        // All 2-bit codes are valid here, so instead test stream exhaustion.
        for _ in 0..4 {
            let _ = dec.read(&mut r).unwrap();
        }
        assert!(dec.read(&mut r).is_err());
    }
}
