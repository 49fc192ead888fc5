//! LSB-first bit stream reader/writer used by the Huffman stage of the
//! deflate-like codec.

use crate::DecodeError;

/// Writes bits least-significant-first into a byte buffer.
#[derive(Debug, Default)]
pub struct BitWriter {
    out: Vec<u8>,
    /// Bits accumulated but not yet flushed (low bits valid).
    acc: u64,
    /// Number of valid bits in `acc` (< 8 after each push loop).
    nbits: u32,
}

impl BitWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends the low `count` bits of `bits` (LSB first).
    ///
    /// # Panics
    /// Panics if `count > 57` (accumulator headroom).
    pub fn write(&mut self, bits: u64, count: u32) {
        assert!(count <= 57, "too many bits at once: {count}");
        debug_assert!(count == 64 || bits < (1u64 << count));
        self.acc |= bits << self.nbits;
        self.nbits += count;
        while self.nbits >= 8 {
            self.out.push((self.acc & 0xff) as u8);
            self.acc >>= 8;
            self.nbits -= 8;
        }
    }

    /// Flushes the final partial byte (zero-padded) and returns the buffer.
    pub fn finish(mut self) -> Vec<u8> {
        if self.nbits > 0 {
            self.out.push((self.acc & 0xff) as u8);
        }
        self.out
    }

    /// Bits written so far (excluding padding).
    pub fn bit_len(&self) -> usize {
        self.out.len() * 8 + self.nbits as usize
    }
}

/// Reads bits least-significant-first from a byte slice.
#[derive(Debug)]
pub struct BitReader<'a> {
    input: &'a [u8],
    pos: usize,
    acc: u64,
    nbits: u32,
}

impl<'a> BitReader<'a> {
    /// Creates a reader over `input`.
    pub fn new(input: &'a [u8]) -> Self {
        Self {
            input,
            pos: 0,
            acc: 0,
            nbits: 0,
        }
    }

    fn refill(&mut self) {
        while self.nbits <= 56 && self.pos < self.input.len() {
            self.acc |= u64::from(self.input[self.pos]) << self.nbits;
            self.pos += 1;
            self.nbits += 8;
        }
    }

    /// Reads `count` bits (LSB first). Reading past the end errors.
    pub fn read(&mut self, count: u32) -> Result<u64, DecodeError> {
        assert!(count <= 57);
        if count == 0 {
            return Ok(0);
        }
        self.refill();
        if self.nbits < count {
            return Err(DecodeError("bit stream exhausted".into()));
        }
        let v = self.acc & ((1u64 << count) - 1);
        self.acc >>= count;
        self.nbits -= count;
        Ok(v)
    }

    /// Peeks up to `count` bits without consuming; missing bits at the end
    /// of the stream read as zero (table-driven Huffman decode relies on
    /// this: a valid short code is still resolvable near the end).
    pub fn peek(&mut self, count: u32) -> u64 {
        debug_assert!(count <= 57);
        self.refill();
        self.acc & ((1u64 << count) - 1)
    }

    /// Consumes `count` bits previously peeked.
    pub fn consume(&mut self, count: u32) -> Result<(), DecodeError> {
        self.refill();
        if self.nbits < count {
            return Err(DecodeError("bit stream exhausted".into()));
        }
        self.acc >>= count;
        self.nbits -= count;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_mixed_widths() {
        let mut w = BitWriter::new();
        let fields: Vec<(u64, u32)> = vec![
            (1, 1),
            (0, 1),
            (0b1011, 4),
            (0xff, 8),
            (0x12345, 20),
            (0, 3),
            (0x1ff_ffff_ffff, 41),
            (1, 1),
        ];
        for &(v, c) in &fields {
            w.write(v, c);
        }
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        for &(v, c) in &fields {
            assert_eq!(r.read(c).unwrap(), v, "width {c}");
        }
    }

    #[test]
    fn zero_width_reads() {
        let mut w = BitWriter::new();
        w.write(0b101, 3);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(0).unwrap(), 0);
        assert_eq!(r.read(3).unwrap(), 0b101);
    }

    #[test]
    fn exhaustion_errors() {
        let mut w = BitWriter::new();
        w.write(0b1, 1);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(8).unwrap(), 1); // padding zeros readable
        assert!(r.read(8).is_err());
    }

    #[test]
    fn bit_len_tracks() {
        let mut w = BitWriter::new();
        w.write(0, 5);
        assert_eq!(w.bit_len(), 5);
        w.write(0, 5);
        assert_eq!(w.bit_len(), 10);
    }
}
