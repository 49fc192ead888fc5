//! CRC32 (IEEE 802.3 polynomial), implemented in-repo.
//!
//! Every stored file carries a CRC32 of its payload in the frame header
//! (see [`format`](crate::format)), so a read can distinguish "the bytes I
//! wrote" from "the bytes the medium gave back". The reflected polynomial
//! `0xEDB88320` with initial value and final XOR of `!0` matches zlib's
//! `crc32()`, gzip, and PNG, so checksums are externally checkable.
//!
//! The kernel is slicing-by-16: sixteen 256-entry tables, built at compile
//! time, let one step consume sixteen input bytes with sixteen independent
//! lookups XORed together, instead of sixteen dependent lookups. A cold
//! slot read checksums every byte it fetches, so this loop — not the
//! bitmap kernels — sets the speed of an uncached read. It stays IEEE (the
//! x86 `crc32` instruction computes Castagnoli, which would change every
//! stored file) and safe Rust (carry-less-multiply folding needs
//! `unsafe` intrinsics, which every crate here forbids).

/// Bytes consumed per step of the sliced loop.
const SLICES: usize = 16;

/// `TABLES[0]` is the classic byte-at-a-time table for the reflected
/// polynomial; `TABLES[k][b]` is the CRC of byte `b` followed by `k` zero
/// bytes, so a byte `k` positions before the end of a block contributes
/// through table `k`.
const fn build_tables() -> [[u32; 256]; SLICES] {
    let mut tables = [[0u32; 256]; SLICES];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; SLICES] = build_tables();

/// One byte through the classic table walk.
#[inline]
fn step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize]
}

/// CRC32 of `data` (IEEE polynomial, zlib-compatible).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut blocks = data.chunks_exact(SLICES);
    for block in &mut blocks {
        let block: &[u8; SLICES] = block.try_into().expect("chunks_exact(16)");
        // The running CRC folds into the first four bytes; every byte
        // then looks up the table for its distance from the block end.
        let head = crc.to_le_bytes();
        crc = 0;
        for (i, &byte) in block.iter().enumerate() {
            let byte = if i < 4 { byte ^ head[i] } else { byte };
            crc ^= TABLES[SLICES - 1 - i][usize::from(byte)];
        }
    }
    for &byte in blocks.remainder() {
        crc = step(crc, byte);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::splitmix64;

    /// The byte-at-a-time loop the sliced kernel replaced, kept as the
    /// oracle it must agree with on every input.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        !data.iter().fold(!0u32, |crc, &byte| step(crc, byte))
    }

    /// Deterministic filler, so failures reproduce.
    fn random_bytes(len: usize, mut seed: u64) -> Vec<u8> {
        (0..len).map(|_| splitmix64(&mut seed) as u8).collect()
    }

    #[test]
    fn known_vectors() {
        // Standard CRC32 check values (same as zlib's crc32()).
        for crc in [crc32, crc32_bytewise] {
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(
                crc(b"The quick brown fox jumps over the lazy dog"),
                0x414F_A339
            );
        }
    }

    #[test]
    fn sliced_kernel_matches_bytewise_at_every_length_and_offset() {
        let buf = random_bytes(16 + 257, 1);
        for start in 0..16 {
            for len in 0..=257 {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "start {start} len {len}");
            }
        }
    }

    #[test]
    fn sliced_kernel_matches_bytewise_on_a_mebibyte() {
        let buf = random_bytes(1 << 20, 2);
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
        // Unaligned start and a tail shorter than one block.
        assert_eq!(
            crc32(&buf[3..(1 << 20) - 6]),
            crc32_bytewise(&buf[3..(1 << 20) - 6])
        );
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let data = vec![0xA5u8; 257];
        let base = crc32(&data);
        for byte in [0usize, 100, 256] {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32(&flipped), base, "byte {byte} bit {bit}");
            }
        }
    }

    #[test]
    fn depends_on_position() {
        assert_ne!(crc32(&[1, 0]), crc32(&[0, 1]));
    }
}
