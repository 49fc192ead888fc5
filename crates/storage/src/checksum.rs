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
//! lookups XORed together, instead of sixteen dependent lookups. One such
//! stream is still one dependent chain — running CRC → sixteen loads → XOR
//! tree → next block, about sixteen cycles per block — so it is bound by
//! that latency (1.9 GiB/s on the reference box), not by the loads. The
//! body therefore walks `LANES` equal sub-ranges of the buffer in one
//! loop, one running CRC each, and stitches them with
//! `crc(A‖B) = crc(A)·x^(8|B|) mod P ⊕ crc(B)`: a 32-step carry-less
//! multiply over the reflected polynomial and a table of `x^(2^k)`. What
//! bounds it then is one table load per input byte (3.7 GiB/s). Body, tail
//! and short inputs all run the same block step.
//!
//! A cold slot read checksums every byte it fetches, so this loop — not the
//! bitmap kernels — sets the speed of an uncached read. It stays IEEE (the
//! x86 `crc32` instruction computes Castagnoli, which would change every
//! stored file) and safe Rust (carry-less-multiply folding needs
//! `unsafe` intrinsics, which every crate here forbids).

/// The reflected IEEE 802.3 polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Bytes consumed per step of the sliced loop.
const SLICES: usize = 16;

/// Independent streams the body walks at once. Measured on a 256 KiB
/// slot (EXPERIMENTS.md "PR 24"): 1 lane 1.9, 2 lanes 3.5, 3 lanes 3.7,
/// 4 lanes 3.3, 5 to 8 lanes 2.4–2.7 GiB/s.
const LANES: usize = 3;

/// Inputs shorter than this take one lane and no combine. Stitching costs
/// a fixed ≈ 110 ns (`x_pow_bytes` plus two `mulmod`s); three lanes lose
/// below 768 bytes, break even from there to 1.4 KiB, and win by 1.35× or
/// more from 1.5 KiB up, so manifests, small WAL records and short WAH
/// slots keep the walk they had.
const ONE_LANE_BELOW: usize = 2048;

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
                (crc >> 1) ^ POLY
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

/// One byte through the classic table walk — the last `len % 16` bytes of
/// a buffer, and the test oracle.
#[inline]
fn step(crc: u32, byte: u8) -> u32 {
    (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize]
}

/// One 16-byte block through the sliced tables: the running CRC folds into
/// the first four bytes, then every byte looks up the table for its
/// distance from the block end. The sixteen loads are independent; the
/// only chain is `crc` in → XOR tree → `crc` out.
#[inline(always)]
fn block_step(crc: u32, block: &[u8]) -> u32 {
    let block: &[u8; SLICES] = block.try_into().expect("every caller passes 16 bytes");
    let head = crc.to_le_bytes();
    let mut next = 0;
    for (i, &byte) in block.iter().enumerate() {
        let byte = if i < 4 { byte ^ head[i] } else { byte };
        next ^= TABLES[SLICES - 1 - i][usize::from(byte)];
    }
    next
}

/// `a · b mod P` over GF(2), both operands and the result bit-reflected
/// like the CRC register (bit 31 is `x^0`).
const fn mulmod(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        b = if b & 1 != 0 { (b >> 1) ^ POLY } else { b >> 1 };
        bit >>= 1;
    }
    product
}

/// `X2N[k]` is `x^(2^k) mod P`. The polynomial's period is `2^32 − 1`, so
/// `x^(2^32) = x` and the table repeats from there: `k` is taken mod 32.
const fn build_x2n() -> [u32; 32] {
    let mut table = [0u32; 32];
    table[0] = 1 << 30;
    let mut k = 1;
    while k < 32 {
        table[k] = mulmod(table[k - 1], table[k - 1]);
        k += 1;
    }
    table
}

static X2N: [u32; 32] = build_x2n();

/// `x^(8·len) mod P` by square-and-multiply: multiplying a CRC register by
/// it is what feeding `len` zero bytes does.
fn x_pow_bytes(mut len: usize) -> u32 {
    let mut power = 1u32 << 31;
    let mut k = 3;
    while len != 0 {
        if len & 1 != 0 {
            power = mulmod(X2N[k % 32], power);
        }
        len >>= 1;
        k += 1;
    }
    power
}

/// The register after `A‖B`, from the register after `A` (any start
/// value), the register after `B` started from zero, and `shift =
/// x_pow_bytes(|B|)`. The same identity holds for two finished
/// [`crc32`] values — the `!0` conditioning cancels.
#[inline]
fn combine(crc_a: u32, crc_b: u32, shift: u32) -> u32 {
    mulmod(shift, crc_a) ^ crc_b
}

/// CRC32 of `data` (IEEE polynomial, zlib-compatible).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    let mut rest = data;
    if data.len() >= ONE_LANE_BELOW {
        let lane_len = data.len() / LANES / SLICES * SLICES;
        let (body, tail) = data.split_at(LANES * lane_len);
        let lanes: [&[u8]; LANES] = std::array::from_fn(|i| &body[i * lane_len..][..lane_len]);
        // Only the first lane continues `crc`; a lane started from zero
        // is what `combine` takes on its right.
        let mut crcs = [0u32; LANES];
        crcs[0] = crc;
        for at in (0..lane_len).step_by(SLICES) {
            for (crc, lane) in crcs.iter_mut().zip(lanes) {
                *crc = block_step(*crc, &lane[at..at + SLICES]);
            }
        }
        let shift = x_pow_bytes(lane_len);
        crc = crcs[1..]
            .iter()
            .fold(crcs[0], |crc, &next| combine(crc, next, shift));
        rest = tail;
    }
    let mut blocks = rest.chunks_exact(SLICES);
    for block in &mut blocks {
        crc = block_step(crc, block);
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

    /// The byte-at-a-time loop, kept as the oracle the laned kernel must
    /// agree with on every input.
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
        // Past the threshold every lane length and tail residue occurs.
        let longest = LANES * ONE_LANE_BELOW + 64;
        let buf = random_bytes(16 + longest, 1);
        for start in 0..16 {
            // One bytewise pass per offset: its running value after `len`
            // bytes is the oracle for that prefix.
            let mut oracle = !0u32;
            for len in 0..=longest {
                let data = &buf[start..start + len];
                assert_eq!(crc32(data), !oracle, "start {start} len {len}");
                oracle = step(oracle, buf[start + len]);
            }
        }
    }

    #[test]
    fn sliced_kernel_matches_bytewise_on_a_mebibyte() {
        let buf = random_bytes(1 << 20, 2);
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
        // Every tail residue of an uneven three-way split of a 256 KiB slot.
        for extra in [0, 1, 15, 16, 17, 47, 48, 49] {
            let data = &buf[..262_144 + extra];
            assert_eq!(crc32(data), crc32_bytewise(data), "262144 + {extra}");
        }
        // Unaligned start and a tail shorter than one block.
        assert_eq!(
            crc32(&buf[3..(1 << 20) - 6]),
            crc32_bytewise(&buf[3..(1 << 20) - 6])
        );
    }

    #[test]
    fn combine_stitches_two_checksums_into_the_checksum_of_the_concatenation() {
        let mut seed = 3;
        for case in 0..256 {
            // Empty halves on either side, then lengths across the threshold.
            let len_a = [0, 1, splitmix64(&mut seed) as usize % 9000][case % 3];
            let len_b = [0, 1, splitmix64(&mut seed) as usize % 9000][case / 3 % 3];
            let a = random_bytes(len_a, splitmix64(&mut seed));
            let b = random_bytes(len_b, splitmix64(&mut seed));
            let whole = [a.as_slice(), b.as_slice()].concat();
            assert_eq!(
                combine(crc32(&a), crc32(&b), x_pow_bytes(len_b)),
                crc32_bytewise(&whole),
                "|a| {len_a} |b| {len_b}"
            );
        }
    }

    #[test]
    fn square_and_multiply_equals_feeding_zero_bytes() {
        // x^0 is bit 31 of the reflected register; one zero byte is x^8.
        let mut shifted = 1u32 << 31;
        for len in 0..=300 {
            assert_eq!(x_pow_bytes(len), shifted, "x^(8*{len})");
            shifted = step(shifted, 0);
        }
        assert_eq!(mulmod(1 << 31, 0xDEAD_BEEF), 0xDEAD_BEEF, "x^0 is one");
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
