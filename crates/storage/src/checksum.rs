//! CRC32 (IEEE 802.3 polynomial), implemented in-repo.
//!
//! Every stored file carries a CRC32 of its payload in the frame header
//! (see [`format`](crate::format)), so a read can distinguish "the bytes I
//! wrote" from "the bytes the medium gave back". The reflected polynomial
//! `0xEDB88320` with initial value and final XOR of `!0` matches zlib's
//! `crc32()`, gzip, and PNG, so checksums are externally checkable.
//!
//! There are two bodies, chosen by length.
//!
//! **The table walk** (under 4,800 bytes, and the end of every input) is
//! slicing-by-16: sixteen 256-entry tables, built at compile time, let one
//! step consume sixteen input bytes with sixteen independent lookups XORed
//! together. One such stream is one dependent chain — running CRC →
//! sixteen loads → XOR tree → next block — so the body walks `LANES`
//! equal sub-ranges at once, one running CRC each, and stitches them with
//! `crc(A‖B) = crc(A)·x^(8|B|) mod P ⊕ crc(B)`: a 32-step carry-less
//! multiply over the reflected polynomial and a table of `x^(2^k)`. What
//! bounds it is one table load per input byte (3.7 GiB/s on the
//! reference box).
//!
//! **The fold** (4,800 bytes and up) uses no table for all but the last
//! 2,400 bytes. The polynomial
//! `Q(x) = x^(64·300) + x^(64·155) + x^(64·117) + x^(64·89) + 1`
//! is a multiple of the IEEE polynomial `P`, so a 64-bit word's
//! contribution to the CRC is unchanged when it is XORed into the words
//! 145, 183, 211 and 300 words later and cleared. Done to every word but
//! the last 300, in order, that is the recurrence
//! `v_k = w_k ⊕ v_(k−145) ⊕ v_(k−183) ⊕ v_(k−211) ⊕ v_(k−300)`
//! over little-endian words: four XORs and one store per word, in slice
//! loops the compiler vectorizes into 256-bit AVX2 XORs at the
//! workspace's pinned x86-64-v3 level (the root `.cargo/config.toml`;
//! 128-bit SSE2 on the x86-64 baseline). What bounds it is
//! those XOR passes per word, not table loads. The cleared prefix costs
//! one multiply (the `!0` start register times `x^(8·len)`), and the last
//! 300 words, with what the fold sent them, take the table walk. A
//! meet-in-the-middle search over `x^(64k) mod P`, matching
//! `x^(64a) + x^(64b)` against `x^(64c) + x^(64d) + 1`, finds `Q` as the
//! only such relation with `a < 512`, in 40 ms; the idea of folding
//! through a sparse multiple is Russell's Chorba CRC (2024). A test pins
//! the relation, and the threshold is twice its span, not a knob.
//!
//! Measured by `cargo bench --bench storage_layouts` (group `crc32`) on
//! the 2-vCPU reference box, one pinned CPU, best of eight runs
//! alternated with the same source built for the x86-64 baseline:
//! 256 KiB 15.9 µs (15.4 GiB/s; baseline 17.5 µs), 1 MiB 58.9 µs
//! (16.6 GiB/s; 66.1 µs), 32 KiB 3.1 µs (3.2 µs). 1 KiB and 4 KiB take
//! the table walk, at the same speed on both levels. The table walk alone
//! took 112–120 µs at 256 KiB (3.7 GiB/s), and at the 4,800-byte
//! threshold the two bodies run within 5 % of each other. A cold slot read
//! checksums every byte it fetches, so this loop sets much of the speed
//! of an uncached read. It stays IEEE (the x86 `crc32` instruction
//! computes Castagnoli, which would change every stored file) and safe
//! Rust: no `std::arch`, no `#[target_feature]` function.

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

/// Words the fold leaves standing at the end of a buffer: the top
/// exponent of the sparse multiple `Q(x) = x^(64·300) + x^(64·155) +
/// x^(64·117) + x^(64·89) + 1` of the polynomial, in 64-bit words.
const FOLD_SPAN: usize = 300;

/// How far back, in words, each folded word reads the folded words
/// before it: `300 − e` for each lower exponent `e ∈ {155, 117, 89, 0}`
/// of `Q`.
const FOLD_BACK: [usize; 4] = [145, 183, 211, 300];

/// Words folded per pass: no block reaches back into itself (145 is the
/// shortest distance), so every pass is one plain slice loop.
const FOLD_BLOCK: usize = 145;

/// Folded words kept on the stack (9.4 KiB). The last `FOLD_SPAN` of them
/// move to the front when the next block would not fit; a window twice
/// as long moves them half as often and measured at most 6 % faster.
const FOLD_WINDOW: usize = 4 * FOLD_SPAN;

/// CRC32 of `data` (IEEE polynomial, zlib-compatible).
pub fn crc32(data: &[u8]) -> u32 {
    let crc = if data.len() >= 2 * FOLD_SPAN * 8 {
        fold_then_walk(data)
    } else {
        walk(!0, data)
    };
    !crc
}

/// The register after `data`, fed from `crc` through the sliced tables:
/// `LANES` stitched streams over the body when the input is long enough,
/// then 16-byte blocks, then single bytes.
fn walk(mut crc: u32, data: &[u8]) -> u32 {
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
    crc
}

/// The register after `data` (at least `2 · FOLD_SPAN` words), fed from
/// `!0`. Word `k` of the message stands for `w_k · x^(64·d)`, `d` words
/// before the end. Since `Q ≡ 0 (mod P)`, that term equals `w_k` placed at
/// words `k + 145`, `k + 183`, `k + 211` and `k + 300`; moving every word
/// but the last `FOLD_SPAN` forward that way, in order, zeroes them and
/// leaves the CRC as it was. Word `k`'s value when its turn comes is
/// `v_k = w_k ⊕ v_(k−145) ⊕ v_(k−183) ⊕ v_(k−211) ⊕ v_(k−300)`, so the
/// fold is that recurrence over plain 64-bit XORs, with no table. The zero
/// prefix and the `!0` start then cost one multiply, and only the last
/// 300 words, plus the under-8-byte tail, take the table walk. Kept out
/// of line so a short input does not set up its 14 KiB of stack arrays.
#[inline(never)]
fn fold_then_walk(data: &[u8]) -> u32 {
    let words = data.len() / 8;
    let folded = words - FOLD_SPAN;
    // `window[at - t]` is `v_(k−t)` for the next word `k`; the first
    // `FOLD_SPAN` zeros are the words before the buffer.
    let mut window = [0u64; FOLD_WINDOW];
    let mut at = FOLD_SPAN;
    for start in (0..folded).step_by(FOLD_BLOCK) {
        if at + FOLD_BLOCK > FOLD_WINDOW {
            window.copy_within(at - FOLD_SPAN..at, 0);
            at = FOLD_SPAN;
        }
        let len = FOLD_BLOCK.min(folded - start);
        let (past, next) = window.split_at_mut(at);
        let [a, b, c, d] = FOLD_BACK.map(|back| &past[at - back..][..len]);
        let input = data[8 * start..][..8 * len].chunks_exact(8);
        for (i, (value, word)) in next[..len].iter_mut().zip(input).enumerate() {
            let word = u64::from_le_bytes(word.try_into().expect("8-byte chunk"));
            *value = word ^ a[i] ^ b[i] ^ c[i] ^ d[i];
        }
        at += len;
    }
    // The words left standing take what the folded words sent them: word
    // `i` of them reads back `t` words only while that is still a folded
    // word, `i < t`.
    let (standing_bytes, tail) = data[8 * folded..].split_at(FOLD_SPAN * 8);
    let mut standing = [0u64; FOLD_SPAN];
    for (word, bytes) in standing.iter_mut().zip(standing_bytes.chunks_exact(8)) {
        *word = u64::from_le_bytes(bytes.try_into().expect("8-byte chunk"));
    }
    for back in FOLD_BACK {
        for (word, sent) in standing.iter_mut().zip(&window[at - back..at]) {
            *word ^= sent;
        }
    }
    let mut rest = [0u8; FOLD_SPAN * 8 + 7];
    for (bytes, word) in rest.chunks_exact_mut(8).zip(standing) {
        bytes.copy_from_slice(&word.to_le_bytes());
    }
    rest[FOLD_SPAN * 8..][..tail.len()].copy_from_slice(tail);
    walk(
        mulmod(x_pow_bytes(8 * folded), !0),
        &rest[..FOLD_SPAN * 8 + tail.len()],
    )
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

    /// Pins the relation the fold rests on: `x^(64k)` over the five
    /// exponents of `Q` XORs to zero, so `Q` is a multiple of `P`, and no
    /// four of them do, so every term is needed.
    #[test]
    fn the_sparse_multiple_is_a_multiple_of_the_polynomial() {
        const EXPONENTS: [usize; 5] = [300, 155, 117, 89, 0];
        assert_eq!(FOLD_SPAN, EXPONENTS[0]);
        assert_eq!(FOLD_BACK, [300 - 155, 300 - 117, 300 - 89, 300]);
        let term = |words: usize| x_pow_bytes(8 * words);
        assert_eq!(EXPONENTS.iter().fold(0, |q, &e| q ^ term(e)), 0);
        for dropped in EXPONENTS {
            let rest = EXPONENTS.iter().filter(|&&e| e != dropped);
            assert_ne!(rest.fold(0, |q, &e| q ^ term(e)), 0, "without {dropped}");
        }
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
