//! Property-style tests for the WAH compressed-domain kernels, focused on
//! the encoding's edge geometry: the `MAX_FILL` (2³⁰ − 1 groups) run-length
//! boundary, partial tail groups at every offset in `[1, 31]`, degenerate
//! all-ones/all-zeros inputs, and randomized round-trip plus k-ary op and
//! whole-function [`wah::fold`] equivalence against the dense [`BitVec`]
//! kernels.
//!
//! The `MAX_FILL` cases build bitmaps of ~33 billion bits directly from
//! serialized fill words ([`WahBitmap::from_bytes`]), so they run in O(1)
//! space — the compressed kernels never expand fills, which is exactly the
//! property under test. `to_bitvec` is never called on those inputs.

use bindex::bitvec::kernels::{self, Fold, FoldStep};
use bindex::compress::wah::{self, WahBitmap};
use bindex::relation::Rng;
use bindex::BitVec;

const CASES: u64 = 64;

/// Bits per WAH group (mirrors the private constant in `compress::wah`).
const GROUP_BITS: usize = 31;
/// Largest group count a single fill word can carry: 2³⁰ − 1.
const MAX_FILL: u32 = (1 << 30) - 1;

/// Encodes a fill word: MSB set, bit 30 = fill value, low 30 bits = count.
fn fill_word(value: bool, count: u32) -> u32 {
    assert!((1..=MAX_FILL).contains(&count));
    0x8000_0000 | if value { 0x4000_0000 } else { 0 } | count
}

/// Serializes raw WAH words the way `WahBitmap::to_bytes` does.
fn word_bytes(words: &[u32]) -> Vec<u8> {
    words.iter().flat_map(|w| w.to_le_bytes()).collect()
}

fn wah_from_words(len: usize, words: &[u32]) -> WahBitmap {
    WahBitmap::from_bytes(len, &word_bytes(words)).expect("valid WAH payload")
}

fn rand_bitvec_len(rng: &mut Rng, len: usize) -> BitVec {
    let bools: Vec<bool> = (0..len).map(|_| rng.next_bool()).collect();
    BitVec::from_bools(&bools)
}

/// Random bit-vector with set-bit probability `per_mille`/1000 — k-ary op
/// equivalence should hold at sparse and dense mixtures alike.
fn rand_bitvec_density(rng: &mut Rng, len: usize, per_mille: u32) -> BitVec {
    let bools: Vec<bool> = (0..len).map(|_| rng.below_u32(1000) < per_mille).collect();
    BitVec::from_bools(&bools)
}

// ---- MAX_FILL boundary ----

#[test]
fn max_fill_single_run_ops_without_expansion() {
    // One fill word spanning the maximum 2³⁰ − 1 groups: ~33.3 Gbit.
    let len = MAX_FILL as usize * GROUP_BITS;
    let ones = wah_from_words(len, &[fill_word(true, MAX_FILL)]);
    let zeros = wah_from_words(len, &[fill_word(false, MAX_FILL)]);
    assert_eq!(ones.len(), len);
    assert_eq!(ones.count_ones(), len);
    assert_eq!(zeros.count_ones(), 0);

    assert_eq!(ones.and(&zeros).count_ones(), 0);
    assert_eq!(ones.or(&zeros).count_ones(), len);
    assert_eq!(ones.xor(&zeros).count_ones(), len);
    assert_eq!(ones.xor(&ones).count_ones(), 0);
    assert_eq!(wah::and_not(&ones, &zeros).count_ones(), len);
    assert_eq!(wah::and_not(&zeros, &ones).count_ones(), 0);

    // Fused counts agree with the materializing kernels at the boundary.
    assert_eq!(wah::count_and(&[&ones, &zeros]), 0);
    assert_eq!(wah::count_or(&[&ones, &zeros]), len);
    assert_eq!(wah::count_xor(&[&ones, &zeros]), len);
    assert_eq!(wah::count_and_not(&ones, &zeros), len);

    // NOT flips a fill in place; serialization round-trips exactly.
    assert_eq!(zeros.not(), ones);
    assert_eq!(WahBitmap::from_bytes(len, &ones.to_bytes()).unwrap(), ones);
    assert_eq!(ones.compressed_bytes(), 4, "still a single word");
}

#[test]
fn runs_longer_than_max_fill_split_and_remerge() {
    // 2³⁰ + 4 groups: must be carried by at least two fill words, and any
    // kernel result covering the whole span must re-split below MAX_FILL.
    let extra = 5u32;
    let ngroups = MAX_FILL as usize + extra as usize;
    let len = ngroups * GROUP_BITS;
    let ones = wah_from_words(len, &[fill_word(true, MAX_FILL), fill_word(true, extra)]);
    let zeros = wah_from_words(len, &[fill_word(false, MAX_FILL), fill_word(false, extra)]);
    assert_eq!(ones.count_ones(), len);

    let or = ones.or(&zeros);
    assert_eq!(or.count_ones(), len);
    assert_eq!(or, ones, "canonical re-encoding of the oversized run");
    // The result still decodes: group accounting survives the split.
    assert_eq!(WahBitmap::from_bytes(len, &or.to_bytes()).unwrap(), or);

    // Misaligned run boundaries across the MAX_FILL split: one operand
    // breaks its runs at MAX_FILL, the other one group earlier.
    let shifted = wah_from_words(
        len,
        &[fill_word(true, MAX_FILL - 1), fill_word(true, extra + 1)],
    );
    assert_eq!(ones.and(&shifted).count_ones(), len);
    assert_eq!(wah::count_and(&[&ones, &shifted]), len);
    assert_eq!(ones.xor(&shifted).count_ones(), 0);
}

#[test]
fn max_fill_boundary_with_literal_tail() {
    // A maximal fill followed by one literal group, merged against a
    // two-word zero fill whose run boundary does not line up.
    let ngroups = MAX_FILL as usize + 1;
    let len = ngroups * GROUP_BITS;
    let literal = 0x2AAA_AAAAu32; // MSB clear: a 31-bit literal group
    let a = wah_from_words(len, &[fill_word(true, MAX_FILL), literal]);
    let b = wah_from_words(len, &[fill_word(false, 7), fill_word(false, MAX_FILL - 6)]);
    let want_ones = MAX_FILL as usize * GROUP_BITS + literal.count_ones() as usize;
    assert_eq!(a.count_ones(), want_ones);

    assert_eq!(a.or(&b).count_ones(), want_ones);
    assert_eq!(a.and(&b).count_ones(), 0);
    assert_eq!(a.xor(&b).count_ones(), want_ones);
    assert_eq!(wah::count_or(&[&a, &b]), want_ones);
    assert_eq!(wah::count_and_not(&a, &b), want_ones);
    assert_eq!(a.not().count_ones(), len - want_ones);
}

// ---- partial tails at every offset ----

#[test]
fn partial_tails_at_every_offset() {
    for tail in 1..=GROUP_BITS {
        for seed in 0..8u64 {
            let mut rng = Rng::seed_from_u64(0x2_0000 + seed * 37 + tail as u64);
            let full_groups = [0usize, 1, 4][(seed % 3) as usize];
            let len = full_groups * GROUP_BITS + tail;
            let a = rand_bitvec_len(&mut rng, len);
            let b = rand_bitvec_len(&mut rng, len);
            let (wa, wb) = (WahBitmap::from_bitvec(&a), WahBitmap::from_bitvec(&b));
            let ctx = format!("tail {tail} seed {seed} len {len}");

            assert_eq!(wa.to_bitvec(), a, "{ctx}");
            assert_eq!(wa.count_ones(), a.count_ones(), "{ctx}");
            // The complement must keep bits past `len` zero — the tail
            // offset is exactly what mask_tail renormalizes.
            assert_eq!(wa.not().to_bitvec(), a.complement(), "{ctx}");
            assert_eq!(wa.not().count_ones(), len - a.count_ones(), "{ctx}");
            assert_eq!(wa.and(&wb).to_bitvec(), &a & &b, "{ctx}");
            assert_eq!(wa.or(&wb).to_bitvec(), &a | &b, "{ctx}");
            assert_eq!(wa.xor(&wb).to_bitvec(), &a ^ &b, "{ctx}");
            assert_eq!(wah::count_or(&[&wa, &wb]), (&a | &b).count_ones(), "{ctx}");
            assert_eq!(
                wah::count_and_not(&wa, &wb),
                kernels::count_and_not(&a, &b),
                "{ctx}"
            );
            // Serialization round-trip at this exact tail offset.
            assert_eq!(
                WahBitmap::from_bytes(len, &wa.to_bytes()).unwrap(),
                wa,
                "{ctx}"
            );
        }
    }
}

#[test]
fn all_ones_compresses_to_fills_at_any_tail() {
    for len in [
        1usize,
        30,
        31,
        32,
        61,
        62,
        63,
        93,
        1000,
        31 * 64,
        31 * 64 + 17,
    ] {
        let ones = BitVec::from_fn(len, |_| true);
        let w = WahBitmap::from_bitvec(&ones);
        assert_eq!(w.count_ones(), len, "len {len}");
        assert_eq!(w.to_bitvec(), ones, "len {len}");
        assert_eq!(w.not().count_ones(), 0, "len {len}");
        assert!(
            w.compressed_bytes() <= 8,
            "len {len}: all-ones should be at most a fill plus a tail literal, \
             got {} bytes",
            w.compressed_bytes()
        );
        // OR with itself is idempotent and stays canonical.
        assert_eq!(w.or(&w), w, "len {len}");
        assert_eq!(wah::count_and(&[&w, &w, &w]), len, "len {len}");
    }
}

// ---- randomized round-trip and op equivalence ----

#[test]
fn random_roundtrip_matches_bitvec() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x3_0000 + seed);
        let len = rng.range_usize(1, 4096);
        let per_mille = [2, 20, 200, 500, 980][(seed % 5) as usize];
        let a = rand_bitvec_density(&mut rng, len, per_mille);
        let w = WahBitmap::from_bitvec(&a);
        assert_eq!(w.to_bitvec(), a, "seed {seed}");
        assert_eq!(w.count_ones(), a.count_ones(), "seed {seed}");
        assert_eq!(
            w.density(),
            a.count_ones() as f64 / len as f64,
            "seed {seed}"
        );
        assert_eq!(
            WahBitmap::from_bytes(len, &w.to_bytes()).unwrap(),
            w,
            "seed {seed}"
        );
    }
}

#[test]
fn random_kary_ops_match_dense_kernels() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x4_0000 + seed);
        let len = rng.range_usize(1, 2500);
        let k = rng.range_usize(2, 7);
        // Mixed densities in one operand list: sparse operands trigger the
        // absorbing/identity skips while dense ones force literal folding.
        let dense_ops: Vec<BitVec> = (0..k)
            .map(|i| {
                let per_mille = [5, 50, 300, 700][(seed as usize + i) % 4];
                rand_bitvec_density(&mut rng, len, per_mille)
            })
            .collect();
        let wahs: Vec<WahBitmap> = dense_ops.iter().map(WahBitmap::from_bitvec).collect();
        let wrefs: Vec<&WahBitmap> = wahs.iter().collect();
        let drefs: Vec<&BitVec> = dense_ops.iter().collect();

        assert_eq!(
            wah::and_all(&wrefs).to_bitvec(),
            kernels::and_all(&drefs),
            "seed {seed}"
        );
        assert_eq!(
            wah::or_all(&wrefs).to_bitvec(),
            kernels::or_all(&drefs),
            "seed {seed}"
        );
        assert_eq!(
            wah::xor_all(&wrefs).to_bitvec(),
            kernels::xor_all(&drefs),
            "seed {seed}"
        );
        assert_eq!(
            wah::and_not(wrefs[0], wrefs[k - 1]).to_bitvec(),
            kernels::and_not(drefs[0], drefs[k - 1]),
            "seed {seed}"
        );
        // Fused counts never materialize, yet must agree bit-for-bit.
        assert_eq!(
            wah::count_and(&wrefs),
            kernels::count_and(&drefs),
            "seed {seed}"
        );
        assert_eq!(
            wah::count_or(&wrefs),
            kernels::count_or(&drefs),
            "seed {seed}"
        );
        assert_eq!(
            wah::count_xor(&wrefs),
            kernels::count_xor(&drefs),
            "seed {seed}"
        );
        assert_eq!(
            wah::count_and_not(wrefs[0], wrefs[k - 1]),
            kernels::count_and_not(drefs[0], drefs[k - 1]),
            "seed {seed}"
        );
    }
}

// ---- the whole-function fold ----

/// One operand of the given shape: runs of thousands of bits (what a
/// clustered column's range bitmaps look like), a few isolated bits,
/// coin flips (every group a literal), all zeros, all ones.
fn shaped_bitvec(rng: &mut Rng, len: usize, shape: usize) -> BitVec {
    match shape % 5 {
        0 => {
            let mut bools = Vec::with_capacity(len);
            let mut value = rng.next_bool();
            while bools.len() < len {
                let run = rng.range_usize(1, 3000).min(len - bools.len());
                bools.extend(std::iter::repeat_n(value, run));
                value = !value;
            }
            BitVec::from_bools(&bools)
        }
        1 => rand_bitvec_density(rng, len, 3),
        2 => rand_bitvec_len(rng, len),
        3 => BitVec::zeros(len),
        _ => BitVec::ones(len),
    }
}

/// A random program over operand indices `0..n_operands`: 0–6 steps of
/// every kind, with or without a seed, a complement and a mask.
fn random_program(rng: &mut Rng, n_operands: usize) -> Fold<usize> {
    let pick = |rng: &mut Rng| rng.below_usize(n_operands);
    let seed = rng.next_bool().then(|| pick(rng));
    let steps = (0..rng.below_usize(7))
        .map(|_| match rng.below_u32(4) {
            0 => FoldStep::And(pick(rng)),
            1 => FoldStep::Or(pick(rng)),
            2 => FoldStep::AndNot(pick(rng)),
            _ => FoldStep::AndXor(pick(rng), pick(rng)),
        })
        .collect();
    Fold {
        seed,
        steps,
        complement: rng.next_bool(),
        mask: rng.next_bool().then(|| pick(rng)),
    }
}

/// `wah::fold` is `kernels::fold` over the decoded operands: same bits,
/// same count, and the canonical encoding of them (tail bits clear after
/// a complement, fills merged) — at lengths that are multiples of neither
/// 31 nor 64, at the degenerate ones, and past one 31 × 64-bit period.
#[test]
fn random_folds_match_the_dense_fold() {
    let lengths = [0usize, 1, 31, 62, 64, 100, 1000, 1985, 4099, 20_011];
    for seed in 0..4 * CASES {
        let mut rng = Rng::seed_from_u64(0x5_0000 + seed);
        let len = lengths[seed as usize % lengths.len()];
        let dense: Vec<BitVec> = (0..5)
            .map(|i| {
                // Mostly run-shaped operands, one of each other shape
                // rotating through.
                let shape = if i < 3 { 0 } else { seed as usize + i };
                shaped_bitvec(&mut rng, len, shape)
            })
            .collect();
        let wahs: Vec<WahBitmap> = dense.iter().map(WahBitmap::from_bitvec).collect();
        let program = random_program(&mut rng, dense.len());
        let want = kernels::fold(len, &program.map(|&i| &dense[i]));
        let got = wah::fold(len, &program.map(|&i| &wahs[i]));
        let ctx = format!("seed {seed} len {len} program {program:?}");
        assert_eq!(got.to_bitvec(), want, "{ctx}");
        assert_eq!(got.count_ones(), want.count_ones(), "{ctx}");
        assert_eq!(got, WahBitmap::from_bitvec(&want), "canonical: {ctx}");
    }
}

/// Without an operand the fold is a constant function of the length.
#[test]
fn operandless_folds_are_constant_fills() {
    for len in [0usize, 1, 31, 62, 64, 1000] {
        let ones: Fold<&WahBitmap> = Fold::default();
        let zeros = Fold {
            complement: true,
            ..Fold::default()
        };
        assert_eq!(
            wah::fold(len, &ones),
            WahBitmap::from_bitvec(&BitVec::ones(len))
        );
        assert_eq!(
            wah::fold(len, &zeros),
            WahBitmap::from_bitvec(&BitVec::zeros(len))
        );
    }
}

/// Runs at and across the `MAX_FILL` boundary fold arithmetically: the
/// operands are ~33 Gbit, nothing is ever expanded.
#[test]
fn fold_at_the_max_fill_boundary() {
    let extra = 5u32;
    let len = (MAX_FILL as usize + extra as usize) * GROUP_BITS;
    let ones = wah_from_words(len, &[fill_word(true, MAX_FILL), fill_word(true, extra)]);
    let shifted = wah_from_words(
        len,
        &[fill_word(true, MAX_FILL - 1), fill_word(false, extra + 1)],
    );
    let program = Fold {
        seed: Some(&ones),
        steps: vec![FoldStep::AndNot(&shifted), FoldStep::Or(&shifted)],
        complement: true,
        mask: Some(&ones),
    };
    // (ones ∧ ¬shifted) ∨ shifted = ones; its complement is empty.
    assert_eq!(wah::fold(len, &program).count_ones(), 0);
    let program = Fold {
        seed: None,
        steps: vec![FoldStep::AndXor(&ones, &shifted)],
        ..Fold::default()
    };
    assert_eq!(
        wah::fold(len, &program).count_ones(),
        (extra as usize + 1) * GROUP_BITS
    );
}

#[test]
#[should_panic(expected = "length mismatch")]
fn fold_panics_on_mismatched_operand_lengths() {
    let a = WahBitmap::from_bitvec(&BitVec::zeros(100));
    let b = WahBitmap::from_bitvec(&BitVec::zeros(101));
    let program = Fold {
        seed: Some(&a),
        steps: vec![FoldStep::Or(&b)],
        ..Fold::default()
    };
    let _ = wah::fold(100, &program);
}
