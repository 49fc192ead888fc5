//! Property-style tests for the WAH compressed-domain kernels, focused on
//! the encoding's edge geometry: the `MAX_FILL` (2³⁰ − 1 groups) run-length
//! boundary, partial tail groups at every offset in `[1, 31]`, degenerate
//! all-ones/all-zeros inputs, structurally valid but non-canonical payloads,
//! and randomized round-trip plus k-ary op and whole-function [`wah::fold`]
//! equivalence against the dense [`BitVec`] kernels — at every lane count
//! on both sides of the merge's fixed-width dispatch. Every k-ary operation
//! is a [`Fold`] program: `wah::fold` is the one engine that merges runs.
//! Appends ([`WahBitmap::extend_from`]) and window summaries
//! ([`WahBitmap::summary`]) stay in the run domain and must equal their
//! dense counterparts exactly.
//!
//! The `MAX_FILL` cases build bitmaps of ~33 billion bits directly from
//! serialized fill words ([`WahBitmap::from_bytes`]), so they run in O(1)
//! space — the compressed kernels never expand fills, which is exactly the
//! property under test. `to_bitvec` is never called on those inputs.

use bindex::bitvec::kernels::{self, Fold, FoldStep};
use bindex::compress::wah::{self, SegmentCursor, WahBitmap};
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

/// `ops[0] ∘ ops[1] ∘ …` as one [`wah::fold`] program, one `step` per
/// operand after the seed.
fn chain<'a>(
    ops: &[&'a WahBitmap],
    step: fn(&'a WahBitmap) -> FoldStep<&'a WahBitmap>,
) -> WahBitmap {
    let program = Fold {
        seed: Some(ops[0]),
        steps: ops[1..].iter().map(|&w| step(w)).collect(),
        ..Fold::default()
    };
    wah::fold(ops[0].len(), &program)
}

/// The dense twin of [`chain`]: the same program for [`kernels::fold`]
/// and [`kernels::fold_count`].
fn dense_chain<'a>(
    ops: &[&'a BitVec],
    step: fn(&'a BitVec) -> FoldStep<&'a BitVec>,
) -> Fold<&'a BitVec> {
    Fold {
        seed: Some(ops[0]),
        steps: ops[1..].iter().map(|&b| step(b)).collect(),
        ..Fold::default()
    }
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
    assert_eq!(chain(&[&ones, &zeros], FoldStep::AndNot).count_ones(), len);
    assert_eq!(chain(&[&zeros, &ones], FoldStep::AndNot).count_ones(), 0);
    assert_eq!(chain(&[&ones, &zeros], FoldStep::And).count_ones(), 0);
    assert_eq!(chain(&[&ones, &zeros], FoldStep::Or).count_ones(), len);

    // NOT of a fill is the other fill; serialization round-trips exactly.
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
    assert_eq!(chain(&[&ones, &shifted], FoldStep::And), ones);
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
    assert_eq!(chain(&[&a, &b], FoldStep::Or).count_ones(), want_ones);
    assert_eq!(chain(&[&a, &b], FoldStep::AndNot).count_ones(), want_ones);
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
            assert_eq!(wa.or(&wb).count_ones(), (&a | &b).count_ones(), "{ctx}");
            assert_eq!(
                chain(&[&wa, &wb], FoldStep::AndNot).count_ones(),
                kernels::fold_count(len, &dense_chain(&[&a, &b], FoldStep::AndNot)),
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
        assert_eq!(chain(&[&w, &w, &w], FoldStep::And), w, "len {len}");
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
        // Mixed densities in one operand list: sparse operands bring long
        // fills, dense ones force literal-by-literal stretches.
        let dense_ops: Vec<BitVec> = (0..k)
            .map(|i| {
                let per_mille = [5, 50, 300, 700][(seed as usize + i) % 4];
                rand_bitvec_density(&mut rng, len, per_mille)
            })
            .collect();
        let wahs: Vec<WahBitmap> = dense_ops.iter().map(WahBitmap::from_bitvec).collect();
        let wrefs: Vec<&WahBitmap> = wahs.iter().collect();
        let drefs: Vec<&BitVec> = dense_ops.iter().collect();

        let and = chain(&wrefs, FoldStep::And);
        let or = chain(&wrefs, FoldStep::Or);
        let xor = wahs[1..].iter().fold(wahs[0].clone(), |acc, w| acc.xor(w));
        let and_not = chain(&[wrefs[0], wrefs[k - 1]], FoldStep::AndNot);
        assert_eq!(and.to_bitvec(), kernels::and_all(&drefs), "seed {seed}");
        assert_eq!(or.to_bitvec(), kernels::or_all(&drefs), "seed {seed}");
        assert_eq!(xor.to_bitvec(), kernels::xor_all(&drefs), "seed {seed}");
        assert_eq!(
            and_not.to_bitvec(),
            kernels::fold(
                len,
                &dense_chain(&[drefs[0], drefs[k - 1]], FoldStep::AndNot)
            ),
            "seed {seed}"
        );
        // Counted on the compressed result, yet bit-for-bit the fused
        // dense counts.
        assert_eq!(and.count_ones(), kernels::count_and(&drefs), "seed {seed}");
        assert_eq!(
            or.count_ones(),
            kernels::fold_count(len, &dense_chain(&drefs, FoldStep::Or)),
            "seed {seed}"
        );
        // The XOR of the others, then one seedless `AndXor` step.
        let head = kernels::xor_all(&drefs[1..]);
        let xor_last = Fold {
            steps: vec![FoldStep::AndXor(&head, drefs[0])],
            ..Fold::default()
        };
        assert_eq!(
            xor.count_ones(),
            kernels::fold_count(len, &xor_last),
            "seed {seed}"
        );
        assert_eq!(
            and_not.count_ones(),
            kernels::fold_count(
                len,
                &dense_chain(&[drefs[0], drefs[k - 1]], FoldStep::AndNot)
            ),
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

/// A random program with exactly `occurrences` operand occurrences over
/// operand indices `0..n_operands`: seed, steps (`AndXor` takes two) and
/// mask all count.
fn program_with_occurrences(rng: &mut Rng, n_operands: usize, occurrences: usize) -> Fold<usize> {
    let mut program = Fold {
        complement: rng.next_bool(),
        ..Fold::default()
    };
    let mut left = occurrences;
    let pick = |rng: &mut Rng| rng.below_usize(n_operands);
    if left > 0 && rng.next_bool() {
        program.seed = Some(pick(rng));
        left -= 1;
    }
    if left > 0 && rng.next_bool() {
        program.mask = Some(pick(rng));
        left -= 1;
    }
    while left > 0 {
        let step = match rng.below_u32(4) {
            0 => FoldStep::And(pick(rng)),
            1 => FoldStep::Or(pick(rng)),
            2 => FoldStep::AndNot(pick(rng)),
            _ if left >= 2 => {
                left -= 1;
                FoldStep::AndXor(pick(rng), pick(rng))
            }
            _ => FoldStep::Or(pick(rng)),
        };
        program.steps.push(step);
        left -= 1;
    }
    program
}

/// The run merge keeps up to eight lanes in fixed-width arrays and runs
/// wider programs over `Vec`s: at every operand-occurrence count on both
/// sides of that dispatch, `wah::fold` is `kernels::fold` — same bits,
/// canonical encoding.
#[test]
fn folds_match_the_dense_fold_at_every_lane_count() {
    let lengths = [1usize, 31, 100, 1985, 4099];
    for occurrences in 0..=16 {
        for seed in 0..8u64 {
            let mut rng = Rng::seed_from_u64(0x7_0000 + seed * 17 + occurrences as u64);
            let len = lengths[seed as usize % lengths.len()];
            let dense: Vec<BitVec> = (0..6)
                .map(|i| shaped_bitvec(&mut rng, len, if i < 3 { 0 } else { seed as usize + i }))
                .collect();
            let wahs: Vec<WahBitmap> = dense.iter().map(WahBitmap::from_bitvec).collect();
            let program = program_with_occurrences(&mut rng, dense.len(), occurrences);
            let want = kernels::fold(len, &program.map(|&i| &dense[i]));
            let got = wah::fold(len, &program.map(|&i| &wahs[i]));
            assert_eq!(
                got,
                WahBitmap::from_bitvec(&want),
                "{occurrences} occurrences, seed {seed}, len {len}: {program:?}"
            );
        }
    }
}

/// `wah::fold_count` is the popcount of `wah::fold`, by the same walk with
/// no result: at 0–9 operand occurrences (the constant programs, every
/// fixed lane count and the `Vec` lanes past eight), with and without
/// the complement and the mask, over canonical and dirty-tailed operands,
/// at every length around a group or word boundary — a complemented final
/// partial group counts no bit past `len`.
#[test]
fn fold_count_is_the_popcount_of_fold() {
    let lengths = [0usize, 1, 30, 31, 32, 62, 64, 100, 1985, 4099];
    for occurrences in 0..=9 {
        for seed in 0..2 * lengths.len() as u64 {
            let mut rng = Rng::seed_from_u64(0x9_0000 + seed * 37 + occurrences as u64);
            let len = lengths[seed as usize % lengths.len()];
            let dense: Vec<BitVec> = (0..6)
                .map(|i| shaped_bitvec(&mut rng, len, if i < 3 { 0 } else { seed as usize + i }))
                .collect();
            let wahs: Vec<WahBitmap> = dense
                .iter()
                .map(|d| match seed % 2 {
                    0 => WahBitmap::from_bitvec(d),
                    _ => hostile_encoding(&mut rng, &WahBitmap::from_bitvec(d)),
                })
                .collect();
            let mut program = program_with_occurrences(&mut rng, dense.len(), occurrences);
            for complement in [false, true] {
                program.complement = complement;
                let want = kernels::fold(len, &program.map(|&i| &dense[i])).count_ones();
                let program = program.map(|&i| &wahs[i]);
                let ctx = format!("{occurrences} occurrences, seed {seed}, len {len}: {program:?}");
                assert_eq!(wah::fold(len, &program).count_ones(), want, "{ctx}");
                assert_eq!(wah::fold_count(len, &program), want, "{ctx}");
            }
        }
    }
    // Runs at and across `MAX_FILL`, never expanded: a complemented or
    // constant program over a final partial group, and a run ending at
    // the boundary.
    let len = (MAX_FILL as usize - 1) * GROUP_BITS + 7;
    let ones = wah_from_words(len, &[fill_word(true, MAX_FILL - 1), (1 << 7) - 1]);
    let zeros = wah_from_words(len, &[fill_word(false, MAX_FILL)]);
    let extra = 5u32;
    let long = (MAX_FILL as usize + extra as usize) * GROUP_BITS + 3;
    let long_ones = wah_from_words(
        long,
        &[fill_word(true, MAX_FILL), fill_word(true, extra), 0b111],
    );
    let shifted = wah_from_words(
        long,
        &[
            fill_word(true, MAX_FILL - 1),
            fill_word(false, extra + 1),
            0b101,
        ],
    );
    let programs = [
        (len, vec![], false, None),
        (len, vec![], true, None),
        (len, vec![FoldStep::And(&zeros)], true, None),
        (len, vec![FoldStep::And(&ones)], true, None),
        (len, vec![FoldStep::AndNot(&zeros)], false, Some(&ones)),
        (long, vec![], false, None),
        (
            long,
            vec![FoldStep::AndXor(&long_ones, &shifted)],
            false,
            None,
        ),
        (long, vec![FoldStep::And(&shifted)], true, Some(&long_ones)),
    ];
    let xor = (extra as usize + 1) * GROUP_BITS + 1;
    let wants = [len, 0, len, 0, len, long, xor, xor];
    for ((len, steps, complement, mask), want) in programs.into_iter().zip(wants) {
        let program = Fold {
            seed: None,
            steps,
            complement,
            mask,
        };
        let ctx = format!("len {len}: {program:?}");
        assert_eq!(wah::fold(len, &program).count_ones(), want, "{ctx}");
        assert_eq!(wah::fold_count(len, &program), want, "{ctx}");
    }
}

/// The walk compiles a program into one role per lane, in program order,
/// so the shapes where a lane's position decides its role are pinned
/// here: `AndXor` first in a seedless program (its `b` chains onto a lane
/// with nothing before it), `AndXor` or `Or` right before the mask, the
/// complement and the mask with no other lane (the complement is applied
/// before the mask), `Or` first, and 9–10 lanes (the `Vec` lanes). Each
/// with and without the complement, at lengths around a group and a word
/// boundary: `wah::fold` and `wah::fold_count` are `kernels::fold`.
#[test]
fn lane_order_shapes_match_the_dense_fold() {
    use FoldStep::{And, AndNot, AndXor, Or};
    let fold = |seed, steps, mask| Fold {
        seed,
        steps,
        complement: false,
        mask,
    };
    let shapes = [
        fold(None, vec![AndXor(0, 1)], None),
        fold(None, vec![AndXor(0, 1), Or(2), AndXor(3, 4)], None),
        fold(Some(0), vec![And(1), AndXor(2, 3)], Some(4)),
        fold(None, vec![Or(5), AndXor(1, 0)], Some(2)),
        fold(None, vec![], Some(3)),
        fold(Some(1), vec![AndNot(2), Or(3)], Some(0)),
        fold(
            Some(0),
            vec![AndXor(1, 2), Or(3), AndXor(4, 5), AndNot(0), And(1)],
            Some(2),
        ),
        fold(
            None,
            vec![
                AndXor(0, 1),
                Or(2),
                AndXor(3, 4),
                AndNot(5),
                Or(4),
                AndXor(1, 2),
            ],
            Some(0),
        ),
    ];
    let lengths = [1usize, 30, 31, 32, 62, 63, 95, 1985, 4099];
    for seed in 0..2 * lengths.len() as u64 {
        let mut rng = Rng::seed_from_u64(0xA_0000 + seed);
        let len = lengths[seed as usize % lengths.len()];
        let dense: Vec<BitVec> = (0..6)
            .map(|i| shaped_bitvec(&mut rng, len, if i < 3 { 0 } else { seed as usize + i }))
            .collect();
        let wahs: Vec<WahBitmap> = dense.iter().map(WahBitmap::from_bitvec).collect();
        for shape in &shapes {
            for complement in [false, true] {
                let program = Fold {
                    complement,
                    ..shape.clone()
                };
                let want = kernels::fold(len, &program.map(|&i| &dense[i]));
                let wah_program = program.map(|&i| &wahs[i]);
                let ctx = format!("seed {seed} len {len}: {program:?}");
                assert_eq!(
                    wah::fold(len, &wah_program),
                    WahBitmap::from_bitvec(&want),
                    "{ctx}"
                );
                assert_eq!(
                    wah::fold_count(len, &wah_program),
                    want.count_ones(),
                    "{ctx}"
                );
            }
        }
    }
}

/// `wah::threshold_k` is the dense carry-save threshold at every fan-in
/// from 2 to 12 and every `k`, over run-shaped and noisy operands.
#[test]
fn thresholds_match_the_dense_csa_at_fan_ins_2_to_12() {
    for n in 2..=12usize {
        for seed in 0..3u64 {
            let mut rng = Rng::seed_from_u64(0x8_0000 + seed * 31 + n as u64);
            let len = [62usize, 1985, 4099][seed as usize];
            let dense: Vec<BitVec> = (0..n)
                .map(|i| shaped_bitvec(&mut rng, len, if i % 3 == 0 { 0 } else { i }))
                .collect();
            let wahs: Vec<WahBitmap> = dense.iter().map(WahBitmap::from_bitvec).collect();
            let (wrefs, drefs): (Vec<&WahBitmap>, Vec<&BitVec>) = wahs.iter().zip(&dense).unzip();
            for k in 0..=n + 1 {
                assert_eq!(
                    wah::threshold_k(&wrefs, k),
                    WahBitmap::from_bitvec(&kernels::threshold_k(&drefs, k)),
                    "n {n} k {k} seed {seed} len {len}"
                );
            }
        }
    }
}

// ---- appends in the run domain ----

fn concat(a: &BitVec, b: &BitVec) -> BitVec {
    let mut out = a.clone();
    out.extend_from(b);
    out
}

/// `extend_from` reopens the final partial group wherever it ends: at
/// every base tail offset, for deltas that stop inside the reopened group,
/// fill it exactly, or run on for many groups, the result is
/// `from_bitvec` of the concatenation — the canonical encoding.
#[test]
fn extend_from_is_from_bitvec_of_the_concatenation_at_every_tail_offset() {
    for tail in 0..GROUP_BITS {
        for seed in 0..6u64 {
            let mut rng = Rng::seed_from_u64(0x9_0000 + seed * 41 + tail as u64);
            let base_len = [1usize, 4, 70][(seed % 3) as usize] * GROUP_BITS + tail;
            let base = shaped_bitvec(&mut rng, base_len, seed as usize);
            for delta_len in [1, GROUP_BITS - tail, GROUP_BITS - tail + 1, 200, 5000] {
                let delta = shaped_bitvec(&mut rng, delta_len, seed as usize + delta_len);
                let mut got = WahBitmap::from_bitvec(&base);
                got.extend_from(&delta);
                let want = concat(&base, &delta);
                let ctx = format!("tail {tail} seed {seed} delta {delta_len}");
                assert_eq!(got, WahBitmap::from_bitvec(&want), "{ctx}");
                assert_eq!(got.to_bitvec(), want, "{ctx}");
                assert_eq!(got.len(), base_len + delta_len, "{ctx}");
            }
        }
    }
}

#[test]
fn extend_from_an_empty_base_or_by_an_empty_delta() {
    let mut rng = Rng::seed_from_u64(0xA_0000);
    for len in [0usize, 1, 31, 62, 1000] {
        let bits = shaped_bitvec(&mut rng, len, len);
        let mut from_empty = WahBitmap::from_bitvec(&BitVec::zeros(0));
        from_empty.extend_from(&bits);
        assert_eq!(from_empty, WahBitmap::from_bitvec(&bits), "len {len}");
        let mut unchanged = WahBitmap::from_bitvec(&bits);
        unchanged.extend_from(&BitVec::zeros(0));
        assert_eq!(unchanged, WahBitmap::from_bitvec(&bits), "len {len}");
    }
}

/// A base ending in a maximal fill: appended groups open a new fill
/// instead of overflowing it, and a partial group at the end of a
/// `MAX_FILL` zero-fill is reopened out of it. ~33 Gbit, never expanded.
#[test]
fn extend_from_a_base_ending_in_a_max_fill_run() {
    let len = MAX_FILL as usize * GROUP_BITS;
    let mut ones = wah_from_words(len, &[fill_word(true, MAX_FILL)]);
    ones.extend_from(&BitVec::ones(2 * GROUP_BITS + 5));
    let want = [fill_word(true, MAX_FILL), fill_word(true, 2), (1 << 5) - 1];
    assert_eq!(ones, wah_from_words(len + 2 * GROUP_BITS + 5, &want));
    assert_eq!(ones.count_ones(), ones.len());

    // The last group of the zero-fill holds only 26 bits.
    let len = MAX_FILL as usize * GROUP_BITS - 5;
    let mut zeros = wah_from_words(len, &[fill_word(false, MAX_FILL)]);
    zeros.extend_from(&BitVec::ones(5 + GROUP_BITS));
    let want = [
        fill_word(false, MAX_FILL - 1),
        0x7FFF_FFFF & !((1 << 26) - 1),
        fill_word(true, 1),
    ];
    assert_eq!(zeros, wah_from_words(len + 5 + GROUP_BITS, &want));
    assert_eq!(zeros.count_ones(), 5 + GROUP_BITS);
}

/// The run-domain summary is the dense one, window for window, at window
/// boundaries a literal group straddles and at ragged lengths — also for
/// the hostile encodings a store may hold.
#[test]
fn run_domain_summary_matches_the_dense_summary() {
    use bindex::bitvec::SlotSummary;
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xB_0000 + seed);
        let len = [1usize, 63, 64, 65, 1000, 4099, 20_011][seed as usize % 7];
        let bits = shaped_bitvec(&mut rng, len, seed as usize);
        let canonical = WahBitmap::from_bitvec(&bits);
        let hostile = hostile_encoding(&mut rng, &canonical);
        for window in [64usize, 128, 640, 4096] {
            let want = SlotSummary::build_with_window(&bits, window);
            assert_eq!(
                canonical.summary(window),
                want,
                "seed {seed} window {window}"
            );
            assert_eq!(
                hostile.summary(window),
                want,
                "hostile seed {seed} window {window}"
            );
        }
    }
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

// ---- structurally valid, non-canonical payloads ----

/// The same bits as `w` in an encoding [`WahBitmap::from_bytes`] accepts
/// but [`WahBitmap::from_bitvec`] never writes: fills split into adjacent
/// same-valued fills, groups peeled off a fill as all-zero / all-one
/// *literal* words, and set bits past `len` in the last literal.
fn hostile_encoding(rng: &mut Rng, w: &WahBitmap) -> WahBitmap {
    const FILL_FLAG: u32 = 0x8000_0000;
    const GROUP_MASK: u32 = 0x7FFF_FFFF;
    let len = w.len();
    let bytes = w.to_bytes();
    let canonical = bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()));
    let ragged = !len.is_multiple_of(GROUP_BITS);
    let n_words = canonical.len();
    let mut words = Vec::new();
    for (i, word) in canonical.enumerate() {
        if word & FILL_FLAG == 0 {
            words.push(word);
            continue;
        }
        let value = word & 0x4000_0000 != 0;
        let mut count = word & MAX_FILL;
        // A fill over a partial tail group always ends in a literal, so
        // there is a word to carry the dirty bits.
        let peel = rng.next_bool() || (ragged && i + 1 == n_words);
        count -= u32::from(peel);
        if count >= 2 && rng.next_bool() {
            let head = 1 + rng.below_u32(count - 1);
            words.push(fill_word(value, head));
            count -= head;
        }
        if count > 0 {
            words.push(fill_word(value, count));
        }
        if peel {
            words.push(if value { GROUP_MASK } else { 0 });
        }
    }
    if ragged {
        let past_len = GROUP_MASK & !((1u32 << (len % GROUP_BITS)) - 1);
        *words.last_mut().expect("a non-empty bitmap") |= past_len & rng.next_u64() as u32;
    }
    wah_from_words(len, &words)
}

/// A stored slot reaches `wah::fold` through `from_bytes`, which checks
/// structure, not canonical form. Whatever the operands' encoding, every
/// reader sees the same bits and every result is the canonical encoding
/// of the dense answer.
#[test]
fn hostile_but_valid_encodings_give_the_canonical_answer() {
    let lengths = [1usize, 31, 40, 62, 100, 1985, 4099, 20_011];
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x6_0000 + seed);
        let len = lengths[seed as usize % lengths.len()];
        let dense: Vec<BitVec> = (0..4)
            .map(|i| shaped_bitvec(&mut rng, len, if i < 2 { 0 } else { seed as usize + i }))
            .collect();
        let wahs: Vec<WahBitmap> = dense
            .iter()
            .map(|d| hostile_encoding(&mut rng, &WahBitmap::from_bitvec(d)))
            .collect();
        let canonical = WahBitmap::from_bitvec;
        for (w, d) in wahs.iter().zip(&dense) {
            assert_eq!(w.to_bitvec(), *d, "seed {seed}");
            assert_eq!(w.count_ones(), d.count_ones(), "seed {seed}");
            assert_eq!(w.not(), canonical(&d.complement()), "seed {seed}");
            let mut cursor = SegmentCursor::new(w.clone().into());
            assert_eq!(cursor.window(0, len), *d, "seed {seed}");
        }
        let (a, b) = (&wahs[0], &wahs[1]);
        assert_eq!(a.and(b), canonical(&(&dense[0] & &dense[1])), "seed {seed}");
        assert_eq!(a.or(b), canonical(&(&dense[0] | &dense[1])), "seed {seed}");
        assert_eq!(a.xor(b), canonical(&(&dense[0] ^ &dense[1])), "seed {seed}");
        let program = Fold {
            seed: Some(2usize),
            steps: vec![FoldStep::AndNot(3), FoldStep::Or(0)],
            complement: true,
            mask: Some(1),
        };
        assert_eq!(
            wah::fold(len, &program.map(|&i| &wahs[i])),
            canonical(&kernels::fold(len, &program.map(|&i| &dense[i]))),
            "seed {seed}"
        );
        let (wrefs, drefs): (Vec<&WahBitmap>, Vec<&BitVec>) = wahs.iter().zip(&dense).unzip();
        for k in 0..=5 {
            assert_eq!(
                wah::threshold_k(&wrefs, k),
                canonical(&kernels::threshold_k(&drefs, k)),
                "seed {seed} k {k}"
            );
        }
    }
}
