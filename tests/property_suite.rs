//! Property-style tests over the core data structures and invariants:
//! bit-vector algebra, codec round-trips, mixed-radix decomposition,
//! evaluator/oracle equivalence on random columns, and the Theorem 8.1
//! refinement invariants.
//!
//! Each property is checked over many seeded random cases drawn from the
//! in-repo [`Rng`] (the build environment has no crates-registry access,
//! so an external property-testing framework is not available). Failures
//! print the case seed, which reproduces the case deterministically.

use bindex::bitvec::kernels::{self, Fold, FoldStep};
use bindex::compress::wah::WahBitmap;
use bindex::compress::{Codec, Lzss, Rle};
use bindex::core::cost::{self, time_range_paper};
use bindex::core::design::constrained::refine_index;
use bindex::core::design::range_space;
use bindex::core::eval::{evaluate, naive, Algorithm};
use bindex::relation::query::{Op, SelectionQuery};
use bindex::relation::{Column, Rng};
use bindex::{Base, BitVec, BitmapIndex, Encoding, IndexSpec};

const CASES: u64 = 64;

fn rand_bitvec_len(rng: &mut Rng, len: usize) -> BitVec {
    let bools: Vec<bool> = (0..len).map(|_| rng.next_bool()).collect();
    BitVec::from_bools(&bools)
}

fn rand_bitvec(rng: &mut Rng, max_len: usize) -> BitVec {
    let len = rng.below_usize(max_len + 1);
    rand_bitvec_len(rng, len)
}

/// Two random bit-vectors of the same (random) length.
fn rand_pair(rng: &mut Rng, max_len: usize) -> (BitVec, BitVec) {
    let len = rng.below_usize(max_len + 1);
    (rand_bitvec_len(rng, len), rand_bitvec_len(rng, len))
}

fn rand_bytes(rng: &mut Rng, max_len: usize) -> Vec<u8> {
    let len = rng.below_usize(max_len + 1);
    (0..len).map(|_| rng.next_u64() as u8).collect()
}

/// A well-defined base: 1..=4 components with digits in `2..13` and
/// product at most 4096 (mirrors the old proptest strategy).
fn rand_base(rng: &mut Rng) -> Base {
    loop {
        let k = rng.range_usize(1, 5);
        let digits: Vec<u32> = (0..k).map(|_| 2 + rng.below_u32(11)).collect();
        if digits.iter().map(|&b| u64::from(b)).product::<u64>() <= 4096 {
            return Base::new(digits).unwrap();
        }
    }
}

// ---- bit-vector algebra ----

#[test]
fn bv_double_complement_is_identity() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x1000 + seed);
        let a = rand_bitvec(&mut rng, 300);
        assert_eq!(a.complement().complement(), a, "seed {seed}");
    }
}

#[test]
fn bv_demorgan() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x2000 + seed);
        let (a, b) = rand_pair(&mut rng, 300);
        assert_eq!(
            (&a & &b).complement(),
            &a.complement() | &b.complement(),
            "seed {seed}"
        );
        assert_eq!(
            (&a | &b).complement(),
            &a.complement() & &b.complement(),
            "seed {seed}"
        );
    }
}

#[test]
fn bv_xor_is_symmetric_difference() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x3000 + seed);
        let (a, b) = rand_pair(&mut rng, 300);
        let direct = &a ^ &b;
        let mut or = a.clone() | &b;
        or.and_not_assign(&(&a & &b));
        assert_eq!(direct, or, "seed {seed}");
    }
}

#[test]
fn bv_popcount_consistency() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x4000 + seed);
        let (a, b) = rand_pair(&mut rng, 300);
        // |A| + |B| = |A∪B| + |A∩B|
        assert_eq!(
            a.count_ones() + b.count_ones(),
            (&a | &b).count_ones() + (&a & &b).count_ones(),
            "seed {seed}"
        );
    }
}

#[test]
fn bv_bytes_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x5000 + seed);
        let a = rand_bitvec(&mut rng, 500);
        assert_eq!(BitVec::from_bytes(a.len(), &a.to_bytes()), a, "seed {seed}");
    }
}

#[test]
fn bv_iter_ones_sorted_and_complete() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x6000 + seed);
        let a = rand_bitvec(&mut rng, 500);
        let ones: Vec<usize> = a.iter_ones().collect();
        assert!(ones.windows(2).all(|w| w[0] < w[1]), "seed {seed}");
        assert_eq!(ones.len(), a.count_ones(), "seed {seed}");
        for i in ones {
            assert!(a.get(i), "seed {seed} bit {i}");
        }
    }
}

// ---- fused k-ary kernels ----

/// Lengths that exercise the word-boundary tails: exact multiples of 64,
/// one straggler bit, a nearly-full tail word, plus a random length.
fn kernel_len(rng: &mut Rng, case: u64) -> usize {
    let words = rng.range_usize(1, 16);
    match case % 4 {
        0 => words * 64,
        1 => words * 64 + 1,
        2 => words * 64 + 63,
        _ => rng.range_usize(1, 1000),
    }
}

fn rand_operands(rng: &mut Rng, case: u64) -> Vec<BitVec> {
    let len = kernel_len(rng, case);
    let k = rng.range_usize(1, 9);
    (0..k).map(|_| rand_bitvec_len(rng, len)).collect()
}

/// `ops[0] ∘ ops[1] ∘ …` as one `Fold` program, one `step` per operand
/// after the seed.
fn chain<'a>(ops: &[&'a BitVec], step: fn(&'a BitVec) -> FoldStep<&'a BitVec>) -> Fold<&'a BitVec> {
    Fold {
        seed: Some(ops[0]),
        steps: ops[1..].iter().map(|&b| step(b)).collect(),
        ..Fold::default()
    }
}

/// `|ops[0] ⊕ ops[1] ⊕ …|` through `fold_count`: one seedless `AndXor`
/// step over the last operand and the XOR of the others.
fn xor_count(ops: &[&BitVec]) -> usize {
    let (last, rest) = ops.split_last().expect("an operand");
    let head = match rest {
        [] => BitVec::zeros(last.len()),
        _ => kernels::xor_all(rest),
    };
    let program = Fold {
        steps: vec![FoldStep::AndXor(&head, *last)],
        ..Fold::default()
    };
    kernels::fold_count(last.len(), &program)
}

#[test]
fn kary_kernels_match_pairwise_folds() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x1_1000 + seed);
        let operands = rand_operands(&mut rng, seed);
        let refs: Vec<&BitVec> = operands.iter().collect();
        let fold = |op: fn(&mut BitVec, &BitVec)| {
            let mut acc = operands[0].clone();
            for o in &operands[1..] {
                op(&mut acc, o);
            }
            acc
        };
        assert_eq!(
            kernels::and_all(&refs),
            fold(BitVec::and_assign),
            "seed {seed}"
        );
        assert_eq!(
            kernels::or_all(&refs),
            fold(BitVec::or_assign),
            "seed {seed}"
        );
        assert_eq!(
            kernels::xor_all(&refs),
            fold(BitVec::xor_assign),
            "seed {seed}"
        );
    }
}

#[test]
fn kary_and_not_matches_two_step() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x1_2000 + seed);
        let len = kernel_len(&mut rng, seed);
        let a = rand_bitvec_len(&mut rng, len);
        let b = rand_bitvec_len(&mut rng, len);
        let mut want = a.clone();
        want.and_assign(&b.complement());
        let and_not = chain(&[&a, &b], FoldStep::AndNot);
        assert_eq!(kernels::fold(len, &and_not), want, "seed {seed}");
    }
}

#[test]
fn fused_counts_match_materialized_counts() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x1_3000 + seed);
        let operands = rand_operands(&mut rng, seed);
        let refs: Vec<&BitVec> = operands.iter().collect();
        assert_eq!(
            kernels::count_and(&refs),
            kernels::and_all(&refs).count_ones(),
            "seed {seed}"
        );
        let len = refs[0].len();
        assert_eq!(
            kernels::fold_count(len, &chain(&refs, FoldStep::Or)),
            kernels::or_all(&refs).count_ones(),
            "seed {seed}"
        );
        assert_eq!(
            xor_count(&refs),
            kernels::xor_all(&refs).count_ones(),
            "seed {seed}"
        );
        let and_not = chain(&[refs[0], refs[refs.len() - 1]], FoldStep::AndNot);
        assert_eq!(
            kernels::fold_count(len, &and_not),
            kernels::fold(len, &and_not).count_ones(),
            "seed {seed}"
        );
    }
}

#[test]
fn kary_kernels_preserve_canonical_tail() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x1_4000 + seed);
        let operands = rand_operands(&mut rng, seed);
        let refs: Vec<&BitVec> = operands.iter().collect();
        // Complementing twice round-trips only if the tail stayed zero.
        for out in [
            kernels::and_all(&refs),
            kernels::or_all(&refs),
            kernels::xor_all(&refs),
        ] {
            assert_eq!(out.complement().complement(), out, "seed {seed}");
        }
    }
}

// ---- codecs ----

#[test]
fn rle_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x7000 + seed);
        let data = rand_bytes(&mut rng, 2000);
        let c = Rle.compress(&data);
        assert_eq!(Rle.decompress(&c, data.len()).unwrap(), data, "seed {seed}");
    }
}

#[test]
fn lzss_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x8000 + seed);
        let data = rand_bytes(&mut rng, 2000);
        let codec = Lzss::default();
        let c = codec.compress(&data);
        assert_eq!(
            codec.decompress(&c, data.len()).unwrap(),
            data,
            "seed {seed}"
        );
    }
}

#[test]
fn lzss_roundtrip_runny() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0x9000 + seed);
        let n_runs = rng.below_usize(40 + 1);
        let data: Vec<u8> = (0..n_runs)
            .flat_map(|_| {
                let byte = rng.next_u64() as u8;
                let len = rng.range_usize(1, 200);
                std::iter::repeat_n(byte, len)
            })
            .collect();
        let codec = Lzss::default();
        let c = codec.compress(&data);
        assert_eq!(
            codec.decompress(&c, data.len()).unwrap(),
            data,
            "seed {seed}"
        );
    }
}

#[test]
fn wah_roundtrip_and_ops() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xa000 + seed);
        let (a, b) = rand_pair(&mut rng, 600);
        let (wa, wb) = (WahBitmap::from_bitvec(&a), WahBitmap::from_bitvec(&b));
        assert_eq!(wa.to_bitvec(), a.clone(), "seed {seed}");
        assert_eq!(wa.count_ones(), a.count_ones(), "seed {seed}");
        assert_eq!(wa.and(&wb).to_bitvec(), &a & &b, "seed {seed}");
        assert_eq!(wa.or(&wb).to_bitvec(), &a | &b, "seed {seed}");
        assert_eq!(wa.xor(&wb).to_bitvec(), &a ^ &b, "seed {seed}");
        assert_eq!(wa.not().to_bitvec(), a.complement(), "seed {seed}");
    }
}

// ---- mixed-radix decomposition ----

#[test]
fn decompose_compose_roundtrip() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xb000 + seed);
        let base = rand_base(&mut rng);
        let product = base.product() as u32;
        let n_values = rng.range_usize(1, 20);
        for _ in 0..n_values {
            let v = rng.below_u32(4096) % product;
            let digits = base.decompose(v).unwrap();
            assert_eq!(digits.len(), base.n_components(), "seed {seed}");
            for (i, &d) in digits.iter().enumerate() {
                assert!(d < base.as_lsb_slice()[i], "seed {seed}");
            }
            assert_eq!(base.compose(&digits).unwrap(), v, "seed {seed}");
        }
    }
}

#[test]
fn decomposition_preserves_order() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xc000 + seed);
        let base = rand_base(&mut rng);
        // Mixed-radix with msb-first digit comparison is order-preserving.
        let product = base.product() as u32;
        let step = (product / 50).max(1);
        let mut prev: Option<Vec<u32>> = None;
        let mut v = 0;
        while v < product {
            let mut digits = base.decompose(v).unwrap();
            digits.reverse(); // msb first for lexicographic comparison
            if let Some(p) = &prev {
                assert!(p < &digits, "seed {seed} v {v}");
            }
            prev = Some(digits);
            v += step;
        }
    }
}

// ---- evaluation equivalence on random columns ----

#[test]
fn evaluators_match_oracle() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xd000 + seed);
        let base = rand_base(&mut rng);
        let c = base.product() as u32;
        let n_rows = rng.range_usize(1, 120);
        let values: Vec<u32> = (0..n_rows).map(|_| rng.below_u32(c)).collect();
        let column = Column::new(values, c);
        let op = Op::ALL[rng.below_usize(Op::ALL.len())];
        let q = SelectionQuery::new(op, rng.below_u32(c));
        let want = naive::evaluate(&column, q);
        for (encoding, algos) in [
            (
                Encoding::Range,
                &[Algorithm::RangeEval, Algorithm::RangeEvalOpt][..],
            ),
            (Encoding::Equality, &[Algorithm::EqualityEval][..]),
            (Encoding::Interval, &[Algorithm::IntervalEval][..]),
        ] {
            let idx = BitmapIndex::build(&column, IndexSpec::new(base.clone(), encoding)).unwrap();
            for &algo in algos {
                let (found, stats) = evaluate(&mut idx.source(), q, algo).unwrap();
                assert_eq!(&found, &want, "seed {seed} {encoding:?} {algo:?} {q}");
                assert_eq!(
                    stats.scans,
                    cost::predicted_scans(&base, q, algo),
                    "scan prediction seed {seed} {algo:?} {q}"
                );
            }
        }
    }
}

/// `[scans, ands, ors, xors, nots]`.
type OpCounts = [usize; 5];

/// [`OpCounts`] summed over the full query space, per
/// base and null mask, for RangeEval, EqualityEval and IntervalEval in that
/// order. Operator counts depend on the query, the base and `B_nn` alone,
/// never on the data; these were recorded from the operator-at-a-time
/// evaluators.
#[rustfmt::skip]
const PINNED_DENSE_COUNTS: [(&[u32], bool, [OpCounts; 3]); 10] = [
    (&[3, 3], false, [[144, 156, 66, 36, 69], [106, 52, 22, 0, 48], [176, 146, 22, 0, 96]]),
    (&[3, 3], true, [[198, 165, 66, 36, 69], [159, 105, 22, 0, 48], [229, 199, 22, 0, 96]]),
    (&[2, 5], false, [[156, 172, 72, 36, 78], [126, 58, 34, 0, 93], [154, 94, 26, 0, 89]]),
    (&[2, 5], true, [[216, 182, 72, 36, 78], [185, 117, 34, 0, 93], [213, 153, 26, 0, 89]]),
    (&[2, 2, 3], false, [[240, 296, 104, 24, 148], [196, 140, 44, 0, 167], [236, 180, 44, 0, 135]]),
    (&[2, 2, 3], true, [[312, 308, 104, 24, 148], [267, 211, 44, 0, 167], [307, 251, 44, 0, 135]]),
    (&[4, 4], false, [[288, 288, 128, 96, 112], [222, 94, 78, 0, 93], [332, 222, 106, 0, 173]]),
    (&[4, 4], true, [[384, 304, 128, 96, 112], [317, 189, 78, 0, 93], [427, 317, 106, 0, 173]]),
    (&[9], false, [[96, 86, 50, 42, 31], [98, 0, 48, 0, 42], [96, 34, 12, 0, 58]]),
    (&[9], true, [[150, 95, 50, 42, 31], [151, 53, 48, 0, 42], [149, 87, 12, 0, 58]]),
];

/// RangeEval, EqualityEval and IntervalEval charge the pinned totals over
/// the full query space, whole and at 64-bit segments, with and without
/// nulls — the operator counts only Table 1 and Fig. 8 pinned before, and
/// only for RangeEval and RangeEval-Opt.
#[test]
fn dense_evaluator_operator_counts_are_pinned() {
    use bindex::core::eval::evaluate_repr_in;
    use bindex::core::ExecContext;
    use bindex::relation::query::full_space;

    let evaluators = [
        (Algorithm::RangeEval, Encoding::Range),
        (Algorithm::EqualityEval, Encoding::Equality),
        (Algorithm::IntervalEval, Encoding::Interval),
    ];
    for (msb, nulls, counts) in PINNED_DENSE_COUNTS {
        let base = Base::from_msb(msb).unwrap();
        let c = base.product() as u32;
        let column = Column::new((0..200u32).map(|i| (i * 7 + i / 3) % c).collect(), c);
        for ((algorithm, encoding), want) in evaluators.into_iter().zip(counts) {
            let spec = IndexSpec::new(base.clone(), encoding);
            let idx = if nulls {
                let mask = BitVec::from_fn(200, |i| i % 5 == 1);
                BitmapIndex::build_with_nulls(&column, &mask, spec)
            } else {
                BitmapIndex::build(&column, spec)
            }
            .unwrap();
            for segment_bits in [None, Some(64)] {
                let mut total = [0usize; 5];
                for q in full_space(c) {
                    let mut src = idx.source();
                    let mut ctx = ExecContext::new(&mut src);
                    evaluate_repr_in(&mut ctx, &q.into(), algorithm, segment_bits).unwrap();
                    let s = ctx.take_stats();
                    let counts = [s.scans, s.ands, s.ors, s.xors, s.nots];
                    total.iter_mut().zip(counts).for_each(|(t, n)| *t += n);
                }
                let label =
                    format!("{algorithm:?} {msb:?} nulls {nulls} segments {segment_bits:?}");
                assert_eq!(total, want, "{label}");
            }
        }
    }
}

// ---- design-layer invariants ----

#[test]
fn refine_index_theorem_8_1() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xe000 + seed);
        let base = rand_base(&mut rng);
        // Refinement never increases space or time and keeps coverage,
        // for any cardinality the base covers.
        let product = base.product() as u32;
        for c in [product, product / 2 + 1, (product * 3 / 4).max(2)] {
            if !base.covers(c) || c < 2 {
                continue;
            }
            let refined = refine_index(&base, c);
            assert!(
                refined.covers(c),
                "seed {seed}: {base} -> {refined} does not cover {c}"
            );
            assert!(range_space(&refined) <= range_space(&base), "seed {seed}");
            assert!(
                time_range_paper(&refined) <= time_range_paper(&base) + 1e-12,
                "seed {seed}: {base} -> {refined} time grew for C={c}"
            );
        }
    }
}

#[test]
fn space_formulas_match_built_indexes() {
    for seed in 0..CASES {
        let mut rng = Rng::seed_from_u64(0xf000 + seed);
        let base = rand_base(&mut rng);
        let c = base.product() as u32;
        let column = Column::new(vec![0, c - 1, c / 2], c);
        for encoding in [Encoding::Range, Encoding::Equality, Encoding::Interval] {
            let spec = IndexSpec::new(base.clone(), encoding);
            let expected = spec.stored_bitmaps();
            let idx = BitmapIndex::build(&column, spec).unwrap();
            let actual: u64 = idx.components().iter().map(|comp| comp.len() as u64).sum();
            assert_eq!(actual, expected, "seed {seed} {encoding:?}");
        }
    }
}
