//! Microbench: segment-size sensitivity of the morsel-driven executor's
//! inner loop — an 8-way pairwise AND over 8M-bit operands, whole-bitmap
//! vs cache-blocked at several morsel sizes, plus the segmented evaluator
//! end-to-end against the whole-bitmap path.

use bindex::core::eval::{evaluate, evaluate_segmented_in, Algorithm};
use bindex::core::{ExecContext, DEFAULT_SEGMENT_BITS};
use bindex::relation::gen;
use bindex::{Base, BitVec, BitmapIndex, Encoding, IndexSpec};
use bindex_bench::microbench::{Criterion, Throughput};
use bindex_bench::{criterion_group, criterion_main};
use std::hint::black_box;

const BITS: usize = 1 << 23;
const OPERANDS: usize = 8;

fn mk(seed: usize) -> BitVec {
    BitVec::from_fn(BITS, |i| (i * 2654435761 + seed).is_multiple_of(7))
}

fn fold_whole(operands: &[BitVec]) -> usize {
    let mut acc = operands[0].clone();
    for op in &operands[1..] {
        acc.and_assign(op);
    }
    acc.count_ones()
}

fn fold_segmented(operands: &[BitVec], segment_bits: usize) -> usize {
    let mut ones = 0usize;
    let mut lo = 0usize;
    while lo < BITS {
        let hi = (lo + segment_bits).min(BITS);
        let mut acc = operands[0].view_range(lo, hi).to_bitvec();
        for op in &operands[1..] {
            acc.and_assign_view(op.view_range(lo, hi));
        }
        ones += acc.count_ones();
        lo = hi;
    }
    ones
}

fn bench(c: &mut Criterion) {
    let operands: Vec<BitVec> = (0..OPERANDS).map(mk).collect();
    let mut g = c.benchmark_group("segmented_exec");
    g.throughput(Throughput::Bytes((BITS / 8 * OPERANDS) as u64));

    g.bench_function("and_8way_whole_8m", |bench| {
        bench.iter(|| fold_whole(black_box(&operands)))
    });
    for seg in [1 << 16, DEFAULT_SEGMENT_BITS, 1 << 20] {
        g.bench_function(format!("and_8way_seg_{seg}"), |bench| {
            bench.iter(|| fold_segmented(black_box(&operands), seg))
        });
    }
    g.finish();

    let rows = 1 << 18;
    let cardinality = 25u32;
    let col = gen::uniform(rows, cardinality, 7);
    let spec = IndexSpec::new(Base::single(cardinality).unwrap(), Encoding::Range);
    let index = BitmapIndex::build(&col, spec).unwrap();
    let query = bindex::relation::query::SelectionQuery::new(bindex::relation::query::Op::Le, 12);

    let mut g = c.benchmark_group("segmented_eval");
    g.bench_function("range_opt_whole_256k", |bench| {
        bench.iter(|| {
            let mut src = index.source();
            evaluate(&mut src, black_box(query), Algorithm::RangeEvalOpt)
                .unwrap()
                .0
                .count_ones()
        })
    });
    g.bench_function("range_opt_seg_default_256k", |bench| {
        bench.iter(|| {
            let mut src = index.source();
            evaluate_segmented_in(
                &mut ExecContext::new(&mut src),
                black_box(query),
                Algorithm::RangeEvalOpt,
                DEFAULT_SEGMENT_BITS,
            )
            .unwrap()
            .count_ones()
        })
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
