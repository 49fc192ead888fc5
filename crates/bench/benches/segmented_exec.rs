//! Microbench: segment-size sensitivity of the morsel-driven executor's
//! inner loop — an 8-way pairwise AND over 8M-bit operands, whole-bitmap
//! vs cache-blocked at several morsel sizes, plus the segmented evaluator
//! end-to-end against the whole-bitmap path, and `count_in` in the served
//! shapes: a `<10,10,10>` range index at 2^18 and 2^21 rows, whole and
//! over the 2^16-bit windows a served index walks. Last, a batch of 64
//! RangeEval-Opt selections at 2^23 rows through
//! `evaluate_selection_workload` at one and two threads: the batch path,
//! which walks a group of queries window-major.

use bindex::core::eval::{count_in, evaluate, evaluate_segmented_in, Algorithm};
use bindex::core::{ExecContext, DEFAULT_SEGMENT_BITS};
use bindex::engine::batch::{evaluate_selection_workload, BatchOptions};
use bindex::relation::gen;
use bindex::relation::query::{Op, Query, SelectionQuery};
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
    let query = SelectionQuery::new(Op::Le, 12);

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

    // One iteration counts 64 uniform queries, each in its own context as
    // a served query runs; ns/iter ÷ 64 is the time of one count.
    let spec = IndexSpec::new(Base::from_msb(&[10, 10, 10]).unwrap(), Encoding::Range);
    let queries: Vec<Query> = (0..64u32)
        .map(|i| SelectionQuery::new(Op::ALL[i as usize % 6], i * 337 % 1000).into())
        .collect();
    g.throughput(Throughput::Elements(queries.len() as u64));
    for log_rows in [18, 21] {
        let column = gen::uniform(1 << log_rows, 1000, 7);
        let index = BitmapIndex::build(&column, spec.clone()).unwrap();
        for (shape, segment_bits) in [("whole", None), ("win64k", Some(1 << 16))] {
            g.bench_function(format!("count_in_{shape}_2^{log_rows}"), |bench| {
                bench.iter(|| {
                    let count = |q| {
                        let mut src = index.source();
                        let mut ctx = ExecContext::new(&mut src);
                        count_in(&mut ctx, q, Algorithm::Auto, segment_bits).unwrap()
                    };
                    queries.iter().map(count).sum::<u64>()
                })
            });
        }
    }
    g.finish();

    // One iteration is one 64-query batch over 27 one-MiB bitmaps, every
    // foundset kept; ns/iter ÷ 64 is the time of one query.
    let column = gen::uniform(1 << 23, 1000, 7);
    let index = BitmapIndex::build(&column, spec).unwrap();
    let selections: Vec<SelectionQuery> = (0..64u32)
        .map(|i| SelectionQuery::new(Op::ALL[i as usize % 6], i * 337 % 1000))
        .collect();
    let mut g = c.benchmark_group("batch_2^23");
    g.sample_size(5);
    g.throughput(Throughput::Elements(selections.len() as u64));
    for threads in [1, 2] {
        let options = BatchOptions::with_threads(threads);
        g.bench_function(format!("range_opt_64_queries_{threads}t"), |bench| {
            bench.iter(|| {
                let report = evaluate_selection_workload(
                    || index.source(),
                    black_box(&selections),
                    Algorithm::RangeEvalOpt,
                    &options,
                );
                report.health.ok
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
