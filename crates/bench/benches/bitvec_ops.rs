//! Microbench: throughput of the bit-vector substrate's logical operations
//! and popcount on 1M-bit bitmaps — the inner loop of every query.

use bindex::bitvec::kernels::{self, Fold, FoldStep};
use bindex::BitVec;
use bindex_bench::microbench::{BatchSize, Criterion, Throughput};
use bindex_bench::{criterion_group, criterion_main};
use std::hint::black_box;

const BITS: usize = 1 << 20;

fn mk(seed: usize) -> BitVec {
    BitVec::from_fn(BITS, |i| (i * 2654435761 + seed).is_multiple_of(7))
}

fn bench(c: &mut Criterion) {
    let a = mk(1);
    let b = mk(2);
    let mut g = c.benchmark_group("bitvec_ops");
    g.throughput(Throughput::Bytes((BITS / 8) as u64));

    g.bench_function("and_assign_1m", |bench| {
        bench.iter_batched(
            || a.clone(),
            |mut x| {
                x.and_assign(&b);
                black_box(x)
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("or_assign_1m", |bench| {
        bench.iter_batched(
            || a.clone(),
            |mut x| {
                x.or_assign(&b);
                black_box(x)
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("not_assign_1m", |bench| {
        bench.iter_batched(
            || a.clone(),
            |mut x| {
                x.not_assign();
                black_box(x)
            },
            BatchSize::SmallInput,
        )
    });
    g.bench_function("count_ones_1m", |bench| {
        bench.iter(|| black_box(&a).count_ones())
    });
    g.bench_function("iter_ones_1m", |bench| {
        bench.iter(|| black_box(&a).iter_ones().sum::<usize>())
    });
    g.finish();

    // Operands past L2 (2^23 bits, 1 MiB).
    const FOLD_BITS: usize = 1 << 23;
    let wide: Vec<BitVec> = (0..6)
        .map(|seed| BitVec::from_fn(FOLD_BITS, |i| (i * 2654435761 + seed) % 7 < 3))
        .collect();

    // Fused k-ary kernels vs the pairwise fold they replace: a 16-way
    // union is the shape of a wide equality-encoded `≤` predicate.
    let operands: Vec<BitVec> = (0..16).map(mk).collect();
    let refs: Vec<&BitVec> = operands.iter().collect();
    let mut k = c.benchmark_group("kary_kernels");
    k.throughput(Throughput::Bytes((16 * BITS / 8) as u64));
    k.bench_function("or_16way_pairwise", |bench| {
        bench.iter(|| {
            let mut acc = operands[0].clone();
            for op in &operands[1..] {
                acc.or_assign(black_box(op));
            }
            black_box(acc)
        })
    });
    k.bench_function("or_16way_fused", |bench| {
        bench.iter(|| black_box(kernels::or_all(black_box(&refs))))
    });
    k.bench_function("count_or_16way_materialized", |bench| {
        bench.iter(|| black_box(kernels::or_all(black_box(&refs)).count_ones()))
    });
    let or_16way = Fold {
        seed: Some(refs[0]),
        steps: refs[1..].iter().map(|&b| FoldStep::Or(b)).collect(),
        ..Fold::default()
    };
    k.bench_function("count_or_16way_fused", |bench| {
        bench.iter(|| black_box(kernels::fold_count(BITS, black_box(&or_16way))))
    });
    k.bench_function("and_16way_fused", |bench| {
        bench.iter(|| black_box(kernels::and_all(black_box(&refs))))
    });
    k.bench_function("count_and_16way_fused", |bench| {
        bench.iter(|| black_box(kernels::count_and(black_box(&refs))))
    });
    // Two operands past L2: the count reads each word once, writes none.
    let pair = [&wide[0], &wide[1]];
    k.throughput(Throughput::Bytes((2 * FOLD_BITS / 8) as u64));
    k.bench_function("count_and_2way_fused", |bench| {
        bench.iter(|| black_box(kernels::count_and(black_box(&pair))))
    });
    k.finish();

    // The one-pass fold vs the pass-per-operator calls it replaced, on
    // bitmaps past L2 (2^23 bits, 1 MiB): a RangeEval-Opt `≤` chain over
    // `fan_in` operands, then the three-interior-digit `=` chain. Bytes
    // are what the query has to move: every operand once plus the result.
    let le_chain = |fan_in: usize| Fold {
        seed: Some(&wide[0]),
        steps: wide[1..fan_in]
            .iter()
            .enumerate()
            .map(|(k, op)| {
                if k % 2 == 0 {
                    FoldStep::And(op)
                } else {
                    FoldStep::Or(op)
                }
            })
            .collect(),
        ..Fold::default()
    };
    let mut f = c.benchmark_group("fold");
    for fan_in in 2..=6 {
        f.throughput(Throughput::Bytes(((fan_in + 1) * FOLD_BITS / 8) as u64));
        f.bench_function(format!("le_chain_{fan_in}_pairwise"), |bench| {
            bench.iter(|| {
                let mut acc = wide[0].view().to_bitvec();
                for (k, op) in wide[1..fan_in].iter().enumerate() {
                    if k % 2 == 0 {
                        acc.and_assign(black_box(op));
                    } else {
                        acc.or_assign(black_box(op));
                    }
                }
                black_box(acc)
            })
        });
        let program = le_chain(fan_in);
        f.bench_function(format!("le_chain_{fan_in}_fold"), |bench| {
            bench.iter(|| black_box(kernels::fold(FOLD_BITS, black_box(&program))))
        });
    }
    // The batch shape: 400 results alive at once (400 MiB), then all
    // dropped, as a 400-query `batch_scan` batch holds its foundsets.
    // `le_chain_*_fold` drops each result before the next fold, so the
    // allocator recycles its memory; here each fold writes 256 pages the
    // previous iteration unmapped, unless the spare list kept them.
    const BATCH: usize = 400;
    let program = le_chain(5);
    f.throughput(Throughput::Bytes((BATCH * 6 * FOLD_BITS / 8) as u64));
    f.bench_function(format!("le_chain_5_fold_batch_{BATCH}"), |bench| {
        bench.iter(|| {
            let results: Vec<BitVec> = (0..BATCH)
                .map(|_| kernels::fold(FOLD_BITS, black_box(&program)))
                .collect();
            black_box(results.len())
        })
    });
    f.throughput(Throughput::Bytes((7 * FOLD_BITS / 8) as u64));
    f.bench_function("eq_chain_6_pairwise", |bench| {
        bench.iter(|| {
            let ones = BitVec::ones(FOLD_BITS);
            let xors: Vec<BitVec> = wide
                .chunks(2)
                .map(|p| kernels::xor_all(&[&p[0], &p[1]]))
                .collect();
            black_box(kernels::and_all(&[&ones, &xors[0], &xors[1], &xors[2]]))
        })
    });
    let program = Fold {
        steps: wide
            .chunks(2)
            .map(|p| FoldStep::AndXor(&p[0], &p[1]))
            .collect(),
        ..Fold::default()
    };
    f.bench_function("eq_chain_6_fold", |bench| {
        bench.iter(|| black_box(kernels::fold(FOLD_BITS, black_box(&program))))
    });
    f.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
