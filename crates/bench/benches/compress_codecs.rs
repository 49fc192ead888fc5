//! Microbench: the compression substrate — RLE and LZSS on bitmap bytes of
//! different densities, plus WAH compressed-form logical operations, and
//! a compressed count as a served query runs it: `wah::fold_count` against
//! `wah::fold(..).count_ones()` at one to eight operands and in the `=` /
//! `≠` shape.

use bindex::bitvec::kernels::{self, Fold, FoldStep};
use bindex::compress::wah::{self, WahBitmap};
use bindex::compress::{Codec, Deflate, Lzss, Rle};
use bindex::relation::gen;
use bindex::{Base, BitVec, BitmapIndex, Encoding, IndexSpec};
use bindex_bench::microbench::{Criterion, Throughput};
use bindex_bench::{criterion_group, criterion_main};
use std::hint::black_box;

const BITS: usize = 1 << 20;

fn bitmap(step: usize) -> BitVec {
    BitVec::from_fn(BITS, |i| i % step == 0)
}

/// `|ops[0] ∘ ops[1] ∘ …|` as the one `wah::fold_count` program a served
/// count would run.
fn folded_count<'a>(
    ops: &'a [WahBitmap],
    step: fn(&'a WahBitmap) -> FoldStep<&'a WahBitmap>,
) -> usize {
    let program = Fold {
        seed: Some(&ops[0]),
        steps: ops[1..].iter().map(step).collect(),
        ..Fold::default()
    };
    wah::fold_count(BITS, &program)
}

fn bench(c: &mut Criterion) {
    let sparse = bitmap(1000).to_bytes(); // highly compressible
    let dense = bitmap(3).to_bytes(); // mixed-pattern bytes
    let mut g = c.benchmark_group("compress_codecs");
    g.throughput(Throughput::Bytes(sparse.len() as u64));

    for (name, data) in [("sparse", &sparse), ("dense", &dense)] {
        g.bench_function(format!("rle_compress_{name}"), |b| {
            b.iter(|| black_box(Rle.compress(data)))
        });
        g.bench_function(format!("lzss_compress_{name}"), |b| {
            b.iter(|| black_box(Lzss::default().compress(data)))
        });
        let lz = Lzss::default().compress(data);
        g.bench_function(format!("lzss_decompress_{name}"), |b| {
            b.iter(|| black_box(Lzss::default().decompress(&lz, data.len()).unwrap()))
        });
        g.bench_function(format!("deflate_compress_{name}"), |b| {
            b.iter(|| black_box(Deflate::default().compress(data)))
        });
        let df = Deflate::default().compress(data);
        g.bench_function(format!("deflate_decompress_{name}"), |b| {
            b.iter(|| black_box(Deflate::default().decompress(&df, data.len()).unwrap()))
        });
    }

    let wa = WahBitmap::from_bitvec(&bitmap(1000));
    let wb = WahBitmap::from_bitvec(&bitmap(777));
    g.bench_function("wah_and_compressed_form", |b| {
        b.iter(|| black_box(wa.and(&wb).count_ones()))
    });
    g.bench_function("wah_encode_1m", |b| {
        let bits = bitmap(1000);
        b.iter(|| black_box(WahBitmap::from_bitvec(&bits).compressed_bytes()))
    });

    // Compressed-domain 4-way ops vs decompress-then-operate (the
    // executor's real alternative: a fetched slot arrives compressed, so
    // the dense kernels pay decompression first). Clustered bitmaps —
    // 32-bit runs, one in `m` set — as bitmap-index slots over a sorted
    // column would be; density = 1/m.
    for (label, m) in [
        ("d0.001", 1000usize),
        ("d0.010", 100),
        ("d0.050", 20),
        ("d0.200", 5),
        ("d0.500", 2),
    ] {
        let dense_ops: Vec<BitVec> = (0..4)
            .map(|s| BitVec::from_fn(BITS, move |i| ((i >> 5) + s * 7) % m == 0))
            .collect();
        let wahs: Vec<WahBitmap> = dense_ops.iter().map(WahBitmap::from_bitvec).collect();
        g.bench_function(format!("wah_and4_{label}"), |b| {
            b.iter(|| black_box(folded_count(&wahs, FoldStep::And)))
        });
        g.bench_function(format!("wah_or4_{label}"), |b| {
            b.iter(|| black_box(folded_count(&wahs, FoldStep::Or)))
        });
        g.bench_function(format!("decomp_and4_{label}"), |b| {
            b.iter(|| {
                let dense: Vec<BitVec> = wahs.iter().map(WahBitmap::to_bitvec).collect();
                let refs: Vec<&BitVec> = dense.iter().collect();
                black_box(kernels::count_and(&refs))
            })
        });
        g.bench_function(format!("decomp_or4_{label}"), |b| {
            b.iter(|| {
                let dense: Vec<BitVec> = wahs.iter().map(WahBitmap::to_bitvec).collect();
                let program = Fold {
                    seed: Some(&dense[0]),
                    steps: dense[1..].iter().map(FoldStep::Or).collect(),
                    ..Fold::default()
                };
                black_box(kernels::fold_count(BITS, &program))
            })
        });
    }
    g.finish();
}

/// The served shape of a compressed count: the range-encoded slots of a
/// 2^21-row column clustered in 4,096-row runs under a `<10,10,10>` base
/// (the `ingest_mixed` workload's column), folded by a `≤`-chain-shaped
/// program — a seed, then `Or` and `And` alternating — over one to eight
/// of them, and by the `=` and `≠` chains' shape. Building the result and
/// counting it pays one encoder step per stretch that the count-only walk
/// does not.
fn fold_count_bench(c: &mut Criterion) {
    const ROWS: usize = 1 << 21;
    let spec = IndexSpec::new(Base::from_msb(&[10, 10, 10]).unwrap(), Encoding::Range);
    let index = BitmapIndex::build(&gen::clustered(ROWS, 1000, 4096, 45), spec).unwrap();
    // Two slots of each component, then the middle one of each again.
    let slots = [
        (1, 4),
        (2, 6),
        (3, 2),
        (1, 7),
        (2, 1),
        (3, 8),
        (1, 5),
        (2, 3),
    ];
    let wahs: Vec<WahBitmap> = slots
        .iter()
        .map(|&(comp, slot)| WahBitmap::from_bitvec(index.bitmap(comp, slot)))
        .collect();
    let mut g = c.benchmark_group("wah_fold_count");
    for n in 1..=wahs.len() {
        let program = Fold {
            seed: Some(&wahs[0]),
            steps: (1..n)
                .map(|i| match i % 2 {
                    1 => FoldStep::Or(&wahs[i]),
                    _ => FoldStep::And(&wahs[i]),
                })
                .collect(),
            ..Fold::default()
        };
        g.bench_function(format!("clustered_{n}ops_fold_then_count"), |b| {
            b.iter(|| black_box(wah::fold(ROWS, black_box(&program)).count_ones()))
        });
        g.bench_function(format!("clustered_{n}ops_fold_count"), |b| {
            b.iter(|| black_box(wah::fold_count(ROWS, black_box(&program))))
        });
    }
    // The `=` chain's shape: a seedless `AndXor` of adjacent slots per
    // component (six lanes), and `≠` as its complement.
    let eq: Vec<WahBitmap> = [(1, 5), (1, 4), (2, 7), (2, 6), (3, 3), (3, 2)]
        .iter()
        .map(|&(comp, slot)| WahBitmap::from_bitvec(index.bitmap(comp, slot)))
        .collect();
    for (name, complement) in [("eq", false), ("ne", true)] {
        let program = Fold {
            steps: eq
                .chunks(2)
                .map(|pair| FoldStep::AndXor(&pair[0], &pair[1]))
                .collect(),
            complement,
            ..Fold::default()
        };
        g.bench_function(format!("clustered_{name}_fold_then_count"), |b| {
            b.iter(|| black_box(wah::fold(ROWS, black_box(&program)).count_ones()))
        });
        g.bench_function(format!("clustered_{name}_fold_count"), |b| {
            b.iter(|| black_box(wah::fold_count(ROWS, black_box(&program))))
        });
    }
    g.finish();
}

criterion_group!(benches, bench, fold_count_bench);
criterion_main!(benches);
