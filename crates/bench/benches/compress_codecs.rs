//! Microbench: the compression substrate — RLE and LZSS on bitmap bytes of
//! different densities, plus WAH compressed-form logical operations.

use bindex::bitvec::kernels::{self, Fold, FoldStep};
use bindex::compress::wah::{self, WahBitmap};
use bindex::compress::{Codec, Deflate, Lzss, Rle};
use bindex::BitVec;
use bindex_bench::microbench::{Criterion, Throughput};
use bindex_bench::{criterion_group, criterion_main};
use std::hint::black_box;

const BITS: usize = 1 << 20;

fn bitmap(step: usize) -> BitVec {
    BitVec::from_fn(BITS, |i| i % step == 0)
}

/// `|ops[0] ∘ ops[1] ∘ …|` as the one `wah::fold` program a served query
/// would run, counted on the compressed result.
fn folded_count<'a>(
    ops: &'a [WahBitmap],
    step: fn(&'a WahBitmap) -> FoldStep<&'a WahBitmap>,
) -> usize {
    let program = Fold {
        seed: Some(&ops[0]),
        steps: ops[1..].iter().map(step).collect(),
        ..Fold::default()
    };
    wah::fold(BITS, &program).count_ones()
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

criterion_group!(benches, bench);
criterion_main!(benches);
