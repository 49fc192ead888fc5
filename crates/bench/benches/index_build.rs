//! Microbench: index construction cost across design points — Value-List,
//! knee, binary Bit-Sliced — on a 100k-row uniform column; the shapes
//! `benchmark/` builds (2^23 uniform and 2^21 clustered `<10,10,10>` range,
//! the C = 1000 Value-List and binary Bit-Sliced indexes); and
//! `rebuild_slot`, the relation scan of degraded reads and repair, at 2^21
//! rows.

use bindex::core::design::knee::knee;
use bindex::core::rebuild_slot;
use bindex::relation::gen;
use bindex::{Base, BitmapIndex, Encoding, IndexSpec};
use bindex_bench::microbench::Criterion;
use bindex_bench::{criterion_group, criterion_main};
use std::hint::black_box;

const N: usize = 100_000;
const C: u32 = 100;

/// The benchmark's attribute cardinality and cluster length.
const BENCH_C: u32 = 1000;
const CLUSTER_LEN: usize = 4096;

fn range_10_10_10() -> IndexSpec {
    IndexSpec::new(Base::uniform(10, 3).unwrap(), Encoding::Range)
}

fn bench(c: &mut Criterion) {
    let col = gen::uniform(N, C, 5);
    let mut g = c.benchmark_group("index_build");
    g.sample_size(20);

    let specs = [
        ("value_list_c100", IndexSpec::value_list(C).unwrap()),
        (
            "knee_range_c100",
            IndexSpec::new(knee(C).unwrap(), Encoding::Range),
        ),
        (
            "bit_sliced_base2_c100",
            IndexSpec::bit_sliced(C, 2).unwrap(),
        ),
        (
            "single_range_c100",
            IndexSpec::new(Base::single(C).unwrap(), Encoding::Range),
        ),
    ];
    for (name, spec) in specs {
        g.bench_function(name, |b| {
            b.iter(|| black_box(BitmapIndex::build(&col, spec.clone()).unwrap()))
        });
    }
    g.finish();
}

fn bench_shapes(c: &mut Criterion) {
    let uniform_2p23 = gen::uniform(1 << 23, BENCH_C, 5);
    let clustered_2p21 = gen::clustered(1 << 21, BENCH_C, CLUSTER_LEN, 5);
    let uniform_2p19 = gen::uniform(1 << 19, BENCH_C, 5);
    let mut g = c.benchmark_group("index_build_shapes");
    g.sample_size(5);

    let shapes = [
        (
            "range_10_10_10_uniform_2p23",
            &uniform_2p23,
            range_10_10_10(),
        ),
        (
            "range_10_10_10_clustered4096_2p21",
            &clustered_2p21,
            range_10_10_10(),
        ),
        (
            "equality_10_10_10_uniform_2p23",
            &uniform_2p23,
            IndexSpec::new(Base::uniform(10, 3).unwrap(), Encoding::Equality),
        ),
        (
            "value_list_c1000_2p19",
            &uniform_2p19,
            IndexSpec::value_list(BENCH_C).unwrap(),
        ),
        (
            "bit_sliced_base2_c1000_2p23",
            &uniform_2p23,
            IndexSpec::bit_sliced(BENCH_C, 2).unwrap(),
        ),
    ];
    for (name, col, spec) in shapes {
        g.bench_function(name, |b| {
            b.iter(|| black_box(BitmapIndex::build(col, spec.clone()).unwrap()))
        });
    }
    g.finish();

    let uniform_2p21 = gen::uniform(1 << 21, BENCH_C, 5);
    let mut g = c.benchmark_group("rebuild_slot");
    g.sample_size(10);
    let slots = [
        ("range_10_10_10_c2_s4_2p21", range_10_10_10(), 2, 4),
        (
            "value_list_c1000_s500_2p21",
            IndexSpec::value_list(BENCH_C).unwrap(),
            1,
            500,
        ),
    ];
    for (name, spec, comp, slot) in slots {
        g.bench_function(name, |b| {
            b.iter(|| black_box(rebuild_slot(&uniform_2p21, None, &spec, comp, slot).unwrap()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench, bench_shapes);
criterion_main!(benches);
