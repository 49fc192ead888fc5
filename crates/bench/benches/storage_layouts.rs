//! Microbench: single-bitmap read cost under the three storage schemes —
//! the access asymmetry behind Section 9.2's conclusions (BS reads one
//! file; CS/IS read and transpose a whole row-major file) — and the
//! stages of one verified literal-slot read (`crc32`, bytes↔words, and
//! the whole uncached `read_repr`), each as bytes per second over one
//! 256 KiB slot so they compare with the `bitvec_ops` memcpy/AND rows;
//! `crc32` also at 1 KiB to 1 MiB, where its lane constants and its fold
//! (64-bit words XORed forward through the multiple `x^(64·300) +
//! x^(64·155) + x^(64·117) + x^(64·89) + 1` of the polynomial, from
//! 4,800 bytes up) are measured; and one buffer-pool hit (`pool_hit`).

use bindex::compress::{CodecKind, Repr};
use bindex::relation::gen;
use bindex::storage::checksum::crc32;
use bindex::storage::{MemStore, ShardedPool, SharedIndexReader, StorageScheme, StoredIndex};
use bindex::{Base, BitVec, BitmapIndex, Encoding, IndexSpec};
use bindex_bench::microbench::{Criterion, Throughput};
use bindex_bench::{criterion_group, criterion_main};
use std::hint::black_box;

const N: usize = 100_000;
const C: u32 = 50;

fn stored(scheme: StorageScheme, codec: CodecKind) -> StoredIndex<MemStore> {
    let col = gen::uniform(N, C, 9);
    let spec = IndexSpec::new(Base::from_msb(&[7, 8]).unwrap(), Encoding::Range);
    let idx = BitmapIndex::build(&col, spec).unwrap();
    StoredIndex::create(MemStore::new(), idx.components(), idx.nn(), scheme, codec).unwrap()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("storage_layouts");
    for (name, scheme, codec) in [
        (
            "bs_read_bitmap",
            StorageScheme::BitmapLevel,
            CodecKind::None,
        ),
        (
            "cbs_read_bitmap",
            StorageScheme::BitmapLevel,
            CodecKind::Lzss,
        ),
        (
            "cs_read_bitmap",
            StorageScheme::ComponentLevel,
            CodecKind::None,
        ),
        (
            "ccs_read_bitmap",
            StorageScheme::ComponentLevel,
            CodecKind::Lzss,
        ),
        ("is_read_bitmap", StorageScheme::IndexLevel, CodecKind::None),
    ] {
        let s = stored(scheme, codec);
        g.bench_function(name, |b| {
            b.iter(|| black_box(s.read_bitmap(1, 3).unwrap().count_ones()))
        });
    }
    g.finish();
    bench_verified_read(c);
    bench_pool_hit(c);
}

/// One resident `get_or_load_repr`: the lookup every fetch of a buffered
/// bitmap pays (the reference count is bumped under the same lock), in ns
/// per call. A pool that holds every slot — `serve_hot` — pays only this.
fn bench_pool_hit(c: &mut Criterion) {
    let pool = ShardedPool::new(27, 8);
    for slot in 0..27 {
        pool.get_or_load_repr::<()>((1 + slot / 9, slot % 9), || {
            Ok(Repr::literal(BitVec::zeros(SLOT_ROWS)))
        })
        .unwrap();
    }
    let mut g = c.benchmark_group("pool_hit");
    g.bench_function("resident", |b| {
        b.iter(|| {
            pool.get_or_load_repr::<()>(black_box((2, 4)), || unreachable!("resident"))
                .unwrap()
        })
    });
    g.finish();
}

/// Rows of the `serve_cold` benchmark workload: one slot is 256 KiB.
const SLOT_ROWS: usize = 1 << 21;

/// One literal slot's worth of incompressible bits (uniform values, one
/// range-encoded digit bitmap), so the v4 encoder stores it literal.
fn slot_bitmap() -> BitVec {
    let col = gen::uniform(SLOT_ROWS, 2, 11);
    BitVec::from_fn(SLOT_ROWS, |i| col.values()[i] == 0)
}

fn bench_verified_read(c: &mut Criterion) {
    let bm = slot_bitmap();
    let bytes = bm.to_bytes();
    let per_iter = Throughput::Bytes(bytes.len() as u64);

    // Both sides of the checksum's one-lane threshold and of its fold
    // threshold, the slot, and a buffer past L2: the sizes its private
    // constants are read from.
    let mebibyte = [bytes.as_slice(); 4].concat();
    let mut g = c.benchmark_group("crc32");
    for (name, len) in [
        ("1KiB", 1 << 10),
        ("4KiB", 1 << 12),
        ("8KiB", 1 << 13),
        ("16KiB", 1 << 14),
        ("32KiB", 1 << 15),
        ("64KiB", 1 << 16),
        ("256KiB", 1 << 18),
        ("1MiB", 1 << 20),
    ] {
        g.throughput(Throughput::Bytes(len as u64));
        g.bench_function(name, |b| b.iter(|| crc32(black_box(&mebibyte[..len]))));
    }
    g.finish();

    let mut g = c.benchmark_group("bitvec_from_bytes");
    g.throughput(per_iter);
    g.bench_function("256KiB", |b| {
        b.iter(|| BitVec::from_bytes(SLOT_ROWS, black_box(&bytes)))
    });
    g.finish();

    let mut g = c.benchmark_group("bitvec_to_bytes");
    g.throughput(per_iter);
    g.bench_function("256KiB", |b| b.iter(|| black_box(&bm).to_bytes()));
    g.finish();

    let stored =
        StoredIndex::create_v4(MemStore::new(), &[vec![bm]], None, CodecKind::None).unwrap();
    let reader = SharedIndexReader::new(stored);
    assert!(!reader.read_repr(1, 0).unwrap().is_compressed());
    let mut g = c.benchmark_group("read_repr_uncached");
    g.throughput(per_iter);
    g.bench_function("256KiB", |b| b.iter(|| reader.read_repr(1, 0).unwrap()));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
