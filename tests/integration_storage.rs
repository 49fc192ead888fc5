//! Integration tests of the storage layer: persist an index to real disk
//! files under each scheme, evaluate through it, and verify the I/O
//! accounting matches the paper's access-cost model.

use bindex::compress::CodecKind;
use bindex::core::eval::{evaluate, naive, Algorithm};
use bindex::relation::{gen, query};
use bindex::storage::{
    DiskStore, MemStore, ShardedPool, SharedIndexReader, StorageScheme, StoredIndex, TempDir,
};
use bindex::stored::{persist_index, SharedSource};
use bindex::{Base, BitmapIndex, Encoding, IndexSpec};

fn build() -> (bindex::Column, IndexSpec, BitmapIndex) {
    let col = gen::uniform(2000, 30, 33);
    let spec = IndexSpec::new(Base::from_msb(&[5, 6]).unwrap(), Encoding::Range);
    let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
    (col, spec, idx)
}

#[test]
fn disk_roundtrip_all_schemes() {
    let (col, spec, idx) = build();
    for scheme in [
        StorageScheme::BitmapLevel,
        StorageScheme::ComponentLevel,
        StorageScheme::IndexLevel,
    ] {
        for codec in [
            CodecKind::None,
            CodecKind::Rle,
            CodecKind::Lzss,
            CodecKind::Deflate,
        ] {
            let tmp = TempDir::new("int-storage").unwrap();
            let store = DiskStore::open(tmp.path()).unwrap();
            let stored = persist_index(&idx, store, scheme, codec).unwrap();
            let mut src = SharedSource::try_unpooled(&stored, spec.clone()).unwrap();
            for q in query::sample(30, 40, 5) {
                let (found, _) = evaluate(&mut src, q, Algorithm::Auto).unwrap();
                assert_eq!(found, naive::evaluate(&col, q), "{scheme:?}/{codec:?} {q}");
            }
        }
    }
}

#[test]
fn bs_reads_only_needed_bitmaps_cs_reads_component() {
    let (_, spec, idx) = build();
    let n_rows = idx.n_rows() as u64;
    let q = query::SelectionQuery::new(query::Op::Eq, 17);

    let mut bs = persist_index(
        &idx,
        MemStore::new(),
        StorageScheme::BitmapLevel,
        CodecKind::None,
    )
    .unwrap();
    let mut src = SharedSource::try_unpooled(&bs, spec.clone()).unwrap();
    let (_, stats) = evaluate(&mut src, q, Algorithm::Auto).unwrap();
    let io = bs.take_stats();
    assert_eq!(io.reads as usize, stats.scans);
    // Each BS read fetches one bitmap payload plus the checksummed frame header.
    let header = bindex::storage::format::HEADER_LEN as u64;
    assert_eq!(
        io.bytes_read,
        stats.scans as u64 * (n_rows.div_ceil(8) + header)
    );

    let mut cs = persist_index(
        &idx,
        MemStore::new(),
        StorageScheme::ComponentLevel,
        CodecKind::None,
    )
    .unwrap();
    let mut src = SharedSource::try_unpooled(&cs, spec.clone()).unwrap();
    let _ = evaluate(&mut src, q, Algorithm::Auto).unwrap();
    let cs_io = cs.take_stats();
    // CS reads whole row-major component files: strictly more bytes.
    assert!(cs_io.bytes_read > io.bytes_read);
}

#[test]
fn compression_reduces_stored_bytes_on_clustered_data() {
    // Sorted data makes each bitmap a single run: LZSS must crush it.
    let col = gen::sorted_uniform(5000, 30, 7);
    let spec = IndexSpec::new(Base::from_msb(&[5, 6]).unwrap(), Encoding::Range);
    let idx = BitmapIndex::build(&col, spec).unwrap();
    let raw = StoredIndex::create(
        MemStore::new(),
        idx.components(),
        idx.nn(),
        StorageScheme::BitmapLevel,
        CodecKind::None,
    )
    .unwrap();
    let lz = StoredIndex::create(
        MemStore::new(),
        idx.components(),
        idx.nn(),
        StorageScheme::BitmapLevel,
        CodecKind::Lzss,
    )
    .unwrap();
    assert!(
        lz.total_stored_bytes() * 10 < raw.total_stored_bytes(),
        "lzss {} vs raw {}",
        lz.total_stored_bytes(),
        raw.total_stored_bytes()
    );
}

#[test]
fn buffer_pool_eliminates_repeat_reads() {
    let (col, spec, idx) = build();
    let stored = persist_index(
        &idx,
        MemStore::new(),
        StorageScheme::BitmapLevel,
        CodecKind::None,
    )
    .unwrap();
    // The pool holds the whole index.
    let reader = SharedIndexReader::with_pool(stored, ShardedPool::new(64, 1));
    let mut src = SharedSource::try_new(&reader, spec).unwrap();
    let queries = query::full_space(30);
    for &q in &queries {
        let (found, _) = evaluate(&mut src, q, Algorithm::Auto).unwrap();
        assert_eq!(found, naive::evaluate(&col, q));
    }
    // replay: zero additional storage reads
    let before = reader.stats().reads;
    for &q in &queries {
        let _ = evaluate(&mut src, q, Algorithm::Auto).unwrap();
    }
    assert_eq!(reader.stats().reads, before, "pool should serve the replay");
}

#[test]
fn small_pool_evicts_but_stays_correct() {
    let (col, spec, idx) = build();
    let stored = persist_index(
        &idx,
        MemStore::new(),
        StorageScheme::BitmapLevel,
        CodecKind::Lzss,
    )
    .unwrap();
    let reader = SharedIndexReader::with_pool(stored, ShardedPool::new(2, 1));
    let mut src = SharedSource::try_new(&reader, spec).unwrap();
    let mut hits = 0;
    for q in query::full_space(30) {
        let (found, _) = evaluate(&mut src, q, Algorithm::Auto).unwrap();
        assert_eq!(found, naive::evaluate(&col, q), "{q}");
        // A query fetches each bitmap once, so every hit it scores is a
        // key resident when it began: never more than the pool's 2.
        let now = reader.pool_stats().unwrap().hits;
        assert!(now - hits <= 2, "{q}: {} hits", now - hits);
        hits = now;
    }
    let pool = reader.pool_stats().unwrap();
    assert!(pool.evictions > 0);
    // A miss evicts at most one entry, and only one it outranks: misses
    // that outrank no resident are served uncached.
    assert!(pool.evictions <= pool.misses, "{pool:?}");
}

#[test]
fn equality_encoded_index_through_storage() {
    let col = gen::uniform(1000, 30, 44);
    let spec = IndexSpec::new(Base::from_msb(&[5, 6]).unwrap(), Encoding::Equality);
    let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
    let tmp = TempDir::new("int-storage-eq").unwrap();
    let stored = persist_index(
        &idx,
        DiskStore::open(tmp.path()).unwrap(),
        StorageScheme::ComponentLevel,
        CodecKind::Lzss,
    )
    .unwrap();
    let mut src = SharedSource::try_unpooled(&stored, spec).unwrap();
    for q in query::full_space(30) {
        let (found, _) = evaluate(&mut src, q, Algorithm::Auto).unwrap();
        assert_eq!(found, naive::evaluate(&col, q), "{q}");
    }
}
