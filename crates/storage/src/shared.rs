//! A stored index behind its cache: one [`StoredIndex`], an optional
//! [`ShardedPool`] in front of it, and a repair epoch.
//!
//! [`StoredIndex`] reads take `&self` and account their I/O in atomics, so
//! sharing one index between threads needs nothing from this module.
//! [`SharedIndexReader`] adds the two things a long-lived shared index
//! wants on top: hot bitmaps served from the pool without touching the
//! store, and one place ([`SharedIndexReader::repair_index`]) through
//! which every mutation of the store goes, so the pool is emptied and the
//! epoch bumped whenever the bytes underneath may have changed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

use bindex_bitvec::BitVec;
use bindex_compress::Repr;

use crate::buffer_pool::{PoolStats, ShardedPool};
use crate::error::StorageError;
use crate::layout::{StoredIndex, StoredIndexMeta};
use crate::store::{ByteStore, IoStats};

/// A `Send + Sync` reader over a [`StoredIndex`]: shared-reference reads
/// through an optional sharded bitmap cache.
///
/// Cloning is not needed — worker threads borrow one reader
/// (`&SharedIndexReader<S>`), which is `Sync` whenever the underlying
/// [`ByteStore`] is.
pub struct SharedIndexReader<S: ByteStore> {
    index: StoredIndex<S>,
    pool: Option<ShardedPool>,
    /// `B_nn` of the bytes currently in the store, read on first use and
    /// dropped with the pool's contents: every query of an index with
    /// nulls or deletes wants it, and it is not a `(component, slot)` the
    /// pool could key.
    nn: OnceLock<Option<Repr>>,
    /// Bumped by [`repair_index`](Self::repair_index) every time the
    /// underlying store is mutated, so layers above (result caches,
    /// circuit breakers) can tell "same bytes as before" from "the index
    /// was rewritten under me".
    repair_epoch: AtomicU64,
}

impl<S: ByteStore> SharedIndexReader<S> {
    /// Wraps `index` for shared reading, with no cache.
    pub fn new(index: StoredIndex<S>) -> Self {
        Self {
            index,
            pool: None,
            nn: OnceLock::new(),
            repair_epoch: AtomicU64::new(0),
        }
    }

    /// Wraps `index` with a sharded bitmap cache: reads of cached bitmaps
    /// cost no store I/O, and cache hits/misses are counted per shard. A
    /// pool whose capacity covers every slot never evicts — each slot is
    /// read and checksum-verified once, then served as an `Arc` handle
    /// until the next repair.
    ///
    /// A smaller pool keeps the bitmaps this reader's queries reference
    /// most: every read counts a reference to its `(component, slot)`, and
    /// a loaded bitmap enters a full shard only by evicting one referenced
    /// strictly less often. Since a buffered bitmap saves one store read
    /// per query that references it, that is the paper's Theorem 10.1
    /// keep-set under uniform queries, learned without knowing the base.
    /// The ranking is per shard, and the counts survive
    /// [`repair_index`](Self::repair_index).
    pub fn with_pool(index: StoredIndex<S>, pool: ShardedPool) -> Self {
        Self {
            index,
            pool: Some(pool),
            nn: OnceLock::new(),
            repair_epoch: AtomicU64::new(0),
        }
    }

    /// Shape metadata of the wrapped index.
    pub fn meta(&self) -> &StoredIndexMeta {
        self.index.meta()
    }

    /// The wrapped index (read-only).
    pub fn index(&self) -> &StoredIndex<S> {
        &self.index
    }

    /// Consumes the reader, returning the wrapped index.
    pub fn into_index(self) -> StoredIndex<S> {
        self.index
    }

    /// Reads stored bitmap `slot` of component `comp` (1-based) in its
    /// stored execution representation (see [`StoredIndex::read_repr`]),
    /// serving from the cache when one is attached. The cached entry keeps
    /// that representation — so a cached sparse bitmap occupies its
    /// compressed footprint. Concurrent callers are safe.
    pub fn read_repr(&self, comp: usize, slot: usize) -> Result<Repr, StorageError> {
        match &self.pool {
            Some(pool) => pool.get_or_load_repr((comp, slot), || self.index.read_repr(comp, slot)),
            None => self.index.read_repr(comp, slot),
        }
    }

    /// [`SharedIndexReader::read_repr`], materialized to dense words.
    pub fn read_bitmap(&self, comp: usize, slot: usize) -> Result<BitVec, StorageError> {
        self.read_repr(comp, slot)
            .map(|repr| self.index.materialize(repr))
    }

    /// The stored non-null bitmap, if the index has one, in its stored
    /// execution representation (see [`StoredIndex::read_nn_repr`]). Read
    /// and checksum-verified once, then served as a shared handle — a
    /// literal one frozen, so taking a `BitVec` out of it copies nothing —
    /// until the next [`repair_index`](Self::repair_index). A failed read
    /// is not remembered.
    pub fn read_nn_repr(&self) -> Result<Option<Repr>, StorageError> {
        if let Some(nn) = self.nn.get() {
            return Ok(nn.clone());
        }
        let nn = self.index.read_nn_repr()?.map(|repr| match repr {
            Repr::Literal(bits) => {
                let mut bits = std::sync::Arc::unwrap_or_clone(bits);
                bits.freeze();
                Repr::literal(bits)
            }
            wah => wah,
        });
        // Two first readers may both load; they load the same bytes.
        Ok(self.nn.get_or_init(|| nn).clone())
    }

    /// Snapshot of the wrapped index's I/O statistics, accumulated across
    /// all threads.
    pub fn stats(&self) -> IoStats {
        self.index.stats()
    }

    /// Cache statistics, if a pool is attached.
    pub fn pool_stats(&self) -> Option<PoolStats> {
        self.pool.as_ref().map(ShardedPool::stats)
    }

    /// How many times [`repair_index`](Self::repair_index) has mutated the
    /// wrapped index. Monotonic; starts at zero.
    pub fn repair_epoch(&self) -> u64 {
        self.repair_epoch.load(Ordering::Acquire)
    }

    /// Runs a mutating maintenance operation (scrub-and-repair, slot
    /// rewrite) against the wrapped index, then invalidates the bitmap
    /// cache and bumps the repair epoch — in that order, so a reader that
    /// observes the new epoch can never see a stale cached bitmap.
    ///
    /// Requires `&mut self`: the caller's exclusion (e.g. an `RwLock`
    /// write guard) is what keeps concurrent readers out of the store
    /// while its files are rewritten.
    pub fn repair_index<R>(&mut self, f: impl FnOnce(&mut StoredIndex<S>) -> R) -> R {
        let out = f(&mut self.index);
        if let Some(pool) = &self.pool {
            pool.clear();
        }
        self.nn = OnceLock::new();
        self.repair_epoch.fetch_add(1, Ordering::Release);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::StorageScheme;
    use crate::store::MemStore;
    use bindex_compress::CodecKind;

    fn sample_reader(pool: Option<ShardedPool>) -> SharedIndexReader<MemStore> {
        let comps = vec![
            (0..4)
                .map(|j| BitVec::from_fn(100, move |i| (i + j).is_multiple_of(3)))
                .collect::<Vec<_>>(),
            (0..3)
                .map(|j| BitVec::from_fn(100, move |i| (i * 7 + j) % 5 == 0))
                .collect(),
        ];
        let idx = StoredIndex::create(
            MemStore::new(),
            &comps,
            None,
            StorageScheme::BitmapLevel,
            CodecKind::None,
        )
        .unwrap();
        match pool {
            Some(p) => SharedIndexReader::with_pool(idx, p),
            None => SharedIndexReader::new(idx),
        }
    }

    #[test]
    fn reader_reads_match_direct_reads() {
        let reader = sample_reader(None);
        let exclusive = StoredIndex::open(reader.index().store().clone()).unwrap();
        for comp in 1..=2usize {
            let n = reader.meta().bitmaps_per_component[comp - 1] as usize;
            for slot in 0..n {
                assert_eq!(
                    reader.read_bitmap(comp, slot).unwrap(),
                    exclusive.read_bitmap(comp, slot).unwrap()
                );
            }
        }
        assert_eq!(reader.stats().reads, 7);
        assert!(reader.stats().bytes_read > 0);
    }

    #[test]
    fn pooled_reader_hits_skip_store_io() {
        let reader = sample_reader(Some(ShardedPool::new(16, 4)));
        for _ in 0..3 {
            for slot in 0..4 {
                reader.read_bitmap(1, slot).unwrap();
            }
        }
        // First round misses, the rest hit: only 4 store reads.
        assert_eq!(reader.stats().reads, 4);
        let pool = reader.pool_stats().unwrap();
        assert_eq!((pool.hits, pool.misses), (8, 4));
    }

    #[test]
    fn v3_repr_reads_cache_compressed_entries() {
        let comps = vec![vec![
            BitVec::from_fn(4096, |i| i % 777 == 0),
            BitVec::from_fn(4096, |i| (i.wrapping_mul(2_654_435_761)) % 3 == 0),
        ]];
        let idx = StoredIndex::create_v4(MemStore::new(), &comps, None, CodecKind::None).unwrap();
        let reader = SharedIndexReader::with_pool(idx, ShardedPool::with_byte_budget(4096, 2));
        let sparse = reader.read_repr(1, 0).unwrap();
        assert!(sparse.is_compressed());
        assert_eq!(*sparse.to_bitvec(), comps[0][0]);
        // The hit serves the compressed entry without store I/O.
        let again = reader.read_repr(1, 0).unwrap();
        assert!(again.is_compressed());
        assert_eq!(reader.stats().reads, 1);
        // Dense slots still round-trip through the same path.
        assert_eq!(*reader.read_repr(1, 1).unwrap().to_bitvec(), comps[0][1]);
    }

    /// A pool sized to the slot count is the pinned cache: every slot is
    /// read from the store once however often it is swept, nothing is ever
    /// evicted, the stored representation survives caching, and a repair
    /// empties it.
    #[test]
    fn pool_that_fits_reads_each_slot_once_and_clears_on_repair() {
        let comps = vec![vec![
            BitVec::from_fn(4096, |i| i % 777 == 0),
            BitVec::from_fn(4096, |i| (i.wrapping_mul(2_654_435_761)) % 3 == 0),
        ]];
        let idx = StoredIndex::create_v4(MemStore::new(), &comps, None, CodecKind::None).unwrap();
        let mut reader = SharedIndexReader::with_pool(idx, ShardedPool::new(2, 1));
        for _ in 0..3 {
            assert!(reader.read_repr(1, 0).unwrap().is_compressed());
            assert!(!reader.read_repr(1, 1).unwrap().is_compressed());
        }
        assert_eq!(reader.stats().reads, 2);
        let pool = reader.pool_stats().unwrap();
        assert_eq!((pool.hits, pool.misses, pool.evictions), (4, 2, 0));
        // Repair empties the pool: the next sweep reloads from the store.
        reader.repair_index(|_| ());
        assert_eq!(reader.pool_stats().unwrap(), PoolStats::default());
        for (slot, bm) in comps[0].iter().enumerate() {
            assert_eq!(*reader.read_repr(1, slot).unwrap().to_bitvec(), *bm);
        }
        assert_eq!(reader.stats().reads, 4);
    }

    /// `B_nn` is read from the store once per generation, in its stored
    /// representation, and handed out as the same shared handle until a
    /// repair may have rewritten it.
    #[test]
    fn nn_is_read_once_and_dropped_on_repair() {
        let mut reader = sample_reader(Some(ShardedPool::new(16, 4)));
        assert!(reader.read_nn_repr().unwrap().is_none(), "no nulls stored");
        let comps: Vec<Vec<Repr>> = vec![
            (0..4)
                .map(|j| Repr::literal(BitVec::from_fn(4096, move |i| i / 512 <= j)))
                .collect(),
            (0..3)
                .map(|j| Repr::literal(BitVec::from_fn(4096, move |i| i % 5 <= j)))
                .collect(),
        ];
        let nn = BitVec::from_fn(4096, |i| i != 77);
        let install = |stored: &mut StoredIndex<MemStore>, nn: &BitVec| {
            let nn = Repr::literal(nn.clone());
            stored.install_generation(&comps, Some(&nn), 0).unwrap()
        };
        reader.repair_index(|stored| install(stored, &nn));
        let before = reader.stats().reads;
        let first = reader.read_nn_repr().unwrap().expect("nulls stored");
        assert!(first.is_compressed(), "one cleared bit: stored as WAH");
        assert_eq!(*first.to_bitvec(), nn);
        assert_eq!(reader.stats().reads, before + 1);
        for _ in 0..5 {
            let again = reader.read_nn_repr().unwrap().unwrap();
            match (&first, &again) {
                (Repr::Wah(a), Repr::Wah(b)) => assert!(std::sync::Arc::ptr_eq(a, b)),
                other => panic!("representation changed: {other:?}"),
            }
        }
        assert_eq!(reader.stats().reads, before + 1);
        // A mask with runs too short to compress comes back literal, frozen.
        let noisy = BitVec::from_fn(4096, |i| i.wrapping_mul(2_654_435_761) % 3 != 0);
        reader.repair_index(|stored| install(stored, &noisy));
        let before = reader.stats().reads;
        let literal = reader.read_nn_repr().unwrap().unwrap();
        assert!(!literal.is_compressed());
        assert_eq!(*literal.to_bitvec(), noisy);
        let copy = (*literal.to_bitvec()).clone();
        assert_eq!(copy.words().as_ptr(), literal.to_bitvec().words().as_ptr());
        reader.read_nn_repr().unwrap();
        assert_eq!(reader.stats().reads, before + 1);
    }

    #[test]
    fn invalid_slot_propagates() {
        let reader = sample_reader(None);
        assert!(matches!(
            reader.read_bitmap(1, 99),
            Err(StorageError::InvalidSlot { comp: 1, slot: 99 })
        ));
    }
}
