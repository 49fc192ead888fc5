//! A bitmap-granularity buffer pool (Section 10's unit of buffering),
//! which keeps the bitmaps queries reference most, with hit/miss
//! accounting — the one cache on the stored read path.
//!
//! The analytic side of Section 10 lives in `bindex-core::buffer`; this
//! pool is the runtime counterpart used by the storage-backed experiments:
//! it caches fetched bitmaps keyed by `(component, slot)` so that a
//! buffered bitmap costs no file read, and a miss costs exactly one — two
//! threads missing the same key share one read.
//!
//! **Policy.** Every fetch counts one reference to its key — hit or miss,
//! resident or not — and the counts outlive [`ShardedPool::clear`], since
//! they describe demand, not bytes. A freshly loaded key enters a full
//! pool only by evicting residents referenced *strictly* less often than
//! it (least referenced first, until it fits); otherwise it is served
//! uncached, so keys referenced equally often never displace each other.
//! A buffered bitmap saves one read per query that references it, so the
//! keep-set that saves the most reads is the most-referenced one. Under
//! the paper's uniform-reference model that is Theorem 10.1's
//! greedy-by-marginal-gain assignment (`bindex-core::buffer::
//! optimal_assignment`): the pool learns it from the reference stream
//! without being told the index's base. Ranking is per shard — each shard
//! keeps its own most-referenced keys within its share of the budget.
//!
//! Entries are stored as [`Repr`] — dense or WAH-compressed, whichever
//! form the store handed out — and handed back as `Arc` clones, so a hit
//! copies no words. The pool can be budgeted either in *slots* (the
//! paper's `m` bitmaps) or in *bytes* ([`ShardedPool::with_byte_budget`]).
//! Byte budgeting is what makes the compressed execution path pay off
//! twice: a WAH entry is charged its compressed footprint, so a fixed
//! memory budget keeps more sparse bitmaps resident than the same budget
//! over dense words. A pool whose budget covers every slot never reaches
//! the policy and never evicts: it is the pinned cache (each slot verified
//! once, then shared).

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use bindex_compress::Repr;

/// Buffer pool statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Fetches served from the pool (including those that waited for
    /// another thread's read of the same key).
    pub hits: u64,
    /// Fetches that had to go to storage.
    pub misses: u64,
    /// Bitmaps evicted.
    pub evictions: u64,
}

/// What the pool charges against: a count of resident bitmaps (the
/// paper's `m`) or their total heap bytes.
#[derive(Debug, Clone, Copy)]
enum Budget {
    Slots(usize),
    Bytes(usize),
}

/// What a shard knows of one key: how often it has been fetched (its
/// rank), and its bitmap while resident.
#[derive(Default)]
struct Entry {
    refs: u64,
    repr: Option<Repr>,
}

struct Inner {
    /// Every key fetched since the shard was made: cleared of its bitmap
    /// by [`BufferPool::clear`], never of its count.
    entries: HashMap<(usize, usize), Entry>,
    /// Keys being read right now: a second miss on one waits for that
    /// read instead of issuing its own. The [`Flight`] it waits on is made
    /// by the first waiter, so a read nobody waits for allocates nothing
    /// and wakes no one.
    loading: HashMap<(usize, usize), Option<Arc<Flight>>>,
    /// Entries holding a bitmap, and their total [`Repr::heap_bytes`].
    resident: usize,
    resident_bytes: usize,
    stats: PoolStats,
}

impl Inner {
    /// Makes a freshly loaded `repr` resident under `budget` if it can
    /// make room by evicting residents referenced strictly less often than
    /// `key`, least referenced first (ties broken by key, so the choice
    /// repeats); otherwise leaves it uncached and evicts nothing. The key
    /// is not resident: only its single flight loads it.
    fn admit(&mut self, budget: Budget, key: (usize, usize), repr: Repr) {
        let bytes = repr.heap_bytes();
        let fits = |resident: usize, resident_bytes: usize| match budget {
            Budget::Slots(cap) => resident < cap,
            Budget::Bytes(cap) => resident_bytes + bytes <= cap,
        };
        let rank = self.entries.get(&key).map_or(0, |e| e.refs);
        let mut lower: Vec<(u64, (usize, usize), usize)> = self
            .entries
            .iter()
            .filter_map(|(&k, e)| Some((e.refs, k, e.repr.as_ref()?.heap_bytes())))
            .filter(|&(refs, _, _)| refs < rank)
            .collect();
        lower.sort_unstable();
        let (mut resident, mut resident_bytes, mut victims) =
            (self.resident, self.resident_bytes, 0);
        while !fits(resident, resident_bytes) {
            let Some(&(_, _, victim_bytes)) = lower.get(victims) else {
                return; // no room it outranks: served uncached
            };
            resident -= 1;
            resident_bytes -= victim_bytes;
            victims += 1;
        }
        for (_, victim, _) in &lower[..victims] {
            if let Some(e) = self.entries.get_mut(victim) {
                e.repr = None;
            }
        }
        self.stats.evictions += victims as u64;
        self.resident = resident + 1;
        self.resident_bytes = resident_bytes + bytes;
        self.entries.entry(key).or_default().repr = Some(repr);
    }
}

/// What the threads waiting on one read block on. Its loader publishes the
/// outcome — the representation, or `None` when the read failed — and
/// wakes them.
#[derive(Default)]
struct Flight {
    outcome: Mutex<Option<Option<Repr>>>,
    done: Condvar,
}

impl Flight {
    fn publish(&self, repr: Option<Repr>) {
        *self.outcome.lock().unwrap_or_else(|e| e.into_inner()) = Some(repr);
        self.done.notify_all();
    }

    /// Blocks until the loader publishes; `None` if its read failed.
    fn wait(&self) -> Option<Repr> {
        let outcome = self.outcome.lock().unwrap_or_else(|e| e.into_inner());
        let outcome = self
            .done
            .wait_while(outcome, |o| o.is_none())
            .unwrap_or_else(|e| e.into_inner());
        outcome.clone().flatten()
    }
}

/// Ends a load however it ends — returned, failed or panicked: the key
/// leaves `loading` in the same critical section that makes a loaded entry
/// resident (so no third reader finds the key neither loading nor resident
/// while it is in hand), then its waiters, if any, wake.
struct Landing<'a> {
    shard: &'a BufferPool,
    key: (usize, usize),
    repr: Option<Repr>,
}

impl Drop for Landing<'_> {
    fn drop(&mut self) {
        let flight = {
            let mut inner = self.shard.lock();
            if let Some(repr) = &self.repr {
                inner.admit(self.shard.budget, self.key, repr.clone());
            }
            inner.loading.remove(&self.key).flatten()
        };
        if let Some(flight) = flight {
            flight.publish(self.repr.take());
        }
    }
}

/// One shard of a [`ShardedPool`]: a cache of its most-referenced bitmaps
/// under a slot or byte budget behind its own lock.
struct BufferPool {
    budget: Budget,
    inner: Mutex<Inner>,
}

impl BufferPool {
    /// Locks the pool state, recovering from poisoning: the cache holds no
    /// invariants a panicking reader could break mid-update, so a poisoned
    /// pool keeps serving rather than cascading the panic.
    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn with_budget(budget: Budget) -> Self {
        Self {
            budget,
            inner: Mutex::new(Inner {
                entries: HashMap::new(),
                loading: HashMap::new(),
                resident: 0,
                resident_bytes: 0,
                stats: PoolStats::default(),
            }),
        }
    }

    /// Maximum resident bitmaps for a slot-budgeted shard; `usize::MAX`
    /// for a byte-budgeted one (no slot bound).
    fn capacity(&self) -> usize {
        match self.budget {
            Budget::Slots(n) => n,
            Budget::Bytes(_) => usize::MAX,
        }
    }

    fn disabled(&self) -> bool {
        matches!(self.budget, Budget::Slots(0) | Budget::Bytes(0))
    }

    /// The miss path is single-flight: the first thread to miss a key
    /// reads it, and a thread that misses it while that read is in flight
    /// waits and takes the result — counted as a hit, since it read
    /// nothing — so `misses` is exactly the number of loads. A failed load
    /// is not remembered: its waiters go round again and one of them loads.
    /// Each call is one reference to `key`, however many rounds it takes.
    fn get_or_load_repr<E>(
        &self,
        key: (usize, usize),
        load: impl FnOnce() -> Result<Repr, E>,
    ) -> Result<Repr, E> {
        if self.disabled() {
            self.lock().stats.misses += 1;
            return load();
        }
        let mut reference = 1;
        loop {
            let mut inner = self.lock();
            let entry = inner.entries.entry(key).or_default();
            entry.refs += std::mem::take(&mut reference);
            if let Some(repr) = &entry.repr {
                let out = repr.clone();
                inner.stats.hits += 1;
                return Ok(out);
            }
            let Some(waiting) = inner.loading.get_mut(&key) else {
                inner.stats.misses += 1;
                inner.loading.insert(key, None);
                break;
            };
            let flight = Arc::clone(waiting.get_or_insert_default());
            inner.stats.hits += 1;
            drop(inner);
            match flight.wait() {
                Some(repr) => return Ok(repr),
                // The loader's read failed: this fetch was no hit after all.
                None => {
                    let mut inner = self.lock();
                    inner.stats.hits = inner.stats.hits.saturating_sub(1);
                }
            }
        }
        let mut landing = Landing {
            shard: self,
            key,
            repr: None,
        };
        let repr = load()?;
        landing.repr = Some(repr.clone());
        Ok(repr)
    }

    fn stats(&self) -> PoolStats {
        self.lock().stats
    }

    fn resident(&self) -> usize {
        self.lock().resident
    }

    fn resident_bytes(&self) -> usize {
        self.lock().resident_bytes
    }

    /// Drops every resident bitmap and resets statistics. The reference
    /// counts stay: the keys that ranked highest displace whatever refills
    /// the shard at their next fetch.
    fn clear(&self) {
        let mut inner = self.lock();
        for entry in inner.entries.values_mut() {
            entry.repr = None;
        }
        inner.resident = 0;
        inner.resident_bytes = 0;
        inner.stats = PoolStats::default();
    }
}

/// The bitmap cache of the stored read path: `n_shards` independent
/// shards, with each `(component, slot)` key pinned to one shard, so
/// concurrent readers contend only when they touch the same shard rather
/// than on one global lock. Each shard ranks its own keys by reference
/// count (see the module docs); one shard is the paper's §10 buffer pool.
pub struct ShardedPool {
    shards: Vec<BufferPool>,
}

impl ShardedPool {
    /// Creates a pool of exactly `capacity` bitmaps total (`m` in the
    /// paper's notation — the §10 budget, never exceeded), split as evenly
    /// as possible over `n_shards` shards; a capacity below `n_shards` gets
    /// one single-slot shard per bitmap instead, since a shard without a
    /// slot could cache none of the keys pinned to it. Zero capacity
    /// disables caching.
    ///
    /// # Panics
    /// Panics if `n_shards` is zero.
    pub fn new(capacity: usize, n_shards: usize) -> Self {
        assert!(n_shards > 0, "ShardedPool needs at least one shard");
        let n_shards = n_shards.min(capacity.max(1));
        let (each, extra) = (capacity / n_shards, capacity % n_shards);
        Self {
            shards: (0..n_shards)
                .map(|i| BufferPool::with_budget(Budget::Slots(each + usize::from(i < extra))))
                .collect(),
        }
    }

    /// Creates a pool bounded by resident heap bytes instead of a bitmap
    /// count, `bytes` total spread over `n_shards` shards: each entry is
    /// charged its [`Repr::heap_bytes`], so compressed entries cost what
    /// they actually occupy. Zero disables caching; an entry larger than
    /// its shard's whole budget is served but never cached.
    ///
    /// # Panics
    /// Panics if `n_shards` is zero.
    pub fn with_byte_budget(bytes: usize, n_shards: usize) -> Self {
        assert!(n_shards > 0, "ShardedPool needs at least one shard");
        let per_shard = if bytes == 0 {
            0
        } else {
            bytes.div_ceil(n_shards)
        };
        Self {
            shards: (0..n_shards)
                .map(|_| BufferPool::with_budget(Budget::Bytes(per_shard)))
                .collect(),
        }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Total slot capacity across shards (`usize::MAX` when byte-budgeted).
    pub fn capacity(&self) -> usize {
        self.shards
            .iter()
            .map(BufferPool::capacity)
            .fold(0usize, usize::saturating_add)
    }

    fn shard_of(&self, key: (usize, usize)) -> &BufferPool {
        // Fibonacci hash of the key: cheap and spreads the sequential
        // slot numbers of one component across shards.
        let h = (key.0 as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((key.1 as u64).wrapping_mul(0x517C_C1B7_2722_0A95));
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Fetches the representation for `key` from its shard, loading it
    /// with `load` on a miss. The returned [`Repr`] is an `Arc`-backed
    /// handle — a hit costs a reference bump, not a bitmap copy. Concurrent
    /// misses on one key run one `load`: the others wait for it and take
    /// its result (a hit), or load themselves if it failed.
    pub fn get_or_load_repr<E>(
        &self,
        key: (usize, usize),
        load: impl FnOnce() -> Result<Repr, E>,
    ) -> Result<Repr, E> {
        self.shard_of(key).get_or_load_repr(key, load)
    }

    /// Aggregated statistics across all shards.
    pub fn stats(&self) -> PoolStats {
        let mut total = PoolStats::default();
        for s in &self.shards {
            let p = s.stats();
            total.hits += p.hits;
            total.misses += p.misses;
            total.evictions += p.evictions;
        }
        total
    }

    /// Total resident bitmaps across all shards.
    pub fn resident(&self) -> usize {
        self.shards.iter().map(BufferPool::resident).sum()
    }

    /// Total resident heap bytes across all shards.
    pub fn resident_bytes(&self) -> usize {
        self.shards.iter().map(BufferPool::resident_bytes).sum()
    }

    /// Empties every shard and resets statistics. Reference counts survive:
    /// they describe demand, which a rewrite of the bytes does not change.
    pub fn clear(&self) {
        for s in &self.shards {
            s.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bindex_bitvec::BitVec;
    use bindex_compress::wah::WahBitmap;

    fn bm(tag: usize) -> BitVec {
        BitVec::from_fn(64, |i| (i + tag).is_multiple_of(3))
    }

    /// Loads `bits` as a literal under `key` (a miss) or serves the hit.
    fn load(pool: &ShardedPool, key: (usize, usize), bits: BitVec) -> Repr {
        pool.get_or_load_repr::<()>(key, || Ok(Repr::literal(bits)))
            .unwrap()
    }

    /// Fetches `key`, which must already be resident.
    fn hit(pool: &ShardedPool, key: (usize, usize)) -> Repr {
        pool.get_or_load_repr::<()>(key, || panic!("{key:?} must hit"))
            .unwrap()
    }

    #[test]
    fn hit_after_load() {
        let pool = ShardedPool::new(4, 1);
        let a = load(&pool, (1, 0), bm(1));
        let b = hit(&pool, (1, 0));
        // Both handles point at the same resident words — no deep copy.
        match (&a, &b) {
            (Repr::Literal(a), Repr::Literal(b)) => assert!(std::sync::Arc::ptr_eq(a, b)),
            other => panic!("expected two literals, got {other:?}"),
        }
        assert_eq!(*b.to_bitvec(), bm(1));
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    /// Whether fetching `key` ran its load (a miss).
    fn missed(pool: &ShardedPool, key: (usize, usize)) -> bool {
        let mut loaded = false;
        pool.get_or_load_repr::<()>(key, || {
            loaded = true;
            Ok(Repr::literal(bm(key.1)))
        })
        .unwrap();
        loaded
    }

    #[test]
    fn most_referenced_keys_stay_resident() {
        let pool = ShardedPool::new(2, 1);
        // (1,0) and (1,1) fill the pool; (1,2) is then referenced three
        // times, and from its second reference on outranks both.
        load(&pool, (1, 0), bm(0));
        load(&pool, (1, 1), bm(1));
        hit(&pool, (1, 1));
        assert!(missed(&pool, (1, 2)), "a tie at one reference each");
        assert!(missed(&pool, (1, 2)), "admitted over (1,0), the lowest");
        hit(&pool, (1, 2));
        assert_eq!(pool.stats().evictions, 1);
        hit(&pool, (1, 1));
        assert!(missed(&pool, (1, 0)), "(1,0) was evicted");
        // Under an interleaved stream the two hottest keys stay and the
        // cold ones are served uncached: nothing more is evicted.
        for _ in 0..50 {
            for key in [(1, 1), (1, 2), (1, 1), (1, 2), (1, 3), (1, 0)] {
                missed(&pool, key);
            }
        }
        let before = pool.stats();
        for _ in 0..10 {
            assert!(!missed(&pool, (1, 1)) && !missed(&pool, (1, 2)));
            assert!(missed(&pool, (1, 3)) && missed(&pool, (1, 0)));
        }
        assert_eq!(pool.stats().evictions, before.evictions);
        assert_eq!(pool.resident(), 2);
    }

    #[test]
    fn a_tie_does_not_evict() {
        let pool = ShardedPool::new(1, 1);
        load(&pool, (1, 0), bm(0));
        // (1,1) reaches (1,0)'s count but never passes it: served uncached.
        for _ in 0..5 {
            assert!(missed(&pool, (1, 1)));
            assert!(!missed(&pool, (1, 0)));
        }
        assert_eq!(pool.stats().evictions, 0);
        // Level with (1,0) is still a tie; one reference ahead evicts it.
        assert!(missed(&pool, (1, 1)));
        assert!(missed(&pool, (1, 1)));
        assert!(!missed(&pool, (1, 1)));
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn a_failed_load_counts_a_reference_but_caches_nothing() {
        let pool = ShardedPool::new(1, 1);
        load(&pool, (1, 0), bm(0));
        for _ in 0..2 {
            let r = pool.get_or_load_repr::<&str>((1, 1), || Err("boom"));
            assert_eq!(r.unwrap_err(), "boom");
        }
        assert_eq!(pool.resident(), 1);
        assert_eq!(pool.stats().misses, 3);
        // Two failed references already outrank (1,0)'s one: the first
        // successful load is admitted over it.
        assert!(missed(&pool, (1, 1)));
        assert!(!missed(&pool, (1, 1)));
        assert!(missed(&pool, (1, 0)));
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn byte_budget_admission_follows_the_rank() {
        // Three 8-byte entries fill a 24-byte budget; a 16-byte entry needs
        // two of them gone, and only residents ranked below it may go.
        let pool = ShardedPool::with_byte_budget(24, 1);
        let wide = BitVec::from_fn(128, |i| i % 5 == 0);
        for slot in 0..3 {
            load(&pool, (1, slot), bm(slot));
        }
        hit(&pool, (1, 0));
        hit(&pool, (1, 0));
        hit(&pool, (1, 2));
        // Ranks: (1,0) 3, (1,1) 1, (1,2) 2. At 2 references the wide entry
        // outranks only (1,1), which frees too little: nothing is evicted.
        load(&pool, (2, 0), wide.clone());
        load(&pool, (2, 0), wide.clone());
        assert_eq!((pool.resident(), pool.resident_bytes()), (3, 24));
        assert_eq!(pool.stats().evictions, 0);
        // At 3 it outranks (1,1) and (1,2): both go, lowest first.
        load(&pool, (2, 0), wide.clone());
        assert_eq!((pool.resident(), pool.resident_bytes()), (2, 24));
        assert_eq!(pool.stats().evictions, 2);
        assert_eq!(*hit(&pool, (2, 0)).to_bitvec(), wide);
        hit(&pool, (1, 0));
    }

    #[test]
    fn counts_survive_clear() {
        let pool = ShardedPool::new(1, 1);
        for _ in 0..3 {
            missed(&pool, (1, 0));
        }
        pool.clear();
        assert_eq!((pool.resident(), pool.stats()), (0, PoolStats::default()));
        // (1,1) refills the empty shard, but (1,0)'s three references from
        // before the clear still outrank its two: (1,0) displaces it.
        assert!(missed(&pool, (1, 1)));
        assert!(!missed(&pool, (1, 1)));
        assert!(missed(&pool, (1, 0)));
        assert!(!missed(&pool, (1, 0)));
        assert!(missed(&pool, (1, 1)));
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn load_errors_propagate() {
        let pool = ShardedPool::new(2, 1);
        let r = pool.get_or_load_repr::<&str>((9, 9), || Err("boom"));
        assert_eq!(r.unwrap_err(), "boom");
        assert_eq!(pool.resident(), 0);
    }

    #[test]
    fn byte_budget_charges_heap_bytes() {
        // Each 64-bit literal costs 8 bytes: a 24-byte budget holds 3.
        let pool = ShardedPool::with_byte_budget(24, 1);
        for slot in 0..3 {
            load(&pool, (1, slot), bm(slot));
        }
        assert_eq!(pool.resident(), 3);
        assert_eq!(pool.resident_bytes(), 24);
        // A fourth entry referenced as often as the residents does not fit
        // and outranks none of them: it is served, not cached.
        load(&pool, (1, 3), bm(3));
        assert_eq!(pool.resident(), 3);
        assert_eq!(pool.resident_bytes(), 24);
        assert_eq!(pool.stats().evictions, 0);
        // Referenced again, it outranks them and evicts one to fit.
        load(&pool, (1, 3), bm(3));
        assert_eq!(pool.resident(), 3);
        assert_eq!(pool.resident_bytes(), 24);
        assert_eq!(pool.stats().evictions, 1);
    }

    #[test]
    fn byte_budget_holds_more_compressed_entries() {
        // Sparse 4096-bit bitmaps: 512 dense bytes each, a handful of
        // WAH words each. The same byte budget keeps every compressed
        // entry resident but only one dense one.
        let sparse = |tag: usize| BitVec::from_fn(4096, move |i| i == tag);
        let budget = 600;
        let dense = ShardedPool::with_byte_budget(budget, 1);
        let compressed = ShardedPool::with_byte_budget(budget, 1);
        for slot in 0..8 {
            load(&dense, (1, slot), sparse(slot));
            compressed
                .get_or_load_repr::<()>((1, slot), || {
                    Ok(Repr::wah(WahBitmap::from_bitvec(&sparse(slot))))
                })
                .unwrap();
        }
        assert_eq!(dense.resident(), 1);
        assert_eq!(compressed.resident(), 8);
        assert!(compressed.resident_bytes() <= budget);
    }

    #[test]
    fn oversized_entry_served_not_cached() {
        let pool = ShardedPool::with_byte_budget(8, 1);
        let big = BitVec::from_fn(1024, |i| i % 2 == 0); // 128 bytes
        let got = load(&pool, (1, 0), big.clone());
        assert_eq!(*got.to_bitvec(), big);
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.stats().evictions, 0);
    }

    #[test]
    fn repr_hits_preserve_representation() {
        let pool = ShardedPool::new(4, 1);
        let bits = BitVec::from_fn(2048, |i| i == 7);
        let wah = WahBitmap::from_bitvec(&bits);
        pool.get_or_load_repr::<()>((2, 0), || Ok(Repr::wah(wah)))
            .unwrap();
        let got = hit(&pool, (2, 0));
        assert!(got.is_compressed());
        assert_eq!(*got.to_bitvec(), bits);
        // Materializing a hit leaves the compressed copy cached.
        assert!(hit(&pool, (2, 0)).is_compressed());
        assert!(pool.resident_bytes() < bits.words().len() * 8);
    }

    #[test]
    fn sharded_pool_caches_and_aggregates() {
        let pool = ShardedPool::new(16, 4);
        assert_eq!(pool.n_shards(), 4);
        assert_eq!(pool.capacity(), 16);
        for slot in 0..8 {
            load(&pool, (1, slot), bm(slot));
        }
        for slot in 0..8 {
            assert_eq!(*hit(&pool, (1, slot)).to_bitvec(), bm(slot));
        }
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (8, 8));
        assert_eq!(pool.resident(), 8);
        pool.clear();
        assert_eq!(pool.resident(), 0);
        assert_eq!(pool.stats(), PoolStats::default());
        // The requested capacity is the budget, whatever the shard count:
        // fewer slots than shards, one each, a ragged split, the
        // benchmark's two settings.
        for (capacity, n_shards) in [(1, 8), (4, 8), (8, 8), (12, 8), (512, 8)] {
            let pool = ShardedPool::new(capacity, n_shards);
            assert_eq!(pool.capacity(), capacity, "({capacity}, {n_shards})");
            assert_eq!(pool.n_shards(), n_shards.min(capacity));
            for key in 0..27 {
                load(&pool, (1 + key / 9, key % 9), bm(key));
            }
            assert!(pool.resident() <= capacity, "({capacity}, {n_shards})");
        }
    }

    #[test]
    fn sharded_byte_budget_accounts_bytes() {
        let pool = ShardedPool::with_byte_budget(1024, 4);
        for slot in 0..8 {
            load(&pool, (1, slot), bm(slot));
        }
        assert_eq!(pool.resident(), 8);
        assert_eq!(pool.resident_bytes(), 64);
    }

    #[test]
    fn zero_capacity_never_caches() {
        for pool in [ShardedPool::new(0, 1), ShardedPool::new(0, 4)] {
            for _ in 0..3 {
                load(&pool, (2, 1), bm(1));
            }
            assert_eq!(pool.stats().misses, 3);
            assert_eq!(pool.resident(), 0);
        }
    }

    #[test]
    fn sharded_pool_is_shareable_across_threads() {
        let pool = ShardedPool::new(64, 8);
        std::thread::scope(|scope| {
            for t in 0..4 {
                let pool = &pool;
                scope.spawn(move || {
                    for slot in 0..16 {
                        load(pool, (t, slot), bm(slot));
                        load(pool, (t, slot), bm(slot));
                    }
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.hits + s.misses, 128);
        assert!(s.hits >= 64, "second touch of each key must hit");
    }

    /// A second thread fetches a cold key while the first thread's load of
    /// it is in hand: that load does not return until the second fetch has
    /// been counted, so the race is forced, not timed. Returns both
    /// fetches and the number of loads that ran.
    fn racing_fetches(first_load_fails: bool) -> (Result<Repr, ()>, Result<Repr, ()>, usize) {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::SeqCst};
        let pool = ShardedPool::new(4, 1);
        let loads = AtomicUsize::new(0);
        let loading = AtomicBool::new(false);
        let (first, second) = std::thread::scope(|scope| {
            let first = scope.spawn(|| {
                pool.get_or_load_repr((1, 0), || {
                    loading.store(true, SeqCst);
                    while pool.stats().hits + pool.stats().misses < 2 {
                        std::thread::yield_now();
                    }
                    loads.fetch_add(1, SeqCst);
                    if first_load_fails {
                        Err(())
                    } else {
                        Ok(Repr::literal(bm(0)))
                    }
                })
            });
            while !loading.load(SeqCst) {
                std::thread::yield_now();
            }
            let second = pool.get_or_load_repr((1, 0), || {
                loads.fetch_add(1, SeqCst);
                Ok(Repr::literal(bm(0)))
            });
            (first.join().unwrap(), second)
        });
        let (loads, s) = (loads.into_inner(), pool.stats());
        assert_eq!(pool.resident(), 1);
        assert_eq!(s.misses as usize, loads, "one miss, one read");
        assert_eq!(s.hits + s.misses, 2, "two fetches");
        (first, second, loads)
    }

    #[test]
    fn concurrent_misses_on_one_key_read_it_once() {
        let (first, second, loads) = racing_fetches(false);
        assert_eq!(loads, 1, "the second miss must wait for the first read");
        match (first.unwrap(), second.unwrap()) {
            (Repr::Literal(a), Repr::Literal(b)) => assert!(std::sync::Arc::ptr_eq(&a, &b)),
            other => panic!("expected two literals, got {other:?}"),
        }
    }

    #[test]
    fn a_failed_load_is_not_shared_its_waiter_loads_again() {
        let (first, second, loads) = racing_fetches(true);
        assert!(first.is_err());
        assert_eq!(*second.unwrap().to_bitvec(), bm(0));
        assert_eq!(loads, 2, "the waiter retries with its own load");
    }
}
