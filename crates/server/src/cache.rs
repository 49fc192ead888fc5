//! A result cache keyed on *normalized* predicates, invalidated by the
//! repair epoch.
//!
//! Selection predicates over an ordered domain alias each other:
//! `A < v` is `A <= v-1`, `A >= v` is `A > v-1`. [`normalize`] folds each
//! query onto one canonical form so aliased predicates share a cache
//! entry — the same trick the paper's RangeEval-Opt plays with `<=`
//! bitmaps, applied one layer up. Threshold queries get the same
//! treatment one level higher: [`normalize_threshold`] folds every
//! predicate and then sorts the set, since "≥ k of N" is a symmetric
//! function of its operands and predicate order must not fragment the
//! cache.
//!
//! Every entry is tagged with the [`repair
//! epoch`](bindex::storage::SharedIndexReader::repair_epoch) of the index
//! it was computed against. A repair rewrites stored files, so the first
//! access after the epoch advances drops the whole map: serving a
//! pre-repair foundset after the bytes underneath changed would be a
//! silent wrong answer, the one thing a robustness layer must never do.
//! Only clean (non-degraded) answers are inserted.
//!
//! A count request caches its cardinality alone — 8 bytes where the
//! foundset would be `N/8` — and is answered by an entry of either kind; a
//! bitmap request is answered only by an entry that holds the foundset
//! ([`ResultCache::get_bits`]), and its evaluation replaces a count-only
//! entry.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bindex::compress::Repr;
use bindex::relation::query::{Op, SelectionQuery};

/// Canonical form of a predicate: the key under which its foundset is
/// cached.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum NormKey {
    /// `A < 0`: no row qualifies, for any column.
    Empty,
    /// `A >= 0`: every (non-null) row qualifies.
    All,
    /// Everything else, folded onto the `{<=, >, =, !=}` operators.
    Pred(Op, u32),
    /// "At least `k` of these predicates": each predicate folded onto its
    /// canonical selection form, then the whole set sorted — predicate
    /// order never matters to a threshold, so every permutation (and
    /// every aliased spelling of each predicate) shares one entry.
    /// Duplicates are kept: a repeated predicate counts twice toward `k`.
    Threshold(u32, Vec<NormKey>),
}

/// Folds a query onto its canonical form: `Lt v → Le v-1` (or [`NormKey::Empty`]
/// at `v = 0`), `Ge v → Gt v-1` (or [`NormKey::All`] at `v = 0`); `Le`,
/// `Gt`, `Eq`, `Ne` are already canonical.
pub fn normalize(query: SelectionQuery) -> NormKey {
    match (query.op, query.constant) {
        (Op::Lt, 0) => NormKey::Empty,
        (Op::Lt, v) => NormKey::Pred(Op::Le, v - 1),
        (Op::Ge, 0) => NormKey::All,
        (Op::Ge, v) => NormKey::Pred(Op::Gt, v - 1),
        (op, v) => NormKey::Pred(op, v),
    }
}

/// Canonical form of a "≥ k of N" query: normalize each predicate, then
/// sort the set — thresholds are symmetric functions of their operands,
/// so `≥2 of {p, q, r}` and `≥2 of {r, p, q}` must share a cache entry.
pub fn normalize_threshold(k: u32, predicates: &[SelectionQuery]) -> NormKey {
    let mut preds: Vec<NormKey> = predicates.iter().map(|&q| normalize(q)).collect();
    preds.sort_by_key(|p| match *p {
        NormKey::Empty => (0u8, 0u8, 0u32),
        NormKey::All => (1, 0, 0),
        NormKey::Pred(op, v) => (2, op as u8, v),
        // Thresholds never nest inside a predicate set; rank is moot.
        NormKey::Threshold(k, _) => (3, 0, k),
    });
    NormKey::Threshold(k, preds)
}

/// A cached answer: the cardinality, and the foundset when a bitmap
/// request computed it — a shared handle in the representation evaluation
/// produced, so a foundset computed over compressed slots occupies its
/// compressed footprint. A count request caches its number alone.
#[derive(Debug, Clone)]
pub struct CachedAnswer {
    /// The foundset; `None` for an entry a count request inserted.
    pub bits: Option<Repr>,
    /// The number of qualifying rows.
    pub cardinality: u64,
}

struct Inner {
    /// Epoch the resident entries were computed under.
    epoch: u64,
    map: HashMap<NormKey, CachedAnswer>,
    /// Insertion order for FIFO eviction — predictable and O(1), which
    /// matters more here than LRU's marginal hit-rate edge.
    order: VecDeque<NormKey>,
}

/// Bounded per-index result cache. All methods take `&self`.
pub struct ResultCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl ResultCache {
    /// Creates a cache holding at most `capacity` foundsets; zero
    /// disables caching entirely.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(Inner {
                epoch: 0,
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Looks up `key` computed under `epoch`: an entry of either kind, which
    /// is all a count needs. An epoch change drops every resident entry
    /// first (counted as one invalidation).
    pub fn get(&self, key: &NormKey, epoch: u64) -> Option<CachedAnswer> {
        self.lookup(key, epoch, false)
    }

    /// [`ResultCache::get`] for a request that needs the foundset: an entry
    /// holding only a count is a miss, and the evaluation that follows
    /// replaces it.
    pub fn get_bits(&self, key: &NormKey, epoch: u64) -> Option<CachedAnswer> {
        self.lookup(key, epoch, true)
    }

    fn lookup(&self, key: &NormKey, epoch: u64, need_bits: bool) -> Option<CachedAnswer> {
        let mut inner = self.inner.lock().unwrap();
        self.sync_epoch(&mut inner, epoch);
        let entry = inner
            .map
            .get(key)
            .filter(|e| !need_bits || e.bits.is_some());
        match entry.cloned() {
            Some(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(hit)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts a clean answer computed under `epoch`, replacing any entry
    /// for `key`. Stale-epoch inserts (a query that raced with a repair)
    /// are dropped — never cached.
    pub fn insert(&self, key: NormKey, answer: CachedAnswer, epoch: u64) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap();
        self.sync_epoch(&mut inner, epoch);
        if epoch < inner.epoch {
            return;
        }
        if inner.map.insert(key.clone(), answer).is_none() {
            inner.order.push_back(key);
            while inner.order.len() > self.capacity {
                if let Some(evict) = inner.order.pop_front() {
                    inner.map.remove(&evict);
                }
            }
        }
    }

    fn sync_epoch(&self, inner: &mut Inner, epoch: u64) {
        if epoch > inner.epoch {
            if !inner.map.is_empty() {
                self.invalidations.fetch_add(1, Ordering::Relaxed);
            }
            inner.map.clear();
            inner.order.clear();
            inner.epoch = epoch;
        }
    }

    /// `(hits, misses, invalidations)` so far.
    pub fn stats(&self) -> (u64, u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
            self.invalidations.load(Ordering::Relaxed),
        )
    }

    /// Resident entries (for tests and stats).
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bindex::BitVec;

    fn answer(n: u64) -> CachedAnswer {
        CachedAnswer {
            bits: Some(Repr::literal(BitVec::from_fn(64, |i| (i as u64) < n))),
            cardinality: n,
        }
    }

    #[test]
    fn normalization_folds_aliases() {
        assert_eq!(
            normalize(SelectionQuery::new(Op::Lt, 5)),
            normalize(SelectionQuery::new(Op::Le, 4))
        );
        assert_eq!(
            normalize(SelectionQuery::new(Op::Ge, 5)),
            normalize(SelectionQuery::new(Op::Gt, 4))
        );
        assert_eq!(normalize(SelectionQuery::new(Op::Lt, 0)), NormKey::Empty);
        assert_eq!(normalize(SelectionQuery::new(Op::Ge, 0)), NormKey::All);
        // Distinct predicates stay distinct.
        assert_ne!(
            normalize(SelectionQuery::new(Op::Eq, 3)),
            normalize(SelectionQuery::new(Op::Ne, 3))
        );
    }

    #[test]
    fn aliased_queries_share_an_entry() {
        let cache = ResultCache::new(8);
        cache.insert(normalize(SelectionQuery::new(Op::Le, 4)), answer(5), 0);
        let hit = cache
            .get(&normalize(SelectionQuery::new(Op::Lt, 5)), 0)
            .unwrap();
        assert_eq!(hit.cardinality, 5);
        assert_eq!(cache.stats(), (1, 0, 0));
    }

    #[test]
    fn threshold_normalization_is_order_and_alias_blind() {
        let preds = [
            SelectionQuery::new(Op::Lt, 5),
            SelectionQuery::new(Op::Ge, 3),
            SelectionQuery::new(Op::Ne, 4),
        ];
        let permuted = [
            SelectionQuery::new(Op::Ne, 4),
            // Aliased spellings of the same two predicates.
            SelectionQuery::new(Op::Gt, 2),
            SelectionQuery::new(Op::Le, 4),
        ];
        assert_eq!(
            normalize_threshold(2, &preds),
            normalize_threshold(2, &permuted)
        );
        // A different k is a different answer, hence a different key.
        assert_ne!(
            normalize_threshold(2, &preds),
            normalize_threshold(3, &preds)
        );
        // Duplicates are load-bearing (they count twice toward k).
        assert_ne!(
            normalize_threshold(2, &preds[..2]),
            normalize_threshold(2, &[preds[0], preds[0]])
        );
        // Threshold keys live in the same cache as selection keys.
        let cache = ResultCache::new(8);
        cache.insert(normalize_threshold(2, &preds), answer(4), 0);
        assert_eq!(
            cache
                .get(&normalize_threshold(2, &permuted), 0)
                .unwrap()
                .cardinality,
            4
        );
    }

    #[test]
    fn epoch_advance_invalidates_everything() {
        let cache = ResultCache::new(8);
        let key = normalize(SelectionQuery::new(Op::Eq, 1));
        cache.insert(key.clone(), answer(3), 0);
        assert!(cache.get(&key, 0).is_some());
        assert!(cache.get(&key, 1).is_none(), "post-repair read must miss");
        assert_eq!(cache.len(), 0);
        let (_, _, invalidations) = cache.stats();
        assert_eq!(invalidations, 1);
        // A stale-epoch insert (query raced the repair) is dropped.
        cache.insert(key.clone(), answer(3), 0);
        assert!(cache.get(&key, 1).is_none());
    }

    #[test]
    fn fifo_eviction_bounds_residency() {
        let cache = ResultCache::new(2);
        for v in 0..5u32 {
            cache.insert(normalize(SelectionQuery::new(Op::Eq, v)), answer(1), 0);
        }
        assert_eq!(cache.len(), 2);
        // Oldest entries are gone, newest survive.
        assert!(cache
            .get(&normalize(SelectionQuery::new(Op::Eq, 4)), 0)
            .is_some());
        assert!(cache
            .get(&normalize(SelectionQuery::new(Op::Eq, 0)), 0)
            .is_none());
    }

    #[test]
    fn a_count_entry_serves_counts_and_misses_for_bitmaps() {
        let cache = ResultCache::new(8);
        let key = normalize(SelectionQuery::new(Op::Le, 4));
        let count = CachedAnswer {
            bits: None,
            cardinality: 5,
        };
        cache.insert(key.clone(), count, 0);
        assert_eq!(cache.get(&key, 0).unwrap().cardinality, 5);
        assert!(cache.get_bits(&key, 0).is_none());
        assert_eq!(cache.stats(), (1, 1, 0));
        // The bitmap answer replaces the count, and serves both kinds.
        cache.insert(key.clone(), answer(5), 0);
        assert!(cache.get_bits(&key, 0).unwrap().bits.is_some());
        assert!(cache.get(&key, 0).unwrap().bits.is_some());
        assert_eq!((cache.len(), cache.stats()), (1, (3, 1, 0)));
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0);
        let key = normalize(SelectionQuery::new(Op::Eq, 1));
        cache.insert(key.clone(), answer(1), 0);
        assert!(cache.get(&key, 0).is_none());
    }
}
