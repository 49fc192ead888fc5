//! Served indexes: the bridge between the wire layer and the evaluation
//! engine.
//!
//! A [`ServedIndex`] owns one stored bitmap index behind a
//! [`SharedIndexReader`] in an `RwLock`: query execution takes read locks
//! (one per query in flight), repair takes the write lock — which *is*
//! the drain: a repair waits for in-flight queries on that index and
//! blocks new ones only for the rewrite itself. Around the reader sit the
//! per-index [`CircuitBreaker`] (strict vs. degraded serving) and
//! [`ResultCache`] (invalidated by the reader's repair epoch).
//!
//! Everything is type-erased over [`DynStore`] so the server binary,
//! tests, and benchmarks can serve disk-backed, in-memory, and
//! fault-injected indexes through one non-generic type.

use std::sync::{Arc, RwLock};
use std::time::Duration;

use bindex::compress::Repr;
use bindex::core::eval::{validate, Algorithm};
use bindex::core::{Deadline, EvalStats};
use bindex::engine::batch::{check_segment_bits, evaluate_query, BatchOptions, QueryOutcome, Sink};
use bindex::relation::query::SelectionQuery;
use bindex::storage::{ByteStore, RepairReport, ShardedPool, SharedIndexReader, StoredIndex};
use bindex::stored::{check_recovery_inputs, storage_error};
use bindex::{
    scrub_and_repair_index, BitVec, Column, Error, IndexSpec, IngestIndex, IngestOptions,
    RecoveryPolicy, SharedSource,
};

use crate::breaker::{BreakerState, CircuitBreaker};
use crate::cache::{normalize, normalize_threshold, CachedAnswer, ResultCache};

/// One query as served over the wire: a single selection predicate or a
/// "≥ k of N" threshold over several. Both run through the same serving
/// policy — cache, breaker, deadline, segment-at-a-time evaluation.
pub use bindex::relation::query::Query as ServedQuery;

/// The one store type the server deals in; anything `ByteStore + Send +
/// Sync` boxes into it.
pub type DynStore = Box<dyn ByteStore + Send + Sync>;

/// Tuning knobs for one served index; the defaults suit the demo and the
/// integration tests.
#[derive(Debug, Clone)]
pub struct IndexTuning {
    /// Morsel size for segment-at-a-time evaluation (power of two,
    /// >= 512); smaller segments mean finer-grained deadline checks.
    pub segment_bits: usize,
    /// Result-cache capacity in foundsets; zero disables it.
    pub cache_capacity: usize,
    /// Bitmap buffer-pool capacity in bitmaps; zero disables it.
    pub pool_capacity: usize,
    /// Consecutive faulted queries that trip the breaker.
    pub breaker_trip: usize,
    /// Consecutive clean probes that close it again.
    pub breaker_close: usize,
    /// How long an open breaker waits before probing on its own.
    pub breaker_cooldown: Duration,
}

impl Default for IndexTuning {
    fn default() -> Self {
        Self {
            segment_bits: 1 << 16,
            cache_capacity: 256,
            pool_capacity: 512,
            breaker_trip: 3,
            breaker_close: 2,
            breaker_cooldown: Duration::from_secs(5),
        }
    }
}

/// One query's answer, ready for the wire.
#[derive(Debug, Clone)]
pub struct QueryAnswer {
    /// The foundset, in the representation evaluation produced: a bitmap
    /// reply calls [`Repr::to_bitvec`].
    pub bits: Repr,
    /// `bits.count_ones()`.
    pub cardinality: u64,
    /// Answer was produced through bitmap reconstruction (breaker open).
    pub degraded: bool,
    /// Answer came from the result cache.
    pub cached: bool,
    /// What evaluating it did; all zeros for a cached answer.
    pub stats: EvalStats,
}

/// One served answer under either [`Sink`]: what [`QueryAnswer`] holds,
/// with the foundset only when the keep sink ran or a cached entry held it.
pub(crate) struct Served {
    pub(crate) bits: Option<Repr>,
    pub(crate) cardinality: u64,
    pub(crate) degraded: bool,
    pub(crate) cached: bool,
    pub(crate) stats: EvalStats,
}

/// What [`ServedIndex::ingest`] returns for an applied batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestSummary {
    /// Highest durable WAL sequence number covered by the compaction.
    pub seq: u64,
    /// The storage generation the batch was compacted into.
    pub generation: u64,
    /// Logical rows after the batch (deleted rows keep their ids).
    pub n_rows: u64,
}

/// A stored index being served: reader + breaker + cache + repair inputs.
pub struct ServedIndex {
    name: String,
    spec: IndexSpec,
    /// Upper bound for ingested values: the column's cardinality when one
    /// is attached, otherwise everything the spec's base can represent.
    cardinality: u32,
    /// The base column, when available: enables scan-based reconstruction
    /// (every slot recoverable) and full repair. Behind a lock because
    /// [`ServedIndex::ingest`] must extend it in step with the index.
    column: RwLock<Option<Arc<Column>>>,
    null_mask: RwLock<Option<BitVec>>,
    reader: RwLock<SharedIndexReader<DynStore>>,
    breaker: CircuitBreaker,
    cache: ResultCache,
    segment_bits: usize,
}

impl ServedIndex {
    /// Opens the stored index in `store` and wraps it for serving.
    /// `spec` must be the layout the index was written with and
    /// `tuning.segment_bits` a size [`check_segment_bits`] accepts (both
    /// validated here, so query-time construction cannot fail); `column`
    /// and `null_mask` feed reconstruction and repair when present, and
    /// must cover the stored index's rows exactly
    /// ([`check_recovery_inputs`], also here).
    pub fn new(
        name: impl Into<String>,
        spec: IndexSpec,
        store: DynStore,
        column: Option<Arc<Column>>,
        null_mask: Option<BitVec>,
        tuning: IndexTuning,
    ) -> Result<Self, Error> {
        // `BatchOptions::with_segment_bits` asserts this on every query —
        // on the connection thread, outside any `catch_unwind`.
        check_segment_bits(tuning.segment_bits)?;
        let stored = StoredIndex::open(store).map_err(storage_error)?;
        let reader = if tuning.pool_capacity > 0 {
            SharedIndexReader::with_pool(stored, ShardedPool::new(tuning.pool_capacity, 8))
        } else {
            SharedIndexReader::new(stored)
        };
        // Validate the layout once, while we hold the only reference.
        SharedSource::try_new(&reader, &spec)?;
        check_recovery_inputs(reader.meta().n_rows, column.as_deref(), null_mask.as_ref())?;
        let cardinality = match &column {
            Some(c) => c.cardinality(),
            // Anything the base can decompose is admissible.
            None => spec.base.product().min(u128::from(u32::MAX)) as u32,
        };
        Ok(Self {
            name: name.into(),
            spec,
            cardinality,
            column: RwLock::new(column),
            null_mask: RwLock::new(null_mask),
            reader: RwLock::new(reader),
            breaker: CircuitBreaker::new(
                tuning.breaker_trip,
                tuning.breaker_close,
                tuning.breaker_cooldown,
            ),
            cache: ResultCache::new(tuning.cache_capacity),
            segment_bits: tuning.segment_bits,
        })
    }

    /// The name clients address this index by.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The index layout.
    pub fn spec(&self) -> IndexSpec {
        self.spec.clone()
    }

    /// Rows in the indexed relation.
    pub fn n_rows(&self) -> usize {
        self.reader.read().unwrap().meta().n_rows
    }

    /// The per-index circuit breaker (read-only access for stats and
    /// tests).
    pub fn breaker(&self) -> &CircuitBreaker {
        &self.breaker
    }

    /// `(hits, misses, invalidations)` of the result cache.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        self.cache.stats()
    }

    /// Current repair epoch of the underlying reader.
    pub fn repair_epoch(&self) -> u64 {
        self.reader.read().unwrap().repair_epoch()
    }

    /// Evaluates one selection predicate under this index's serving
    /// policy (see [`ServedIndex::execute_any`]) and returns its foundset.
    pub fn execute(
        &self,
        query: SelectionQuery,
        deadline: Option<Deadline>,
    ) -> Result<QueryAnswer, Error> {
        self.execute_any(ServedQuery::Selection(query), deadline)
    }

    /// The serving path for either query kind, returning its foundset
    /// ([`ServedIndex::execute`] is its selection shorthand): result cache
    /// first; then segment-at-a-time evaluation with the deadline checked
    /// between windows; recovery strict or degraded per the breaker;
    /// outcome fed back into breaker and cache. A degenerate threshold
    /// (`k = 0`, `k` above the predicate count, no predicates) is rejected
    /// with [`Error::InvalidQuery`] before touching the store. A count
    /// request over the wire takes the same path with a count sink.
    pub fn execute_any(
        &self,
        query: ServedQuery,
        deadline: Option<Deadline>,
    ) -> Result<QueryAnswer, Error> {
        let served = self.serve(query, deadline, Sink::Keep)?;
        Ok(QueryAnswer {
            bits: served
                .bits
                .expect("a keep-sink answer, cached or not, holds its foundset"),
            cardinality: served.cardinality,
            degraded: served.degraded,
            cached: served.cached,
            stats: served.stats,
        })
    }

    /// [`ServedIndex::execute_any`]'s serving policy, ending in `sink`. A
    /// count is answered by a cache entry of either kind, a foundset only
    /// by one that holds it; [`Sink::Count`] caches the cardinality alone
    /// and leaves `bits` empty.
    pub(crate) fn serve(
        &self,
        query: ServedQuery,
        deadline: Option<Deadline>,
        sink: Sink,
    ) -> Result<Served, Error> {
        // A malformed threshold or a constant the base cannot decompose is
        // the client's mistake: rejected before the cache, the store and
        // the breaker see anything.
        validate(&self.spec, &query)?;
        let key = match &query {
            ServedQuery::Selection(q) => normalize(*q),
            ServedQuery::Threshold(q) => normalize_threshold(q.k, &q.predicates),
        };
        let guard = self.reader.read().unwrap();
        let epoch = guard.repair_epoch();
        let hit = match sink {
            Sink::Keep => self.cache.get_bits(&key, epoch),
            Sink::Count => self.cache.get(&key, epoch),
        };
        if let Some(hit) = hit {
            return Ok(Served {
                bits: hit.bits,
                cardinality: hit.cardinality,
                degraded: false,
                cached: true,
                stats: EvalStats::default(),
            });
        }
        let recovery = if self.breaker.degraded_serving() {
            match &*self.column.read().unwrap() {
                Some(column) => RecoveryPolicy::ReconstructOrScan(Arc::clone(column)),
                None => RecoveryPolicy::Reconstruct,
            }
        } else {
            RecoveryPolicy::Fail
        };
        let mut options = BatchOptions::single_threaded()
            .with_recovery(recovery)
            .with_segment_bits(self.segment_bits);
        if let Some(d) = deadline {
            options = options.with_deadline(d);
        }
        let spec = &self.spec;
        // Columns with nulls (including rows masked out by an ingest
        // delete) carry a stored not-null bitmap; `Ne` and negated
        // predicates are wrong without it. The reader holds it between
        // repairs, so this is a handle, not a read — and when the read it
        // stands for fails, that is a faulted fetch like any other.
        let nn = guard
            .read_nn_repr()
            .map_err(storage_error)
            .inspect_err(|_| self.breaker.record_fault())?;
        let mut source =
            SharedSource::try_new(&guard, spec).expect("layout validated at registration");
        if let Some(nn) = nn {
            source = source.with_nn(nn);
        }
        let (found, stats, degraded) =
            match evaluate_query(&mut source, &query, Algorithm::Auto, &options, sink) {
                QueryOutcome::Ok((found, stats)) => (found, stats, false),
                QueryOutcome::Degraded((found, stats)) => (found, stats, true),
                QueryOutcome::Failed(e) => {
                    self.breaker.record_fault();
                    return Err(e);
                }
                QueryOutcome::TimedOut | QueryOutcome::DeadlineExceeded => {
                    return Err(Error::DeadlineExceeded)
                }
            };
        let cardinality = found.count_ones();
        let bits = found.into_bits();
        if degraded {
            // Exact answer, faulty store: count it against the breaker,
            // serve it, never cache it.
            self.breaker.record_fault();
        } else {
            self.breaker.record_success();
            let answer = CachedAnswer {
                bits: bits.clone(),
                cardinality,
            };
            self.cache.insert(key, answer, epoch);
        }
        Ok(Served {
            bits,
            cardinality,
            degraded,
            cached: false,
            stats,
        })
    }

    /// Scrubs and repairs the stored index. Takes the write lock — all
    /// readers of this index drain first — then rewrites damaged files,
    /// flushes the bitmap pool, bumps the repair epoch (invalidating the
    /// result cache), and moves an open breaker to probing.
    pub fn repair(&self) -> Result<RepairReport, Error> {
        let mut guard = self.reader.write().unwrap();
        let column = self.column.read().unwrap();
        let null_mask = self.null_mask.read().unwrap();
        let spec = &self.spec;
        let report = guard.repair_index(|stored| {
            scrub_and_repair_index(stored, spec, column.as_deref(), null_mask.as_ref())
        })?;
        self.breaker.on_repair();
        Ok(report)
    }

    /// Applies one ingest batch — appended rows (`None` = null) and/or
    /// deleted row ids — and compacts it straight into a fresh storage
    /// generation.
    ///
    /// Takes the reader's write lock (in-flight queries drain first), runs
    /// a WAL-logged [`IngestIndex`] session through
    /// [`SharedIndexReader::repair_index`] — so the bitmap pool is flushed
    /// and the repair epoch bumps, which invalidates every cached result —
    /// then extends the repair column/null-mask to match the rewritten
    /// index and notifies the breaker. Deletes may target rows appended in
    /// the same batch.
    pub fn ingest(&self, appends: &[Option<u32>], deletes: &[u64]) -> Result<IngestSummary, Error> {
        let mut guard = self.reader.write().unwrap();
        let mut column = self.column.write().unwrap();
        let mut null_mask = self.null_mask.write().unwrap();
        let spec = self.spec.clone();
        let cardinality = self.cardinality;
        let summary = guard.repair_index(|stored| -> Result<IngestSummary, Error> {
            let mut session = IngestIndex::open(stored, spec, cardinality, IngestOptions::new())?;
            // Validate the whole batch before logging any of it, so a
            // bad delete cannot leave a half-applied batch in the WAL.
            for v in appends.iter().flatten() {
                if *v >= cardinality {
                    return Err(Error::ValueOutOfRange {
                        value: *v,
                        cardinality,
                    });
                }
            }
            let n_after = session.n_rows() + appends.len();
            for &r in deletes {
                if usize::try_from(r).map_or(true, |r| r >= n_after) {
                    return Err(Error::InvalidQuery(format!(
                        "delete targets row {r}, batch leaves {n_after} rows"
                    )));
                }
            }
            if !appends.is_empty() {
                session.append(appends)?;
            }
            if !deletes.is_empty() {
                session.delete(deletes)?;
            }
            let generation = session.compact()?;
            Ok(IngestSummary {
                seq: session.durable_seq(),
                generation,
                n_rows: session.n_rows() as u64,
            })
        })?;
        // Keep the recovery inputs in step with the rewritten index:
        // appended rows extend the column, nulls and deletions extend the
        // mask — exactly what compaction persisted.
        match column.as_mut() {
            Some(col) => {
                // No query holds the column while the reader is write-locked,
                // so this grows it in place.
                let col = Arc::make_mut(col);
                let mut mask = null_mask.take().unwrap_or_else(|| BitVec::zeros(col.len()));
                col.extend(appends.iter().map(|v| v.unwrap_or(0)));
                for v in appends {
                    mask.push(v.is_none());
                }
                for &r in deletes {
                    mask.set(r as usize, true);
                }
                *null_mask = Some(mask);
            }
            // Without a column a stale mask is worse than none.
            None => *null_mask = None,
        }
        self.breaker.on_repair();
        Ok(summary)
    }

    /// `true` when the index currently serves strict (breaker closed).
    pub fn healthy(&self) -> bool {
        self.breaker.state() == BreakerState::Closed
    }
}

/// The set of indexes one server instance serves, by name.
#[derive(Default)]
pub struct Registry {
    indexes: Vec<Arc<ServedIndex>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an index; replaces any previous index of the same name.
    pub fn insert(&mut self, index: ServedIndex) {
        self.indexes.retain(|i| i.name() != index.name());
        self.indexes.push(Arc::new(index));
    }

    /// Looks up an index by name.
    pub fn get(&self, name: &str) -> Option<Arc<ServedIndex>> {
        self.indexes.iter().find(|i| i.name() == name).cloned()
    }

    /// Names of all served indexes, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.indexes.iter().map(|i| i.name().to_string()).collect()
    }

    /// All served indexes.
    pub fn all(&self) -> &[Arc<ServedIndex>] {
        &self.indexes
    }
}
