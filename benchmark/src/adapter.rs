//! The only file that names a `bindex` or `bindex_server` symbol.
//!
//! Everything else in the benchmark speaks the types defined here and in
//! `query.rs`, so a PR that renames, merges or deletes library API edits
//! this file and nothing else. The first part is what the end-to-end
//! workloads use and is always compiled; each `*_probe` module below is
//! behind its own Cargo feature and compiled only into that layer's probe
//! binary, so library code a collapse removes can break one probe (whose
//! metrics then read `null`) but never an end-to-end workload.
//! `benchmark/README.md` lists every symbol used, by section.

use std::io;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bindex::compress::CodecKind;
use bindex::core::eval::naive;
use bindex::engine::batch::{
    evaluate_selection_workload, evaluate_threshold_workload, BatchOptions, WorkloadReport,
};
use bindex::relation::gen;
use bindex::relation::query::{Op as LibOp, SelectionQuery, ThresholdQuery};
use bindex::storage::{ByteStore, DiskStore};
use bindex::{
    persist_index_v4, Algorithm, Base, BitVec, BitmapIndex, Column, Encoding, EvalStats, IndexSpec,
};
use bindex_server::{Client, IndexTuning, Registry, Response, ServedIndex, Server, ServerConfig};

use crate::costmodel;
use crate::query::{Op, Query, Threshold};
#[cfg(feature = "probe-bindex")]
use crate::trace::{Recorder, INGEST_SPANS};

/// Name the benchmark's one index is served under.
pub const INDEX_NAME: &str = "bench";

/// Deadline given to the server in place of its 250 ms default: an ingest
/// compacts under the index's write lock, and a read that waits behind it
/// must be answered late, not shed — the workloads are chosen so that no
/// operation fails.
const SERVER_DEADLINE: Duration = Duration::from_secs(20);

fn lib_query(q: Query) -> SelectionQuery {
    let op = match q.op {
        Op::Lt => LibOp::Lt,
        Op::Le => LibOp::Le,
        Op::Gt => LibOp::Gt,
        Op::Ge => LibOp::Ge,
        Op::Eq => LibOp::Eq,
        Op::Ne => LibOp::Ne,
    };
    SelectionQuery::new(op, q.v)
}

fn lib_threshold(t: &Threshold) -> ThresholdQuery {
    ThresholdQuery::new(t.k, t.preds.iter().copied().map(lib_query).collect())
}

/// The benchmark's one index design: C = 1000, base `<10,10,10>`,
/// range-encoded — the knee of the paper's space-time curve, 27 bitmaps.
fn spec() -> IndexSpec {
    let base = Base::new(costmodel::BASE.to_vec()).expect("<10,10,10> is a valid base");
    IndexSpec::new(base, Encoding::Range)
}

/// A generated column.
pub struct Dataset(Column);

/// `n` values uniform over `0..cardinality`.
pub fn gen_uniform(n: usize, cardinality: u32, seed: u64) -> Dataset {
    Dataset(gen::uniform(n, cardinality, seed))
}

/// `n` uniform values in runs of `cluster_len` equal values.
pub fn gen_clustered(n: usize, cardinality: u32, cluster_len: usize, seed: u64) -> Dataset {
    Dataset(gen::clustered(n, cardinality, cluster_len, seed))
}

impl Dataset {
    /// The column's values, row by row.
    pub fn values(&self) -> &[u32] {
        self.0.values()
    }

    /// This column followed by `more`.
    pub fn extended(&self, more: &[u32]) -> Dataset {
        let mut values = self.0.values().to_vec();
        values.extend_from_slice(more);
        Dataset(Column::new(values, self.0.cardinality()))
    }

    /// The foundset of `q` by a per-row scan (`core::eval::naive`), as
    /// bitmap words — the bit-for-bit reference.
    pub fn naive_words(&self, q: Query) -> Vec<u64> {
        naive::evaluate(&self.0, lib_query(q)).words().to_vec()
    }
}

/// A foundset returned by the batch engine.
pub struct Foundset(BitVec);

impl Foundset {
    /// Qualifying rows.
    pub fn count(&self) -> u64 {
        self.0.count_ones() as u64
    }

    /// The bitmap words.
    pub fn words(&self) -> &[u64] {
        self.0.words()
    }
}

/// What one batch through the engine produced.
pub struct BatchRun {
    /// Wall time of the engine call alone.
    pub elapsed: Duration,
    /// One foundset per query, in batch order; `None` where the engine
    /// did not answer.
    pub answers: Vec<Option<Foundset>>,
    /// Work-steal operations the engine reported.
    pub steals: usize,
}

fn batch_run(elapsed: Duration, report: WorkloadReport<(BitVec, EvalStats)>) -> BatchRun {
    BatchRun {
        elapsed,
        steals: report.steals,
        answers: report
            .outcomes
            .into_iter()
            .map(|o| o.into_result().map(|(bits, _)| Foundset(bits)))
            .collect(),
    }
}

/// An index built in memory.
pub struct MemIndex(BitmapIndex);

impl MemIndex {
    /// Builds the benchmark's index over `data`.
    pub fn build(data: &Dataset) -> Result<Self, String> {
        BitmapIndex::build(&data.0, spec())
            .map(MemIndex)
            .map_err(|e| e.to_string())
    }

    /// Heap bytes of the bitmaps.
    pub fn size_bytes(&self) -> usize {
        self.0.size_bytes()
    }

    /// Persists as on-disk format v4 into `dir` (a `DiskStore`); dense
    /// slots are stored verbatim, sparse ones as WAH.
    pub fn persist(&self, dir: &Path) -> Result<(), String> {
        let store = DiskStore::open(dir).map_err(|e| e.to_string())?;
        persist_index_v4(&self.0, store, CodecKind::None)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }

    /// Runs `queries` as one batch through `evaluate_selection_workload`
    /// at `threads` workers.
    pub fn selection_batch(&self, queries: &[Query], threads: usize) -> BatchRun {
        let queries: Vec<SelectionQuery> = queries.iter().copied().map(lib_query).collect();
        let options = BatchOptions::with_threads(threads);
        let start = Instant::now();
        let report =
            evaluate_selection_workload(|| self.0.source(), &queries, Algorithm::Auto, &options);
        batch_run(start.elapsed(), report)
    }

    /// Runs `queries` as one batch through `evaluate_threshold_workload`
    /// at `threads` workers.
    pub fn threshold_batch(&self, queries: &[Threshold], threads: usize) -> BatchRun {
        let queries: Vec<ThresholdQuery> = queries.iter().map(lib_threshold).collect();
        let options = BatchOptions::with_threads(threads);
        let start = Instant::now();
        let report =
            evaluate_threshold_workload(|| self.0.source(), &queries, Algorithm::Auto, &options);
        batch_run(start.elapsed(), report)
    }
}

/// Pool and result-cache capacities of a served index; `None` keeps the
/// library's default (`IndexTuning::default()`: pool 512, cache 256).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tuning {
    /// Bitmap buffer-pool capacity in bitmaps.
    pub pool_capacity: Option<usize>,
    /// Result-cache capacity in foundsets.
    pub cache_capacity: Option<usize>,
}

impl Tuning {
    fn index_tuning(self) -> IndexTuning {
        let mut t = IndexTuning::default();
        if let Some(pool) = self.pool_capacity {
            t.pool_capacity = pool;
        }
        if let Some(cache) = self.cache_capacity {
            t.cache_capacity = cache;
        }
        t
    }

    /// The pool capacity in effect.
    pub fn effective_pool(self) -> usize {
        self.index_tuning().pool_capacity
    }
}

fn open_served(
    store: Box<dyn ByteStore + Send + Sync>,
    tuning: Tuning,
) -> Result<ServedIndex, String> {
    ServedIndex::new(INDEX_NAME, spec(), store, None, None, tuning.index_tuning())
        .map_err(|e| e.to_string())
}

fn start_server(served: ServedIndex, workers: usize) -> Result<Server, String> {
    let mut registry = Registry::new();
    registry.insert(served);
    let config = ServerConfig {
        workers,
        default_deadline: SERVER_DEADLINE,
        ..ServerConfig::default()
    };
    Server::start(registry, config, "127.0.0.1:0").map_err(|e| e.to_string())
}

/// The segment size the server evaluates with; the probes below the
/// server replay with the same one.
pub fn served_segment_bits() -> usize {
    IndexTuning::default().segment_bits
}

/// A running in-process server over one stored index.
pub struct Serving(Server);

impl Serving {
    /// Opens the index persisted in `dir` and serves it on an ephemeral
    /// loopback port with `workers` evaluation workers.
    pub fn start(dir: &Path, tuning: Tuning, workers: usize) -> Result<Self, String> {
        let store = DiskStore::open(dir).map_err(|e| e.to_string())?;
        start_server(open_served(Box::new(store), tuning)?, workers).map(Serving)
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.0.addr()
    }

    /// Drains and joins every server thread.
    pub fn shutdown(self) {
        self.0.shutdown();
    }
}

/// A served query's reply.
pub enum Reply {
    /// Cardinality of the foundset.
    Count(u64),
    /// The foundset itself.
    Bitmap {
        /// Cardinality the server reported.
        count: u64,
        /// Bits in the foundset.
        n_bits: u64,
        /// The foundset words.
        words: Vec<u64>,
    },
}

/// Server counters the benchmark reads.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerCounters {
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Requests shed by admission control or deadline.
    pub shed: u64,
    /// Queries that failed in evaluation.
    pub failed: u64,
}

/// One client connection (requests are serial, like the protocol).
pub struct Conn(Client);

impl Conn {
    /// Connects to a running server.
    pub fn connect(addr: SocketAddr) -> Result<Self, String> {
        let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
        client
            .set_timeout(Some(SERVER_DEADLINE + Duration::from_secs(5)))
            .map_err(|e| e.to_string())?;
        Ok(Conn(client))
    }

    /// Sends one query and waits for its reply. A transport error, a
    /// typed error and a shed request are all `Err`.
    pub fn query(&mut self, q: Query, want_bitmap: bool) -> Result<Reply, String> {
        match self.0.query(INDEX_NAME, lib_query(q), want_bitmap, 0) {
            Ok(Response::Count { cardinality, .. }) => Ok(Reply::Count(cardinality)),
            Ok(Response::Bitmap {
                cardinality,
                n_bits,
                words,
                ..
            }) => Ok(Reply::Bitmap {
                count: cardinality,
                n_bits,
                words,
            }),
            Ok(other) => Err(format!("unexpected reply: {other:?}")),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Appends `values` as one ingest batch; returns the logical row
    /// count the server acknowledged.
    pub fn ingest(&mut self, values: &[u32]) -> Result<u64, String> {
        let appends: Vec<Option<u32>> = values.iter().copied().map(Some).collect();
        self.0
            .ingest(INDEX_NAME, &appends, &[])
            .map(|(_seq, _generation, n_rows)| n_rows)
            .map_err(|e| e.to_string())
    }

    /// Reads the server counters.
    pub fn stats(&mut self) -> Result<ServerCounters, String> {
        let s = self.0.stats().map_err(|e| e.to_string())?;
        Ok(ServerCounters {
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            shed: s.shed_overload + s.shed_deadline,
            failed: s.failed,
        })
    }
}

/// Calls, bytes and busy time of one [`CountingStore`], per method.
#[derive(Debug, Default)]
pub struct StoreCounters {
    /// `read_file` calls.
    pub reads: AtomicU64,
    /// Bytes `read_file` returned.
    pub bytes_read: AtomicU64,
    /// Nanoseconds inside `read_file`.
    pub read_busy_ns: AtomicU64,
    /// `write_file` calls.
    pub writes: AtomicU64,
    /// `append_file` calls.
    pub appends: AtomicU64,
    /// Bytes handed to `write_file` and `append_file`.
    pub bytes_written: AtomicU64,
    /// `sync_file` calls.
    pub syncs: AtomicU64,
    /// Nanoseconds inside `write_file`, `append_file` and `sync_file`.
    pub write_busy_ns: AtomicU64,
}

/// The device-level view of a run: a `ByteStore` that forwards to a
/// `DiskStore` and counts what passed through. Used only in the traced
/// pass, so the timed runs pay nothing for it. Counts are exact with one
/// client; busy time is wall time inside the call.
pub struct CountingStore {
    inner: DiskStore,
    counters: Arc<StoreCounters>,
}

impl CountingStore {
    /// Wraps the `DiskStore` at `dir`.
    pub fn open(dir: &Path) -> io::Result<(Self, Arc<StoreCounters>)> {
        let counters = Arc::new(StoreCounters::default());
        let store = Self {
            inner: DiskStore::open(dir)?,
            counters: Arc::clone(&counters),
        };
        Ok((store, counters))
    }

    fn timed<R>(busy: &AtomicU64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        busy.fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

impl ByteStore for CountingStore {
    fn write_file(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        let c = &self.counters;
        c.writes.fetch_add(1, Ordering::Relaxed);
        c.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Self::timed(&c.write_busy_ns, || self.inner.write_file(name, data))
    }

    fn read_file(&self, name: &str) -> io::Result<Vec<u8>> {
        let c = &self.counters;
        let data = Self::timed(&c.read_busy_ns, || self.inner.read_file(name))?;
        c.reads.fetch_add(1, Ordering::Relaxed);
        c.bytes_read.fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(data)
    }

    fn file_size(&self, name: &str) -> io::Result<u64> {
        self.inner.file_size(name)
    }

    fn file_names(&self) -> io::Result<Vec<String>> {
        self.inner.file_names()
    }

    fn append_file(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        let c = &self.counters;
        c.appends.fetch_add(1, Ordering::Relaxed);
        c.bytes_written
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Self::timed(&c.write_busy_ns, || self.inner.append_file(name, data))
    }

    fn sync_file(&mut self, name: &str) -> io::Result<()> {
        let c = &self.counters;
        c.syncs.fetch_add(1, Ordering::Relaxed);
        Self::timed(&c.write_busy_ns, || self.inner.sync_file(name))
    }

    fn remove_file(&mut self, name: &str) -> io::Result<()> {
        self.inner.remove_file(name)
    }
}

/// A shared reader over the run's directory as `ServedIndex` builds it:
/// pooled with `pool_capacity` bitmaps, unpooled at 0.
#[cfg(any(
    feature = "probe-engine",
    feature = "probe-bindex",
    feature = "probe-storage",
    feature = "probe-compress"
))]
fn open_reader(
    dir: &Path,
    pool_capacity: usize,
) -> Result<bindex::storage::SharedIndexReader<DiskStore>, String> {
    use bindex::storage::{ShardedPool, SharedIndexReader, StoredIndex};
    let store = DiskStore::open(dir).map_err(|e| e.to_string())?;
    let stored = StoredIndex::open(store).map_err(|e| e.to_string())?;
    Ok(if pool_capacity > 0 {
        SharedIndexReader::with_pool(stored, ShardedPool::new(pool_capacity, 8))
    } else {
        SharedIndexReader::new(stored)
    })
}

/// L1 and the wire: `probe_server`.
#[cfg(feature = "probe-server")]
pub mod server_probe {
    use super::*;
    use bindex_server::{BoundedQueue, Request, ServedQuery};

    /// A second served instance over the run's directory, same tuning,
    /// reading through a [`CountingStore`]; plus its own server and client
    /// so the probe can time the wire without the driver's process.
    pub struct Instance {
        served: Arc<ServedIndex>,
        server: Server,
        /// What the instance read from the device.
        pub counters: Arc<StoreCounters>,
    }

    impl Instance {
        /// Opens `dir` and serves it with one worker.
        pub fn open(dir: &Path, tuning: Tuning) -> Result<Self, String> {
            let (store, counters) = CountingStore::open(dir).map_err(|e| e.to_string())?;
            let mut registry = Registry::new();
            registry.insert(open_served(Box::new(store), tuning)?);
            let served = registry.get(INDEX_NAME).expect("just inserted");
            let config = ServerConfig {
                workers: 1,
                default_deadline: SERVER_DEADLINE,
                ..ServerConfig::default()
            };
            let server =
                Server::start(registry, config, "127.0.0.1:0").map_err(|e| e.to_string())?;
            Ok(Self {
                served,
                server,
                counters,
            })
        }

        /// A connection to the instance's own server.
        pub fn connect(&self) -> Result<Conn, String> {
            Conn::connect(self.server.addr())
        }

        /// L1: `ServedIndex::execute_any`, in process; returns the count.
        pub fn execute(&self, q: Query) -> Result<u64, String> {
            self.served
                .execute_any(ServedQuery::Selection(lib_query(q)), None)
                .map(|a| a.cardinality)
                .map_err(|e| e.to_string())
        }

        /// Stops the instance's server.
        pub fn shutdown(self) {
            self.server.shutdown();
        }
    }

    /// One `Client::ping` round trip.
    pub fn ping(conn: &mut Conn) -> Result<(), String> {
        conn.0.ping().map_err(|e| e.to_string())
    }

    /// Encodes and decodes one query request frame payload.
    pub fn codec_request(q: Query) -> usize {
        let req = Request::Query {
            index: INDEX_NAME.to_string(),
            query: lib_query(q),
            want_bitmap: false,
            deadline_ms: 0,
        };
        let bytes = req.encode().expect("query requests encode");
        let back = Request::decode(&bytes).expect("own encoding decodes");
        assert_eq!(back, req);
        bytes.len()
    }

    /// Encodes and decodes one count response payload.
    pub fn codec_count_response(count: u64) -> usize {
        let bytes = Response::Count {
            cardinality: count,
            degraded: false,
            cached: false,
        }
        .encode()
        .expect("count responses encode");
        Response::decode(&bytes).expect("own encoding decodes");
        bytes.len()
    }

    /// A bitmap response of `n_bits` bits, ready to encode repeatedly.
    pub struct BitmapResponse(Response);

    impl BitmapResponse {
        /// Builds the response from foundset words.
        pub fn new(n_bits: u64, words: Vec<u64>) -> Self {
            BitmapResponse(Response::Bitmap {
                cardinality: 0,
                degraded: false,
                cached: false,
                n_bits,
                words,
            })
        }

        /// Encodes and decodes the payload (including the server's
        /// `words().to_vec()` copy into the response).
        pub fn round_trip(&self) -> usize {
            let bytes = self.0.clone().encode().expect("bitmap responses encode");
            Response::decode(&bytes).expect("own encoding decodes");
            bytes.len()
        }
    }

    /// Median push-to-pop latency of the admission `BoundedQueue` across
    /// two threads, over `rounds` hand-offs, in nanoseconds each.
    pub fn queue_handoffs(rounds: usize) -> Vec<u64> {
        let queue: BoundedQueue<Instant> = BoundedQueue::new(64);
        let (ack_tx, ack_rx) = std::sync::mpsc::channel::<u64>();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                while let Some(pushed) = queue.pop() {
                    let _ = ack_tx.send(pushed.elapsed().as_nanos() as u64);
                }
            });
            let mut out = Vec::with_capacity(rounds);
            for _ in 0..rounds {
                queue
                    .try_push(Instant::now())
                    .unwrap_or_else(|_| panic!("queue of 64 cannot be full at depth 1"));
                out.push(ack_rx.recv().expect("consumer alive"));
            }
            queue.close();
            out
        })
    }
}

/// L2: `probe_engine`.
#[cfg(feature = "probe-engine")]
pub mod engine_probe {
    use super::*;
    use bindex::storage::SharedIndexReader;
    use bindex::SharedSource;

    /// A pooled shared reader over the run's directory, as `ServedIndex`
    /// builds it.
    pub struct Stored(SharedIndexReader<DiskStore>);

    impl Stored {
        /// Opens `dir` with a pool of `pool_capacity` bitmaps (0 = none).
        pub fn open(dir: &Path, pool_capacity: usize) -> Result<Self, String> {
            open_reader(dir, pool_capacity).map(Stored)
        }

        /// L2 on a served workload: one query through
        /// `evaluate_selection_workload`, single-threaded and segmented,
        /// its source a fresh `SharedSource` — the call `ServedIndex`
        /// makes per request.
        pub fn single_query(&self, q: Query) -> Result<u64, String> {
            let options = BatchOptions::single_threaded().with_segment_bits(served_segment_bits());
            let report = evaluate_selection_workload(
                || SharedSource::try_new(&self.0, spec()).expect("layout matches the spec"),
                std::slice::from_ref(&lib_query(q)),
                Algorithm::Auto,
                &options,
            );
            first_count(report)
        }
    }

    /// L2 on `batch_scan`: one query through
    /// `evaluate_selection_workload` over the in-memory source, as the
    /// 1-thread batch phase runs each of its queries.
    pub fn single_query_mem(index: &MemIndex, q: Query) -> Result<u64, String> {
        let report = evaluate_selection_workload(
            || index.0.source(),
            std::slice::from_ref(&lib_query(q)),
            Algorithm::Auto,
            &BatchOptions::with_threads(1),
        );
        first_count(report)
    }

    fn first_count(report: WorkloadReport<(BitVec, EvalStats)>) -> Result<u64, String> {
        match report.outcomes.into_iter().next() {
            Some(outcome) => match outcome.error() {
                Some(e) => Err(e.to_string()),
                None => outcome
                    .into_result()
                    .map(|(bits, _)| bits.count_ones() as u64)
                    .ok_or_else(|| "query was not answered".to_string()),
            },
            None => Err("no outcome for a one-query workload".into()),
        }
    }
}

/// Counters of one evaluation, as the core reports them.
#[cfg(any(feature = "probe-core", feature = "probe-bindex"))]
#[derive(Debug, Clone, Copy, Default)]
pub struct PlanStats {
    /// Distinct stored bitmaps read.
    pub scans: u64,
    /// AND + OR + XOR + NOT operations charged.
    pub ops: u64,
    /// WAH bitmaps decompressed.
    pub materializations: u64,
    /// Operations run in the compressed domain.
    pub compressed_ops: u64,
    /// Segments whose AND chain short-circuited.
    pub segments_skipped: u64,
    /// Segments answered from the summary block.
    pub segments_pruned: u64,
}

#[cfg(any(feature = "probe-core", feature = "probe-bindex"))]
impl PlanStats {
    fn from_eval(s: &EvalStats) -> Self {
        Self {
            scans: s.scans as u64,
            ops: s.total_ops() as u64,
            materializations: s.materializations as u64,
            compressed_ops: s.compressed_ops as u64,
            segments_skipped: s.segments_skipped as u64,
            segments_pruned: s.segments_pruned as u64,
        }
    }

    /// Adds another evaluation's counters.
    pub fn add(&mut self, o: &PlanStats) {
        self.scans += o.scans;
        self.ops += o.ops;
        self.materializations += o.materializations;
        self.compressed_ops += o.compressed_ops;
        self.segments_skipped += o.segments_skipped;
        self.segments_pruned += o.segments_pruned;
    }
}

/// L4: `probe_core`.
#[cfg(feature = "probe-core")]
pub mod core_probe {
    use super::*;
    use bindex::compress::Repr;
    use bindex::core::eval::{evaluate_in, evaluate_segmented_in};
    use bindex::core::exec::ExecContext;
    use bindex::{BitmapSource, Error};

    /// Which in-memory source an evaluation reads its bitmaps from.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Source {
        /// `BitmapIndex::source()` (`MemorySource`): every fetch clones
        /// the bitmap. This is what the batch engine is given.
        Copying,
        /// The same bitmaps behind `Arc`s, handed out by reference count
        /// like a warm pool does: evaluation with the fetch cost taken
        /// out, which is what nests inside the storage-backed level.
        Shared,
    }

    /// The index's bitmaps behind `Arc`s.
    pub struct Bitmaps {
        index: MemIndex,
        shared: Vec<Vec<Arc<BitVec>>>,
    }

    struct SharedSource<'a>(&'a Bitmaps);

    impl BitmapSource for SharedSource<'_> {
        fn spec(&self) -> &IndexSpec {
            self.0.index.0.spec()
        }

        fn n_rows(&self) -> usize {
            self.0.index.0.n_rows()
        }

        fn try_fetch(&mut self, comp: usize, slot: usize) -> Result<BitVec, Error> {
            Ok((*self.0.shared[comp - 1][slot]).clone())
        }

        fn try_fetch_nn(&mut self) -> Result<Option<BitVec>, Error> {
            Ok(None)
        }

        fn try_fetch_repr(&mut self, comp: usize, slot: usize) -> Result<Repr, Error> {
            Ok(Repr::Literal(Arc::clone(&self.0.shared[comp - 1][slot])))
        }
    }

    impl Bitmaps {
        /// Wraps every stored bitmap of `index` in an `Arc`.
        pub fn new(index: MemIndex) -> Self {
            let shared = index
                .0
                .components()
                .iter()
                .map(|slots| slots.iter().cloned().map(Arc::new).collect())
                .collect();
            Self { index, shared }
        }

        /// Evaluates `q` over `ExecContext<source>`, one context per query
        /// as the engine builds them: `evaluate_segmented_in` with
        /// `segment_bits`, or whole-bitmap `evaluate_in` without.
        pub fn eval(
            &self,
            q: Query,
            source: Source,
            segment_bits: Option<usize>,
        ) -> Result<(u64, PlanStats), String> {
            match source {
                Source::Copying => run(&mut self.index.0.source(), q, segment_bits),
                Source::Shared => run(&mut SharedSource(self), q, segment_bits),
            }
        }
    }

    fn run<S: BitmapSource>(
        source: &mut S,
        q: Query,
        segment_bits: Option<usize>,
    ) -> Result<(u64, PlanStats), String> {
        let mut ctx = ExecContext::new(source);
        let bits = match segment_bits {
            Some(bits) => evaluate_segmented_in(&mut ctx, lib_query(q), Algorithm::Auto, bits),
            None => evaluate_in(&mut ctx, lib_query(q), Algorithm::Auto),
        }
        .map_err(|e| e.to_string())?;
        Ok((
            bits.count_ones() as u64,
            PlanStats::from_eval(&ctx.take_stats()),
        ))
    }
}

/// L5 and kernel bandwidth: `probe_bitvec`.
#[cfg(feature = "probe-bitvec")]
pub mod bitvec_probe {
    use super::*;
    use bindex::bitvec::kernels;

    /// A dense bitmap for kernel timing.
    pub struct Bits(BitVec);

    impl Bits {
        /// A bitmap of `len` bits from `words`.
        pub fn from_words(words: Vec<u64>, len: usize) -> Self {
            Bits(BitVec::from_words(words, len))
        }

        /// Set bits (keeps results observable).
        pub fn count(&self) -> u64 {
            self.0.count_ones() as u64
        }
    }

    /// The kernel calls RangeEval-Opt makes for a `<=` chain with `ands`
    /// ANDs and `ors` ORs and an optional complement, window by window:
    /// copy the first operand's window, fold the rest in place.
    pub fn le_chain(
        operands: &[Bits],
        ands: usize,
        ors: usize,
        not: bool,
        window_bits: usize,
    ) -> u64 {
        let len = operands[0].0.len();
        let mut total = 0u64;
        let mut lo = 0;
        while lo < len {
            let hi = (lo + window_bits).min(len);
            let mut acc = operands[0].0.view_range(lo, hi).to_bitvec();
            let mut next = 1;
            for _ in 0..ands {
                acc.and_assign_view(operands[next % operands.len()].0.view_range(lo, hi));
                next += 1;
            }
            for _ in 0..ors {
                acc.or_assign_view(operands[next % operands.len()].0.view_range(lo, hi));
                next += 1;
            }
            if not {
                acc.not_assign();
            }
            total += acc.words().first().copied().unwrap_or(0) & 1;
            lo = hi;
        }
        total
    }

    /// The kernel calls RangeEval-Opt makes for an `=` chain: `xors`
    /// pairwise XORs and `nots` complements derive the per-digit
    /// bitmaps, then one fused k-ary AND (seeded with all ones) over
    /// `fan_in` operands, plus the final complement for `!=`.
    pub fn eq_chain(
        operands: &[Bits],
        xors: usize,
        nots: usize,
        fan_in: usize,
        complement: bool,
        window_bits: usize,
    ) -> u64 {
        let len = operands[0].0.len();
        let mut total = 0u64;
        let mut lo = 0;
        while lo < len {
            let hi = (lo + window_bits).min(len);
            let view = |i: usize| operands[i % operands.len()].0.view_range(lo, hi);
            let mut derived = Vec::with_capacity(xors + nots);
            for i in 0..xors {
                derived.push(kernels::xor_all(&[view(2 * i), view(2 * i + 1)]));
            }
            for i in 0..nots {
                let mut b = view(2 * xors + i).to_bitvec();
                b.not_assign();
                derived.push(b);
            }
            let ones = BitVec::ones(hi - lo);
            let mut views = vec![ones.view()];
            views.extend(derived.iter().map(BitVec::view));
            let mut next = 2 * xors + nots;
            while views.len() < fan_in {
                views.push(view(next));
                next += 1;
            }
            let mut acc = kernels::and_all(&views);
            if complement {
                acc.not_assign();
            }
            total += acc.words().first().copied().unwrap_or(0) & 1;
            lo = hi;
        }
        total
    }

    /// Fused 4-ary AND producing a bitmap.
    pub fn and4(o: &[Bits]) -> u64 {
        kernels::and_all(&[&o[0].0, &o[1].0, &o[2].0, &o[3].0]).words()[0]
    }

    /// Fused 4-ary OR producing a bitmap.
    pub fn or4(o: &[Bits]) -> u64 {
        kernels::or_all(&[&o[0].0, &o[1].0, &o[2].0, &o[3].0]).words()[0]
    }

    /// Fused 4-ary AND producing only the count.
    pub fn count_and4(o: &[Bits]) -> u64 {
        kernels::count_and(&[&o[0].0, &o[1].0, &o[2].0, &o[3].0]) as u64
    }

    /// "At least 2 of 4" through the bit-sliced CSA kernel.
    pub fn threshold_2_of_4(o: &[Bits]) -> u64 {
        kernels::threshold_k(&[&o[0].0, &o[1].0, &o[2].0, &o[3].0], 2).words()[0]
    }
}

/// Raw slot reads and CRC: `probe_storage`.
#[cfg(feature = "probe-storage")]
pub mod storage_probe {
    use super::*;
    use bindex::storage::checksum::crc32;
    use bindex::storage::SharedIndexReader;

    /// An unpooled shared reader over the run's directory.
    pub struct Unpooled(SharedIndexReader<DiskStore>);

    impl Unpooled {
        /// Opens `dir` without any cache.
        pub fn open(dir: &Path) -> Result<Self, String> {
            open_reader(dir, 0).map(Unpooled)
        }

        /// `SharedIndexReader::read_repr` of one slot: file read, CRC,
        /// bytes to words. Returns the bitmap's heap bytes.
        pub fn read_repr(&self, comp: usize, slot: usize) -> Result<usize, String> {
            self.0
                .read_repr(comp, slot)
                .map(|r| r.heap_bytes())
                .map_err(|e| e.to_string())
        }

        /// Bytes the reader has pulled from the store so far.
        pub fn bytes_read(&self) -> u64 {
            self.0.stats().bytes_read
        }
    }

    /// `storage::checksum::crc32` over `data`.
    pub fn crc(data: &[u8]) -> u32 {
        crc32(data)
    }
}

/// WAH slots of the stored index: `probe_compress`.
#[cfg(feature = "probe-compress")]
pub mod compress_probe {
    use super::*;
    use bindex::compress::wah::WahBitmap;
    use bindex::compress::Repr;

    /// One stored slot that is WAH-coded.
    pub struct WahSlot(Arc<WahBitmap>);

    impl WahSlot {
        /// Compressed bytes.
        pub fn compressed_bytes(&self) -> usize {
            self.0.compressed_bytes()
        }

        /// Bytes of the dense form.
        pub fn literal_bytes(&self) -> usize {
            self.0.len().div_ceil(64) * 8
        }

        /// Decompresses to dense words; returns the set-bit count.
        pub fn decode(&self) -> u64 {
            self.0.to_bitvec().count_ones() as u64
        }

        /// Compressed-domain AND with `other`; returns compressed bytes
        /// of the result.
        pub fn and(&self, other: &WahSlot) -> usize {
            self.0.and(&other.0).compressed_bytes()
        }
    }

    /// Every WAH-coded slot of the index in `dir`, and the number of
    /// stored slots in all.
    pub fn wah_slots(dir: &Path) -> Result<(Vec<WahSlot>, usize), String> {
        let reader = open_reader(dir, 0)?;
        let mut wah = Vec::new();
        let mut total = 0;
        for (c, &b) in costmodel::BASE.iter().enumerate() {
            for slot in 0..(b as usize - 1) {
                total += 1;
                if let Repr::Wah(w) = reader.read_repr(c + 1, slot).map_err(|e| e.to_string())? {
                    wah.push(WahSlot(w));
                }
            }
        }
        Ok((wah, total))
    }
}

/// L3 and the ingest path: `probe_bindex`.
#[cfg(feature = "probe-bindex")]
pub mod bindex_probe {
    use super::*;
    use bindex::core::eval::evaluate_segmented_in;
    use bindex::core::exec::ExecContext;
    use bindex::storage::{SharedIndexReader, StoredIndex};
    use bindex::{IngestIndex, IngestOptions, SharedSource};

    /// A pooled shared reader over the run's directory, as `ServedIndex`
    /// builds it.
    pub struct Stored(SharedIndexReader<DiskStore>);

    impl Stored {
        /// Opens `dir` with a pool of `pool_capacity` bitmaps (0 = none).
        pub fn open(dir: &Path, pool_capacity: usize) -> Result<Self, String> {
            open_reader(dir, pool_capacity).map(Stored)
        }

        /// L3: `evaluate_segmented_in` over `ExecContext<SharedSource>`,
        /// one source and context per query.
        pub fn eval(&self, q: Query, segment_bits: usize) -> Result<(u64, PlanStats), String> {
            let mut source = SharedSource::try_new(&self.0, spec()).map_err(|e| e.to_string())?;
            let mut ctx = ExecContext::new(&mut source);
            let bits = evaluate_segmented_in(&mut ctx, lib_query(q), Algorithm::Auto, segment_bits)
                .map_err(|e| e.to_string())?;
            Ok((
                bits.count_ones() as u64,
                PlanStats::from_eval(&ctx.take_stats()),
            ))
        }

        /// `(hits, misses, evictions)` of the pool, zeros without one.
        pub fn pool_stats(&self) -> (u64, u64, u64) {
            self.0
                .pool_stats()
                .map_or((0, 0, 0), |p| (p.hits, p.misses, p.evictions))
        }
    }

    /// Replays ingest batches against the store in `dir` (a scratch copy)
    /// through a [`CountingStore`], the way `ServedIndex::ingest` does:
    /// open a session, `append`, `compact`, drop — each call one span
    /// under the `L0.client_ingest` span of the same batch. Returns the
    /// device counters.
    pub fn replay_ingest(
        dir: &Path,
        batches: &[Vec<u32>],
        rec: &mut Recorder,
    ) -> Result<Arc<StoreCounters>, String> {
        let (store, counters) = CountingStore::open(dir).map_err(|e| e.to_string())?;
        let mut stored = StoredIndex::open(store).map_err(|e| e.to_string())?;
        for (k, batch) in batches.iter().enumerate() {
            let values: Vec<Option<u32>> = batch.iter().copied().map(Some).collect();
            let mut session = IngestIndex::open(
                &mut stored,
                spec(),
                costmodel::CARDINALITY,
                IngestOptions::new(),
            )
            .map_err(|e| e.to_string())?;
            let parent = Some(INGEST_SPANS[0]);
            rec.time(INGEST_SPANS[1], k as u32, parent, || {
                session.append(&values)
            })
            .map_err(|e| e.to_string())?;
            rec.time(INGEST_SPANS[2], k as u32, parent, || session.compact())
                .map_err(|e| e.to_string())?;
        }
        Ok(counters)
    }
}
