//! End-to-end service tests: a real `Server` on an ephemeral port, real
//! TCP clients, and the full robustness surface — exactness over the
//! wire, overload shedding, per-request deadlines, chaos under load with
//! online repair, result-cache semantics, and graceful drain.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use bindex::compress::CodecKind;
use bindex::core::eval::Algorithm;
use bindex::relation::gen;
use bindex::relation::query::{Op, SelectionQuery, ThresholdQuery};
use bindex::storage::{ByteStore, DiskStore, MemStore, StorageScheme, TempDir};
use bindex::stored::{persist_index, persist_index_v4, SharedSource};
use bindex::{Base, BitVec, BitmapIndex, Column, Encoding, Error, IndexSpec};
use bindex_server::{
    BreakerState, Client, ErrorCode, IndexTuning, Registry, Response, ServedIndex, ServedQuery,
    Server, ServerConfig,
};

const N_ROWS: usize = 8192;
const CARDINALITY: u32 = 64;

fn spec() -> IndexSpec {
    IndexSpec::new(Base::from_msb(&[8, 8]).unwrap(), Encoding::Range)
}

fn build() -> (Column, BitmapIndex, MemStore) {
    let column = gen::uniform(N_ROWS, CARDINALITY, 11);
    let index = BitmapIndex::build(&column, spec()).unwrap();
    let store = persist_index(
        &index,
        MemStore::new(),
        StorageScheme::BitmapLevel,
        CodecKind::None,
    )
    .unwrap()
    .into_store();
    (column, index, store)
}

fn direct_count(index: &BitmapIndex, query: SelectionQuery) -> u64 {
    let (bits, _) =
        bindex::core::eval::evaluate(&mut index.source(), query, Algorithm::Auto).unwrap();
    bits.count_ones() as u64
}

/// A `ByteStore` whose reads sleep — a saturated disk for overload,
/// deadline, and drain tests.
struct SlowStore {
    inner: MemStore,
    delay: Duration,
}

impl ByteStore for SlowStore {
    fn write_file(&mut self, name: &str, data: &[u8]) -> std::io::Result<()> {
        self.inner.write_file(name, data)
    }

    fn read_file(&self, name: &str) -> std::io::Result<Vec<u8>> {
        std::thread::sleep(self.delay);
        self.inner.read_file(name)
    }

    fn file_size(&self, name: &str) -> std::io::Result<u64> {
        self.inner.file_size(name)
    }

    fn file_names(&self) -> std::io::Result<Vec<String>> {
        self.inner.file_names()
    }

    fn append_file(&mut self, name: &str, data: &[u8]) -> std::io::Result<()> {
        self.inner.append_file(name, data)
    }

    fn remove_file(&mut self, name: &str) -> std::io::Result<()> {
        self.inner.remove_file(name)
    }
}

/// Tuning shared by the tests that must observe every store access:
/// result cache and buffer pool off, segments small enough that the
/// deadline has boundaries to check.
fn uncached_tuning() -> IndexTuning {
    IndexTuning {
        segment_bits: 512,
        cache_capacity: 0,
        pool_capacity: 0,
        ..IndexTuning::default()
    }
}

fn start_server(registry: Registry, config: ServerConfig) -> Server {
    Server::start(registry, config, "127.0.0.1:0").expect("bind ephemeral port")
}

fn connect(server: &Server) -> Client {
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(60)))
        .expect("set timeout");
    client
}

#[test]
fn end_to_end_answers_are_exact_over_the_wire() {
    let (_column, index, store) = build();
    let mut registry = Registry::new();
    registry.insert(
        ServedIndex::new(
            "t",
            spec(),
            Box::new(store),
            None,
            None,
            IndexTuning::default(),
        )
        .unwrap(),
    );
    let config = ServerConfig {
        workers: 2,
        queue_depth: 16,
        default_deadline: Duration::from_secs(10),
    };
    let server = start_server(registry, config);
    let mut client = connect(&server);

    client.ping().expect("ping");
    let queries = [
        SelectionQuery::new(Op::Le, 40),
        SelectionQuery::new(Op::Gt, 50),
        SelectionQuery::new(Op::Eq, 3),
        SelectionQuery::new(Op::Ne, 3),
        SelectionQuery::new(Op::Ge, 0),
        SelectionQuery::new(Op::Lt, 64),
    ];
    for query in queries {
        match client.query("t", query, false, 0).expect("query") {
            Response::Count {
                cardinality,
                degraded,
                ..
            } => {
                assert_eq!(cardinality, direct_count(&index, query), "{query:?}");
                assert!(!degraded);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    // Bitmap round trip: the foundset words survive the wire intact.
    let query = SelectionQuery::new(Op::Le, 17);
    match client.query("t", query, true, 0).expect("bitmap query") {
        Response::Bitmap {
            cardinality,
            n_bits,
            words,
            ..
        } => {
            let (want, _) =
                bindex::core::eval::evaluate(&mut index.source(), query, Algorithm::Auto).unwrap();
            assert_eq!(n_bits as usize, want.len());
            assert_eq!(cardinality, want.count_ones() as u64);
            assert_eq!(words, want.words().to_vec());
        }
        other => panic!("unexpected response {other:?}"),
    }
    // Unknown index: a typed error, not a dropped connection.
    match client
        .query("nope", SelectionQuery::new(Op::Le, 1), false, 0)
        .expect("unknown-index query")
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::UnknownIndex),
        other => panic!("unexpected response {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert!(stats.admitted >= 7, "stats: {stats:?}");
    assert_eq!(stats.failed, 0, "stats: {stats:?}");

    client.shutdown().expect("shutdown request");
    assert!(server.shutdown_requested());
    let report = server.shutdown();
    assert_eq!(report.shed_overload, 0);
}

/// A recovery column or null mask one row short would rebuild a damaged
/// slot one bit short, which the kernels' length assert turns into a
/// worker panic: it is refused when the index is registered. With the
/// right column, the same damaged slot is rebuilt by the relation scan.
#[test]
fn recovery_inputs_of_another_length_are_refused_at_registration() {
    let (column, _index, mut store) = build();
    let short = Column::new(column.values()[..N_ROWS - 1].to_vec(), CARDINALITY);
    let refused = ServedIndex::new(
        "t",
        spec(),
        Box::new(store.clone()),
        Some(Arc::new(short)),
        None,
        uncached_tuning(),
    );
    assert!(matches!(refused, Err(Error::Infeasible(_))), "short column");
    let refused = ServedIndex::new(
        "t",
        spec(),
        Box::new(store.clone()),
        Some(Arc::new(column.clone())),
        Some(BitVec::zeros(N_ROWS - 1)),
        uncached_tuning(),
    );
    assert!(
        matches!(refused, Err(Error::Infeasible(_))),
        "short null mask"
    );

    // Corrupt every slot file, so any query needs a rebuilt slot.
    for name in store.file_names().unwrap() {
        if name.ends_with(".bmp") {
            let mut bytes = store.read_file(&name).unwrap();
            *bytes.last_mut().unwrap() ^= 0x01;
            store.write_file(&name, &bytes).unwrap();
        }
    }
    let served = ServedIndex::new(
        "t",
        spec(),
        Box::new(store),
        Some(Arc::new(column.clone())),
        None,
        IndexTuning {
            breaker_trip: 1,
            ..uncached_tuning()
        },
    )
    .unwrap();
    let q = SelectionQuery::new(Op::Le, 40);
    assert!(served.execute(q, None).is_err(), "strict serving fails");
    let answer = served.execute(q, None).unwrap();
    assert!(answer.degraded);
    assert_eq!(
        *answer.bits.to_bitvec(),
        bindex::core::eval::naive::evaluate(&column, q)
    );
}

/// A segment size the engine asserts on at query time — on a pool worker,
/// which the panic kills, one per request — is refused when the index is
/// registered; a server over a valid index answers more requests than it
/// has workers.
#[test]
fn invalid_segment_bits_is_refused_at_registration() {
    let (_column, index, store) = build();
    for segment_bits in [0, 100, 513] {
        let tuning = IndexTuning {
            segment_bits,
            ..IndexTuning::default()
        };
        let refused = ServedIndex::new("t", spec(), Box::new(store.clone()), None, None, tuning);
        assert!(
            matches!(refused, Err(bindex::Error::Infeasible(_))),
            "segment_bits {segment_bits} must be refused"
        );
    }
    let mut registry = Registry::new();
    registry.insert(
        ServedIndex::new("t", spec(), Box::new(store), None, None, uncached_tuning()).unwrap(),
    );
    let config = ServerConfig {
        workers: 1,
        queue_depth: 4,
        default_deadline: Duration::from_secs(10),
    };
    let server = start_server(registry, config);
    let mut client = connect(&server);
    let query = SelectionQuery::new(Op::Le, 40);
    for _ in 0..3 {
        match client.query("t", query, false, 0).expect("query") {
            Response::Count { cardinality, .. } => {
                assert_eq!(cardinality, direct_count(&index, query));
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    server.shutdown();
}

fn direct_threshold(index: &BitmapIndex, k: u32, predicates: &[SelectionQuery]) -> bindex::BitVec {
    let query = ThresholdQuery::new(k, predicates.to_vec());
    let (bits, _) =
        bindex::core::eval::evaluate(&mut index.source(), query, Algorithm::Auto).unwrap();
    bits
}

/// The threshold acceptance scenario over the wire: exact "≥ k of N"
/// counts and bitmaps, result-cache hits across predicate permutations,
/// cache invalidation on the repair epoch bump, and typed rejection of
/// structurally invalid k — all through real TCP frames.
#[test]
fn threshold_queries_over_the_wire() {
    let (_column, index, store) = build();
    let mut registry = Registry::new();
    registry.insert(
        ServedIndex::new(
            "t",
            spec(),
            Box::new(store),
            None,
            None,
            IndexTuning::default(),
        )
        .unwrap(),
    );
    let served = registry.get("t").unwrap();
    let config = ServerConfig {
        workers: 2,
        queue_depth: 16,
        default_deadline: Duration::from_secs(10),
    };
    let server = start_server(registry, config);
    let mut client = connect(&server);

    let predicates = [
        SelectionQuery::new(Op::Le, 40),
        SelectionQuery::new(Op::Gt, 7),
        SelectionQuery::new(Op::Ne, 13),
        SelectionQuery::new(Op::Eq, 22),
    ];
    // Exact counts for every k, including the AND (k = N) and OR (k = 1)
    // degenerations.
    for k in 1..=4u32 {
        let want = direct_threshold(&index, k, &predicates).count_ones() as u64;
        match client
            .threshold("t", k, &predicates, false, 0)
            .expect("threshold query")
        {
            Response::Count {
                cardinality,
                degraded,
                ..
            } => {
                assert_eq!(cardinality, want, "k = {k}");
                assert!(!degraded);
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    // Bitmap round trip: the threshold foundset survives the wire intact.
    let want = direct_threshold(&index, 2, &predicates);
    match client
        .threshold("t", 2, &predicates, true, 0)
        .expect("threshold bitmap")
    {
        Response::Bitmap {
            cardinality,
            n_bits,
            words,
            ..
        } => {
            assert_eq!(n_bits as usize, want.len());
            assert_eq!(cardinality, want.count_ones() as u64);
            assert_eq!(words, want.words().to_vec());
        }
        other => panic!("unexpected response {other:?}"),
    }

    // The result cache is permutation-blind: the same predicate set in a
    // different order (and an aliased spelling) hits the cached entry.
    let permuted = [
        SelectionQuery::new(Op::Eq, 22),
        SelectionQuery::new(Op::Ne, 13),
        SelectionQuery::new(Op::Gt, 7),
        SelectionQuery::new(Op::Lt, 41), // alias of Le 40
    ];
    match client
        .threshold("t", 2, &permuted, false, 0)
        .expect("permuted threshold")
    {
        Response::Count {
            cardinality,
            cached,
            ..
        } => {
            assert_eq!(cardinality, want.count_ones() as u64);
            assert!(cached, "permuted predicate set must hit the cache");
        }
        other => panic!("unexpected response {other:?}"),
    }

    // Repair bumps the epoch; pre-repair threshold answers must not be
    // served from cache afterwards.
    let epoch_before = served.repair_epoch();
    client.repair("t").expect("repair");
    assert_eq!(served.repair_epoch(), epoch_before + 1);
    match client
        .threshold("t", 2, &predicates, false, 0)
        .expect("post-repair threshold")
    {
        Response::Count {
            cardinality,
            cached,
            ..
        } => {
            assert_eq!(cardinality, want.count_ones() as u64);
            assert!(!cached, "repair must invalidate threshold cache entries");
        }
        other => panic!("unexpected response {other:?}"),
    }

    // Structurally invalid thresholds are typed BadRequests, answered
    // without consuming a queue slot or counting as a server failure.
    for (k, preds) in [
        (0u32, &predicates[..]), // k = 0 matches every row; rejected
        (5, &predicates[..]),    // k above the predicate count
        (1, &predicates[..0]),   // no predicates at all
    ] {
        match client
            .threshold("t", k, preds, false, 0)
            .expect("invalid threshold transport")
        {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::BadRequest, "k = {k}: {message}");
                assert!(message.contains("invalid query"), "{message}");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    let stats = client.stats().expect("stats");
    assert_eq!(stats.failed, 0, "stats: {stats:?}");
    assert!(stats.cache_hits >= 1, "stats: {stats:?}");
    server.shutdown();
}

/// A threshold over more predicates than the counter network carries
/// (255) is a typed BadRequest over the wire — at 256 and at the wire
/// format's 65,535 — and the server keeps serving: one at 255 is answered
/// exactly, before and after, and nothing counts as a failure.
#[test]
fn a_threshold_past_the_fan_in_is_a_bad_request_and_serving_goes_on() {
    let (_column, index, store) = build();
    let mut registry = Registry::new();
    registry.insert(
        ServedIndex::new(
            "t",
            spec(),
            Box::new(store),
            None,
            None,
            IndexTuning::default(),
        )
        .unwrap(),
    );
    let server = start_server(registry, ServerConfig::default());
    let mut client = connect(&server);
    let predicates = |n: usize| -> Vec<SelectionQuery> {
        (0..n)
            .map(|i| SelectionQuery::new(Op::Le, (i * 7) as u32 % CARDINALITY))
            .collect()
    };
    let at_max = predicates(255);
    let want = direct_threshold(&index, 2, &at_max).count_ones() as u64;
    let answered = |client: &mut Client| match client
        .threshold("t", 2, &at_max, false, 0)
        .expect("transport")
    {
        Response::Count { cardinality, .. } => assert_eq!(cardinality, want),
        other => panic!("unexpected response {other:?}"),
    };
    answered(&mut client);
    for n in [256, usize::from(u16::MAX)] {
        match client
            .threshold("t", 2, &predicates(n), false, 0)
            .expect("transport")
        {
            Response::Error { code, message } => {
                assert_eq!(code, ErrorCode::BadRequest, "N = {n}: {message}");
                assert!(message.contains("fan-in"), "{message}");
            }
            other => panic!("N = {n}: unexpected response {other:?}"),
        }
    }
    answered(&mut client);
    let stats = client.stats().expect("stats");
    assert_eq!(stats.failed, 0, "stats: {stats:?}");
    server.shutdown();
}

#[test]
fn overload_is_shed_with_typed_responses() {
    let (_column, index, store) = build();
    let slow = SlowStore {
        inner: store,
        delay: Duration::from_millis(100),
    };
    let mut registry = Registry::new();
    registry.insert(
        ServedIndex::new("t", spec(), Box::new(slow), None, None, uncached_tuning()).unwrap(),
    );
    let config = ServerConfig {
        workers: 1,
        queue_depth: 1,
        default_deadline: Duration::from_secs(10),
    };
    let server = start_server(registry, config);

    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for i in 0..8u32 {
            let tx = tx.clone();
            let addr = server.addr();
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.set_timeout(Some(Duration::from_secs(60))).unwrap();
                let query = SelectionQuery::new(Op::Le, 8 * i % CARDINALITY);
                let resp = client.query("t", query, false, 0).expect("transport");
                tx.send((query, resp)).unwrap();
            });
        }
    });
    drop(tx);

    let (mut ok, mut overloaded) = (0, 0);
    for (query, resp) in rx {
        match resp {
            Response::Count { cardinality, .. } => {
                assert_eq!(cardinality, direct_count(&index, query));
                ok += 1;
            }
            Response::Error {
                code: ErrorCode::Overloaded,
                ..
            } => overloaded += 1,
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(ok >= 1, "ok {ok}, overloaded {overloaded}");
    assert!(overloaded >= 1, "ok {ok}, overloaded {overloaded}");
    assert_eq!(ok + overloaded, 8);
    let stats = server.stats();
    assert!(stats.shed_overload >= 1, "stats: {stats:?}");
    server.shutdown();
}

#[test]
fn per_request_deadline_sheds_mid_query() {
    let (_column, _index, store) = build();
    let slow = SlowStore {
        inner: store,
        delay: Duration::from_millis(150),
    };
    let mut registry = Registry::new();
    registry.insert(
        ServedIndex::new("t", spec(), Box::new(slow), None, None, uncached_tuning()).unwrap(),
    );
    let config = ServerConfig {
        workers: 1,
        queue_depth: 4,
        default_deadline: Duration::from_secs(10),
    };
    let server = start_server(registry, config);
    let mut client = connect(&server);

    // One 150ms fetch outlasts the 50ms budget: the engine cancels at
    // the first segment boundary and the client gets a typed error.
    match client
        .query("t", SelectionQuery::new(Op::Le, 40), false, 50)
        .expect("transport")
    {
        Response::Error { code, .. } => assert_eq!(code, ErrorCode::DeadlineExceeded),
        other => panic!("unexpected response {other:?}"),
    }
    // The service is still healthy: control traffic and a patient query
    // both succeed afterwards.
    client.ping().expect("ping after shed");
    match client
        .query("t", SelectionQuery::new(Op::Le, 40), false, 30_000)
        .expect("transport")
    {
        Response::Count { .. } => {}
        other => panic!("unexpected response {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert!(stats.shed_deadline >= 1, "stats: {stats:?}");
    server.shutdown();
}

/// The acceptance scenario: storage corruption under concurrent load
/// yields typed failures, then the breaker flips to degraded serving
/// (exact answers via reconstruction), online repair heals the store,
/// and the index probes its way back to strict, healthy serving — zero
/// panics, zero dropped connections.
#[test]
fn chaos_under_load_degrades_then_repairs_to_healthy() {
    let (column, index, mut store) = build();
    // Durably corrupt every bitmap payload: every strict read fails its
    // checksum until repair rewrites the files.
    let mut corrupted = 0;
    for name in store.file_names().unwrap() {
        if !name.ends_with(".bmp") {
            continue;
        }
        let mut data = store.read_file(&name).unwrap();
        if let Some(byte) = data.last_mut() {
            *byte ^= 0x40;
            store.write_file(&name, &data).unwrap();
            corrupted += 1;
        }
    }
    assert!(corrupted > 0, "expected bitmap files to corrupt");

    let tuning = IndexTuning {
        breaker_trip: 2,
        breaker_close: 2,
        breaker_cooldown: Duration::from_secs(600),
        ..uncached_tuning()
    };
    let mut registry = Registry::new();
    registry.insert(
        ServedIndex::new(
            "chaos",
            spec(),
            Box::new(store),
            Some(Arc::new(column)),
            None,
            tuning,
        )
        .unwrap(),
    );
    let served = registry.get("chaos").unwrap();
    let config = ServerConfig {
        workers: 2,
        queue_depth: 32,
        default_deadline: Duration::from_secs(30),
    };
    let server = start_server(registry, config);

    // Phase 1: concurrent load against the corrupted store. Early
    // queries fail strictly; once the breaker trips, answers keep
    // flowing through scan-based reconstruction — degraded but exact.
    let (tx, rx) = mpsc::channel();
    std::thread::scope(|scope| {
        for t in 0..3u32 {
            let tx = tx.clone();
            let addr = server.addr();
            scope.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.set_timeout(Some(Duration::from_secs(60))).unwrap();
                for q in 0..8u32 {
                    let query = SelectionQuery::new(Op::Le, (t * 19 + q * 7) % CARDINALITY);
                    let resp = client.query("chaos", query, false, 0).expect("transport");
                    tx.send((query, resp)).unwrap();
                }
            });
        }
    });
    drop(tx);

    let (mut failed, mut degraded, mut strict_ok) = (0, 0, 0);
    for (query, resp) in rx {
        match resp {
            Response::Error {
                code: ErrorCode::QueryFailed,
                ..
            } => failed += 1,
            Response::Count {
                cardinality,
                degraded: true,
                ..
            } => {
                assert_eq!(cardinality, direct_count(&index, query), "{query:?}");
                degraded += 1;
            }
            Response::Count {
                cardinality,
                degraded: false,
                ..
            } => {
                assert_eq!(cardinality, direct_count(&index, query), "{query:?}");
                strict_ok += 1;
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert_eq!(failed + degraded + strict_ok, 24);
    assert!(failed >= 1, "failed {failed}, degraded {degraded}");
    assert!(degraded >= 1, "failed {failed}, degraded {degraded}");
    assert!(
        !served.healthy(),
        "breaker should be open, state {:?}",
        served.breaker().state()
    );

    // Phase 2: online repair rewrites the damaged files and moves the
    // breaker to probing.
    let mut client = connect(&server);
    let epoch_before = served.repair_epoch();
    let (repaired, unrepaired) = client.repair("chaos").expect("repair");
    assert!(repaired >= 1, "repaired {repaired}");
    assert_eq!(unrepaired, 0);
    assert_eq!(served.repair_epoch(), epoch_before + 1);
    assert_eq!(served.breaker().state(), BreakerState::HalfOpen);

    // Phase 3: clean probes close the breaker; serving is strict again.
    for q in 0..4u32 {
        let query = SelectionQuery::new(Op::Gt, (q * 13) % CARDINALITY);
        match client.query("chaos", query, false, 0).expect("transport") {
            Response::Count {
                cardinality,
                degraded,
                ..
            } => {
                assert_eq!(cardinality, direct_count(&index, query), "{query:?}");
                assert!(!degraded, "post-repair answers must be strict");
            }
            other => panic!("unexpected response {other:?}"),
        }
    }
    assert!(served.healthy(), "state {:?}", served.breaker().state());
    let stats = client.stats().expect("stats");
    assert!(stats.failed >= 1, "stats: {stats:?}");
    assert!(stats.degraded >= 1, "stats: {stats:?}");
    assert!(stats.breaker_trips >= 1, "stats: {stats:?}");
    assert_eq!(stats.repairs, 1, "stats: {stats:?}");
    server.shutdown();
}

#[test]
fn result_cache_hits_normalized_predicates_and_repair_invalidates() {
    let (_column, index, store) = build();
    let mut registry = Registry::new();
    registry.insert(
        ServedIndex::new(
            "t",
            spec(),
            Box::new(store),
            None,
            None,
            IndexTuning::default(),
        )
        .unwrap(),
    );
    let config = ServerConfig {
        workers: 1,
        queue_depth: 8,
        default_deadline: Duration::from_secs(10),
    };
    let server = start_server(registry, config);
    let mut client = connect(&server);

    let cached_of = |resp: Response, index: &BitmapIndex, query: SelectionQuery| -> bool {
        match resp {
            Response::Count {
                cardinality,
                cached,
                ..
            } => {
                assert_eq!(cardinality, direct_count(index, query));
                cached
            }
            other => panic!("unexpected response {other:?}"),
        }
    };

    let le40 = SelectionQuery::new(Op::Le, 40);
    let lt41 = SelectionQuery::new(Op::Lt, 41);
    let first = client.query("t", le40, false, 0).expect("transport");
    assert!(!cached_of(first, &index, le40), "cold query must miss");
    let second = client.query("t", le40, false, 0).expect("transport");
    assert!(cached_of(second, &index, le40), "repeat query must hit");
    // `x < 41` normalizes to `x <= 40`: same cache entry.
    let normalized = client.query("t", lt41, false, 0).expect("transport");
    assert!(
        cached_of(normalized, &index, lt41),
        "normalized form must hit"
    );

    // Repair bumps the epoch; the cache may not serve pre-repair answers.
    client.repair("t").expect("repair");
    let after = client.query("t", le40, false, 0).expect("transport");
    assert!(!cached_of(after, &index, le40), "repair must invalidate");
    let stats = client.stats().expect("stats");
    assert!(stats.cache_hits >= 2, "stats: {stats:?}");
    server.shutdown();
}

/// The ingest ⊕ cache contract over the wire: an ingest batch compacts
/// into a fresh generation through the repair-epoch bump, so a count that
/// was cached before the batch is never served stale afterwards.
#[test]
fn ingest_batch_invalidates_cached_counts_over_the_wire() {
    let column = gen::uniform(N_ROWS, CARDINALITY, 23);
    let index = BitmapIndex::build(&column, spec()).unwrap();
    let store = persist_index_v4(&index, MemStore::new(), CodecKind::None)
        .unwrap()
        .into_store();
    let mut registry = Registry::new();
    registry.insert(
        ServedIndex::new(
            "t",
            spec(),
            Box::new(store),
            Some(Arc::new(column.clone())),
            None,
            IndexTuning::default(),
        )
        .unwrap(),
    );
    let served = registry.get("t").unwrap();
    let config = ServerConfig {
        workers: 1,
        queue_depth: 8,
        default_deadline: Duration::from_secs(10),
    };
    let server = start_server(registry, config);
    let mut client = connect(&server);

    let count_of = |resp: Response| -> (u64, bool) {
        match resp {
            Response::Count {
                cardinality,
                cached,
                degraded,
            } => {
                assert!(!degraded);
                (cardinality, cached)
            }
            other => panic!("unexpected response {other:?}"),
        }
    };

    // Warm the cache on `A = 7` and `A != 7`.
    let eq7 = SelectionQuery::new(Op::Eq, 7);
    let ne7 = SelectionQuery::new(Op::Ne, 7);
    let eq_before = direct_count(&index, eq7);
    let ne_before = direct_count(&index, ne7);
    let (got, cached) = count_of(client.query("t", eq7, false, 0).expect("transport"));
    assert_eq!((got, cached), (eq_before, false), "cold query must miss");
    let (_, cached) = count_of(client.query("t", eq7, false, 0).expect("transport"));
    assert!(cached, "repeat query must hit");
    count_of(client.query("t", ne7, false, 0).expect("transport"));

    // Ingest: three value-7 rows plus a null, delete one pre-existing
    // value-7 row — net `A = 7` count rises by two, `A != 7` is
    // untouched (the null and the deleted row both fall outside it).
    let victim = column.values().iter().position(|&v| v == 7).unwrap() as u64;
    let epoch_before = served.repair_epoch();
    let (seq, generation, n_rows) = client
        .ingest("t", &[Some(7), None, Some(7), Some(7)], &[victim])
        .expect("ingest");
    assert_eq!(seq, 2, "append batch + delete batch");
    assert_eq!(generation, 1, "first compaction after the seed");
    assert_eq!(n_rows, N_ROWS as u64 + 4);
    assert!(
        served.repair_epoch() > epoch_before,
        "ingest must bump the epoch"
    );
    assert_eq!(served.n_rows(), N_ROWS + 4);

    // The pre-ingest cached counts must not be served: fresh answers
    // over the rewritten generation.
    let (got, cached) = count_of(client.query("t", eq7, false, 0).expect("transport"));
    assert!(!cached, "stale cached count served after ingest");
    assert_eq!(got, eq_before + 2);
    let (got, cached) = count_of(client.query("t", ne7, false, 0).expect("transport"));
    assert!(!cached);
    assert_eq!(
        got, ne_before,
        "null append and masked delete stay outside A != 7"
    );

    // A deletes-only batch invalidates again; deleting an appended row
    // in the same generation works by absolute row id.
    let (seq, generation, _) = client
        .ingest("t", &[], &[N_ROWS as u64])
        .expect("deletes-only ingest");
    assert_eq!((seq, generation), (3, 2));
    let (got, cached) = count_of(client.query("t", eq7, false, 0).expect("transport"));
    assert!(!cached);
    assert_eq!(got, eq_before + 1, "appended value-7 row deleted again");

    // An out-of-range value is the client's mistake — typed BadRequest,
    // nothing applied.
    let err = client
        .ingest("t", &[Some(CARDINALITY)], &[])
        .expect_err("out-of-range append");
    assert!(err.to_string().contains("BadRequest"), "{err}");
    let (got, _) = count_of(client.query("t", eq7, false, 0).expect("transport"));
    assert_eq!(got, eq_before + 1, "failed ingest must not change answers");

    // So is a delete past the end of the batch: BadRequest, not Internal,
    // and the valid append beside it was not logged — the next batch
    // takes the next WAL sequence number.
    let past_end = served.n_rows() as u64 + 1;
    let err = client
        .ingest("t", &[Some(7)], &[past_end])
        .expect_err("out-of-range delete");
    assert!(err.to_string().contains("BadRequest"), "{err}");
    assert_eq!(served.n_rows(), N_ROWS + 4);
    let (seq, generation, n_rows) = client.ingest("t", &[Some(7)], &[]).expect("ingest");
    assert_eq!((seq, generation, n_rows), (4, 3, N_ROWS as u64 + 5));
    let (got, _) = count_of(client.query("t", eq7, false, 0).expect("transport"));
    assert_eq!(got, eq_before + 2);

    let stats = client.stats().expect("stats");
    assert_eq!(stats.ingests, 3, "stats: {stats:?}");
    assert!(stats.cache_hits >= 1, "stats: {stats:?}");
    server.shutdown();
}

/// A clustered column behind a v4 store is served from its compressed
/// slots: counts without a dense word anywhere, bitmaps decoded once for
/// the wire, repeats from a cache that holds compressed foundsets — and
/// all of it again after an ingest that adds a cluster, a null and a
/// delete (so `B_nn` joins the chain). Every answer is the per-row one.
#[test]
fn clustered_index_is_served_from_compressed_slots() {
    for encoding in [Encoding::Range, Encoding::Equality] {
        clustered_index_is_served_compressed(encoding);
    }
}

/// Range-encoded, every query is one RangeEval-Opt plan; equality-encoded,
/// `=` and `≠` are, and the range operators run window by window.
fn clustered_index_is_served_compressed(encoding: Encoding) {
    const ROWS: usize = 60_000;
    const CLUSTER: usize = 2048;
    let spec = || IndexSpec::new(spec().base, encoding);
    let mut values = gen::clustered(ROWS, CARDINALITY, CLUSTER, 31)
        .values()
        .to_vec();
    let mut nulls = BitVec::zeros(ROWS);
    let store = {
        let index = BitmapIndex::build(&Column::new(values.clone(), CARDINALITY), spec()).unwrap();
        persist_index_v4(&index, MemStore::new(), CodecKind::None)
            .unwrap()
            .into_store()
    };
    let mut registry = Registry::new();
    registry.insert(
        ServedIndex::new(
            "t",
            spec(),
            Box::new(store),
            None,
            None,
            IndexTuning::default(),
        )
        .unwrap(),
    );
    let served = registry.get("t").unwrap();
    let server = start_server(registry, ServerConfig::default());
    let mut client = connect(&server);

    let queries: Vec<SelectionQuery> = [Op::Lt, Op::Le, Op::Gt, Op::Ge, Op::Eq, Op::Ne]
        .into_iter()
        .flat_map(|op| [1, 7, 19, 30, 55, 63].map(|v| SelectionQuery::new(op, v)))
        .collect();
    for round in 0..2 {
        let column = Column::new(values.clone(), CARDINALITY);
        for &q in &queries {
            let want = bindex::core::eval::naive::evaluate_with_nulls(&column, &nulls, q);
            // In process: the foundset never left the compressed domain.
            let answer = served.execute_any(ServedQuery::Selection(q), None).unwrap();
            let folds = encoding == Encoding::Range || matches!(q.op, Op::Eq | Op::Ne);
            assert_eq!(answer.bits.is_compressed(), folds, "round {round} {q}");
            assert_eq!(answer.cardinality, want.count_ones() as u64, "{q}");
            assert!(!answer.cached && !answer.degraded, "{q}");
            if folds {
                assert!(answer.stats.compressed_ops > 0, "{q}");
                assert_eq!(answer.stats.materializations, 0, "{q}");
                assert_eq!(answer.stats.compressed_ops, answer.stats.total_ops(), "{q}");
                assert_eq!(answer.stats.segments_evaluated, 0, "{q}");
            }
            // Over the wire: the count, from the cache this time.
            match client.query("t", q, false, 0).expect("transport") {
                Response::Count {
                    cardinality,
                    cached,
                    degraded,
                } => {
                    assert_eq!(cardinality, want.count_ones() as u64, "round {round} {q}");
                    assert!(cached && !degraded, "{q}");
                }
                other => panic!("unexpected response {other:?}"),
            }
            // And the bitmap, decoded from the cached compressed foundset.
            match client.query("t", q, true, 0).expect("transport") {
                Response::Bitmap {
                    cardinality,
                    n_bits,
                    words,
                    cached,
                    ..
                } => {
                    assert!(cached, "{q}");
                    assert_eq!(cardinality, want.count_ones() as u64, "{q}");
                    assert_eq!(n_bits as usize, want.len(), "{q}");
                    assert_eq!(words, want.words(), "round {round} {q}");
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
        if round == 0 {
            // One more cluster, a null, and a delete inside the old rows.
            let mut appends: Vec<Option<u32>> = vec![Some(7); CLUSTER];
            appends.push(None);
            let (_, generation, n_rows) = client.ingest("t", &appends, &[12_345]).expect("ingest");
            assert_eq!(generation, 1);
            assert_eq!(n_rows as usize, ROWS + CLUSTER + 1);
            values.extend(appends.iter().map(|v| v.unwrap_or(0)));
            nulls = BitVec::from_fn(values.len(), |i| i == 12_345 || i == ROWS + CLUSTER);
        }
    }
    server.shutdown();
}

/// A constant the base cannot decompose is the client's mistake: typed
/// `BadRequest` for a selection and inside a threshold, no worker panic,
/// no failure counted, and the breaker — which three faults would open —
/// still closed after five, so the next valid query is answered exactly.
#[test]
fn undecomposable_constant_is_a_bad_request_and_leaves_the_breaker_closed() {
    let (_, index, store) = build();
    let mut registry = Registry::new();
    registry.insert(
        ServedIndex::new(
            "t",
            spec(),
            Box::new(store),
            None,
            None,
            IndexTuning::default(),
        )
        .unwrap(),
    );
    let served = registry.get("t").unwrap();
    let server = start_server(registry, ServerConfig::default());
    let mut client = connect(&server);
    let bad_request = |resp: Response| match resp {
        Response::Error { code, message } => {
            assert_eq!(code, ErrorCode::BadRequest, "{message}");
            assert!(message.contains("99"), "{message}");
        }
        other => panic!("unexpected response {other:?}"),
    };
    for op in [Op::Eq, Op::Le, Op::Ne, Op::Gt, Op::Lt] {
        let bad = SelectionQuery::new(op, 99);
        bad_request(client.query("t", bad, false, 0).expect("transport"));
        let preds = [SelectionQuery::new(Op::Le, 3), bad];
        bad_request(
            client
                .threshold("t", 1, &preds, true, 0)
                .expect("transport"),
        );
    }
    assert_eq!(served.breaker().state(), BreakerState::Closed);
    assert!(served.healthy());
    let q = SelectionQuery::new(Op::Le, 63);
    match client.query("t", q, false, 0).expect("transport") {
        Response::Count {
            cardinality,
            degraded,
            ..
        } => {
            assert_eq!(cardinality, direct_count(&index, q));
            assert!(!degraded);
        }
        other => panic!("unexpected response {other:?}"),
    }
    let stats = client.stats().expect("stats");
    assert_eq!((stats.failed, stats.breaker_trips), (0, 0), "{stats:?}");
    server.shutdown();
}

/// A `ByteStore` that counts `read_file` calls.
struct CountingStore {
    inner: MemStore,
    reads: Arc<AtomicU64>,
}

impl ByteStore for CountingStore {
    fn write_file(&mut self, name: &str, data: &[u8]) -> std::io::Result<()> {
        self.inner.write_file(name, data)
    }

    fn read_file(&self, name: &str) -> std::io::Result<Vec<u8>> {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.inner.read_file(name)
    }

    fn file_size(&self, name: &str) -> std::io::Result<u64> {
        self.inner.file_size(name)
    }

    fn file_names(&self) -> std::io::Result<Vec<String>> {
        self.inner.file_names()
    }

    fn append_file(&mut self, name: &str, data: &[u8]) -> std::io::Result<()> {
        self.inner.append_file(name, data)
    }

    fn remove_file(&mut self, name: &str) -> std::io::Result<()> {
        self.inner.remove_file(name)
    }
}

/// An index with nulls and deletes reads `B_nn` from the store once per
/// generation, not once per request: behind a pool that holds every slot,
/// warm requests cost no store read at all, and the next one after a
/// repair or an ingest does.
#[test]
fn null_mask_is_read_once_per_generation() {
    let (column, _index, store) = build();
    let reads = Arc::new(AtomicU64::new(0));
    let store = CountingStore {
        inner: store,
        reads: Arc::clone(&reads),
    };
    let served = ServedIndex::new(
        "t",
        spec(),
        Box::new(store),
        Some(Arc::new(column.clone())),
        None,
        IndexTuning {
            cache_capacity: 0,
            ..IndexTuning::default()
        },
    )
    .unwrap();
    served.ingest(&[None, Some(3)], &[17]).unwrap();
    let mut values = column.values().to_vec();
    values.extend([0, 3]);
    let column = Column::new(values, CARDINALITY);
    let nulls = BitVec::from_fn(column.len(), |i| i == 17 || i == N_ROWS);

    // `!=` needs the mask; between them the constants touch every slot.
    let sweep = |label: &str| {
        for v in 0..CARDINALITY {
            let q = SelectionQuery::new(Op::Ne, v);
            let want = bindex::core::eval::naive::evaluate_with_nulls(&column, &nulls, q);
            let answer = served.execute(q, None).unwrap();
            assert_eq!(answer.cardinality, want.count_ones() as u64, "{label} {q}");
            assert_eq!(*answer.bits.to_bitvec(), want, "{label} {q}");
        }
    };
    sweep("cold");
    let warm = reads.load(Ordering::Relaxed);
    for _ in 0..10 {
        served
            .execute(SelectionQuery::new(Op::Ne, 9), None)
            .unwrap();
    }
    sweep("warm");
    assert_eq!(
        reads.load(Ordering::Relaxed),
        warm,
        "warm requests must be served from the pool and the held mask"
    );
    // A repair may have rewritten any file: the mask is read again.
    served.repair().unwrap();
    let after_repair = reads.load(Ordering::Relaxed);
    served
        .execute(SelectionQuery::new(Op::Ne, 9), None)
        .unwrap();
    assert!(reads.load(Ordering::Relaxed) > after_repair);
    sweep("repaired");
    // So may an ingest — and this one changes the mask.
    served.ingest(&[], &[18]).unwrap();
    let after_ingest = reads.load(Ordering::Relaxed);
    let q = SelectionQuery::new(Op::Ne, 9);
    let nulls = BitVec::from_fn(column.len(), |i| i == 17 || i == 18 || i == N_ROWS);
    let want = bindex::core::eval::naive::evaluate_with_nulls(&column, &nulls, q);
    assert_eq!(*served.execute(q, None).unwrap().bits.to_bitvec(), want);
    assert!(reads.load(Ordering::Relaxed) > after_ingest);
}

/// A column with nulls keeps them through `persist_index*`: every
/// operator over the served current-format store, and over a paper-layout
/// store read directly, equals the per-row oracle. `≠`, `>` and `≥` are
/// the ones that count null rows in when `B_nn` is lost.
#[test]
fn nulls_survive_persistence() {
    let column = gen::uniform(4096, CARDINALITY, 29);
    let nulls = BitVec::from_fn(4096, |i| i % 7 == 0);
    let index = BitmapIndex::build_with_nulls(&column, &nulls, spec()).unwrap();
    let queries: Vec<SelectionQuery> = [Op::Lt, Op::Le, Op::Eq, Op::Ne, Op::Ge, Op::Gt]
        .into_iter()
        .flat_map(|op| [0, 3, 31, 63].map(|v| SelectionQuery::new(op, v)))
        .collect();
    let oracle = |q| bindex::core::eval::naive::evaluate_with_nulls(&column, &nulls, q);

    let store = persist_index_v4(&index, MemStore::new(), CodecKind::None)
        .unwrap()
        .into_store();
    let served = ServedIndex::new(
        "t",
        spec(),
        Box::new(store),
        Some(Arc::new(column.clone())),
        Some(nulls.clone()),
        uncached_tuning(),
    )
    .unwrap();
    for &q in &queries {
        let answer = served.execute(q, None).unwrap();
        assert_eq!(*answer.bits.to_bitvec(), oracle(q), "served {q}");
    }

    let scheme = StorageScheme::ComponentLevel;
    let stored = persist_index(&index, MemStore::new(), scheme, CodecKind::Deflate).unwrap();
    let nn = stored.read_nn_repr().unwrap().expect("B_nn is stored");
    let mut source = SharedSource::try_unpooled(&stored, spec())
        .unwrap()
        .with_nn(nn);
    for &q in &queries {
        let (found, _) = bindex::core::eval::evaluate(&mut source, q, Algorithm::Auto).unwrap();
        assert_eq!(found, oracle(q), "cCS {q}");
    }
}

/// One flipped bit in the stored `B_nn` is a fault like a damaged slot:
/// queries fail with the checksum error, three of them open the breaker,
/// and `repair()` rewrites the file from the null mask the server holds.
#[test]
fn damaged_non_null_bitmap_trips_the_breaker_and_is_repaired() {
    let tmp = TempDir::new("service-nn").unwrap();
    let column = gen::uniform(N_ROWS, CARDINALITY, 31);
    let index = BitmapIndex::build(&column, spec()).unwrap();
    let disk = || DiskStore::open(tmp.path()).unwrap();
    persist_index_v4(&index, disk(), CodecKind::None).unwrap();
    let served = ServedIndex::new(
        "t",
        spec(),
        Box::new(disk()),
        Some(Arc::new(column.clone())),
        None,
        uncached_tuning(),
    )
    .unwrap();
    // One delete: generation 1 stores the row as a null, in `g1_nn.bmp`.
    served.ingest(&[], &[17]).unwrap();
    let path = tmp.path().join("g1_nn.bmp");
    let mut bytes = std::fs::read(&path).unwrap();
    *bytes.last_mut().unwrap() ^= 0x04;
    std::fs::write(&path, bytes).unwrap();

    let q = SelectionQuery::new(Op::Ne, 9);
    for _ in 0..3 {
        let err = served.execute(q, None).unwrap_err();
        assert!(matches!(err, Error::ChecksumMismatch(_)), "{err}");
    }
    assert!(!served.healthy(), "three faulted queries open the breaker");
    let report = served.repair().unwrap();
    assert!(report.fully_repaired(), "{report:?}");
    assert!(report.repaired.contains(&"g1_nn.bmp".to_string()));

    let nulls = BitVec::from_fn(N_ROWS, |i| i == 17);
    let want = bindex::core::eval::naive::evaluate_with_nulls(&column, &nulls, q);
    for _ in 0..2 {
        assert_eq!(*served.execute(q, None).unwrap().bits.to_bitvec(), want);
    }
    assert!(served.healthy(), "clean probes close the breaker again");
    assert!(served.repair().unwrap().scrub.is_clean());
}

#[test]
fn graceful_drain_finishes_admitted_work() {
    let (_column, index, store) = build();
    let slow = SlowStore {
        inner: store,
        delay: Duration::from_millis(100),
    };
    let mut registry = Registry::new();
    registry.insert(
        ServedIndex::new("t", spec(), Box::new(slow), None, None, uncached_tuning()).unwrap(),
    );
    let config = ServerConfig {
        workers: 1,
        queue_depth: 8,
        default_deadline: Duration::from_secs(30),
    };
    let server = start_server(registry, config);

    // Four queries pile onto one slow worker; shutdown begins while most
    // are still queued. Every admitted query must still be answered.
    let (tx, rx) = mpsc::channel();
    let handles: Vec<_> = (0..4u32)
        .map(|i| {
            let tx = tx.clone();
            let addr = server.addr();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                client.set_timeout(Some(Duration::from_secs(60))).unwrap();
                let query = SelectionQuery::new(Op::Le, (i * 11) % CARDINALITY);
                let resp = client.query("t", query, false, 0).expect("transport");
                tx.send((query, resp)).unwrap();
            })
        })
        .collect();
    drop(tx);
    std::thread::sleep(Duration::from_millis(150));
    let report = server.shutdown();

    let mut answered = 0;
    for (query, resp) in rx {
        match resp {
            Response::Count { cardinality, .. } => {
                assert_eq!(cardinality, direct_count(&index, query));
                answered += 1;
            }
            other => panic!("drain dropped a query: {other:?}"),
        }
    }
    for handle in handles {
        handle.join().expect("client thread");
    }
    assert_eq!(answered, 4);
    assert_eq!(report.completed, 4, "report: {report:?}");
    assert_eq!(report.shed_overload, 0, "report: {report:?}");
}

/// A `ByteStore` whose reads, once the gate is shut, wait for the test to
/// open it again, counting the readers waiting: admission observed without
/// a clock.
struct GateStore {
    inner: MemStore,
    gate: Arc<Gate>,
}

#[derive(Default)]
struct Gate {
    /// `(shut, readers waiting at the gate)`.
    state: std::sync::Mutex<(bool, usize)>,
    changed: std::sync::Condvar,
}

impl Gate {
    fn shut(&self) {
        self.state.lock().unwrap().0 = true;
    }

    fn open(&self) {
        self.state.lock().unwrap().0 = false;
        self.changed.notify_all();
    }

    /// Blocks until `n` readers wait at the shut gate.
    fn await_waiting(&self, n: usize) {
        let state = self.state.lock().unwrap();
        drop(self.changed.wait_while(state, |s| s.1 < n).unwrap());
    }

    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        if state.0 {
            state.1 += 1;
            self.changed.notify_all();
            state = self.changed.wait_while(state, |s| s.0).unwrap();
            state.1 -= 1;
        }
    }
}

impl ByteStore for GateStore {
    fn write_file(&mut self, name: &str, data: &[u8]) -> std::io::Result<()> {
        self.inner.write_file(name, data)
    }

    fn read_file(&self, name: &str) -> std::io::Result<Vec<u8>> {
        self.gate.pass();
        self.inner.read_file(name)
    }

    fn file_size(&self, name: &str) -> std::io::Result<u64> {
        self.inner.file_size(name)
    }

    fn file_names(&self) -> std::io::Result<Vec<String>> {
        self.inner.file_names()
    }

    fn append_file(&mut self, name: &str, data: &[u8]) -> std::io::Result<()> {
        self.inner.append_file(name, data)
    }

    fn remove_file(&mut self, name: &str) -> std::io::Result<()> {
        self.inner.remove_file(name)
    }
}

/// Admission is `workers + queue_depth` permits: that many queries, each
/// blocked inside its first read, hold them all; the next arrival is shed
/// with `Overloaded` at once; opening the gate answers every held query
/// exactly.
#[test]
fn permits_admit_workers_plus_queue_depth_and_shed_the_next() {
    let (_column, index, store) = build();
    let gate = Arc::new(Gate::default());
    let gated = GateStore {
        inner: store,
        gate: Arc::clone(&gate),
    };
    let mut registry = Registry::new();
    registry.insert(
        ServedIndex::new("t", spec(), Box::new(gated), None, None, uncached_tuning()).unwrap(),
    );
    let config = ServerConfig {
        workers: 2,
        queue_depth: 3,
        default_deadline: Duration::from_secs(60),
    };
    let held = config.workers + config.queue_depth;
    let server = start_server(registry, config);
    gate.shut();

    std::thread::scope(|scope| {
        let answers: Vec<_> = (0..held as u32)
            .map(|i| {
                let mut client = connect(&server);
                let query = SelectionQuery::new(Op::Le, 9 * i % CARDINALITY);
                scope.spawn(move || (query, client.query("t", query, false, 0)))
            })
            .collect();
        gate.await_waiting(held);

        let mut late = connect(&server);
        match late.query("t", SelectionQuery::new(Op::Eq, 1), false, 0) {
            Ok(Response::Error {
                code: ErrorCode::Overloaded,
                ..
            }) => {}
            other => panic!("expected Overloaded, got {other:?}"),
        }
        gate.open();
        for answer in answers {
            let (query, resp) = answer.join().expect("client thread");
            match resp.expect("transport") {
                Response::Count { cardinality, .. } => {
                    assert_eq!(cardinality, direct_count(&index, query), "{query}");
                }
                other => panic!("unexpected response {other:?}"),
            }
        }
    });
    let stats = server.stats();
    assert_eq!(
        (stats.admitted, stats.completed, stats.shed_overload),
        (held as u64, held as u64, 1),
        "stats: {stats:?}"
    );
    server.shutdown();
}

/// A count caches its number alone; a bitmap request on an aliased
/// predicate then misses, is answered exactly and replaces the entry, and
/// from there on both kinds hit.
#[test]
fn a_count_entry_is_a_miss_for_a_bitmap_and_a_hit_for_a_count() {
    let (column, _index, store) = build();
    let mut registry = Registry::new();
    registry.insert(
        ServedIndex::new(
            "t",
            spec(),
            Box::new(store),
            None,
            None,
            IndexTuning::default(),
        )
        .unwrap(),
    );
    let server = start_server(registry, ServerConfig::default());
    let mut client = connect(&server);
    let (le, lt) = (
        SelectionQuery::new(Op::Le, 20),
        SelectionQuery::new(Op::Lt, 21),
    );
    let want = bindex::core::eval::naive::evaluate(&column, le);

    let count = |client: &mut Client, query| match client.query("t", query, false, 0) {
        Ok(Response::Count {
            cardinality,
            cached,
            ..
        }) => {
            assert_eq!(cardinality, want.count_ones() as u64, "{query}");
            cached
        }
        other => panic!("unexpected response {other:?}"),
    };
    let bitmap = |client: &mut Client, query| match client.query("t", query, true, 0) {
        Ok(Response::Bitmap {
            cardinality,
            cached,
            n_bits,
            words,
            ..
        }) => {
            assert_eq!(BitVec::from_words(words, n_bits as usize), want, "{query}");
            assert_eq!(cardinality, want.count_ones() as u64, "{query}");
            cached
        }
        other => panic!("unexpected response {other:?}"),
    };
    assert!(!count(&mut client, le), "a cold count misses");
    assert!(!bitmap(&mut client, lt), "a count entry holds no foundset");
    assert!(count(&mut client, lt), "the foundset entry serves a count");
    assert!(bitmap(&mut client, le), "and a bitmap");
    assert!(count(&mut client, le));
    let stats = client.stats().expect("stats");
    assert_eq!((stats.cache_hits, stats.cache_misses), (3, 2), "{stats:?}");
    server.shutdown();
}
