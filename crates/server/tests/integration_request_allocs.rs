//! A served request allocates a fixed number of times and copies its
//! answer once.
//!
//! One in-process `Server` and one `Client` talk over loopback; this
//! binary installs a process-wide counting global allocator (the product
//! crates forbid `unsafe`; a test binary may count), so the client, the
//! connection thread and the engine are all counted. The index is a
//! `<10,10,10>` range index over 2^18 uniform rows with C = 1000, stored
//! as v4 in memory and served with the bitmap pool on, once with the
//! result cache off and once with it on. After a warm-up, each request
//! kind's mean allocations (and, for a bitmap, bytes) per request must
//! stay under an upper bound. The only other thread is the acceptor,
//! blocked in `accept`; no wall clock is involved.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

use bindex::compress::CodecKind;
use bindex::relation::gen;
use bindex::relation::query::{Op, SelectionQuery};
use bindex::storage::MemStore;
use bindex::stored::persist_index_v4;
use bindex::{Base, BitmapIndex, Encoding, IndexSpec};
use bindex_server::{Client, IndexTuning, Registry, Response, ServedIndex, Server, ServerConfig};

/// [`System`], counting every allocation in the process and its bytes.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// atomics, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const ROWS: usize = 1 << 18;
const WARM_UP: usize = 200;
const MEASURED: usize = 600;

/// Mean allocations and bytes per call of `request`, called with
/// `0..MEASURED` after `WARM_UP` unmeasured calls.
fn per_request(mut request: impl FnMut(usize)) -> (f64, f64) {
    for i in 0..WARM_UP {
        request(i);
    }
    let (n0, b0) = (
        ALLOCATIONS.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
    );
    for i in 0..MEASURED {
        request(i);
    }
    let (n1, b1) = (
        ALLOCATIONS.load(Ordering::SeqCst),
        BYTES.load(Ordering::SeqCst),
    );
    (
        (n1 - n0) as f64 / MEASURED as f64,
        (b1 - b0) as f64 / MEASURED as f64,
    )
}

/// The `i`-th selection of a fixed cycle of 42 over every operator and a
/// spread of constants.
fn selection(i: usize) -> SelectionQuery {
    const CONSTANTS: [u32; 7] = [1, 9, 99, 100, 457, 500, 998];
    SelectionQuery::new(Op::ALL[i % 6], CONSTANTS[i / 6 % CONSTANTS.len()])
}

fn served(name: &str, index: &BitmapIndex, cache_capacity: usize) -> ServedIndex {
    let store = persist_index_v4(index, MemStore::new(), CodecKind::None)
        .unwrap()
        .into_store();
    let tuning = IndexTuning {
        cache_capacity,
        ..IndexTuning::default()
    };
    ServedIndex::new(
        name,
        index.spec().clone(),
        Box::new(store),
        None,
        None,
        tuning,
    )
    .unwrap()
}

#[test]
fn a_served_request_allocates_a_fixed_number_of_times() {
    let spec = IndexSpec::new(Base::from_msb(&[10, 10, 10]).unwrap(), Encoding::Range);
    let index = BitmapIndex::build(&gen::uniform(ROWS, 1000, 47), spec).unwrap();
    let mut registry = Registry::new();
    registry.insert(served("uncached", &index, 0));
    registry.insert(served("cached", &index, 256));
    drop(index);
    let server = Server::start(registry, ServerConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    client.set_timeout(Some(Duration::from_secs(60))).unwrap();

    let ping = per_request(|_| client.ping().unwrap());
    let count = per_request(|i| {
        let reply = client.query("uncached", selection(i), false, 0).unwrap();
        assert!(
            matches!(reply, Response::Count { cached: false, .. }),
            "{reply:?}"
        );
    });
    let bitmap = per_request(|i| {
        let reply = client.query("uncached", selection(i), true, 0).unwrap();
        assert!(
            matches!(&reply, Response::Bitmap { words, .. } if words.len() == ROWS / 64),
            "{reply:?}"
        );
    });
    for i in 0..42 {
        client.query("cached", selection(i), false, 0).unwrap();
    }
    let cache_hit = per_request(|i| {
        let reply = client.query("cached", selection(i), false, 0).unwrap();
        assert!(
            matches!(reply, Response::Count { cached: true, .. }),
            "{reply:?}"
        );
    });
    let predicates = [
        SelectionQuery::new(Op::Le, 457),
        SelectionQuery::new(Op::Ge, 120),
        SelectionQuery::new(Op::Ne, 500),
        SelectionQuery::new(Op::Gt, 990),
    ];
    let threshold = per_request(|_| {
        let reply = client
            .threshold("uncached", 2, &predicates, false, 0)
            .unwrap();
        assert!(
            matches!(reply, Response::Count { cached: false, .. }),
            "{reply:?}"
        );
    });
    drop(client);
    server.shutdown();

    let answer_bytes = (ROWS / 8) as f64;
    eprintln!(
        "allocations per request: ping {:.1}, count {:.1} ({:.0} B), bitmap {:.1} \
         ({:.0} B, {:.2}x the answer), cache hit {:.1}, threshold {:.1}",
        ping.0,
        count.0,
        count.1,
        bitmap.0,
        bitmap.1,
        bitmap.1 / answer_bytes,
        cache_hit.0,
        threshold.0,
    );
    assert!(ping.0 <= 2.0, "a ping allocates {:.1} times", ping.0);
    // 8.0: the source borrows the served spec, and the kernels' block
    // buffers are the connection thread's, not the query's.
    assert!(count.0 <= 8.5, "a count allocates {:.1} times", count.0);
    assert!(
        bitmap.1 <= 2.2 * answer_bytes,
        "a bitmap request allocates {:.0} bytes for a {answer_bytes} byte answer",
        bitmap.1
    );
    assert!(
        cache_hit.0 <= 1.0,
        "a cache hit allocates {:.1} times",
        cache_hit.0
    );
    assert!(
        threshold.0 <= 37.0,
        "a threshold allocates {:.1} times",
        threshold.0
    );
}
