//! Deadline expiry mid-query under segmented execution.
//!
//! The contract under test: a query whose [`Deadline`] expires while it
//! is running on the segment-at-a-time path stops at the next segment
//! boundary, surfaces as [`QueryOutcome::DeadlineExceeded`] (not
//! `Failed`, not a panic, not a full-duration stall) and does not poison
//! the rest of the workload — queries that completed before the deadline
//! stay bit-exact.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bindex::core::eval::{evaluate_segmented_in, Algorithm};
use bindex::core::{Deadline, ExecContext};
use bindex::engine::batch::{evaluate_selection_workload, BatchOptions, QueryOutcome};
use bindex::relation::gen;
use bindex::relation::query::{Op, SelectionQuery};
use bindex::{Base, BitVec, BitmapIndex, BitmapSource, Encoding, Error, IndexSpec};

const N_ROWS: usize = 8192;
const CARDINALITY: u32 = 64;
const SEGMENT_BITS: usize = 512;

fn index() -> BitmapIndex {
    let column = gen::uniform(N_ROWS, CARDINALITY, 7);
    let spec = IndexSpec::new(Base::from_msb(&[8, 8]).unwrap(), Encoding::Range);
    BitmapIndex::build(&column, spec).unwrap()
}

/// A source that sleeps on every fetch — a stand-in for a saturated or
/// misbehaving store. `fetches` counts how often it was hit.
struct SlowSource<S> {
    inner: S,
    delay: Duration,
    fetches: Arc<AtomicUsize>,
}

impl<S: BitmapSource> BitmapSource for SlowSource<S> {
    fn spec(&self) -> &IndexSpec {
        self.inner.spec()
    }

    fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }

    fn try_fetch(&mut self, comp: usize, slot: usize) -> Result<BitVec, Error> {
        self.fetches.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(self.delay);
        self.inner.try_fetch(comp, slot)
    }

    fn try_fetch_nn(&mut self) -> Result<Option<BitVec>, Error> {
        self.inner.try_fetch_nn()
    }
}

#[test]
fn core_segmented_eval_cancels_between_segments() {
    let index = index();
    let fetches = Arc::new(AtomicUsize::new(0));
    let mut slow = SlowSource {
        inner: index.source(),
        delay: Duration::from_millis(30),
        fetches: Arc::clone(&fetches),
    };
    // Expired before the second segment: the first segment is always
    // allowed through (guaranteed progress), everything after is not.
    let mut ctx =
        ExecContext::new(&mut slow).with_deadline(Some(Deadline::after(Duration::from_millis(1))));
    let query = SelectionQuery::new(Op::Le, 40);
    let started = Instant::now();
    let err = evaluate_segmented_in(&mut ctx, query, Algorithm::Auto, SEGMENT_BITS).unwrap_err();
    assert_eq!(err, Error::DeadlineExceeded);
    let stats = ctx.take_stats();
    assert!(
        stats.segments_evaluated >= 1 && stats.segments_evaluated < N_ROWS / SEGMENT_BITS,
        "expected an early stop, got {} of {} segments",
        stats.segments_evaluated,
        N_ROWS / SEGMENT_BITS
    );
    assert!(
        started.elapsed() < Duration::from_millis(500),
        "cancellation took {:?}",
        started.elapsed()
    );
}

#[test]
fn core_segmented_eval_without_deadline_is_unaffected() {
    let index = index();
    let query = SelectionQuery::new(Op::Le, 40);
    let (want, _) =
        bindex::core::eval::evaluate(&mut index.source(), query, Algorithm::Auto).unwrap();
    let mut source = index.source();
    let mut ctx = ExecContext::new(&mut source);
    let got = evaluate_segmented_in(&mut ctx, query, Algorithm::Auto, SEGMENT_BITS).unwrap();
    assert_eq!(got, want);
}

/// A query that cannot finish its first segment before the deadline is
/// cancelled at the next segment boundary and reported as
/// `DeadlineExceeded`, not as a failure.
#[test]
fn deadline_mid_query_is_cancelled_and_uncharged() {
    let index = index();
    let queries = vec![
        SelectionQuery::new(Op::Le, 40),
        SelectionQuery::new(Op::Gt, 50),
        SelectionQuery::new(Op::Eq, 3),
    ];
    // A single fetch (150ms) outlasts the deadline (100ms), so the first
    // query is guaranteed to be cancelled *mid-run*, not shed pre-start.
    let make = || SlowSource {
        inner: index.source(),
        delay: Duration::from_millis(150),
        fetches: Arc::new(AtomicUsize::new(0)),
    };
    let options = BatchOptions::with_threads(2)
        .with_segment_bits(SEGMENT_BITS)
        .with_deadline(Deadline::after(Duration::from_millis(100)));
    let started = Instant::now();
    let report = evaluate_selection_workload(make, &queries, Algorithm::Auto, &options);
    assert!(
        matches!(report.outcomes[0], QueryOutcome::DeadlineExceeded),
        "outcome 0: {:?}, health {:?}",
        report.outcomes[0],
        report.health
    );
    assert_eq!(report.health.failed, 0, "health: {:?}", report.health);
    assert_eq!(report.health.ok, 0, "health: {:?}", report.health);
    assert_eq!(
        report.health.deadline_exceeded + report.health.timed_out,
        queries.len(),
        "health: {:?}",
        report.health
    );
    // Shed work stopped consuming cores: a full evaluation at 150ms per
    // fetch across 16 segments would run for seconds.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "workload took {:?}",
        started.elapsed()
    );
}

/// The workload-level contract: when the deadline lands partway through
/// a workload on a slow store, early queries complete exactly, late ones
/// are shed with a typed outcome, and nothing fails or stalls.
#[test]
fn deadline_sheds_the_tail_without_poisoning_the_workload() {
    let index = index();
    let queries: Vec<SelectionQuery> = vec![
        SelectionQuery::new(Op::Le, 10),
        SelectionQuery::new(Op::Gt, 50),
        SelectionQuery::new(Op::Eq, 3),
        SelectionQuery::new(Op::Ne, 3),
        SelectionQuery::new(Op::Le, 40),
        SelectionQuery::new(Op::Ge, 20),
        SelectionQuery::new(Op::Lt, 30),
        SelectionQuery::new(Op::Gt, 5),
    ];
    // 30ms per fetch against a 150ms budget: the first query (a handful
    // of fetches) finishes comfortably; with at most two queries in
    // flight, the eighth query cannot start before 150ms and is shed.
    let options = BatchOptions::with_threads(2)
        .with_segment_bits(SEGMENT_BITS)
        .with_deadline(Deadline::after(Duration::from_millis(150)));
    let started = Instant::now();
    let report = evaluate_selection_workload(
        || SlowSource {
            inner: index.source(),
            delay: Duration::from_millis(30),
            fetches: Arc::new(AtomicUsize::new(0)),
        },
        &queries,
        Algorithm::Auto,
        &options,
    );
    let h = &report.health;
    assert_eq!(h.failed, 0, "health: {h:?}");
    assert!(h.ok >= 1, "expected early queries to finish: {h:?}");
    assert!(
        h.deadline_exceeded + h.timed_out >= 1,
        "expected the tail to be shed: {h:?}"
    );
    assert_eq!(h.ok + h.deadline_exceeded + h.timed_out, queries.len());
    // Whatever completed must be bit-exact despite cancelled neighbours
    // in the same workload.
    for (i, query) in queries.iter().enumerate() {
        if let Some((bits, _)) = report.outcomes[i].result() {
            let (want, _) =
                bindex::core::eval::evaluate(&mut index.source(), *query, Algorithm::Auto).unwrap();
            assert_eq!(*bits, want, "query {i} must stay bit-exact");
        }
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "workload took {:?}",
        started.elapsed()
    );
}
