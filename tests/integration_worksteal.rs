//! Workload scheduling under skew: one pathologically long query among 63
//! cheap ones must not starve the rest of the workload. Workers take
//! queries off one shared cursor, so the worker that draws the slow query
//! holds nothing else back: the others claim the remaining 63, wall-clock
//! stays near the one long query, and the answers are bit-identical to the
//! sequential run.
//!
//! Runs with `BatchOptions::with_threads_unclamped`, so the multi-worker
//! machinery is exercised even on a single-core CI box (where
//! `with_threads` would clamp everything to one worker and the test would
//! be vacuous).

use std::time::{Duration, Instant};

use bindex::core::error::Result;
use bindex::core::eval::Algorithm;
use bindex::engine::batch::{evaluate_selection_workload, BatchOptions};
use bindex::relation::gen;
use bindex::relation::query::{Op, SelectionQuery};
use bindex::{Base, BitVec, BitmapIndex, BitmapSource, Encoding, IndexSpec};

/// Wraps a real source, sleeping on every fetch of one designated slot —
/// the "pathologically long query" is the one whose predicate needs that
/// slot. Everything else passes straight through, so answers stay exact.
struct SlowSource<S: BitmapSource> {
    inner: S,
    slow_slot: (usize, usize),
    delay: Duration,
}

impl<S: BitmapSource> BitmapSource for SlowSource<S> {
    fn spec(&self) -> &IndexSpec {
        self.inner.spec()
    }
    fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }
    fn try_fetch(&mut self, comp: usize, slot: usize) -> Result<BitVec> {
        if (comp, slot) == self.slow_slot {
            std::thread::sleep(self.delay);
        }
        self.inner.try_fetch(comp, slot)
    }
    fn try_fetch_nn(&mut self) -> Result<Option<BitVec>> {
        self.inner.try_fetch_nn()
    }
}

const CARD: u32 = 64;
const DELAY: Duration = Duration::from_millis(25);

fn index() -> BitmapIndex {
    let col = gen::uniform(8192, CARD, 77);
    BitmapIndex::build(
        &col,
        IndexSpec::new(Base::single(CARD).unwrap(), Encoding::Equality),
    )
    .unwrap()
}

/// 1 slow + 63 cheap queries: `Eq(0)` touches the slow slot, the rest
/// don't.
fn workload() -> Vec<SelectionQuery> {
    (0..CARD).map(|v| SelectionQuery::new(Op::Eq, v)).collect()
}

fn slow_source(idx: &BitmapIndex) -> SlowSource<impl BitmapSource + '_> {
    // Components are numbered 1-based (paper convention): the single
    // component of `Base::single` is comp 1, and `Eq(0)` fetches its
    // slot 0.
    SlowSource {
        inner: idx.source(),
        slow_slot: (1, 0),
        delay: DELAY,
    }
}

#[test]
fn skewed_workload_does_not_convoy_behind_one_slow_query() {
    let idx = index();
    let queries = workload();
    let sequential = evaluate_selection_workload(
        || slow_source(&idx),
        &queries,
        Algorithm::Auto,
        &BatchOptions::single_threaded(),
    );
    assert!(sequential.health.all_ok(), "{:?}", sequential.health);

    // Query 0 (the slow one) is the first claimed; while its worker
    // sleeps in the fetch, the other three claim everything behind it.
    let options = BatchOptions::with_threads_unclamped(4);
    let start = Instant::now();
    let parallel =
        evaluate_selection_workload(|| slow_source(&idx), &queries, Algorithm::Auto, &options);
    let elapsed = start.elapsed();
    assert!(parallel.health.all_ok(), "{:?}", parallel.health);
    // Wall-clock sanity: the slow query costs one DELAY; everything else
    // is microseconds. Workers that wait on each other (or on a drain
    // condition that never fires) would blow far past this very generous
    // bound even on a time-sliced single-core box.
    assert!(
        elapsed < DELAY * 10 + Duration::from_secs(5),
        "workload took {elapsed:?} — workers starved"
    );
    // Scheduling must not change a single answer.
    for (i, (s, p)) in sequential
        .outcomes
        .iter()
        .zip(&parallel.outcomes)
        .enumerate()
    {
        assert_eq!(s, p, "query {i}");
    }
}
