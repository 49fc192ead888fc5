//! A batch group holds one set of result windows, however many queries
//! it walks.
//!
//! A worker walks a group of queries window-major through one context.
//! Each window a term or a threshold predicate writes its result into is
//! refilled before it is read within one window step, so the windows are
//! the context's, lent to whichever query steps, not each query's. This
//! binary installs a counting global allocator (the product crates forbid
//! `unsafe`; a test binary may count) that tracks, per thread, the live
//! bytes held in window-sized allocations (32 KiB, one
//! [`DEFAULT_SEGMENT_BITS`] window) and their high-water mark. One worker
//! runs groups of 1, 16 and 64 2-of-4 thresholds over a 2^21-row
//! `<10,10,10>` range index (eight windows); the high-water mark of its
//! window bytes must be the same for all three.
//!
//! Sharing must not change an answer or a charge: over a row count whose
//! last window is ragged, and in a context that steps cursors of
//! different window sizes in turn (each reusing the windows the other
//! left, short for full and full for short), every answer and every
//! [`EvalStats`] field equals the same query run alone. No wall clock is
//! involved.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bindex::core::eval::{Algorithm, Cursor};
use bindex::core::exec::{Answer, QueryState};
use bindex::core::{ExecContext, DEFAULT_SEGMENT_BITS};
use bindex::engine::batch::{
    evaluate_query, evaluate_threshold_workload, BatchOptions, QueryOutcome, Sink,
};
use bindex::relation::gen;
use bindex::relation::query::{Op, Query, SelectionQuery, ThresholdQuery};
use bindex::{Base, BitVec, BitmapIndex, Encoding, EvalStats, IndexSpec};

/// Bytes of one window of the batch's default size.
const WINDOW_BYTES: usize = DEFAULT_SEGMENT_BITS / 8;

/// [`System`], tracking the bytes this thread holds in window-sized
/// allocations.
struct Counting;

thread_local! {
    static WINDOW_LIVE: Cell<usize> = const { Cell::new(0) };
    static WINDOW_PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grew(size: usize) {
    if size == WINDOW_BYTES {
        let live = WINDOW_LIVE.with(|n| {
            n.set(n.get() + size);
            n.get()
        });
        WINDOW_PEAK.with(|p| p.set(p.get().max(live)));
    }
}

fn shrank(size: usize) {
    if size == WINDOW_BYTES {
        WINDOW_LIVE.with(|n| n.set(n.get().saturating_sub(size)));
    }
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// const-initialized thread-local `Cell`s, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrank(layout.size());
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The high-water mark of this thread's window-sized bytes while `f`
/// ran, over what it held before.
fn window_peak(f: impl FnOnce()) -> usize {
    let before = WINDOW_LIVE.with(Cell::get);
    WINDOW_PEAK.with(|p| p.set(before));
    f();
    WINDOW_PEAK.with(Cell::get) - before
}

fn range_spec() -> IndexSpec {
    IndexSpec::new(Base::from_msb(&[10, 10, 10]).unwrap(), Encoding::Range)
}

/// The `i`-th 2-of-4 threshold: four predicates of different operators
/// over constants that move with `i`.
fn two_of_four(i: u32) -> ThresholdQuery {
    ThresholdQuery::new(
        2,
        vec![
            SelectionQuery::new(Op::Le, (457 + 13 * i) % 1000),
            SelectionQuery::new(Op::Ge, (120 + 7 * i) % 1000),
            SelectionQuery::new(Op::Ne, (500 + 31 * i) % 1000),
            SelectionQuery::new(Op::Gt, (990 - 11 * i) % 1000),
        ],
    )
}

/// One worker, inline on this thread, claims a workload of `1 + group`
/// thresholds as a first claim of one query and then one group of
/// `group`; each group walks windows of [`DEFAULT_SEGMENT_BITS`].
#[test]
fn a_threshold_group_holds_one_set_of_windows() {
    let index = BitmapIndex::build(&gen::uniform(1 << 21, 1000, 52), range_spec()).unwrap();
    let options = BatchOptions::with_threads(1);
    let peak = |group: u32| {
        let queries: Vec<ThresholdQuery> = (0..1 + group).map(two_of_four).collect();
        let run = || {
            let report =
                evaluate_threshold_workload(|| index.source(), &queries, Algorithm::Auto, &options);
            assert_eq!(report.health.failed, 0);
            drop(report);
        };
        // A warm-up run, so nothing lazily allocated once is counted.
        run();
        window_peak(run)
    };
    let one = peak(0);
    assert!(
        one >= 4 * WINDOW_BYTES,
        "a 2-of-4 threshold writes its predicates into four windows, held {one} bytes"
    );
    for group in [16, 64] {
        assert_eq!(
            peak(group),
            one,
            "a group of {group} thresholds holds the windows a group of 1 holds"
        );
    }
}

/// Thresholds whose windows take every path: the counter network, the
/// OR and AND plans, one predicate alone, and the early exits to all
/// zeros (two empty predicates) and all ones (two full ones).
fn mixed_thresholds() -> Vec<ThresholdQuery> {
    let mut queries: Vec<ThresholdQuery> = (0..6).map(two_of_four).collect();
    let sel = SelectionQuery::new;
    queries.extend([
        ThresholdQuery::new(1, vec![sel(Op::Eq, 7), sel(Op::Lt, 300), sel(Op::Gt, 800)]),
        ThresholdQuery::new(3, vec![sel(Op::Ge, 100), sel(Op::Le, 900), sel(Op::Ne, 5)]),
        ThresholdQuery::new(1, vec![sel(Op::Ne, 42)]),
        ThresholdQuery::new(2, vec![sel(Op::Lt, 0), sel(Op::Lt, 0), sel(Op::Le, 500)]),
        ThresholdQuery::new(2, vec![sel(Op::Ge, 0), sel(Op::Ge, 0), sel(Op::Eq, 9)]),
    ]);
    queries
}

/// A foundset as dense words, whatever form the run left it in.
fn dense(answer: Answer) -> BitVec {
    match answer {
        Answer::Dense(found) => found,
        Answer::Wah(found) => found.to_bitvec(),
        Answer::Count(_) => panic!("a kept answer is a foundset"),
    }
}

/// `query` alone, in a context of its own, stepped over windows of
/// `segment_bits`.
fn alone(index: &BitmapIndex, query: &Query, segment_bits: usize) -> (BitVec, EvalStats) {
    let options = BatchOptions::with_threads(1).with_segment_bits(segment_bits);
    let mut source = index.source();
    match evaluate_query(&mut source, query, Algorithm::Auto, &options, Sink::Keep) {
        QueryOutcome::Ok((answer, stats)) => (dense(answer), stats),
        other => panic!("{query}: {other:?}"),
    }
}

/// Over 2^21 + 1000 rows the last of nine windows is 1,000 bits. A group
/// of every threshold, on a range and on an equality index (whose `≤`
/// predicates write earlier terms into windows too), answers and charges
/// as each query run alone.
#[test]
fn a_ragged_group_answers_and_charges_as_its_queries_alone() {
    let rows = (1 << 21) + 1000;
    let column = gen::uniform(rows, 1000, 53);
    let queries = mixed_thresholds();
    for encoding in [Encoding::Range, Encoding::Equality] {
        let spec = IndexSpec::new(Base::from_msb(&[10, 10, 10]).unwrap(), encoding);
        let index = BitmapIndex::build(&column, spec).unwrap();
        let options = BatchOptions::with_threads(1);
        let report =
            evaluate_threshold_workload(|| index.source(), &queries, Algorithm::Auto, &options);
        let grouped = report.into_results().expect("every query succeeds");
        for (query, (found, stats)) in queries.iter().zip(grouped) {
            let query = Query::Threshold(query.clone());
            let (want, want_stats) = alone(&index, &query, DEFAULT_SEGMENT_BITS);
            assert_eq!(found, want, "{encoding:?} {query}: answer");
            assert_eq!(stats, want_stats, "{encoding:?} {query}: stats");
        }
    }
}

/// One context steps cursors of 2^12-, 2^18- and 2^16-bit windows in
/// turn, swapping each query's state in for its step, so a window filled
/// short for one query is lent to the next for a full one and back.
/// Every answer and every charge equals its query's run alone.
#[test]
fn windows_lent_across_window_sizes_keep_every_answer() {
    let rows = (1 << 21) + 1000;
    let column = gen::uniform(rows, 1000, 54);
    for encoding in [Encoding::Range, Encoding::Equality] {
        let spec = IndexSpec::new(Base::from_msb(&[10, 10, 10]).unwrap(), encoding);
        let index = BitmapIndex::build(&column, spec).unwrap();
        let sizes = [1 << 12, DEFAULT_SEGMENT_BITS, 1 << 16];
        let queries: Vec<(Query, usize)> = mixed_thresholds()
            .into_iter()
            .enumerate()
            .map(|(i, q)| (Query::Threshold(q), sizes[i % sizes.len()]))
            .collect();
        let mut source = index.source();
        let mut ctx = ExecContext::new(&mut source);
        let mut walking: Vec<(usize, Cursor, QueryState)> = Vec::new();
        for (i, (query, bits)) in queries.iter().enumerate() {
            let cursor = Cursor::prepare(&mut ctx, query, Algorithm::Auto, Some(*bits), true)
                .expect("a valid query prepares");
            let mut parked = QueryState::default();
            ctx.swap_query(&mut parked);
            walking.push((i, cursor, parked));
        }
        let mut ended = Vec::new();
        while !walking.is_empty() {
            let mut k = 0;
            while k < walking.len() {
                let (_, cursor, parked) = &mut walking[k];
                ctx.swap_query(parked);
                if cursor.step(&mut ctx).expect("a window steps") {
                    ctx.swap_query(parked);
                    k += 1;
                } else {
                    let (i, cursor, _) = walking.remove(k);
                    ended.push((i, dense(cursor.finish()), ctx.take_stats()));
                }
            }
        }
        assert_eq!(ended.len(), queries.len());
        for (i, found, stats) in ended {
            let (query, bits) = &queries[i];
            let (want, want_stats) = alone(&index, query, *bits);
            assert_eq!(
                found, want,
                "{encoding:?} {query} over {bits}-bit windows: answer"
            );
            assert_eq!(
                stats, want_stats,
                "{encoding:?} {query} over {bits}-bit windows: stats"
            );
        }
    }
}
