//! A served query's window walk allocates per query, not per window, and
//! a count over compressed slots allocates no result.
//!
//! A served index evaluates every selection window by window
//! (`IndexTuning::segment_bits`, 2^16 bits). The walk binds each program
//! term to its operands once per query and re-slices them per window, so
//! a query over 32 windows makes the allocations one over 4 windows
//! makes, and at most a few more than the whole-bitmap evaluation; a
//! threshold holds each predicate's window and its combine's the same
//! way. A query over WAH-stored slots folds their runs, and a count adds
//! up the ones as it walks, so its allocations do not grow with the
//! slots' run counts. This binary installs a counting global allocator
//! (the product crates forbid `unsafe`; a test binary may count) and
//! counts, per query and after a warm-up run, the allocations of
//! `count_in` and `evaluate_repr_in` over a `<10,10,10>` range index at
//! 2^18 rows (4 windows) and 2^21 rows (32 windows). The counter is per
//! thread, so nothing the harness does on another thread is counted. No
//! wall clock is involved.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bindex::compress::wah::WahBitmap;
use bindex::core::eval::{count_in, evaluate_repr_in, Algorithm};
use bindex::core::{ExecContext, Repr, Result};
use bindex::relation::gen;
use bindex::relation::query::{Op, Query, SelectionQuery, ThresholdQuery};
use bindex::{Base, BitVec, BitmapIndex, BitmapSource, Encoding, IndexSpec};

/// [`System`], counting the allocations made on each thread.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is a
// const-initialized thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The served window.
const WINDOW_BITS: usize = 1 << 16;

/// Allocations this thread made while `f` ran.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// One query's allocations, in its own context as a served query runs,
/// after one warm-up run: `[count whole, count windowed, keep whole, keep
/// windowed]`.
fn query_allocations(index: &BitmapIndex, query: &Query) -> [usize; 4] {
    let run = |keep: bool, segment_bits: Option<usize>| {
        let mut source = index.source();
        let mut ctx = ExecContext::new(&mut source);
        if keep {
            let found = evaluate_repr_in(&mut ctx, query, Algorithm::Auto, segment_bits).unwrap();
            drop(found);
        } else {
            count_in(&mut ctx, query, Algorithm::Auto, segment_bits).unwrap();
        }
    };
    let shapes = [
        (false, None),
        (false, Some(WINDOW_BITS)),
        (true, None),
        (true, Some(WINDOW_BITS)),
    ];
    shapes.map(|(keep, segment_bits)| {
        run(keep, segment_bits);
        allocations(|| run(keep, segment_bits))
    })
}

#[test]
fn a_window_walk_allocates_per_query_not_per_window() {
    let spec = IndexSpec::new(Base::from_msb(&[10, 10, 10]).unwrap(), Encoding::Range);
    let index = |rows| BitmapIndex::build(&gen::uniform(rows, 1000, 44), spec.clone()).unwrap();
    let (four, thirty_two) = (index(1 << 18), index(1 << 21));
    let mut queries = Vec::new();
    for op in Op::ALL {
        for v in [0, 1, 9, 10, 99, 100, 457, 500, 990, 998, 999] {
            queries.push(Query::from(SelectionQuery::new(op, v)));
        }
    }
    for query in &queries {
        let small = query_allocations(&four, query);
        let large = query_allocations(&thirty_two, query);
        for (rows, [count_whole, count_windowed, keep_whole, keep_windowed]) in
            [("2^18", small), ("2^21", large)]
        {
            assert!(
                count_windowed <= count_whole + 4,
                "{query} at {rows} rows: a windowed count allocates {count_windowed} times, \
                 a whole one {count_whole}"
            );
            assert!(
                keep_windowed <= keep_whole + 4,
                "{query} at {rows} rows: a windowed foundset allocates {keep_windowed} times, \
                 a whole one {keep_whole}"
            );
        }
        assert_eq!(
            small[1], large[1],
            "{query}: a count over 32 windows allocates as one over 4"
        );
        // The 2^21-row foundset (256 KiB) comes off the spare list the
        // warm-up run's foundset went back to; the 2^18-row one (32 KiB)
        // is under the list's floor and is allocated every time.
        assert_eq!(
            small[3],
            large[3] + 1,
            "{query}: a foundset over 32 windows allocates as one over 4, bar its buffer"
        );
    }
}

fn range_spec() -> IndexSpec {
    IndexSpec::new(Base::from_msb(&[10, 10, 10]).unwrap(), Encoding::Range)
}

/// A threshold's predicates are held across its windows like a
/// selection's terms: a 2-of-4 count over 32 windows allocates as one
/// over 4, and at most a few times more than the whole-bitmap count.
#[test]
fn a_windowed_threshold_allocates_per_query_not_per_window() {
    let index = |rows| BitmapIndex::build(&gen::uniform(rows, 1000, 45), range_spec()).unwrap();
    let (four, thirty_two) = (index(1 << 18), index(1 << 21));
    let query = Query::from(ThresholdQuery::new(
        2,
        vec![
            SelectionQuery::new(Op::Le, 457),
            SelectionQuery::new(Op::Ge, 120),
            SelectionQuery::new(Op::Ne, 500),
            SelectionQuery::new(Op::Gt, 990),
        ],
    ));
    let small = query_allocations(&four, &query);
    let large = query_allocations(&thirty_two, &query);
    for (rows, [count_whole, count_windowed, ..]) in [("2^18", small), ("2^21", large)] {
        assert!(
            count_windowed <= count_whole + 4,
            "at {rows} rows: a windowed threshold count allocates {count_windowed} times, \
             a whole one {count_whole}"
        );
    }
    assert_eq!(
        small[1], large[1],
        "a threshold count over 32 windows allocates as one over 4"
    );
}

/// The index's slots served compressed, as a store keeps a clustered
/// column's: each fetch hands out a shared handle and allocates nothing.
#[derive(Clone)]
struct WahSource {
    spec: IndexSpec,
    n_rows: usize,
    slots: Vec<Vec<Arc<WahBitmap>>>,
}

impl WahSource {
    fn new(index: &BitmapIndex) -> Self {
        let slots = index.components().iter();
        Self {
            spec: index.spec().clone(),
            n_rows: index.n_rows(),
            slots: slots
                .map(|c| {
                    c.iter()
                        .map(|b| Arc::new(WahBitmap::from_bitvec(b)))
                        .collect()
                })
                .collect(),
        }
    }
}

impl BitmapSource for WahSource {
    fn spec(&self) -> &IndexSpec {
        &self.spec
    }

    fn n_rows(&self) -> usize {
        self.n_rows
    }

    fn try_fetch(&mut self, comp: usize, slot: usize) -> Result<BitVec> {
        Ok(self.slots[comp - 1][slot].to_bitvec())
    }

    fn try_fetch_nn(&mut self) -> Result<Option<BitVec>> {
        Ok(None)
    }

    fn try_fetch_repr(&mut self, comp: usize, slot: usize) -> Result<Repr> {
        Ok(Repr::Wah(Arc::clone(&self.slots[comp - 1][slot])))
    }
}

/// A count over WAH slots folds their runs and adds up each stretch's
/// ones, building no result: over a 2^21-row column clustered into 128 or
/// into 1,024 runs per slot, whole or served window by window, every
/// RangeEval-Opt count allocates the same number of times.
#[test]
fn a_compressed_count_allocates_no_result() {
    let rows = 1 << 21;
    let source = |clusters: usize| {
        let column = gen::clustered(rows, 1000, rows / clusters, 46);
        WahSource::new(&BitmapIndex::build(&column, range_spec()).unwrap())
    };
    let (few, many) = (source(128), source(1024));
    for op in Op::ALL {
        for v in [1, 99, 457, 500, 998] {
            let query = Query::from(SelectionQuery::new(op, v));
            for segment_bits in [None, Some(WINDOW_BITS)] {
                // One query in a context of its own, as a served one runs.
                let count = |source: &WahSource| {
                    let mut source = source.clone();
                    let mut stats = None;
                    let allocations = allocations(|| {
                        let mut ctx = ExecContext::new(&mut source);
                        count_in(&mut ctx, &query, Algorithm::Auto, segment_bits).unwrap();
                        stats = Some(ctx.take_stats());
                    });
                    (allocations, stats.unwrap())
                };
                count(&few);
                let ((few_allocs, few_stats), (many_allocs, many_stats)) =
                    (count(&few), count(&many));
                let label = format!("{query} {segment_bits:?}");
                if few_stats.scans > 0 {
                    assert!(
                        few_stats.compressed_ops > 0 && many_stats.compressed_ops > 0,
                        "{label}"
                    );
                }
                assert_eq!(
                    few_allocs, many_allocs,
                    "{label}: a count over 1,024 runs per slot allocates as one over 128"
                );
            }
        }
    }
}
