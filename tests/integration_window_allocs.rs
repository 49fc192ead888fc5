//! A served query's window walk allocates per query, not per window.
//!
//! A served index evaluates every selection window by window
//! (`IndexTuning::segment_bits`, 2^16 bits). The walk binds each program
//! term to its operands once per query and re-slices them per window, so
//! a query over 32 windows makes the allocations one over 4 windows
//! makes, and at most a few more than the whole-bitmap evaluation. This
//! binary installs a counting global allocator (the product crates forbid
//! `unsafe`; a test binary may count) and counts, per query and after a
//! warm-up run, the allocations of `count_in` and `evaluate_repr_in` over
//! a `<10,10,10>` range index at 2^18 rows (4 windows) and 2^21 rows (32
//! windows). The counter is per thread, so nothing the harness does on
//! another thread is counted. No wall clock is involved.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bindex::core::eval::{count_in, evaluate_repr_in, Algorithm};
use bindex::core::ExecContext;
use bindex::relation::gen;
use bindex::relation::query::{Op, Query, SelectionQuery};
use bindex::{Base, BitmapIndex, Encoding, IndexSpec};

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
