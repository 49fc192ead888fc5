//! Parallel batch query execution: evaluate a workload of queries across
//! worker threads, a group of queries per task, window by window,
//! isolating each query's failures from the rest of the workload.
//!
//! A decision-support session rarely asks one question; it asks hundreds
//! (the paper's Section 9 experiments average over 100-query workloads),
//! and the paper's unit of cost is the query. Queries of a workload are
//! independent, so they parallelize trivially — once everything on the
//! read path is shareable. That is what the `Arc` fetch cache in
//! [`ExecContext`] and the `&self`-based `SharedIndexReader` of the
//! storage crate buy: worker threads build one [`BitmapSource`] each from
//! a shared factory and claim the next unclaimed queries off one shared
//! queue until it is empty. The task list is static — a query goes back
//! on the queue only when the worker holding it dies — so that is all the
//! scheduling there is: queries start oldest first, no query waits behind
//! a particular worker's backlog (a skewed mix cannot convoy), and a
//! worker that dies takes nobody with it: what it held and had not
//! answered is handed back, and a worker with nothing left to claim waits
//! for that only while another still holds a claim.
//!
//! Independent queries still share their operands. The paper prices a
//! query in bitmap scans, and its Section 10 shows that a bitmap kept
//! resident costs none; the same holds a level down, in the cache. A
//! worker therefore claims a *group* of up to 64 queries (`GROUP_QUERIES`)
//! and walks them window-major: every query of the group runs window `w`
//! ([`DEFAULT_SEGMENT_BITS`] unless the options name another) before any
//! runs window `w + 1`, so each operand window is read from memory once
//! and served to the rest of the group from the core's L2. The group also
//! reads each stored bitmap from its source once, and its queries share
//! that copy ([`ExecContext::with_shared_reads`]). Each query
//! keeps its own context state, charges and [`QueryOutcome`]; how it is
//! evaluated — compressed or window by window — is [`Cursor::prepare`]'s
//! decision per query, identical at every thread count and group size.
//! The price is latency within a group: a group waits for its slowest
//! first fetch (the operands are read on window 0), and none of its
//! queries is answered before its last window. A worker's first claim is
//! therefore one query, so the head of a workload is answered as soon as
//! it would be query by query — and a [`Deadline`] that falls during a
//! group's reads still leaves the head's answers. After that a claim is a
//! group, shrunk to an even share of what is left when that is less, so
//! the imbalance at the end is at most one group.
//!
//! Independence cuts the other way too: one query hitting a corrupt
//! bitmap — or a bug that panics — is no reason to throw away the other
//! ninety-nine answers. A query's failure is recorded as its own
//! [`QueryOutcome`], and the workload keeps draining; a [`Deadline`]
//! bounds how long a sick store is hammered. Each claim runs under
//! [`catch_unwind`]; a panic is the failure of the query that was
//! running, and the claim's other unfinished queries are re-run one by
//! one, each under its own. The caller gets every per-query outcome plus
//! a [`BatchHealth`] summary instead of a first-error abort.
//!
//! Built on the standard library's scoped threads — no runtime, no
//! dependency, no unsafe.
//! `threads = 1` runs inline on the calling thread, so single-threaded
//! baselines measure the sequential path itself rather than a one-worker
//! thread pool.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

use bindex_bitvec::BitVec;
use bindex_core::error::{Error, Result};
use bindex_core::eval::{Algorithm, Cursor};
use bindex_core::exec::{Answer, QueryState};
use bindex_core::{
    BitmapSource, DeltaOverlay, EvalStats, ExecContext, RecoveryPolicy, DEFAULT_SEGMENT_BITS,
};
use bindex_relation::query::{Query, SelectionQuery, ThresholdQuery};

/// Smallest accepted segment size: anything below 512 bits spends more
/// time on per-segment bookkeeping than on bit operations.
pub const MIN_SEGMENT_BITS: usize = 512;

/// Most queries a worker claims at once and walks window-major. Measured
/// on a 2^23-row `<10,10,10>` range index (27 one-MiB bitmaps), 400
/// RangeEval-Opt selections at two threads with 2^18-bit windows
/// (EXPERIMENTS "A batch walks windows, not queries"): groups of 16 read
/// the batch faster than query by query, and the gain grows up to 64 and
/// flattens beyond it, while a larger group delays its first answer and
/// leaves more work to the last claim.
const GROUP_QUERIES: usize = 64;

/// The one segment-size rule: a power of two of at least
/// [`MIN_SEGMENT_BITS`]. Another size is [`Error::Infeasible`];
/// [`BatchOptions::with_segment_bits`] panics on it.
pub fn check_segment_bits(bits: usize) -> Result<()> {
    if bits.is_power_of_two() && bits >= MIN_SEGMENT_BITS {
        Ok(())
    } else {
        Err(Error::Infeasible(format!(
            "segment size must be a power of two >= {MIN_SEGMENT_BITS} bits, got {bits}"
        )))
    }
}

/// A wall-clock cut-off for a workload, defined in `bindex-core` (see
/// [`bindex_core::Deadline`]) so windowed evaluation can check it between
/// windows, and re-exported here beside the workload options that take
/// it. Queries claimed after expiry, or claimed in a group and not yet
/// started, come back [`QueryOutcome::TimedOut`] without running. A
/// workload query that is already running — every one walks windows —
/// is cancelled at its next window boundary and comes back
/// [`QueryOutcome::DeadlineExceeded`], as are its group-mates at theirs.
/// Only [`evaluate_query`] without a segment size runs whole-bitmap, and
/// a whole-bitmap query that has started finishes.
pub use bindex_core::Deadline;

/// What happened to one query of a workload.
#[derive(Debug, Clone, PartialEq)]
pub enum QueryOutcome<T> {
    /// Evaluated normally.
    Ok(T),
    /// Evaluated to an exact answer, but through the degraded path: at
    /// least one stored bitmap was unreadable and had to be reconstructed
    /// (see [`RecoveryPolicy`]).
    Degraded(T),
    /// The query failed — including [`Error::WorkerPanic`] when its
    /// evaluation panicked. Other queries are unaffected.
    Failed(Error),
    /// The workload [`Deadline`] expired before this query started.
    TimedOut,
    /// The [`Deadline`] expired while this query was running window by
    /// window: evaluation was cancelled at a window boundary and its
    /// partial foundset discarded, so shed work stops consuming cores.
    /// Every workload query walks windows; only [`evaluate_query`] without
    /// a segment size runs whole-bitmap, and such a query that has started
    /// always finishes.
    DeadlineExceeded,
}

impl<T> QueryOutcome<T> {
    /// The answer, if the query produced one (normally or degraded).
    pub fn result(&self) -> Option<&T> {
        match self {
            QueryOutcome::Ok(v) | QueryOutcome::Degraded(v) => Some(v),
            _ => None,
        }
    }

    /// Consumes the outcome into its answer, if any.
    pub fn into_result(self) -> Option<T> {
        match self {
            QueryOutcome::Ok(v) | QueryOutcome::Degraded(v) => Some(v),
            _ => None,
        }
    }

    /// `true` for [`QueryOutcome::Ok`].
    pub fn is_ok(&self) -> bool {
        matches!(self, QueryOutcome::Ok(_))
    }

    /// `true` for [`QueryOutcome::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, QueryOutcome::Degraded(_))
    }

    /// The error, for [`QueryOutcome::Failed`].
    pub fn error(&self) -> Option<&Error> {
        match self {
            QueryOutcome::Failed(e) => Some(e),
            _ => None,
        }
    }
}

/// Per-workload outcome tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchHealth {
    /// Queries answered normally.
    pub ok: usize,
    /// Queries answered exactly but through the degraded path.
    pub degraded: usize,
    /// Queries that failed (including worker panics).
    pub failed: usize,
    /// Queries not started because the deadline expired.
    pub timed_out: usize,
    /// Queries cancelled mid-run at a window boundary because the
    /// deadline expired (windowed execution only).
    pub deadline_exceeded: usize,
    /// Of `failed`, how many were [`Error::WorkerPanic`]s.
    pub worker_panics: usize,
}

impl BatchHealth {
    fn tally<T>(outcomes: &[QueryOutcome<T>]) -> Self {
        let mut h = Self::default();
        for o in outcomes {
            match o {
                QueryOutcome::Ok(_) => h.ok += 1,
                QueryOutcome::Degraded(_) => h.degraded += 1,
                QueryOutcome::Failed(e) => {
                    h.failed += 1;
                    if matches!(e, Error::WorkerPanic(_)) {
                        h.worker_panics += 1;
                    }
                }
                QueryOutcome::TimedOut => h.timed_out += 1,
                QueryOutcome::DeadlineExceeded => h.deadline_exceeded += 1,
            }
        }
        h
    }

    /// Every query answered normally — no degradation, failure, timeout
    /// or cancellation.
    pub fn all_ok(&self) -> bool {
        self.degraded == 0 && self.failed == 0 && self.timed_out == 0 && self.deadline_exceeded == 0
    }

    /// Queries that produced an answer (ok + degraded).
    pub fn answered(&self) -> usize {
        self.ok + self.degraded
    }

    /// Total queries in the workload.
    pub fn total(&self) -> usize {
        self.ok + self.degraded + self.failed + self.timed_out + self.deadline_exceeded
    }
}

/// Everything a workload run produced: one [`QueryOutcome`] per query in
/// workload order, plus the [`BatchHealth`] tallies.
#[derive(Debug, Clone)]
pub struct WorkloadReport<T> {
    /// Per-query outcomes, in workload order.
    pub outcomes: Vec<QueryOutcome<T>>,
    /// Outcome tallies.
    pub health: BatchHealth,
    /// Always 0: workers take queries from one shared queue and there is
    /// nothing to steal. The field stays while `benchmark/` reads it into
    /// `engine.steals` (ROADMAP item 1(c) drops both).
    pub steals: usize,
}

impl<T> WorkloadReport<T> {
    /// Strict view: every answer in workload order, or the first
    /// non-answer as an error — the pre-isolation calling convention, for
    /// callers that treat any incomplete workload as a failure.
    pub fn into_results(self) -> Result<Vec<T>> {
        self.outcomes
            .into_iter()
            .map(|o| match o {
                QueryOutcome::Ok(v) | QueryOutcome::Degraded(v) => Ok(v),
                QueryOutcome::Failed(e) => Err(e),
                QueryOutcome::TimedOut => Err(Error::Infeasible(
                    "query missed the workload deadline".into(),
                )),
                QueryOutcome::DeadlineExceeded => Err(Error::DeadlineExceeded),
            })
            .collect()
    }
}

/// Worker configuration for a batch run.
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    threads: usize,
    deadline: Option<Deadline>,
    recovery: RecoveryPolicy,
    segment_bits: Option<usize>,
    overlay: Option<Arc<DeltaOverlay>>,
}

impl BatchOptions {
    /// Runs with `threads` workers. The request is clamped to at least 1
    /// and at most the machine's available parallelism — oversubscribing
    /// cores only adds scheduler churn for this CPU-bound workload. A
    /// clamp is logged to stderr.
    pub fn with_threads(threads: usize) -> Self {
        let requested = threads.max(1);
        // One thread needs no clamp — and a served request builds its
        // options through here, so it must not probe the machine.
        let effective = match requested {
            1 => 1,
            _ => requested.min(available_parallelism().unwrap_or(requested)),
        };
        if effective < requested {
            eprintln!(
                "warning: clamping worker count {requested} to available parallelism {effective}"
            );
        }
        Self {
            threads: effective,
            ..Self::default()
        }
    }

    /// Runs inline on the calling thread.
    pub fn single_threaded() -> Self {
        Self::with_threads(1)
    }

    /// Runs with exactly `threads` workers, skipping the
    /// available-parallelism clamp — deliberate oversubscription. For
    /// tests and harnesses that must exercise the multi-worker machinery
    /// (the shared queue, panic isolation) on boxes with
    /// fewer cores than workers; production callers should prefer
    /// [`BatchOptions::with_threads`].
    pub fn with_threads_unclamped(threads: usize) -> Self {
        let mut options = Self::with_threads(1);
        options.threads = threads.max(1);
        options
    }

    /// Sets a wall-clock deadline; queries claimed after it expires come
    /// back [`QueryOutcome::TimedOut`].
    pub fn with_deadline(mut self, deadline: Deadline) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Sets the degraded-mode [`RecoveryPolicy`] applied to every query's
    /// [`ExecContext`] (storage-backed selection workloads only).
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// Sets the window of segment-at-a-time execution to `bits` bits. The
    /// workload drivers always walk windows — of [`DEFAULT_SEGMENT_BITS`]
    /// unless this names another; [`evaluate_query`] walks them only when
    /// this is set, and is whole-bitmap otherwise. (A size larger than the
    /// relation is fine — the query just runs as one segment.)
    ///
    /// # Panics
    /// Panics unless `bits` is a power of two of at least
    /// [`MIN_SEGMENT_BITS`]; check a value from outside first
    /// ([`check_segment_bits`]).
    pub fn with_segment_bits(mut self, bits: usize) -> Self {
        if let Err(e) = check_segment_bits(bits) {
            panic!("{e}");
        }
        self.segment_bits = Some(bits);
        self
    }

    /// Number of worker threads actually used (after the
    /// available-parallelism clamp).
    pub fn threads(&self) -> usize {
        self.threads.max(1)
    }

    /// The segment size [`BatchOptions::with_segment_bits`] set, if any.
    pub fn segment_bits(&self) -> Option<usize> {
        self.segment_bits
    }

    /// The workload deadline, if any.
    pub fn deadline(&self) -> Option<Deadline> {
        self.deadline
    }

    /// Attaches a streaming-ingest [`DeltaOverlay`] applied to every
    /// query's [`ExecContext`] (storage-backed selection workloads only):
    /// workers see the base index plus the not-yet-compacted appends and
    /// deletes. A quiesced overlay is dropped, keeping the workload
    /// bit-identical — statistics included — to running without one.
    pub fn with_overlay(mut self, overlay: Option<Arc<DeltaOverlay>>) -> Self {
        self.overlay = overlay.filter(|o| !o.is_quiesced());
        self
    }

    /// The ingest overlay, if one is attached (and not quiesced).
    pub fn overlay(&self) -> Option<&Arc<DeltaOverlay>> {
        self.overlay.as_ref()
    }
}

/// [`std::thread::available_parallelism`], asked once per process: the
/// probe re-reads the cgroup CPU quota files on every call (17–19 µs
/// here), and the answer is not expected to change under a running
/// engine.
fn available_parallelism() -> Option<usize> {
    static CAP: OnceLock<Option<usize>> = OnceLock::new();
    *CAP.get_or_init(|| {
        std::thread::available_parallelism()
            .ok()
            .map(std::num::NonZeroUsize::get)
    })
}

/// Renders a panic payload for [`Error::WorkerPanic`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "worker panicked".to_string()
    }
}

/// A query's ending as its [`QueryOutcome`]: an answer flagged degraded
/// is [`QueryOutcome::Degraded`], a cancellation at a window boundary
/// ([`Error::DeadlineExceeded`]) [`QueryOutcome::DeadlineExceeded`], and
/// every other error [`QueryOutcome::Failed`].
fn classify<T>(ran: Result<(T, bool)>) -> QueryOutcome<T> {
    match ran {
        Ok((v, false)) => QueryOutcome::Ok(v),
        Ok((v, true)) => QueryOutcome::Degraded(v),
        Err(Error::DeadlineExceeded) => QueryOutcome::DeadlineExceeded,
        Err(e) => QueryOutcome::Failed(e),
    }
}

/// The queries of a workload left to run, shared by its workers: the
/// unclaimed tail `next..n` and what a dying worker handed back.
struct Work {
    next: usize,
    handed_back: Vec<usize>,
    /// Workers holding a claim, each of which may yet hand queries back.
    holding: usize,
}

/// The one queue every worker of a workload claims from.
struct Queue {
    work: Mutex<Work>,
    changed: Condvar,
    n: usize,
    threads: usize,
}

impl Queue {
    fn new(n: usize, threads: usize) -> Self {
        Self {
            work: Mutex::new(Work {
                next: 0,
                handed_back: Vec::new(),
                holding: 0,
            }),
            changed: Condvar::new(),
            n,
            threads,
        }
    }

    fn lock(&self) -> MutexGuard<'_, Work> {
        self.work.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Claims a handed-back query alone, else the next `most` queries, or
    /// an even share among the workers of what is left when that is
    /// fewer. With nothing left to claim it waits while another worker
    /// holds a claim, which that worker's death would hand back; `None`
    /// once nothing is left and nobody holds a claim.
    fn claim(&self, most: usize) -> Option<Range<usize>> {
        let mut work = self.lock();
        loop {
            let size = most.min(self.n.saturating_sub(work.next).div_ceil(self.threads));
            let claimed = match work.handed_back.pop() {
                Some(i) => i..i + 1,
                None if size > 0 => work.next..work.next + size,
                None if work.holding == 0 => return None,
                None => {
                    work = self
                        .changed
                        .wait(work)
                        .unwrap_or_else(PoisonError::into_inner);
                    continue;
                }
            };
            work.next = work.next.max(claimed.end);
            work.holding += 1;
            return Some(claimed);
        }
    }
}

/// A worker's claim while it runs it. Dropped — when the claim ends, or
/// when its worker dies — it hands the claim's unreported queries back to
/// the [`Queue`].
struct Claim<'a, T> {
    queue: &'a Queue,
    queries: Range<usize>,
    slots: &'a [Mutex<Option<QueryOutcome<T>>>],
}

impl<T> Drop for Claim<'_, T> {
    fn drop(&mut self) {
        let unreported = self.queries.clone().filter(|&i| {
            let slot = self.slots[i].lock().unwrap_or_else(PoisonError::into_inner);
            slot.is_none()
        });
        let mut work = self.queue.lock();
        work.handed_back.extend(unreported);
        work.holding -= 1;
        self.queue.changed.notify_all();
    }
}

/// The resilient driver behind [`evaluate_queries`], and the one place
/// this module spawns threads. Every `i in 0..n` is claimed by one of the
/// configured workers — inline for one worker, on scoped threads
/// otherwise — off one [`Queue`]: a worker's first claim is one query,
/// its later ones up to [`GROUP_QUERIES`], and the outcomes are kept in
/// input order. A worker returns once nothing is left to claim or to be
/// handed back.
///
/// Each worker owns one `init()`-built source and runs each claim as
/// `group(source, claim, report, running)`, which reports each query's
/// outcome as it ends and keeps in `running` the query it is working on,
/// under [`catch_unwind`]. A panic is the running query's
/// [`Error::WorkerPanic`]. The worker then rebuilds its source — which the
/// panic may have left inconsistent — and runs the claim's unreported
/// queries again one at a time. A worker whose rebuild panics dies, and
/// its claim hands the unreported queries back to the others; what no
/// worker lives to report comes back [`Error::WorkerPanic`], also when
/// the one worker that ran inline died.
fn run_workload<S, T, I, G>(
    n: usize,
    options: &BatchOptions,
    init: I,
    group: G,
) -> WorkloadReport<T>
where
    S: BitmapSource,
    T: Send,
    I: Fn() -> S + Sync,
    G: Fn(&mut S, Range<usize>, &mut dyn FnMut(usize, QueryOutcome<T>), &Cell<Option<usize>>)
        + Sync,
{
    let threads = options.threads().min(n.max(1));
    let queue = Queue::new(n, threads);
    let slots: Vec<Mutex<Option<QueryOutcome<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let slot = |i: usize| slots[i].lock().expect("a slot is only ever assigned");
    let worker = || {
        let mut source = init();
        let mut most = 1;
        let running = Cell::new(None);
        let mut report = |i: usize, outcome: QueryOutcome<T>| *slot(i) = Some(outcome);
        let mut run = |source: &mut S, queries: Range<usize>| {
            running.set(None);
            catch_unwind(AssertUnwindSafe(|| {
                group(source, queries, &mut report, &running)
            }))
            .map_err(|payload| Error::WorkerPanic(panic_message(payload.as_ref())))
        };
        while let Some(queries) = queue.claim(most) {
            most = GROUP_QUERIES;
            let _claim = Claim {
                queue: &queue,
                queries: queries.clone(),
                slots: &slots,
            };
            let Err(panic) = run(&mut source, queries.clone()) else {
                continue;
            };
            if let Some(i) = running.get() {
                *slot(i) = Some(QueryOutcome::Failed(panic));
            }
            // Unwind safety: the source a panic interrupted is discarded
            // and rebuilt, so no broken invariant is observed.
            source = init();
            for i in queries.filter(|&i| slot(i).is_none()) {
                if let Err(panic) = run(&mut source, i..i + 1) {
                    *slot(i) = Some(QueryOutcome::Failed(panic));
                    source = init();
                }
            }
        }
    };
    if threads <= 1 {
        // As a scoped thread's `join` would: a dead worker leaves its
        // unreported queries to the WorkerPanic outcomes below.
        let _ = catch_unwind(AssertUnwindSafe(worker));
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            for h in handles {
                // A worker dies only outside `catch_unwind`: its `init`
                // panicked. What it finished is already in `slots`, and
                // its claim handed the rest back; the others claim on.
                // Queries nobody lived to report surface below as
                // WorkerPanic outcomes.
                let _ = h.join();
            }
        });
    }
    let outcomes: Vec<QueryOutcome<T>> = slots
        .into_iter()
        .map(|slot| {
            let outcome = slot.into_inner().expect("a slot is only ever assigned");
            outcome.unwrap_or_else(|| {
                QueryOutcome::Failed(Error::WorkerPanic(
                    "worker thread died before reporting its results".into(),
                ))
            })
        })
        .collect();
    let health = BatchHealth::tally(&outcomes);
    WorkloadReport {
        outcomes,
        health,
        steals: 0,
    }
}

/// A context over `source` under the policy of `options`: recovery,
/// deadline, overlay.
fn context<'a, S: BitmapSource>(source: &'a mut S, options: &BatchOptions) -> ExecContext<'a, S> {
    ExecContext::new(source)
        .with_recovery(options.recovery.clone())
        .with_deadline(options.deadline)
        .with_overlay(options.overlay.clone())
}

/// What [`evaluate_query`] keeps of a query's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// The foundset, in the representation evaluation produced
    /// ([`evaluate_repr_in`](bindex_core::eval::evaluate_repr_in)).
    Keep,
    /// Its cardinality alone ([`count_in`](bindex_core::eval::count_in)):
    /// a selection writes no foundset at all.
    Count,
}

/// Evaluates one query of either kind on the calling thread under the
/// policy of `options` (deadline, recovery, overlay, segment size; the
/// worker count plays no part) — what a one-query workload does,
/// without the workload: no outcome vector. The query is one [`Cursor`]
/// stepped to its end, as a workload steps each cursor of a group.
/// `sink` picks what comes back: [`Sink::Keep`] returns the foundset as
/// evaluation produced it — [`Answer::Wah`] when the WAH fold answered,
/// else [`Answer::Dense`] (always, for a threshold) — so a caller that
/// caches it never pays for dense words ([`Answer::count_ones`] is
/// O(compressed words) on [`Answer::Wah`]); [`Sink::Count`] returns
/// [`Answer::Count`], with the same [`EvalStats`]. The ending is
/// classified exactly as in a workload — a query is refused
/// [`QueryOutcome::TimedOut`] once the deadline has passed, a malformed
/// threshold is [`QueryOutcome::Failed`]\([`Error::InvalidQuery`]\), and a
/// panic is caught as [`Error::WorkerPanic`], after which the caller should
/// rebuild `source`.
pub fn evaluate_query<S: BitmapSource>(
    source: &mut S,
    query: &Query,
    algorithm: Algorithm,
    options: &BatchOptions,
    sink: Sink,
) -> QueryOutcome<(Answer, EvalStats)> {
    if options.deadline.is_some_and(|d| d.expired()) {
        return QueryOutcome::TimedOut;
    }
    let ran = catch_unwind(AssertUnwindSafe(|| {
        let mut ctx = context(source, options);
        let keep = sink == Sink::Keep;
        let mut cursor = Cursor::prepare(&mut ctx, query, algorithm, options.segment_bits, keep)?;
        while cursor.step(&mut ctx)? {}
        let stats = ctx.take_stats();
        Ok(((cursor.finish(), stats), stats.degraded_fetches > 0))
    }));
    classify(ran.unwrap_or_else(|payload| Err(Error::WorkerPanic(panic_message(payload.as_ref())))))
}

/// Evaluates a workload of single-attribute selection queries, one
/// [`BitmapSource`] per worker from `make_source` (e.g. a closure opening
/// a source backed by the storage crate's `SharedIndexReader`). Returns
/// per-query outcomes holding foundsets and [`EvalStats`], in workload
/// order. With a [`RecoveryPolicy`] in `options`, queries that had to
/// reconstruct an unreadable bitmap come back
/// [`QueryOutcome::Degraded`] — still bit-exact.
///
/// Each query is evaluated as [`evaluate_query`] evaluates it with a
/// segment size — [`DEFAULT_SEGMENT_BITS`] unless the options name one —
/// in a group walked window-major, its foundset decoded to dense words.
pub fn evaluate_selection_workload<S, F>(
    make_source: F,
    queries: &[SelectionQuery],
    algorithm: Algorithm,
    options: &BatchOptions,
) -> WorkloadReport<(BitVec, EvalStats)>
where
    S: BitmapSource,
    F: Fn() -> S + Sync,
{
    let queries: Vec<Query> = queries.iter().map(|&q| Query::Selection(q)).collect();
    evaluate_queries(make_source, &queries, algorithm, options)
}

/// Evaluates a workload of k-of-N [`ThresholdQuery`]s against one index,
/// with the same worker, recovery, overlay, pruning, deadline, and
/// segment-at-a-time machinery as [`evaluate_selection_workload`]. Each
/// query's predicate foundsets are produced by the ordinary evaluator
/// and combined in one pass by the bit-sliced CSA threshold kernel; on
/// the segmented path the per-window early-exit bound sheds work the
/// summary planes prove pointless. A malformed query (`k = 0`, `k > N`,
/// no predicates) comes back as its own
/// [`QueryOutcome::Failed`]\([`Error::InvalidQuery`]\) without touching
/// the rest of the workload.
pub fn evaluate_threshold_workload<S, F>(
    make_source: F,
    queries: &[ThresholdQuery],
    algorithm: Algorithm,
    options: &BatchOptions,
) -> WorkloadReport<(BitVec, EvalStats)>
where
    S: BitmapSource,
    F: Fn() -> S + Sync,
{
    let queries: Vec<Query> = queries.iter().cloned().map(Query::Threshold).collect();
    evaluate_queries(make_source, &queries, algorithm, options)
}

/// The one driver behind both workload entry points: [`run_workload`]
/// over [`evaluate_group`], with windows of the options' segment size, or
/// of [`DEFAULT_SEGMENT_BITS`] when they name none, each foundset decoded
/// to dense words.
fn evaluate_queries<S, F>(
    make_source: F,
    queries: &[Query],
    algorithm: Algorithm,
    options: &BatchOptions,
) -> WorkloadReport<(BitVec, EvalStats)>
where
    S: BitmapSource,
    F: Fn() -> S + Sync,
{
    let segment_bits = options.segment_bits.unwrap_or(DEFAULT_SEGMENT_BITS);
    run_workload(
        queries.len(),
        options,
        &make_source,
        |source, group, report, running| {
            let group = group.map(|i| (i, &queries[i]));
            evaluate_group(
                source,
                group,
                algorithm,
                segment_bits,
                options,
                report,
                running,
            );
        },
    )
}

/// Evaluates a group of queries window-major in one context over
/// `source`. Each query is prepared in turn ([`Cursor::prepare`]; refused
/// [`QueryOutcome::TimedOut`] once the deadline has passed), then every
/// query still walking runs window `w` before any runs window `w + 1`,
/// with its own state swapped into the context for its step
/// ([`ExecContext::swap_query`]). The context reads each slot from
/// `source` once for the whole group ([`ExecContext::with_shared_reads`]). A query is `report`ed as it ends: its
/// foundset decoded to dense words and its own [`EvalStats`], classified
/// as [`classify`] does. `running` names the query being worked on.
fn evaluate_group<'q, S: BitmapSource>(
    source: &mut S,
    group: impl ExactSizeIterator<Item = (usize, &'q Query)>,
    algorithm: Algorithm,
    segment_bits: usize,
    options: &BatchOptions,
    report: &mut dyn FnMut(usize, QueryOutcome<(BitVec, EvalStats)>),
    running: &Cell<Option<usize>>,
) {
    let mut ctx = context(source, options).with_shared_reads();
    let mut walking: Vec<(usize, Cursor, QueryState)> = Vec::with_capacity(group.len());
    for (i, query) in group {
        if options.deadline.is_some_and(|d| d.expired()) {
            report(i, QueryOutcome::TimedOut);
            continue;
        }
        running.set(Some(i));
        match Cursor::prepare(&mut ctx, query, algorithm, Some(segment_bits), true) {
            Ok(cursor) => {
                let mut parked = QueryState::default();
                ctx.swap_query(&mut parked);
                walking.push((i, cursor, parked));
            }
            Err(e) => report(i, ended(&mut ctx, Err(e))),
        }
    }
    while !walking.is_empty() {
        let mut k = 0;
        while k < walking.len() {
            let (i, cursor, parked) = &mut walking[k];
            running.set(Some(*i));
            ctx.swap_query(parked);
            match cursor.step(&mut ctx) {
                Ok(true) => {
                    ctx.swap_query(parked);
                    k += 1;
                }
                stepped => {
                    // The context holds the ended query's state.
                    let (i, cursor, _) = walking.remove(k);
                    report(i, ended(&mut ctx, stepped.map(|_| cursor.finish())));
                }
            }
        }
    }
}

/// The ending of the query whose state `ctx` holds: its answer decoded to
/// dense words, with its [`EvalStats`], [`classify`]'d. The context is
/// left clear for the next query.
fn ended<S: BitmapSource>(
    ctx: &mut ExecContext<'_, S>,
    answer: Result<Answer>,
) -> QueryOutcome<(BitVec, EvalStats)> {
    let found = answer
        .map(|answer| ctx.materialize(answer.into_bits().expect("a workload keeps its foundsets")));
    let stats = ctx.take_stats();
    classify(found.map(|found| ((found, stats), stats.degraded_fetches > 0)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bindex_core::eval::naive;
    use bindex_core::{IndexSpec, Repr};
    use bindex_relation::gen;
    use bindex_relation::query::Op;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// The base-<5, 8> range layout most of these workloads run over.
    fn range_spec() -> IndexSpec {
        IndexSpec::new(
            bindex_core::Base::from_msb(&[5, 8]).unwrap(),
            bindex_core::Encoding::Range,
        )
    }

    fn range_index(col: &bindex_relation::Column) -> bindex_core::BitmapIndex {
        bindex_core::BitmapIndex::build(col, range_spec()).unwrap()
    }

    /// Twenty-four `≤` / `>` / `=` / `≠` selections over a 2,000-row
    /// uniform column under [`range_index`], run with `options`.
    fn workload(options: &BatchOptions) -> WorkloadReport<(BitVec, EvalStats)> {
        let col = gen::uniform(2000, 40, 1);
        let idx = range_index(&col);
        let queries: Vec<SelectionQuery> = (0..24)
            .map(|v| SelectionQuery::new([Op::Le, Op::Gt, Op::Eq, Op::Ne][v as usize % 4], v))
            .collect();
        evaluate_selection_workload(|| idx.source(), &queries, Algorithm::Auto, options)
    }

    #[test]
    fn parallel_matches_single_thread() {
        let single = workload(&BatchOptions::single_threaded());
        let multi = workload(&BatchOptions::with_threads(4));
        assert!(single.health.all_ok(), "{:?}", single.health);
        assert!(multi.health.all_ok(), "{:?}", multi.health);
        assert_eq!(single.outcomes.len(), multi.outcomes.len());
        for (i, (s, m)) in single.outcomes.iter().zip(&multi.outcomes).enumerate() {
            assert_eq!(s, m, "query {i}");
        }
    }

    #[test]
    fn selection_workload_matches_naive_in_parallel() {
        let col = gen::uniform(1500, 40, 7);
        let idx = range_index(&col);
        let queries: Vec<SelectionQuery> = (0..40)
            .map(|v| SelectionQuery::new(if v % 2 == 0 { Op::Le } else { Op::Eq }, v))
            .collect();
        let results = evaluate_selection_workload(
            || idx.source(),
            &queries,
            Algorithm::Auto,
            &BatchOptions::with_threads(4),
        )
        .into_results()
        .unwrap();
        assert_eq!(results.len(), queries.len());
        for (q, (found, stats)) in queries.iter().zip(&results) {
            assert_eq!(found, &naive::evaluate(&col, *q), "{q}");
            assert!(stats.scans > 0 || q.constant == 0, "{q}");
        }
        // Stats must be identical to the sequential run, per query.
        let sequential = evaluate_selection_workload(
            || idx.source(),
            &queries,
            Algorithm::Auto,
            &BatchOptions::single_threaded(),
        )
        .into_results()
        .unwrap();
        assert_eq!(results, sequential);
    }

    /// A workload over base index ⊕ ingest overlay (appends plus deletes
    /// that have not been compacted yet) answers exactly like the same
    /// workload over an index rebuilt from the merged relation — on the
    /// whole-bitmap path and the segmented path, sequential and parallel.
    #[test]
    fn overlay_workload_matches_rebuilt_index() {
        let cardinality = 40;
        let base_col = gen::uniform(1400, cardinality, 13);
        let delta_col = gen::uniform(200, cardinality, 17);
        let spec = range_spec();
        let base_idx = bindex_core::BitmapIndex::build(&base_col, spec.clone()).unwrap();
        let delta_idx = bindex_core::BitmapIndex::build(&delta_col, spec.clone()).unwrap();
        let n_rows = base_col.len() + delta_col.len();
        let deleted = BitVec::from_indices(n_rows, &[3, 777, 1399, 1400, 1555]);
        let overlay = Arc::new(
            bindex_core::DeltaOverlay::from_index(base_col.len(), &delta_idx, deleted.clone())
                .unwrap(),
        );
        let merged: Vec<u32> = base_col
            .values()
            .iter()
            .chain(delta_col.values())
            .copied()
            .collect();
        let merged_col = bindex_relation::Column::new(merged, cardinality);
        let ref_idx =
            bindex_core::BitmapIndex::build_with_nulls(&merged_col, &deleted, spec).unwrap();
        let queries: Vec<SelectionQuery> = (0..40)
            .map(|v| SelectionQuery::new([Op::Le, Op::Gt, Op::Eq, Op::Ne][v as usize % 4], v))
            .collect();
        let expected = evaluate_selection_workload(
            || ref_idx.source(),
            &queries,
            Algorithm::Auto,
            &BatchOptions::single_threaded(),
        )
        .into_results()
        .unwrap();
        for threads in [1usize, 4] {
            for segment_bits in [None, Some(512)] {
                let mut options =
                    BatchOptions::with_threads(threads).with_overlay(Some(overlay.clone()));
                if let Some(bits) = segment_bits {
                    options = options.with_segment_bits(bits);
                }
                let report = evaluate_selection_workload(
                    || base_idx.source(),
                    &queries,
                    Algorithm::Auto,
                    &options,
                );
                assert!(report.health.all_ok(), "{:?}", report.health);
                let got = report.into_results().unwrap();
                for (i, ((ef, _), (gf, _))) in expected.iter().zip(&got).enumerate() {
                    assert_eq!(
                        ef, gf,
                        "foundset query {i} threads {threads} segment {segment_bits:?}"
                    );
                }
            }
        }
    }

    /// Threshold workloads answer identically to the per-row reference
    /// on the whole-bitmap and segmented paths, sequential and parallel,
    /// with paper-model stats parity between the two paths — and a
    /// malformed query fails alone with the typed error.
    #[test]
    fn threshold_workload_matches_reference_on_all_paths() {
        let col = gen::uniform(3000, 40, 19);
        let idx = range_index(&col);
        let queries: Vec<ThresholdQuery> = (0..12u32)
            .map(|v| {
                ThresholdQuery::new(
                    1 + v % 3,
                    vec![
                        SelectionQuery::new(Op::Le, 10 + v),
                        SelectionQuery::new(Op::Ge, v),
                        SelectionQuery::new(Op::Ne, 3 * v % 40),
                    ],
                )
            })
            .collect();
        let whole = evaluate_threshold_workload(
            || idx.source(),
            &queries,
            Algorithm::Auto,
            &BatchOptions::single_threaded(),
        )
        .into_results()
        .unwrap();
        for (q, (found, _)) in queries.iter().zip(&whole) {
            let want = BitVec::from_fn(col.len(), |r| q.matches(col.values()[r]));
            assert_eq!(found, &want, "{q}");
        }
        for threads in [1usize, 4] {
            for segment_bits in [None, Some(512)] {
                let mut options = BatchOptions::with_threads(threads);
                if let Some(bits) = segment_bits {
                    options = options.with_segment_bits(bits);
                }
                let report = evaluate_threshold_workload(
                    || idx.source(),
                    &queries,
                    Algorithm::Auto,
                    &options,
                );
                assert!(report.health.all_ok(), "{:?}", report.health);
                let got = report.into_results().unwrap();
                for (i, ((wf, ws), (gf, gs))) in whole.iter().zip(&got).enumerate() {
                    assert_eq!(wf, gf, "query {i} threads {threads} seg {segment_bits:?}");
                    assert_eq!(
                        (ws.scans, ws.ands, ws.ors, ws.threshold_combines),
                        (gs.scans, gs.ands, gs.ors, gs.threshold_combines),
                        "stats query {i} threads {threads} seg {segment_bits:?}"
                    );
                }
            }
        }
        // One malformed query fails alone with the typed error.
        let mut mixed = queries[..2].to_vec();
        mixed.push(ThresholdQuery::new(5, queries[0].predicates.clone()));
        for segment_bits in [None, Some(512)] {
            let mut options = BatchOptions::with_threads(2);
            if let Some(bits) = segment_bits {
                options = options.with_segment_bits(bits);
            }
            let report =
                evaluate_threshold_workload(|| idx.source(), &mixed, Algorithm::Auto, &options);
            assert_eq!(report.health.ok, 2, "{:?}", report.health);
            assert_eq!(report.health.failed, 1, "{:?}", report.health);
            assert!(
                matches!(report.outcomes[2].error(), Some(Error::InvalidQuery(_))),
                "{:?}",
                report.outcomes[2]
            );
        }
    }

    /// Segment-at-a-time workload execution returns the same foundsets
    /// and the same paper-model statistics as the whole-bitmap path,
    /// sequential and parallel.
    #[test]
    fn segmented_workload_matches_whole_bitmap() {
        let col = gen::uniform(3000, 40, 11);
        let idx = range_index(&col);
        let queries: Vec<SelectionQuery> = (0..40)
            .map(|v| SelectionQuery::new(if v % 2 == 0 { Op::Le } else { Op::Gt }, v))
            .collect();
        let whole = evaluate_selection_workload(
            || idx.source(),
            &queries,
            Algorithm::Auto,
            &BatchOptions::single_threaded(),
        )
        .into_results()
        .unwrap();
        for threads in [1usize, 4] {
            let options = BatchOptions::with_threads(threads).with_segment_bits(512);
            let report =
                evaluate_selection_workload(|| idx.source(), &queries, Algorithm::Auto, &options);
            assert!(report.health.all_ok(), "{:?}", report.health);
            let segmented = report.into_results().unwrap();
            for (i, ((wf, ws), (sf, ss))) in whole.iter().zip(&segmented).enumerate() {
                assert_eq!(wf, sf, "foundset query {i} threads {threads}");
                assert_eq!(
                    (ws.scans, ws.ands, ws.ors, ws.xors, ws.nots),
                    (ss.scans, ss.ands, ss.ors, ss.xors, ss.nots),
                    "stats query {i} threads {threads}"
                );
                assert_eq!(ss.segments_evaluated, 3000usize.div_ceil(512));
            }
        }
    }

    #[test]
    fn segmented_workload_isolates_panics_and_deadlines() {
        let queries = panicky_queries();
        for threads in [1, 3] {
            let options = BatchOptions::with_threads(threads).with_segment_bits(512);
            let report = panicky_workload(5000, &options);
            assert_eq!(report.health.failed, queries.len(), "{:?}", report.health);
            assert_eq!(report.health.worker_panics, queries.len());
        }
        // An already-expired deadline times out every query before it runs.
        let col = gen::uniform(2000, 9, 3);
        let idx = bindex_core::BitmapIndex::build(
            &col,
            IndexSpec::new(
                bindex_core::Base::single(9).unwrap(),
                bindex_core::Encoding::Range,
            ),
        )
        .unwrap();
        let options = BatchOptions::with_threads(2)
            .with_segment_bits(512)
            .with_deadline(Deadline::after(Duration::ZERO));
        let report =
            evaluate_selection_workload(|| idx.source(), &queries, Algorithm::Auto, &options);
        assert_eq!(
            report.health.timed_out,
            queries.len(),
            "{:?}",
            report.health
        );
    }

    #[test]
    fn segment_bits_validation() {
        let opts = BatchOptions::single_threaded().with_segment_bits(4096);
        assert_eq!(opts.segment_bits(), Some(4096));
        assert!(BatchOptions::single_threaded().segment_bits().is_none());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn with_segment_bits_rejects_invalid() {
        let _ = BatchOptions::single_threaded().with_segment_bits(1000);
    }

    #[test]
    fn options_clamp_the_thread_count() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert_eq!(BatchOptions::with_threads(0).threads(), 1);
        assert_eq!(BatchOptions::with_threads(8).threads(), 8.min(cores));
    }

    #[test]
    fn one_thread_is_never_clamped_and_oversubscription_still_is() {
        assert_eq!(BatchOptions::with_threads(1).threads(), 1);
        assert_eq!(BatchOptions::single_threaded().threads(), 1);
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        // Twice: the second request reads the cap resolved by the first.
        for _ in 0..2 {
            assert_eq!(BatchOptions::with_threads(cores + 3).threads(), cores);
        }
        assert_eq!(
            BatchOptions::with_threads_unclamped(cores + 3).threads(),
            cores + 3
        );
    }

    /// A clustered range index served the way a slot-coded store serves
    /// it: every slot WAH-compressed, one of them optionally unreadable.
    struct WahSource<'a> {
        index: &'a bindex_core::BitmapIndex,
        broken: Option<(usize, usize)>,
        fetches: usize,
    }

    impl BitmapSource for WahSource<'_> {
        fn spec(&self) -> &IndexSpec {
            self.index.spec()
        }
        fn n_rows(&self) -> usize {
            self.index.n_rows()
        }
        fn try_fetch(&mut self, comp: usize, slot: usize) -> Result<BitVec> {
            self.try_fetch_repr(comp, slot)
                .map(|repr| (*repr.to_bitvec()).clone())
        }
        fn try_fetch_nn(&mut self) -> Result<Option<BitVec>> {
            Ok(None)
        }
        fn try_fetch_repr(&mut self, comp: usize, slot: usize) -> Result<Repr> {
            self.fetches += 1;
            if self.broken == Some((comp, slot)) {
                return Err(Error::ChecksumMismatch(format!("c{comp}_b{slot}.bmp")));
            }
            Ok(Repr::wah(bindex_compress::wah::WahBitmap::from_bitvec(
                self.index.bitmap(comp, slot),
            )))
        }
    }

    /// Runs of 2,000 equal values under a range index: every slot
    /// compresses far below the 1/16 rule.
    fn clustered() -> (bindex_relation::Column, bindex_core::BitmapIndex) {
        let col = gen::clustered(40_000, 40, 2000, 5);
        let idx = range_index(&col);
        (col, idx)
    }

    /// A segmented workload is the same workload at every thread count:
    /// over compressed slots each query is folded in the WAH domain — and
    /// decoded once, at the workload's `BitVec` boundary — on one thread
    /// and on four, with the same answers and the same statistics.
    #[test]
    fn segmented_workload_reports_the_same_stats_at_every_thread_count() {
        let (col, idx) = clustered();
        let queries: Vec<SelectionQuery> = (0..40)
            .map(|v| SelectionQuery::new([Op::Le, Op::Gt, Op::Eq, Op::Ne][v as usize % 4], v))
            .collect();
        let run = |options: BatchOptions| {
            evaluate_selection_workload(
                || WahSource {
                    index: &idx,
                    broken: None,
                    fetches: 0,
                },
                &queries,
                Algorithm::Auto,
                &options.with_segment_bits(4096),
            )
            .into_results()
            .unwrap()
        };
        let one = run(BatchOptions::single_threaded());
        assert_eq!(one, run(BatchOptions::with_threads_unclamped(4)));
        for (q, (found, stats)) in queries.iter().zip(&one) {
            assert_eq!(found, &naive::evaluate(&col, *q), "{q}");
            assert_eq!(stats.compressed_ops, stats.total_ops(), "{q}");
            assert_eq!(stats.materializations, 1, "{q}");
        }
    }

    /// The single-query entry answers like a one-query workload — in the
    /// representation evaluation produced — and classifies every ending
    /// the way a workload does.
    #[test]
    fn single_query_entry_matches_a_one_query_workload() {
        let (col, idx) = clustered();
        let wah = |broken| WahSource {
            index: &idx,
            broken,
            fetches: 0,
        };
        let options = BatchOptions::single_threaded().with_segment_bits(4096);
        for v in 0..40 {
            let q = SelectionQuery::new([Op::Le, Op::Gt, Op::Eq, Op::Ne][v as usize % 4], v);
            let want = naive::evaluate(&col, q);
            // Compressed slots: a compressed foundset, nothing decoded; the
            // workload decodes exactly the result at its `BitVec` boundary.
            let outcome = evaluate_query(
                &mut wah(None),
                &q.into(),
                Algorithm::Auto,
                &options,
                Sink::Keep,
            );
            let (found, stats) = outcome.into_result().expect("answered");
            let found = found.into_bits().expect("the keep sink keeps the foundset");
            assert!(found.is_compressed(), "{q}");
            assert_eq!(found.count_ones(), want.count_ones(), "{q}");
            assert_eq!(stats.materializations, 0, "{q}");
            let report = evaluate_selection_workload(
                || wah(None),
                std::slice::from_ref(&q),
                Algorithm::Auto,
                &options,
            );
            let (bits, batch_stats) = report.into_results().unwrap().remove(0);
            assert_eq!(bits, want, "{q}");
            assert_eq!(
                batch_stats,
                EvalStats {
                    materializations: 1,
                    ..stats
                },
                "{q}"
            );
            // Literal slots: the segmented dense evaluation, as before.
            let outcome = evaluate_query(
                &mut idx.source(),
                &q.into(),
                Algorithm::Auto,
                &options,
                Sink::Keep,
            );
            let (found, stats) = outcome.into_result().expect("answered");
            let found = found.into_bits().expect("the keep sink keeps the foundset");
            assert!(!found.is_compressed(), "{q}");
            assert_eq!(*found.to_bitvec(), want, "{q}");
            assert_eq!(stats.segments_evaluated, 40_000usize.div_ceil(4096), "{q}");
        }

        let q = SelectionQuery::new(Op::Le, 17);
        // An expired deadline refuses the query before it touches the source.
        let mut source = wah(None);
        let expired = options
            .clone()
            .with_deadline(Deadline::after(Duration::ZERO));
        assert!(matches!(
            evaluate_query(
                &mut source,
                &q.into(),
                Algorithm::Auto,
                &expired,
                Sink::Keep
            ),
            QueryOutcome::TimedOut
        ));
        assert_eq!(source.fetches, 0);
        // An unreadable slot fails the query, or degrades it under a policy
        // that can rebuild the slot — to dense words, so on the dense path.
        let broken = Some((2, 1));
        let outcome = evaluate_query(
            &mut wah(broken),
            &q.into(),
            Algorithm::Auto,
            &options,
            Sink::Keep,
        );
        assert!(matches!(outcome.error(), Some(Error::ChecksumMismatch(_))));
        let recovering = options
            .clone()
            .with_recovery(RecoveryPolicy::ReconstructOrScan(Arc::new(col.clone())));
        let outcome = evaluate_query(
            &mut wah(broken),
            &q.into(),
            Algorithm::Auto,
            &recovering,
            Sink::Keep,
        );
        assert!(outcome.is_degraded());
        let (found, stats) = outcome.into_result().unwrap();
        let found = found.into_bits().expect("the keep sink keeps the foundset");
        assert!(!found.is_compressed());
        assert_eq!(*found.to_bitvec(), naive::evaluate(&col, q));
        assert_eq!((stats.degraded_fetches, stats.compressed_ops), (1, 0));
        // A panic is that query's failure, not the caller's.
        let mut panicky = PanickySource {
            spec: idx.spec().clone(),
            n_rows: 100,
        };
        let outcome = evaluate_query(
            &mut panicky,
            &q.into(),
            Algorithm::Auto,
            &options,
            Sink::Keep,
        );
        assert!(matches!(outcome.error(), Some(Error::WorkerPanic(_))));

        // A threshold takes the same entry: the one-query workload's dense
        // foundset and statistics, and a malformed one is its own failure.
        let preds = vec![
            SelectionQuery::new(Op::Le, 17),
            SelectionQuery::new(Op::Ge, 9),
            SelectionQuery::new(Op::Ne, 12),
        ];
        let threshold = ThresholdQuery::new(2, preds.clone());
        let report = evaluate_threshold_workload(
            || wah(None),
            std::slice::from_ref(&threshold),
            Algorithm::Auto,
            &options,
        );
        let (bits, batch_stats) = report.into_results().unwrap().remove(0);
        assert_eq!(
            bits,
            BitVec::from_fn(col.len(), |r| threshold.matches(col.values()[r]))
        );
        let query = Query::Threshold(threshold);
        let outcome = evaluate_query(
            &mut wah(None),
            &query,
            Algorithm::Auto,
            &options,
            Sink::Keep,
        );
        let (found, stats) = outcome.into_result().expect("answered");
        let found = found.into_bits().expect("the keep sink keeps the foundset");
        assert!(!found.is_compressed());
        assert_eq!((&*found.to_bitvec(), stats), (&bits, batch_stats));
        let malformed = Query::Threshold(ThresholdQuery::new(4, preds));
        let outcome = evaluate_query(
            &mut wah(None),
            &malformed,
            Algorithm::Auto,
            &options,
            Sink::Keep,
        );
        assert!(matches!(outcome.error(), Some(Error::InvalidQuery(_))));
    }

    /// The one query that reads a permanently unreadable slot fails; every
    /// other query of the workload is answered, bit-exact.
    #[test]
    fn failing_query_is_isolated() {
        const CARD: u32 = 16;
        let col = gen::uniform(2000, CARD, 3);
        let spec = IndexSpec::new(
            bindex_core::Base::single(CARD).unwrap(),
            bindex_core::Encoding::Equality,
        );
        let idx = bindex_core::BitmapIndex::build(&col, spec).unwrap();
        // On an equality index `A = v` reads slot (1, v) and nothing else.
        let queries: Vec<SelectionQuery> =
            (0..CARD).map(|v| SelectionQuery::new(Op::Eq, v)).collect();
        let source = || WahSource {
            index: &idx,
            broken: Some((1, 5)),
            fetches: 0,
        };
        for options in [
            BatchOptions::with_threads_unclamped(2),
            BatchOptions::single_threaded(),
        ] {
            let report = evaluate_selection_workload(source, &queries, Algorithm::Auto, &options);
            assert_eq!(report.health.ok, CARD as usize - 1, "{:?}", report.health);
            assert_eq!(report.health.failed, 1, "{:?}", report.health);
            for (q, outcome) in queries.iter().zip(&report.outcomes) {
                if q.constant == 5 {
                    assert!(matches!(outcome.error(), Some(Error::ChecksumMismatch(_))));
                } else {
                    assert_eq!(
                        outcome.result().unwrap().0,
                        naive::evaluate(&col, *q),
                        "{q}"
                    );
                }
            }
            assert!(report.into_results().is_err());
        }
    }

    /// A source whose fetches panic: drives the panic-isolation path.
    struct PanickySource {
        spec: IndexSpec,
        n_rows: usize,
    }

    impl BitmapSource for PanickySource {
        fn spec(&self) -> &IndexSpec {
            &self.spec
        }
        fn n_rows(&self) -> usize {
            self.n_rows
        }
        fn try_fetch(&mut self, comp: usize, slot: usize) -> bindex_core::error::Result<BitVec> {
            panic!("injected panic fetching ({comp}, {slot})");
        }
        fn try_fetch_nn(&mut self) -> bindex_core::error::Result<Option<BitVec>> {
            Ok(None)
        }
    }

    fn panicky_queries() -> Vec<SelectionQuery> {
        (1..9).map(|v| SelectionQuery::new(Op::Eq, v)).collect()
    }

    /// [`panicky_queries`] over an `n_rows`-row source whose every fetch
    /// panics.
    fn panicky_workload(
        n_rows: usize,
        options: &BatchOptions,
    ) -> WorkloadReport<(BitVec, EvalStats)> {
        let spec = IndexSpec::new(
            bindex_core::Base::from_msb(&[4, 5]).unwrap(),
            bindex_core::Encoding::Range,
        );
        let make = || PanickySource {
            spec: spec.clone(),
            n_rows,
        };
        evaluate_selection_workload(make, &panicky_queries(), Algorithm::Auto, options)
    }

    #[test]
    fn panicking_queries_become_worker_panic_outcomes() {
        let queries = panicky_queries();
        for threads in [1, 3] {
            let report = panicky_workload(100, &BatchOptions::with_threads(threads));
            assert_eq!(report.health.failed, queries.len(), "{:?}", report.health);
            assert_eq!(
                report.health.worker_panics,
                queries.len(),
                "{:?}",
                report.health
            );
            for o in &report.outcomes {
                match o.error() {
                    Some(Error::WorkerPanic(msg)) => {
                        assert!(msg.contains("injected panic"), "{msg}")
                    }
                    other => panic!("expected WorkerPanic, got {other:?}"),
                }
            }
        }
    }

    /// Sixteen `=` selections over an equality index at `threads`
    /// workers, whose sources panic fetching slot (1, 0) — the sixth
    /// query, `A = 0` — and whose factory builds one source per worker,
    /// then panics. Returns the column, the queries and the report; on a
    /// thread of its own, so a workload that never returns fails the test
    /// instead of wedging the suite.
    fn fragile_workload(
        threads: usize,
    ) -> (
        bindex_relation::Column,
        Vec<SelectionQuery>,
        WorkloadReport<(BitVec, EvalStats)>,
    ) {
        /// Panics fetching slot (1, 0); slow enough elsewhere that every
        /// worker is up before the panic.
        struct FragileSource<S>(S);

        impl<S: BitmapSource> BitmapSource for FragileSource<S> {
            fn spec(&self) -> &IndexSpec {
                self.0.spec()
            }
            fn n_rows(&self) -> usize {
                self.0.n_rows()
            }
            fn try_fetch(&mut self, comp: usize, slot: usize) -> Result<BitVec> {
                assert!((comp, slot) != (1, 0), "injected panic fetching (1, 0)");
                std::thread::sleep(Duration::from_millis(2));
                self.0.try_fetch(comp, slot)
            }
            fn try_fetch_nn(&mut self) -> Result<Option<BitVec>> {
                self.0.try_fetch_nn()
            }
        }

        const CARD: u32 = 16;
        let col = gen::uniform(2000, CARD, 3);
        let spec = IndexSpec::new(
            bindex_core::Base::single(CARD).unwrap(),
            bindex_core::Encoding::Equality,
        );
        let idx = Arc::new(bindex_core::BitmapIndex::build(&col, spec).unwrap());
        let queries: Vec<SelectionQuery> = (0..CARD)
            .map(|i| SelectionQuery::new(Op::Eq, (i + 11) % CARD))
            .collect();
        let (tx, rx) = std::sync::mpsc::channel();
        let (shared, workload) = (Arc::clone(&idx), queries.clone());
        std::thread::spawn(move || {
            let built = AtomicUsize::new(0);
            let make = || {
                let nth = built.fetch_add(1, Ordering::Relaxed);
                assert!(nth < threads, "injected factory panic");
                FragileSource(shared.source())
            };
            let options = BatchOptions::with_threads_unclamped(threads);
            let _ = tx.send(evaluate_selection_workload(
                make,
                &workload,
                Algorithm::Auto,
                &options,
            ));
        });
        let report = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the workload hung behind its dead worker or panicked");
        (col, queries, report)
    }

    /// A worker whose source factory panics on the rebuild after a
    /// panicking query dies alone: that query is its own `WorkerPanic`,
    /// the surviving worker claims everything else, and the report comes
    /// back — nobody waits for the dead worker.
    #[test]
    fn a_factory_that_panics_on_rebuild_does_not_hang_the_workload() {
        let (col, queries, report) = fragile_workload(2);
        // Every query but `A = 0` is answered, bit-exact.
        let got = report
            .outcomes
            .iter()
            .map(|o| o.result().map(|r| r.0.clone()));
        let want = queries
            .iter()
            .map(|q| (q.constant != 0).then(|| naive::evaluate(&col, *q)));
        assert!(got.eq(want), "{:?}", report.health);
        assert_eq!(report.health.worker_panics, 1, "{:?}", report.health);
    }

    /// The same factory at one thread, where the worker runs inline: its
    /// death is the caller's report, not the caller's panic. The first
    /// claim, one query, is answered; the group that reads (1, 0) is not.
    #[test]
    fn a_factory_that_panics_on_rebuild_at_one_thread_returns_its_report() {
        let (col, queries, report) = fragile_workload(1);
        let first = report.outcomes[0].result().map(|r| &r.0);
        assert_eq!(first, Some(&naive::evaluate(&col, queries[0])));
        let health = report.health;
        assert_eq!((health.ok, health.worker_panics), (1, 15), "{health:?}");
        assert_eq!(health.total(), 16, "{health:?}");
    }

    #[test]
    fn expired_deadline_times_out_unstarted_queries() {
        let options = BatchOptions::with_threads(2).with_deadline(Deadline::after(Duration::ZERO));
        let report = workload(&options);
        assert_eq!(report.health.timed_out, 24, "{:?}", report.health);
        assert_eq!(report.health.total(), 24);
        assert!(report.into_results().is_err());
    }

    #[test]
    fn deadline_accessors_behave() {
        let d = Deadline::after(Duration::from_secs(3600));
        assert!(!d.expired());
        assert!(d.remaining() > Duration::from_secs(3000));
        let past = Deadline::at(Instant::now());
        assert!(past.expired());
        assert_eq!(past.remaining(), Duration::ZERO);
    }

    #[test]
    fn unclamped_threads_skip_the_parallelism_cap() {
        let o = BatchOptions::with_threads_unclamped(6);
        assert_eq!(o.threads(), 6);
        // And the workload still runs correctly with more workers than
        // cores (the whole point on a small CI box).
        let report = workload(&o);
        assert!(report.health.all_ok(), "{:?}", report.health);
        let single = workload(&BatchOptions::single_threaded());
        assert_eq!(report.outcomes, single.outcomes);
    }

    #[test]
    fn empty_workload_is_fine() {
        let col = gen::uniform(2000, 40, 1);
        let idx = range_index(&col);
        let options = BatchOptions::with_threads(4);
        let out = evaluate_selection_workload(|| idx.source(), &[], Algorithm::Auto, &options);
        assert!(out.outcomes.is_empty());
        assert!(out.health.all_ok());
        assert_eq!(out.health.total(), 0);
    }

    /// A relation of five default windows, the last one ragged, under a
    /// `<10,10>` range index.
    fn grouped() -> (bindex_relation::Column, bindex_core::BitmapIndex) {
        let col = gen::uniform((1 << 20) + 4321, 100, 23);
        let spec = IndexSpec::new(
            bindex_core::Base::from_msb(&[10, 10]).unwrap(),
            bindex_core::Encoding::Range,
        );
        let idx = bindex_core::BitmapIndex::build(&col, spec).unwrap();
        assert!(!col.len().is_multiple_of(DEFAULT_SEGMENT_BITS));
        (col, idx)
    }

    /// The counters the paper's cost model prices.
    fn paper_counters(s: &EvalStats) -> [usize; 7] {
        [
            s.scans,
            s.ands,
            s.ors,
            s.xors,
            s.nots,
            s.threshold_combines,
            s.buffer_hits,
        ]
    }

    /// A window-major batch of all six operators (a head query, a group
    /// and a ragged last group) and of 2-of-4 thresholds answers
    /// like today's query-by-query batch at every thread count: the
    /// whole-bitmap batch's foundsets and paper-model counters, and the
    /// full [`EvalStats`] of one query windowed alone at the default
    /// window, `segments_evaluated` the window count.
    #[test]
    fn a_window_major_batch_matches_the_query_by_query_batch() {
        let (col, idx) = grouped();
        let ops = [Op::Le, Op::Lt, Op::Ge, Op::Gt, Op::Eq, Op::Ne];
        let selections: Vec<SelectionQuery> = (0..GROUP_QUERIES + 45)
            .map(|i| SelectionQuery::new(ops[i % 6], (i as u32 * 37 + 5) % 101))
            .collect();
        let thresholds: Vec<ThresholdQuery> = (0..37u32)
            .map(|i| {
                let preds = (0..4).map(|p| {
                    SelectionQuery::new(ops[(i + p) as usize % 6], (i * 13 + p * 29) % 100)
                });
                ThresholdQuery::new(2, preds.collect())
            })
            .collect();
        let queries: Vec<Query> = selections
            .iter()
            .map(|&q| Query::Selection(q))
            .chain(thresholds.iter().cloned().map(Query::Threshold))
            .collect();
        let alone = |query: &Query, options: &BatchOptions| {
            let outcome = evaluate_query(
                &mut idx.source(),
                query,
                Algorithm::Auto,
                options,
                Sink::Keep,
            );
            let (found, stats) = outcome.into_result().expect("answered");
            let found = found.into_bits().expect("the keep sink keeps the foundset");
            ((*found.to_bitvec()).clone(), stats)
        };
        let whole: Vec<_> = queries
            .iter()
            .map(|q| alone(q, &BatchOptions::single_threaded()))
            .collect();
        let windowed = BatchOptions::single_threaded().with_segment_bits(DEFAULT_SEGMENT_BITS);
        let windowed: Vec<_> = queries.iter().map(|q| alone(q, &windowed)).collect();
        let windows = col.len().div_ceil(DEFAULT_SEGMENT_BITS);
        for threads in [1, 2, 4] {
            let options = BatchOptions::with_threads_unclamped(threads);
            // Counts the batch's reads from its sources.
            let fetches = Arc::new(AtomicUsize::new(0));
            let counting = || Faulty {
                inner: idx.source(),
                slot: (0, 0),
                fault: Fault::SleepAt(0, Duration::ZERO),
                fetches: Arc::clone(&fetches),
            };
            let mut got =
                evaluate_selection_workload(counting, &selections, Algorithm::Auto, &options)
                    .into_results()
                    .unwrap();
            got.extend(
                evaluate_threshold_workload(counting, &thresholds, Algorithm::Auto, &options)
                    .into_results()
                    .unwrap(),
            );
            // A claim reads each slot once for all its queries, which are
            // charged their reads one by one. At one thread the selections
            // are claimed as 1, 64 and 44 queries and the thresholds as 1
            // and 36: five claims of at most 18 reads.
            let reads = fetches.load(Ordering::Relaxed);
            let scans: usize = got.iter().map(|(_, stats)| stats.scans).sum();
            assert!(reads < scans, "{reads} reads, {scans} scans");
            if threads == 1 {
                assert!(reads as u64 <= 5 * idx.spec().stored_bitmaps(), "{reads}");
            }
            for (i, (query, (found, stats))) in queries.iter().zip(&got).enumerate() {
                let label = format!("query {i} {query} threads {threads}");
                assert_eq!(found, &whole[i].0, "{label}");
                assert_eq!(
                    paper_counters(stats),
                    paper_counters(&whole[i].1),
                    "{label}"
                );
                assert_eq!(*stats, windowed[i].1, "{label}");
                assert_eq!(stats.segments_evaluated, windows, "{label}");
            }
        }
        // Spot-check the reference against the rows themselves.
        for (q, (found, _)) in selections.iter().zip(&whole).step_by(7) {
            assert_eq!(found, &naive::evaluate(&col, *q), "{q}");
        }
    }

    /// How a [`Faulty`] source breaks.
    #[derive(Clone, Copy)]
    enum Fault {
        /// Fetching the slot panics.
        Panic,
        /// The slot fails its checksum.
        Checksum,
        /// The `n`-th fetch (1-based) sleeps for the duration first.
        SleepAt(usize, Duration),
    }

    /// A source that breaks on one slot, or sleeps on one fetch, and
    /// counts its fetches.
    struct Faulty<'a> {
        inner: bindex_core::MemorySource<'a>,
        slot: (usize, usize),
        fault: Fault,
        fetches: Arc<AtomicUsize>,
    }

    impl BitmapSource for Faulty<'_> {
        fn spec(&self) -> &IndexSpec {
            self.inner.spec()
        }
        fn n_rows(&self) -> usize {
            self.inner.n_rows()
        }
        fn try_fetch(&mut self, comp: usize, slot: usize) -> Result<BitVec> {
            self.try_fetch_repr(comp, slot)
                .map(|repr| (*repr.to_bitvec()).clone())
        }
        fn try_fetch_nn(&mut self) -> Result<Option<BitVec>> {
            self.inner.try_fetch_nn()
        }
        fn try_fetch_repr(&mut self, comp: usize, slot: usize) -> Result<Repr> {
            let nth = self.fetches.fetch_add(1, Ordering::Relaxed) + 1;
            match self.fault {
                Fault::Panic if (comp, slot) == self.slot => panic!("injected panic"),
                Fault::Checksum if (comp, slot) == self.slot => {
                    return Err(Error::ChecksumMismatch(format!("c{comp}_b{slot}.bmp")));
                }
                Fault::SleepAt(n, delay) if n == nth => std::thread::sleep(delay),
                _ => {}
            }
            self.inner.try_fetch_repr(comp, slot)
        }
    }

    /// One group walked window-major keeps every query's failure its own:
    /// a panicking fetch is that query's `WorkerPanic`, an unreadable slot
    /// its `Failed` — `Degraded` when the policy rebuilds the slot — and
    /// every group-mate answers `Ok`, bit-exact. A deadline that expires
    /// within the group's first window cancels its running queries at the
    /// next window boundary and times out the queries nobody claimed,
    /// while the head, claimed alone before the group, keeps its answer.
    #[test]
    fn a_group_isolates_its_queries() {
        let (col, idx) = grouped();
        let ops = [Op::Le, Op::Lt, Op::Ge, Op::Gt, Op::Eq, Op::Ne];
        // At one thread: the head query alone, then one group.
        let queries: Vec<SelectionQuery> = (0..1 + GROUP_QUERIES)
            .map(|i| SelectionQuery::new(ops[i % 6], (i as u32 * 53 + 2) % 100))
            .collect();
        let faulty = |fault| Faulty {
            inner: idx.source(),
            slot: (2, 4),
            fault,
            fetches: Arc::new(AtomicUsize::new(0)),
        };
        let recovering = BatchOptions::single_threaded()
            .with_recovery(RecoveryPolicy::ReconstructOrScan(Arc::new(col.clone())));
        for (fault, options) in [
            (Fault::Panic, BatchOptions::single_threaded()),
            (Fault::Checksum, BatchOptions::single_threaded()),
            (Fault::Checksum, recovering),
        ] {
            let report =
                evaluate_selection_workload(|| faulty(fault), &queries, Algorithm::Auto, &options);
            let (mut broken, mut fine) = (0, 0);
            for (k, (q, outcome)) in queries.iter().zip(&report.outcomes).enumerate() {
                let in_group = usize::from(k > 0);
                // What the query does alone, windowed as the batch does.
                let windowed = options.clone().with_segment_bits(DEFAULT_SEGMENT_BITS);
                let query = Query::Selection(*q);
                let alone = evaluate_query(
                    &mut faulty(fault),
                    &query,
                    Algorithm::Auto,
                    &windowed,
                    Sink::Keep,
                );
                match (outcome, &alone) {
                    (QueryOutcome::Ok((found, _)), QueryOutcome::Ok(_)) => {
                        fine += in_group;
                        assert_eq!(found, &naive::evaluate(&col, *q), "{q}");
                    }
                    (
                        QueryOutcome::Failed(Error::WorkerPanic(msg)),
                        QueryOutcome::Failed(Error::WorkerPanic(_)),
                    ) => {
                        broken += in_group;
                        assert!(msg.contains("injected panic"), "{q}: {msg}");
                    }
                    (
                        QueryOutcome::Failed(Error::ChecksumMismatch(_)),
                        QueryOutcome::Failed(Error::ChecksumMismatch(_)),
                    ) => broken += in_group,
                    (QueryOutcome::Degraded((found, stats)), QueryOutcome::Degraded(_)) => {
                        broken += in_group;
                        assert_eq!(found, &naive::evaluate(&col, *q), "{q}");
                        assert_eq!(stats.degraded_fetches, 1, "{q}");
                    }
                    (got, alone) => panic!("{q}: {got:?} in the group, {alone:?} alone"),
                }
            }
            assert!(broken > 0 && fine > 0, "{broken} broken, {fine} fine");
        }

        // The head's and the group's fetches all happen in their first
        // window: count them, then sleep past the deadline on the last.
        let fetches = Arc::new(AtomicUsize::new(0));
        let counted = evaluate_selection_workload(
            || Faulty {
                fetches: Arc::clone(&fetches),
                ..faulty(Fault::SleepAt(0, Duration::ZERO))
            },
            &queries,
            Algorithm::Auto,
            &BatchOptions::single_threaded(),
        );
        assert!(counted.health.all_ok(), "{:?}", counted.health);
        let last = fetches.load(Ordering::Relaxed);
        let mut more = queries.clone();
        more.extend(queries.iter().take(10));
        let options = BatchOptions::single_threaded()
            .with_deadline(Deadline::after(Duration::from_millis(300)));
        let report = evaluate_selection_workload(
            || faulty(Fault::SleepAt(last, Duration::from_millis(600))),
            &more,
            Algorithm::Auto,
            &options,
        );
        let (head, rest) = report.outcomes.split_first().unwrap();
        let (group, unclaimed) = rest.split_at(GROUP_QUERIES);
        assert!(head.is_ok(), "{head:?}");
        assert!(
            group
                .iter()
                .all(|o| matches!(o, QueryOutcome::DeadlineExceeded)),
            "{:?}",
            report.health
        );
        assert!(
            unclaimed
                .iter()
                .all(|o| matches!(o, QueryOutcome::TimedOut)),
            "{:?}",
            report.health
        );
    }
}
