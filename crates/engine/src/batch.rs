//! Parallel batch query execution: evaluate a workload of queries across
//! worker threads, one query per task, isolating each query's failures
//! from the rest of the workload.
//!
//! A decision-support session rarely asks one question; it asks hundreds
//! (the paper's Section 9 experiments average over 100-query workloads),
//! and the paper's unit of cost is the query. Queries of a workload are
//! independent, so they parallelize trivially — once everything on the
//! read path is shareable. That is what the `Arc` fetch cache in
//! [`ExecContext`] and the `&self`-based `SharedIndexReader` of the
//! storage crate buy: worker threads build one [`BitmapSource`] each from
//! a shared factory and take the next unclaimed query index off one
//! shared cursor until it passes the end. The task list is static —
//! nothing is re-enqueued — so that is all the scheduling there is:
//! queries start oldest first, no
//! query waits behind a particular worker (a skewed mix cannot convoy),
//! the imbalance at the end is at most one query, and a worker with
//! nothing left to claim returns instead of waiting, so one that dies
//! takes nobody with it. How a query is evaluated — compressed, window by
//! window, or whole — is [`evaluate_repr_in`]'s decision per query,
//! identical at every thread count.
//!
//! Independence cuts the other way too: one query hitting a corrupt
//! bitmap — or a bug that panics — is no reason to throw away the other
//! ninety-nine answers. Each query therefore runs under
//! [`catch_unwind`], its failure is recorded as its own
//! [`QueryOutcome`], and the workload keeps draining; a [`Deadline`]
//! bounds how long a sick store is hammered. The caller gets every
//! per-query outcome plus a [`BatchHealth`] summary instead of a
//! first-error abort.
//!
//! Built on the standard library's scoped threads — no runtime, no
//! dependency, no unsafe.
//! `threads = 1` runs inline on the calling thread, so single-threaded
//! baselines measure the sequential path itself rather than a one-worker
//! thread pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use bindex_bitvec::BitVec;
use bindex_core::error::{Error, Result};
use bindex_core::eval::{count_in, evaluate_repr_in, Algorithm};
use bindex_core::{BitmapSource, DeltaOverlay, EvalStats, ExecContext, RecoveryPolicy, Repr};
use bindex_relation::query::{Query, SelectionQuery, ThresholdQuery};

/// Smallest accepted segment size: anything below 512 bits spends more
/// time on per-segment bookkeeping than on bit operations.
pub const MIN_SEGMENT_BITS: usize = 512;

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
/// [`bindex_core::Deadline`]) so segment-at-a-time evaluation can check it
/// between segments, and re-exported here beside the workload options
/// that take it. Queries claimed after expiry come back
/// [`QueryOutcome::TimedOut`] without running; a segmented query that is
/// already running is cancelled at its next segment boundary and comes
/// back [`QueryOutcome::DeadlineExceeded`]; a whole-bitmap query that is
/// already running finishes.
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
    /// The [`Deadline`] expired while this query was running on the
    /// segmented path: evaluation was cancelled at a segment boundary and
    /// its partial foundset discarded, so shed work stops consuming
    /// cores. Only segment-at-a-time execution can produce this — a
    /// whole-bitmap query that has started always finishes.
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
    /// Queries cancelled mid-run at a segment boundary because the
    /// deadline expired (segmented execution only).
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
    /// Always 0: workers take queries from one shared cursor and there is
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
    /// (the shared cursor, panic isolation) on boxes with
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

    /// Switches the workload drivers and [`evaluate_query`] to
    /// segment-at-a-time execution with windows of `bits` bits. (A size
    /// larger than the relation is fine — the query just runs as one
    /// segment.)
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

    /// The segment size for segment-at-a-time execution, if enabled.
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

/// One query as one task under the workload's policy. Before it starts it
/// is refused — [`QueryOutcome::TimedOut`] — if the deadline has already
/// passed; otherwise `step`, which returns the answer plus a flag marking
/// it degraded, runs under [`catch_unwind`]: a panic is
/// [`Error::WorkerPanic`], and whatever state `step` was mutating must
/// then be rebuilt by the caller before it is used again. A `step` that
/// cancels itself with [`Error::DeadlineExceeded`]
/// (segmented evaluation checks the deadline between segments) is
/// [`QueryOutcome::DeadlineExceeded`]; every other error is
/// [`QueryOutcome::Failed`].
fn run_query<T>(
    options: &BatchOptions,
    step: impl FnOnce() -> Result<(T, bool)>,
) -> QueryOutcome<T> {
    if options.deadline.is_some_and(|d| d.expired()) {
        return QueryOutcome::TimedOut;
    }
    let ran = catch_unwind(AssertUnwindSafe(step))
        .unwrap_or_else(|payload| Err(Error::WorkerPanic(panic_message(payload.as_ref()))));
    match ran {
        Ok((v, false)) => QueryOutcome::Ok(v),
        Ok((v, true)) => QueryOutcome::Degraded(v),
        Err(Error::DeadlineExceeded) => QueryOutcome::DeadlineExceeded,
        Err(e) => QueryOutcome::Failed(e),
    }
}

/// The resilient query-per-task driver behind [`evaluate_queries`], and
/// the one place this module spawns threads. Runs `step(state, i)` for
/// every `i in 0..n` across the configured workers — inline for one
/// worker, on scoped threads otherwise — keeping outcomes in input order.
/// A worker takes the next index off the shared cursor and returns once
/// it has passed `n`.
///
/// Each worker owns one `init()`-built state (its bitmap source). Every
/// step runs through [`run_query`]; after a panic the worker rebuilds its
/// state — which the panic may have left inconsistent — before claiming
/// the next query.
fn run_workload<St, T, I, W>(
    n: usize,
    options: &BatchOptions,
    init: I,
    step: W,
) -> WorkloadReport<T>
where
    T: Send,
    I: Fn() -> St + Sync,
    W: Fn(&mut St, usize) -> Result<(T, bool)> + Sync,
{
    let threads = options.threads().min(n.max(1));
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<QueryOutcome<T>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let worker = || {
        let mut state = init();
        loop {
            // Relaxed: the cursor publishes nothing but the index itself.
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                return;
            }
            let outcome = run_query(options, || step(&mut state, i));
            let panicked = matches!(outcome, QueryOutcome::Failed(Error::WorkerPanic(_)));
            *slots[i].lock().expect("a slot is only ever assigned") = Some(outcome);
            // Unwind safety: the state a panic interrupted is discarded
            // and rebuilt, so no broken invariant is observed.
            if panicked {
                state = init();
            }
        }
    };
    if threads <= 1 {
        worker();
    } else {
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
            for h in handles {
                // A worker dies only outside `catch_unwind`: its `init`
                // panicked. What it finished is already in `slots`; the
                // others claim on. Queries nobody lived to report surface
                // below as WorkerPanic outcomes.
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

/// Evaluates one query as one task ([`run_query`]'s `step`): `evaluate`
/// runs it in a context built from `options` — recovery, deadline,
/// overlay — and returns what the caller keeps of it while the context can
/// still account for it.
fn query_step<S: BitmapSource, T>(
    source: &mut S,
    options: &BatchOptions,
    evaluate: impl FnOnce(&mut ExecContext<'_, S>) -> Result<T>,
) -> Result<((T, EvalStats), bool)> {
    let mut ctx = ExecContext::new(source)
        .with_recovery(options.recovery.clone())
        .with_deadline(options.deadline)
        .with_overlay(options.overlay.clone());
    let found = evaluate(&mut ctx)?;
    let stats = ctx.take_stats();
    Ok(((found, stats), stats.degraded_fetches > 0))
}

/// What [`evaluate_query`] keeps of a query's result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sink {
    /// The foundset, in the representation evaluation produced
    /// ([`evaluate_repr_in`]).
    Keep,
    /// Its cardinality alone ([`count_in`]): a selection writes no
    /// foundset at all.
    Count,
}

/// A query's result under its [`Sink`].
#[derive(Debug, Clone)]
pub enum Found {
    /// [`Sink::Keep`]: the foundset.
    Bits(Repr),
    /// [`Sink::Count`]: the number of qualifying rows.
    Count(u64),
}

impl Found {
    /// The number of qualifying rows, whichever sink produced it.
    pub fn count_ones(&self) -> u64 {
        match self {
            Found::Bits(bits) => bits.count_ones() as u64,
            Found::Count(n) => *n,
        }
    }

    /// The foundset, when [`Sink::Keep`] produced it.
    pub fn into_bits(self) -> Option<Repr> {
        match self {
            Found::Bits(bits) => Some(bits),
            Found::Count(_) => None,
        }
    }
}

/// Evaluates one query of either kind on the calling thread under the
/// policy of `options` (deadline, recovery, overlay, segment size; the
/// worker count plays no part) — what a one-query workload does,
/// without the workload: no outcome vector. `sink` picks what comes
/// back: [`Sink::Keep`] returns the foundset in the representation
/// evaluation produced, so a caller that caches it never pays for dense
/// words ([`Repr::count_ones`] is O(compressed words) on [`Repr::Wah`]; a
/// threshold's is always [`Repr::Literal`]); [`Sink::Count`] returns its
/// cardinality, with the same [`EvalStats`]. The ending is classified
/// exactly as in a workload — a malformed threshold is
/// [`QueryOutcome::Failed`]\([`Error::InvalidQuery`]\); after
/// [`Error::WorkerPanic`] the caller should rebuild `source`.
pub fn evaluate_query<S: BitmapSource>(
    source: &mut S,
    query: &Query,
    algorithm: Algorithm,
    options: &BatchOptions,
    sink: Sink,
) -> QueryOutcome<(Found, EvalStats)> {
    let segment_bits = options.segment_bits;
    run_query(options, || {
        query_step(source, options, |ctx| {
            Ok(match sink {
                Sink::Keep => Found::Bits(evaluate_repr_in(ctx, query, algorithm, segment_bits)?),
                Sink::Count => Found::Count(count_in(ctx, query, algorithm, segment_bits)?),
            })
        })
    })
}

/// Evaluates a workload of single-attribute selection queries, one
/// [`BitmapSource`] per worker from `make_source` (e.g. a closure opening
/// a source backed by the storage crate's `SharedIndexReader`). Returns
/// per-query outcomes holding foundsets and [`EvalStats`], in workload
/// order. With a [`RecoveryPolicy`] in `options`, queries that had to
/// reconstruct an unreadable bitmap come back
/// [`QueryOutcome::Degraded`] — still bit-exact.
///
/// A query is one task: [`evaluate_query`]'s evaluation, its foundset
/// decoded to dense words.
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

/// The one driver behind both workload entry points: a query is one task
/// of [`run_workload`], evaluated by [`query_step`] and decoded to dense
/// words.
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
    run_workload(queries.len(), options, &make_source, |source, i| {
        query_step(source, options, |ctx| {
            let found = evaluate_repr_in(ctx, &queries[i], algorithm, options.segment_bits)?;
            Ok(ctx.materialize(found))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bindex_core::eval::naive;
    use bindex_core::IndexSpec;
    use bindex_relation::gen;
    use bindex_relation::query::Op;
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

    /// A worker whose source factory panics on the rebuild after a
    /// panicking query dies alone: that query is its own `WorkerPanic`,
    /// the surviving worker claims everything else, and the report comes
    /// back — nobody waits for the dead worker.
    #[test]
    fn a_factory_that_panics_on_rebuild_does_not_hang_the_workload() {
        /// Panics fetching slot (1, 0); slow enough elsewhere that both
        /// workers are up before the panic.
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
        // `A = 0`, the query that reads slot (1, 0), is the sixth.
        let queries: Vec<SelectionQuery> = (0..CARD)
            .map(|i| SelectionQuery::new(Op::Eq, (i + 11) % CARD))
            .collect();
        // On a thread of its own, so a workload that never returns fails
        // this test instead of wedging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        let (shared, workload) = (Arc::clone(&idx), queries.clone());
        std::thread::spawn(move || {
            let built = AtomicUsize::new(0);
            let make = || {
                // One source per worker, then no more.
                let nth = built.fetch_add(1, Ordering::Relaxed);
                assert!(nth < 2, "injected factory panic");
                FragileSource(shared.source())
            };
            let options = BatchOptions::with_threads_unclamped(2);
            let _ = tx.send(evaluate_selection_workload(
                make,
                &workload,
                Algorithm::Auto,
                &options,
            ));
        });
        let report = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the workload hung behind its dead worker");
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
}
