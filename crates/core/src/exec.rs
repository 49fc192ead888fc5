//! Query-execution context: bitmap fetching with scan accounting, bitmap
//! operations with operation accounting, and buffer-pool residency.
//!
//! The paper's cost model counts two things per query (Section 4):
//!
//! * **bitmap scans** — distinct stored bitmaps read from storage. A bitmap
//!   referenced twice within one evaluation (RangeEval uses `B_i^{v_i}` for
//!   both its `B_GT` and `B_EQ` updates) is scanned once and then held in
//!   working memory, so [`ExecContext`] deduplicates fetches per query.
//! * **bitmap operations** — each AND/OR/XOR/NOT an operator chain spells,
//!   by kind. Every chain is a [`Fold`] charged as [`ExecContext::fold`]
//!   charges it; the k-of-N combine (the carry-save threshold) is the one
//!   other operator.
//!
//! Virtual bitmaps (`B_0` all zeros, `B_1` all ones, the absent `B_nn`)
//! cost no scan. If a [`BufferSet`] is attached, fetches of resident
//! bitmaps cost no scan either (Section 10's buffering model).

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bindex_bitvec::kernels::{self, Fold, FoldStep};
use bindex_bitvec::{BitVec, IndexSummaries};
use bindex_compress::{wah, Repr};
use bindex_relation::Column;

use crate::delta::DeltaOverlay;
use crate::encoding::{Encoding, IndexSpec};
use crate::error::{Error, Result};
use crate::index::{rebuild_slot, BitmapSource};

/// Per-query evaluation statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Distinct stored bitmaps read from storage.
    pub scans: usize,
    /// AND operations executed.
    pub ands: usize,
    /// OR operations executed.
    pub ors: usize,
    /// XOR operations executed.
    pub xors: usize,
    /// NOT operations executed.
    pub nots: usize,
    /// Threshold combine steps executed: a k-ary "≥ k of N" evaluation
    /// over N operands charges N − 1 combines, mirroring the k-ary
    /// AND/OR charge shape (the CSA counter network folds one operand
    /// per step, whatever k is).
    pub threshold_combines: usize,
    /// Fetches served by the buffer pool (no scan charged).
    pub buffer_hits: usize,
    /// Fetches served by the degraded path: the stored bitmap was
    /// unreadable after retries, and the answer was reconstructed instead.
    /// Zero on a healthy store; the answer is still exact.
    pub degraded_fetches: usize,
    /// Degraded fetches answered purely from surviving sibling bitmaps
    /// (the `NOT(OR(siblings))` identity). The remainder of
    /// `degraded_fetches` fell back to a digit-level scan of the relation.
    pub reconstructed_bitmaps: usize,
    /// Bitmap operations executed in the WAH compressed domain (a subset
    /// of the AND/OR/XOR/NOT tallies above — compressed execution changes
    /// where an op runs, never how many the cost model charges).
    pub compressed_ops: usize,
    /// WAH bitmaps decompressed to dense words — on a dense-form fetch of
    /// a compressed slot, or when a compressed result is handed back to a
    /// caller that needs dense words.
    pub materializations: usize,
    /// Segments driven through the operator tree by segment-at-a-time
    /// execution. Zero under whole-bitmap evaluation. Scan and operation
    /// counts above stay bit-identical between the two modes: an op that
    /// runs once over the whole bitmap runs once *per segment* but is
    /// charged only on the first, so the paper's cost model is unchanged.
    pub segments_evaluated: usize,
    /// Segments where some work was skipped: an [`ExecContext::fold`] that
    /// can only clear bits (no `Or` step, no complement) started from an
    /// all-zero window and was not run, or a threshold took its early-exit
    /// bound. A chain that can set bits never skips. Early exit never
    /// changes a result or a charge — only this counter.
    pub segments_skipped: usize,
    /// Segments where at least one operand fetch was answered from the
    /// hierarchical summary block (v4 stores): the summary proved the
    /// slot's window all-zero, so the fetch, pool admission, and WAH
    /// decode were skipped and exact zeros were served instead. Disjoint
    /// from [`EvalStats::segments_skipped`] — a segment that both pruned
    /// a fetch and short-circuited an AND counts only here.
    pub segments_pruned: usize,
}

impl EvalStats {
    /// Total bitmap operations of all kinds.
    pub fn total_ops(&self) -> usize {
        self.ands + self.ors + self.xors + self.nots + self.threshold_combines
    }

    /// Accumulates another query's stats (for workload averages).
    pub fn add(&mut self, other: &EvalStats) {
        self.scans += other.scans;
        self.ands += other.ands;
        self.ors += other.ors;
        self.xors += other.xors;
        self.nots += other.nots;
        self.threshold_combines += other.threshold_combines;
        self.buffer_hits += other.buffer_hits;
        self.degraded_fetches += other.degraded_fetches;
        self.reconstructed_bitmaps += other.reconstructed_bitmaps;
        self.compressed_ops += other.compressed_ops;
        self.materializations += other.materializations;
        self.segments_evaluated += other.segments_evaluated;
        self.segments_skipped += other.segments_skipped;
        self.segments_pruned += other.segments_pruned;
    }
}

/// The batch engine's window, in bits, and the reference size of the
/// `ext_segmented_exec` sweep: 32 KiB of bitmap (4096 words) — small
/// enough that one accumulator plus a handful of operand segments stay
/// cache-resident, large enough that per-segment overhead (operator
/// re-dispatch, window bookkeeping) is amortized to noise. A batch walks
/// its queries window-major over windows of this size unless
/// `engine::batch::BatchOptions::with_segment_bits` names another: the 27
/// windows of a `<10,10,10>` range index are 864 KiB, inside a 2 MiB L2,
/// and a 400-query batch at 2^23 rows read fastest at this size among
/// 2^16–2^19 bits. A single query is whole-bitmap unless its caller names
/// a window, and a served index windows at its `IndexTuning`'s `1 << 16`.
pub const DEFAULT_SEGMENT_BITS: usize = 1 << 18;

/// One operand of a [`Program`] term.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Operand {
    /// Stored bitmap `slot` of component `comp` (1-based): `Slot(comp, slot)`.
    Slot(usize, usize),
    /// The result of an earlier term of the same program, by its index.
    Term(usize),
    /// `B_nn`; on an index without nulls it is all ones, and a seed or a
    /// mask of all ones drops out of its fold.
    Nn,
    /// The all-zero bitmap.
    #[default]
    Zeros,
}

/// One term of a [`Program`]: a fold over operands.
pub(crate) type Term = Fold<Operand>;

/// A selection's whole evaluation as straight-line code over slot
/// addresses. The evaluators' control flow depends on the query's digits,
/// the base and the encoding alone, so each evaluator's builder is a pure
/// function of those, and [`ExecContext::run`] is the one code that
/// fetches the slots and runs the terms.
#[derive(Debug, Clone, Default)]
pub(crate) struct Program {
    /// The terms, in the order they run; a term names only earlier terms.
    pub(crate) terms: Vec<Term>,
    /// The foundset: a term, or all zeros (`A < 0`, and RangeEval's
    /// untouched `B_LT`/`B_GT`).
    pub(crate) answer: Operand,
    /// Whether the answer term may take the WAH fold and come back
    /// compressed, as a selection's whole evaluation; else it is dense.
    pub(crate) compressible: bool,
}

impl Program {
    /// Appends `term` and returns the operand that names its result.
    pub(crate) fn push(&mut self, term: Term) -> Operand {
        self.terms.push(term);
        Operand::Term(self.terms.len() - 1)
    }
}

/// A program's terms bound to the operands its query holds, each on its
/// first run: per term, its fold over held operands (`None`: it took the
/// WAH fold) and where its result is held. A later window re-slices what
/// is held and re-runs the folds, with no fetch-cache lookup and no
/// allocation.
pub(crate) type Bound = Vec<(Option<Fold<usize>>, usize)>;

/// An operand as a query holds it from window to window.
#[derive(Debug)]
enum Held {
    /// All ones (`true`) or all zeros over the current window: the zeros
    /// operand, or a stored slot not read yet that the summaries prove so.
    Constant(bool),
    /// Dense words over every row, sliced to each window.
    Whole(Arc<BitVec>),
    /// A compressed slot, decoded window by window into one buffer.
    Wah(wah::SegmentCursor),
    /// A term's result over the current window, in the context's result
    /// window of this number ([`Windows`]).
    Found(usize),
}

/// A context's window-sized buffers, lent to whichever query steps: the
/// result windows terms and threshold predicates are written into, and
/// the constant windows (each made again only when the window length
/// changes: for a ragged last window). Within one window step every
/// result window is refilled before it is read — [`ExecContext::run`]
/// runs a program's terms in order, a threshold runs its predicates and
/// then its combine — and a constant window depends on the window's
/// length alone, so a batch group that steps many queries through one
/// context holds one set of them, not one per query.
#[derive(Debug, Default)]
struct Windows {
    /// Result window `j`: [`Held::Found`]`(j)` of the query stepping.
    found: Vec<Vec<u64>>,
    zeros: BitVec,
    ones: BitVec,
}

impl Windows {
    /// What `held` reads over the window `lo..hi`.
    fn words<'w>(&'w self, held: &'w Held, lo: usize, hi: usize) -> &'w [u64] {
        match held {
            Held::Whole(b) => &b.words()[lo / 64..][..bindex_bitvec::words_for(hi - lo)],
            Held::Wah(cursor) => cursor.words(),
            Held::Found(j) => &self.found[*j],
            Held::Constant(true) => self.ones.words(),
            Held::Constant(false) => self.zeros.words(),
        }
    }

    /// Makes the constant window of `ones` `len` bits long.
    fn constant(&mut self, len: usize, ones: bool) {
        match ones {
            true if self.ones.len() != len => self.ones = BitVec::ones(len),
            false if self.zeros.len() != len => self.zeros = BitVec::zeros(len),
            _ => {}
        }
    }
}

impl Drop for Windows {
    /// A result window is dropped as a bitmap, so the spare list takes a
    /// large one (a whole-bitmap term's) back.
    fn drop(&mut self) {
        for words in self.found.drain(..) {
            drop(BitVec::from_words(words, 0));
        }
    }
}

/// A query's answer — a foundset, or its cardinality alone — as its walk
/// or the WAH fold leaves it
/// ([`Cursor::finish`](crate::eval::Cursor::finish)), and as the engine's
/// `evaluate_query` returns it.
#[derive(Debug)]
pub enum Answer {
    /// Dense words at the current width.
    Dense(BitVec),
    /// The whole relation, in the WAH domain.
    Wah(wah::WahBitmap),
    /// The cardinality alone.
    Count(usize),
}

impl Answer {
    /// The number of qualifying rows, whether the run kept a foundset or
    /// counted: O(compressed words) on [`Answer::Wah`].
    pub fn count_ones(&self) -> u64 {
        match self {
            Answer::Dense(found) => found.count_ones() as u64,
            Answer::Wah(found) => found.count_ones() as u64,
            Answer::Count(n) => *n as u64,
        }
    }

    /// The foundset in the representation the run produced, when it kept
    /// one; `None` for a count.
    pub fn into_bits(self) -> Option<Repr> {
        match self {
            Answer::Dense(found) => Some(Repr::literal(found)),
            Answer::Wah(found) => Some(Repr::wah(found)),
            Answer::Count(_) => None,
        }
    }
}

/// A compressed operand takes part in the compressed-domain fold only if
/// it is at most 1/16 of its literal size — the one compressed-vs-dense
/// execution threshold, for every evaluator. Run-merging costs per run and
/// the dense fold per word, so what matters is the number of runs, not the
/// number of set bits (a range bitmap of a clustered column is 10–90 %
/// ones). `BENCH_compressed_exec.json` has the k-ary compressed AND at 16×
/// and the OR at 3.7× over decompress-then-operate at ratio 0.06, the OR
/// losing at 0.30; its `served_range` sweep shows the whole chain crossing
/// between the two, with 1/16 on the winning side.
const WAH_FOLD_MAX_RATIO: usize = 16;

/// A wall-clock cut-off for a query or workload. Checked cooperatively:
/// the batch engine checks it before a query starts, and
/// segment-at-a-time evaluation checks it between segments (via
/// [`ExecContext::with_deadline`]), bailing out with
/// [`Error::DeadlineExceeded`] so cancelled work stops consuming cores.
/// Whole-bitmap evaluation never checks mid-query — a query that has
/// started on that path always finishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deadline {
    at: Instant,
}

impl Deadline {
    /// A deadline `d` from now.
    pub fn after(d: Duration) -> Self {
        Self {
            at: Instant::now() + d,
        }
    }

    /// A deadline at an absolute instant.
    pub fn at(at: Instant) -> Self {
        Self { at }
    }

    /// Whether the deadline has passed.
    pub fn expired(&self) -> bool {
        Instant::now() >= self.at
    }

    /// Time left before expiry (zero once expired).
    pub fn remaining(&self) -> Duration {
        self.at.saturating_duration_since(Instant::now())
    }
}

/// What [`ExecContext::fetch`] may do when a stored bitmap is unreadable
/// after the storage layer's retries are exhausted — a lattice from "fail
/// fast" to "answer from anything that survives".
///
/// Every recovered fetch keeps the answer exact (the encodings are
/// information-redundant) but is tallied in
/// [`EvalStats::degraded_fetches`], so degradation is observable.
#[derive(Debug, Clone, Default)]
pub enum RecoveryPolicy {
    /// Propagate the error. The pre-recovery behavior, and the default.
    #[default]
    Fail,
    /// Rebuild an equality-encoded slot from its surviving siblings
    /// (`E^j = NOT(OR(E^k, k ≠ j))`, masked by `B_nn` when the column has
    /// nulls). Errors on slots the identity cannot reach still propagate.
    Reconstruct,
    /// [`RecoveryPolicy::Reconstruct`], then fall back to a digit-level
    /// scan of the base column — for a range-encoded slot this evaluates
    /// `B^j = OR(E^0..E^j)` from the digit projection. Every slot is
    /// recoverable; only an unreadable column itself can fail.
    ReconstructOrScan(Arc<Column>),
}

impl RecoveryPolicy {
    /// `true` when any recovery at all is enabled.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, RecoveryPolicy::Fail)
    }
}

/// Fetch-cache key of `B_nn`, outside every `(component, slot)` address.
const NN_KEY: (usize, usize) = (0, usize::MAX);

/// Whether a fetch error is worth a recovery attempt: permanent storage
/// damage, not caller errors like an out-of-shape slot address.
fn recoverable(e: &Error) -> bool {
    matches!(e, Error::Storage(_) | Error::ChecksumMismatch(_))
}

/// The set of bitmaps held resident in memory by a buffering policy
/// (Section 10). Keys are `(component, slot)` with 1-based components.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BufferSet {
    resident: HashSet<(usize, usize)>,
}

impl BufferSet {
    /// Empty buffer (no bitmaps resident).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Builds from explicit `(component, slot)` pairs.
    pub fn from_pairs(pairs: impl IntoIterator<Item = (usize, usize)>) -> Self {
        Self {
            resident: pairs.into_iter().collect(),
        }
    }

    /// Marks a bitmap resident.
    pub fn insert(&mut self, comp: usize, slot: usize) {
        self.resident.insert((comp, slot));
    }

    /// Whether a bitmap is resident.
    pub fn contains(&self, comp: usize, slot: usize) -> bool {
        self.resident.contains(&(comp, slot))
    }

    /// Number of resident bitmaps (`m` in the paper's notation).
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// `true` if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }
}

/// The window being evaluated. The evaluators' control flow is
/// data-independent, so every segment re-runs segment 0's operator
/// sequence, and charging ops on segment 0 alone reproduces the
/// whole-bitmap counts.
#[derive(Debug)]
struct SegmentState {
    /// Bit range of the current segment, `lo..hi`, word-aligned at `lo`.
    lo: usize,
    hi: usize,
    /// Ordinal of the current segment within the query (0-based). Ops are
    /// charged only when it is 0.
    index: usize,
    /// Whether work was skipped ([`EvalStats::segments_skipped`]).
    skipped_work: bool,
    /// Whether a fetch was answered from the summary block instead of
    /// storage ([`EvalStats::segments_pruned`], which takes precedence).
    pruned_any: bool,
}

/// What a context holds for the query it is evaluating: its charges, its
/// reads and the operands it holds from window to window. Everything else
/// of an [`ExecContext`] — source, policies, summaries, the windows
/// results are written into — serves every query run in it.
/// A batch that steps several queries through one context parks each
/// query's state here between its windows ([`ExecContext::swap_query`]).
#[derive(Debug, Default)]
pub struct QueryState {
    stats: EvalStats,
    /// Fetched bitmaps in their current representation, so repeated
    /// references within a query cost a single scan. `Arc`-backed (not
    /// `Rc`) so that contexts — and the sources behind them — can live on
    /// worker threads of the parallel batch engine.
    fetched: HashMap<(usize, usize), Repr>,
    /// `Some` while a walk steps this context through a query's windows.
    seg: Option<SegmentState>,
    /// Slots whose charge a pruned fetch already levied; a later real
    /// fetch of the slot must not charge again.
    pruned_charged: HashSet<(usize, usize)>,
    /// Each operand of the query's bound programs ([`Bound`]) once, with
    /// the stored slot it holds (`B_nn` as [`NN_KEY`]; `None` for zeros
    /// and a term's result).
    held: Vec<(Option<(usize, usize)>, Held)>,
}

/// Execution context wrapping a [`BitmapSource`] with accounting.
pub struct ExecContext<'a, S: BitmapSource> {
    source: &'a mut S,
    buffer: Option<&'a BufferSet>,
    recovery: RecoveryPolicy,
    /// The state of the query being evaluated.
    query: QueryState,
    /// Slots read from the source for any query evaluated here, when
    /// reads are shared ([`ExecContext::with_shared_reads`]).
    shared_reads: Option<HashMap<(usize, usize), Repr>>,
    /// Checked between windows ([`ExecContext::with_deadline`]).
    deadline: Option<Deadline>,
    /// Streaming-ingest delta overlay ([`ExecContext::with_overlay`]).
    overlay: Option<Arc<DeltaOverlay>>,
    /// Whether summary-based segment pruning is on (by default). It only
    /// engages in a walk over a source that serves summaries, with no
    /// overlay attached.
    pruning: bool,
    /// [`BitmapSource::try_fetch_summary`], asked at most once.
    summaries: Option<Option<Arc<IndexSummaries>>>,
    /// The result and constant windows, kept across queries.
    windows: Windows,
}

impl<'a, S: BitmapSource> ExecContext<'a, S> {
    /// Creates a context with no buffer pool.
    pub fn new(source: &'a mut S) -> Self {
        Self {
            source,
            buffer: None,
            recovery: RecoveryPolicy::Fail,
            query: QueryState::default(),
            shared_reads: None,
            deadline: None,
            overlay: None,
            pruning: true,
            summaries: None,
            windows: Windows::default(),
        }
    }

    /// Creates a context whose fetches of `buffer`-resident bitmaps are
    /// free (no scan charged).
    pub fn with_buffer(source: &'a mut S, buffer: &'a BufferSet) -> Self {
        Self {
            buffer: Some(buffer),
            ..Self::new(source)
        }
    }

    /// Enables or disables summary-based segment pruning (on by default).
    /// Pruning never changes an answer or a scan/op charge — a disabled
    /// run differs only in [`EvalStats::segments_pruned`] /
    /// [`EvalStats::segments_skipped`] attribution and in the bytes the
    /// storage layer actually reads.
    pub fn with_pruning(mut self, pruning: bool) -> Self {
        self.pruning = pruning;
        self
    }

    /// Attaches (or clears) a streaming-ingest delta overlay. Fetches then
    /// return bitmaps of the full logical row range — base rows extended
    /// with the delta's, deleted rows masked out — and
    /// [`ExecContext::n_rows`] reports the logical count, so every
    /// evaluator runs unchanged over base ⊕ delta. A quiesced overlay
    /// (nothing appended, nothing deleted) is dropped here, so evaluation
    /// of a quiesced index is bit-identical — results and stats — to
    /// evaluation with no overlay at all.
    pub fn with_overlay(mut self, overlay: Option<Arc<DeltaOverlay>>) -> Self {
        self.overlay = overlay.filter(|o| !o.is_quiesced());
        if let Some(o) = &self.overlay {
            debug_assert_eq!(
                o.base_rows(),
                self.source.n_rows(),
                "overlay base row count must match the source"
            );
        }
        self
    }

    /// The attached delta overlay, if any survived the quiesced filter.
    pub fn overlay(&self) -> Option<&Arc<DeltaOverlay>> {
        self.overlay.as_ref()
    }

    /// Reads each stored slot from the source once for every query
    /// evaluated in this context: a batch group's queries share one copy
    /// of each operand instead of holding a copy each. Every query is
    /// charged its reads as if it had made them, so [`EvalStats`] do not
    /// change; only the source sees fewer reads. A failed read is not
    /// shared, nor is a slot rebuilt under a [`RecoveryPolicy`], so each
    /// query meets its own failures. For queries that see the same
    /// stored bitmaps, as a batch's do.
    pub fn with_shared_reads(mut self) -> Self {
        self.shared_reads = Some(HashMap::new());
        self
    }

    /// Sets (or clears) the cooperative deadline. Segment-at-a-time
    /// evaluation checks it between segments and returns
    /// [`Error::DeadlineExceeded`] once it has passed; whole-bitmap
    /// evaluation ignores it (a started query finishes).
    pub fn with_deadline(mut self, deadline: Option<Deadline>) -> Self {
        self.deadline = deadline;
        self
    }

    /// `true` once the attached deadline (if any) has passed.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|d| d.expired())
    }

    /// Sets the degraded-mode recovery policy applied when a fetch fails
    /// permanently (see [`RecoveryPolicy`]).
    pub fn with_recovery(mut self, recovery: RecoveryPolicy) -> Self {
        self.recovery = recovery;
        self
    }

    /// The index layout being evaluated.
    pub fn spec(&self) -> &IndexSpec {
        self.source.spec()
    }

    /// Number of rows — the full logical count (base plus appended delta
    /// rows) when a delta overlay is attached.
    pub fn n_rows(&self) -> usize {
        self.overlay
            .as_ref()
            .map_or_else(|| self.source.n_rows(), |o| o.n_rows())
    }

    /// Extends a dense base bitmap with the overlay's delta rows and masks
    /// deletions; a no-op without an overlay.
    fn apply_overlay_dense(&self, comp: usize, slot: usize, bm: &mut BitVec) {
        if let Some(o) = &self.overlay {
            o.extend_slot_into(bm, comp, slot);
        }
    }

    /// Overlay form of a freshly fetched representation: with an overlay
    /// attached, the slot materializes to dense words (counted when it was
    /// compressed — the concatenation needs them) and is extended to the
    /// logical row range. Without one, the representation passes through.
    fn apply_overlay_repr(&mut self, comp: usize, slot: usize, repr: Repr) -> Repr {
        if self.overlay.is_none() {
            return repr;
        }
        let mut bm = self.materialize(repr);
        self.apply_overlay_dense(comp, slot, &mut bm);
        Repr::literal(bm)
    }

    /// Statistics accumulated since the last [`ExecContext::take_stats`].
    pub fn stats(&self) -> &EvalStats {
        &self.query.stats
    }

    /// Returns and resets the statistics, and clears the per-query fetch
    /// cache (and any segment state a bailed-out segmented run left
    /// behind). Call between queries.
    pub fn take_stats(&mut self) -> EvalStats {
        self.query.fetched.clear();
        self.query.pruned_charged.clear();
        self.query.seg = None;
        self.forget_bound();
        std::mem::take(&mut self.query.stats)
    }

    /// Exchanges the state of the query being evaluated — its charges,
    /// reads, window and held operands — with `parked`. A batch steps
    /// several queries through one context this way, each window of each
    /// query with that query's own state; [`QueryState::default`] is a
    /// query not started. The windows its results are written into stay
    /// with the context, for the next query to step.
    pub fn swap_query(&mut self, parked: &mut QueryState) {
        std::mem::swap(&mut self.query, parked);
    }

    /// Drops what the last query's bound programs held.
    pub(crate) fn forget_bound(&mut self) {
        self.query.held.clear();
    }

    /// Makes room, in one allocation each, for every slot `programs` fetch
    /// and every operand and result they hold.
    pub(crate) fn reserve_for(&mut self, programs: &[Program]) {
        let terms = programs.iter().flat_map(|p| &p.terms);
        let most = terms.map(|t| t.operands().count() + 1).sum();
        self.query.held.reserve(most);
        self.query.fetched.reserve(most);
    }

    /// Width in bits of the current evaluation: the current segment's
    /// window under segmented execution, the full row count otherwise —
    /// what [`ExecContext::fold`] returns.
    pub fn view_len(&self) -> usize {
        self.query
            .seg
            .as_ref()
            .map_or(self.n_rows(), |s| s.hi - s.lo)
    }

    /// Enters segment `index` covering bits `lo..hi`: subsequent ops see
    /// [`ExecContext::view_len`]` == hi - lo` and slice full-length
    /// operands down to the window; what bound programs hold and the fetch
    /// cache persist. Driven by `eval::Cursor`, the one window walk.
    pub(crate) fn begin_segment(&mut self, lo: usize, hi: usize, index: usize) {
        self.query.seg = Some(SegmentState {
            lo,
            hi,
            index,
            skipped_work: false,
            pruned_any: false,
        });
    }

    /// Closes the current segment, rolling its outcome into the stats.
    pub(crate) fn end_segment(&mut self) {
        if let Some(s) = &self.query.seg {
            self.query.stats.segments_evaluated += 1;
            if s.pruned_any {
                self.query.stats.segments_pruned += 1;
            } else if s.skipped_work {
                self.query.stats.segments_skipped += 1;
            }
        }
    }

    /// Leaves segmented mode. The fetch cache and stats stay (they are
    /// per-query, not per-segment).
    pub(crate) fn exit_segments(&mut self) {
        self.query.seg = None;
    }

    /// `true` when ops should be tallied: always under whole-bitmap
    /// execution, and on segment 0 only under segmented execution — the
    /// evaluators' control flow is data-independent, so segment 0 runs
    /// exactly the whole-bitmap op sequence and later segments repeat it.
    #[inline]
    fn charge_ops(&self) -> bool {
        self.query.seg.as_ref().is_none_or(|s| s.index == 0)
    }

    /// The operand view at the current evaluation width: full-length
    /// bitmaps are sliced to the segment window, already-window-sized
    /// bitmaps (and everything in whole mode) pass through untouched.
    #[inline]
    fn opv<'b>(&self, b: &'b BitVec) -> bindex_bitvec::SegmentView<'b> {
        match &self.query.seg {
            Some(s) if b.len() != s.hi - s.lo => b.view_range(s.lo, s.hi),
            _ => b.view(),
        }
    }

    /// Records that the current window was answered without running its
    /// work: [`ExecContext::fold`]'s all-zero short-circuit, or the
    /// threshold's early-exit bound.
    #[inline]
    pub(crate) fn mark_skip(&mut self) {
        if let Some(s) = &mut self.query.seg {
            s.skipped_work = true;
        }
    }

    /// Fetches stored bitmap `slot` of component `comp` in **dense form**,
    /// charging one scan unless it was already fetched this query or is
    /// buffer-resident. A compressed slot is materialized (counted in
    /// [`EvalStats::materializations`]) and the cache keeps the dense copy,
    /// so repeated dense fetches decompress once. Storage failures
    /// propagate; nothing is cached on error, so a retried query re-reads
    /// the bitmap.
    ///
    /// Under segmented execution a slot the summaries prove constant over
    /// the window comes back window-sized, without a read; anything else
    /// comes back full-length, and the ops slice it.
    pub fn fetch(&mut self, comp: usize, slot: usize) -> Result<Arc<BitVec>> {
        if let Some(ones) = self.try_prune(comp, slot) {
            let len = self.view_len();
            return Ok(Arc::new(if ones {
                BitVec::ones(len)
            } else {
                BitVec::zeros(len)
            }));
        }
        let repr = self.fetch_repr(comp, slot)?;
        Ok(self.materialize_cached((comp, slot), &repr))
    }

    /// Fetches stored bitmap `slot` of component `comp` in its **stored
    /// execution representation** — compressed slots stay compressed.
    /// Scan/buffer accounting is identical to [`ExecContext::fetch`];
    /// degraded-mode recovery always produces a dense literal (the rebuild
    /// identities operate on dense words).
    pub fn fetch_repr(&mut self, comp: usize, slot: usize) -> Result<Repr> {
        if let Some(repr) = self.query.fetched.get(&(comp, slot)) {
            return Ok(repr.clone());
        }
        let shared = self.shared_reads.as_ref();
        let read = match shared.and_then(|reads| reads.get(&(comp, slot))) {
            Some(repr) => Ok(repr.clone()),
            None => self.source.try_fetch_repr(comp, slot).inspect(|repr| {
                if let Some(reads) = &mut self.shared_reads {
                    reads.insert((comp, slot), repr.clone());
                }
            }),
        };
        let repr = match read {
            Ok(repr) => {
                // A pruned fetch of this slot in an earlier segment
                // already levied the deterministic scan/buffer-hit charge.
                if !self.query.pruned_charged.remove(&(comp, slot)) {
                    self.charge_read(comp, slot);
                }
                self.apply_overlay_repr(comp, slot, repr)
            }
            Err(e) if self.recovery.is_enabled() && recoverable(&e) => {
                let rebuilt = self.recover(comp, slot, e)?;
                self.query.stats.degraded_fetches += 1;
                Repr::literal(rebuilt)
            }
            Err(e) => return Err(e),
        };
        self.query.fetched.insert((comp, slot), repr.clone());
        Ok(repr)
    }

    /// Summary-based segment pruning: under segmented execution, when the
    /// source's summary block proves stored bitmap `(comp, slot)`, not yet
    /// fetched, all-zero or all-ones over the current window
    /// ([`ExecContext::proven_constant`]), returns which — the caller reads
    /// that constant window, exact bitmap content safe under every
    /// operator, instead of touching storage. The scan/buffer-hit charge
    /// is levied exactly as a real fetch would have charged it (once per
    /// slot per query, by the same deterministic residency rule), so
    /// [`EvalStats`] stay bit-identical with pruning on or off; only
    /// [`EvalStats::segments_pruned`] and the storage layer's byte
    /// counters observe the difference. Returns `None` — fetch normally —
    /// whenever execution is whole-bitmap or nothing is proven.
    fn try_prune(&mut self, comp: usize, slot: usize) -> Option<bool> {
        let (lo, hi) = self.query.seg.as_ref().map(|s| (s.lo, s.hi))?;
        if self.query.fetched.contains_key(&(comp, slot)) {
            return None;
        }
        let saturated = self.proven_constant(comp, slot, lo, hi)?;
        if self.query.pruned_charged.insert((comp, slot)) {
            self.charge_read(comp, slot);
        }
        self.query.seg.as_mut()?.pruned_any = true;
        Some(saturated)
    }

    /// What the source's summaries prove about stored bitmap
    /// `(comp, slot)` over rows `[lo, hi)`: `Some(false)` is all zeros (the
    /// any-bit plane is clear), `Some(true)` all ones (the all-ones plane
    /// is set; a legacy single-plane summary carries an all-zeros `all`
    /// plane, which promises nothing and never fires). `None` — nothing —
    /// also whenever pruning is off, an overlay is attached (summaries
    /// describe base rows only) or the source has no usable summaries.
    fn proven_constant(&mut self, comp: usize, slot: usize, lo: usize, hi: usize) -> Option<bool> {
        if !self.pruning || self.overlay.is_some() {
            return None;
        }
        let summaries = self.source_summaries()?;
        let summary = summaries.get(comp, slot)?;
        if !summary.range_any(lo, hi) {
            Some(false)
        } else {
            summary.range_all(lo, hi).then_some(true)
        }
    }

    /// The source's summaries, asked for once per context and memoized;
    /// a shape mismatch against the source discards them (a stale or
    /// foreign summary block must never prune).
    fn source_summaries(&mut self) -> Option<Arc<IndexSummaries>> {
        if self.summaries.is_none() {
            let n_rows = self.source.n_rows();
            let loaded = self
                .source
                .try_fetch_summary()
                .filter(|s| s.n_rows() == n_rows);
            self.summaries = Some(loaded);
        }
        self.summaries.as_ref().expect("memoized above").clone()
    }

    /// Dense words for a cached representation, upgrading the cache entry
    /// in place so one slot decompresses at most once per query.
    fn materialize_cached(&mut self, key: (usize, usize), repr: &Repr) -> Arc<BitVec> {
        match repr {
            Repr::Literal(b) => Arc::clone(b),
            Repr::Wah(w) => {
                let bits = Arc::new(w.to_bitvec());
                self.query.stats.materializations += 1;
                self.query
                    .fetched
                    .insert(key, Repr::Literal(Arc::clone(&bits)));
                bits
            }
        }
    }

    /// Consumes a representation into an owned dense bitmap, counting the
    /// decompression when it was compressed. This is the boundary where an
    /// evaluation hands its (possibly still-compressed) result to a caller
    /// that expects dense words.
    pub fn materialize(&mut self, repr: Repr) -> BitVec {
        match repr {
            Repr::Literal(b) => Arc::unwrap_or_clone(b),
            Repr::Wah(w) => {
                self.query.stats.materializations += 1;
                w.to_bitvec()
            }
        }
    }

    /// Degraded-mode reconstruction of an unreadable stored bitmap: the
    /// sibling identity where it applies, then the relation scan if the
    /// policy allows, else `original` propagates. Sibling reads, ORs, the
    /// NOT, and the `B_nn` mask are all charged at their normal rates, so
    /// the cost model prices the degraded path honestly.
    fn recover(&mut self, comp: usize, slot: usize, original: Error) -> Result<BitVec> {
        // Reconstruction always operates on full-length bitmaps, whatever
        // mode the query runs in: the rebuilt slot enters the fetch cache
        // and must look exactly like a stored one. Under segmented
        // execution this only ever runs on segment 0 (first touch), so
        // its op charges land exactly once — as in whole mode.
        let seg = self.query.seg.take();
        let out = (|| -> Result<BitVec> {
            if let Some(bm) = self.reconstruct_from_siblings(comp, slot)? {
                self.query.stats.reconstructed_bitmaps += 1;
                return Ok(bm);
            }
            let RecoveryPolicy::ReconstructOrScan(column) = &self.recovery else {
                return Err(original);
            };
            let (column, n_rows) = (Arc::clone(column), self.source.n_rows());
            // A column of another length would rebuild a slot of another
            // length, which no kernel may meet.
            if column.len() != n_rows {
                let len = column.len();
                let msg = format!("recovery column has {len} rows, the index has {n_rows}");
                return Err(Error::CorruptIndex(msg));
            }
            // The relation scan rebuilds the *base* rows only (the policy
            // carries the base column), so the null mask here must be
            // base-length; the overlay then extends the rebuilt slot to
            // the logical range like any other fetch.
            let null_mask = match &self.overlay {
                Some(_) => {
                    let base = self.source.try_fetch_nn()?;
                    self.query.stats.scans += usize::from(base.is_some());
                    base.map(|nn| nn.complement())
                }
                None => self.fetch_nn()?.map(|nn| nn.complement()),
            };
            let mut bm = rebuild_slot(&column, null_mask.as_ref(), self.source.spec(), comp, slot)?;
            self.apply_overlay_dense(comp, slot, &mut bm);
            Ok(bm)
        })();
        self.query.seg = seg;
        out
    }

    /// `E^j = NOT(OR(siblings)) AND B_nn` for an equality-encoded
    /// component with base `b > 2`, as one [`ExecContext::fold`] (the mask
    /// clears the null rows NOT sets); `Ok(None)` when the identity does
    /// not apply or a sibling is itself unreadable. Siblings are fetched
    /// through the per-query cache (never recursively recovered — two
    /// missing slots of one component cannot rebuild each other).
    fn reconstruct_from_siblings(&mut self, comp: usize, slot: usize) -> Result<Option<BitVec>> {
        let spec = self.source.spec();
        if spec.encoding != Encoding::Equality || comp == 0 || comp > spec.n_components() {
            return Ok(None);
        }
        let b = spec.base.component(comp) as usize;
        if b <= 2 || slot >= b {
            return Ok(None);
        }
        let mut siblings: Vec<Arc<BitVec>> = Vec::with_capacity(b - 1);
        for s in (0..b).filter(|&s| s != slot) {
            if let Some(repr) = self.query.fetched.get(&(comp, s)).cloned() {
                siblings.push(self.materialize_cached((comp, s), &repr));
                continue;
            }
            let Ok(mut bm) = self.source.try_fetch(comp, s) else {
                return Ok(None);
            };
            self.charge_read(comp, s);
            self.apply_overlay_dense(comp, s, &mut bm);
            let bm = Arc::new(bm);
            self.query
                .fetched
                .insert((comp, s), Repr::Literal(Arc::clone(&bm)));
            siblings.push(bm);
        }
        let mut siblings = siblings.into_iter();
        let program = Fold {
            seed: siblings.next(),
            steps: siblings.map(FoldStep::Or).collect(),
            complement: true,
            mask: self.fetch_nn()?,
        };
        Ok(Some(self.fold(&program)))
    }

    /// Charges one read of stored bitmap `(comp, slot)`: a buffer hit when
    /// it is buffer-resident, else a scan.
    fn charge_read(&mut self, comp: usize, slot: usize) {
        if self.buffer.is_some_and(|b| b.contains(comp, slot)) {
            self.query.stats.buffer_hits += 1;
        } else {
            self.query.stats.scans += 1;
        }
    }

    /// Fetches the non-null bitmap if the index has one. Charged as a scan
    /// (it is a stored bitmap) the first time per query.
    pub fn fetch_nn(&mut self) -> Result<Option<Arc<BitVec>>> {
        Ok(self
            .fetch_nn_repr()?
            .map(|repr| self.materialize_cached(NN_KEY, &repr)))
    }

    /// [`ExecContext::fetch_nn`] in the stored execution representation —
    /// a compressed `B_nn` stays compressed (with an overlay attached the
    /// merged mask is always dense).
    pub fn fetch_nn_repr(&mut self) -> Result<Option<Repr>> {
        if let Some(repr) = self.query.fetched.get(&NN_KEY) {
            return Ok(Some(repr.clone()));
        }
        let base = self.source.try_fetch_nn_repr()?;
        self.query.stats.scans += usize::from(base.is_some());
        let merged = match self.overlay.clone() {
            Some(o) => {
                let base = base.map(|repr| self.materialize(repr));
                o.merge_nn(base.as_ref()).map(Repr::literal)
            }
            None => base,
        };
        if let Some(nn) = &merged {
            self.query.fetched.insert(NN_KEY, nn.clone());
        }
        Ok(merged)
    }

    /// The one dense bitmap operator: a whole operator chain evaluated in
    /// one pass ([`kernels::fold`]), every operand read once and the result
    /// written once, at the current evaluation width — full-length
    /// operands are sliced to the segment window, so whole-bitmap and
    /// segmented execution are one code path. Charges (on segment 0 only)
    /// what the chain spelled out operator by operator would: one AND per
    /// `And` step, one OR per `Or`, AND + NOT per `AndNot`, AND + XOR per
    /// `AndXor`, one NOT for the complement and one AND for the mask — an
    /// all-ones seed is the listing's `B_1`, an operand of the first AND,
    /// not an operation; a lone seed charges nothing.
    ///
    /// Under segmented execution, a chain that can only clear bits (no
    /// `Or` step, no complement) whose first value — the seed, or a
    /// seedless chain's leading `And` operand — is all zero over the window
    /// is all zero: the kernel is not run and the segment counts as
    /// skipped. The charges stand.
    ///
    /// # Panics
    /// Panics on mismatched operand lengths.
    pub fn fold<B: Borrow<BitVec>>(&mut self, program: &Fold<B>) -> BitVec {
        let len = self.view_len();
        if self.charge_ops() {
            self.charge_fold(program);
        }
        let windowed = program.map(|b| self.opv(b.borrow()));
        if self.query.seg.is_some() && windowed.clears_from_zero(|v| v.words()) {
            self.mark_skip();
            return BitVec::zeros(len);
        }
        kernels::fold(len, &windowed)
    }

    /// What a [`Fold`] costs spelled out operator by operator — the one
    /// place both representations are charged from.
    fn charge_fold<T>(&mut self, program: &Fold<T>) {
        for step in &program.steps {
            match step {
                FoldStep::And(_) => self.query.stats.ands += 1,
                FoldStep::Or(_) => self.query.stats.ors += 1,
                FoldStep::AndNot(_) => {
                    self.query.stats.ands += 1;
                    self.query.stats.nots += 1;
                }
                FoldStep::AndXor(..) => {
                    self.query.stats.ands += 1;
                    self.query.stats.xors += 1;
                }
            }
        }
        self.query.stats.nots += usize::from(program.complement);
        self.query.stats.ands += usize::from(program.mask.is_some());
    }

    /// Runs `program` over the current width — a window of a walk, else
    /// every row — appending its answer's words to `keep`, or else
    /// returning its count. Terms run in order, each bound to what the
    /// query holds on its first run ([`Bound`]) with its slots read in
    /// program order, so a later window costs its operands' re-slicing and
    /// the kernels. A whole-bitmap term that is not the answer may take the
    /// WAH fold ([`ExecContext::fold_term_wah`]) and is decoded for the
    /// terms after it; every other term is one dense fold, charged and
    /// skipped as [`ExecContext::fold`]. An answer that is the last term is
    /// written or counted as it is folded; an earlier one is copied or
    /// counted.
    pub(crate) fn run(
        &mut self,
        program: &Program,
        bound: &mut Bound,
        keep: Option<&mut Vec<u64>>,
    ) -> Result<usize> {
        for (k, term) in program.terms.iter().enumerate() {
            let answer = program.answer == Operand::Term(k);
            if bound.len() == k {
                let folded = if answer {
                    None
                } else {
                    self.fold_term_wah(term, false, true)?
                };
                bound.push(match folded {
                    Some(found) => {
                        let found = found.into_bits().expect("a kept fold keeps its foundset");
                        let found = Held::Whole(Arc::new(self.materialize(found)));
                        (None, self.hold(found))
                    }
                    None => (
                        Some(term.try_map(|&op| self.hold_operand(op, bound))?.flatten()),
                        self.hold_found(),
                    ),
                });
            }
            let (Some(fold), at) = &bound[k] else {
                continue;
            };
            for &p in fold.operands() {
                self.ready(p)?;
            }
            if answer && k + 1 == program.terms.len() {
                return Ok(self.fold_held(fold, keep));
            }
            self.refill(*at, |ctx, found| Ok(ctx.fold_held(fold, Some(found))))?;
        }
        let Operand::Term(k) = program.answer else {
            return Ok(self.constant_window(false, keep));
        };
        let (lo, hi) = self.window();
        let answer = self.windows.words(&self.query.held[bound[k].1].1, lo, hi);
        Ok(match keep {
            Some(out) => {
                out.extend_from_slice(answer);
                0
            }
            None => answer.iter().map(|w| w.count_ones() as usize).sum(),
        })
    }

    /// Holds `held` for the rest of the query and returns where.
    fn hold(&mut self, held: Held) -> usize {
        self.query.held.push((None, held));
        self.query.held.len() - 1
    }

    /// A held result for the rest of the query, written window by window
    /// into a result window of the context ([`ExecContext::run_held`]):
    /// the query's `j`-th held result takes window `j`.
    pub(crate) fn hold_found(&mut self) -> usize {
        let held = self.query.held.iter();
        let j = held.filter(|(_, h)| matches!(h, Held::Found(_))).count();
        self.hold(Held::Found(j))
    }

    /// Overwrites held result `at`'s window with what `fill` appends to
    /// it; the window is made on its first fill.
    fn refill(
        &mut self,
        at: usize,
        fill: impl FnOnce(&mut Self, &mut Vec<u64>) -> Result<usize>,
    ) -> Result<()> {
        let Held::Found(j) = self.query.held[at].1 else {
            unreachable!("a term's result is a result window");
        };
        if self.windows.found.len() <= j {
            self.windows.found.resize_with(j + 1, Vec::new);
        }
        let mut found = std::mem::take(&mut self.windows.found[j]);
        if found.capacity() == 0 {
            found = bindex_bitvec::spare_words(bindex_bitvec::words_for(self.view_len()));
        }
        found.clear();
        let filled = fill(self, &mut found);
        self.windows.found[j] = found;
        filled.map(drop)
    }

    /// [`ExecContext::run`] over the current window into held result `at`
    /// ([`ExecContext::hold_found`]).
    pub(crate) fn run_held(
        &mut self,
        program: &Program,
        bound: &mut Bound,
        at: usize,
    ) -> Result<()> {
        self.refill(at, |ctx, found| ctx.run(program, bound, Some(found)))
    }

    /// The number of ones of held result `at` over the current window.
    pub(crate) fn held_ones(&self, at: usize) -> usize {
        let (lo, hi) = self.window();
        let words = self.windows.words(&self.query.held[at].1, lo, hi);
        words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bound term `fold` run over the current window, appended to `keep`
    /// or else counted, charged and skipped as [`ExecContext::fold`].
    pub(crate) fn fold_held(&mut self, fold: &Fold<usize>, keep: Option<&mut Vec<u64>>) -> usize {
        if self.charge_ops() {
            self.charge_fold(fold);
        }
        let (lo, hi) = self.window();
        let (held, windows) = (&self.query.held, &self.windows);
        let words = |&p: &usize| windows.words(&held[p].1, lo, hi);
        let skipped = self.query.seg.is_some() && fold.clears_from_zero(words);
        if skipped {
            self.mark_skip();
        }
        let (held, windows) = (&self.query.held, &self.windows);
        let words = |&p: &usize| windows.words(&held[p].1, lo, hi);
        match keep {
            None if skipped => 0,
            None => kernels::fold_count_with(hi - lo, fold, words),
            Some(out) if skipped => {
                out.resize(out.len() + bindex_bitvec::words_for(hi - lo), 0);
                0
            }
            Some(out) => {
                kernels::fold_into(hi - lo, fold, words, out);
                0
            }
        }
    }

    /// The current window's bit range: every row outside a walk.
    fn window(&self) -> (usize, usize) {
        self.query
            .seg
            .as_ref()
            .map_or((0, self.n_rows()), |s| (s.lo, s.hi))
    }

    /// Where operand `op` of a term being bound is held, made ready for the
    /// current window: a stored slot once per query, an earlier term's
    /// result, `B_nn` (`None` when the index has none) or zeros.
    fn hold_operand(&mut self, op: Operand, bound: &Bound) -> Result<Option<usize>> {
        let slot = match op {
            Operand::Term(k) => return Ok(Some(bound[k].1)),
            Operand::Zeros => None,
            Operand::Nn => Some(NN_KEY),
            Operand::Slot(comp, slot) => Some((comp, slot)),
        };
        let held = self
            .query
            .held
            .iter()
            .position(|h| slot.is_some() && h.0 == slot);
        let held = match (held, op) {
            (Some(at), _) => return self.ready(at).map(|()| Some(at)),
            (None, Operand::Nn) => match self.fetch_nn()? {
                Some(nn) => Held::Whole(nn),
                None => return Ok(None),
            },
            (None, _) => Held::Constant(false),
        };
        self.query.held.push((slot, held));
        let at = self.query.held.len() - 1;
        self.ready(at).map(|()| Some(at))
    }

    /// Makes held operand `p` ready for the current window: a compressed
    /// slot decodes it, a slot not read yet is read unless the summaries
    /// prove it constant, and the constant windows grow to it.
    fn ready(&mut self, p: usize) -> Result<()> {
        let (lo, hi) = self.window();
        let (comp, slot) = match &mut self.query.held[p] {
            (Some(slot), Held::Constant(_)) => *slot,
            &mut (None, Held::Constant(ones)) => {
                self.windows.constant(hi - lo, ones);
                return Ok(());
            }
            (_, Held::Wah(cursor)) => {
                cursor.window_words(lo, hi);
                return Ok(());
            }
            _ => return Ok(()),
        };
        self.query.held[p].1 = match self.try_prune(comp, slot) {
            Some(ones) => {
                self.windows.constant(hi - lo, ones);
                Held::Constant(ones)
            }
            None => match self.fetch_repr(comp, slot)? {
                // A compressed slot decodes window by window: one
                // decompression, charged once, like whole mode's.
                Repr::Wah(w) if self.query.seg.is_some() => {
                    self.query.stats.materializations += 1;
                    let mut cursor = wah::SegmentCursor::new(w);
                    cursor.window_words(lo, hi);
                    Held::Wah(cursor)
                }
                repr => Held::Whole(self.materialize_cached((comp, slot), &repr)),
            },
        };
        Ok(())
    }

    /// `term` over whole compressed operands — the only way a compressed
    /// operand reaches a kernel, and the one rule that decides it: not
    /// under segmented execution (a compressed operand has no window), no
    /// overlay (its rows exist only as dense words), and every operand a
    /// stored slot or `B_nn` served compressed at no more than 1/16 of its
    /// literal size ([`WAH_FOLD_MAX_RATIO`]). With `keep` the answer is the
    /// folded bitmap ([`wah::fold`], [`Answer::Wah`]); without, its count
    /// ([`wah::fold_count`], [`Answer::Count`]), and no result is built.
    /// The charges are [`ExecContext::fold`]'s either way, each also
    /// counted in [`EvalStats::compressed_ops`]. With `windowed_fallback`
    /// the caller walks windows if this declines (`Ok(None)`), where
    /// pruning reads no slot the summaries prove constant, so a term naming
    /// one is left to it. The walk stops at the first operand that rules
    /// the fold out, so declining costs no read the dense fold would not
    /// have made.
    pub(crate) fn fold_term_wah(
        &mut self,
        term: &Term,
        windowed_fallback: bool,
        keep: bool,
    ) -> Result<Option<Answer>> {
        if self.query.seg.is_some() || self.overlay.is_some() {
            return Ok(None);
        }
        let n_rows = self.n_rows();
        // `Err(None)` declines, `Err(Some(_))` is a failed fetch.
        let bound = term.try_map(|&op| {
            let repr = match op {
                Operand::Slot(comp, slot) => {
                    if windowed_fallback && self.proven_constant(comp, slot, 0, n_rows).is_some() {
                        return Err(None);
                    }
                    self.fetch_repr(comp, slot).map_err(Some)?
                }
                Operand::Nn => match self.fetch_nn_repr().map_err(Some)? {
                    Some(nn) => nn,
                    None => return Ok(None),
                },
                Operand::Term(_) | Operand::Zeros => return Err(None),
            };
            match repr {
                Repr::Wah(w) if w.compressed_bytes() * 8 * WAH_FOLD_MAX_RATIO <= w.len() => {
                    Ok(Some(w))
                }
                _ => Err(None),
            }
        });
        let chain = match bound {
            Ok(chain) => chain.flatten(),
            Err(None) => return Ok(None),
            Err(Some(e)) => return Err(e),
        };
        // `A ≥ 0` without nulls reads nothing: there is no operand to judge by.
        if chain.seed.is_none() && chain.steps.is_empty() && chain.mask.is_none() {
            return Ok(None);
        }
        let before = self.query.stats.total_ops();
        self.charge_fold(&chain);
        self.query.stats.compressed_ops += self.query.stats.total_ops() - before;
        let chain = chain.map(|w| &**w);
        Ok(Some(match keep {
            true => Answer::Wah(wah::fold(n_rows, &chain)),
            false => Answer::Count(wah::fold_count(n_rows, &chain)),
        }))
    }

    /// "At least `k` of held results `0..n`" — a threshold's predicates'
    /// — over the current window, appended to `keep` or else counted, in
    /// one pass of the bit-sliced carry-save counter network
    /// ([`kernels::threshold_into`]). Charges `n − 1`
    /// [`EvalStats::threshold_combines`] — one per CSA fold step, mirroring
    /// the k-ary AND/OR charge shape — whatever `k` is, so the counter
    /// network's cost never depends on it.
    ///
    /// # Panics
    /// Panics unless `1 ≤ k ≤ n`, or on more than
    /// [`kernels::MAX_THRESHOLD_FAN_IN`] results.
    pub(crate) fn threshold_held(
        &mut self,
        n: usize,
        k: usize,
        keep: Option<&mut Vec<u64>>,
    ) -> usize {
        if self.charge_ops() {
            self.query.stats.threshold_combines += n - 1;
        }
        let (lo, hi) = self.window();
        // The held results' window words, gathered on the stack.
        let mut ops = [&[][..]; kernels::MAX_THRESHOLD_FAN_IN];
        let ops = &mut ops[..n];
        for (op, (_, held)) in ops.iter_mut().zip(&self.query.held) {
            *op = self.windows.words(held, lo, hi);
        }
        kernels::threshold_into(hi - lo, ops, k, keep)
    }

    /// The current window all ones or all zeros, appended to `keep` or
    /// else counted.
    pub(crate) fn constant_window(&mut self, ones: bool, keep: Option<&mut Vec<u64>>) -> usize {
        let (lo, hi) = self.window();
        let Some(out) = keep else {
            return if ones { hi - lo } else { 0 };
        };
        self.windows.constant(hi - lo, ones);
        out.extend_from_slice(self.windows.words(&Held::Constant(ones), lo, hi));
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{Encoding, IndexSpec};
    use crate::eval::{evaluate_repr_in, Algorithm};
    use crate::index::BitmapIndex;
    use bindex_relation::query::{Op, SelectionQuery};

    /// A [`BitmapSource`] that fails permanently on chosen slots.
    struct FlakySource<'a> {
        index: &'a BitmapIndex,
        broken: HashSet<(usize, usize)>,
    }

    impl BitmapSource for FlakySource<'_> {
        fn spec(&self) -> &IndexSpec {
            self.index.spec()
        }
        fn n_rows(&self) -> usize {
            self.index.n_rows()
        }
        fn try_fetch(&mut self, comp: usize, slot: usize) -> Result<BitVec> {
            if self.broken.contains(&(comp, slot)) {
                return Err(Error::ChecksumMismatch(format!(
                    "checksum mismatch in c{comp}_b{slot}.bmp"
                )));
            }
            Ok(self.index.bitmap(comp, slot).clone())
        }
        fn try_fetch_nn(&mut self) -> Result<Option<BitVec>> {
            Ok(self.index.nn().cloned())
        }
    }

    fn small_index() -> BitmapIndex {
        let col = Column::new(vec![0, 1, 2, 3, 2, 1], 4);
        BitmapIndex::build(
            &col,
            IndexSpec::new(crate::base::Base::single(4).unwrap(), Encoding::Range),
        )
        .unwrap()
    }

    #[test]
    fn fetch_dedupes_within_query() {
        let idx = small_index();
        let mut src = idx.source();
        let mut ctx = ExecContext::new(&mut src);
        let a = ctx.fetch(1, 0).unwrap();
        let b = ctx.fetch(1, 0).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(ctx.stats().scans, 1);
        ctx.fetch(1, 1).unwrap();
        assert_eq!(ctx.stats().scans, 2);
    }

    #[test]
    fn take_stats_resets_cache() {
        let idx = small_index();
        let mut src = idx.source();
        let mut ctx = ExecContext::new(&mut src);
        ctx.fetch(1, 0).unwrap();
        let s = ctx.take_stats();
        assert_eq!(s.scans, 1);
        ctx.fetch(1, 0).unwrap(); // new query: scan again
        assert_eq!(ctx.stats().scans, 1);
    }

    #[test]
    fn buffer_residency_skips_scan() {
        let idx = small_index();
        let mut src = idx.source();
        let buf = BufferSet::from_pairs([(1, 0)]);
        let mut ctx = ExecContext::with_buffer(&mut src, &buf);
        ctx.fetch(1, 0).unwrap();
        ctx.fetch(1, 1).unwrap();
        assert_eq!(ctx.stats().scans, 1);
        assert_eq!(ctx.stats().buffer_hits, 1);
    }

    #[test]
    fn fold_charges_each_step_as_the_operator_it_spells() {
        use FoldStep::{And, AndNot, AndXor, Or};
        let idx = small_index();
        let mut src = idx.source();
        let mut ctx = ExecContext::new(&mut src);
        let bits = |len, ones: &[usize]| BitVec::from_indices(len, ones);
        let ops = |s: &EvalStats| [s.ands, s.ors, s.xors, s.nots];
        let chain = |seed, steps, complement, mask| Fold {
            seed,
            steps,
            complement,
            mask,
        };
        let (a, b, c) = (
            bits(6, &[0, 1, 2]),
            bits(6, &[1, 2, 3]),
            bits(6, &[2, 3, 4]),
        );
        // (program, result, [ands, ors, xors, nots] charged): a lone seed
        // charges nothing, a seedless chain's leading `And` one AND.
        #[rustfmt::skip]
        let cases = [
            (chain(Some(&a), vec![], false, None), bits(6, &[0, 1, 2]), [0, 0, 0, 0]),
            (chain(Some(&a), vec![And(&b)], false, None), bits(6, &[1, 2]), [1, 0, 0, 0]),
            (chain(Some(&a), vec![Or(&b)], false, None), bits(6, &[0, 1, 2, 3]), [0, 1, 0, 0]),
            (chain(Some(&a), vec![AndNot(&b)], false, None), bits(6, &[0]), [1, 0, 0, 1]),
            (chain(Some(&a), vec![AndXor(&b, &c)], false, None), bits(6, &[1]), [1, 0, 1, 0]),
            (chain(Some(&a), vec![], true, None), bits(6, &[3, 4, 5]), [0, 0, 0, 1]),
            (chain(Some(&a), vec![], false, Some(&c)), bits(6, &[2]), [1, 0, 0, 0]),
            (chain(None, vec![And(&a), And(&b)], false, None), bits(6, &[1, 2]), [2, 0, 0, 0]),
        ];
        for (program, want, charged) in cases {
            let before = ops(ctx.stats());
            assert_eq!(ctx.fold(&program), want, "{program:?}");
            let after = ops(ctx.stats());
            let delta: [usize; 4] = std::array::from_fn(|i| after[i] - before[i]);
            assert_eq!(delta, charged, "{program:?}");
        }

        // Segmented: charged on segment 0 only. A chain that can only clear
        // bits and starts all zero in the window is not run; the segment
        // counts as skipped and the charges stand.
        ctx.take_stats();
        let (x, y) = (bits(128, &[70, 80]), bits(128, &[5, 70]));
        // (segment start, program, result, skipped)
        #[rustfmt::skip]
        let segments = [
            (0, chain(Some(&x), vec![And(&y)], false, None), bits(64, &[]), 1),
            (64, chain(Some(&x), vec![And(&y)], false, None), bits(64, &[6]), 0),
            (0, chain(None, vec![And(&x), AndNot(&y)], false, None), bits(64, &[]), 1),
            (0, chain(Some(&x), vec![Or(&y)], false, None), bits(64, &[5]), 0),
            (0, chain(Some(&x), vec![And(&y)], true, None), BitVec::ones(64), 0),
        ];
        for (index, (lo, program, want, skipped)) in segments.into_iter().enumerate() {
            ctx.begin_segment(lo, lo + 64, index);
            assert_eq!(ctx.fold(&program), want, "segment {index}");
            let before = ctx.stats().segments_skipped;
            ctx.end_segment();
            assert_eq!(ctx.stats().segments_skipped - before, skipped, "{index}");
        }
        ctx.exit_segments();
        let s = ctx.take_stats();
        assert_eq!(ops(&s), [1, 0, 0, 0], "charged on segment 0 only");
        assert_eq!((s.segments_evaluated, s.segments_skipped), (5, 2));
    }

    /// A source that serves sparse slots WAH-compressed, like a v3 store.
    struct WahSource<'a> {
        index: &'a BitmapIndex,
    }

    impl BitmapSource for WahSource<'_> {
        fn spec(&self) -> &IndexSpec {
            self.index.spec()
        }
        fn n_rows(&self) -> usize {
            self.index.n_rows()
        }
        fn try_fetch(&mut self, comp: usize, slot: usize) -> Result<BitVec> {
            Ok(self.index.bitmap(comp, slot).clone())
        }
        fn try_fetch_nn(&mut self) -> Result<Option<BitVec>> {
            Ok(self.index.nn().cloned())
        }
        fn try_fetch_repr(&mut self, comp: usize, slot: usize) -> Result<Repr> {
            Ok(Repr::wah(wah::WahBitmap::from_bitvec(
                self.index.bitmap(comp, slot),
            )))
        }
    }

    #[test]
    fn default_source_serves_literal_reprs() {
        let idx = small_index();
        let mut src = idx.source();
        let mut ctx = ExecContext::new(&mut src);
        let repr = ctx.fetch_repr(1, 0).unwrap();
        assert!(!repr.is_compressed());
        assert_eq!(ctx.stats().scans, 1);
        // The dense fetch reuses the cached entry: no new scan, and no
        // materialization needed for a literal.
        let bits = ctx.fetch(1, 0).unwrap();
        assert_eq!(*bits, *idx.bitmap(1, 0));
        assert_eq!(ctx.stats().scans, 1);
        assert_eq!(ctx.stats().materializations, 0);
    }

    #[test]
    fn compressed_fetch_materializes_once() {
        // 6 rows, sparse slots; a big sparse index exercises the same path.
        let idx = small_index();
        let mut src = WahSource { index: &idx };
        let mut ctx = ExecContext::new(&mut src);
        let repr = ctx.fetch_repr(1, 0).unwrap();
        assert!(repr.is_compressed());
        let a = ctx.fetch(1, 0).unwrap();
        let b = ctx.fetch(1, 0).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "cache upgraded to the dense copy");
        assert_eq!(*a, *idx.bitmap(1, 0));
        let s = ctx.stats();
        assert_eq!(s.scans, 1);
        assert_eq!(s.materializations, 1);
    }

    /// A source serving a v4-style summary block alongside its bitmaps,
    /// counting the representation fetches that actually reach it.
    struct SummarySource<'a> {
        index: &'a BitmapIndex,
        summaries: Arc<bindex_bitvec::IndexSummaries>,
        repr_fetches: usize,
    }

    impl BitmapSource for SummarySource<'_> {
        fn spec(&self) -> &IndexSpec {
            self.index.spec()
        }
        fn n_rows(&self) -> usize {
            self.index.n_rows()
        }
        fn try_fetch(&mut self, comp: usize, slot: usize) -> Result<BitVec> {
            Ok(self.index.bitmap(comp, slot).clone())
        }
        fn try_fetch_nn(&mut self) -> Result<Option<BitVec>> {
            Ok(self.index.nn().cloned())
        }
        fn try_fetch_repr(&mut self, comp: usize, slot: usize) -> Result<Repr> {
            self.repr_fetches += 1;
            Ok(Repr::from(self.index.bitmap(comp, slot).clone()))
        }
        fn try_fetch_summary(&mut self) -> Option<Arc<bindex_bitvec::IndexSummaries>> {
            Some(Arc::clone(&self.summaries))
        }
    }

    /// Rows valued 1 only where `live(row)` holds, cardinality 2 indexed
    /// at base 4 so the equality index has provably-dead slots (2 and 3).
    fn windowed_index(n: usize, live: impl Fn(usize) -> bool) -> BitmapIndex {
        let col = Column::new((0..n).map(|i| u32::from(live(i))).collect(), 2);
        BitmapIndex::build(
            &col,
            IndexSpec::new(crate::base::Base::single(4).unwrap(), Encoding::Equality),
        )
        .unwrap()
    }

    #[test]
    fn summary_pruning_serves_exact_zeros_without_touching_storage() {
        let w = bindex_bitvec::SUMMARY_WINDOW_BITS;
        let idx = windowed_index(2 * w, |i| i < 17);
        let summaries = Arc::new(bindex_bitvec::IndexSummaries::build(
            idx.n_rows(),
            idx.components(),
            idx.nn(),
        ));
        let mut src = SummarySource {
            index: &idx,
            summaries,
            repr_fetches: 0,
        };
        let mut ctx = ExecContext::new(&mut src);
        // Segment 0: slot 1 is live (rows 0..17), slot 2 is dead everywhere.
        ctx.begin_segment(0, w, 0);
        let live = ctx.fetch(1, 1).unwrap();
        assert_eq!(live.as_ref(), idx.bitmap(1, 1), "live slot fetched whole");
        let dead = ctx.fetch(1, 2).unwrap();
        assert_eq!(dead.len(), w, "pruned fetch is window-sized");
        assert!(dead.none(), "pruned fetch is exact zeros");
        ctx.end_segment();
        // Segment 1: slot 1 comes from the fetch cache, slot 2 prunes again.
        ctx.begin_segment(w, 2 * w, 1);
        assert_eq!(ctx.fetch(1, 1).unwrap().as_ref(), idx.bitmap(1, 1));
        assert!(ctx.fetch(1, 2).unwrap().none());
        ctx.end_segment();
        ctx.exit_segments();
        let s = ctx.take_stats();
        // One real scan (slot 1) plus one synthetic charge (slot 2): the
        // totals a pruning-free run would report.
        assert_eq!(s.scans, 2);
        assert_eq!(s.segments_evaluated, 2);
        assert_eq!(s.segments_pruned, 2, "both segments pruned slot 2");
        assert_eq!(s.segments_skipped, 0, "disjoint from skips");
        drop(ctx);
        assert_eq!(src.repr_fetches, 1, "the dead slot never reached storage");
    }

    #[test]
    fn deferred_real_fetch_charges_once() {
        let w = bindex_bitvec::SUMMARY_WINDOW_BITS;
        // Slot 1 is live only in the *second* window: segment 0 prunes it
        // (charging its scan), segment 1 fetches it for real (free).
        let idx = windowed_index(2 * w, |i| (w..w + 10).contains(&i));
        let summaries = Arc::new(bindex_bitvec::IndexSummaries::build(
            idx.n_rows(),
            idx.components(),
            idx.nn(),
        ));
        let mut src = SummarySource {
            index: &idx,
            summaries,
            repr_fetches: 0,
        };
        let mut ctx = ExecContext::new(&mut src);
        ctx.begin_segment(0, w, 0);
        assert!(ctx.fetch(1, 1).unwrap().none());
        assert_eq!(ctx.stats().scans, 1, "synthetic charge at prune time");
        ctx.end_segment();
        ctx.begin_segment(w, 2 * w, 1);
        let got = ctx.fetch(1, 1).unwrap();
        assert_eq!(got.as_ref(), idx.bitmap(1, 1));
        ctx.end_segment();
        ctx.exit_segments();
        let s = ctx.take_stats();
        assert_eq!(s.scans, 1, "real fetch must not double-charge");
        assert_eq!(s.segments_pruned, 1);
        drop(ctx);
        assert_eq!(src.repr_fetches, 1);
    }

    #[test]
    fn pruning_disabled_and_buffered_charges_match() {
        let w = bindex_bitvec::SUMMARY_WINDOW_BITS;
        let idx = windowed_index(2 * w, |i| i < 17);
        let summaries = Arc::new(bindex_bitvec::IndexSummaries::build(
            idx.n_rows(),
            idx.components(),
            idx.nn(),
        ));
        // Disabled: every fetch reaches storage, nothing is pruned.
        let mut src = SummarySource {
            index: &idx,
            summaries: Arc::clone(&summaries),
            repr_fetches: 0,
        };
        let mut ctx = ExecContext::new(&mut src).with_pruning(false);
        ctx.begin_segment(0, w, 0);
        ctx.fetch(1, 2).unwrap();
        ctx.end_segment();
        let s = ctx.take_stats();
        assert_eq!((s.scans, s.segments_pruned), (1, 0));
        drop(ctx);
        assert_eq!(src.repr_fetches, 1);
        // Buffer-resident pruned slot charges a buffer hit, not a scan —
        // the same deterministic rule a real fetch applies.
        let buf = BufferSet::from_pairs([(1, 2)]);
        let mut src = SummarySource {
            index: &idx,
            summaries,
            repr_fetches: 0,
        };
        let mut ctx = ExecContext::with_buffer(&mut src, &buf);
        ctx.begin_segment(0, w, 0);
        assert!(ctx.fetch(1, 2).unwrap().none());
        ctx.end_segment();
        let s = ctx.take_stats();
        assert_eq!((s.scans, s.buffer_hits, s.segments_pruned), (0, 1, 1));
        drop(ctx);
        assert_eq!(src.repr_fetches, 0);
    }

    /// A slot the summaries prove all ones reads the shared ones window;
    /// a ragged last window reads a shorter one, and the next query in the
    /// same context reads full windows of ones again.
    #[test]
    fn a_ragged_last_window_leaves_the_next_query_its_ones() {
        let w = bindex_bitvec::SUMMARY_WINDOW_BITS;
        let rows = 2 * w + 100;
        let idx = windowed_index(rows, |_| true);
        let summaries = Arc::new(bindex_bitvec::IndexSummaries::build(
            idx.n_rows(),
            idx.components(),
            idx.nn(),
        ));
        let mut src = SummarySource {
            index: &idx,
            summaries,
            repr_fetches: 0,
        };
        let mut ctx = ExecContext::new(&mut src);
        let query = SelectionQuery::new(Op::Eq, 1).into();
        for run in 0..2 {
            let found = evaluate_repr_in(&mut ctx, &query, Algorithm::Auto, Some(w)).unwrap();
            assert_eq!(found.to_bitvec().count_ones(), rows, "run {run}");
            assert_eq!(ctx.take_stats().segments_pruned, 3, "run {run}");
        }
        drop(ctx);
        assert_eq!(
            src.repr_fetches, 0,
            "the saturated slot never reached storage"
        );
    }

    #[test]
    fn mismatched_summaries_never_prune() {
        let w = bindex_bitvec::SUMMARY_WINDOW_BITS;
        let idx = windowed_index(2 * w, |i| i < 17);
        // A stale block summarizing a different row count must be ignored.
        let stale = Arc::new(bindex_bitvec::IndexSummaries::build(
            w,
            &[vec![BitVec::zeros(w); 4]],
            None,
        ));
        let mut src = SummarySource {
            index: &idx,
            summaries: stale,
            repr_fetches: 0,
        };
        let mut ctx = ExecContext::new(&mut src);
        ctx.begin_segment(0, w, 0);
        let got = ctx.fetch(1, 2).unwrap();
        assert_eq!(got.as_ref(), idx.bitmap(1, 2), "served from storage");
        ctx.end_segment();
        assert_eq!(ctx.stats().segments_pruned, 0);
        drop(ctx);
        assert_eq!(src.repr_fetches, 1);
    }

    fn equality_index() -> (Column, BitmapIndex) {
        let col = Column::new(vec![0, 1, 2, 3, 2, 1, 0, 3, 1], 4);
        let idx = BitmapIndex::build(
            &col,
            IndexSpec::new(crate::base::Base::single(4).unwrap(), Encoding::Equality),
        )
        .unwrap();
        (col, idx)
    }

    #[test]
    fn default_policy_propagates_fetch_errors() {
        let (_, idx) = equality_index();
        let mut src = FlakySource {
            index: &idx,
            broken: HashSet::from([(1, 2)]),
        };
        let mut ctx = ExecContext::new(&mut src);
        assert!(matches!(ctx.fetch(1, 2), Err(Error::ChecksumMismatch(_))));
        assert_eq!(ctx.stats().degraded_fetches, 0);
    }

    #[test]
    fn equality_slot_rebuilt_from_siblings() {
        let (_, idx) = equality_index();
        let mut src = FlakySource {
            index: &idx,
            broken: HashSet::from([(1, 2)]),
        };
        let mut ctx = ExecContext::new(&mut src).with_recovery(RecoveryPolicy::Reconstruct);
        let got = ctx.fetch(1, 2).unwrap();
        assert_eq!(got.as_ref(), idx.bitmap(1, 2));
        let s = ctx.stats();
        assert_eq!(s.degraded_fetches, 1);
        assert_eq!(s.reconstructed_bitmaps, 1);
        // 3 sibling scans, OR-folded (2 ORs) and complemented (1 NOT).
        assert_eq!((s.scans, s.ors, s.nots), (3, 2, 1));
        // Siblings landed in the cache: refetching one costs nothing new.
        ctx.fetch(1, 0).unwrap();
        assert_eq!(ctx.stats().scans, 3);
    }

    #[test]
    fn sibling_rebuild_masks_null_rows() {
        let col = Column::new(vec![0, 1, 2, 3, 2, 1], 4);
        let nulls = BitVec::from_indices(6, &[1, 4]);
        let idx = BitmapIndex::build_with_nulls(
            &col,
            &nulls,
            IndexSpec::new(crate::base::Base::single(4).unwrap(), Encoding::Equality),
        )
        .unwrap();
        let mut src = FlakySource {
            index: &idx,
            broken: HashSet::from([(1, 1)]),
        };
        let mut ctx = ExecContext::new(&mut src).with_recovery(RecoveryPolicy::Reconstruct);
        let got = ctx.fetch(1, 1).unwrap();
        // Rows 1 and 4 are null: NOT(OR(siblings)) alone would set them.
        assert_eq!(got.as_ref(), idx.bitmap(1, 1));
        assert_eq!(got.iter_ones().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn scan_fallback_covers_range_and_two_missing_slots() {
        // Range encoding has no sibling identity; only the relation scan
        // can recover it.
        let col = Column::new(vec![3, 2, 1, 2, 8, 2, 2, 0, 7, 5, 6, 4], 9);
        let spec = IndexSpec::new(crate::base::Base::single(9).unwrap(), Encoding::Range);
        let idx = BitmapIndex::build(&col, spec).unwrap();
        let mut src = FlakySource {
            index: &idx,
            broken: HashSet::from([(1, 3)]),
        };
        let mut ctx = ExecContext::new(&mut src).with_recovery(RecoveryPolicy::Reconstruct);
        assert!(ctx.fetch(1, 3).is_err(), "reconstruct-only cannot help");
        let mut ctx = ExecContext::new(&mut src)
            .with_recovery(RecoveryPolicy::ReconstructOrScan(Arc::new(col.clone())));
        let got = ctx.fetch(1, 3).unwrap();
        assert_eq!(got.as_ref(), idx.bitmap(1, 3));
        let s = ctx.stats();
        assert_eq!(s.degraded_fetches, 1);
        assert_eq!(s.reconstructed_bitmaps, 0, "scan, not sibling identity");

        // Two broken slots of one equality component: siblings cannot
        // rebuild each other, but the scan rebuilds both.
        let (col, idx) = equality_index();
        let mut src = FlakySource {
            index: &idx,
            broken: HashSet::from([(1, 0), (1, 2)]),
        };
        let mut ctx = ExecContext::new(&mut src)
            .with_recovery(RecoveryPolicy::ReconstructOrScan(Arc::new(col)));
        for slot in [0usize, 2] {
            let got = ctx.fetch(1, slot).unwrap();
            assert_eq!(got.as_ref(), idx.bitmap(1, slot), "slot {slot}");
        }
        let s = ctx.stats();
        assert_eq!(s.degraded_fetches, 2);
        // Slot 0 fell back to the scan (slot 2 was unreadable as its
        // sibling), but once recovered it sits in the fetch cache, so
        // slot 2 rebuilds from siblings after all.
        assert_eq!(s.reconstructed_bitmaps, 1);
    }

    #[test]
    fn scan_fallback_rejects_a_column_one_row_short() {
        // A rebuilt slot one bit short used to reach the kernels' length
        // assert (whole-bitmap) or `view_range`'s bound (segmented).
        let col = Column::new(vec![3, 2, 1, 2, 8, 2, 2, 0, 7, 5, 6, 4], 9);
        let spec = IndexSpec::new(crate::base::Base::single(9).unwrap(), Encoding::Range);
        let idx = BitmapIndex::build(&col, spec).unwrap();
        let short = Arc::new(Column::new(col.values()[..11].to_vec(), 9));
        let mut src = FlakySource {
            index: &idx,
            broken: HashSet::from([(1, 3)]),
        };
        let query = SelectionQuery::new(Op::Le, 3).into();
        for segment_bits in [None, Some(512)] {
            let mut ctx = ExecContext::new(&mut src)
                .with_recovery(RecoveryPolicy::ReconstructOrScan(Arc::clone(&short)));
            let got = evaluate_repr_in(&mut ctx, &query, Algorithm::Auto, segment_bits);
            assert!(
                matches!(got, Err(Error::CorruptIndex(_))),
                "{segment_bits:?}: {got:?}"
            );
        }
    }
}
