//! Evaluation algorithms for selection queries (Section 3).
//!
//! Four index-based evaluators are provided, plus a naive column scan as
//! ground truth:
//!
//! * [`range_opt`] — **RangeEval-Opt**, the paper's improved algorithm for
//!   range-encoded indexes (Figure 6, right). Evaluates every operator via
//!   the `≤` chain using the identities `A < v ≡ A ≤ v−1`,
//!   `A > v ≡ ¬(A ≤ v)`, `A ≥ v ≡ ¬(A ≤ v−1)`.
//! * [`range_eval`] — **RangeEval**, O'Neil & Quass's Algorithm 4.3
//!   (Figure 6, left), which incrementally maintains `B_EQ` and `B_LT`/`B_GT`.
//! * [`equality`] — the evaluator for equality-encoded indexes
//!   (reconstructed; the paper defers its listing to the tech report).
//! * [`interval`] — the evaluator for the extension interval encoding
//!   (Chan & Ioannidis, SIGMOD 1999).
//! * [`naive`] — a direct column scan used as the correctness oracle.
//!
//! Each index evaluator is a builder: a pure function of the base and the
//! query that returns the query's whole evaluation as one program over
//! slot addresses. An [`ExecContext`](crate::exec) runs every program and
//! reports exact [`EvalStats`](crate::exec) statistics.

pub mod equality;
pub mod interval;
pub mod naive;
pub mod range_eval;
pub mod range_opt;
pub mod threshold;

use bindex_bitvec::kernels::Fold;
use bindex_bitvec::BitVec;
use bindex_compress::Repr;
use bindex_relation::query::{Op, Query, SelectionQuery};

use crate::base::Base;
use crate::encoding::{Encoding, IndexSpec};
use crate::error::{Error, Result};
use crate::exec::{Answer, Bound, EvalStats, ExecContext, Operand, Program, Term};
use crate::index::BitmapSource;

/// Which evaluation algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// O'Neil & Quass's RangeEval (range encoding only).
    RangeEval,
    /// The paper's RangeEval-Opt (range encoding only).
    RangeEvalOpt,
    /// The equality-encoded evaluator.
    EqualityEval,
    /// The interval-encoded evaluator (extension; SIGMOD 1999 encoding).
    IntervalEval,
    /// Pick by encoding: Range → RangeEval-Opt, Equality → EqualityEval,
    /// Interval → IntervalEval.
    Auto,
}

impl Algorithm {
    /// Resolves `Auto` against an encoding.
    pub fn resolve(self, encoding: Encoding) -> Algorithm {
        match self {
            Algorithm::Auto => match encoding {
                Encoding::Range => Algorithm::RangeEvalOpt,
                Encoding::Equality => Algorithm::EqualityEval,
                Encoding::Interval => Algorithm::IntervalEval,
            },
            other => other,
        }
    }
}

/// Evaluates one query — a [`SelectionQuery`], a
/// [`ThresholdQuery`](bindex_relation::query::ThresholdQuery) or a
/// [`Query`] — against a bitmap source, returning the foundset and the
/// exact evaluation statistics. [`evaluate_in`] in a context of its own.
pub fn evaluate<S: BitmapSource>(
    source: &mut S,
    query: impl Into<Query>,
    algorithm: Algorithm,
) -> Result<(BitVec, EvalStats)> {
    let mut ctx = ExecContext::new(source);
    let found = evaluate_in(&mut ctx, query, algorithm)?;
    let stats = ctx.take_stats();
    Ok((found, stats))
}

/// Evaluates within an existing context (stats accumulate; call
/// `ctx.take_stats()` between queries). [`evaluate_repr_in`] with a
/// whole-bitmap fallback, its result decoded if it came back compressed.
pub fn evaluate_in<S: BitmapSource>(
    ctx: &mut ExecContext<'_, S>,
    query: impl Into<Query>,
    algorithm: Algorithm,
) -> Result<BitVec> {
    let found = evaluate_repr_in(ctx, &query.into(), algorithm, None)?;
    Ok(ctx.materialize(found))
}

/// *The* evaluator: one query of either kind to a foundset in whichever
/// representation the evaluation produced — the entry point for callers
/// that may never need dense words (a cache); [`evaluate`],
/// [`evaluate_in`] and [`evaluate_segmented_in`] are this plus
/// [`ExecContext::materialize`], and [`count_in`] is its cardinality
/// without the foundset. A selection is its evaluator's program, run by
/// the context; the route is chosen per query, from what the operands are:
///
/// * A program that is one compressible term — any RangeEval-Opt query,
///   `A = v` / `A ≠ v` on an equality-encoded index — whose every operand
///   (`B_nn` included) is served [`Repr::Wah`] within the 1/16 rule, with
///   no delta overlay attached, is folded over the operands' runs; the
///   result is [`Repr::Wah`] and nothing was decoded.
/// * Everything else — several terms, a literal or poorly compressed
///   operand, with `segment_bits` a slot the summaries prove constant, a
///   reconstructed slot, an overlay, any threshold — comes back
///   [`Repr::Literal`]: whole-bitmap when `segment_bits` is `None` (where
///   a term of several may still take the WAH fold), else window by window
///   with summary pruning, the threshold early-exit bound and a
///   cooperative deadline check between windows.
///
/// Answers and the paper-model counters (scans, ANDs, ORs, XORs, NOTs,
/// threshold combines) are identical on every path; only where the
/// operations ran ([`EvalStats::compressed_ops`],
/// [`EvalStats::materializations`], the `segments_*` counters) tells them
/// apart. A query [`validate`] rejects is its typed error before anything
/// is fetched.
///
/// # Panics
/// Panics if `segment_bits` is `Some` of zero or of a non-multiple of 64.
pub fn evaluate_repr_in<S: BitmapSource>(
    ctx: &mut ExecContext<'_, S>,
    query: &Query,
    algorithm: Algorithm,
    segment_bits: Option<usize>,
) -> Result<Repr> {
    Ok(run_query(ctx, query, algorithm, segment_bits, true)?.into_repr())
}

/// [`evaluate_repr_in`]'s cardinality, by the same routes, reads, pruning,
/// charges and deadline checks, with the same [`EvalStats`]. A selection
/// writes no foundset: a WAH answer's count is a run-length sum, and a
/// dense answer term ends in a fused popcount, whole or window by window
/// with no output buffer — unless it is not the program's last term
/// (RangeEval's `<`, `>`), whose result is counted. A threshold counts its
/// combined foundset.
///
/// # Panics
/// Panics if `segment_bits` is `Some` of zero or of a non-multiple of 64.
pub fn count_in<S: BitmapSource>(
    ctx: &mut ExecContext<'_, S>,
    query: &Query,
    algorithm: Algorithm,
    segment_bits: Option<usize>,
) -> Result<u64> {
    Ok(run_query(ctx, query, algorithm, segment_bits, false)?.count_ones() as u64)
}

/// The one body of [`evaluate_repr_in`] and [`count_in`]: `query`
/// validated, its programs built before anything is fetched, then run
/// whole or window by window, each bound once for the query. A
/// compressible program is offered the WAH fold first.
fn run_query<S: BitmapSource>(
    ctx: &mut ExecContext<'_, S>,
    query: &Query,
    algorithm: Algorithm,
    segment_bits: Option<usize>,
    keep: bool,
) -> Result<Answer> {
    validate(ctx.spec(), query)?;
    ctx.forget_bound();
    match query {
        Query::Selection(q) => {
            let program = program(ctx.spec(), *q, algorithm, true)?;
            if let ([term], true) = (&program.terms[..], program.compressible) {
                if let Some(found) = ctx.fold_term_wah(term, segment_bits.is_some())? {
                    return Ok(Answer::Wah(found));
                }
            }
            let mut bound = Bound::new();
            walk(ctx, segment_bits, keep, |ctx, _, keep| {
                ctx.run(&program, &mut bound, keep)
            })
        }
        Query::Threshold(q) => {
            let predicates = q
                .predicates
                .iter()
                .map(|&p| program(ctx.spec(), p, algorithm, false))
                .collect::<Result<Vec<_>>>()?;
            let mut bound = vec![Bound::new(); predicates.len()];
            let k = q.k as usize;
            let Some(segment_bits) = segment_bits else {
                let found = threshold::evaluate_window(ctx, &predicates, &mut bound, k, true)?;
                return Ok(Answer::Dense(found));
            };
            walk(ctx, Some(segment_bits), keep, |ctx, charging, keep| {
                let found = threshold::evaluate_window(ctx, &predicates, &mut bound, k, charging)?;
                Ok(match keep {
                    Some(out) => {
                        out.extend_from_slice(found.words());
                        0
                    }
                    None => found.count_ones(),
                })
            })
        }
    }
}

/// A well-formed query for an index of layout `spec`, decided before
/// anything is fetched: a malformed threshold (`k = 0`, `k > N`, no
/// predicates) is [`Error::InvalidQuery`], and a predicate — a selection,
/// or any of a threshold's — whose chain constant the base cannot
/// decompose (`A ≤ v` or `A = v` with `v ≥ Π b_i`, so `A < Π b_i` is fine)
/// is [`Error::ValueOutOfRange`]. Both are the caller's mistake, never a
/// fault of the index.
pub fn validate(spec: &IndexSpec, query: &Query) -> Result<()> {
    let product = spec.base.product();
    let in_range = |q: &SelectionQuery| match reduce(*q) {
        Reduced::Chain(Chain::Le(v) | Chain::Eq(v), _) if u128::from(v) >= product => {
            Err(Error::ValueOutOfRange {
                value: q.constant,
                cardinality: u32::try_from(product).unwrap_or(u32::MAX),
            })
        }
        _ => Ok(()),
    };
    match query {
        Query::Selection(q) => in_range(q),
        Query::Threshold(q) => {
            threshold::validate(q)?;
            q.predicates.iter().try_for_each(in_range)
        }
    }
}

/// The chain a selection runs once [`reduce`]d: the `≤` or the `=`
/// recurrence over the constant's digits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Chain {
    /// `A ≤ v`.
    Le(u32),
    /// `A = v`.
    Eq(u32),
}

/// What the six operators reduce to (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Reduced {
    /// `A < 0`: the empty foundset — no scan, no operation.
    Empty,
    /// `A ≥ 0`: every non-null row — all ones under the `B_nn` mask.
    NonNull,
    /// The chain, complemented when the flag is set, then masked by `B_nn`.
    Chain(Chain, bool),
}

/// The operator reduction every index evaluator but RangeEval starts
/// from, and every scan predictor: `A < v ≡ A ≤ v−1`, `A > v ≡ ¬(A ≤ v)`,
/// `A ≥ v ≡ ¬(A ≤ v−1)`, `A ≠ v ≡ ¬(A = v)`, with the two constant-free
/// edges.
pub(crate) fn reduce(query: SelectionQuery) -> Reduced {
    let v = query.constant;
    match query.op {
        Op::Le => Reduced::Chain(Chain::Le(v), false),
        Op::Gt => Reduced::Chain(Chain::Le(v), true),
        Op::Lt if v == 0 => Reduced::Empty,
        Op::Lt => Reduced::Chain(Chain::Le(v - 1), false),
        Op::Ge if v == 0 => Reduced::NonNull,
        Op::Ge => Reduced::Chain(Chain::Le(v - 1), true),
        Op::Eq => Reduced::Chain(Chain::Eq(v), false),
        Op::Ne => Reduced::Chain(Chain::Eq(v), true),
    }
}

/// The program of an evaluator that starts from [`reduce`]: `chain` builds
/// the `≤` or `=` chain, pushing any term it names first, and the answer
/// is that chain, complemented when the reduction says so and masked by
/// `B_nn`. `A < 0` adds no term: its answer is the zeros.
pub(crate) fn chain_program(
    query: SelectionQuery,
    chain: impl FnOnce(&mut Program, Chain) -> Term,
) -> Program {
    let mut program = Program::default();
    let (chain, complement) = match reduce(query) {
        Reduced::Empty => return program,
        Reduced::NonNull => (Term::default(), false),
        Reduced::Chain(c, complement) => (chain(&mut program, c), complement),
    };
    let mask = Some(Operand::Nn);
    program.answer = program.push(Fold {
        complement,
        mask,
        ..chain
    });
    program
}

/// `query`'s program on an index of layout `spec`, from the builder of the
/// evaluator `algorithm` resolves to; an evaluator that does not fit the
/// encoding is [`Error::EncodingMismatch`]. RangeEval-Opt's every query
/// and equality's `=` / `≠` are one term; as a selection's `whole`
/// evaluation, not a threshold's operand, its answer may come back
/// compressed.
pub(crate) fn program(
    spec: &IndexSpec,
    query: SelectionQuery,
    algorithm: Algorithm,
    whole: bool,
) -> Result<Program> {
    let (base, actual) = (&spec.base, spec.encoding);
    let algorithm = algorithm.resolve(actual);
    let expected = match algorithm {
        Algorithm::RangeEval | Algorithm::RangeEvalOpt => Encoding::Range,
        Algorithm::EqualityEval => Encoding::Equality,
        Algorithm::IntervalEval => Encoding::Interval,
        Algorithm::Auto => unreachable!("resolved above"),
    };
    if actual != expected {
        let (expected, actual) = (expected.name(), actual.name());
        return Err(Error::EncodingMismatch { expected, actual });
    }
    let mut program = match algorithm {
        Algorithm::RangeEval => range_eval::program(base, query)?,
        Algorithm::EqualityEval => equality::program(base, query),
        Algorithm::IntervalEval => interval::program(base, query),
        _ => range_opt::program(base, query),
    };
    program.compressible = whole
        && (algorithm == Algorithm::RangeEvalOpt
            || algorithm == Algorithm::EqualityEval && matches!(query.op, Op::Eq | Op::Ne));
    Ok(program)
}

/// Segment-at-a-time evaluation within an existing context: the program
/// runs over windows of `segment_bits` bits so every intermediate stays
/// cache-resident. [`evaluate_repr_in`] with a segmented fallback, its
/// result decoded if it came back compressed. Bit-identical to
/// [`evaluate_in`], with the same paper-model counters (ops are charged on
/// the first segment only) plus [`EvalStats::segments_evaluated`] /
/// [`EvalStats::segments_skipped`], which stay zero when the query ran in
/// the compressed domain. The context's fetch cache persists across
/// segments (and across queries, as in [`evaluate_in`]).
///
/// # Panics
/// Panics if `segment_bits` is zero or not a multiple of 64.
pub fn evaluate_segmented_in<S: BitmapSource>(
    ctx: &mut ExecContext<'_, S>,
    query: impl Into<Query>,
    algorithm: Algorithm,
    segment_bits: usize,
) -> Result<BitVec> {
    let found = evaluate_repr_in(ctx, &query.into(), algorithm, Some(segment_bits))?;
    Ok(ctx.materialize(found))
}

/// The one walk over a query's windows, and the only caller of
/// `begin_segment`: `window` runs on every segment of `[0, n_rows)` in
/// order — on all rows at once, outside segmented mode, when
/// `segment_bits` is `None` — given whether its run is charged for the
/// full data-independent operator sequence (segment 0; a threshold's
/// later segments may take the early-exit bound), and appends its words
/// to the foundset when `keep`, or returns its count. An empty relation
/// still runs one empty segment, so the charges are those of whole-bitmap
/// mode. The first segment always runs; later ones are shed with
/// [`Error::DeadlineExceeded`] once the context's deadline has passed.
/// Leaves segmented mode however the walk ends.
///
/// # Panics
/// Panics if `segment_bits` is `Some` of zero or of a non-multiple of 64.
fn walk<S: BitmapSource>(
    ctx: &mut ExecContext<'_, S>,
    segment_bits: Option<usize>,
    keep: bool,
    mut window: impl FnMut(&mut ExecContext<'_, S>, bool, Option<&mut Vec<u64>>) -> Result<usize>,
) -> Result<Answer> {
    let n_rows = ctx.n_rows();
    let mut out = match keep {
        true => bindex_bitvec::spare_words(bindex_bitvec::words_for(n_rows)),
        false => Vec::new(),
    };
    let ones = match segment_bits {
        None => window(ctx, true, keep.then_some(&mut out))?,
        Some(segment_bits) => {
            assert!(
                segment_bits > 0 && segment_bits.is_multiple_of(64),
                "segment size must be a positive multiple of 64 bits"
            );
            let mut ones = 0;
            // An empty relation is one empty segment.
            let mut starts = (0..n_rows.max(1)).step_by(segment_bits).enumerate();
            let walked = starts.try_for_each(|(index, lo)| {
                if index > 0 && ctx.deadline_expired() {
                    return Err(Error::DeadlineExceeded);
                }
                ctx.begin_segment(lo, (lo + segment_bits).min(n_rows), index);
                ones += window(ctx, index == 0, keep.then_some(&mut out))?;
                ctx.end_segment();
                Ok(())
            });
            ctx.exit_segments();
            walked?;
            ones
        }
    };
    Ok(match keep {
        true => Answer::Dense(BitVec::from_words(out, n_rows)),
        false => Answer::Count(ones),
    })
}

/// Digit decomposition of a predicate constant, least significant first.
/// [`validate`] has rejected the constants the base cannot decompose.
pub(crate) fn digits_of(base: &Base, v: u32) -> Vec<u32> {
    base.decompose(v).expect("validated predicate constant")
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::base::Base;
    use crate::encoding::IndexSpec;
    use crate::index::BitmapIndex;
    use bindex_compress::wah::WahBitmap;
    use bindex_relation::{query, Column};

    /// One selection over dense words at the context's current width —
    /// the whole relation, or the current window — by `algorithm`'s
    /// program, its answer never compressed.
    pub(crate) fn evaluate_predicate<S: BitmapSource>(
        ctx: &mut ExecContext<'_, S>,
        query: SelectionQuery,
        algorithm: Algorithm,
    ) -> Result<BitVec> {
        let program = program(ctx.spec(), query, algorithm, false)?;
        let mut found = Vec::new();
        ctx.run(&program, &mut Bound::new(), Some(&mut found))?;
        Ok(BitVec::from_words(found, ctx.view_len()))
    }

    fn spec_for(encoding: Encoding) -> IndexSpec {
        IndexSpec::new(Base::from_msb(&[3, 4]).unwrap(), encoding)
    }

    fn algorithms(encoding: Encoding) -> Vec<Algorithm> {
        match encoding {
            Encoding::Range => vec![Algorithm::RangeEval, Algorithm::RangeEvalOpt],
            Encoding::Equality => vec![Algorithm::EqualityEval],
            Encoding::Interval => vec![Algorithm::IntervalEval],
        }
    }

    /// Every algorithm × the full selection space, then thresholds over
    /// fan-ins 1, 2, 3 and 7 at every `k`.
    fn segmented_inputs(encoding: Encoding) -> Vec<(Query, Algorithm)> {
        use query::{Op, ThresholdQuery};
        let mut inputs = Vec::new();
        for algorithm in algorithms(encoding) {
            for q in query::full_space(12) {
                inputs.push((Query::Selection(q), algorithm));
            }
        }
        let preds = [
            SelectionQuery::new(Op::Le, 4),
            SelectionQuery::new(Op::Ge, 3),
            SelectionQuery::new(Op::Ne, 7),
            SelectionQuery::new(Op::Eq, 2),
            SelectionQuery::new(Op::Lt, 10),
            SelectionQuery::new(Op::Gt, 1),
            SelectionQuery::new(Op::Le, 8),
        ];
        for n in [1usize, 2, 3, 7] {
            for k in 1..=n {
                let q = ThresholdQuery::new(k as u32, preds[..n].to_vec());
                inputs.push((Query::Threshold(q), Algorithm::Auto));
            }
        }
        inputs
    }

    /// Scans, buffer hits and the operator charges: what segmentation must
    /// not move.
    fn model_counters(s: &EvalStats) -> [usize; 7] {
        [
            s.scans,
            s.buffer_hits,
            s.ands,
            s.ors,
            s.xors,
            s.nots,
            s.threshold_combines,
        ]
    }

    /// The windowed path for every encoding and evaluator and both kinds
    /// of query, at several segment sizes (one larger than the relation,
    /// one that does not divide it): the foundset is the whole-bitmap one
    /// (itself the per-row answer), the scan and operator charges are the
    /// whole-bitmap charges, and `segments_evaluated` is the segment count.
    #[test]
    fn segmented_matches_whole() {
        const ROWS: usize = 777;
        let values: Vec<u32> = (0..ROWS as u32).map(|i| (i * 37 + i / 5) % 12).collect();
        let col = Column::new(values, 12);
        for encoding in [Encoding::Range, Encoding::Equality, Encoding::Interval] {
            let idx = BitmapIndex::build(&col, spec_for(encoding)).unwrap();
            for (query, algorithm) in segmented_inputs(encoding) {
                let (want, whole) = evaluate(&mut idx.source(), query.clone(), algorithm).unwrap();
                let per_row = match &query {
                    Query::Selection(q) => naive::evaluate(&col, *q),
                    Query::Threshold(q) => BitVec::from_fn(ROWS, |r| q.matches(col.values()[r])),
                };
                assert_eq!(want, per_row, "{encoding:?} {algorithm:?} {query}");
                for seg_bits in [64usize, 128, 256, 512, 1 << 20] {
                    let label = format!("{encoding:?} {algorithm:?} {query} seg={seg_bits}");
                    let mut source = idx.source();
                    let mut ctx = ExecContext::new(&mut source);
                    let found =
                        evaluate_repr_in(&mut ctx, &query, algorithm, Some(seg_bits)).unwrap();
                    let stats = ctx.take_stats();
                    assert_eq!(*found.to_bitvec(), want, "{label}");
                    assert_eq!(model_counters(&stats), model_counters(&whole), "{label}");
                    assert_eq!(stats.segments_evaluated, ROWS.div_ceil(seg_bits), "{label}");
                }
            }
        }
    }

    /// A segmented [`Sink::Keep`] evaluation copies its windows into a
    /// full-length buffer from the spare list, where an all-ones bitmap
    /// was just dropped; the answer carries none of its bits. The relation
    /// is past the list's 128 KiB floor, with a ragged tail.
    #[test]
    fn a_recycled_keep_buffer_never_leaks_a_bit() {
        use query::Op;
        const ROWS: usize = (1 << 20) + 5;
        let values: Vec<u32> = (0..ROWS as u32).map(|i| (i * 37 + i / 5) % 12).collect();
        let col = Column::new(values, 12);
        let idx = BitmapIndex::build(&col, spec_for(Encoding::Range)).unwrap();
        for (op, v) in [(Op::Le, 4), (Op::Eq, 7), (Op::Gt, 11), (Op::Ne, 3)] {
            let q = SelectionQuery::new(op, v);
            // Taken from the list by `zeros`, so the list keeps it when
            // it is dropped; one word longer, so the answer's tail word
            // lands on an all-ones word.
            let mut ones = BitVec::zeros(ROWS + 64);
            ones.set_all();
            drop(ones);
            let mut source = idx.source();
            let mut ctx = ExecContext::new(&mut source);
            let got = evaluate_segmented_in(&mut ctx, q, Algorithm::RangeEvalOpt, 1 << 16).unwrap();
            assert_eq!(got, naive::evaluate(&col, q), "{q}");
        }
    }

    /// An in-memory index served the way a slot-coded store serves it:
    /// every slot (and `B_nn`) WAH-compressed unless listed otherwise, every
    /// fetch recorded.
    struct CodedSource<'a> {
        index: &'a BitmapIndex,
        literal_slots: Vec<(usize, usize)>,
        literal_nn: bool,
        broken_slots: Vec<(usize, usize)>,
        fetched: Vec<(usize, usize)>,
    }

    impl<'a> CodedSource<'a> {
        fn new(index: &'a BitmapIndex) -> Self {
            Self {
                index,
                literal_slots: Vec::new(),
                literal_nn: false,
                broken_slots: Vec::new(),
                fetched: Vec::new(),
            }
        }
    }

    impl BitmapSource for CodedSource<'_> {
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
            Ok(self.index.nn().cloned())
        }
        fn try_fetch_repr(&mut self, comp: usize, slot: usize) -> Result<Repr> {
            self.fetched.push((comp, slot));
            if self.broken_slots.contains(&(comp, slot)) {
                return Err(Error::ChecksumMismatch(format!("c{comp}_b{slot}.bmp")));
            }
            let bits = self.index.bitmap(comp, slot);
            Ok(if self.literal_slots.contains(&(comp, slot)) {
                Repr::literal(bits.clone())
            } else {
                Repr::wah(WahBitmap::from_bitvec(bits))
            })
        }
        fn try_fetch_nn_repr(&mut self) -> Result<Option<Repr>> {
            Ok(self.index.nn().map(|nn| {
                if self.literal_nn {
                    Repr::literal(nn.clone())
                } else {
                    Repr::wah(WahBitmap::from_bitvec(nn))
                }
            }))
        }
    }

    const CARD: u32 = 20;
    const ROWS: usize = 50_021;

    /// The layouts compressed execution is checked over, bases most
    /// significant first: RangeEval-Opt's, and the equality evaluator's on
    /// one component, on two, and with a base-2 low component (whose digit
    /// 0 is the complement of its one stored bitmap).
    fn layouts() -> Vec<IndexSpec> {
        [
            (Encoding::Range, &[4, 5][..]),
            (Encoding::Equality, &[20]),
            (Encoding::Equality, &[4, 5]),
            (Encoding::Equality, &[10, 2]),
        ]
        .map(|(encoding, msb)| IndexSpec::new(Base::from_msb(msb).unwrap(), encoding))
        .to_vec()
    }

    fn range_spec() -> IndexSpec {
        layouts().swap_remove(0)
    }

    /// Whether `q`'s whole evaluation is one plan on `spec` — the queries
    /// that may be answered in the WAH domain: RangeEval-Opt's all, the
    /// equality evaluator's `=` and `≠` (bar `A = 0` on an all-binary base,
    /// which has no plain stored slot to seed the fold).
    fn is_whole_plan(spec: &IndexSpec, q: SelectionQuery) -> bool {
        use query::Op;
        let all_binary = (1..=spec.n_components()).all(|i| spec.base.component(i) == 2);
        spec.encoding == Encoding::Range
            || matches!(q.op, Op::Eq | Op::Ne) && !(all_binary && q.constant == 0)
    }

    /// The equality layout with no plain slot for `A = 0`.
    fn all_binary_spec() -> IndexSpec {
        IndexSpec::new(Base::from_msb(&[2; 5]).unwrap(), Encoding::Equality)
    }

    /// Runs of 1,500 equal values: every bitmap of every layout is a few
    /// dozen runs, about 1/30 of its literal size or less.
    fn clustered_column() -> Column {
        bindex_relation::gen::clustered(ROWS, CARD, 1500, 7)
    }

    /// One null run per 8,000 rows.
    fn clustered_nulls() -> BitVec {
        BitVec::from_fn(ROWS, |i| i % 8000 < 300)
    }

    fn clustered_index(spec: IndexSpec, nulls: Option<&BitVec>) -> BitmapIndex {
        match nulls {
            Some(nulls) => BitmapIndex::build_with_nulls(&clustered_column(), nulls, spec),
            None => BitmapIndex::build(&clustered_column(), spec),
        }
        .unwrap()
    }

    fn paper_counters(s: &EvalStats) -> [usize; 5] {
        [s.scans, s.ands, s.ors, s.xors, s.nots]
    }

    /// The dense evaluation of `q` over the same index served literal:
    /// the foundset and counters every other path must reproduce.
    fn literal_reference(idx: &BitmapIndex, q: SelectionQuery) -> (BitVec, [usize; 5]) {
        let (found, stats) = evaluate(&mut idx.source(), q, Algorithm::Auto).unwrap();
        assert_eq!(stats.compressed_ops, 0);
        (found, paper_counters(&stats))
    }

    /// Over compressed slots every query gives the per-row answer and the
    /// dense path's charges from the whole-bitmap and the segmented entry
    /// point alike, and one whose whole evaluation is a plan — every
    /// RangeEval-Opt query that reads a bitmap, `=` and `≠` on an
    /// equality-encoded index — is folded in the WAH domain: every
    /// operation counted as compressed, nothing decoded by the `Repr`
    /// entry and exactly the result by the `BitVec` wrappers.
    #[test]
    fn compressed_slots_are_folded_in_the_wah_domain() {
        let col = clustered_column();
        for (spec, nulls) in layouts()
            .into_iter()
            .chain([all_binary_spec()])
            .flat_map(|spec| [(spec.clone(), None), (spec, Some(clustered_nulls()))])
        {
            let idx = clustered_index(spec.clone(), nulls.as_ref());
            for q in query::full_space(CARD) {
                let want = match &nulls {
                    Some(nulls) => naive::evaluate_with_nulls(&col, nulls, q),
                    None => naive::evaluate(&col, q),
                };
                let (dense, counters) = literal_reference(&idx, q);
                assert_eq!(dense, want, "{spec:?} {q}");
                for segment_bits in [None, Some(4096)] {
                    let label = format!(
                        "{spec:?} {q} nulls {} seg {segment_bits:?}",
                        nulls.is_some()
                    );
                    let mut src = CodedSource::new(&idx);
                    let mut ctx = ExecContext::new(&mut src);
                    let found =
                        evaluate_repr_in(&mut ctx, &q.into(), Algorithm::Auto, segment_bits)
                            .unwrap();
                    let stats = ctx.take_stats();
                    assert_eq!(*found.to_bitvec(), want, "{label}");
                    assert_eq!(paper_counters(&stats), counters, "{label}");
                    // `A < 0` and, without nulls, `A >= 0` read nothing.
                    let folds = is_whole_plan(&spec, q) && stats.scans > 0;
                    assert_eq!(found.is_compressed(), folds, "{label}");
                    if folds {
                        assert_eq!(stats.compressed_ops, stats.total_ops(), "{label}");
                        assert_eq!(stats.materializations, 0, "{label}");
                        assert_eq!(stats.segments_evaluated, 0, "{label}");
                    }

                    let mut ctx = ExecContext::new(&mut src);
                    let bits = match segment_bits {
                        None => evaluate_in(&mut ctx, q, Algorithm::Auto),
                        Some(bits) => evaluate_segmented_in(&mut ctx, q, Algorithm::Auto, bits),
                    }
                    .unwrap();
                    let wrapped = ctx.take_stats();
                    assert_eq!(bits, want, "{label}");
                    assert_eq!(paper_counters(&wrapped), counters, "{label}");
                    if is_whole_plan(&spec, q) {
                        assert_eq!(wrapped.materializations, usize::from(folds), "{label}");
                    }
                }
            }
        }
    }

    /// Runs every query over `idx` served through a `configure`d source,
    /// whole and segmented, and checks the answer and the paper counters
    /// against the literal-served index and that no slot was read twice.
    /// `declines(fetched slots)` says whether a query whose whole
    /// evaluation is a plan must have been evaluated densely (no compressed
    /// operation, a literal result) or in the WAH domain. Returns how many
    /// of those queries went each way.
    fn check_selection<'a>(
        idx: &'a BitmapIndex,
        configure: impl Fn(&mut CodedSource<'a>),
        declines: impl Fn(&[(usize, usize)]) -> bool,
    ) -> (usize, usize) {
        let (mut dense, mut compressed) = (0, 0);
        for q in query::full_space(CARD) {
            let (want, counters) = literal_reference(idx, q);
            for segment_bits in [None, Some(4096)] {
                let mut src = CodedSource::new(idx);
                configure(&mut src);
                let mut ctx = ExecContext::new(&mut src);
                let found =
                    evaluate_repr_in(&mut ctx, &q.into(), Algorithm::Auto, segment_bits).unwrap();
                let stats = ctx.take_stats();
                let label = format!("{:?} {q} seg {segment_bits:?}", idx.spec());
                assert_eq!(*found.to_bitvec(), want, "{label}");
                assert_eq!(paper_counters(&stats), counters, "{label}");
                // Each slot was read once, not once per path tried.
                let mut distinct = src.fetched.clone();
                distinct.sort_unstable();
                distinct.dedup();
                assert_eq!(distinct.len(), src.fetched.len(), "{label}");
                if stats.scans == 0 || !is_whole_plan(idx.spec(), q) {
                    assert!(!found.is_compressed(), "{label}");
                } else if declines(&src.fetched) {
                    dense += 1;
                    assert!(!found.is_compressed(), "{label}");
                    assert_eq!(stats.compressed_ops, 0, "{label}");
                } else {
                    compressed += 1;
                    assert!(found.is_compressed(), "{label}");
                    assert_eq!(stats.compressed_ops, stats.total_ops(), "{label}");
                    assert_eq!(stats.materializations, 0, "{label}");
                }
            }
        }
        (dense, compressed)
    }

    /// One literal operand among compressed ones sends the query down the
    /// dense path; queries that do not read it stay compressed.
    #[test]
    fn a_literal_operand_declines_the_compressed_fold() {
        for spec in layouts() {
            let literal = (spec.n_components(), 1);
            let idx = clustered_index(spec, None);
            let (dense, compressed) = check_selection(
                &idx,
                |src| src.literal_slots.push(literal),
                |fetched| fetched.contains(&literal),
            );
            assert!(
                dense > 0 && compressed > 0,
                "{:?}: {dense} dense, {compressed} compressed",
                idx.spec()
            );
        }
    }

    /// A slot that compresses to more than 1/16 of its literal size is not
    /// worth merging run by run: here the rows of the runs valued 0, 2 or 4
    /// take one of those three values at random, so the bitmaps that tell
    /// them apart are literal groups over those rows while every other
    /// stays clustered.
    #[test]
    fn a_poorly_compressed_operand_declines_the_compressed_fold() {
        let values: Vec<u32> = clustered_column()
            .values()
            .iter()
            .enumerate()
            .map(|(i, &v)| match v {
                0 | 2 | 4 => (i as u32).wrapping_mul(2_654_435_761) % 3 * 2,
                v => v,
            })
            .collect();
        let col = Column::new(values, CARD);
        for spec in layouts() {
            let idx = BitmapIndex::build(&col, spec).unwrap();
            let over_ratio: Vec<(usize, usize)> = (1..=idx.spec().n_components())
                .flat_map(|comp| (0..idx.components()[comp - 1].len()).map(move |s| (comp, s)))
                .filter(|&(comp, slot)| {
                    let wah = WahBitmap::from_bitvec(idx.bitmap(comp, slot));
                    wah.compressed_bytes() * 8 * 16 > ROWS
                })
                .collect();
            let (dense, compressed) = check_selection(
                &idx,
                |_| (),
                |fetched| fetched.iter().any(|slot| over_ratio.contains(slot)),
            );
            assert!(
                dense > 0 && compressed > 0,
                "{:?}: {dense} dense, {compressed} compressed",
                idx.spec()
            );
        }
    }

    /// A literal `B_nn` is an operand like any other.
    #[test]
    fn a_literal_null_mask_declines_the_compressed_fold() {
        for spec in layouts() {
            let idx = clustered_index(spec, Some(&clustered_nulls()));
            let (dense, compressed) = check_selection(&idx, |src| src.literal_nn = true, |_| true);
            assert!(dense > 0 && compressed == 0, "{:?}", idx.spec());
        }
    }

    /// An attached overlay's rows exist only as dense words: every query
    /// is evaluated densely over base ⊕ delta, with the per-row answer.
    #[test]
    fn an_overlay_declines_the_compressed_fold() {
        use crate::delta::DeltaOverlay;
        use std::sync::Arc;

        let idx = clustered_index(range_spec(), None);
        let delta_col = bindex_relation::gen::clustered(3000, CARD, 1500, 9);
        let delta = BitmapIndex::build(&delta_col, idx.spec().clone()).unwrap();
        let deleted = BitVec::from_fn(ROWS + 3000, |i| i % 9973 == 5);
        let overlay = Arc::new(DeltaOverlay::from_index(ROWS, &delta, deleted.clone()).unwrap());
        let merged: Vec<u32> = clustered_column()
            .values()
            .iter()
            .chain(delta_col.values())
            .copied()
            .collect();
        let merged = Column::new(merged, CARD);
        for q in query::full_space(CARD) {
            for segment_bits in [None, Some(4096)] {
                let mut src = CodedSource::new(&idx);
                let mut ctx = ExecContext::new(&mut src).with_overlay(Some(overlay.clone()));
                let found =
                    evaluate_repr_in(&mut ctx, &q.into(), Algorithm::Auto, segment_bits).unwrap();
                let stats = ctx.take_stats();
                assert!(!found.is_compressed(), "{q}");
                assert_eq!(stats.compressed_ops, 0, "{q}");
                assert_eq!(
                    *found.to_bitvec(),
                    naive::evaluate_with_nulls(&merged, &deleted, q),
                    "{q} seg {segment_bits:?}"
                );
                // A quiesced overlay is no overlay.
                let quiesced = DeltaOverlay::from_index(
                    ROWS,
                    &BitmapIndex::build(&Column::new(Vec::new(), CARD), idx.spec().clone())
                        .unwrap(),
                    BitVec::zeros(ROWS),
                )
                .unwrap();
                let mut ctx = ExecContext::new(&mut src).with_overlay(Some(Arc::new(quiesced)));
                let found =
                    evaluate_repr_in(&mut ctx, &q.into(), Algorithm::Auto, segment_bits).unwrap();
                assert_eq!(found.is_compressed(), ctx.take_stats().scans > 0, "{q}");
            }
        }
    }

    /// An unreadable slot rebuilt from the relation is dense words: the
    /// query is answered exactly, flagged degraded, on the dense path. A
    /// policy that cannot rebuild a range-encoded slot fails the query on
    /// either path.
    #[test]
    fn a_reconstructed_operand_declines_the_compressed_fold() {
        use crate::exec::RecoveryPolicy;
        use std::sync::Arc;

        let idx = clustered_index(range_spec(), None);
        let column = Arc::new(clustered_column());
        let broken = (2, 1);
        for q in query::full_space(CARD) {
            let (want, counters) = literal_reference(&idx, q);
            for segment_bits in [None, Some(4096)] {
                let mut src = CodedSource::new(&idx);
                src.broken_slots.push(broken);
                let mut ctx = ExecContext::new(&mut src)
                    .with_recovery(RecoveryPolicy::ReconstructOrScan(column.clone()));
                let found =
                    evaluate_repr_in(&mut ctx, &q.into(), Algorithm::Auto, segment_bits).unwrap();
                let stats = ctx.take_stats();
                assert_eq!(*found.to_bitvec(), want, "{q}");
                let hit = src.fetched.contains(&broken);
                assert_eq!(stats.degraded_fetches, usize::from(hit), "{q}");
                // The rebuilt slot is a degraded fetch instead of a scan.
                let mut charged = paper_counters(&stats);
                charged[0] += stats.degraded_fetches;
                assert_eq!(charged, counters, "{q}");
                if hit {
                    assert!(!found.is_compressed(), "{q}");
                    assert_eq!(stats.compressed_ops, 0, "{q}");
                }

                let mut src = CodedSource::new(&idx);
                src.broken_slots.push(broken);
                let mut ctx = ExecContext::new(&mut src).with_recovery(RecoveryPolicy::Reconstruct);
                let outcome = evaluate_repr_in(&mut ctx, &q.into(), Algorithm::Auto, segment_bits);
                assert_eq!(outcome.is_err(), hit, "{q}");
            }
        }
    }

    /// RangeEval's three accumulators are no plan: it never takes the
    /// compressed fold, and neither does an algorithm that does not fit
    /// the encoding.
    #[test]
    fn range_eval_never_folds_compressed() {
        let idx = clustered_index(range_spec(), None);
        let q = query::SelectionQuery::new(query::Op::Le, 7);
        let mut src = CodedSource::new(&idx);
        let mut ctx = ExecContext::new(&mut src);
        let found = evaluate_repr_in(&mut ctx, &q.into(), Algorithm::RangeEval, None).unwrap();
        assert!(!found.is_compressed());
        assert_eq!(*found.to_bitvec(), naive::evaluate(&clustered_column(), q));
        assert!(matches!(
            evaluate_repr_in(&mut ctx, &q.into(), Algorithm::EqualityEval, None),
            Err(Error::EncodingMismatch { .. })
        ));
    }

    /// A constant the base cannot decompose is the caller's typed error —
    /// for a selection and inside a threshold, on every encoding and entry
    /// point, before anything is fetched — and the largest constant
    /// each operator's chain can take is answered.
    #[test]
    fn an_undecomposable_constant_is_a_typed_error() {
        use query::{Op, ThresholdQuery};
        let col = Column::new((0..50).collect(), 50);
        for encoding in [Encoding::Range, Encoding::Equality, Encoding::Interval] {
            let spec = IndexSpec::new(Base::from_msb(&[8, 8]).unwrap(), encoding);
            let idx = BitmapIndex::build(&col, spec).unwrap();
            let out_of_range = Err(Error::ValueOutOfRange {
                value: 99,
                cardinality: 64,
            });
            for op in Op::ALL {
                let bad = SelectionQuery::new(op, 99);
                let threshold = ThresholdQuery::new(1, vec![SelectionQuery::new(Op::Le, 3), bad]);
                for query in [Query::Selection(bad), Query::Threshold(threshold)] {
                    for segment_bits in [None, Some(64)] {
                        let mut src = CodedSource::new(&idx);
                        let mut ctx = ExecContext::new(&mut src);
                        let got = evaluate_repr_in(&mut ctx, &query, Algorithm::Auto, segment_bits);
                        assert_eq!(got.map(|_| ()), out_of_range, "{encoding:?} {query}");
                        assert!(src.fetched.is_empty(), "{encoding:?} {query}");
                    }
                    let got = evaluate(&mut idx.source(), query.clone(), Algorithm::Auto);
                    assert_eq!(got.map(|_| ()), out_of_range, "{encoding:?} {query}");
                }
                // `A < 64` and `A ≥ 64` are chains over 63 — for every
                // evaluator but RangeEval, which decomposes 64 itself.
                if encoding == Encoding::Range && matches!(op, Op::Lt | Op::Ge) {
                    let q = SelectionQuery::new(op, 64);
                    let got = evaluate(&mut idx.source(), q, Algorithm::RangeEval);
                    assert!(matches!(got, Err(Error::ValueOutOfRange { .. })), "{q}");
                }
                let edge = SelectionQuery::new(op, 63 + u32::from(matches!(op, Op::Lt | Op::Ge)));
                let (found, _) = evaluate(&mut idx.source(), edge, Algorithm::Auto).unwrap();
                assert_eq!(found, naive::evaluate(&col, edge), "{encoding:?} {edge}");
            }
        }
    }

    /// Every evaluator's program over the full query space, built with no
    /// source: its distinct stored slots are the scans the paper's
    /// digit-arithmetic predictor counts (`cost::predicted_scans`, the
    /// independent reference), and every term names only earlier terms.
    #[test]
    fn programs_read_the_slots_the_predictors_count() {
        use crate::cost::predicted_scans;
        let evaluators = [
            (Algorithm::RangeEval, Encoding::Range),
            (Algorithm::RangeEvalOpt, Encoding::Range),
            (Algorithm::EqualityEval, Encoding::Equality),
            (Algorithm::IntervalEval, Encoding::Interval),
        ];
        for msb in [
            &[12][..],
            &[3, 4],
            &[2, 2, 3],
            &[2, 2, 2, 2, 2],
            &[10, 10, 10],
        ] {
            let base = Base::from_msb(msb).unwrap();
            for (algorithm, encoding) in evaluators {
                let spec = IndexSpec::new(base.clone(), encoding);
                for q in query::full_space(base.product() as u32) {
                    let label = format!("{algorithm:?} {msb:?} {q}");
                    let program = program(&spec, q, algorithm, true).unwrap();
                    let mut slots = Vec::new();
                    for (k, term) in program.terms.iter().enumerate() {
                        let _ = term.map(|&op| match op {
                            Operand::Slot(comp, slot) => slots.push((comp, slot)),
                            Operand::Term(j) => assert!(j < k, "{label}: term {k} names {j}"),
                            Operand::Nn | Operand::Zeros => {}
                        });
                    }
                    if let Operand::Term(k) = program.answer {
                        assert!(k < program.terms.len(), "{label}: answer {k}");
                    }
                    slots.sort_unstable();
                    slots.dedup();
                    assert_eq!(slots.len(), predicted_scans(&base, q, algorithm), "{label}");
                }
            }
        }
    }

    /// An empty relation still runs one (empty) segment so statistics are
    /// charged exactly once.
    #[test]
    fn segmented_handles_empty_relation() {
        let col = Column::new(Vec::new(), 5);
        let idx = BitmapIndex::build(
            &col,
            IndexSpec::new(Base::single(5).unwrap(), Encoding::Range),
        )
        .unwrap();
        let q = query::SelectionQuery::new(query::Op::Le, 2);
        let (want, ws) = evaluate(&mut idx.source(), q, Algorithm::Auto).unwrap();
        let mut source = idx.source();
        let mut ctx = ExecContext::new(&mut source);
        let got = evaluate_segmented_in(&mut ctx, q, Algorithm::Auto, 4096).unwrap();
        let ss = ctx.take_stats();
        assert_eq!(got, want);
        assert_eq!(ss.scans, ws.scans);
        assert_eq!(ss.segments_evaluated, 1);
    }
}
