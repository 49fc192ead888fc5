//! k-of-N threshold evaluation — the symmetric-function query class the
//! four single-predicate evaluators cannot express (Kaser & Lemire,
//! "Threshold and Symmetric Functions over Bitmaps").
//!
//! A [`ThresholdQuery`] asks for the rows whose value satisfies **at
//! least `k`** of `N` predicates. Each predicate's foundset is produced
//! by the ordinary encoding-appropriate evaluator, then the foundsets
//! are combined in a single pass by the bit-sliced carry-save adder
//! network ([`ExecContext::threshold_all`]) instead of the
//! exponentially-sized naive "OR of all k-subsets of ANDs".
//!
//! Degenerate thresholds map to exact plans rather than panicking:
//! `k = 0`, `k > N`, and an empty predicate set are rejected with
//! [`Error::InvalidQuery`]; a single-predicate threshold *is* that
//! predicate; `k = 1` runs the plain OR plan and `k = N` the plain AND
//! plan, charged as such.
//!
//! Segment-at-a-time execution adds an **early-exit bound** fed by the
//! summary block's two planes: while a segment's predicates evaluate one
//! by one, `live` counts foundsets with any bit set in the window and
//! `saturated` counts all-ones foundsets. Once
//! `live + remaining < k` the window's answer is provably all-zero, and
//! once `saturated ≥ k` it is provably all-ones — the remaining
//! predicates are not evaluated at all. Summary pruning feeds the bound
//! for free: a window the summary proves dead yields an all-zero
//! foundset without a storage read, dropping the upper bound, and a
//! window it proves saturated can yield an all-ones foundset, raising
//! the lower bound. The exit is taken only on non-charging segments
//! (segment 0 always runs every predicate), so every slot's first-touch
//! scan charge and the whole op tally stay bit-identical to whole-bitmap
//! evaluation — only
//! [`EvalStats::segments_skipped`](crate::exec::EvalStats::segments_skipped)
//! observes the skip.

use bindex_bitvec::kernels::{Fold, FoldStep};
use bindex_bitvec::BitVec;
use bindex_relation::query::ThresholdQuery;

use crate::error::{Error, Result};
use crate::exec::{Bound, ExecContext, Program};
use crate::index::BitmapSource;

/// Validates a threshold query, converting a malformed one into the
/// typed [`Error::InvalidQuery`].
pub fn validate(query: &ThresholdQuery) -> Result<()> {
    query.validate().map_err(Error::InvalidQuery)
}

/// One (validated) threshold — at least `k` of the `predicates`' programs
/// — at the context's current width, driven by the entry points in
/// [`crate::eval`]. `charging` is `true` when this run must execute the
/// full data-independent op sequence (whole mode, or segment 0); only
/// non-charging runs may take the early exits.
///
/// Each predicate foundset costs what its program charges; the combine
/// then costs `N − 1`
/// [`EvalStats::threshold_combines`](crate::exec::EvalStats::threshold_combines)
/// — except the exact-plan degenerations: a single predicate is evaluated
/// directly, `k = 1` charges `N − 1` ORs, and `k = N` charges `N − 1` ANDs,
/// exactly as if the caller had asked for the disjunction or conjunction.
pub(crate) fn evaluate_window<S: BitmapSource>(
    ctx: &mut ExecContext<'_, S>,
    predicates: &[Program],
    bound: &mut [Bound],
    k: usize,
    charging: bool,
) -> Result<BitVec> {
    let window = ctx.view_len();
    let mut predicate = |ctx: &mut ExecContext<'_, S>, i: usize| {
        let mut found = bindex_bitvec::spare_words(bindex_bitvec::words_for(window));
        ctx.run(&predicates[i], &mut bound[i], Some(&mut found))?;
        Ok::<_, Error>(BitVec::from_words(found, window))
    };
    let n = predicates.len();
    if n == 1 {
        // A single-predicate threshold (k must be 1 post-validation) is
        // exactly that predicate.
        return predicate(ctx, 0);
    }
    let mut found: Vec<BitVec> = Vec::with_capacity(n);
    // Early-exit bound over the operands evaluated so far: each live
    // (non-empty) foundset can contribute at most 1 to any row's count,
    // each saturated (all-ones) foundset contributes exactly 1 to every
    // row's count, and each not-yet-evaluated predicate could go either
    // way.
    let mut live = 0usize;
    let mut saturated = 0usize;
    for i in 0..n {
        if !charging {
            if live + (n - i) < k {
                // Even if every remaining predicate matched every row,
                // no row in this window can reach k.
                ctx.mark_skip();
                return Ok(BitVec::zeros(window));
            }
            if saturated >= k {
                // Every row in this window already holds ≥ k matches.
                ctx.mark_skip();
                return Ok(BitVec::ones(window));
            }
        }
        let f = predicate(ctx, i)?;
        if !charging {
            let ones = f.count_ones();
            if ones > 0 {
                live += 1;
            }
            if ones == window {
                saturated += 1;
            }
        }
        found.push(f);
    }
    if !charging && live < k {
        // All predicates evaluated but fewer than k are live anywhere
        // in the window.
        ctx.mark_skip();
        return Ok(BitVec::zeros(window));
    }
    let refs: Vec<&BitVec> = found.iter().collect();
    // Exact-plan degenerations keep the cost model honest: k = 1 *is*
    // the OR plan and k = N *is* the AND plan.
    let step = match k {
        1 => FoldStep::Or,
        k if k == n => FoldStep::And,
        _ => return Ok(ctx.threshold_all(&refs, k)),
    };
    Ok(ctx.fold(&Fold {
        seed: Some(refs[0]),
        steps: refs[1..].iter().copied().map(step).collect(),
        ..Fold::default()
    }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Base;
    use crate::encoding::{Encoding, IndexSpec};
    use crate::eval::{evaluate, evaluate_segmented_in, Algorithm};
    use crate::exec::EvalStats;
    use crate::index::BitmapIndex;
    use bindex_relation::query::{Op, SelectionQuery};
    use bindex_relation::Column;

    fn column(n: usize, cardinality: u32) -> Column {
        let values: Vec<u32> = (0..n as u32)
            .map(|i| (i * 37 + i / 5) % cardinality)
            .collect();
        Column::new(values, cardinality)
    }

    fn spec_for(encoding: Encoding) -> IndexSpec {
        IndexSpec::new(Base::from_msb(&[3, 4]).unwrap(), encoding)
    }

    fn reference(col: &Column, q: &ThresholdQuery) -> BitVec {
        BitVec::from_fn(col.len(), |r| q.matches(col.values()[r]))
    }

    /// Segment-at-a-time evaluation in a context of its own.
    fn segmented(
        idx: &BitmapIndex,
        q: &ThresholdQuery,
        segment_bits: usize,
    ) -> Result<(BitVec, EvalStats)> {
        let mut source = idx.source();
        let mut ctx = ExecContext::new(&mut source);
        let found = evaluate_segmented_in(&mut ctx, q.clone(), Algorithm::Auto, segment_bits)?;
        Ok((found, ctx.take_stats()))
    }

    /// The combine charge shape: N − 1 threshold combines for interior
    /// k, N − 1 ORs for k = 1, N − 1 ANDs for k = N (on top of the
    /// per-predicate evaluator charges).
    #[test]
    fn threshold_charge_shape() {
        let col = column(500, 12);
        let idx = BitmapIndex::build(&col, spec_for(Encoding::Equality)).unwrap();
        let preds = vec![
            SelectionQuery::new(Op::Le, 4),
            SelectionQuery::new(Op::Ge, 3),
            SelectionQuery::new(Op::Ne, 7),
            SelectionQuery::new(Op::Eq, 2),
        ];
        let per_pred = {
            let mut sum = EvalStats::default();
            for &p in &preds {
                let (_, s) = evaluate(&mut idx.source(), p, Algorithm::Auto).unwrap();
                sum.add(&s);
            }
            sum
        };
        let (_, s2) = evaluate(
            &mut idx.source(),
            ThresholdQuery::new(2, preds.clone()),
            Algorithm::Auto,
        )
        .unwrap();
        assert_eq!(s2.threshold_combines, 3);
        assert_eq!(s2.ands, per_pred.ands);
        assert_eq!(s2.ors, per_pred.ors);
        let (_, s1) = evaluate(
            &mut idx.source(),
            ThresholdQuery::new(1, preds.clone()),
            Algorithm::Auto,
        )
        .unwrap();
        assert_eq!(s1.threshold_combines, 0);
        assert_eq!(s1.ors, per_pred.ors + 3);
        let (_, s4) = evaluate(
            &mut idx.source(),
            ThresholdQuery::new(4, preds),
            Algorithm::Auto,
        )
        .unwrap();
        assert_eq!(s4.threshold_combines, 0);
        assert_eq!(s4.ands, per_pred.ands + 3);
    }

    /// Malformed thresholds are a typed error, not a panic or an empty
    /// foundset.
    #[test]
    fn threshold_rejects_degenerate_queries() {
        let col = column(100, 12);
        let idx = BitmapIndex::build(&col, spec_for(Encoding::Range)).unwrap();
        let p = SelectionQuery::new(Op::Le, 4);
        for bad in [
            ThresholdQuery::new(0, vec![p]),
            ThresholdQuery::new(2, vec![p]),
            ThresholdQuery::new(1, Vec::new()),
        ] {
            let err = evaluate(&mut idx.source(), bad.clone(), Algorithm::Auto).unwrap_err();
            assert!(
                matches!(err, Error::InvalidQuery(_)),
                "expected InvalidQuery, got {err:?}"
            );
            let err = segmented(&idx, &bad, 256).unwrap_err();
            assert!(matches!(err, Error::InvalidQuery(_)));
        }
    }

    /// A clustered column makes whole windows dead or saturated for some
    /// predicates; the early exit must leave answers and paper-model
    /// stats untouched while recording skips.
    #[test]
    fn threshold_early_exit_preserves_answers_on_clustered_data() {
        // 0..2048 → value 0, 2048..4096 → value 5, tail mixed.
        let mut values = vec![0u32; 2048];
        values.extend(std::iter::repeat_n(5u32, 2048));
        values.extend((0..500u32).map(|i| i % 12));
        let col = Column::new(values, 12);
        let q = ThresholdQuery::new(
            2,
            vec![
                SelectionQuery::new(Op::Eq, 0),
                SelectionQuery::new(Op::Eq, 5),
                SelectionQuery::new(Op::Ge, 5),
            ],
        );
        let want = reference(&col, &q);
        for encoding in [Encoding::Range, Encoding::Equality, Encoding::Interval] {
            let idx = BitmapIndex::build(&col, spec_for(encoding)).unwrap();
            let (whole, ws) = evaluate(&mut idx.source(), q.clone(), Algorithm::Auto).unwrap();
            assert_eq!(whole, want);
            let (got, ss) = segmented(&idx, &q, 512).unwrap();
            assert_eq!(got, want, "{encoding:?}");
            assert_eq!(
                (ss.scans, ss.threshold_combines),
                (ws.scans, ws.threshold_combines),
                "{encoding:?}"
            );
        }
    }

    /// An all-ones early exit: k = 1 over predicates that saturate a
    /// window exits through the OR plan unchanged; an interior-k query
    /// whose first k foundsets saturate a window exits all-ones.
    #[test]
    fn threshold_saturated_early_exit() {
        let mut values = vec![3u32; 4096];
        values.extend((0..512u32).map(|i| i % 12));
        let col = Column::new(values, 12);
        // Value 3 satisfies both ≤5 and ≥1 ⇒ the first windows saturate
        // both foundsets, so k = 2 exits all-ones there.
        let q = ThresholdQuery::new(
            2,
            vec![
                SelectionQuery::new(Op::Le, 5),
                SelectionQuery::new(Op::Ge, 1),
                SelectionQuery::new(Op::Eq, 7),
            ],
        );
        let want = reference(&col, &q);
        let idx = BitmapIndex::build(&col, spec_for(Encoding::Equality)).unwrap();
        let (got, ss) = segmented(&idx, &q, 1024).unwrap();
        assert_eq!(got, want);
        assert!(
            ss.segments_skipped > 0,
            "saturated windows should early-exit: {ss:?}"
        );
    }

    /// An empty relation runs one empty segment, like the plain driver.
    #[test]
    fn threshold_handles_empty_relation() {
        let col = Column::new(Vec::new(), 12);
        let idx = BitmapIndex::build(&col, spec_for(Encoding::Range)).unwrap();
        let q = ThresholdQuery::new(
            2,
            vec![
                SelectionQuery::new(Op::Le, 4),
                SelectionQuery::new(Op::Ge, 3),
                SelectionQuery::new(Op::Ne, 7),
            ],
        );
        let (whole, ws) = evaluate(&mut idx.source(), q.clone(), Algorithm::Auto).unwrap();
        let (got, ss) = segmented(&idx, &q, 4096).unwrap();
        assert_eq!(whole.len(), 0);
        assert_eq!(got, whole);
        assert_eq!(ss.scans, ws.scans);
        assert_eq!(ss.segments_evaluated, 1);
    }
}
