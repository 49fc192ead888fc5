//! **RangeEval-Opt** — the paper's improved evaluation algorithm for
//! range-encoded indexes (Section 3, Figure 6 right).
//!
//! Every range operator is reduced to a single `≤` evaluation via
//! `A < v ≡ A ≤ v−1`, `A > v ≡ ¬(A ≤ v)`, `A ≥ v ≡ ¬(A ≤ v−1)`, so only
//! one intermediate bitmap `B` is ever maintained (RangeEval needs two).
//! The `≤` chain follows the recurrence
//!
//! ```text
//! R_1 = B_1^{v_1}
//! R_i = (B_i^{v_i} ∧ R_{i−1}) ∨ B_i^{v_i − 1}        (i = 2 … n)
//! ```
//!
//! with the AND skipped when `v_i = b_i − 1` (`B_i^{v_i}` is all ones) and
//! the OR skipped when `v_i = 0` (`B_i^{v_i−1}` is all zeros). Equality
//! predicates use the per-digit identity
//! `(d_i = v_i) = B_i^{v_i} ⊕ B_i^{v_i−1}` with the endpoint special cases
//! of the listing.
//!
//! Worst case (all digits interior): `2n − 1` scans and `2(n−1)` operations
//! for `A ≤ c` — half the operations and one fewer scan than RangeEval,
//! which is Table 1's headline.

use bindex_bitvec::kernels::FoldStep;
use bindex_relation::query::SelectionQuery;

use crate::base::Base;
use crate::exec::{Operand, Program, Term};

use super::{chain_program, digits_of, Chain};

/// `query`'s whole evaluation as one term: the listing's chain — the `≤`
/// or `=` recurrence, the complement for `>`, `≥`, `≠` and the `B_nn`
/// mask — as one step list run in a single pass over its operands,
/// compressed or dense: the "one intermediate bitmap" of the paper is the
/// result itself. `A < 0` is the empty program (no scan, no operation).
pub(crate) fn program(base: &Base, query: SelectionQuery) -> Program {
    chain_program(query, |_, chain| match chain {
        Chain::Le(v) => le_chain(base, v),
        Chain::Eq(v) => eq_chain(base, v),
    })
}

/// The `A ≤ le` chain (lines 4–8 of the listing).
fn le_chain(base: &Base, le: u32) -> Term {
    let digits = digits_of(base, le);
    let mut chain = Term::default();

    // v_1 = b_1 − 1: B_1^{v_1} is the unstored all-ones bitmap.
    if digits[0] < base.component(1) - 1 {
        chain.seed = Some(Operand::Slot(1, digits[0] as usize));
    }
    for i in 2..=base.n_components() {
        let vi = digits[i - 1];
        if vi != base.component(i) - 1 {
            chain
                .steps
                .push(FoldStep::And(Operand::Slot(i, vi as usize)));
        }
        if vi != 0 {
            chain
                .steps
                .push(FoldStep::Or(Operand::Slot(i, vi as usize - 1)));
        }
    }
    chain
}

/// The `A = v` chain (lines 10–13 of the listing). `B` starts as the
/// all-ones `B_1` and is ANDed with every per-digit equality bitmap —
/// stored `B_i^0` directly, `¬B_i^{b_i−2}` for the top digit and
/// `B_i^{v_i} ⊕ B_i^{v_i−1}` in between, derived inside the pass — so
/// exactly `n` ANDs are charged, plus one NOT per top digit and one XOR
/// per interior digit.
fn eq_chain(base: &Base, v: u32) -> Term {
    let digits = digits_of(base, v);
    let mut chain = Term::default();
    for i in 1..=base.n_components() {
        let bi = base.component(i);
        let vi = digits[i - 1] as usize;
        let slot = |j| Operand::Slot(i, j);
        chain.steps.push(if vi == 0 {
            FoldStep::And(slot(0))
        } else if vi == bi as usize - 1 {
            FoldStep::AndNot(slot(vi - 1))
        } else {
            FoldStep::AndXor(slot(vi), slot(vi - 1))
        });
    }
    chain
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{Encoding, IndexSpec};
    use crate::error::Result;
    use crate::eval::tests::evaluate_predicate;
    use crate::eval::{naive, reduce, Algorithm, Reduced};
    use crate::exec::ExecContext;
    use crate::index::{BitmapIndex, BitmapSource};
    use bindex_bitvec::kernels::Fold;
    use bindex_bitvec::BitVec;
    use bindex_relation::{query, Column};
    use std::sync::Arc;

    /// RangeEval-Opt densely, at the context's current width.
    fn evaluate<S: BitmapSource>(
        ctx: &mut ExecContext<'_, S>,
        query: SelectionQuery,
    ) -> Result<BitVec> {
        evaluate_predicate(ctx, query, Algorithm::RangeEvalOpt)
    }

    /// The pass-per-operator evaluation the fold replaced, kept as its
    /// oracle: the same reduction to a `≤`/`=` chain, but every operator
    /// is a fold of its own — its own counted sweep over the accumulator.
    fn evaluate_pairwise<S: BitmapSource>(
        ctx: &mut ExecContext<'_, S>,
        query: SelectionQuery,
    ) -> Result<BitVec> {
        let mut program = match reduce(query) {
            Reduced::Empty => return Ok(BitVec::zeros(ctx.view_len())),
            Reduced::NonNull => Fold::default(),
            Reduced::Chain(chain, complement) => {
                let found = match chain {
                    Chain::Le(v) => le_chain_pairwise(ctx, v),
                    Chain::Eq(v) => eq_chain_pairwise(ctx, v),
                }?;
                Fold {
                    seed: Some(Arc::new(found)),
                    complement,
                    ..Fold::default()
                }
            }
        };
        program.mask = ctx.fetch_nn()?;
        Ok(ctx.fold(&program))
    }

    /// `acc` updated by at most one operator, as a fold of its own.
    fn apply<S: BitmapSource>(
        ctx: &mut ExecContext<'_, S>,
        acc: &BitVec,
        step: Option<FoldStep<&BitVec>>,
    ) -> BitVec {
        let steps = step.into_iter().collect();
        ctx.fold(&Fold {
            seed: Some(acc),
            steps,
            ..Fold::default()
        })
    }

    fn le_chain_pairwise<S: BitmapSource>(ctx: &mut ExecContext<'_, S>, le: u32) -> Result<BitVec> {
        let digits = digits_of(&ctx.spec().base, le);
        let n = ctx.spec().n_components();
        let b1 = ctx.spec().base.component(1);
        let mut b = if digits[0] < b1 - 1 {
            let bm = ctx.fetch(1, digits[0] as usize)?;
            apply(ctx, &bm, None)
        } else {
            BitVec::ones(ctx.view_len())
        };
        for i in 2..=n {
            let bi = ctx.spec().base.component(i);
            let vi = digits[i - 1];
            if vi != bi - 1 {
                let bm = ctx.fetch(i, vi as usize)?;
                b = apply(ctx, &b, Some(FoldStep::And(&bm)));
            }
            if vi != 0 {
                let bm = ctx.fetch(i, vi as usize - 1)?;
                b = apply(ctx, &b, Some(FoldStep::Or(&bm)));
            }
        }
        Ok(b)
    }

    fn eq_chain_pairwise<S: BitmapSource>(ctx: &mut ExecContext<'_, S>, v: u32) -> Result<BitVec> {
        let digits = digits_of(&ctx.spec().base, v);
        let n = ctx.spec().n_components();
        let mut b = BitVec::ones(ctx.view_len());
        for i in 1..=n {
            let bi = ctx.spec().base.component(i);
            let vi = digits[i - 1];
            b = if vi == 0 {
                let bm = ctx.fetch(i, 0)?;
                apply(ctx, &b, Some(FoldStep::And(&bm)))
            } else if vi == bi - 1 {
                let bm = ctx.fetch(i, bi as usize - 2)?;
                apply(ctx, &b, Some(FoldStep::AndNot(&bm)))
            } else {
                let hi = ctx.fetch(i, vi as usize)?;
                let lo = ctx.fetch(i, vi as usize - 1)?;
                apply(ctx, &b, Some(FoldStep::AndXor(&hi, &lo)))
            };
        }
        Ok(b)
    }

    type Evaluator<S> = fn(&mut ExecContext<'_, S>, SelectionQuery) -> Result<BitVec>;

    /// Runs `eval` whole (`None`) or window by window the way the windowed
    /// path of `evaluate_repr_in` drives `evaluate`, and returns the
    /// foundset with the paper-model counters.
    fn run<S: BitmapSource>(
        ctx: &mut ExecContext<'_, S>,
        segment_bits: Option<usize>,
        eval: Evaluator<S>,
        q: SelectionQuery,
    ) -> (BitVec, [usize; 5]) {
        let found = match segment_bits {
            None => eval(ctx, q).unwrap(),
            Some(bits) => {
                let n_rows = ctx.n_rows();
                let mut words = Vec::new();
                for (index, lo) in (0..n_rows).step_by(bits).enumerate() {
                    let hi = (lo + bits).min(n_rows);
                    ctx.begin_segment(lo, hi, index);
                    let part = eval(ctx, q).unwrap();
                    ctx.end_segment();
                    assert_eq!(part.len(), hi - lo);
                    words.extend_from_slice(part.words());
                }
                ctx.exit_segments();
                BitVec::from_words(words, n_rows)
            }
        };
        let s = ctx.take_stats();
        (found, [s.scans, s.ands, s.ors, s.xors, s.nots])
    }

    /// Fold ≡ pairwise on one base: identical foundsets and identical
    /// scan/AND/OR/XOR/NOT charges, for all six operators, with and
    /// without nulls, whole and segmented, with and without a delta
    /// overlay, at row counts that are a multiple of neither 64 nor the
    /// kernel block. 199 = 3 × 64 + 7 rows take every constant at every
    /// segment size; 70,001 = 65,536 + 69 × 64 + 49 rows (two kernel
    /// blocks, two 65,536-bit segments, a ragged last word) take every
    /// `stride`-th constant and skip the 64-bit segments, whose 1,094
    /// windows per query would be most of the suite's time.
    fn check_fold_against_pairwise(msb: &[u32], card: u32, stride: u32) {
        use crate::delta::DeltaOverlay;
        use std::sync::Arc;

        let values = |n: usize, salt: u64| -> Vec<u32> {
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ salt;
            (0..n)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((x >> 33) % u64::from(card)) as u32
                })
                .collect()
        };
        let spec = IndexSpec::new(Base::from_msb(msb).unwrap(), Encoding::Range);
        let all_modes = [None, Some(64), Some(512), Some(65_536)];
        for (n_rows, stride, modes) in [
            (199usize, 1, &all_modes[..]),
            (70_001, stride, &[None, Some(512), Some(65_536)]),
        ] {
            let delta_rows = 50;
            let base_rows = n_rows - delta_rows;
            let col = Column::new(values(base_rows, 1), card);
            let delta_col = Column::new(values(delta_rows, 2), card);
            for with_nulls in [false, true] {
                let build = |col: &Column, null_every: usize| {
                    if with_nulls {
                        let nulls = BitVec::from_fn(col.len(), |i| i % null_every == 2);
                        BitmapIndex::build_with_nulls(col, &nulls, spec.clone())
                    } else {
                        BitmapIndex::build(col, spec.clone())
                    }
                    .unwrap()
                };
                let (idx, delta) = (build(&col, 11), build(&delta_col, 7));
                let deleted = BitVec::from_fn(n_rows, |i| i % 97 == 5);
                let overlay =
                    Arc::new(DeltaOverlay::from_index(base_rows, &delta, deleted).unwrap());
                for overlay in [None, Some(overlay)] {
                    for q in query::full_space(card)
                        .into_iter()
                        .filter(|q| q.constant % stride == 0 || q.constant == card - 1)
                    {
                        for &mode in modes {
                            let (mut fold_src, mut pair_src) = (idx.source(), idx.source());
                            let mut fold_ctx =
                                ExecContext::new(&mut fold_src).with_overlay(overlay.clone());
                            let mut pair_ctx =
                                ExecContext::new(&mut pair_src).with_overlay(overlay.clone());
                            assert_eq!(
                                run(&mut fold_ctx, mode, evaluate, q),
                                run(&mut pair_ctx, mode, evaluate_pairwise, q),
                                "{q} rows {n_rows} nulls {with_nulls} overlay {} segment {mode:?}",
                                overlay.is_some()
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fold_matches_pairwise_base_10_10_10() {
        check_fold_against_pairwise(&[10, 10, 10], 1000, 199);
    }

    #[test]
    fn fold_matches_pairwise_base_3_3() {
        check_fold_against_pairwise(&[3, 3], 9, 4);
    }

    #[test]
    fn fold_matches_pairwise_base_2_5() {
        check_fold_against_pairwise(&[2, 5], 10, 4);
    }

    #[test]
    fn fold_matches_pairwise_base_9() {
        check_fold_against_pairwise(&[9], 9, 4);
    }

    fn check_all_queries(column: &Column, base: Base) {
        let spec = IndexSpec::new(base, Encoding::Range);
        let idx = BitmapIndex::build(column, spec).unwrap();
        let mut src = idx.source();
        let mut ctx = ExecContext::new(&mut src);
        for q in query::full_space(column.cardinality()) {
            let got = evaluate(&mut ctx, q).unwrap();
            ctx.take_stats();
            let want = naive::evaluate(column, q);
            assert_eq!(got, want, "query {q} base {}", idx.spec().base);
        }
    }

    #[test]
    fn correct_on_single_component() {
        let col = Column::new(vec![3, 2, 1, 2, 8, 2, 2, 0, 7, 5, 6, 4], 9);
        check_all_queries(&col, Base::single(9).unwrap());
    }

    #[test]
    fn correct_on_multi_component() {
        let col = Column::new(vec![3, 2, 1, 2, 8, 2, 2, 0, 7, 5, 6, 4], 9);
        check_all_queries(&col, Base::from_msb(&[3, 3]).unwrap());
        check_all_queries(&col, Base::from_msb(&[2, 5]).unwrap());
        check_all_queries(&col, Base::from_msb(&[2, 2, 3]).unwrap());
    }

    #[test]
    fn figure7_example_cost() {
        // Figure 7: A <= 62 on a 3-component base-<10,10,10> index costs
        // 5 scans and 4 operations with RangeEval-Opt
        // (62 = <0, 6, 2>: comp1 interior -> 1 scan; comps 2,3: 2 each... )
        // digits lsb: v1=2, v2=6, v3=0.
        let col = Column::new((0..1000u32).collect(), 1000);
        let spec = IndexSpec::new(Base::uniform(10, 3).unwrap(), Encoding::Range);
        let idx = BitmapIndex::build(&col, spec).unwrap();
        let mut src = idx.source();
        let mut ctx = ExecContext::new(&mut src);
        let q = query::SelectionQuery::new(query::Op::Le, 62);
        let got = evaluate(&mut ctx, q).unwrap();
        let stats = ctx.take_stats();
        assert_eq!(got, naive::evaluate(&col, q));
        // v1=2 interior: 1 scan. v2=6 interior: 2 scans (AND + OR).
        // v3=0: AND only: 1 scan. Total 4 scans, 3 ops.
        assert_eq!(stats.scans, 4);
        assert_eq!(stats.total_ops(), 3);
    }

    #[test]
    fn worst_case_scans_and_ops() {
        // All-interior digits: 2n-1 scans, 2(n-1) ops for A <= c.
        let col = Column::new((0..27u32).collect(), 27);
        let spec = IndexSpec::new(Base::uniform(3, 3).unwrap(), Encoding::Range);
        let idx = BitmapIndex::build(&col, spec).unwrap();
        let mut src = idx.source();
        let mut ctx = ExecContext::new(&mut src);
        // v = 13 = <1,1,1> all interior.
        let q = query::SelectionQuery::new(query::Op::Le, 13);
        evaluate(&mut ctx, q).unwrap();
        let stats = ctx.take_stats();
        assert_eq!(stats.scans, 5);
        assert_eq!(stats.total_ops(), 4);
        assert_eq!(stats.nots, 0);
    }

    #[test]
    fn trivial_edges_cost_nothing() {
        let col = Column::new(vec![0, 1, 2], 3);
        let spec = IndexSpec::new(Base::single(3).unwrap(), Encoding::Range);
        let idx = BitmapIndex::build(&col, spec).unwrap();
        let mut src = idx.source();
        let mut ctx = ExecContext::new(&mut src);
        let lt0 = evaluate(&mut ctx, query::SelectionQuery::new(query::Op::Lt, 0)).unwrap();
        assert_eq!(ctx.take_stats().scans, 0);
        assert!(lt0.none());
        let ge0 = evaluate(&mut ctx, query::SelectionQuery::new(query::Op::Ge, 0)).unwrap();
        assert_eq!(ctx.take_stats().scans, 0);
        assert!(ge0.all());
    }

    #[test]
    fn respects_nulls() {
        let col = Column::new(vec![3, 2, 1, 2, 8, 2], 9);
        let nulls = BitVec::from_indices(6, &[0, 4]);
        let spec = IndexSpec::new(Base::from_msb(&[3, 3]).unwrap(), Encoding::Range);
        let idx = BitmapIndex::build_with_nulls(&col, &nulls, spec).unwrap();
        let mut src = idx.source();
        let mut ctx = ExecContext::new(&mut src);
        for q in query::full_space(9) {
            let got = evaluate(&mut ctx, q).unwrap();
            ctx.take_stats();
            assert_eq!(got, naive::evaluate_with_nulls(&col, &nulls, q), "{q}");
        }
    }
}
