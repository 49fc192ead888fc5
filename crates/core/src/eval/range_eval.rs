//! **RangeEval** — O'Neil & Quass's evaluation algorithm for range-encoded
//! indexes (their Algorithm 4.3; Figure 6 left in the paper).
//!
//! The algorithm incrementally maintains up to three bitmaps while walking
//! components from most to least significant: `B_EQ` (digits so far equal
//! the constant's), and `B_LT` / `B_GT` (already strictly below / above).
//! Only the intermediates the target operator needs are maintained (lazy
//! evaluation), but every range operator still pays for the full `B_EQ`
//! chain — which is why RangeEval-Opt beats it by ~50% in operations and
//! one scan (Section 3.1, Table 1).

use bindex_bitvec::kernels::{Fold, FoldStep};
use bindex_relation::query::{Op, SelectionQuery};

use crate::base::Base;
use crate::error::Result;
use crate::exec::{Operand, Program, Term};

/// `query`'s RangeEval program: every accumulator update of the listing
/// is a term, and the answer is the accumulator the operator reads.
pub(crate) fn program(base: &Base, query: SelectionQuery) -> Result<Program> {
    // RangeEval decomposes the constant itself, not a reduced `v − 1`: the
    // one constant validation lets through that it cannot take (`A < Π b_i`,
    // `A ≥ Π b_i`) is the typed error here, before anything is read.
    let digits = base.decompose(query.constant)?;
    let mut program = Program::default();
    // `B_EQ` run through `steps`: every accumulator update of the listing.
    let update = |b_eq, steps| Term {
        seed: Some(b_eq),
        steps,
        ..Fold::default()
    };

    // Lazy evaluation: `<` and `≤` maintain B_LT, `>` and `≥` B_GT, the
    // equality operators neither.
    let below = matches!(query.op, Op::Lt | Op::Le);
    let mut b_cmp = (below || matches!(query.op, Op::Gt | Op::Ge)).then_some(Operand::Zeros);
    // Line 2 of the listing: B_EQ starts as B_nn (all ones when no nulls).
    let mut b_eq = Operand::Nn;

    for i in (1..=base.n_components()).rev() {
        let bi = base.component(i) as usize;
        let vi = digits[i - 1] as usize;
        let slot = |j| Operand::Slot(i, j);
        if let Some(cmp) = &mut b_cmp {
            // B_LT = B_LT ∨ (B_EQ ∧ B_i^{v_i − 1})   (v_i > 0)
            // B_GT = B_GT ∨ (B_EQ ∧ ¬B_i^{v_i})      (v_i < b_i − 1)
            let term = match below {
                true if vi > 0 => Some(FoldStep::And(slot(vi - 1))),
                false if vi < bi - 1 => Some(FoldStep::AndNot(slot(vi))),
                _ => None,
            };
            if let Some(term) = term {
                *cmp = program.push(update(b_eq, vec![term, FoldStep::Or(*cmp)]));
            }
        }
        let term = if vi == 0 {
            // B_EQ = B_EQ ∧ B_i^0
            FoldStep::And(slot(0))
        } else if vi == bi - 1 {
            // B_EQ = B_EQ ∧ ¬B_i^{b_i − 2}
            FoldStep::AndNot(slot(bi - 2))
        } else {
            // B_EQ = B_EQ ∧ (B_i^{v_i} ⊕ B_i^{v_i − 1})
            FoldStep::AndXor(slot(vi), slot(vi - 1))
        };
        b_eq = program.push(update(b_eq, vec![term]));
    }

    let answer = match query.op {
        Op::Eq => b_eq,
        // B_NE = ¬B_EQ ∧ B_nn
        Op::Ne => program.push(Term {
            seed: Some(b_eq),
            complement: true,
            mask: Some(Operand::Nn),
            ..Fold::default()
        }),
        Op::Lt | Op::Gt => b_cmp.expect("maintained for < and >"),
        // B_LE = B_LT ∨ B_EQ, B_GE = B_GT ∨ B_EQ
        Op::Le | Op::Ge => {
            let cmp = b_cmp.expect("maintained for ≤ and ≥");
            program.push(update(b_eq, vec![FoldStep::Or(cmp)]))
        }
    };
    Ok(Program { answer, ..program })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{Encoding, IndexSpec};
    use crate::eval::tests::evaluate_predicate;
    use crate::eval::{naive, Algorithm};
    use crate::exec::ExecContext;
    use crate::index::{BitmapIndex, BitmapSource};
    use bindex_bitvec::BitVec;
    use bindex_relation::{query, Column};

    /// RangeEval over dense words.
    fn evaluate<S: BitmapSource>(
        ctx: &mut ExecContext<'_, S>,
        q: SelectionQuery,
    ) -> Result<BitVec> {
        evaluate_predicate(ctx, q, Algorithm::RangeEval)
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
    fn correct_on_various_bases() {
        let col = Column::new(vec![3, 2, 1, 2, 8, 2, 2, 0, 7, 5, 6, 4], 9);
        check_all_queries(&col, Base::single(9).unwrap());
        check_all_queries(&col, Base::from_msb(&[3, 3]).unwrap());
        check_all_queries(&col, Base::from_msb(&[2, 2, 3]).unwrap());
    }

    #[test]
    fn figure7_comparison_with_opt() {
        // Figure 7: evaluating A <= 62 on a 3-component base-10 index.
        // RangeEval needs 5 scans / 10 operations; RangeEval-Opt needs
        // 4 scans / 3 operations (digits of 62 are <0, 6, 2>).
        let col = Column::new((0..1000u32).collect(), 1000);
        let spec = IndexSpec::new(Base::uniform(10, 3).unwrap(), Encoding::Range);
        let idx = BitmapIndex::build(&col, spec).unwrap();
        let q = query::SelectionQuery::new(query::Op::Le, 62);

        let mut src = idx.source();
        let mut ctx = ExecContext::new(&mut src);
        let got = evaluate(&mut ctx, q).unwrap();
        let stats = ctx.take_stats();
        assert_eq!(got, naive::evaluate(&col, q));
        // digits msb->lsb: v3=0, v2=6, v1=2.
        // i=3 (v=0): B_EQ AND B^0            -> 1 scan, 1 op
        // i=2 (v=6 interior): LT 2 ops, EQ 2 ops -> 2 scans, 4 ops
        // i=1 (v=2 interior): LT 2 ops, EQ 2 ops -> 2 scans, 4 ops
        // final OR -> 1 op. Totals: 5 scans, 10 ops.
        assert_eq!(stats.scans, 5);
        assert_eq!(stats.total_ops(), 10);

        let mut src2 = idx.source();
        let mut ctx2 = ExecContext::new(&mut src2);
        evaluate_predicate(&mut ctx2, q, Algorithm::RangeEvalOpt).unwrap();
        let opt = ctx2.take_stats();
        assert!(opt.scans < stats.scans);
        assert!(opt.total_ops() * 2 <= stats.total_ops());
    }

    #[test]
    fn equality_costs_match_opt() {
        // "Both algorithms have the same cost for an equality predicate."
        let col = Column::new((0..27u32).collect(), 27);
        let spec = IndexSpec::new(Base::uniform(3, 3).unwrap(), Encoding::Range);
        let idx = BitmapIndex::build(&col, spec).unwrap();
        for v in 0..27 {
            let q = query::SelectionQuery::new(query::Op::Eq, v);
            let mut s1 = idx.source();
            let mut c1 = ExecContext::new(&mut s1);
            evaluate(&mut c1, q).unwrap();
            let a = c1.take_stats();
            let mut s2 = idx.source();
            let mut c2 = ExecContext::new(&mut s2);
            evaluate_predicate(&mut c2, q, Algorithm::RangeEvalOpt).unwrap();
            let b = c2.take_stats();
            assert_eq!(a.scans, b.scans, "v={v}");
            assert_eq!(a.total_ops(), b.total_ops(), "v={v}");
        }
    }

    #[test]
    fn respects_nulls() {
        let col = Column::new(vec![3, 2, 1, 2, 8, 2], 9);
        let nulls = BitVec::from_indices(6, &[2, 5]);
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
