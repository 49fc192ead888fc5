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

use bindex_bitvec::BitVec;
use bindex_relation::query::{Op, SelectionQuery};

use crate::error::Result;
use crate::exec::ExecContext;
use crate::index::BitmapSource;

/// Evaluates `query` with RangeEval. The index must be range-encoded
/// (enforced by the dispatcher in [`super::evaluate`]). Storage failures
/// from the underlying source propagate as errors.
pub fn evaluate<S: BitmapSource>(
    ctx: &mut ExecContext<'_, S>,
    query: SelectionQuery,
) -> Result<BitVec> {
    // Width of the current evaluation window: the full relation in whole
    // mode, one segment under segmented execution.
    let n_rows = ctx.view_len();
    let n = ctx.spec().n_components();
    // RangeEval decomposes the constant itself, not a reduced `v − 1`: the
    // one constant validation lets through that it cannot take (`A < Π b_i`,
    // `A ≥ Π b_i`) is the typed error here.
    let digits = ctx.spec().base.decompose(query.constant)?;

    let needs_lt = matches!(query.op, Op::Lt | Op::Le);
    let needs_gt = matches!(query.op, Op::Gt | Op::Ge);

    let mut b_lt = needs_lt.then(|| BitVec::zeros(n_rows));
    let mut b_gt = needs_gt.then(|| BitVec::zeros(n_rows));
    // Line 2 of the listing: B_EQ starts as B_nn (all ones when no nulls).
    let mut b_eq = match ctx.fetch_nn()? {
        Some(nn) => ctx.to_window(&nn),
        None => BitVec::ones(n_rows),
    };

    for i in (1..=n).rev() {
        let bi = ctx.spec().base.component(i);
        let vi = digits[i - 1];
        if vi > 0 {
            if let Some(lt) = b_lt.as_mut() {
                // B_LT = B_LT ∨ (B_EQ ∧ B_i^{v_i − 1})
                let bm = ctx.fetch(i, vi as usize - 1)?;
                let t = ctx.and_pair(&b_eq, &bm);
                ctx.or(lt, &t);
            }
            if vi < bi - 1 {
                if let Some(gt) = b_gt.as_mut() {
                    // B_GT = B_GT ∨ (B_EQ ∧ ¬B_i^{v_i})
                    let bm = ctx.fetch(i, vi as usize)?;
                    let t = ctx.and_not_pair(&b_eq, &bm);
                    ctx.or(gt, &t);
                }
                // B_EQ = B_EQ ∧ (B_i^{v_i} ⊕ B_i^{v_i − 1})
                let hi = ctx.fetch(i, vi as usize)?;
                let lo = ctx.fetch(i, vi as usize - 1)?;
                let x = ctx.xor(&hi, &lo);
                ctx.and(&mut b_eq, &x);
            } else {
                // v_i = b_i − 1: B_EQ = B_EQ ∧ ¬B_i^{b_i − 2}
                let bm = ctx.fetch(i, bi as usize - 2)?;
                ctx.and_not(&mut b_eq, &bm);
            }
        } else {
            if let Some(gt) = b_gt.as_mut() {
                // B_GT = B_GT ∨ (B_EQ ∧ ¬B_i^0)
                let bm = ctx.fetch(i, 0)?;
                let t = ctx.and_not_pair(&b_eq, &bm);
                ctx.or(gt, &t);
            }
            // B_EQ = B_EQ ∧ B_i^0
            let bm = ctx.fetch(i, 0)?;
            ctx.and(&mut b_eq, &bm);
        }
    }

    Ok(match query.op {
        Op::Lt => b_lt.expect("maintained for <"),
        Op::Gt => b_gt.expect("maintained for >"),
        Op::Le => {
            // B_LE = B_LT ∨ B_EQ
            let mut le = b_lt.expect("maintained for <=");
            ctx.or(&mut le, &b_eq);
            le
        }
        Op::Ge => {
            // B_GE = B_GT ∨ B_EQ
            let mut ge = b_gt.expect("maintained for >=");
            ctx.or(&mut ge, &b_eq);
            ge
        }
        Op::Eq => b_eq,
        Op::Ne => {
            // B_NE = ¬B_EQ ∧ B_nn
            ctx.not(&mut b_eq);
            if let Some(nn) = ctx.fetch_nn()? {
                ctx.and(&mut b_eq, &nn);
            }
            b_eq
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Base;
    use crate::encoding::{Encoding, IndexSpec};
    use crate::eval::{evaluate_predicate, naive, Algorithm};
    use crate::index::BitmapIndex;
    use bindex_relation::{query, Column};

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
