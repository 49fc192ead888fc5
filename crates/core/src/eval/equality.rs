//! Evaluation algorithm for **equality-encoded** indexes.
//!
//! The paper uses this evaluator for the encoding comparison of Section 5
//! but defers its listing to the technical report; this is the natural
//! reconstruction matching the properties the paper states:
//!
//! * an equality predicate costs **one scan per component** (`E_i^{v_i}`
//!   per component, ANDed together);
//! * a range predicate costs **between two and half the bitmaps of the
//!   component** per component, because `d_i < v_i` is computed as the
//!   cheaper of the two plans
//!   `E^0 ∨ … ∨ E^{v_i−1}` (direct) and `¬(E^{v_i} ∨ … ∨ E^{b_i−1})`
//!   (complemented, which shares the `E^{v_i}` scan with the equality
//!   term).
//!
//! Components with `b_i = 2` store only `E^1`; `E^0` is derived by a
//! counted NOT of the single stored bitmap, so either digit bitmap — or
//! both — costs one scan.
//!
//! Range operators reduce to a `≤` chain exactly as in RangeEval-Opt:
//! `R_1 = (d_1 ≤ v_1)`, `R_i = (d_i < v_i) ∨ ((d_i = v_i) ∧ R_{i−1})`.

use std::sync::Arc;

use bindex_bitvec::kernels::{Fold, FoldStep};
use bindex_bitvec::BitVec;
use bindex_relation::query::SelectionQuery;

use crate::base::Base;
use crate::error::Result;
use crate::exec::{ExecContext, Plan};
use crate::index::BitmapSource;

use super::{digits_of, evaluate_chain, reduce, Chain, Reduced};

/// Evaluates `query` on an equality-encoded index over dense words, at
/// the context's current width. The encoding is enforced by the dispatcher
/// in [`super::evaluate_repr_in`]. Storage failures from the underlying
/// source propagate as errors.
pub fn evaluate<S: BitmapSource>(
    ctx: &mut ExecContext<'_, S>,
    query: SelectionQuery,
) -> Result<BitVec> {
    evaluate_chain(ctx, query, |ctx, chain| match chain {
        Chain::Le(v) => le_chain(ctx, v),
        Chain::Eq(v) => eq_chain(ctx, v),
    })
}

/// `A = v` / `A ≠ v` as one plan — the queries whose whole evaluation is
/// linear, so [`super::evaluate_repr_in`] can fold them in the WAH domain;
/// `None` for the range operators and for the one `=` chain without a
/// stored slot to seed from (see `eq_plan`).
pub(crate) fn plan(base: &Base, query: SelectionQuery) -> Option<Plan> {
    let Reduced::Chain(Chain::Eq(v), complement) = reduce(query) else {
        return None;
    };
    let plan = eq_plan(base, v);
    plan.seed.is_some().then_some(Plan { complement, ..plan })
}

/// `A = v`: the AND of the per-component equality bitmaps, one scan each.
/// The first plain stored slot seeds the fold and the rest are `And`
/// steps, so `n − 1` ANDs are charged, as the pairwise chain would; a
/// base-2 digit 0 is `AndNot` of the one stored bitmap (`E^0 = ¬E^1`, one
/// NOT). Seedless when no component has a plain slot — every base number
/// 2 and `v = 0` — where a fold would start from the all-ones bitmap and
/// charge `n` ANDs: `eq_chain` makes the first digit a term of its own.
fn eq_plan(base: &Base, v: u32) -> Plan {
    let digits = digits_of(base, v);
    let mut plan = Plan::default();
    for i in 1..=base.n_components() {
        match digit_slot(base, i, digits[i - 1]) {
            (slot, true) => plan.steps.push(FoldStep::AndNot(slot)),
            (slot, false) if plan.seed.is_none() => plan.seed = Some(slot),
            (slot, false) => plan.steps.push(FoldStep::And(slot)),
        }
    }
    plan
}

/// The stored slot of `E_i^j`, and whether the digit is its complement:
/// a base-2 component stores `E^1` alone, as slot 0, and `E^0 = ¬E^1`.
fn digit_slot(base: &Base, comp: usize, j: u32) -> ((usize, usize), bool) {
    match base.component(comp) {
        2 => ((comp, 0), j == 0),
        _ => ((comp, j as usize), false),
    }
}

/// `A = v` as a chain: `eq_plan` over its fetched slots, or — for `A = 0`
/// on an all-binary base, where every digit is `¬E^1` — the first digit
/// as a term of its own (one NOT) and the rest as `AndNot` steps.
fn eq_chain<S: BitmapSource>(ctx: &mut ExecContext<'_, S>, v: u32) -> Result<Fold<Arc<BitVec>>> {
    let mut plan = eq_plan(&ctx.spec().base, v);
    if plan.seed.is_some() {
        return ctx.fetch_plan(&plan);
    }
    plan.steps.remove(0); // `∧ ¬E_1^1`
    let seed = not_e1(ctx, 1)?;
    Ok(Fold {
        seed: Some(seed),
        ..ctx.fetch_plan(&plan)?
    })
}

/// `(d_i = j)` as a step of the `≤` chain: `∧ E_i^j`, or `∧ ¬E^1` for a
/// base-2 digit 0 (one scan of the single stored bitmap + one NOT).
fn eq_step<S: BitmapSource>(
    ctx: &mut ExecContext<'_, S>,
    comp: usize,
    j: u32,
) -> Result<FoldStep<Arc<BitVec>>> {
    let ((comp, slot), negated) = digit_slot(&ctx.spec().base, comp, j);
    let step = if negated {
        FoldStep::AndNot
    } else {
        FoldStep::And
    };
    Ok(step(ctx.fetch(comp, slot)?))
}

/// `¬E^1` of a base-2 component as a term — a digit that cannot be a step
/// (the seed, or an operand of an OR): one scan and one NOT, over dense
/// words like the step that may read the same slot.
fn not_e1<S: BitmapSource>(ctx: &mut ExecContext<'_, S>, comp: usize) -> Result<Arc<BitVec>> {
    let plan = Plan {
        seed: Some((comp, 0)),
        complement: true,
        ..Plan::default()
    };
    ctx.fold_plan(&plan, false).map(Arc::new)
}

/// OR of `E_i^{lo} … E_i^{hi}` (inclusive), complemented when asked — a
/// plan of its own, so the slots are folded in one pass, in the WAH domain
/// when they are served compressed within the executor's rule: `hi − lo`
/// ORs charged, as the pairwise fold would, plus the NOT. Assumes
/// `lo <= hi` and the component has base > 2 (callers special-case base 2).
fn or_range<S: BitmapSource>(
    ctx: &mut ExecContext<'_, S>,
    comp: usize,
    lo: u32,
    hi: u32,
    complement: bool,
) -> Result<Arc<BitVec>> {
    let plan = Plan {
        seed: Some((comp, lo as usize)),
        steps: (lo + 1..=hi)
            .map(|j| FoldStep::Or((comp, j as usize)))
            .collect(),
        complement,
        mask: None,
    };
    let found = ctx.run_plan(&plan, false)?;
    Ok(Arc::new(ctx.materialize(found)))
}

/// `d_1 ≤ v_1` for component 1 (`None` is all ones), choosing the cheaper
/// of the direct OR-prefix and the complemented OR-suffix plan by scan
/// count.
fn le_component1<S: BitmapSource>(
    ctx: &mut ExecContext<'_, S>,
    v1: u32,
) -> Result<Option<Arc<BitVec>>> {
    let b1 = ctx.spec().base.component(1);
    if v1 == b1 - 1 {
        return Ok(None);
    }
    let direct_scans = v1 + 1; // E^0 … E^{v1}
    let comp_scans = b1 - 1 - v1; // E^{v1+1} … E^{b1−1}
    let term = if b1 == 2 {
        // v1 = 0: d <= 0 is E^0 = ¬E^1.
        not_e1(ctx, 1)?
    } else if direct_scans <= comp_scans {
        or_range(ctx, 1, 0, v1, false)?
    } else {
        or_range(ctx, 1, v1 + 1, b1 - 1, true)?
    };
    Ok(Some(term))
}

/// `A ≤ le` over all components: `R_1 = (d_1 ≤ v_1)`, then
/// `R_i = lt ∨ (eq ∧ R_{i−1})` with `lt = (d_i < v_i)` a term (empty when
/// `v_i = 0`) and `eq = (d_i = v_i)` a step over its stored slot. Terms
/// are built, and slots fetched, component by component in the order the
/// cheaper plan reads them.
fn le_chain<S: BitmapSource>(ctx: &mut ExecContext<'_, S>, le: u32) -> Result<Fold<Arc<BitVec>>> {
    let digits = digits_of(&ctx.spec().base, le);
    let mut chain = Fold {
        seed: le_component1(ctx, digits[0])?,
        ..Fold::default()
    };
    for i in 2..=ctx.spec().n_components() {
        let (b, vi) = (ctx.spec().base.component(i), digits[i - 1]);
        let direct_scans = vi + 1; // E^0 … E^{vi−1} plus E^{vi} for eq
        let comp_scans = b - vi; // E^{vi} … E^{b−1}, E^{vi} shared with eq
        let (eq, lt) = if vi == 0 {
            (eq_step(ctx, i, 0)?, None)
        } else if b == 2 {
            // vi = 1: lt = E^0 = ¬E^1, eq = E^1 — one stored bitmap total.
            (eq_step(ctx, i, 1)?, Some(not_e1(ctx, i)?))
        } else if direct_scans <= comp_scans {
            let lt = or_range(ctx, i, 0, vi - 1, false)?;
            (eq_step(ctx, i, vi)?, Some(lt))
        } else {
            // lt = ¬(d >= vi) = ¬(E^{vi} ∨ … ∨ E^{b−1}); eq scan is shared.
            let eq = eq_step(ctx, i, vi)?;
            (eq, Some(or_range(ctx, i, vi, b - 1, true)?))
        };
        chain.steps.push(eq);
        chain.steps.extend(lt.map(FoldStep::Or));
    }
    Ok(chain)
}

/// Predicted number of bitmap scans for one query on an equality-encoded
/// index — digit arithmetic only, no bitmaps touched. Mirrors the plans
/// above exactly; validated against the measured
/// [`EvalStats`](crate::exec::EvalStats) scan counts in the test suite.
pub fn predicted_scans(base: &Base, query: SelectionQuery) -> usize {
    let n = base.n_components();
    let le = match reduce(query) {
        Reduced::Empty | Reduced::NonNull => return 0,
        Reduced::Chain(Chain::Eq(_), _) => return n, // one scan per component
        Reduced::Chain(Chain::Le(le), _) => le,
    };
    let digits = base.decompose(le).expect("constant out of range");
    let mut scans = 0usize;
    // component 1
    let b1 = base.component(1);
    let v1 = digits[0];
    if v1 != b1 - 1 {
        scans += if b1 == 2 {
            1
        } else {
            (v1 + 1).min(b1 - 1 - v1) as usize
        };
    }
    // components 2..n
    for i in 2..=n {
        let b = base.component(i);
        let vi = digits[i - 1];
        scans += if vi == 0 || b == 2 {
            1
        } else {
            (vi + 1).min(b - vi) as usize
        };
    }
    scans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoding::{Encoding, IndexSpec};
    use crate::eval::naive;
    use crate::index::BitmapIndex;
    use bindex_relation::{query, Column};

    fn check_all_queries(column: &Column, base: Base) {
        let spec = IndexSpec::new(base, Encoding::Equality);
        let idx = BitmapIndex::build(column, spec).unwrap();
        let mut src = idx.source();
        let mut ctx = ExecContext::new(&mut src);
        for q in query::full_space(column.cardinality()) {
            let got = evaluate(&mut ctx, q).unwrap();
            let stats = ctx.take_stats();
            let want = naive::evaluate(column, q);
            assert_eq!(got, want, "query {q} base {}", idx.spec().base);
            assert_eq!(
                stats.scans,
                predicted_scans(&idx.spec().base, q),
                "scan prediction for {q} on {}",
                idx.spec().base
            );
        }
    }

    #[test]
    fn correct_on_value_list() {
        let col = Column::new(vec![3, 2, 1, 2, 8, 2, 2, 0, 7, 5, 6, 4], 9);
        check_all_queries(&col, Base::single(9).unwrap());
    }

    #[test]
    fn correct_on_decomposed_bases() {
        let col = Column::new(vec![3, 2, 1, 2, 8, 2, 2, 0, 7, 5, 6, 4], 9);
        check_all_queries(&col, Base::from_msb(&[3, 3]).unwrap());
        check_all_queries(&col, Base::from_msb(&[2, 5]).unwrap());
        check_all_queries(&col, Base::from_msb(&[2, 2, 3]).unwrap());
        check_all_queries(&col, Base::from_msb(&[2, 2, 2, 2]).unwrap());
    }

    /// `A = v` costs what the pairwise chain does on every base, the
    /// all-binary ones included (whose `A = 0` has no plain slot to seed a
    /// fold from): one scan per component, `n − 1` ANDs, one NOT per base-2
    /// digit 0.
    #[test]
    fn equality_predicate_one_scan_per_component() {
        for msb in [&[2, 5, 3][..], &[2, 2, 2], &[3, 2], &[2]] {
            let base = Base::from_msb(msb).unwrap();
            let c = base.product() as u32;
            let col = Column::new((0..c).collect(), c);
            let spec = IndexSpec::new(base.clone(), Encoding::Equality);
            let idx = BitmapIndex::build(&col, spec).unwrap();
            let mut src = idx.source();
            let mut ctx = ExecContext::new(&mut src);
            for v in 0..c {
                let q = query::SelectionQuery::new(query::Op::Eq, v);
                let found = evaluate(&mut ctx, q).unwrap();
                assert_eq!(found, naive::evaluate(&col, q), "{base} v={v}");
                let stats = ctx.take_stats();
                let digits = base.decompose(v).unwrap();
                let binary_zeros = (1..=msb.len())
                    .filter(|&i| base.component(i) == 2 && digits[i - 1] == 0)
                    .count();
                assert_eq!(
                    [stats.scans, stats.ands, stats.nots, stats.ors + stats.xors],
                    [msb.len(), msb.len() - 1, binary_zeros, 0],
                    "{base} v={v}"
                );
            }
        }
    }

    #[test]
    fn range_scans_bounded_by_half_component() {
        // Per-component range cost is between ~1 and half the bitmaps.
        let c = 16u32;
        let col = Column::new((0..c).collect(), c);
        let spec = IndexSpec::new(Base::single(c).unwrap(), Encoding::Equality);
        let idx = BitmapIndex::build(&col, spec).unwrap();
        let mut src = idx.source();
        let mut ctx = ExecContext::new(&mut src);
        for v in 0..c {
            evaluate(&mut ctx, query::SelectionQuery::new(query::Op::Le, v)).unwrap();
            let scans = ctx.take_stats().scans;
            assert!(scans <= (c / 2) as usize, "v={v} scans={scans}");
        }
    }

    #[test]
    fn respects_nulls() {
        let col = Column::new(vec![3, 2, 1, 2, 8, 2], 9);
        let nulls = BitVec::from_indices(6, &[3]);
        let spec = IndexSpec::new(Base::from_msb(&[3, 3]).unwrap(), Encoding::Equality);
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
