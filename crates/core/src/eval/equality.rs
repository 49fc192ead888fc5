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

use bindex_bitvec::kernels::FoldStep;
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
        Chain::Eq(v) => match eq_plan(&ctx.spec().base, v) {
            Some(plan) => ctx.fold_plan(&plan, false),
            None => {
                let n = ctx.spec().n_components();
                let digits = (1..=n).map(|i| eq_bitmap(ctx, i, 0));
                let digits = digits.collect::<Result<Vec<_>>>()?;
                Ok(ctx.and_all(&digits.iter().collect::<Vec<_>>()))
            }
        },
    })
}

/// `A = v` / `A ≠ v` as one plan — the queries whose whole evaluation is
/// linear, so [`super::evaluate_repr_in`] can fold them in the WAH domain;
/// `None` for the range operators and for the one `=` chain that is no
/// plan (see `eq_plan`).
pub(crate) fn plan(base: &Base, query: SelectionQuery) -> Option<Plan> {
    match reduce(query) {
        Reduced::Chain(Chain::Eq(v), complement) => Some(Plan {
            complement,
            ..eq_plan(base, v)?
        }),
        _ => None,
    }
}

/// `A = v`: the AND of the per-component equality bitmaps, one scan each.
/// The first plain stored slot seeds the fold and the rest are `And`
/// steps, so `n − 1` ANDs are charged, as the pairwise chain would; a
/// base-2 digit 0 is `AndNot` of the one stored bitmap (`E^0 = ¬E^1`, one
/// NOT). `None` when no component has a plain slot to seed from — every
/// base number 2 and `v = 0` — where a fold would start from the all-ones
/// bitmap and charge `n`: [`evaluate`] runs that one pairwise.
fn eq_plan(base: &Base, v: u32) -> Option<Plan> {
    let digits = digits_of(base, v);
    let mut plan = Plan::default();
    for i in 1..=base.n_components() {
        // Base 2 stores `E^1` alone, as slot 0.
        let (slot, negated) = match (base.component(i), digits[i - 1]) {
            (2, j) => ((i, 0), j == 0),
            (_, j) => ((i, j as usize), false),
        };
        if negated {
            plan.steps.push(FoldStep::AndNot(slot));
        } else if plan.seed.is_none() {
            plan.seed = Some(slot);
        } else {
            plan.steps.push(FoldStep::And(slot));
        }
    }
    plan.seed.is_some().then_some(plan)
}

/// Fetches the equality bitmap `E_i^j`, deriving `E^0 = ¬E^1` for base-2
/// components (one counted scan of the single stored bitmap + one NOT).
fn eq_bitmap<S: BitmapSource>(ctx: &mut ExecContext<'_, S>, comp: usize, j: u32) -> Result<BitVec> {
    let b = ctx.spec().base.component(comp);
    if b == 2 {
        let stored = ctx.fetch(comp, 0)?; // E^1
        if j == 1 {
            Ok(ctx.to_window(&stored))
        } else {
            let mut out = ctx.to_window(&stored);
            ctx.not(&mut out);
            Ok(out)
        }
    } else {
        let stored = ctx.fetch(comp, j as usize)?;
        Ok(ctx.to_window(&stored))
    }
}

/// OR of `E_i^{lo} … E_i^{hi}` (inclusive) — a plan of its own, so the
/// slots are folded in one pass, in the WAH domain when they are served
/// compressed within the executor's rule: `hi − lo` ORs charged, as the
/// pairwise fold would. Assumes `lo <= hi` and the component has base > 2
/// (callers special-case base 2).
fn or_range<S: BitmapSource>(
    ctx: &mut ExecContext<'_, S>,
    comp: usize,
    lo: u32,
    hi: u32,
) -> Result<BitVec> {
    let plan = Plan {
        seed: Some((comp, lo as usize)),
        steps: (lo + 1..=hi)
            .map(|j| FoldStep::Or((comp, j as usize)))
            .collect(),
        ..Plan::default()
    };
    let found = ctx.run_plan(&plan, false)?;
    Ok(ctx.materialize(found))
}

/// `d_1 ≤ v_1` for component 1, choosing the cheaper of the direct OR-prefix
/// and the complemented OR-suffix plan by scan count.
fn le_component1<S: BitmapSource>(ctx: &mut ExecContext<'_, S>, v1: u32) -> Result<BitVec> {
    let b1 = ctx.spec().base.component(1);
    if v1 == b1 - 1 {
        return Ok(BitVec::ones(ctx.view_len()));
    }
    if b1 == 2 {
        // v1 = 0: d <= 0 is E^0 = ¬E^1.
        return eq_bitmap(ctx, 1, 0);
    }
    let direct_scans = v1 + 1; // E^0 … E^{v1}
    let comp_scans = b1 - 1 - v1; // E^{v1+1} … E^{b1−1}
    if direct_scans <= comp_scans {
        or_range(ctx, 1, 0, v1)
    } else {
        let mut acc = or_range(ctx, 1, v1 + 1, b1 - 1)?;
        ctx.not(&mut acc);
        Ok(acc)
    }
}

/// `(lt, eq)` digit bitmaps for component `i ≥ 2`: `lt = (d_i < v_i)`,
/// `eq = (d_i = v_i)`. Returns `lt = None` when `v_i = 0` (empty).
fn lt_eq_component<S: BitmapSource>(
    ctx: &mut ExecContext<'_, S>,
    comp: usize,
    vi: u32,
) -> Result<(Option<BitVec>, BitVec)> {
    let b = ctx.spec().base.component(comp);
    if vi == 0 {
        return Ok((None, eq_bitmap(ctx, comp, 0)?));
    }
    if b == 2 {
        // vi = 1: lt = E^0 = ¬E^1, eq = E^1 — one stored bitmap total.
        let eq = eq_bitmap(ctx, comp, 1)?;
        let lt = eq_bitmap(ctx, comp, 0)?;
        return Ok((Some(lt), eq));
    }
    let direct_scans = vi + 1; // E^0 … E^{vi−1} plus E^{vi} for eq
    let comp_scans = b - vi; // E^{vi} … E^{b−1}, E^{vi} shared with eq
    if direct_scans <= comp_scans {
        let lt = or_range(ctx, comp, 0, vi - 1)?;
        let eq = eq_bitmap(ctx, comp, vi)?;
        Ok((Some(lt), eq))
    } else {
        // lt = ¬(d >= vi) = ¬(E^{vi} ∨ … ∨ E^{b−1}); eq scan is shared.
        let eq = eq_bitmap(ctx, comp, vi)?;
        let mut lt = or_range(ctx, comp, vi, b - 1)?;
        ctx.not(&mut lt);
        Ok((Some(lt), eq))
    }
}

/// `A ≤ le` over all components.
fn le_chain<S: BitmapSource>(ctx: &mut ExecContext<'_, S>, le: u32) -> Result<BitVec> {
    let digits = digits_of(&ctx.spec().base, le);
    let n = ctx.spec().n_components();
    let mut b = le_component1(ctx, digits[0])?;
    for i in 2..=n {
        let (lt, eq) = lt_eq_component(ctx, i, digits[i - 1])?;
        // R_i = lt ∨ (eq ∧ R_{i−1})
        ctx.and(&mut b, &eq);
        if let Some(lt) = lt {
            ctx.or(&mut b, &lt);
        }
    }
    Ok(b)
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
