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

use bindex_bitvec::kernels::{Fold, FoldStep};
use bindex_relation::query::SelectionQuery;

use crate::base::Base;
use crate::exec::{Operand, Program, Term};

use super::{chain_program, digits_of, reduce, Chain, Reduced};

/// `query`'s program on an equality-encoded index: the digit terms the
/// chain ORs in, then the chain itself as the answer. `A = v` / `A ≠ v`
/// is one term, bar the one `=` chain without a stored slot to seed from
/// (see `eq_chain`).
pub(crate) fn program(base: &Base, query: SelectionQuery) -> Program {
    chain_program(query, |program, chain| match chain {
        Chain::Le(v) => le_chain(program, base, v),
        Chain::Eq(v) => eq_chain(program, base, v),
    })
}

/// `A = v`: the AND of the per-component equality bitmaps, one scan each.
/// The first plain stored slot seeds the fold and the rest are `And`
/// steps, so `n − 1` ANDs are charged, as the pairwise chain would; a
/// base-2 digit 0 is `AndNot` of the one stored bitmap (`E^0 = ¬E^1`, one
/// NOT). When no component has a plain slot — every base number 2 and
/// `v = 0` — a fold would start from the all-ones bitmap and charge `n`
/// ANDs, so the first digit is a term of its own (one NOT) that seeds the
/// rest.
fn eq_chain(program: &mut Program, base: &Base, v: u32) -> Term {
    let digits = digits_of(base, v);
    let mut chain = Term::default();
    for i in 1..=base.n_components() {
        match eq_step(base, i, digits[i - 1]) {
            FoldStep::And(slot) if chain.seed.is_none() => chain.seed = Some(slot),
            step => chain.steps.push(step),
        }
    }
    if chain.seed.is_none() {
        chain.steps.remove(0); // `∧ ¬E_1^1`
        chain.seed = Some(program.push(not_e1(1)));
    }
    chain
}

/// `(d_i = j)` as a step: `∧ E_i^j`, or `∧ ¬E^1` for a base-2 digit 0 — a
/// base-2 component stores `E^1` alone, as slot 0, and `E^0 = ¬E^1` (one
/// scan of the single stored bitmap + one NOT).
fn eq_step(base: &Base, comp: usize, j: u32) -> FoldStep<Operand> {
    match base.component(comp) {
        2 if j == 0 => FoldStep::AndNot(Operand::Slot(comp, 0)),
        2 => FoldStep::And(Operand::Slot(comp, 0)),
        _ => FoldStep::And(Operand::Slot(comp, j as usize)),
    }
}

/// `¬E^1` of a base-2 component as a term — a digit that cannot be a step
/// (the seed, or an operand of an OR): one scan and one NOT.
fn not_e1(comp: usize) -> Term {
    Fold {
        seed: Some(Operand::Slot(comp, 0)),
        complement: true,
        ..Fold::default()
    }
}

/// OR of `E_i^{lo} … E_i^{hi}` (inclusive), complemented when asked — a
/// term of its own, so the slots are folded in one pass: `hi − lo` ORs
/// charged, as the pairwise fold would, plus the NOT. Assumes `lo <= hi`
/// and the component has base > 2 (callers special-case base 2).
fn or_range(comp: usize, lo: u32, hi: u32, complement: bool) -> Term {
    Fold {
        seed: Some(Operand::Slot(comp, lo as usize)),
        steps: (lo + 1..=hi)
            .map(|j| FoldStep::Or(Operand::Slot(comp, j as usize)))
            .collect(),
        complement,
        mask: None,
    }
}

/// `d_i < u` as a term, by the cheaper of the direct OR-prefix
/// `E^0 ∨ … ∨ E^{u−1}` and the complemented OR-suffix
/// `¬(E^u ∨ … ∨ E^{b−1})` in scans — the suffix shares `E^u` with the
/// chain's `(d_i = u)` step when `eq_reads_u`. `None` when it is all
/// zeros (`u = 0`: no term to OR in) or all ones (`u = b`: no seed).
fn lt_term(b: u32, comp: usize, u: u32, eq_reads_u: bool) -> Option<Term> {
    if u == 0 || u == b {
        None
    } else if b == 2 {
        // u = 1: d < 1 is E^0 = ¬E^1, one stored bitmap with the step's.
        Some(not_e1(comp))
    } else if u + u32::from(eq_reads_u) <= b - u {
        Some(or_range(comp, 0, u - 1, false))
    } else {
        Some(or_range(comp, u, b - 1, true))
    }
}

/// `A ≤ le` over all components: `R_1 = (d_1 ≤ v_1) = (d_1 < v_1 + 1)`,
/// then `R_i = lt ∨ (eq ∧ R_{i−1})` with `lt = (d_i < v_i)` a term and
/// `eq = (d_i = v_i)` a step over its stored slot.
fn le_chain(program: &mut Program, base: &Base, le: u32) -> Term {
    let digits = digits_of(base, le);
    let mut chain = Term {
        seed: lt_term(base.component(1), 1, digits[0] + 1, false).map(|t| program.push(t)),
        ..Term::default()
    };
    for i in 2..=base.n_components() {
        let (b, vi) = (base.component(i), digits[i - 1]);
        let lt = lt_term(b, i, vi, true).map(|t| FoldStep::Or(program.push(t)));
        chain.steps.push(eq_step(base, i, vi));
        chain.steps.extend(lt);
    }
    chain
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
    use crate::error::Result;
    use crate::eval::tests::evaluate_predicate;
    use crate::eval::{naive, Algorithm};
    use crate::exec::ExecContext;
    use crate::index::{BitmapIndex, BitmapSource};
    use bindex_bitvec::BitVec;
    use bindex_relation::{query, Column};

    /// The equality evaluator over dense words.
    fn evaluate<S: BitmapSource>(
        ctx: &mut ExecContext<'_, S>,
        q: SelectionQuery,
    ) -> Result<BitVec> {
        evaluate_predicate(ctx, q, Algorithm::EqualityEval)
    }

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
