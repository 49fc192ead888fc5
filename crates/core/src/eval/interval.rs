//! Evaluation algorithm for **interval-encoded** indexes — an extension
//! beyond the paper, implementing the encoding Chan & Ioannidis published
//! the following year ("An Efficient Bitmap Encoding Scheme for Selection
//! Queries", SIGMOD 1999) as the natural next point in this paper's
//! design space.
//!
//! A component with base `b` stores `m = ⌈b/2⌉` bitmaps; window bitmap
//! `I^j` has a bit set iff the digit lies in `[j, j+m−1]`. Every digit in
//! `[0, 2m−2]` is covered by at least one window; for even `b` the top
//! digit `b−1 = 2m−1` is covered by none (it is identified as the
//! complement of `I^0 ∨ I^{m−1}`). The pay-off: both the equality and the
//! `≤` digit predicates need **at most two bitmap scans**, at roughly
//! *half* the space of range encoding:
//!
//! ```text
//! d = v:  I^v ∧ ¬I^{v+1}          (v ≤ m−2)
//!         I^{m−1} ∧ I^0           (v = m−1)
//!         I^{v−m+1} ∧ ¬I^{v−m}    (m ≤ v ≤ 2m−2)
//!         ¬(I^0 ∨ I^{m−1})        (v = 2m−1, even b)
//! d ≤ v:  I^0 ∧ ¬I^{v+1}          (v ≤ m−2)
//!         I^0                     (v = m−1)
//!         I^0 ∨ I^{v−m+1}         (m ≤ v ≤ 2m−2)
//!         all ones                (v = b−1)
//! ```
//!
//! Multi-component queries chain exactly like the other evaluators:
//! `R_i = (d_i < v_i) ∨ ((d_i = v_i) ∧ R_{i−1})`.

use bindex_bitvec::kernels::{Fold, FoldStep};
use bindex_relation::query::SelectionQuery;

use crate::base::Base;
use crate::exec::{Operand, Program, Term};

use super::{chain_program, digits_of, reduce, Chain, Reduced};

/// Number of window bitmaps for a component with base `b`.
pub fn windows_of(b: u32) -> u32 {
    b.div_ceil(2)
}

/// `query`'s program on an interval-encoded index: one term per digit
/// predicate, then the chain over them as the answer.
pub(crate) fn program(base: &Base, query: SelectionQuery) -> Program {
    chain_program(query, |program, chain| match chain {
        Chain::Le(v) => le_chain(program, base, v),
        Chain::Eq(v) => eq_chain(program, base, v),
    })
}

/// The term of `d = v` for component `comp` of base `b` (see module table).
fn eq_digit(b: u32, comp: usize, v: u32) -> Term {
    let m = windows_of(b);
    let slot = |j: u32| Operand::Slot(comp, j as usize);
    let (seed, step, complement) = if m == 1 {
        // b <= 2: I^0 = {0}.
        (slot(0), None, v != 0)
    } else if b.is_multiple_of(2) && v == b - 1 {
        // uncovered top digit: ¬(I^0 ∨ I^{m−1})
        (slot(0), Some(FoldStep::Or(slot(m - 1))), true)
    } else if v == m - 1 {
        // I^{m−1} ∧ I^0
        (slot(m - 1), Some(FoldStep::And(slot(0))), false)
    } else if v <= m - 2 {
        // I^v ∧ ¬I^{v+1}
        (slot(v), Some(FoldStep::AndNot(slot(v + 1))), false)
    } else {
        // m <= v <= 2m−2: I^{v−m+1} ∧ ¬I^{v−m}
        (slot(v - m + 1), Some(FoldStep::AndNot(slot(v - m))), false)
    };
    Fold {
        seed: Some(seed),
        steps: step.into_iter().collect(),
        complement,
        mask: None,
    }
}

/// The term of `d ≤ v` for component `comp` of base `b`; `None` means
/// "all ones" (no work).
fn le_digit(b: u32, comp: usize, v: u32) -> Option<Term> {
    let m = windows_of(b);
    let slot = |j: u32| Operand::Slot(comp, j as usize);
    if v >= b - 1 {
        return None;
    }
    let step = if m == 1 || v == m - 1 {
        // I^0 (for b == 2, v == 0, exactly I^0).
        None
    } else if v <= m - 2 {
        // I^0 ∧ ¬I^{v+1}
        Some(FoldStep::AndNot(slot(v + 1)))
    } else {
        // m <= v <= 2m−2: I^0 ∨ I^{v−m+1}
        Some(FoldStep::Or(slot(v - m + 1)))
    };
    Some(Fold {
        seed: Some(slot(0)),
        steps: step.into_iter().collect(),
        ..Fold::default()
    })
}

/// `A ≤ le`: `R = (d_i < v_i) ∨ ((d_i = v_i) ∧ R)` over the digit terms.
fn le_chain(program: &mut Program, base: &Base, le: u32) -> Term {
    let digits = digits_of(base, le);
    let mut chain = Term {
        seed: le_digit(base.component(1), 1, digits[0]).map(|term| program.push(term)),
        ..Term::default()
    };
    for i in 2..=base.n_components() {
        let (b, vi) = (base.component(i), digits[i - 1]);
        let eq = program.push(eq_digit(b, i, vi));
        chain.steps.push(FoldStep::And(eq));
        if vi > 0 {
            let lt = le_digit(b, i, vi - 1)
                .expect("d < v_i with v_i - 1 = b - 1 would make d <= v_i trivial");
            chain.steps.push(FoldStep::Or(program.push(lt)));
        }
    }
    chain
}

/// `A = v`: the AND of the per-component digit terms (`n − 1` ANDs
/// charged, exactly as the pairwise chain would).
fn eq_chain(program: &mut Program, base: &Base, v: u32) -> Term {
    let digits = digits_of(base, v);
    let mut terms = (1..=base.n_components())
        .map(|i| program.push(eq_digit(base.component(i), i, digits[i - 1])));
    Term {
        seed: terms.next(),
        steps: terms.map(FoldStep::And).collect(),
        ..Term::default()
    }
}

/// Stored window slots a digit-level helper touches (for the predictor).
fn eq_slots(b: u32, v: u32) -> Vec<u32> {
    let m = windows_of(b);
    if m == 1 {
        vec![0]
    } else if b.is_multiple_of(2) && v == b - 1 {
        vec![0, m - 1]
    } else if v == m - 1 {
        vec![m - 1, 0]
    } else if v <= m - 2 {
        vec![v, v + 1]
    } else {
        vec![v - m + 1, v - m]
    }
}

fn le_slots(b: u32, v: u32) -> Vec<u32> {
    let m = windows_of(b);
    if v >= b - 1 {
        vec![]
    } else if m == 1 || v == m - 1 {
        vec![0]
    } else if v <= m - 2 {
        vec![0, v + 1]
    } else {
        vec![0, v - m + 1]
    }
}

/// Predicted scan count (distinct stored bitmaps) of one query — mirrors
/// the evaluator exactly, including slot sharing between the `=` and `<`
/// digit terms; validated against measured stats in the test suite.
pub fn predicted_scans(base: &Base, query: SelectionQuery) -> usize {
    let distinct = |mut slots: Vec<u32>| {
        slots.sort_unstable();
        slots.dedup();
        slots.len()
    };
    let n = base.n_components();
    match reduce(query) {
        Reduced::Empty | Reduced::NonNull => 0,
        Reduced::Chain(Chain::Eq(v), _) => {
            let digits = base.decompose(v).expect("constant out of range");
            (1..=n)
                .map(|i| distinct(eq_slots(base.component(i), digits[i - 1])))
                .sum()
        }
        Reduced::Chain(Chain::Le(le), _) => {
            let digits = base.decompose(le).expect("constant out of range");
            let mut scans = le_slots(base.component(1), digits[0]).len();
            for i in 2..=n {
                let b = base.component(i);
                let vi = digits[i - 1];
                let mut slots = eq_slots(b, vi);
                if vi > 0 {
                    slots.extend(le_slots(b, vi - 1));
                }
                scans += distinct(slots);
            }
            scans
        }
    }
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

    /// The interval evaluator over dense words.
    fn evaluate<S: BitmapSource>(
        ctx: &mut ExecContext<'_, S>,
        q: SelectionQuery,
    ) -> Result<BitVec> {
        evaluate_predicate(ctx, q, Algorithm::IntervalEval)
    }

    fn check_all_queries(column: &Column, base: Base) {
        let spec = IndexSpec::new(base, Encoding::Interval);
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
    fn correct_on_single_component_bases() {
        let col = Column::new(vec![3, 2, 1, 2, 8, 2, 2, 0, 7, 5, 6, 4], 9);
        check_all_queries(&col, Base::single(9).unwrap()); // odd base
        let col8 = Column::new(vec![3, 2, 1, 2, 7, 2, 2, 0, 6, 5, 4, 4], 8);
        check_all_queries(&col8, Base::single(8).unwrap()); // even base
    }

    #[test]
    fn correct_on_multi_component_bases() {
        let col = Column::new(vec![3, 2, 1, 2, 8, 2, 2, 0, 7, 5, 6, 4], 9);
        check_all_queries(&col, Base::from_msb(&[3, 3]).unwrap());
        check_all_queries(&col, Base::from_msb(&[2, 5]).unwrap());
        check_all_queries(&col, Base::from_msb(&[5, 2]).unwrap());
        check_all_queries(&col, Base::from_msb(&[2, 2, 3]).unwrap());
        check_all_queries(&col, Base::from_msb(&[4, 4]).unwrap()); // even comps
    }

    #[test]
    fn le_needs_at_most_two_scans_single_component() {
        let c = 17u32;
        let col = Column::new((0..c).collect(), c);
        let spec = IndexSpec::new(Base::single(c).unwrap(), Encoding::Interval);
        let idx = BitmapIndex::build(&col, spec).unwrap();
        let mut src = idx.source();
        let mut ctx = ExecContext::new(&mut src);
        for v in 0..c {
            evaluate(&mut ctx, query::SelectionQuery::new(query::Op::Le, v)).unwrap();
            let s = ctx.take_stats();
            assert!(s.scans <= 2, "v={v}: {} scans", s.scans);
        }
        for v in 0..c {
            evaluate(&mut ctx, query::SelectionQuery::new(query::Op::Eq, v)).unwrap();
            let s = ctx.take_stats();
            assert!(s.scans <= 2, "eq v={v}: {} scans", s.scans);
        }
    }

    #[test]
    fn interval_halves_range_encoding_space() {
        for c in [9u32, 50, 100] {
            let interval = IndexSpec::new(Base::single(c).unwrap(), Encoding::Interval);
            let range = IndexSpec::new(Base::single(c).unwrap(), Encoding::Range);
            assert_eq!(interval.stored_bitmaps(), u64::from(c.div_ceil(2)));
            assert!(interval.stored_bitmaps() * 2 <= range.stored_bitmaps() + 2);
        }
    }
}
