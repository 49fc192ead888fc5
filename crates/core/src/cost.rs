//! The space–time cost model (Section 4) and its closed forms (Section 5).
//!
//! * **Space metric**: number of bitmaps stored, [`space`] (Eqs. 1 and 3).
//! * **Time metric**: expected number of bitmap scans for a selection query
//!   drawn uniformly from `Q = {A op v : op ∈ {<,≤,>,≥,=,≠}, 0 ≤ v < C}`.
//!
//! Two time estimators are provided:
//!
//! * [`time_paper`] — the paper's closed forms, exact when `C = Π b_i`
//!   (digits independent and uniform) up to an `O(n/C)` boundary term from
//!   the `v−1` shift of `<`/`≥` (see below);
//! * [`expected_scans`] — the exact expectation, obtained by averaging the
//!   digit-level scan predictor over the whole query space. The predictor
//!   itself ([`predicted_scans`]) is validated against measured
//!   [`EvalStats`](crate::exec::EvalStats) in the test suite, so the chain
//!   *formula → predictor → implementation* is closed.
//!
//! ### Re-derived closed forms (OCR of the paper's Eqs. 2 and 4 is lossy)
//!
//! **Range encoding** (RangeEval-Opt), base `<b_n,…,b_1>`:
//! `=`/`≠` cost `Σ_i (2 − 2/b_i)` expected scans; `≤`/`>` cost
//! `(1 − 1/b_1) + Σ_{i≥2}(2 − 2/b_i)`; `<`/`≥` cost the same minus a
//! boundary term. Averaging the six operators:
//!
//! ```text
//! Time(I) = 2(n − Σ_i 1/b_i) − (2/3)(1 − 1/b_1)        (paper Eq. 4)
//! ```
//!
//! **Equality encoding**: `Time(I) = (1/3) Σ_i (1 + t_i)` (paper Eq. 2
//! shape), where `t_i = 2·E_i` and `E_i` is the expected per-component scan
//! cost of a `≤` evaluation: for `b_i = 2`, `E_i = 1`; for `b_i > 2`,
//! `E_i = E[min(v+1, b_i−v)]` for components `i ≥ 2` and
//! `E_1 = E[ v = b_1−1 ? 0 : min(v+1, b_1−1−v) ]` for component 1.

use bindex_relation::query::{Op, SelectionQuery};

use crate::base::Base;
use crate::encoding::{Encoding, IndexSpec};
use crate::eval::{equality, reduce, Algorithm, Chain, Reduced};

/// `Space(I)`: number of bitmaps stored (Theorem 5.1, Eqs. 1 and 3).
pub fn space(spec: &IndexSpec) -> u64 {
    spec.stored_bitmaps()
}

/// Scan count of one query under RangeEval-Opt, from digits alone.
pub fn predicted_scans_range_opt(base: &Base, query: SelectionQuery) -> usize {
    let le = match reduce(query) {
        Reduced::Empty | Reduced::NonNull => return 0, // trivial empty / all-rows result
        Reduced::Chain(Chain::Eq(v), _) => return eq_digit_scans(base, v),
        Reduced::Chain(Chain::Le(le), _) => le,
    };
    let digits = base.decompose(le).expect("constant out of range");
    let b1 = base.component(1);
    let mut scans = usize::from(digits[0] != b1 - 1);
    for i in 2..=base.n_components() {
        let bi = base.component(i);
        let vi = digits[i - 1];
        scans += usize::from(vi != bi - 1) + usize::from(vi != 0);
    }
    scans
}

/// Scan count of one query under RangeEval (O'Neil & Quass), from digits
/// alone. The `B_EQ` chain always touches every component, so the
/// per-component cost is 1 for boundary digits and 2 for interior digits,
/// for **every** operator.
pub fn predicted_scans_range_eval(base: &Base, query: SelectionQuery) -> usize {
    eq_digit_scans(base, query.constant)
}

fn eq_digit_scans(base: &Base, v: u32) -> usize {
    let digits = base.decompose(v).expect("constant out of range");
    (1..=base.n_components())
        .map(|i| {
            let bi = base.component(i);
            let vi = digits[i - 1];
            if vi == 0 || vi == bi - 1 {
                1
            } else {
                2
            }
        })
        .sum()
}

/// Scan count of one query, from digits alone, for any algorithm.
pub fn predicted_scans(base: &Base, query: SelectionQuery, algorithm: Algorithm) -> usize {
    match algorithm {
        Algorithm::RangeEvalOpt => predicted_scans_range_opt(base, query),
        Algorithm::RangeEval => predicted_scans_range_eval(base, query),
        Algorithm::EqualityEval => equality::predicted_scans(base, query),
        Algorithm::IntervalEval => crate::eval::interval::predicted_scans(base, query),
        Algorithm::Auto => panic!("resolve Auto before predicting"),
    }
}

/// Exact `Time(I)` for attribute cardinality `c`: the average of
/// [`predicted_scans`] over the full query space `Q` (6·c queries).
pub fn expected_scans(base: &Base, c: u32, algorithm: Algorithm) -> f64 {
    let mut total = 0usize;
    for op in Op::ALL {
        for v in 0..c {
            total += predicted_scans(base, SelectionQuery::new(op, v), algorithm);
        }
    }
    total as f64 / (6 * c) as f64
}

/// The paper's closed-form `Time(I)` for **range-encoded** indexes
/// (Eq. 4): `2(n − Σ 1/b_i) − (2/3)(1 − 1/b_1)`.
pub fn time_range_paper(base: &Base) -> f64 {
    let n = base.n_components() as f64;
    let inv_sum: f64 = base
        .as_lsb_slice()
        .iter()
        .map(|&b| 1.0 / f64::from(b))
        .sum();
    let b1 = f64::from(base.component(1));
    2.0 * (n - inv_sum) - (2.0 / 3.0) * (1.0 - 1.0 / b1)
}

/// The closed-form `Time(I)` for **equality-encoded** indexes (Eq. 2
/// shape): `(1/3) Σ (1 + t_i)` with `t_i = 2·E_i` (module docs).
pub fn time_equality_paper(base: &Base) -> f64 {
    let n = base.n_components();
    let mut total = 0.0;
    for i in 1..=n {
        let b = base.component(i);
        let e_i = if b == 2 {
            if i == 1 {
                // v=0 costs 1, v=1 (= b−1) costs 0.
                0.5
            } else {
                1.0
            }
        } else {
            let mut sum = 0u64;
            for v in 0..b {
                sum += if i == 1 {
                    if v == b - 1 {
                        0
                    } else {
                        u64::from((v + 1).min(b - 1 - v))
                    }
                } else {
                    u64::from((v + 1).min(b - v))
                };
            }
            sum as f64 / f64::from(b)
        };
        total += (1.0 + 2.0 * e_i) / 3.0;
    }
    total
}

/// Closed-form `Time(I)` dispatched on the encoding.
pub fn time_paper(spec: &IndexSpec) -> f64 {
    match spec.encoding {
        Encoding::Range => time_range_paper(&spec.base),
        Encoding::Equality => time_equality_paper(&spec.base),
        // Extension encoding: no paper closed form; use the exact
        // expectation at the base's full product.
        Encoding::Interval => expected_scans(
            &spec.base,
            spec.base.product().min(u128::from(u32::MAX)) as u32,
            Algorithm::IntervalEval,
        ),
    }
}

/// Buffered closed-form time for range-encoded indexes (Eq. 5):
/// `2(n − Σ (1+f_i)/b_i) − (2/3)(1 − (1+f_1)/b_1)`, where `f_i` bitmaps of
/// component `i` are held resident.
///
/// # Panics
/// Panics if `f` has the wrong length or `f_i ≥ b_i` (a component only
/// stores `b_i − 1` bitmaps).
pub fn time_range_buffered_paper(base: &Base, f: &[u32]) -> f64 {
    assert_eq!(f.len(), base.n_components(), "one f_i per component");
    for (i, &fi) in f.iter().enumerate() {
        assert!(
            fi < base.as_lsb_slice()[i],
            "component {} stores only {} bitmaps, cannot buffer {fi}",
            i + 1,
            base.as_lsb_slice()[i] - 1
        );
    }
    let n = base.n_components() as f64;
    let adj_sum: f64 = base
        .as_lsb_slice()
        .iter()
        .zip(f)
        .map(|(&b, &fi)| f64::from(1 + fi) / f64::from(b))
        .sum();
    let b1 = f64::from(base.component(1));
    let f1 = f64::from(f[0]);
    2.0 * (n - adj_sum) - (2.0 / 3.0) * (1.0 - (1.0 + f1) / b1)
}

/// Scan count of one query under RangeEval-Opt with the first `f_i` slots
/// of each component resident in the buffer (Section 10's deterministic
/// realization of the uniform-hit assumption; every stored slot of a
/// component is referenced with equal probability, so *which* `f_i` slots
/// are resident does not change the expectation).
pub fn predicted_scans_range_opt_buffered(base: &Base, f: &[u32], query: SelectionQuery) -> usize {
    // Slot j of component i is resident iff j < f_i.
    let miss = |i: usize, slot: u32| usize::from(slot >= f[i - 1]);
    match reduce(query) {
        Reduced::Empty | Reduced::NonNull => 0,
        Reduced::Chain(Chain::Le(le), _) => {
            let digits = base.decompose(le).expect("constant out of range");
            let b1 = base.component(1);
            let mut scans = 0;
            if digits[0] != b1 - 1 {
                scans += miss(1, digits[0]);
            }
            for i in 2..=base.n_components() {
                let bi = base.component(i);
                let vi = digits[i - 1];
                if vi != bi - 1 {
                    scans += miss(i, vi);
                }
                if vi != 0 {
                    scans += miss(i, vi - 1);
                }
            }
            scans
        }
        Reduced::Chain(Chain::Eq(v), _) => {
            let digits = base.decompose(v).expect("constant out of range");
            let mut scans = 0;
            for i in 1..=base.n_components() {
                let bi = base.component(i);
                let vi = digits[i - 1];
                if vi == 0 {
                    scans += miss(i, 0);
                } else if vi == bi - 1 {
                    scans += miss(i, bi - 2);
                } else {
                    scans += miss(i, vi) + miss(i, vi - 1);
                }
            }
            scans
        }
    }
}

/// Exact buffered `Time(I)`: average of the buffered predictor over `Q`.
pub fn expected_scans_buffered(base: &Base, f: &[u32], c: u32) -> f64 {
    let mut total = 0usize;
    for op in Op::ALL {
        for v in 0..c {
            total += predicted_scans_range_opt_buffered(base, f, SelectionQuery::new(op, v));
        }
    }
    total as f64 / (6 * c) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(msb: &[u32]) -> Base {
        Base::from_msb(msb).unwrap()
    }

    #[test]
    fn space_formulas() {
        let range = IndexSpec::new(b(&[3, 3]), Encoding::Range);
        assert_eq!(space(&range), 4);
        let eq = IndexSpec::new(b(&[3, 3]), Encoding::Equality);
        assert_eq!(space(&eq), 6);
        let eq2 = IndexSpec::new(b(&[2, 2, 2]), Encoding::Equality);
        assert_eq!(space(&eq2), 3);
    }

    #[test]
    fn paper_formula_close_to_exact_when_product_equals_c() {
        // Exactness up to the O(n/C) boundary term of the v−1 shift.
        for msb in [
            vec![9u32],
            vec![3, 3],
            vec![2, 5],
            vec![4, 4, 4],
            vec![2, 2, 2, 2],
        ] {
            let base = b(&msb);
            let c = base.product() as u32;
            let exact = expected_scans(&base, c, Algorithm::RangeEvalOpt);
            let paper = time_range_paper(&base);
            let bound = (base.n_components() as f64 + 1.0) / f64::from(c);
            assert!(
                (exact - paper).abs() <= bound + 1e-9,
                "base {base}: exact {exact} vs paper {paper} (bound {bound})"
            );
        }
    }

    #[test]
    fn equality_formula_close_to_exact() {
        for msb in [
            vec![9u32],
            vec![3, 3],
            vec![2, 5],
            vec![16],
            vec![2, 2, 2, 2],
        ] {
            let base = b(&msb);
            let c = base.product() as u32;
            let exact = expected_scans(&base, c, Algorithm::EqualityEval);
            let paper = time_equality_paper(&base);
            // boundary term: <=/≥ shift can change cost by up to the
            // worst per-query cost, weight 2/(6C) each of 2 ops
            let worst: f64 = base
                .as_lsb_slice()
                .iter()
                .map(|&bi| f64::from(bi) / 2.0 + 1.0)
                .sum();
            let bound = 2.0 * worst / (3.0 * f64::from(c));
            assert!(
                (exact - paper).abs() <= bound + 1e-9,
                "base {base}: exact {exact} vs paper {paper} (bound {bound})"
            );
        }
    }

    #[test]
    fn base2_encodings_cost_identically() {
        // A base-2 component stores one bitmap under either encoding and
        // costs the same; the formulas must agree on all-2 bases.
        for n in 1..=6 {
            let base = Base::uniform(2, n).unwrap();
            let c = base.product() as u32;
            let r = expected_scans(&base, c, Algorithm::RangeEvalOpt);
            let e = expected_scans(&base, c, Algorithm::EqualityEval);
            assert!((r - e).abs() < 1e-12, "n={n}: range {r} vs equality {e}");
        }
    }

    #[test]
    fn time_optimal_is_single_component() {
        // Theorem 6.1(4): fewer components = faster (range encoding).
        let c = 1000u32;
        let t1 = time_range_paper(&b(&[1000]));
        let t2 = time_range_paper(&b(&[2, 500]));
        let t3 = time_range_paper(&b(&[2, 2, 250]));
        assert!(t1 < t2 && t2 < t3);
        assert!((t1 - (4.0 / 3.0) * (1.0 - 1.0 / f64::from(c))).abs() < 1e-12);
    }

    #[test]
    fn space_optimal_is_all_twos() {
        let knee = IndexSpec::new(b(&[28, 36]), Encoding::Range);
        let all2 = IndexSpec::new(Base::uniform(2, 10).unwrap(), Encoding::Range);
        assert!(space(&all2) < space(&knee));
        assert!(time_range_paper(&all2.base) > time_range_paper(&knee.base));
    }

    #[test]
    fn range_eval_never_cheaper_than_opt() {
        let base = b(&[4, 5, 3]);
        let c = base.product() as u32;
        for op in Op::ALL {
            for v in 0..c {
                let q = SelectionQuery::new(op, v);
                assert!(
                    predicted_scans_range_opt(&base, q) <= predicted_scans_range_eval(&base, q),
                    "{q}"
                );
            }
        }
    }

    #[test]
    fn buffered_formula_matches_enumeration() {
        let base = b(&[4, 5, 10]); // b1=10, b2=5, b3=4; product 200
        let c = base.product() as u32;
        for f in [[0u32, 0, 0], [1, 0, 0], [3, 2, 1], [9, 4, 3]] {
            let exact = expected_scans_buffered(&base, &f, c);
            let paper = time_range_buffered_paper(&base, &f);
            let bound = (base.n_components() as f64 + 1.0) / f64::from(c);
            assert!(
                (exact - paper).abs() <= bound + 1e-9,
                "f={f:?}: exact {exact} vs paper {paper}"
            );
        }
    }

    #[test]
    fn full_buffering_costs_nothing() {
        let base = b(&[4, 5, 10]);
        let f = [9u32, 4, 3]; // all stored bitmaps resident
        let c = base.product() as u32;
        assert_eq!(expected_scans_buffered(&base, &f, c), 0.0);
        assert!(time_range_buffered_paper(&base, &f).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "cannot buffer")]
    fn buffered_rejects_overfull_component() {
        time_range_buffered_paper(&b(&[3, 3]), &[3, 0]);
    }
}
