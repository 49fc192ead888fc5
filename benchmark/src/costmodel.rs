//! The paper's cost model for the benchmark's one index design — base
//! `<10,10,10>`, range-encoded, evaluated by RangeEval-Opt — written out
//! from Section 3 of the paper and independent of the library. The core
//! probe's measured scan and operation counts must equal it exactly; the
//! kernel probe uses it to know which kernel calls a query implies.

use crate::query::{Op, Query};

/// The benchmark's base, least-significant component first.
pub const BASE: [u32; 3] = [10, 10, 10];

/// Attribute cardinality covered by [`BASE`].
pub const CARDINALITY: u32 = 1000;

/// Bitmaps a range-encoded index over [`BASE`] stores (`b_i - 1` each).
pub const STORED_BITMAPS: usize = 27;

/// Bitmap scans and operations one query costs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// Distinct stored bitmaps read.
    pub scans: u32,
    /// AND operations.
    pub ands: u32,
    /// OR operations.
    pub ors: u32,
    /// XOR operations.
    pub xors: u32,
    /// NOT operations.
    pub nots: u32,
}

impl Cost {
    /// All operations.
    pub fn ops(&self) -> u32 {
        self.ands + self.ors + self.xors + self.nots
    }
}

fn digits(mut v: u32) -> [u32; 3] {
    let mut out = [0; 3];
    for (d, b) in out.iter_mut().zip(BASE) {
        *d = v % b;
        v /= b;
    }
    out
}

/// `A <= le`: `R_1 = B_1^{v_1}`, `R_i = (B_i^{v_i} AND R_{i-1}) OR
/// B_i^{v_i - 1}`, the AND skipped at `v_i = b_i - 1`, the OR at `v_i = 0`.
fn le_chain(le: u32) -> Cost {
    let d = digits(le);
    let mut c = Cost {
        scans: u32::from(d[0] != BASE[0] - 1),
        ..Cost::default()
    };
    for i in 1..BASE.len() {
        let and = u32::from(d[i] != BASE[i] - 1);
        let or = u32::from(d[i] != 0);
        c.scans += and + or;
        c.ands += and;
        c.ors += or;
    }
    c
}

/// `A = v`: per digit one stored bitmap at the ends (`NOT` at the top
/// digit value) or two XORed inside, then one AND per component.
fn eq_chain(v: u32) -> Cost {
    let d = digits(v);
    let mut c = Cost {
        ands: BASE.len() as u32,
        ..Cost::default()
    };
    for i in 0..BASE.len() {
        if d[i] == 0 {
            c.scans += 1;
        } else if d[i] == BASE[i] - 1 {
            c.scans += 1;
            c.nots += 1;
        } else {
            c.scans += 2;
            c.xors += 1;
        }
    }
    c
}

/// Cost of `q` on a column without nulls.
pub fn cost(q: Query) -> Cost {
    let complemented = |mut c: Cost| {
        c.nots += 1;
        c
    };
    match q.op {
        Op::Le => le_chain(q.v),
        Op::Gt => complemented(le_chain(q.v)),
        // A < 0 is empty and A >= 0 is everything: no scan, no operation.
        Op::Lt | Op::Ge if q.v == 0 => Cost::default(),
        Op::Lt => le_chain(q.v - 1),
        Op::Ge => complemented(le_chain(q.v - 1)),
        Op::Eq => eq_chain(q.v),
        Op::Ne => complemented(eq_chain(q.v)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_le_is_2n_minus_1_scans_and_2n_minus_2_ops() {
        let c = cost(Query { op: Op::Le, v: 555 });
        assert_eq!((c.scans, c.ops()), (5, 4));
        // v = 999: every AND is skipped (B_i^{b_i - 1} is all ones), the
        // two ORs with B_i^{b_i - 2} are not.
        let top = cost(Query { op: Op::Le, v: 999 });
        assert_eq!((top.scans, top.ands, top.ors), (2, 0, 2));
        let eq = cost(Query { op: Op::Ne, v: 509 });
        assert_eq!((eq.scans, eq.ands, eq.xors, eq.nots), (4, 3, 1, 2));
        assert_eq!(cost(Query { op: Op::Lt, v: 0 }), Cost::default());
        assert_eq!(cost(Query { op: Op::Ge, v: 0 }), Cost::default());
    }

    /// Eq. 4 of the paper: Time = 2(n - sum 1/b_i) - (2/3)(1 - 1/b_1)
    /// bitmap scans averaged over Q, up to the two degenerate queries
    /// `A < 0` / `A >= 0`, which the closed form charges and the algorithm
    /// (and this model) answers without a scan.
    #[test]
    fn average_scans_over_q_match_the_papers_closed_form() {
        let total: u32 = Op::ALL
            .iter()
            .flat_map(|&op| (0..CARDINALITY).map(move |v| cost(Query { op, v }).scans))
            .sum();
        let avg = f64::from(total) / f64::from(6 * CARDINALITY);
        let closed = 2.0 * (3.0 - 0.3) - (2.0 / 3.0) * (1.0 - 0.1);
        assert!((avg - closed).abs() < 0.01, "model {avg} vs paper {closed}");
    }
}
