//! The benchmark's own query vocabulary. Workloads, oracle, cost model and
//! streams speak these types; `adapter.rs` alone converts them to the
//! library's.

/// The six comparison operators of the paper's query space Q.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// `A < v`
    Lt,
    /// `A <= v`
    Le,
    /// `A > v`
    Gt,
    /// `A >= v`
    Ge,
    /// `A = v`
    Eq,
    /// `A != v`
    Ne,
}

impl Op {
    /// All six, in the paper's order.
    pub const ALL: [Op; 6] = [Op::Lt, Op::Le, Op::Gt, Op::Ge, Op::Eq, Op::Ne];

    /// Row-level truth of `value op constant`.
    pub fn holds(self, value: u32, constant: u32) -> bool {
        match self {
            Op::Lt => value < constant,
            Op::Le => value <= constant,
            Op::Gt => value > constant,
            Op::Ge => value >= constant,
            Op::Eq => value == constant,
            Op::Ne => value != constant,
        }
    }
}

/// A selection predicate `A op v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Query {
    /// Comparison operator.
    pub op: Op,
    /// Predicate constant, in `0..C`.
    pub v: u32,
}

impl Query {
    /// Row-level truth of the predicate.
    pub fn holds(&self, value: u32) -> bool {
        self.op.holds(value, self.v)
    }
}

/// "At least `k` of `preds` hold" (Kaser–Lemire threshold query).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Threshold {
    /// Predicates that must hold per row.
    pub k: u32,
    /// The predicate set.
    pub preds: Vec<Query>,
}

impl Threshold {
    /// Row-level truth for a row holding `value`.
    pub fn holds(&self, value: u32) -> bool {
        self.preds.iter().filter(|p| p.holds(value)).count() as u32 >= self.k
    }
}
