//! Selection predicates and query workloads.
//!
//! The paper's time metric averages over the uniform query space
//! `Q = { A op v : op ∈ {<, ≤, >, ≥, =, ≠}, 0 ≤ v < C }` (Section 4);
//! Section 9's compression experiments use the restricted space
//! `{ A op v : op ∈ {≤, =} }`. Both are provided, plus seeded random
//! workload sampling for wall-clock benchmarks.

use crate::rng::Rng;

/// The six comparison operators of a selection predicate `A op v`.
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
    /// All six operators, in the paper's order.
    pub const ALL: [Op; 6] = [Op::Lt, Op::Le, Op::Gt, Op::Ge, Op::Eq, Op::Ne];

    /// The operators used by Section 9's compression study.
    pub const COMPRESSION_STUDY: [Op; 2] = [Op::Le, Op::Eq];

    /// `true` for `<, ≤, >, ≥` (a *range* predicate), `false` for `=, ≠`.
    pub fn is_range(self) -> bool {
        !matches!(self, Op::Eq | Op::Ne)
    }

    /// Applies the comparison to a concrete value.
    #[inline]
    pub fn matches(self, value: u32, constant: u32) -> bool {
        match self {
            Op::Lt => value < constant,
            Op::Le => value <= constant,
            Op::Gt => value > constant,
            Op::Ge => value >= constant,
            Op::Eq => value == constant,
            Op::Ne => value != constant,
        }
    }

    /// SQL-ish symbol, for experiment output.
    pub fn symbol(self) -> &'static str {
        match self {
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Eq => "=",
            Op::Ne => "!=",
        }
    }
}

impl std::fmt::Display for Op {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A selection predicate `A op constant` on the indexed attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SelectionQuery {
    /// Comparison operator.
    pub op: Op,
    /// Predicate constant `v`, in `0 .. C`.
    pub constant: u32,
}

impl SelectionQuery {
    /// Creates a query.
    pub fn new(op: Op, constant: u32) -> Self {
        Self { op, constant }
    }

    /// Row-level truth of the predicate.
    #[inline]
    pub fn matches(&self, value: u32) -> bool {
        self.op.matches(value, self.constant)
    }

    /// Selectivity factor against a value histogram (fraction of rows).
    pub fn selectivity(&self, histogram: &[usize]) -> f64 {
        let total: usize = histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let hit: usize = histogram
            .iter()
            .enumerate()
            .filter(|(v, _)| self.matches(*v as u32))
            .map(|(_, &c)| c)
            .sum();
        hit as f64 / total as f64
    }
}

impl std::fmt::Display for SelectionQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "A {} {}", self.op, self.constant)
    }
}

/// A k-of-N threshold query over predicates on the indexed attribute:
/// a row qualifies when **at least `k`** of the `predicates` hold for
/// its value. The symmetric-function extension of the paper's
/// single-predicate query class (Kaser & Lemire, "Threshold and
/// Symmetric Functions over Bitmaps"): `k = 1` degenerates to the OR
/// of the predicates, `k = N` to their AND, `k = ⌊N/2⌋ + 1` is the
/// majority function.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ThresholdQuery {
    /// Minimum number of predicates that must hold, `1 ..= N` for a
    /// non-degenerate query. `validate` rejects 0 and `> N`.
    pub k: u32,
    /// The predicate set, each on the indexed attribute.
    pub predicates: Vec<SelectionQuery>,
}

impl ThresholdQuery {
    /// Creates a threshold query (unvalidated; see
    /// [`ThresholdQuery::validate`]).
    pub fn new(k: u32, predicates: Vec<SelectionQuery>) -> Self {
        Self { k, predicates }
    }

    /// Checks the query is well-formed: a non-empty predicate set and
    /// `1 ≤ k ≤ N`. Returns a human-readable reason when it is not —
    /// degenerate thresholds are a caller error, never a panic or a
    /// silent empty foundset.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.predicates.len();
        if n == 0 {
            return Err("threshold query has no predicates".into());
        }
        if self.k == 0 {
            return Err("threshold k = 0 matches every row; use k >= 1".into());
        }
        if self.k as usize > n {
            return Err(format!(
                "threshold k = {} exceeds the {} predicate(s); no row can qualify",
                self.k, n
            ));
        }
        Ok(())
    }

    /// Row-level truth: does `value` satisfy at least `k` predicates?
    /// (The per-row reference the bit-sliced kernels are tested against.)
    #[inline]
    pub fn matches(&self, value: u32) -> bool {
        let mut hits = 0usize;
        for p in &self.predicates {
            if p.matches(value) {
                hits += 1;
                if hits >= self.k as usize {
                    return true;
                }
            }
        }
        false
    }

    /// Canonical form for caching: predicates sorted. The threshold
    /// function is symmetric, so predicate order never changes the
    /// answer — two queries with equal normalized forms always have
    /// equal answers. Duplicate predicates are **kept**: a duplicated
    /// predicate counts twice toward `k` on every row it matches, so
    /// removing it would change the answer.
    #[must_use]
    pub fn normalized(&self) -> Self {
        let mut predicates = self.predicates.clone();
        predicates.sort_by_key(|p| (p.constant, p.op.symbol()));
        Self {
            k: self.k,
            predicates,
        }
    }

    /// Selectivity factor against a value histogram (fraction of rows
    /// whose value satisfies ≥ k predicates).
    pub fn selectivity(&self, histogram: &[usize]) -> f64 {
        let total: usize = histogram.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let hit: usize = histogram
            .iter()
            .enumerate()
            .filter(|(v, _)| self.matches(*v as u32))
            .map(|(_, &c)| c)
            .sum();
        hit as f64 / total as f64
    }
}

impl std::fmt::Display for ThresholdQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, ">={} of {{", self.k)?;
        for (i, p) in self.predicates.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{p}")?;
        }
        f.write_str("}")
    }
}

/// One query on the indexed attribute, of either kind: a single selection
/// predicate or a "≥ k of N" threshold over several. The evaluator, the
/// batch engine and the server all take this one type, so neither kind has
/// entry points of its own; a threshold is one more Boolean function over
/// the same bitmaps.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Query {
    /// `A op v`.
    Selection(SelectionQuery),
    /// At least `k` of the contained predicates hold.
    Threshold(ThresholdQuery),
}

impl From<SelectionQuery> for Query {
    fn from(query: SelectionQuery) -> Self {
        Query::Selection(query)
    }
}

impl From<ThresholdQuery> for Query {
    fn from(query: ThresholdQuery) -> Self {
        Query::Threshold(query)
    }
}

impl std::fmt::Display for Query {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Query::Selection(q) => q.fmt(f),
            Query::Threshold(q) => q.fmt(f),
        }
    }
}

/// The full uniform query space `Q`: all 6·C queries (Section 4).
pub fn full_space(cardinality: u32) -> Vec<SelectionQuery> {
    let mut out = Vec::with_capacity(6 * cardinality as usize);
    for op in Op::ALL {
        for v in 0..cardinality {
            out.push(SelectionQuery::new(op, v));
        }
    }
    out
}

/// Section 9's restricted space: `{≤, =} × [0, C)`, 2·C queries.
pub fn compression_study_space(cardinality: u32) -> Vec<SelectionQuery> {
    let mut out = Vec::with_capacity(2 * cardinality as usize);
    for op in Op::COMPRESSION_STUDY {
        for v in 0..cardinality {
            out.push(SelectionQuery::new(op, v));
        }
    }
    out
}

/// A seeded random sample of `n` queries from the full space.
pub fn sample(cardinality: u32, n: usize, seed: u64) -> Vec<SelectionQuery> {
    let mut rng = Rng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let op = Op::ALL[rng.below_usize(Op::ALL.len())];
            SelectionQuery::new(op, rng.below_u32(cardinality))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_semantics() {
        assert!(Op::Lt.matches(1, 2) && !Op::Lt.matches(2, 2));
        assert!(Op::Le.matches(2, 2) && !Op::Le.matches(3, 2));
        assert!(Op::Gt.matches(3, 2) && !Op::Gt.matches(2, 2));
        assert!(Op::Ge.matches(2, 2) && !Op::Ge.matches(1, 2));
        assert!(Op::Eq.matches(2, 2) && !Op::Eq.matches(1, 2));
        assert!(Op::Ne.matches(1, 2) && !Op::Ne.matches(2, 2));
    }

    #[test]
    fn range_classification() {
        assert!(Op::Lt.is_range() && Op::Ge.is_range());
        assert!(!Op::Eq.is_range() && !Op::Ne.is_range());
    }

    #[test]
    fn full_space_size_and_coverage() {
        let q = full_space(10);
        assert_eq!(q.len(), 60);
        assert!(q.iter().any(|s| s.op == Op::Ne && s.constant == 9));
    }

    #[test]
    fn compression_space() {
        let q = compression_study_space(50);
        assert_eq!(q.len(), 100);
        assert!(q.iter().all(|s| matches!(s.op, Op::Le | Op::Eq)));
    }

    #[test]
    fn selectivity_on_uniform_histogram() {
        let h = vec![10usize; 10]; // C=10, uniform
        let q = SelectionQuery::new(Op::Le, 4);
        assert!((q.selectivity(&h) - 0.5).abs() < 1e-12);
        let q = SelectionQuery::new(Op::Ne, 0);
        assert!((q.selectivity(&h) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn threshold_row_semantics_and_validation() {
        let q = ThresholdQuery::new(
            2,
            vec![
                SelectionQuery::new(Op::Le, 4),
                SelectionQuery::new(Op::Ge, 2),
                SelectionQuery::new(Op::Eq, 7),
            ],
        );
        assert!(q.validate().is_ok());
        assert!(q.matches(3)); // ≤4 and ≥2
        assert!(!q.matches(9)); // only ≥2
        assert!(!q.matches(0)); // only ≤4
        assert!(q.matches(7)); // ≥2 and =7 (not ≤4)

        assert!(ThresholdQuery::new(0, vec![SelectionQuery::new(Op::Le, 1)])
            .validate()
            .is_err());
        assert!(ThresholdQuery::new(2, vec![SelectionQuery::new(Op::Le, 1)])
            .validate()
            .is_err());
        assert!(ThresholdQuery::new(1, Vec::new()).validate().is_err());
    }

    #[test]
    fn threshold_normalization_sorts_but_keeps_duplicates() {
        let a = ThresholdQuery::new(
            2,
            vec![
                SelectionQuery::new(Op::Ge, 5),
                SelectionQuery::new(Op::Le, 3),
                SelectionQuery::new(Op::Ge, 5),
            ],
        );
        let b = ThresholdQuery::new(
            2,
            vec![
                SelectionQuery::new(Op::Le, 3),
                SelectionQuery::new(Op::Ge, 5),
                SelectionQuery::new(Op::Ge, 5),
            ],
        );
        assert_eq!(a.normalized(), b.normalized());
        assert_eq!(a.normalized().predicates.len(), 3);
        // A duplicated predicate double-counts: value 6 satisfies ≥5
        // twice, reaching k = 2 without ≤3.
        assert!(a.matches(6));
    }

    #[test]
    fn threshold_selectivity_and_display() {
        let h = vec![10usize; 10];
        let q = ThresholdQuery::new(
            2,
            vec![
                SelectionQuery::new(Op::Le, 4),
                SelectionQuery::new(Op::Ge, 3),
                SelectionQuery::new(Op::Ne, 4),
            ],
        );
        // rows qualifying: every value except… check per value 0..10:
        // v∈{0,1,2}: ≤4, ≠4 → 2 hits. v=3: ≤4,≥3,≠4 → 3. v=4: ≤4,≥3 → 2.
        // v≥5: ≥3,≠4 → 2. All 10 values qualify.
        assert!((q.selectivity(&h) - 1.0).abs() < 1e-12);
        assert_eq!(q.to_string(), ">=2 of {A <= 4, A >= 3, A != 4}");
    }

    #[test]
    fn sample_is_seeded() {
        assert_eq!(sample(100, 50, 3), sample(100, 50, 3));
        assert_ne!(sample(100, 50, 3), sample(100, 50, 4));
        assert!(sample(100, 50, 3).iter().all(|q| q.constant < 100));
    }
}
