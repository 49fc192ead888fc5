//! Conjunctive query plans P1 / P2 / P3 and their byte-cost model
//! (the paper's Section 1 analysis, made executable).
//!
//! The cost model prices plans in **bytes read**, the unit of the paper's
//! introduction:
//!
//! * a relation scan reads `rows × row_bytes`;
//! * a bitmap scan reads `⌈N/8⌉` bytes per scanned bitmap (the predicted
//!   scan count of the cost model — exact, since scan counts are
//!   digit-determined);
//! * fetching a qualifying row for residual filtering reads `row_bytes`.
//!
//! Selectivities come from exact column histograms, so the estimates for
//! P2/P3 are exact expectations rather than guesses; the point of the
//! exercise is the *comparison* between plans, which is what the paper's
//! `N/32` break-even describes.

use bindex_bitvec::{kernels, BitVec};
use bindex_core::cost::predicted_scans;
use bindex_core::error::{Error, Result};
use bindex_core::eval::{evaluate_in, naive, Algorithm};
use bindex_core::ExecContext;
use bindex_relation::query::SelectionQuery;

use crate::table::Table;

/// A conjunction of per-attribute selection predicates.
#[derive(Debug, Clone, Default)]
pub struct ConjunctiveQuery {
    predicates: Vec<(String, SelectionQuery)>,
}

impl ConjunctiveQuery {
    /// Starts an empty conjunction (matches every row).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `attr op v`.
    pub fn and(mut self, attr: &str, query: SelectionQuery) -> Self {
        self.predicates.push((attr.to_string(), query));
        self
    }

    /// The predicates in order.
    pub fn predicates(&self) -> &[(String, SelectionQuery)] {
        &self.predicates
    }

    /// Exact combined selectivity under attribute independence, from the
    /// table's histograms.
    pub fn estimated_selectivity(&self, table: &Table) -> Result<f64> {
        let mut sel = 1.0;
        for (attr, q) in &self.predicates {
            let hist = table.column(attr)?.histogram();
            sel *= q.selectivity(&hist);
        }
        Ok(sel)
    }
}

impl std::fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.predicates.is_empty() {
            return f.write_str("TRUE");
        }
        for (i, (attr, q)) in self.predicates.iter().enumerate() {
            if i > 0 {
                f.write_str(" AND ")?;
            }
            write!(f, "{attr} {} {}", q.op, q.constant)?;
        }
        Ok(())
    }
}

/// The three plans of the paper's introduction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Plan {
    /// P1: full relation scan.
    FullScan,
    /// P2: index scan on the named attribute's predicate, then fetch and
    /// filter the qualifying rows against the remaining predicates.
    IndexThenFilter(String),
    /// P3: index scan per indexed predicate, AND the foundsets; residual
    /// non-indexed predicates filter the merged foundset.
    IndexMerge,
}

impl std::fmt::Display for Plan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Plan::FullScan => f.write_str("P1 full scan"),
            Plan::IndexThenFilter(a) => write!(f, "P2 index({a}) + filter"),
            Plan::IndexMerge => f.write_str("P3 index merge"),
        }
    }
}

/// Estimated cost of a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanCost {
    /// The plan priced.
    pub plan: Plan,
    /// Expected bytes read.
    pub bytes: f64,
}

/// What an execution actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ExecutionStats {
    /// Bytes read (bitmaps at `⌈N/8⌉` each, rows at `row_bytes`).
    pub bytes_read: u64,
    /// Bitmap scans performed.
    pub bitmap_scans: usize,
    /// Rows fetched for residual filtering (or scanned, for P1).
    pub rows_fetched: usize,
    /// Bitmap fetches answered through the degraded path (reconstruction
    /// of an unreadable stored bitmap). Zero on a healthy store.
    pub degraded_fetches: usize,
}

fn bitmap_bytes(n_rows: usize) -> u64 {
    n_rows.div_ceil(8) as u64
}

/// Expected bitmap scans of one predicate on an attribute's index.
fn index_scans(table: &Table, attr: &str, q: SelectionQuery) -> Result<Option<usize>> {
    Ok(table.index(attr)?.map(|idx| {
        let algo = Algorithm::Auto.resolve(idx.spec().encoding);
        predicted_scans(&idx.spec().base, q, algo)
    }))
}

/// Prices one plan (see module docs for the byte model).
pub fn estimate(table: &Table, query: &ConjunctiveQuery, plan: &Plan) -> Result<PlanCost> {
    let n = table.n_rows() as f64;
    let row = table.row_bytes() as f64;
    let bytes = match plan {
        Plan::FullScan => n * row,
        Plan::IndexThenFilter(attr) => {
            let (_, q) = query
                .predicates()
                .iter()
                .find(|(a, _)| a == attr)
                .ok_or_else(|| Error::Infeasible(format!("no predicate on {attr}")))?;
            let scans = index_scans(table, attr, *q)?
                .ok_or_else(|| Error::Infeasible(format!("{attr} is not indexed")))?;
            let sel = q.selectivity(&table.column(attr)?.histogram());
            let residual = query.predicates().len() > 1;
            scans as f64 * bitmap_bytes(table.n_rows()) as f64
                + if residual { sel * n * row } else { 0.0 }
        }
        Plan::IndexMerge => {
            let mut bytes = 0.0;
            let mut indexed_sel = 1.0;
            let mut residual = false;
            for (attr, q) in query.predicates() {
                match index_scans(table, attr, *q)? {
                    Some(scans) => {
                        bytes += scans as f64 * bitmap_bytes(table.n_rows()) as f64;
                        indexed_sel *= q.selectivity(&table.column(attr)?.histogram());
                    }
                    None => residual = true,
                }
            }
            if residual {
                bytes += indexed_sel * n * row;
            }
            bytes
        }
    };
    Ok(PlanCost {
        plan: plan.clone(),
        bytes,
    })
}

/// All plans applicable to `query` on `table`.
pub fn candidate_plans(table: &Table, query: &ConjunctiveQuery) -> Result<Vec<Plan>> {
    let mut plans = vec![Plan::FullScan];
    let mut any_indexed = false;
    for (attr, _) in query.predicates() {
        if table.index(attr)?.is_some() {
            plans.push(Plan::IndexThenFilter(attr.clone()));
            any_indexed = true;
        }
    }
    if any_indexed {
        plans.push(Plan::IndexMerge);
    }
    Ok(plans)
}

/// Picks the cheapest applicable plan.
pub fn choose(table: &Table, query: &ConjunctiveQuery) -> Result<PlanCost> {
    candidate_plans(table, query)?
        .into_iter()
        .map(|p| estimate(table, query, &p))
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .min_by(|a, b| a.bytes.partial_cmp(&b.bytes).expect("finite costs"))
        .ok_or_else(|| Error::Infeasible("no applicable plan".into()))
}

/// Executes `plan`, returning the foundset and what was actually read.
pub fn execute(
    table: &Table,
    query: &ConjunctiveQuery,
    plan: &Plan,
) -> Result<(BitVec, ExecutionStats)> {
    let n_rows = table.n_rows();
    let mut stats = ExecutionStats::default();
    let found = match plan {
        Plan::FullScan => {
            stats.rows_fetched = n_rows;
            stats.bytes_read = (n_rows * table.row_bytes()) as u64;
            filter_rows(table, query, &BitVec::ones(n_rows))?
        }
        Plan::IndexThenFilter(attr) => {
            let (_, q) = query
                .predicates()
                .iter()
                .find(|(a, _)| a == attr)
                .ok_or_else(|| Error::Infeasible(format!("no predicate on {attr}")))?;
            let idx = table
                .index(attr)?
                .ok_or_else(|| Error::Infeasible(format!("{attr} is not indexed")))?;
            let mut src = idx.source();
            let mut ctx = ExecContext::new(&mut src);
            let base_found = evaluate_in(&mut ctx, *q, Algorithm::Auto)?;
            let s = ctx.take_stats();
            stats.bitmap_scans += s.scans;
            stats.bytes_read += s.scans as u64 * bitmap_bytes(n_rows);
            stats.degraded_fetches += s.degraded_fetches;
            if query.predicates().len() > 1 {
                let rest = residual_query(query, std::slice::from_ref(attr));
                let fetched = base_found.count_ones();
                stats.rows_fetched += fetched;
                stats.bytes_read += (fetched * table.row_bytes()) as u64;
                filter_rows(table, &rest, &base_found)?
            } else {
                base_found
            }
        }
        Plan::IndexMerge => {
            let mut foundsets = Vec::new();
            let mut residual_attrs = Vec::new();
            for (attr, q) in query.predicates() {
                match table.index(attr)? {
                    Some(idx) => {
                        let mut src = idx.source();
                        let mut ctx = ExecContext::new(&mut src);
                        foundsets.push(evaluate_in(&mut ctx, *q, Algorithm::Auto)?);
                        let s = ctx.take_stats();
                        stats.bitmap_scans += s.scans;
                        stats.bytes_read += s.scans as u64 * bitmap_bytes(n_rows);
                        stats.degraded_fetches += s.degraded_fetches;
                    }
                    None => residual_attrs.push(attr.clone()),
                }
            }
            // Merge all per-predicate foundsets in one fused pass.
            let merged = if foundsets.is_empty() {
                BitVec::ones(n_rows)
            } else {
                let operands: Vec<&BitVec> = foundsets.iter().collect();
                kernels::and_all(&operands)
            };
            if residual_attrs.is_empty() {
                merged
            } else {
                let keep: Vec<(String, SelectionQuery)> = query
                    .predicates()
                    .iter()
                    .filter(|(a, _)| residual_attrs.contains(a))
                    .cloned()
                    .collect();
                let rest = ConjunctiveQuery { predicates: keep };
                let fetched = merged.count_ones();
                stats.rows_fetched += fetched;
                stats.bytes_read += (fetched * table.row_bytes()) as u64;
                filter_rows(table, &rest, &merged)?
            }
        }
    };
    Ok((found, stats))
}

/// The query minus the predicates on `consumed` attributes.
fn residual_query(query: &ConjunctiveQuery, consumed: &[String]) -> ConjunctiveQuery {
    ConjunctiveQuery {
        predicates: query
            .predicates()
            .iter()
            .filter(|(a, _)| !consumed.contains(a))
            .cloned()
            .collect(),
    }
}

/// Filters `candidates` by evaluating every predicate against the columns,
/// intersecting everything in one fused k-ary pass.
fn filter_rows(table: &Table, query: &ConjunctiveQuery, candidates: &BitVec) -> Result<BitVec> {
    let per_predicate: Vec<BitVec> = query
        .predicates()
        .iter()
        .map(|(attr, q)| Ok(naive::evaluate(table.column(attr)?, *q)))
        .collect::<Result<_>>()?;
    let mut operands: Vec<&BitVec> = Vec::with_capacity(1 + per_predicate.len());
    operands.push(candidates);
    operands.extend(per_predicate.iter());
    Ok(kernels::and_all(&operands))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{IndexChoice, Table};
    use bindex_relation::gen;
    use bindex_relation::query::Op;

    fn table() -> Table {
        Table::builder()
            .column("qty", gen::uniform(4000, 50, 1), IndexChoice::Knee)
            .column(
                "day",
                gen::uniform(4000, 300, 2),
                IndexChoice::SpaceBudget(40),
            )
            .column("note", gen::uniform(4000, 7, 3), IndexChoice::None)
            .build()
            .unwrap()
    }

    fn query() -> ConjunctiveQuery {
        ConjunctiveQuery::new()
            .and("qty", SelectionQuery::new(Op::Gt, 40))
            .and("day", SelectionQuery::new(Op::Le, 100))
            .and("note", SelectionQuery::new(Op::Ne, 3))
    }

    fn oracle(t: &Table, q: &ConjunctiveQuery) -> BitVec {
        let mut out = BitVec::ones(t.n_rows());
        for (attr, sq) in q.predicates() {
            out.and_assign(&naive::evaluate(t.column(attr).unwrap(), *sq));
        }
        out
    }

    #[test]
    fn all_plans_agree_with_oracle() {
        let t = table();
        let q = query();
        let want = oracle(&t, &q);
        for plan in candidate_plans(&t, &q).unwrap() {
            let (got, stats) = execute(&t, &q, &plan).unwrap();
            assert_eq!(got, want, "{plan}");
            assert!(stats.bytes_read > 0);
        }
    }

    #[test]
    fn candidate_plans_reflect_indexes() {
        let t = table();
        let q = query();
        let plans = candidate_plans(&t, &q).unwrap();
        assert!(plans.contains(&Plan::FullScan));
        assert!(plans.contains(&Plan::IndexThenFilter("qty".into())));
        assert!(plans.contains(&Plan::IndexThenFilter("day".into())));
        assert!(!plans.contains(&Plan::IndexThenFilter("note".into())));
        assert!(plans.contains(&Plan::IndexMerge));
    }

    #[test]
    fn chosen_plan_is_cheapest_and_estimates_track_actuals() {
        let t = table();
        let q = query();
        let best = choose(&t, &q).unwrap();
        for plan in candidate_plans(&t, &q).unwrap() {
            let est = estimate(&t, &q, &plan).unwrap();
            assert!(best.bytes <= est.bytes + 1e-9, "{plan}");
            let (_, stats) = execute(&t, &q, &plan).unwrap();
            // Estimates are expectations; actuals must be within 2x.
            let ratio = stats.bytes_read as f64 / est.bytes.max(1.0);
            assert!(
                (0.4..2.5).contains(&ratio),
                "{plan}: est {} actual {}",
                est.bytes,
                stats.bytes_read
            );
        }
    }

    #[test]
    fn selective_point_query_prefers_index_plans() {
        let t = table();
        let q = ConjunctiveQuery::new()
            .and("qty", SelectionQuery::new(Op::Eq, 7))
            .and("day", SelectionQuery::new(Op::Eq, 17));
        let best = choose(&t, &q).unwrap();
        assert_ne!(best.plan, Plan::FullScan);
        let p1 = estimate(&t, &q, &Plan::FullScan).unwrap();
        assert!(best.bytes < p1.bytes / 10.0);
    }

    #[test]
    fn unindexed_only_query_full_scans() {
        let t = table();
        let q = ConjunctiveQuery::new().and("note", SelectionQuery::new(Op::Eq, 2));
        let plans = candidate_plans(&t, &q).unwrap();
        assert_eq!(plans, vec![Plan::FullScan]);
        let (got, _) = execute(&t, &q, &Plan::FullScan).unwrap();
        assert_eq!(got, oracle(&t, &q));
    }

    #[test]
    fn empty_query_matches_everything() {
        let t = table();
        let q = ConjunctiveQuery::new();
        let (got, _) = execute(&t, &q, &Plan::FullScan).unwrap();
        assert_eq!(got.count_ones(), t.n_rows());
        assert!((q.estimated_selectivity(&t).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn p2_on_missing_predicate_errors() {
        let t = table();
        let q = ConjunctiveQuery::new().and("qty", SelectionQuery::new(Op::Le, 10));
        assert!(execute(&t, &q, &Plan::IndexThenFilter("day".into())).is_err());
        assert!(estimate(&t, &q, &Plan::IndexThenFilter("note".into())).is_err());
    }

    #[test]
    fn display_formats() {
        let q = query();
        assert_eq!(q.to_string(), "qty > 40 AND day <= 100 AND note != 3");
        assert_eq!(Plan::FullScan.to_string(), "P1 full scan");
        assert_eq!(
            Plan::IndexThenFilter("qty".into()).to_string(),
            "P2 index(qty) + filter"
        );
    }
}
