//! End-to-end tests of the §1 plan model on a realistic DSS schema:
//! TPC-D-like columns, per-attribute design points, conjunctive queries
//! priced under all three plans, and the paper's break-even behaviour.

use bindex::core::eval::naive;
use bindex::engine::plan::{choose, estimate};
use bindex::engine::{ConjunctiveQuery, IndexChoice, Plan, Table};
use bindex::relation::{gen, query::Op, query::SelectionQuery, tpcd};
use bindex::BitVec;

fn dss_table() -> Table {
    let quantity = tpcd::lineitem_quantity(0.005, 1); // ~30k rows, C = 50
    let n = quantity.len();
    Table::builder()
        .column("quantity", quantity, IndexChoice::Knee)
        .column(
            "order_day",
            gen::uniform(n, tpcd::ORDERDATE_CARDINALITY, 2),
            IndexChoice::SpaceBudget(60),
        )
        .column("priority", gen::zipf(n, 5, 0.9, 3), IndexChoice::ValueList)
        .column("comment_len", gen::uniform(n, 120, 4), IndexChoice::None)
        .build()
        .unwrap()
}

fn oracle(t: &Table, q: &ConjunctiveQuery) -> BitVec {
    let mut out = BitVec::ones(t.n_rows());
    for (attr, sq) in q.predicates() {
        out.and_assign(&naive::evaluate(t.column(attr).unwrap(), *sq));
    }
    out
}

#[test]
fn optimizer_tracks_the_papers_breakeven() {
    // Single-predicate queries: P3 degenerates to a pure index scan, so
    // the P1-vs-P3 choice is exactly the introduction's byte comparison.
    let t = dss_table();
    // Selective predicate: index wins.
    let selective = ConjunctiveQuery::new().and("quantity", SelectionQuery::new(Op::Eq, 3));
    assert_ne!(choose(&t, &selective).unwrap().plan, Plan::FullScan);
    // A predicate on the unindexed wide attribute: only P1 applies.
    let unindexed = ConjunctiveQuery::new().and("comment_len", SelectionQuery::new(Op::Le, 10));
    assert_eq!(choose(&t, &unindexed).unwrap().plan, Plan::FullScan);
}

#[test]
fn p3_beats_p2_for_multiple_unselective_predicates() {
    // Both predicates qualify ~half the table: fetching rows for residual
    // filtering (P2) costs far more than a couple of extra bitmap scans.
    let t = dss_table();
    let q = ConjunctiveQuery::new()
        .and("quantity", SelectionQuery::new(Op::Le, 24))
        .and("order_day", SelectionQuery::new(Op::Ge, 1200));
    let p3 = estimate(&t, &q, &Plan::IndexMerge).unwrap();
    let p2 = estimate(&t, &q, &Plan::IndexThenFilter("quantity".into())).unwrap();
    let p1 = estimate(&t, &q, &Plan::FullScan).unwrap();
    assert!(p3.bytes < p2.bytes, "P3 {} vs P2 {}", p3.bytes, p2.bytes);
    assert!(p3.bytes < p1.bytes);
    assert_eq!(choose(&t, &q).unwrap().plan, Plan::IndexMerge);
}

#[test]
fn estimated_selectivity_composes() {
    let t = dss_table();
    let q = ConjunctiveQuery::new()
        .and("quantity", SelectionQuery::new(Op::Le, 24))
        .and("priority", SelectionQuery::new(Op::Eq, 0));
    let est = q.estimated_selectivity(&t).unwrap();
    let actual = oracle(&t, &q).count_ones() as f64 / t.n_rows() as f64;
    // Attributes are generated independently; estimate within 15% rel.
    assert!(
        (est - actual).abs() / actual < 0.15,
        "est {est} vs actual {actual}"
    );
    // The empty conjunction matches every row.
    let everything = ConjunctiveQuery::new().estimated_selectivity(&t).unwrap();
    assert!((everything - 1.0).abs() < 1e-12);
}
