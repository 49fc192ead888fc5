//! # bindex-engine
//!
//! Multi-attribute tables and conjunctive selection queries over bitmap
//! indexes — the query-processing scenario the paper's introduction
//! motivates.
//!
//! For a query with selection predicates on several attributes, a
//! conventional optimizer picks one of three plans (Section 1 of the
//! paper):
//!
//! * **P1** — full relation scan;
//! * **P2** — index scan on the most selective predicate, then a partial
//!   relation scan over the qualifying rows to filter the rest;
//! * **P3** — one index scan per predicate, merging the foundsets
//!   (with bitmap indexes: cheap ANDs of bitmaps).
//!
//! [`Table`] holds the columns and their bitmap indexes (chosen per
//! attribute via [`IndexChoice`] — the paper's design points as a menu);
//! [`ConjunctiveQuery`] is the `AND` of per-attribute predicates;
//! [`plan::estimate`] prices each plan in bytes read with the paper's
//! cost model, [`plan::choose`] picks the cheapest, and
//! [`plan::execute`] runs any of them and reports what it actually read.
//!
//! The [`batch`] module fans workloads of single-index selection and
//! threshold queries across worker threads with per-query fault
//! isolation: failures, panics, deadline expiry, and degraded
//! (reconstructed-bitmap) evaluations each surface as that query's own
//! [`QueryOutcome`] in a [`WorkloadReport`], never as a workload-wide
//! abort.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod plan;
mod table;

pub use batch::{
    evaluate_query, evaluate_selection_workload, BatchHealth, BatchOptions, Deadline, QueryOutcome,
    WorkloadReport, MIN_SEGMENT_BITS,
};
pub use plan::{ConjunctiveQuery, ExecutionStats, Plan, PlanCost};
pub use table::{IndexChoice, Table, TableBuilder};
