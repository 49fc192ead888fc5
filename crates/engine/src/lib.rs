//! # bindex-engine
//!
//! Query execution over bitmap indexes — one query
//! ([`evaluate_query`]) or a parallel workload.
//!
//! The [`batch`] module fans workloads of single-index selection and
//! threshold queries across worker threads with per-query fault
//! isolation: failures, panics, deadline expiry, and degraded
//! (reconstructed-bitmap) evaluations each surface as that query's own
//! [`QueryOutcome`] in a [`WorkloadReport`], never as a workload-wide
//! abort.
//!
//! The paper's Section 1 argument — pricing plans P1/P2/P3 in bytes read
//! — is reproduced without a plan model: the `intro_breakeven` binary
//! reproduces the `N/32` break-even, and `examples/dss_dashboard.rs`
//! answers conjunctive queries by ANDing bitmap foundsets (plan P3).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;

pub use batch::{
    evaluate_query, evaluate_selection_workload, BatchHealth, BatchOptions, Deadline, QueryOutcome,
    Sink, WorkloadReport, MIN_SEGMENT_BITS,
};
