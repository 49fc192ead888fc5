//! # bindex-benchmark
//!
//! The repo's benchmark: four workloads run end to end with every answer
//! checked, five gated end-to-end metrics, and an outside-in trace that
//! peels one layer per level from the socket down to the bitmap kernels.
//! See `README.md` for the tables and how to run it.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod adapter;
pub mod affinity;
pub mod catalog;
pub mod costmodel;
pub mod env;
pub mod json;
pub mod openloop;
pub mod oracle;
pub mod probes;
pub mod query;
pub mod rng;
pub mod run;
pub mod spec;
pub mod stats;
pub mod trace;
