//! # bindex-server
//!
//! A network-facing query service over stored bitmap indexes — the
//! serving layer for the batch engine's query evaluation, built entirely
//! on the standard library (threads, `TcpListener`, a hand-rolled binary
//! protocol).
//!
//! The robustness machinery, bottom to top:
//!
//! * [`protocol`] — length-prefixed frames with a typed error taxonomy
//!   (`Overloaded`, `DeadlineExceeded`, `ShuttingDown`, …): every way of
//!   *not* answering is a first-class, machine-readable outcome;
//! * [`admission`] — a bounded queue between connections and workers;
//!   arrivals beyond the high-water mark are shed immediately, which is
//!   what keeps p999 bounded under overload;
//! * [`breaker`] — a per-index circuit breaker that flips serving from
//!   strict to degraded (bitmap reconstruction) after repeated storage
//!   faults, and probes its way back after repair;
//! * [`cache`] — a normalized-predicate result cache invalidated by the
//!   storage repair epoch, so a repair can never leave stale answers;
//! * [`registry`] — served indexes: `RwLock`-wrapped shared readers where
//!   the write lock *is* the repair drain;
//! * [`service`] — acceptor, connection handlers, workers, per-request
//!   deadlines propagated into the engine, graceful drain;
//! * [`client`] — a small blocking client for tools and tests.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod admission;
pub mod breaker;
pub mod cache;
pub mod client;
pub mod protocol;
pub mod registry;
pub mod service;

pub use admission::{BoundedQueue, PushError};
pub use breaker::{BreakerState, CircuitBreaker};
pub use cache::{normalize, normalize_threshold, NormKey, ResultCache};
pub use client::Client;
pub use protocol::{ErrorCode, Request, Response, StatsSnapshot};
pub use registry::{
    DynStore, IndexTuning, IngestSummary, QueryAnswer, Registry, ServedIndex, ServedQuery,
};
pub use service::{DrainReport, Server, ServerConfig};
