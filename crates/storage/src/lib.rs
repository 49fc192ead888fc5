//! # bindex-storage
//!
//! Physical bitmap storage for Section 9 of the paper: the three storage
//! schemes (**BS** bitmap-level, **CS** component-level, **IS**
//! index-level), optional per-file compression, byte-level I/O accounting,
//! and a bitmap buffer pool. There is one read path — [`ByteStore`] →
//! [`StoredIndex`] (`&self` reads, atomic [`IoStats`]) → [`ShardedPool`]
//! (the one cache, attached by [`SharedIndexReader`]).
//!
//! An index whose component `i` holds `n_i` bitmaps over an `N`-row
//! relation is an `N × n` bit matrix (`n = Σ n_i`). The schemes differ in
//! file granularity and orientation:
//!
//! * **BS** — one file per bitmap (column-major): a query reads only the
//!   bitmaps it needs;
//! * **CS** — one file per component, stored **row-major**: any read of a
//!   component's bitmap scans and transposes the whole component file;
//! * **IS** — one row-major file for the whole index (a projection index
//!   when every component has base 2).
//!
//! Files live in a [`ByteStore`] — [`MemStore`] for tests, [`DiskStore`]
//! (plus [`TempDir`]) for the wall-clock experiments — and are optionally
//! compressed with a [`CodecKind`](bindex_compress::CodecKind); `cBS`,
//! `cCS`, `cIS` in the paper's notation.
//!
//! Every stored file — bitmap payloads and the manifest — is wrapped in a
//! checksummed frame ([`mod@format`], [`checksum`]) verified on every read, so
//! corruption surfaces as a typed [`StorageError`] rather than a silently
//! wrong bitmap. A transient I/O failure is retried up to three attempts per
//! read; [`FaultStore`] injects deterministic faults for robustness testing; and
//! [`StoredIndex::scrub`] audits a whole store file-by-file.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod buffer_pool;
pub mod checksum;
mod error;
mod fault;
pub mod format;
mod layout;
pub mod shared;
mod store;
pub mod wal;

pub use buffer_pool::{PoolStats, ShardedPool};
pub use error::{RepairReport, ScrubFailure, ScrubReport, StorageError};
pub use fault::{FaultCounters, FaultPlan, FaultStore};
pub use layout::{StorageScheme, StoredIndex, StoredIndexMeta};
pub use shared::SharedIndexReader;
pub use store::{ByteStore, DiskStore, IoStats, MemStore, TempDir};
