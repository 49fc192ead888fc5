//! # bindex
//!
//! Umbrella crate for the **bitmap index design and evaluation** library —
//! a from-scratch Rust implementation of Chan & Ioannidis, *"Bitmap Index
//! Design and Evaluation"* (SIGMOD 1998).
//!
//! The pieces, re-exported here:
//!
//! * [`bitvec`] — dense bit vectors with logical operations
//!   ([`bindex_bitvec`]);
//! * [`relation`] — columns, synthetic and TPC-D-like data generators,
//!   selection-query workloads ([`bindex_relation`]);
//! * [`core`] — the paper's design space: mixed-radix value decomposition,
//!   equality/range encodings, the RangeEval / RangeEval-Opt / equality
//!   evaluators, the analytic cost model, optimal index design, buffering
//!   analysis ([`bindex_core`]);
//! * [`compress`] — the Section 9 byte codecs (RLE, LZSS, LZ77, Deflate
//!   with Huffman coding) and WAH compressed bitmaps ([`bindex_compress`]);
//! * [`storage`] — the paper's BS/CS/IS physical layouts, the v4 slot
//!   format the engine serves, disk and memory stores, the write-ahead
//!   log and the sharded buffer pool ([`bindex_storage`]);
//! * [`engine`] — single-query and parallel batch execution with
//!   per-query fault isolation ([`bindex_engine`]);
//! * [`stored`] — glue: evaluate queries directly against an index laid
//!   out in a byte store, with real I/O accounting;
//! * [`ingest`] — crash-consistent streaming appends and deletes in front
//!   of a stored index.
//!
//! See the repository's `examples/` for runnable walkthroughs
//! (`quickstart`, `dss_dashboard`, `index_advisor`,
//! `compression_explorer`). The paper's Section 1 plan comparison is
//! reproduced by the `intro_breakeven` binary (the `N/32` break-even)
//! and by `dss_dashboard` (conjunctive queries answered as plan P3).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use bindex_bitvec as bitvec;
pub use bindex_compress as compress;
pub use bindex_core as core;
pub use bindex_engine as engine;
pub use bindex_relation as relation;
pub use bindex_storage as storage;

pub mod ingest;
pub mod stored;

pub use bindex_bitvec::{BitVec, IndexSummaries, SUMMARY_WINDOW_BITS};
pub use bindex_core::{
    Algorithm, Base, BitmapIndex, BitmapSource, BufferSet, Encoding, Error, EvalStats, IndexSpec,
    RecoveryPolicy,
};
pub use bindex_relation::query::{Op, SelectionQuery};
pub use bindex_relation::Column;
pub use ingest::{IngestAck, IngestIndex, IngestOptions};
pub use stored::{persist_index, persist_index_v4, scrub_and_repair_index, SharedSource};
