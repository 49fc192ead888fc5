//! # bindex-core
//!
//! A full implementation of the bitmap-index design framework of
//! **"Bitmap Index Design and Evaluation"** (Chan & Ioannidis, SIGMOD 1998)
//! for selection queries `A op v`.
//!
//! The design space has two orthogonal dimensions:
//!
//! 1. **Attribute value decomposition** — [`Base`]: values are written in a
//!    mixed-radix number system `<b_n, …, b_1>`, one index *component* per
//!    digit.
//! 2. **Bitmap encoding** — [`Encoding`]: each component is either
//!    equality-encoded (Value-List style) or range-encoded (Bit-Sliced
//!    style).
//!
//! On top of the [`BitmapIndex`] built from a
//! [`Column`](bindex_relation::Column), the crate provides:
//!
//! * the evaluation algorithms of Section 3 ([`eval`]): RangeEval,
//!   **RangeEval-Opt** (the paper's improvement), and the equality-encoded
//!   evaluator, all with exact scan/operation accounting ([`EvalStats`]);
//! * the analytic cost model of Sections 4–5 ([`cost`]);
//! * the optimal-design algorithms of Sections 6–8 ([`design`]):
//!   space-optimal, time-optimal, the knee (Theorem 7.1), and the
//!   space-constrained optimum (`TimeOptAlg` / `TimeOptHeur`);
//! * the buffering analysis of Section 10 ([`buffer`]).
//!
//! ## Quick start
//!
//! ```
//! use bindex_core::{Base, BitmapIndex, Encoding, IndexSpec};
//! use bindex_core::eval::{evaluate, Algorithm};
//! use bindex_relation::query::{Op, SelectionQuery};
//! use bindex_relation::Column;
//!
//! // A 12-row attribute with cardinality 9, decomposed base-<3,3>,
//! // range encoded (4 bitmaps instead of the Value-List index's 9).
//! let column = Column::new(vec![3, 2, 1, 2, 8, 2, 2, 0, 7, 5, 6, 4], 9);
//! let spec = IndexSpec::new(Base::from_msb(&[3, 3]).unwrap(), Encoding::Range);
//! let index = BitmapIndex::build(&column, spec).unwrap();
//!
//! let query = SelectionQuery::new(Op::Le, 4);
//! let (found, stats) = evaluate(&mut index.source(), query, Algorithm::Auto).unwrap();
//! assert_eq!(found.count_ones(), 8);
//! assert!(stats.scans <= 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod base;
pub mod buffer;
pub mod cost;
pub mod delta;
pub mod design;
mod encode;
pub mod encoding;
pub mod error;
pub mod eval;
pub mod exec;
pub mod index;

pub use base::Base;
pub use bindex_compress::Repr;
pub use delta::DeltaOverlay;
pub use encoding::{Encoding, IndexSpec};
pub use error::{Error, Result};
pub use eval::Algorithm;
pub use exec::{BufferSet, Deadline, EvalStats, ExecContext, RecoveryPolicy, DEFAULT_SEGMENT_BITS};
pub use index::{rebuild_slot, BitmapIndex, BitmapSource, MemorySource};
