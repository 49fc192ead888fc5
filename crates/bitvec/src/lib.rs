//! # bindex-bitvec
//!
//! Dense bit-vector substrate for the bitmap-index library.
//!
//! Every bitmap manipulated by the index layer — the columns of a Value-List
//! index, the slices of a Bit-Sliced index, intermediate foundsets — is a
//! [`BitVec`]: a length-aware vector of bits packed into `u64` words.
//! The crate provides exactly the operations the paper's evaluation
//! algorithms need, implemented word-at-a-time:
//!
//! * logical AND / OR / XOR / AND-NOT / NOT (in-place and owned),
//! * fused k-ary combine and combine-and-count kernels ([`kernels`]) that
//!   fold any number of operands in one cache-blocked pass,
//! * zero-copy word-aligned [`SegmentView`]s so segment-at-a-time
//!   execution drives the same kernels over cache-sized slices,
//! * population count ([`BitVec::count_ones`]) for foundset cardinalities,
//! * iteration over set bits ([`BitVec::iter_ones`]) to materialize RID lists,
//! * byte-level (de)serialization for the storage layer.
//!
//! Bits beyond `len` inside the last word are kept zero at all times (the
//! *canonical form* invariant); every mutating operation restores it, so
//! `count_ones` and equality are always exact.
//!
//! Foundset memory is recycled through one process-wide *spare list*: a
//! dropped bitmap's owned buffer of 128 KiB or more goes onto it, and every
//! full-length dense result ([`kernels::fold`], [`kernels::threshold_k`],
//! [`BitVec::zeros`], [`zeroed_words`]) takes its buffer from it before it
//! asks the allocator. The list keeps at most what the process once held
//! outstanding at the same time, so it never raises peak memory; it saves
//! a batch of large foundsets from faulting in fresh pages every time.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bitvec;
pub mod kernels;
mod spare;
pub mod summary;

pub use crate::bitvec::{BitVec, OnesIter, SegmentView};
pub use crate::summary::{IndexSummaries, SlotSummary, SUMMARY_WINDOW_BITS};

/// Number of bits in one storage word.
pub const WORD_BITS: usize = 64;

/// Number of `u64` words needed to hold `len` bits.
#[inline]
pub fn words_for(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

/// `n` zero words for a full-length result, written into a buffer from
/// the spare list when one fits (see the crate doc), freshly allocated
/// otherwise.
pub fn zeroed_words(n: usize) -> Vec<u64> {
    match spare::take(n) {
        Some(mut words) => {
            words.resize(n, 0);
            words
        }
        None => vec![0; n],
    }
}
