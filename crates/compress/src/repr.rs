//! The execution representation of a fetched bitmap: dense words or WAH.
//!
//! The storage layer's v3 format keeps each slot in whichever form is
//! smaller, and the evaluators operate on whichever form they were handed
//! — folding a chain in the compressed domain while every operand is a
//! small fraction of its literal size, over dense words otherwise.
//! [`Repr`] is the currency both layers trade in: a cheaply clonable
//! handle (`Arc`-backed, like the executor's fetch cache) that knows its
//! length, population count and heap footprint in either form.

use std::sync::Arc;

use bindex_bitvec::BitVec;

use crate::wah::WahBitmap;

/// A bitmap in one of the two execution representations.
#[derive(Debug, Clone)]
pub enum Repr {
    /// Dense, uncompressed 64-bit words.
    Literal(Arc<BitVec>),
    /// WAH-compressed form, operable without decompression.
    Wah(Arc<WahBitmap>),
}

impl Repr {
    /// Wraps a dense bitmap.
    pub fn literal(bits: BitVec) -> Self {
        Repr::Literal(Arc::new(bits))
    }

    /// Wraps a WAH-compressed bitmap.
    pub fn wah(wah: WahBitmap) -> Self {
        Repr::Wah(Arc::new(wah))
    }

    /// Number of bits represented (identical in either form).
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            Repr::Literal(b) => b.len(),
            Repr::Wah(w) => w.len(),
        }
    }

    /// `true` if the bitmap holds zero bits.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when the bitmap is held in compressed form.
    #[inline]
    pub fn is_compressed(&self) -> bool {
        matches!(self, Repr::Wah(_))
    }

    /// Number of set bits, computed without changing representation.
    pub fn count_ones(&self) -> usize {
        match self {
            Repr::Literal(b) => b.count_ones(),
            Repr::Wah(w) => w.count_ones(),
        }
    }

    /// Bytes of heap this representation actually occupies — the quantity
    /// a byte-accounted buffer pool charges: dense words for a literal,
    /// compressed words for WAH.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Repr::Literal(b) => b.words().len() * 8,
            Repr::Wah(w) => w.compressed_bytes(),
        }
    }

    /// The dense form: a cheap handle clone for a literal, one
    /// decompression for WAH. The receiver is unchanged — callers that
    /// want to *stay* materialized should cache the result.
    pub fn to_bitvec(&self) -> Arc<BitVec> {
        match self {
            Repr::Literal(b) => Arc::clone(b),
            Repr::Wah(w) => Arc::new(w.to_bitvec()),
        }
    }
}

impl From<BitVec> for Repr {
    fn from(bits: BitVec) -> Self {
        Repr::literal(bits)
    }
}

impl From<WahBitmap> for Repr {
    fn from(wah: WahBitmap) -> Self {
        Repr::wah(wah)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(len: usize, step: usize) -> BitVec {
        BitVec::from_fn(len, |i| i % step == 0)
    }

    #[test]
    fn both_forms_agree() {
        let bits = sample(10_000, 97);
        let lit = Repr::literal(bits.clone());
        let wah = Repr::wah(WahBitmap::from_bitvec(&bits));
        assert_eq!(lit.len(), wah.len());
        assert_eq!(lit.count_ones(), wah.count_ones());
        assert_eq!(*lit.to_bitvec(), bits);
        assert_eq!(*wah.to_bitvec(), bits);
        assert!(!lit.is_compressed());
        assert!(wah.is_compressed());
    }

    #[test]
    fn heap_bytes_reflect_representation() {
        let bits = sample(100_000, 5000); // very sparse
        let lit = Repr::literal(bits.clone());
        let wah = Repr::wah(WahBitmap::from_bitvec(&bits));
        assert_eq!(lit.heap_bytes(), bits.words().len() * 8);
        assert!(wah.heap_bytes() * 10 < lit.heap_bytes());
    }

    #[test]
    fn empty_bitmap_is_empty() {
        assert!(Repr::literal(BitVec::zeros(0)).is_empty());
    }
}
