//! Bitmap encoding schemes (Section 2, dimension 2 of the design space),
//! and the [`IndexSpec`] combining a base with an encoding.

use std::borrow::Cow;

use crate::base::Base;
use crate::error::{Error, Result};

/// How each component's digits are encoded in bitmaps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Encoding {
    /// One bitmap per digit value; bit set iff the digit **equals** the
    /// value. A component with base `b_i` stores `b_i` bitmaps, except
    /// `b_i = 2`, which stores only `E^1` (`E^0` is its complement).
    Equality,
    /// One bitmap per digit value; bitmap `B^j` has a bit set iff the digit
    /// is **`≤ j`**. `B^{b_i−1}` is all ones and is not stored, so a
    /// component stores `b_i − 1` bitmaps.
    Range,
    /// One *window* bitmap per slot `j < ⌈b_i/2⌉`; `I^j` has a bit set iff
    /// the digit lies in `[j, j + ⌈b_i/2⌉ − 1]`. Half the space of range
    /// encoding at ≤ 2 scans per digit predicate — an extension
    /// implementing Chan & Ioannidis's follow-up encoding (SIGMOD 1999).
    Interval,
}

impl Encoding {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Encoding::Equality => "equality",
            Encoding::Range => "range",
            Encoding::Interval => "interval",
        }
    }

    /// Whether stored bitmap `slot` of a component with base number `b`
    /// has its bit set for a row whose digit is `digit` — the single
    /// source of truth for the per-encoding storage rule (equality `b = 2`
    /// components store only `E^1` in slot 0).
    pub fn bit_for(self, b: u32, digit: u32, slot: usize) -> bool {
        match self {
            Encoding::Equality => {
                if b == 2 {
                    digit == 1
                } else {
                    digit as usize == slot
                }
            }
            Encoding::Range => digit as usize <= slot,
            Encoding::Interval => {
                let m = b.div_ceil(2) as usize;
                slot <= digit as usize && (digit as usize) < slot + m
            }
        }
    }

    /// Number of bitmaps *stored* for a component with base number `b`.
    pub fn stored_bitmaps(self, b: u32) -> u32 {
        match self {
            Encoding::Equality => {
                if b > 2 {
                    b
                } else {
                    1
                }
            }
            Encoding::Range => b - 1,
            Encoding::Interval => b.div_ceil(2),
        }
    }
}

/// A point in the paper's two-dimensional design space: an attribute value
/// decomposition ([`Base`]) plus a bitmap [`Encoding`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct IndexSpec {
    /// The mixed-radix base.
    pub base: Base,
    /// The per-component encoding scheme.
    pub encoding: Encoding,
}

/// A source built over an index's own spec borrows it; one built from a
/// spec made on the spot owns it.
impl<'a> From<&'a IndexSpec> for Cow<'a, IndexSpec> {
    fn from(spec: &'a IndexSpec) -> Self {
        Cow::Borrowed(spec)
    }
}

impl From<IndexSpec> for Cow<'_, IndexSpec> {
    fn from(spec: IndexSpec) -> Self {
        Cow::Owned(spec)
    }
}

impl IndexSpec {
    /// Creates a spec.
    pub fn new(base: Base, encoding: Encoding) -> Self {
        Self { base, encoding }
    }

    /// The classical **Value-List index**: single component of base `C`,
    /// equality encoded (Figure 1 of the paper).
    pub fn value_list(c: u32) -> Result<Self> {
        Ok(Self::new(Base::single(c)?, Encoding::Equality))
    }

    /// The **Bit-Sliced index**: smallest uniform base-`b` decomposition
    /// covering `C`, range encoded (O'Neil & Quass; `b = 2` gives the
    /// classical binary bit-sliced index).
    pub fn bit_sliced(c: u32, b: u32) -> Result<Self> {
        Ok(Self::new(Base::uniform_for(b, c)?, Encoding::Range))
    }

    /// Number of components.
    pub fn n_components(&self) -> usize {
        self.base.n_components()
    }

    /// Number of bitmaps stored in component `i` (1-based).
    pub fn stored_in_component(&self, i: usize) -> u32 {
        self.encoding.stored_bitmaps(self.base.component(i))
    }

    /// Total number of bitmaps stored — the paper's **space metric**
    /// `Space(I)` (Theorem 5.1, Eqs. 1 and 3).
    pub fn stored_bitmaps(&self) -> u64 {
        (1..=self.n_components())
            .map(|i| u64::from(self.stored_in_component(i)))
            .sum()
    }

    /// Validates the spec against an attribute cardinality.
    pub fn check_covers(&self, c: u32) -> Result<()> {
        if !self.base.covers(c) {
            return Err(Error::BaseTooSmall {
                product: self.base.product(),
                cardinality: c,
            });
        }
        Ok(())
    }
}

impl std::fmt::Display for IndexSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} {}-encoded", self.base, self.encoding.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stored_bitmap_counts() {
        assert_eq!(Encoding::Interval.stored_bitmaps(9), 5);
        assert_eq!(Encoding::Interval.stored_bitmaps(8), 4);
        assert_eq!(Encoding::Interval.stored_bitmaps(2), 1);
        assert_eq!(Encoding::Equality.stored_bitmaps(9), 9);
        assert_eq!(Encoding::Equality.stored_bitmaps(3), 3);
        assert_eq!(Encoding::Equality.stored_bitmaps(2), 1);
        assert_eq!(Encoding::Range.stored_bitmaps(9), 8);
        assert_eq!(Encoding::Range.stored_bitmaps(2), 1);
    }

    #[test]
    fn value_list_spec() {
        let s = IndexSpec::value_list(9).unwrap();
        assert_eq!(s.n_components(), 1);
        assert_eq!(s.stored_bitmaps(), 9);
        assert_eq!(s.to_string(), "<9> equality-encoded");
    }

    #[test]
    fn figure3_decomposition_space_saving() {
        // Figure 3: decomposing the base-9 Value-List index into <3, 3>
        // reduces bitmaps from 9 to 6.
        let s = IndexSpec::new(Base::from_msb(&[3, 3]).unwrap(), Encoding::Equality);
        assert_eq!(s.stored_bitmaps(), 6);
    }

    #[test]
    fn figure4_range_encoded_sizes() {
        // Figure 4(b): base-9 range-encoded stores 8 bitmaps;
        // Figure 4(c): base-<3,3> range-encoded stores 4.
        let b9 = IndexSpec::new(Base::single(9).unwrap(), Encoding::Range);
        assert_eq!(b9.stored_bitmaps(), 8);
        let b33 = IndexSpec::new(Base::from_msb(&[3, 3]).unwrap(), Encoding::Range);
        assert_eq!(b33.stored_bitmaps(), 4);
    }

    #[test]
    fn bit_sliced_binary() {
        let s = IndexSpec::bit_sliced(1000, 2).unwrap();
        assert_eq!(s.n_components(), 10);
        assert_eq!(s.stored_bitmaps(), 10);
        assert!(s.check_covers(1000).is_ok());
        assert!(s.check_covers(2000).is_err());
    }
}
