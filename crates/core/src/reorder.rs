//! Row reordering as a build-time physical-layout option.
//!
//! WAH compression pays for run structure: the more consecutive rows fall
//! into the same bitmap, the longer the fill words. Row order is a free
//! physical variable — a relation's tuples carry no intrinsic order — so
//! reordering rows before encoding (Kaser & Lemire, arXiv 0808.2083) can
//! shrink every stored bitmap at once. This module provides the two
//! classic orders next to the natural one:
//!
//! * [`RowOrder::FrequencySort`] — group rows by attribute value, most
//!   frequent value first: every equality bitmap becomes one run.
//! * [`RowOrder::GrayCode`] — sort rows by the reflected mixed-radix
//!   Gray rank of their digit vector under the index base: adjacent rows
//!   differ in few digits, so *component* bitmaps (what multi-component
//!   indexes actually store) get long runs too.
//!
//! Reordering permutes the rows the index sees, so query answers come
//! back in *internal* order; the build returns a [`RowPermutation`] that
//! maps them back ([`RowPermutation::externalize`]). The permutation lives
//! in memory only — nothing persists it, and nothing serves a reordered
//! index. Natural order returns no permutation and changes nothing.

use bindex_bitvec::BitVec;
use bindex_relation::Column;

use crate::encoding::IndexSpec;
use crate::error::{Error, Result};
use crate::index::BitmapIndex;

/// Physical row order applied before encoding.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum RowOrder {
    /// Keep rows as given.
    #[default]
    Natural,
    /// Group rows by value, value groups by descending frequency (ties by
    /// value, rows within a group in natural order).
    FrequencySort,
    /// Sort rows by the reflected mixed-radix Gray rank of their digit
    /// vector under the index base.
    GrayCode,
}

/// Build-time physical-layout options (extensible; today just the order).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildOptions {
    /// Row order applied before encoding.
    pub row_order: RowOrder,
}

/// The row permutation a reordered build applied: `perm[internal]` is the
/// external (original) row id of internal row `internal`.
///
/// Bitmap answers computed against a reordered index are in internal
/// order; [`RowPermutation::externalize`] maps them back so callers see
/// original row ids. Rows appended after the build keep identity mapping
/// (internal id == external id past the permutation's length).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowPermutation {
    perm: Vec<u32>,
}

impl RowPermutation {
    /// External row id of internal row `internal` (identity past the end,
    /// matching appended rows).
    pub fn external_of(&self, internal: usize) -> usize {
        self.perm.get(internal).map_or(internal, |&p| p as usize)
    }

    /// Maps an internal-order bitmap (a query answer) back to external
    /// row ids. The result has the same length and population count.
    #[must_use]
    pub fn externalize(&self, internal: &BitVec) -> BitVec {
        let mut out = BitVec::zeros(internal.len());
        for i in internal.iter_ones() {
            out.set(self.external_of(i), true);
        }
        out
    }
}

/// Builds an index under `options.row_order`, returning the permutation
/// that was applied (`None` for natural order — the result is then
/// bit-identical to [`BitmapIndex::build`]). Rows flagged in `null_mask`
/// are reordered with everything else and excluded from the bitmaps
/// exactly as in [`BitmapIndex::build_with_nulls`].
pub fn build_reordered(
    column: &Column,
    null_mask: Option<&BitVec>,
    spec: IndexSpec,
    options: BuildOptions,
) -> Result<(BitmapIndex, Option<RowPermutation>)> {
    if let Some(mask) = null_mask {
        if mask.len() != column.len() {
            return Err(Error::CorruptIndex(format!(
                "null mask has {} bits for {} rows",
                mask.len(),
                column.len()
            )));
        }
    }
    let order = match options.row_order {
        RowOrder::Natural => {
            let idx = match null_mask {
                Some(mask) => BitmapIndex::build_with_nulls(column, mask, spec)?,
                None => BitmapIndex::build(column, spec)?,
            };
            return Ok((idx, None));
        }
        RowOrder::FrequencySort => frequency_order(column),
        RowOrder::GrayCode => gray_order(column, &spec)?,
    };
    let values = column.values();
    let reordered = Column::new(
        order.iter().map(|&r| values[r as usize]).collect(),
        column.cardinality(),
    );
    let remapped_mask = null_mask.map(|mask| {
        let mut m = BitVec::zeros(mask.len());
        for (internal, &external) in order.iter().enumerate() {
            if mask.get(external as usize) {
                m.set(internal, true);
            }
        }
        m
    });
    let idx = match &remapped_mask {
        Some(mask) => BitmapIndex::build_with_nulls(&reordered, mask, spec)?,
        None => BitmapIndex::build(&reordered, spec)?,
    };
    Ok((idx, Some(RowPermutation { perm: order })))
}

/// Internal order for [`RowOrder::FrequencySort`]: stable sort of row ids
/// by (descending value frequency, value).
fn frequency_order(column: &Column) -> Vec<u32> {
    let values = column.values();
    let mut counts = vec![0u32; column.cardinality() as usize];
    for &v in values {
        counts[v as usize] += 1;
    }
    let mut order: Vec<u32> = (0..values.len() as u32).collect();
    order.sort_by_key(|&r| {
        let v = values[r as usize];
        (std::cmp::Reverse(counts[v as usize]), v)
    });
    order
}

/// Internal order for [`RowOrder::GrayCode`]: stable sort of row ids by
/// the reflected Gray rank of each value's digit vector, most significant
/// component first. Adjacent ranks differ in one digit by one, so rows
/// close in Gray order set nearly the same component bitmaps.
fn gray_order(column: &Column, spec: &IndexSpec) -> Result<Vec<u32>> {
    let card = column.cardinality();
    let mut rank = Vec::with_capacity(card as usize);
    for v in 0..card {
        let digits = spec.base.decompose(v)?;
        // decompose is LSB-first; walk MSB→LSB with the reflection flag.
        let mut r: u64 = 0;
        let mut reflected = false;
        for (ci, &d) in digits.iter().enumerate().rev() {
            let b = u64::from(spec.base.component(ci + 1));
            let e = if reflected {
                b - 1 - u64::from(d)
            } else {
                u64::from(d)
            };
            r = r * b + e;
            if e % 2 == 1 {
                reflected = !reflected;
            }
        }
        rank.push(r);
    }
    let values = column.values();
    let mut order: Vec<u32> = (0..values.len() as u32).collect();
    order.sort_by_key(|&r| rank[values[r as usize] as usize]);
    Ok(order)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Base;
    use crate::encoding::Encoding;
    use crate::eval::{evaluate, Algorithm};
    use bindex_compress::wah::WahBitmap;
    use bindex_relation::query::{Op, SelectionQuery};

    fn xorshift(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        *state
    }

    /// A shuffled skewed column: heavy value 0, long tail.
    fn skewed_column(n: usize, card: u32) -> Column {
        let mut state = 0x5eed5eed5eed5eedu64;
        let values = (0..n)
            .map(|_| {
                let r = xorshift(&mut state) % 100;
                if r < 60 {
                    0
                } else {
                    (xorshift(&mut state) % u64::from(card)) as u32
                }
            })
            .collect();
        Column::new(values, card)
    }

    fn wah_bytes(idx: &BitmapIndex) -> usize {
        idx.components()
            .iter()
            .flatten()
            .map(|bm| WahBitmap::from_bitvec(bm).compressed_bytes())
            .sum()
    }

    #[test]
    fn natural_order_is_the_plain_build() {
        let col = skewed_column(500, 8);
        let spec = IndexSpec::new(Base::single(8).unwrap(), Encoding::Equality);
        let (idx, perm) =
            build_reordered(&col, None, spec.clone(), BuildOptions::default()).unwrap();
        assert!(perm.is_none());
        let plain = BitmapIndex::build(&col, spec).unwrap();
        assert_eq!(idx.components(), plain.components());
    }

    #[test]
    fn reordering_shrinks_wah_size_on_skewed_data() {
        let col = skewed_column(20_000, 16);
        let spec = IndexSpec::new(Base::single(16).unwrap(), Encoding::Equality);
        let natural = BitmapIndex::build(&col, spec.clone()).unwrap();
        for order in [RowOrder::FrequencySort, RowOrder::GrayCode] {
            let (sorted, perm) =
                build_reordered(&col, None, spec.clone(), BuildOptions { row_order: order })
                    .unwrap();
            assert!(perm.is_some());
            assert!(
                wah_bytes(&sorted) < wah_bytes(&natural),
                "{order:?}: {} !< {}",
                wah_bytes(&sorted),
                wah_bytes(&natural)
            );
        }
    }

    #[test]
    fn externalized_answers_match_natural_answers() {
        let col = skewed_column(3_000, 9);
        let nulls = {
            let mut m = BitVec::zeros(3_000);
            let mut state = 7u64;
            for _ in 0..40 {
                m.set((xorshift(&mut state) % 3_000) as usize, true);
            }
            m
        };
        for encoding in [Encoding::Equality, Encoding::Range, Encoding::Interval] {
            let spec = IndexSpec::new(Base::from_msb(&[3, 3]).unwrap(), encoding);
            let natural = BitmapIndex::build_with_nulls(&col, &nulls, spec.clone()).unwrap();
            for order in [RowOrder::FrequencySort, RowOrder::GrayCode] {
                let (sorted, perm) = build_reordered(
                    &col,
                    Some(&nulls),
                    spec.clone(),
                    BuildOptions { row_order: order },
                )
                .unwrap();
                let perm = perm.unwrap();
                for (op, c) in [(Op::Eq, 4), (Op::Le, 2), (Op::Gt, 6), (Op::Ne, 0)] {
                    let q = SelectionQuery::new(op, c);
                    let (want, _) = evaluate(&mut natural.source(), q, Algorithm::Auto).unwrap();
                    let (got, _) = evaluate(&mut sorted.source(), q, Algorithm::Auto).unwrap();
                    assert_eq!(
                        perm.externalize(&got),
                        want,
                        "{encoding:?} {order:?} {op:?} {c}"
                    );
                }
            }
        }
    }

    #[test]
    fn gray_rank_orders_single_component_by_value_adjacency() {
        // Base <4,4>: Gray order over values 0..16 must change one digit
        // at a time between consecutive ranks.
        let card = 16;
        let col = Column::new((0..card).collect(), card);
        let spec = IndexSpec::new(Base::from_msb(&[4, 4]).unwrap(), Encoding::Equality);
        let order = gray_order(&col, &spec).unwrap();
        let digits: Vec<Vec<u32>> = (0..card).map(|v| spec.base.decompose(v).unwrap()).collect();
        for pair in order.windows(2) {
            let (a, b) = (&digits[pair[0] as usize], &digits[pair[1] as usize]);
            let diff: u32 = a.iter().zip(b).map(|(x, y)| u32::from(x != y)).sum();
            assert_eq!(diff, 1, "{a:?} -> {b:?}");
        }
    }
}
