//! In-memory bitmap index construction and the [`BitmapSource`] abstraction
//! the evaluators read bitmaps through.

use bindex_bitvec::BitVec;
use bindex_relation::Column;

use crate::encode::{encode_index, encode_slot};
use crate::encoding::IndexSpec;
use crate::error::{Error, Result};

/// Provider of stored bitmaps to the evaluation algorithms.
///
/// The in-memory [`BitmapIndex`] implements this directly (via
/// [`BitmapIndex::source`]); the storage layer provides disk-backed
/// implementations under the BS/CS/IS layouts. `try_fetch` models one
/// *bitmap scan* of stored bitmap `slot` of component `comp` — the unit
/// of the paper's time metric. Slot numbering follows the storage rule of
/// [`Encoding`](crate::Encoding): range components store `B^0 … B^{b−2}` in slots
/// `0 … b−2`; equality components with `b > 2` store `E^0 … E^{b−1}`,
/// and `b = 2` components store only `E^1` in slot 0.
///
/// Fetches are fallible: disk-backed sources surface I/O failures as
/// [`Error::Storage`] and corrupted files as [`Error::ChecksumMismatch`],
/// and the whole query path propagates them instead of panicking — a
/// damaged bitmap must never become a silently wrong foundset.
pub trait BitmapSource {
    /// The index layout this source serves.
    fn spec(&self) -> &IndexSpec;

    /// Number of rows (bits per bitmap).
    fn n_rows(&self) -> usize;

    /// Reads stored bitmap `slot` of component `comp` (1-based component,
    /// 0-based slot).
    fn try_fetch(&mut self, comp: usize, slot: usize) -> Result<BitVec>;

    /// The non-null bitmap `B_nn`, or `None` when the attribute has no
    /// nulls (then `B_nn` is implicitly all ones and costs nothing).
    fn try_fetch_nn(&mut self) -> Result<Option<BitVec>>;

    /// Reads stored bitmap `slot` of component `comp` in its stored
    /// execution representation. Sources that keep slots compressed (the
    /// v3 storage layout) override this to hand the executor the
    /// compressed form; the default materializes through
    /// [`BitmapSource::try_fetch`], so every existing source keeps
    /// working unchanged.
    fn try_fetch_repr(&mut self, comp: usize, slot: usize) -> Result<bindex_compress::Repr> {
        self.try_fetch(comp, slot).map(bindex_compress::Repr::from)
    }

    /// `B_nn` in its stored execution representation, for sources that
    /// keep it compressed or behind a shared handle; the default wraps
    /// [`BitmapSource::try_fetch_nn`].
    fn try_fetch_nn_repr(&mut self) -> Result<Option<bindex_compress::Repr>> {
        Ok(self.try_fetch_nn()?.map(bindex_compress::Repr::from))
    }

    /// The index's hierarchical summary bitmaps, if the backing store
    /// carries them (the v4 layout). Infallible by design: a missing,
    /// corrupt, or shape-mismatched summary block returns `None`, which
    /// only disables segment pruning — the executor then degrades to
    /// fetch-and-check, never to a wrong answer. The default (no
    /// summaries) keeps every existing source working unchanged.
    fn try_fetch_summary(&mut self) -> Option<std::sync::Arc<bindex_bitvec::IndexSummaries>> {
        None
    }
}

/// An in-memory bitmap index over one attribute.
///
/// `components[i-1][j]` is stored bitmap `j` of component `i`.
#[derive(Debug, Clone)]
pub struct BitmapIndex {
    spec: IndexSpec,
    n_rows: usize,
    cardinality: u32,
    components: Vec<Vec<BitVec>>,
    nn: Option<BitVec>,
}

impl BitmapIndex {
    /// Builds the index for `column` under `spec`.
    ///
    /// Fails if the base does not cover the column's cardinality.
    pub fn build(column: &Column, spec: IndexSpec) -> Result<Self> {
        Self::build_inner(column, None, spec)
    }

    /// Builds the index for a column with nulls: rows flagged in
    /// `null_mask` are excluded from every bitmap, and the complement of
    /// the mask is kept as the non-null bitmap `B_nn`.
    pub fn build_with_nulls(column: &Column, null_mask: &BitVec, spec: IndexSpec) -> Result<Self> {
        if null_mask.len() != column.len() {
            return Err(Error::CorruptIndex(format!(
                "null mask has {} bits for {} rows",
                null_mask.len(),
                column.len()
            )));
        }
        Self::build_inner(column, Some(null_mask), spec)
    }

    fn build_inner(column: &Column, null_mask: Option<&BitVec>, spec: IndexSpec) -> Result<Self> {
        let n_rows = column.len();
        // Frozen, the bitmaps are handed to the evaluators by reference
        // count ([`MemorySource`]) instead of by copy.
        let frozen = |mut bm: BitVec| {
            bm.freeze();
            bm
        };
        let components = encode_index(column, null_mask, &spec)?
            .into_iter()
            .map(|slots| {
                slots
                    .into_iter()
                    .map(|words| frozen(BitVec::from_words(words, n_rows)))
                    .collect()
            })
            .collect();
        let nn = null_mask.map(|mask| frozen(mask.complement()));
        Ok(Self {
            spec,
            n_rows,
            cardinality: column.cardinality(),
            components,
            nn,
        })
    }

    /// The index layout.
    pub fn spec(&self) -> &IndexSpec {
        &self.spec
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Attribute cardinality of the indexed column.
    pub fn cardinality(&self) -> u32 {
        self.cardinality
    }

    /// Stored bitmap `slot` of component `comp` (1-based component).
    pub fn bitmap(&self, comp: usize, slot: usize) -> &BitVec {
        &self.components[comp - 1][slot]
    }

    /// All stored bitmaps of every component, for handing to the storage
    /// layer: `result[i-1]` lists component `i`'s bitmaps.
    pub fn components(&self) -> &[Vec<BitVec>] {
        &self.components
    }

    /// The non-null bitmap, if the column had nulls.
    pub fn nn(&self) -> Option<&BitVec> {
        self.nn.as_ref()
    }

    /// Total stored bitmaps — `Space(I)` in the paper's space metric.
    pub fn stored_bitmaps(&self) -> u64 {
        self.spec.stored_bitmaps()
    }

    /// Total size of all stored bitmaps in bytes (uncompressed).
    pub fn size_bytes(&self) -> usize {
        self.stored_bitmaps() as usize * self.n_rows.div_ceil(8)
    }

    /// A [`BitmapSource`] view of this index. A fetch is still one bitmap
    /// scan to the cost model, but it shares the index's word buffer —
    /// the bitmaps are frozen at build time, so the `clone()` behind a
    /// fetch is a reference-count bump, not a copy.
    pub fn source(&self) -> MemorySource<'_> {
        MemorySource { index: self }
    }

    /// Appends one row with the given attribute value, extending every
    /// stored bitmap by one bit (the read-mostly maintenance path: DSS
    /// loads append in bulk between query windows). The first append
    /// takes each frozen buffer back, copying it only if an earlier fetch
    /// still shares it (which keeps what it fetched); the index's bitmaps
    /// are plain owned buffers from then on, so later fetches copy.
    ///
    /// Fails if `value` is not representable under the index's base.
    pub fn append(&mut self, value: u32) -> Result<()> {
        let digits = self.spec.base.decompose(value)?;
        for (ci, &digit) in digits.iter().enumerate() {
            let b = self.spec.base.component(ci + 1);
            for (slot, bm) in self.components[ci].iter_mut().enumerate() {
                bm.push(self.spec.encoding.bit_for(b, digit, slot));
            }
        }
        if let Some(nn) = self.nn.as_mut() {
            nn.push(true);
        }
        self.n_rows += 1;
        if u128::from(value) >= u128::from(self.cardinality) {
            self.cardinality = value + 1;
        }
        Ok(())
    }

    /// Appends one row whose attribute value is NULL: the row is absent
    /// from every bitmap and cleared in `B_nn`.
    ///
    /// If the index was built without nulls, a non-null bitmap is
    /// materialized on first use (all previous rows are non-null).
    pub fn append_null(&mut self) {
        for comp in &mut self.components {
            for bm in comp.iter_mut() {
                bm.push(false);
            }
        }
        let nn = self.nn.get_or_insert_with(|| BitVec::ones(self.n_rows));
        nn.push(false);
        self.n_rows += 1;
    }

    /// Exhaustively checks the index invariants against the column it was
    /// built from: every row's digits must be encoded per the scheme, and
    /// null rows must be absent from all bitmaps.
    pub fn verify(&self, column: &Column) -> Result<()> {
        if column.len() != self.n_rows {
            return Err(Error::CorruptIndex(format!(
                "column has {} rows, index has {}",
                column.len(),
                self.n_rows
            )));
        }
        for (rid, &v) in column.values().iter().enumerate() {
            let is_null = self.nn.as_ref().is_some_and(|nn| !nn.get(rid));
            let digits = self.spec.base.decompose(v)?;
            for (ci, &digit) in digits.iter().enumerate() {
                let b = self.spec.base.component(ci + 1);
                let bitmaps = &self.components[ci];
                for (slot, bm) in bitmaps.iter().enumerate() {
                    let expect = !is_null && self.spec.encoding.bit_for(b, digit, slot);
                    if bm.get(rid) != expect {
                        return Err(Error::CorruptIndex(format!(
                            "row {rid} value {v}: component {} slot {slot} is {}, expected {}",
                            ci + 1,
                            bm.get(rid),
                            expect
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Rebuilds stored bitmap `slot` of component `comp` (1-based) by a
/// digit-level scan of the base relation — the last-resort reconstruction
/// path of degraded-mode evaluation and online repair. Rows flagged in
/// `null_mask` are excluded, matching [`BitmapIndex::build_with_nulls`].
///
/// The result is bit-identical to what [`BitmapIndex::build`] would have
/// stored: the same word-level encoder builds it, 64 rows at a time, from
/// a per-value table of [`Encoding::bit_for`](crate::Encoding::bit_for),
/// without needing any surviving bitmap.
pub fn rebuild_slot(
    column: &Column,
    null_mask: Option<&BitVec>,
    spec: &IndexSpec,
    comp: usize,
    slot: usize,
) -> Result<BitVec> {
    if comp == 0 || comp > spec.n_components() || slot >= spec.stored_in_component(comp) as usize {
        return Err(Error::CorruptIndex(format!(
            "cannot rebuild component {comp} slot {slot}: outside the index shape"
        )));
    }
    if let Some(mask) = null_mask {
        if mask.len() != column.len() {
            return Err(Error::CorruptIndex(format!(
                "null mask has {} bits for {} rows",
                mask.len(),
                column.len()
            )));
        }
    }
    let words = encode_slot(column, null_mask, spec, comp, slot)?;
    Ok(BitVec::from_words(words, column.len()))
}

/// Borrowing [`BitmapSource`] over an in-memory [`BitmapIndex`].
pub struct MemorySource<'a> {
    index: &'a BitmapIndex,
}

impl BitmapSource for MemorySource<'_> {
    fn spec(&self) -> &IndexSpec {
        self.index.spec()
    }

    fn n_rows(&self) -> usize {
        self.index.n_rows()
    }

    fn try_fetch(&mut self, comp: usize, slot: usize) -> Result<BitVec> {
        Ok(self.index.bitmap(comp, slot).clone())
    }

    fn try_fetch_nn(&mut self) -> Result<Option<BitVec>> {
        Ok(self.index.nn().cloned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::base::Base;
    use crate::encoding::Encoding;

    /// The 12-record attribute projection of Figure 1 / Figure 3 / Figure 4.
    /// (The OCR drops the actual values; any fixed 12-row, C=9 column
    /// exercises the same structure.)
    fn figure_column() -> Column {
        Column::new(vec![3, 2, 1, 2, 8, 2, 2, 0, 7, 5, 6, 4], 9)
    }

    #[test]
    fn value_list_structure() {
        let col = figure_column();
        let idx = BitmapIndex::build(&col, IndexSpec::value_list(9).unwrap()).unwrap();
        assert_eq!(idx.stored_bitmaps(), 9);
        // Row i has value v iff bitmap v has bit i set, all others clear.
        for (rid, &v) in col.values().iter().enumerate() {
            for slot in 0..9 {
                assert_eq!(idx.bitmap(1, slot).get(rid), slot as u32 == v);
            }
        }
        idx.verify(&col).unwrap();
    }

    #[test]
    fn two_component_equality_structure() {
        let col = figure_column();
        let spec = IndexSpec::new(Base::from_msb(&[3, 3]).unwrap(), Encoding::Equality);
        let idx = BitmapIndex::build(&col, spec).unwrap();
        assert_eq!(idx.stored_bitmaps(), 6);
        // value 7 = <2, 1>: component 2 bitmap 2 and component 1 bitmap 1.
        let rid = 8; // row with value 7
        assert!(idx.bitmap(2, 2).get(rid));
        assert!(idx.bitmap(1, 1).get(rid));
        assert!(!idx.bitmap(1, 0).get(rid));
        idx.verify(&col).unwrap();
    }

    #[test]
    fn range_encoding_structure() {
        let col = figure_column();
        let spec = IndexSpec::new(Base::single(9).unwrap(), Encoding::Range);
        let idx = BitmapIndex::build(&col, spec).unwrap();
        assert_eq!(idx.stored_bitmaps(), 8);
        // B^j has bit set iff value <= j.
        for (rid, &v) in col.values().iter().enumerate() {
            for j in 0..8usize {
                assert_eq!(idx.bitmap(1, j).get(rid), v <= j as u32, "rid {rid} j {j}");
            }
        }
        idx.verify(&col).unwrap();
    }

    #[test]
    fn base2_equality_stores_single_bitmap() {
        let col = Column::new(vec![0, 1, 1, 0, 1], 2);
        let spec = IndexSpec::new(Base::single(2).unwrap(), Encoding::Equality);
        let idx = BitmapIndex::build(&col, spec).unwrap();
        assert_eq!(idx.stored_bitmaps(), 1);
        // stored bitmap is E^1
        assert_eq!(
            idx.bitmap(1, 0).iter_ones().collect::<Vec<_>>(),
            vec![1, 2, 4]
        );
        idx.verify(&col).unwrap();
    }

    #[test]
    fn padded_base_handles_uncovered_tail() {
        // C = 5 but base <2,3> has product 6: values 0..4 must still encode.
        let col = Column::new(vec![4, 0, 3, 2, 1], 5);
        let spec = IndexSpec::new(Base::from_msb(&[2, 3]).unwrap(), Encoding::Range);
        let idx = BitmapIndex::build(&col, spec).unwrap();
        idx.verify(&col).unwrap();
    }

    #[test]
    fn base_too_small_rejected() {
        let col = figure_column();
        let spec = IndexSpec::new(Base::from_msb(&[2, 2]).unwrap(), Encoding::Range);
        assert!(matches!(
            BitmapIndex::build(&col, spec),
            Err(Error::BaseTooSmall { .. })
        ));
    }

    #[test]
    fn nulls_excluded_everywhere() {
        let col = Column::new(vec![3, 2, 1, 2, 8, 2], 9);
        let nulls = BitVec::from_indices(6, &[1, 4]);
        let spec = IndexSpec::new(Base::from_msb(&[3, 3]).unwrap(), Encoding::Range);
        let idx = BitmapIndex::build_with_nulls(&col, &nulls, spec).unwrap();
        for comp in 1..=2 {
            for slot in 0..2 {
                assert!(!idx.bitmap(comp, slot).get(1));
                assert!(!idx.bitmap(comp, slot).get(4));
            }
        }
        assert_eq!(
            idx.nn().unwrap().iter_ones().collect::<Vec<_>>(),
            vec![0, 2, 3, 5]
        );
        idx.verify(&col).unwrap();
    }

    #[test]
    fn verify_detects_corruption() {
        let col = figure_column();
        let mut idx = BitmapIndex::build(&col, IndexSpec::value_list(9).unwrap()).unwrap();
        idx.components[0][0].set(0, true); // row 0 has value 3, not 0
        assert!(idx.verify(&col).is_err());
    }

    #[test]
    fn append_extends_all_bitmaps_consistently() {
        let mut col_values = vec![3u32, 2, 1];
        let col = Column::new(col_values.clone(), 9);
        for encoding in [Encoding::Range, Encoding::Equality] {
            let spec = IndexSpec::new(Base::from_msb(&[3, 3]).unwrap(), encoding);
            let mut idx = BitmapIndex::build(&col, spec).unwrap();
            for v in [8u32, 0, 5, 2] {
                idx.append(v).unwrap();
            }
            col_values = vec![3, 2, 1, 8, 0, 5, 2];
            let grown = Column::new(col_values.clone(), 9);
            assert_eq!(idx.n_rows(), 7);
            idx.verify(&grown).unwrap();
            col_values.truncate(3);
        }
    }

    #[test]
    fn append_rejects_unrepresentable_value() {
        let col = Column::new(vec![0, 1], 2);
        let spec = IndexSpec::new(Base::single(2).unwrap(), Encoding::Range);
        let mut idx = BitmapIndex::build(&col, spec).unwrap();
        assert!(idx.append(2).is_err());
        assert_eq!(idx.n_rows(), 2);
    }

    #[test]
    fn append_null_materializes_nn() {
        let col = Column::new(vec![1, 0, 2], 3);
        let spec = IndexSpec::new(Base::single(3).unwrap(), Encoding::Range);
        let mut idx = BitmapIndex::build(&col, spec).unwrap();
        assert!(idx.nn().is_none());
        idx.append_null();
        idx.append(2).unwrap();
        let nn = idx.nn().unwrap();
        assert_eq!(nn.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2, 4]);
        // Queries must exclude the null row.
        let grown = Column::new(vec![1, 0, 2, 0, 2], 3); // row 3's value is a placeholder
        let q = bindex_relation::query::SelectionQuery::new(bindex_relation::query::Op::Ge, 0);
        let (found, _) =
            crate::eval::evaluate(&mut idx.source(), q, crate::eval::Algorithm::Auto).unwrap();
        assert_eq!(found.iter_ones().collect::<Vec<_>>(), vec![0, 1, 2, 4]);
        let _ = grown;
    }

    #[test]
    fn fetches_share_the_index_buffers() {
        let col = Column::new(vec![3, 2, 1, 2, 8, 2], 9);
        let nulls = BitVec::from_indices(6, &[1, 4]);
        let spec = IndexSpec::new(Base::from_msb(&[3, 3]).unwrap(), Encoding::Range);
        let idx = BitmapIndex::build_with_nulls(&col, &nulls, spec).unwrap();
        let mut src = idx.source();
        for comp in 1..=2 {
            for slot in 0..2 {
                let stored = idx.bitmap(comp, slot).words().as_ptr();
                for _ in 0..2 {
                    let fetched = src.try_fetch(comp, slot).unwrap();
                    assert_eq!(fetched.words().as_ptr(), stored, "c{comp} b{slot}");
                }
            }
        }
        let nn = src.try_fetch_nn().unwrap().unwrap();
        assert_eq!(nn.words().as_ptr(), idx.nn().unwrap().words().as_ptr());
        // Through the executor too: the cached operand is the index's buffer.
        let mut ctx = crate::exec::ExecContext::new(&mut src);
        let operand = ctx.fetch(2, 1).unwrap();
        assert_eq!(operand.words().as_ptr(), idx.bitmap(2, 1).words().as_ptr());
        let nn = ctx.fetch_nn().unwrap().unwrap();
        assert_eq!(nn.words().as_ptr(), idx.nn().unwrap().words().as_ptr());
    }

    #[test]
    fn append_after_fetch_leaves_the_fetched_bitmaps_untouched() {
        let col = Column::new(vec![3, 2, 1, 2, 8, 2], 9);
        let nulls = BitVec::from_indices(6, &[1]);
        let spec = IndexSpec::new(Base::from_msb(&[3, 3]).unwrap(), Encoding::Range);
        let mut idx = BitmapIndex::build_with_nulls(&col, &nulls, spec).unwrap();
        let before = idx.clone();
        let fetched = idx.source().try_fetch(1, 1).unwrap();
        let fetched_nn = idx.source().try_fetch_nn().unwrap().unwrap();
        let (ptr, nn_ptr) = (fetched.words().as_ptr(), fetched_nn.words().as_ptr());

        idx.append(0).unwrap();
        idx.append_null();

        // The held fetches (and the cloned index) still read the old rows
        // from the old buffers; the index thawed into buffers of its own.
        assert_eq!(fetched.words().as_ptr(), ptr);
        assert_eq!(fetched_nn.words().as_ptr(), nn_ptr);
        assert_eq!(&fetched, before.bitmap(1, 1));
        assert_eq!(&fetched_nn, before.nn().unwrap());
        assert_eq!(fetched.len(), 6);
        assert_ne!(idx.bitmap(1, 1).words().as_ptr(), ptr);
        assert_eq!(idx.bitmap(1, 1).len(), 8);
        idx.verify(&Column::new(vec![3, 2, 1, 2, 8, 2, 0, 0], 9))
            .unwrap();
        before.verify(&col).unwrap();
    }

    #[test]
    fn memory_source_fetches() {
        let col = figure_column();
        let idx = BitmapIndex::build(&col, IndexSpec::value_list(9).unwrap()).unwrap();
        let mut src = idx.source();
        assert_eq!(src.try_fetch(1, 2).unwrap(), *idx.bitmap(1, 2));
        assert_eq!(src.n_rows(), 12);
        assert!(src.try_fetch_nn().unwrap().is_none());
    }
}
