//! Glue between the logical index ([`bindex_core`]) and physical storage
//! ([`bindex_storage`]): [`SharedSource`], the one [`BitmapSource`] that
//! reads bitmaps from a [`StoredIndex`] — through a [`SharedIndexReader`]'s
//! pool when there is one, straight from the index when there is not.
//!
//! This is what the Section 9 experiments evaluate queries through: the
//! same evaluation algorithms, but every `fetch` is a real file read (and
//! decompression, for the `c*`-schemes), with byte-level I/O accounting.
//! Storage failures surface as typed [`Error`]s on the query path —
//! checksum mismatches as [`Error::ChecksumMismatch`], other store
//! failures as [`Error::Storage`] — never as panics.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use bindex_bitvec::{BitVec, IndexSummaries};
use bindex_compress::Repr;
use bindex_core::{BitmapIndex, BitmapSource, Error, ExecContext, IndexSpec, RecoveryPolicy};
use bindex_relation::Column;
use bindex_storage::{
    ByteStore, RepairReport, SharedIndexReader, StorageError, StorageScheme, StoredIndex,
};

/// The one mapping of a storage-layer error onto the core error type:
/// a checksum mismatch stays [`Error::ChecksumMismatch`] — the fault the
/// recovery policies and a server's circuit breaker act on — and every
/// other store failure is [`Error::Storage`].
pub fn storage_error(e: StorageError) -> Error {
    match e {
        StorageError::ChecksumMismatch { .. } => Error::ChecksumMismatch(e.to_string()),
        other => Error::Storage(other.to_string()),
    }
}

/// Checks that `spec` describes the layout `index` was written with; a
/// mismatch against the stored metadata is [`Error::CorruptIndex`].
pub(crate) fn check_layout<S: ByteStore>(
    index: &StoredIndex<S>,
    spec: &IndexSpec,
) -> Result<(), Error> {
    let expect = || (1..=spec.n_components()).map(|i| spec.stored_in_component(i));
    let stored = &index.meta().bitmaps_per_component;
    if !stored.iter().copied().eq(expect()) {
        let expect: Vec<u32> = expect().collect();
        return Err(Error::CorruptIndex(format!(
            "stored layout does not match the index spec: store holds {:?} bitmaps per \
             component, spec expects {:?}",
            stored, expect
        )));
    }
    Ok(())
}

/// The [`BitmapSource`] over a stored index. `Send + Sync`, and every read
/// is a `&self` read of the [`StoredIndex`], so the parallel batch engine
/// builds one per worker thread over the same index. Built over a
/// [`SharedIndexReader`] ([`SharedSource::try_new`]) fetches go through
/// the reader's sharded cache; built over a bare index
/// ([`SharedSource::try_unpooled`]) every fetch is a store read. Either
/// way the I/O is accounted in the index's own atomic counters
/// ([`StoredIndex::stats`]).
pub struct SharedSource<'a, S: ByteStore> {
    index: &'a StoredIndex<S>,
    /// The reader whose pool serves the fetches; `None` over a bare index.
    reader: Option<&'a SharedIndexReader<S>>,
    /// Borrowed from its owner (a served index's, per query), or owned.
    spec: Cow<'a, IndexSpec>,
    nn: Option<Repr>,
}

impl<'a, S: ByteStore> SharedSource<'a, S> {
    /// Wraps a shared reader. `spec` (an `&IndexSpec` or an `IndexSpec`)
    /// must describe the layout the index was written with; a mismatch
    /// against the stored metadata is reported as [`Error::CorruptIndex`].
    pub fn try_new(
        reader: &'a SharedIndexReader<S>,
        spec: impl Into<Cow<'a, IndexSpec>>,
    ) -> Result<Self, Error> {
        let mut source = Self::try_unpooled(reader.index(), spec)?;
        source.reader = Some(reader);
        Ok(source)
    }

    /// Wraps a stored index directly, with no cache in front of it. Same
    /// `spec` check as [`SharedSource::try_new`].
    pub fn try_unpooled(
        index: &'a StoredIndex<S>,
        spec: impl Into<Cow<'a, IndexSpec>>,
    ) -> Result<Self, Error> {
        let spec = spec.into();
        check_layout(index, &spec)?;
        Ok(Self {
            index,
            reader: None,
            spec,
            nn: None,
        })
    }

    /// Attaches a non-null bitmap (columns with nulls): a [`BitVec`], or
    /// the shared handle [`SharedIndexReader::read_nn_repr`] returns, which
    /// may still be compressed. Every query's `B_nn` fetch shares it.
    pub fn with_nn(mut self, nn: impl Into<Repr>) -> Self {
        self.nn = Some(nn.into());
        self
    }
}

impl<S: ByteStore> BitmapSource for SharedSource<'_, S> {
    fn spec(&self) -> &IndexSpec {
        &self.spec
    }

    fn n_rows(&self) -> usize {
        self.index.meta().n_rows
    }

    fn try_fetch(&mut self, comp: usize, slot: usize) -> Result<BitVec, Error> {
        match self.reader {
            Some(reader) => reader.read_bitmap(comp, slot),
            None => self.index.read_bitmap(comp, slot),
        }
        .map_err(storage_error)
    }

    fn try_fetch_nn(&mut self) -> Result<Option<BitVec>, Error> {
        Ok(self
            .nn
            .as_ref()
            .map(|nn| Arc::unwrap_or_clone(nn.to_bitvec())))
    }

    fn try_fetch_nn_repr(&mut self) -> Result<Option<Repr>, Error> {
        Ok(self.nn.clone())
    }

    fn try_fetch_repr(&mut self, comp: usize, slot: usize) -> Result<Repr, Error> {
        match self.reader {
            Some(reader) => reader.read_repr(comp, slot),
            None => self.index.read_repr(comp, slot),
        }
        .map_err(storage_error)
    }

    fn try_fetch_summary(&mut self) -> Option<Arc<IndexSummaries>> {
        self.index.read_summaries()
    }
}

/// Writes an in-memory [`BitmapIndex`] — its bitmaps and, for a column
/// with nulls, its non-null bitmap — into `store` as one of the paper's
/// layouts: under `scheme`, each file compressed with `codec`. Returns the
/// stored index ready for [`SharedSource`].
pub fn persist_index<S: ByteStore>(
    index: &BitmapIndex,
    store: S,
    scheme: StorageScheme,
    codec: bindex_compress::CodecKind,
) -> Result<StoredIndex<S>, StorageError> {
    StoredIndex::create(store, index.components(), index.nn(), scheme, codec)
}

/// Writes an in-memory [`BitmapIndex`] — its bitmaps and, for a column
/// with nulls, its non-null bitmap — into `store` in the current format:
/// bitmap-level files coded per slot (sparse slots are kept
/// WAH-compressed and served to the executor without decompression, dense
/// ones fall back to `codec`-compressed bytes) plus a checksummed summary
/// block (an any-bit and an all-bit per [`SUMMARY_WINDOW_BITS`] window per
/// slot). Segmented execution consults the summaries *before* fetching a
/// slot and serves provably-constant windows without the file read, the
/// pool admission, or the WAH decode.
///
/// [`SUMMARY_WINDOW_BITS`]: bindex_bitvec::SUMMARY_WINDOW_BITS
pub fn persist_index_v4<S: ByteStore>(
    index: &BitmapIndex,
    store: S,
    codec: bindex_compress::CodecKind,
) -> Result<StoredIndex<S>, StorageError> {
    StoredIndex::create_v4(store, index.components(), index.nn(), codec)
}

/// The one rule for recovery inputs: the `column` that reconstruction
/// scans and the `null_mask` that repair masks with must each cover the
/// stored index's `n_rows` rows exactly, since one of another length would
/// rebuild a slot of another length, which no kernel may meet. Another
/// length is [`Error::Infeasible`].
pub fn check_recovery_inputs(
    n_rows: usize,
    column: Option<&Column>,
    null_mask: Option<&BitVec>,
) -> Result<(), Error> {
    let lengths = [
        ("column", column.map(Column::len)),
        ("null mask", null_mask.map(BitVec::len)),
    ];
    for (what, len) in lengths {
        if let Some(len) = len.filter(|&len| len != n_rows) {
            return Err(Error::Infeasible(format!(
                "recovery {what} has {len} rows, the stored index has {n_rows}"
            )));
        }
    }
    Ok(())
}

/// Online repair of a damaged stored index: scrubs the store, asks the
/// degraded-read path ([`ExecContext::fetch`], under
/// [`RecoveryPolicy::ReconstructOrScan`] when there is a `column`, else
/// `Reconstruct`) for every bitmap a corrupt file held, and drives
/// [`StoredIndex::scrub_and_repair`] to rewrite the files and journal the
/// repairs — so a repaired file is the one a degraded query would read.
///
/// `spec` must be the layout the index was written with; `null_mask`
/// flags null rows exactly as [`BitmapIndex::build_with_nulls`] took it
/// (deleted rows included, once a compaction stored them as nulls). A
/// `column` or mask of another row count is [`Error::Infeasible`] before
/// anything is read. `B_nn` is the mask's complement, else the stored one
/// if it reads clean; a store with nulls and neither leaves its lost slots
/// unrepaired, never rebuilt unmasked. A corrupt non-null bitmap needs the
/// mask and nothing else.
pub fn scrub_and_repair_index<S: ByteStore>(
    stored: &mut StoredIndex<S>,
    spec: &IndexSpec,
    column: Option<&Column>,
    null_mask: Option<&BitVec>,
) -> Result<RepairReport, Error> {
    check_recovery_inputs(stored.meta().n_rows, column, null_mask)?;
    let pre = stored.scrub().map_err(storage_error)?;
    let nn = null_mask.map(BitVec::complement);
    // Rebuild before repairing, while the store still reads slot by slot;
    // a store with nulls never has a slot rebuilt without `B_nn`.
    let lost: Vec<(usize, usize)> = pre
        .failures
        .iter()
        .flat_map(|failure| stored.file_slots(&failure.file))
        .collect();
    let b_nn = match &nn {
        Some(nn) => Some(Repr::literal(nn.clone())),
        None if lost.is_empty() => None,
        None => stored.read_nn_repr().ok().flatten(),
    };
    let mut fixes = HashMap::new();
    if !lost.is_empty() && (b_nn.is_some() || !stored.meta().has_nn) {
        let mut source = SharedSource::try_unpooled(stored, spec)?;
        source.nn = b_nn;
        let recovery = match column {
            Some(column) => RecoveryPolicy::ReconstructOrScan(Arc::new(column.clone())),
            None => RecoveryPolicy::Reconstruct,
        };
        let mut ctx = ExecContext::new(&mut source).with_recovery(recovery);
        for (comp, slot) in lost {
            if let Ok(bm) = ctx.fetch(comp, slot) {
                fixes.insert((comp, slot), bm);
            }
        }
    }
    let nn = nn.filter(|_| stored.meta().has_nn);
    stored
        .scrub_and_repair(
            |comp, slot| fixes.remove(&(comp, slot)).map(Arc::unwrap_or_clone),
            nn.as_ref(),
        )
        .map_err(storage_error)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bindex_compress::CodecKind;
    use bindex_core::eval::{evaluate, Algorithm};
    use bindex_core::{Base, Encoding};
    use bindex_relation::query::full_space;
    use bindex_relation::{gen, Column};
    use bindex_storage::{format, MemStore, ShardedPool};

    fn column() -> Column {
        gen::uniform(500, 20, 42)
    }

    fn check(scheme: StorageScheme, codec: CodecKind, encoding: Encoding) {
        let col = column();
        let spec = IndexSpec::new(Base::from_msb(&[4, 5]).unwrap(), encoding);
        let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
        let stored = persist_index(&idx, MemStore::new(), scheme, codec).unwrap();
        let mut src = SharedSource::try_unpooled(&stored, spec).unwrap();
        for q in full_space(20) {
            let (got, _) = evaluate(&mut src, q, Algorithm::Auto).unwrap();
            let want = bindex_core::eval::naive::evaluate(&col, q);
            assert_eq!(got, want, "{scheme:?}/{codec:?}/{encoding:?} {q}");
        }
    }

    #[test]
    fn evaluation_through_all_layouts() {
        for scheme in [
            StorageScheme::BitmapLevel,
            StorageScheme::ComponentLevel,
            StorageScheme::IndexLevel,
        ] {
            for codec in [CodecKind::None, CodecKind::Deflate] {
                check(scheme, codec, Encoding::Range);
                check(scheme, codec, Encoding::Equality);
            }
        }
    }

    #[test]
    fn v3_evaluation_matches_naive_for_all_encodings_and_codecs() {
        let col = column();
        for codec in [CodecKind::None, CodecKind::Rle, CodecKind::Deflate] {
            for encoding in [Encoding::Equality, Encoding::Range, Encoding::Interval] {
                let spec = IndexSpec::new(Base::from_msb(&[4, 5]).unwrap(), encoding);
                let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
                let stored = persist_index_v4(&idx, MemStore::new(), codec).unwrap();
                assert_eq!(stored.format_version(), 4);
                let mut src = SharedSource::try_unpooled(&stored, spec).unwrap();
                for q in full_space(20) {
                    let (got, _) = evaluate(&mut src, q, Algorithm::Auto).unwrap();
                    let want = bindex_core::eval::naive::evaluate(&col, q);
                    assert_eq!(got, want, "{codec:?}/{encoding:?} {q}");
                }
            }
        }
    }

    #[test]
    fn v3_repair_keeps_answers_identical() {
        let col = column();
        let spec = IndexSpec::new(Base::single(20).unwrap(), Encoding::Equality);
        let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
        let stored = persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap();
        let (mut stored, victim) = corrupt_first_data_file(stored, ".bmp");

        let report = scrub_and_repair_index(&mut stored, &spec, None, None).unwrap();
        assert!(report.fully_repaired(), "{report:?}");
        assert!(report.repaired.contains(&victim), "{report:?}");
        assert!(stored.scrub().unwrap().is_clean());
        let mut src = SharedSource::try_unpooled(&stored, spec).unwrap();
        for q in full_space(20) {
            let (got, _) = evaluate(&mut src, q, Algorithm::Auto).unwrap();
            assert_eq!(got, bindex_core::eval::naive::evaluate(&col, q), "{q}");
        }
    }

    #[test]
    fn v3_pooled_source_serves_compressed_reprs() {
        // A clustered equality index (sorted column → run-shaped slots):
        // every slot passes the 4× storage heuristic, is stored WAH, and
        // stays compressed through the pooled repr path.
        let values: Vec<u32> = (0..8192).map(|i| (i * 64 / 8192) as u32).collect();
        let col = Column::new(values, 64);
        let spec = IndexSpec::new(Base::single(64).unwrap(), Encoding::Equality);
        let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
        let stored = persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap();
        let reader =
            SharedIndexReader::with_pool(stored, ShardedPool::with_byte_budget(1 << 20, 1));
        let mut src = SharedSource::try_new(&reader, spec).unwrap();
        let repr = bindex_core::BitmapSource::try_fetch_repr(&mut src, 1, 3).unwrap();
        assert!(repr.is_compressed(), "sparse slot must arrive as WAH");
        // Second fetch is a pool hit and preserves the representation.
        let again = bindex_core::BitmapSource::try_fetch_repr(&mut src, 1, 3).unwrap();
        assert!(again.is_compressed());
        assert_eq!(reader.pool_stats().unwrap().hits, 1);
        assert_eq!(*repr.to_bitvec(), idx.components()[0][3]);
    }

    #[test]
    fn pooled_fetches_hit_after_first_read() {
        let col = column();
        let spec = IndexSpec::new(Base::from_msb(&[4, 5]).unwrap(), Encoding::Range);
        let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
        let stored = persist_index(
            &idx,
            MemStore::new(),
            StorageScheme::BitmapLevel,
            CodecKind::None,
        )
        .unwrap();
        let reader = SharedIndexReader::with_pool(stored, ShardedPool::new(16, 1));
        let mut src = SharedSource::try_new(&reader, spec).unwrap();
        let q = bindex_relation::query::SelectionQuery::new(bindex_relation::query::Op::Le, 7);
        let _ = evaluate(&mut src, q, Algorithm::Auto).unwrap();
        let _ = evaluate(&mut src, q, Algorithm::Auto).unwrap();
        let stats = reader.pool_stats().unwrap();
        assert!(stats.hits >= stats.misses, "{stats:?}");
        // second pass reads nothing from storage
        assert_eq!(reader.stats().reads, stats.misses);
    }

    #[test]
    fn shared_source_evaluates_concurrently() {
        use bindex_engine::batch::{evaluate_selection_workload, BatchOptions};

        let col = column();
        let spec = IndexSpec::new(Base::from_msb(&[4, 5]).unwrap(), Encoding::Range);
        let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
        let stored = persist_index(
            &idx,
            MemStore::new(),
            StorageScheme::BitmapLevel,
            CodecKind::Deflate,
        )
        .unwrap();
        let reader = SharedIndexReader::with_pool(stored, ShardedPool::new(32, 4));
        let queries = full_space(20);
        let results = evaluate_selection_workload(
            || SharedSource::try_new(&reader, &spec).expect("spec matches"),
            &queries,
            Algorithm::Auto,
            &BatchOptions::with_threads(4),
        )
        .into_results()
        .unwrap();
        for (q, (found, _)) in queries.iter().zip(&results) {
            let want = bindex_core::eval::naive::evaluate(&col, *q);
            assert_eq!(found, &want, "{q}");
        }
        // The cache means each distinct bitmap is read from storage once.
        let io = reader.stats();
        assert!(io.reads <= reader.meta().total_bitmaps());
        let pool = reader.pool_stats().unwrap();
        assert!(pool.hits > 0, "repeated fetches must hit the cache");
    }

    #[test]
    fn shared_source_spec_mismatch_is_a_typed_error() {
        let col = column();
        let spec = IndexSpec::new(Base::from_msb(&[4, 5]).unwrap(), Encoding::Range);
        let idx = BitmapIndex::build(&col, spec).unwrap();
        let stored = persist_index(
            &idx,
            MemStore::new(),
            StorageScheme::BitmapLevel,
            CodecKind::None,
        )
        .unwrap();
        let reader = SharedIndexReader::new(stored);
        let wrong = IndexSpec::new(Base::from_msb(&[5, 4]).unwrap(), Encoding::Range);
        assert!(matches!(
            SharedSource::try_new(&reader, wrong),
            Err(Error::CorruptIndex(_))
        ));
    }

    #[test]
    fn v4_store_serves_summaries_and_identical_answers() {
        let col = column();
        for encoding in [Encoding::Equality, Encoding::Range, Encoding::Interval] {
            let spec = IndexSpec::new(Base::from_msb(&[4, 5]).unwrap(), encoding);
            let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
            let stored = persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap();
            assert_eq!(stored.format_version(), 4);
            let mut src = SharedSource::try_unpooled(&stored, spec).unwrap();
            let summaries =
                bindex_core::BitmapSource::try_fetch_summary(&mut src).expect("v4 has summaries");
            assert_eq!(summaries.n_rows(), col.len());
            for q in full_space(20) {
                let (got, _) = evaluate(&mut src, q, Algorithm::Auto).unwrap();
                let want = bindex_core::eval::naive::evaluate(&col, q);
                assert_eq!(got, want, "v4/{encoding:?} {q}");
            }
        }
    }

    /// A store written before the summary block existed (a `version=3`
    /// manifest, no block) serves through the same source, unpruned.
    #[test]
    fn v3_store_has_no_summaries() {
        let col = column();
        let spec = IndexSpec::new(Base::from_msb(&[4, 5]).unwrap(), Encoding::Range);
        let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
        let mut store = persist_index_v4(&idx, MemStore::new(), CodecKind::None)
            .unwrap()
            .into_store();
        let manifest = store.read_file("manifest.bixm").unwrap();
        let text = format::unframe("manifest.bixm", &manifest).unwrap();
        let v3 = String::from_utf8_lossy(text).replace("version=4", "version=3");
        store
            .write_file("manifest.bixm", &format::frame(v3.as_bytes()))
            .unwrap();
        store.remove_file("summary.bxs").unwrap();
        let stored = StoredIndex::open(store).unwrap();
        assert_eq!(stored.format_version(), 3);
        let mut src = SharedSource::try_unpooled(&stored, spec).unwrap();
        assert!(bindex_core::BitmapSource::try_fetch_summary(&mut src).is_none());
        for q in full_space(20) {
            let (got, _) = evaluate(&mut src, q, Algorithm::Auto).unwrap();
            assert_eq!(got, bindex_core::eval::naive::evaluate(&col, q), "{q}");
        }
    }

    /// Flips one payload byte of the first data file matching `pattern`
    /// behind the index's back, then reopens the store.
    fn corrupt_first_data_file(
        stored: StoredIndex<MemStore>,
        pattern: &str,
    ) -> (StoredIndex<MemStore>, String) {
        let mut store = stored.into_store();
        let mut names = store.file_names().unwrap();
        names.sort();
        let victim = names
            .iter()
            .find(|n| n.contains(pattern))
            .expect("a data file to corrupt")
            .clone();
        let mut bytes = store.read_file(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        store.write_file(&victim, &bytes).unwrap();
        (StoredIndex::open(store).unwrap(), victim)
    }

    #[test]
    fn repair_from_siblings_needs_no_column() {
        let col = column();
        let spec = IndexSpec::new(Base::single(20).unwrap(), Encoding::Equality);
        let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
        let stored = persist_index(
            &idx,
            MemStore::new(),
            StorageScheme::BitmapLevel,
            CodecKind::None,
        )
        .unwrap();
        let (mut stored, victim) = corrupt_first_data_file(stored, ".bmp");

        let report = scrub_and_repair_index(&mut stored, &spec, None, None).unwrap();
        assert!(report.fully_repaired(), "{report:?}");
        assert!(report.repaired.contains(&victim), "{report:?}");
        assert!(stored.scrub().unwrap().is_clean());
        let mut src = SharedSource::try_unpooled(&stored, spec).unwrap();
        for q in full_space(20) {
            let (got, _) = evaluate(&mut src, q, Algorithm::Auto).unwrap();
            assert_eq!(got, bindex_core::eval::naive::evaluate(&col, q), "{q}");
        }
    }

    /// Equality over base <5,6>, 1,500 rows, every 7th row null.
    fn nullable_index() -> (Column, IndexSpec, BitmapIndex) {
        let col = gen::uniform(1500, 30, 5);
        let nulls = BitVec::from_fn(1500, |i| i % 7 == 0);
        let spec = IndexSpec::new(Base::from_msb(&[5, 6]).unwrap(), Encoding::Equality);
        let idx = BitmapIndex::build_with_nulls(&col, &nulls, spec.clone()).unwrap();
        (col, spec, idx)
    }

    /// The bytes of every file of the store, by name.
    fn files(stored: &StoredIndex<MemStore>) -> Vec<Vec<u8>> {
        let mut names = stored.store().file_names().unwrap();
        names.sort();
        names
            .iter()
            .map(|n| stored.store().read_file(n).unwrap())
            .collect()
    }

    #[test]
    fn repair_masks_null_rows_with_the_stored_nn() {
        let (col, spec, idx) = nullable_index();
        let bs = StorageScheme::BitmapLevel;
        // With the column, a second lost sibling sends slot 2 to the scan.
        for (column, victims) in [(None, &["c1_b2"][..]), (Some(&col), &["c1_b2", "c1_b3"])] {
            let bs_store = persist_index(&idx, MemStore::new(), bs, CodecKind::None);
            let v4_store = persist_index_v4(&idx, MemStore::new(), CodecKind::None);
            for mut stored in [bs_store.unwrap(), v4_store.unwrap()] {
                for victim in victims {
                    stored = corrupt_first_data_file(stored, &format!("{victim}.bmp")).0;
                }
                let report = scrub_and_repair_index(&mut stored, &spec, column, None).unwrap();
                let at = format!("v{} {victims:?}", stored.format_version());
                assert!(report.fully_repaired(), "{at}: {report:?}");
                for (slot, want) in idx.components()[0].iter().enumerate() {
                    assert_eq!(&stored.read_bitmap(1, slot).unwrap(), want, "{at}: {slot}");
                }
            }
        }
    }

    #[test]
    fn repair_without_a_readable_nn_or_a_mask_rewrites_nothing() {
        let (_, spec, idx) = nullable_index();
        let stored = persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap();
        let (stored, _) = corrupt_first_data_file(stored, "nn.bmp");
        let (mut stored, _) = corrupt_first_data_file(stored, "c1_b2.bmp");
        let before = files(&stored);
        let report = scrub_and_repair_index(&mut stored, &spec, None, None).unwrap();
        assert!(report.repaired.is_empty(), "{report:?}");
        let unrepaired: Vec<&str> = report.unrepaired.iter().map(|f| f.file.as_str()).collect();
        assert_eq!(unrepaired, ["c1_b2.bmp", "nn.bmp"]);
        assert_eq!(files(&stored), before);
    }

    #[test]
    fn recovery_inputs_of_another_length_are_infeasible() {
        let (col, spec, idx) = nullable_index();
        let bs = StorageScheme::BitmapLevel;
        let stored = persist_index(&idx, MemStore::new(), bs, CodecKind::None).unwrap();
        let (mut stored, _) = corrupt_first_data_file(stored, "c1_b2.bmp");
        let before = files(&stored);
        let short_mask = BitVec::zeros(1499);
        let short_column = Column::new(col.values()[..1499].to_vec(), 30);
        for (column, mask) in [(None, Some(&short_mask)), (Some(&short_column), None)] {
            let got = scrub_and_repair_index(&mut stored, &spec, column, mask);
            assert!(matches!(got, Err(Error::Infeasible(_))), "{got:?}");
        }
        assert_eq!(files(&stored), before);
    }

    #[test]
    fn repair_from_column_covers_every_scheme_and_encoding() {
        for scheme in [
            StorageScheme::BitmapLevel,
            StorageScheme::ComponentLevel,
            StorageScheme::IndexLevel,
        ] {
            for encoding in [Encoding::Equality, Encoding::Range, Encoding::Interval] {
                let col = column();
                let spec = IndexSpec::new(Base::from_msb(&[4, 5]).unwrap(), encoding);
                let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
                let stored = persist_index(&idx, MemStore::new(), scheme, CodecKind::None).unwrap();
                let pattern = match scheme {
                    StorageScheme::BitmapLevel => ".bmp",
                    StorageScheme::ComponentLevel => ".cmp",
                    StorageScheme::IndexLevel => "index.bix",
                };
                let (mut stored, _) = corrupt_first_data_file(stored, pattern);

                let report = scrub_and_repair_index(&mut stored, &spec, Some(&col), None).unwrap();
                assert!(
                    report.fully_repaired(),
                    "{scheme:?}/{encoding:?} {report:?}"
                );
                assert!(
                    stored.scrub().unwrap().is_clean(),
                    "{scheme:?}/{encoding:?}"
                );
                let mut src = SharedSource::try_unpooled(&stored, spec).unwrap();
                for q in full_space(20) {
                    let (got, _) = evaluate(&mut src, q, Algorithm::Auto).unwrap();
                    let want = bindex_core::eval::naive::evaluate(&col, q);
                    assert_eq!(got, want, "{scheme:?}/{encoding:?} {q}");
                }
            }
        }
    }

    #[test]
    fn repair_without_any_source_reports_unrepaired() {
        let col = column();
        // Components are stored lsb-first, so component 2 has base 2: a
        // single stored slot, no sibling identity — and no column given.
        let spec = IndexSpec::new(Base::from_msb(&[2, 2, 5]).unwrap(), Encoding::Equality);
        let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
        let stored = persist_index(
            &idx,
            MemStore::new(),
            StorageScheme::BitmapLevel,
            CodecKind::None,
        )
        .unwrap();
        let (mut stored, victim) = corrupt_first_data_file(stored, "c2_b0.bmp");

        let report = scrub_and_repair_index(&mut stored, &spec, None, None).unwrap();
        assert!(!report.fully_repaired());
        assert_eq!(report.unrepaired.len(), 1, "{report:?}");
        assert_eq!(report.unrepaired[0].file, victim);
    }

    #[test]
    fn spec_mismatch_is_a_typed_error() {
        let col = column();
        let spec = IndexSpec::new(Base::from_msb(&[4, 5]).unwrap(), Encoding::Range);
        let idx = BitmapIndex::build(&col, spec).unwrap();
        let stored = persist_index(
            &idx,
            MemStore::new(),
            StorageScheme::BitmapLevel,
            CodecKind::None,
        )
        .unwrap();
        let wrong = IndexSpec::new(Base::from_msb(&[5, 4]).unwrap(), Encoding::Range);
        match SharedSource::try_unpooled(&stored, wrong) {
            Err(Error::CorruptIndex(msg)) => assert!(msg.contains("does not match"), "{msg}"),
            other => panic!("expected CorruptIndex, got {:?}", other.err()),
        }
    }
}
