//! Crash-consistent streaming ingest: a WAL-backed delta segment in
//! front of a [`StoredIndex`], with atomic compaction.
//!
//! An [`IngestIndex`] absorbs append and delete batches into an
//! in-memory delta (uncompressed equality/range bitmaps plus a
//! deleted-rows mask) while logging every batch to a CRC32-framed
//! write-ahead log ([`bindex_storage::wal`]) *before* applying it. A
//! batch is **acknowledged** ([`IngestAck::durable`]) only once its
//! record is appended *and* fsynced, so an acknowledged batch survives
//! any crash: reopening replays the WAL's valid prefix and reconstructs
//! the exact delta state. Fsyncs can be batched (group commit) with
//! [`IngestOptions::with_fsync_interval`],
//! trading bounded staleness of the acknowledgement for throughput —
//! never correctness: an unsynced batch is simply not yet acknowledged.
//!
//! Queries merge base ⊕ delta through the ordinary evaluation machinery:
//! [`IngestIndex::overlay`] snapshots the delta as a
//! [`DeltaOverlay`] for [`ExecContext::with_overlay`] or
//! `BatchOptions::with_overlay`, leaving all five evaluators bit-exact
//! (deleted rows are treated as nulls).
//!
//! [`IngestIndex::compact`] appends the delta to every base bitmap in the
//! form it is stored in — a WAH slot in the run domain, never decoded —
//! and writes the result as a fresh storage generation via
//! [`StoredIndex::install_generation`]: new
//! files first, then one atomic manifest swap as the commit point, then
//! best-effort cleanup. A crash at *any* byte of compaction leaves
//! either the old generation (WAL intact, delta replayed on reopen) or
//! the new one (WAL covered by `wal_applied`, replay skips it) — never
//! a torn mix. [`IngestOptions::with_delta_max_rows`] bounds the delta and
//! triggers compaction automatically from [`IngestIndex::commit`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use bindex_bitvec::kernels::{Fold, FoldStep};
use bindex_bitvec::BitVec;
use bindex_compress::wah::{self, WahBitmap};
use bindex_compress::Repr;
use bindex_core::eval::evaluate_in;
use bindex_core::{Algorithm, BitmapIndex, DeltaOverlay, Error, EvalStats, ExecContext, IndexSpec};
use bindex_relation::query::SelectionQuery;
use bindex_relation::Column;
use bindex_storage::wal::{self, WalOp};
use bindex_storage::{ByteStore, StoredIndex};

use crate::stored::{check_layout, storage_error, SharedSource};

/// Tuning knobs for an [`IngestIndex`].
#[derive(Debug, Clone, Default)]
pub struct IngestOptions {
    fsync_interval: Option<Duration>,
    delta_max_rows: Option<usize>,
}

impl IngestOptions {
    /// Defaults: fsync every commit, no automatic compaction.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the group-commit window; `None` fsyncs every commit, so every
    /// ack is immediate. Commits inside a window come back with
    /// [`IngestAck::durable`] `false` until the next sync.
    pub fn with_fsync_interval(mut self, interval: Option<Duration>) -> Self {
        self.fsync_interval = interval;
        self
    }

    /// Sets the delta row cap that triggers automatic compaction; `None`
    /// leaves compaction manual.
    pub fn with_delta_max_rows(mut self, max: Option<usize>) -> Self {
        self.delta_max_rows = max;
        self
    }

    /// The group-commit window, if any.
    pub fn fsync_interval(&self) -> Option<Duration> {
        self.fsync_interval
    }

    /// The automatic-compaction row cap, if any.
    pub fn delta_max_rows(&self) -> Option<usize> {
        self.delta_max_rows
    }
}

/// What [`IngestIndex::commit`] returns for a logged batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestAck {
    /// The batch's WAL sequence number.
    pub seq: u64,
    /// `true` once the batch's record is fsynced — the durability
    /// acknowledgement. Under group commit a recent batch may come back
    /// `false`; it becomes durable at the next sync ([`IngestIndex::flush`]
    /// forces one).
    pub durable: bool,
    /// The new storage generation, when this commit tripped the
    /// [`IngestOptions::with_delta_max_rows`] cap and compacted.
    pub compacted: Option<u64>,
}

/// A [`StoredIndex`] with a crash-consistent append path: WAL-logged
/// delta segment, overlay queries, atomic compaction.
///
/// Borrows the stored index for the session's lifetime, so an owner that
/// must keep serving reads between sessions (e.g. `bindex-server`'s
/// `SharedIndexReader`) can open one, commit, compact, and drop it
/// without giving up the index.
pub struct IngestIndex<'a, S: ByteStore> {
    stored: &'a mut StoredIndex<S>,
    spec: IndexSpec,
    cardinality: u32,
    options: IngestOptions,
    /// Sequence number the next committed batch gets.
    next_seq: u64,
    /// Highest fsync-acknowledged sequence number.
    durable_seq: u64,
    /// Rows covered by the stored base generation.
    base_rows: usize,
    /// The delta segment as an incrementally maintained [`BitmapIndex`]
    /// (empty between compactions): each applied batch appends straight
    /// into the delta bitmaps, so snapshotting an overlay never re-encodes
    /// the whole delta the way the old rebuild-per-snapshot path did.
    delta: BitmapIndex,
    /// Monotonic version, bumped by every applied batch and compaction;
    /// tags overlay snapshots so [`IngestIndex::overlay`] reuses one
    /// snapshot across queries until the delta actually changes.
    delta_version: u64,
    /// Deleted rows over the full logical range (base + delta).
    deleted: BitVec,
    /// Set when an append failed partway: the log may carry a torn tail
    /// that must be truncated (atomically) before the next append.
    wal_dirty: bool,
    last_sync: Option<Instant>,
    overlay_cache: Option<(u64, Arc<DeltaOverlay>)>,
}

impl<'a, S: ByteStore> IngestIndex<'a, S> {
    /// Opens a stored index for ingest, replaying the write-ahead log.
    ///
    /// `spec` must describe the stored layout (checked against the
    /// manifest) and cover `cardinality`, the attribute's value range.
    /// Records the manifest already covers (`seq <= wal_applied`) are
    /// skipped; a torn WAL tail is truncated away through the atomic
    /// write path. A WAL with a corrupt *header* is a hard error —
    /// acknowledged batches may be lost, which must not be silent.
    pub fn open(
        stored: &'a mut StoredIndex<S>,
        spec: IndexSpec,
        cardinality: u32,
        options: IngestOptions,
    ) -> Result<Self, Error> {
        spec.check_covers(cardinality)?;
        check_layout(stored, &spec)?;
        let base_rows = stored.meta().n_rows;
        let wal_applied = stored.meta().wal_applied;
        let bytes = match stored.store().read_file(wal::WAL_FILE) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(Error::Storage(e.to_string())),
        };
        let replayed = wal::replay(&bytes).map_err(storage_error)?;
        let delta = Self::empty_delta(&spec, cardinality)?;
        let mut index = Self {
            stored,
            spec,
            cardinality,
            options,
            next_seq: wal_applied + 1,
            durable_seq: wal_applied,
            base_rows,
            delta,
            delta_version: 0,
            deleted: BitVec::zeros(base_rows),
            wal_dirty: false,
            last_sync: None,
            overlay_cache: None,
        };
        for record in &replayed.records {
            if record.seq <= wal_applied {
                continue;
            }
            // A logged delete out of range is damage, not a caller's mistake.
            index.validate(&record.op).map_err(|e| match e {
                Error::InvalidQuery(msg) => Error::CorruptIndex(msg),
                e => e,
            })?;
            index.apply(&record.op);
            // Everything replayed from disk survived at least one fsync
            // or a clean shutdown; treat it as acknowledged.
            index.next_seq = record.seq + 1;
            index.durable_seq = record.seq;
        }
        if replayed.truncated {
            // Drop the torn tail on disk too — atomically (tmp + rename),
            // so a crash mid-truncation never eats valid records.
            let keep = &bytes[..replayed.valid_bytes as usize];
            let image = if keep.is_empty() {
                wal::wal_header()
            } else {
                keep.to_vec()
            };
            index
                .stored
                .store_mut()
                .write_file(wal::WAL_FILE, &image)
                .map_err(|e| Error::Storage(e.to_string()))?;
        }
        Ok(index)
    }

    /// Commits one mutation batch: validates it, appends its WAL record,
    /// fsyncs (or defers the fsync under group commit), applies it to
    /// the in-memory delta, and — when the delta trips the configured
    /// row cap — compacts.
    ///
    /// On a failed WAL append nothing is applied in memory and the batch
    /// is **not** acknowledged; after a crash, reopening may or may not
    /// observe it (both are consistent states). When only the *fsync*
    /// fails the batch is applied in memory but still unacknowledged —
    /// the same contract, since the in-memory state is the post-batch
    /// snapshot and a reopen lands on pre or post. When the error comes
    /// from the automatic compaction, the batch's record was already
    /// durably logged, so reopening *will* observe it.
    pub fn commit(&mut self, op: WalOp) -> Result<IngestAck, Error> {
        self.validate(&op)?;
        if self.wal_dirty {
            self.repair_wal_tail()?;
        }
        let seq = self.next_seq;
        let record = wal::encode_record(seq, &op);
        match self.stored.store().file_size(wal::WAL_FILE) {
            Ok(_) => {}
            // First commit against a store created before the WAL existed:
            // seed the header so replay finds a well-formed log. A failure
            // can leave a torn header; mark the log dirty so the next
            // commit rewrites it before appending anything.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if let Err(e) = self
                    .stored
                    .store_mut()
                    .append_file(wal::WAL_FILE, &wal::wal_header())
                {
                    self.wal_dirty = true;
                    return Err(Error::Storage(e.to_string()));
                }
            }
            // Any other failure says nothing about whether the log exists:
            // a second header in the middle of it would end replay there
            // and drop every acknowledged batch after it. Append nothing.
            Err(e) => return Err(Error::Storage(e.to_string())),
        }
        if let Err(e) = self.stored.store_mut().append_file(wal::WAL_FILE, &record) {
            // The log may now end in a torn record; truncate before any
            // further append so a retry's record isn't hidden behind
            // garbage at replay.
            self.wal_dirty = true;
            return Err(Error::Storage(e.to_string()));
        }
        self.next_seq = seq + 1;
        self.apply(&op);
        let durable = self.maybe_sync(seq)?;
        let compacted = match self.options.delta_max_rows {
            Some(cap) if self.delta.n_rows() >= cap => Some(self.compact()?),
            _ => None,
        };
        Ok(IngestAck {
            seq,
            durable: durable || compacted.is_some(),
            compacted,
        })
    }

    /// Appends a batch of rows (`None` = null row). Convenience wrapper
    /// over [`IngestIndex::commit`].
    pub fn append(&mut self, values: &[Option<u32>]) -> Result<IngestAck, Error> {
        self.commit(WalOp::Append {
            values: values.to_vec(),
        })
    }

    /// Deletes a batch of rows by absolute row id. Deleting an
    /// already-deleted row is a no-op. Convenience wrapper over
    /// [`IngestIndex::commit`].
    pub fn delete(&mut self, rows: &[u64]) -> Result<IngestAck, Error> {
        self.commit(WalOp::Delete {
            rows: rows.to_vec(),
        })
    }

    /// Forces an fsync of any batches the group-commit window is still
    /// holding; returns the highest acknowledged sequence number.
    pub fn flush(&mut self) -> Result<u64, Error> {
        if self.durable_seq + 1 < self.next_seq {
            self.stored
                .store_mut()
                .sync_file(wal::WAL_FILE)
                .map_err(|e| Error::Storage(e.to_string()))?;
            self.last_sync = Some(Instant::now());
            self.durable_seq = self.next_seq - 1;
        }
        Ok(self.durable_seq)
    }

    /// Re-encodes base ⊕ delta into a fresh storage generation and
    /// resets the delta and the WAL. The commit point is a single atomic
    /// manifest swap inside [`StoredIndex::install_generation`]: a crash
    /// before it leaves the old generation (the WAL replays the delta on
    /// reopen), a crash after it leaves the new one (the WAL is covered
    /// by `wal_applied` and replay skips it). Returns the new generation
    /// number.
    ///
    /// Every base bitmap stays in its stored form: a WAH slot is extended
    /// in the run domain ([`WahBitmap::extend_from`], O(delta)) and never
    /// decoded, a literal slot takes the dense route. Deletes, when there
    /// are any, are encoded once and cleared from each WAH slot by one
    /// `AndNot` fold.
    pub fn compact(&mut self) -> Result<u64, Error> {
        let wal_applied = self.next_seq - 1;
        let deleted_runs = self
            .deleted
            .any()
            .then(|| WahBitmap::from_bitvec(&self.deleted));
        let deletes = deleted_runs.as_ref().map(|runs| (&self.deleted, runs));
        let delta_components = self.delta.components();
        let mut components = Vec::with_capacity(self.spec.n_components());
        for comp in 1..=self.spec.n_components() {
            let n_slots = self.spec.stored_in_component(comp) as usize;
            let delta_slots = &delta_components[comp - 1];
            debug_assert_eq!(
                delta_slots.len(),
                n_slots,
                "delta built under the same spec"
            );
            let mut slots = Vec::with_capacity(n_slots);
            for (slot, delta_bm) in delta_slots.iter().enumerate() {
                let base = self.stored.read_repr(comp, slot).map_err(storage_error)?;
                slots.push(append_rows(base, delta_bm, deletes));
            }
            components.push(slots);
        }
        let base_nn = self.stored.read_nn_repr().map_err(storage_error)?;
        let delta_nn = self.delta.nn();
        let added = self.delta.n_rows();
        let nn = if base_nn.is_none() && delta_nn.is_none() && deletes.is_none() {
            None
        } else {
            // No stored non-null bitmap means every base row is non-null:
            // one ones-fill.
            let base =
                base_nn.unwrap_or_else(|| Repr::wah(wah::fold(self.base_rows, &Fold::default())));
            let delta = delta_nn.cloned().unwrap_or_else(|| BitVec::ones(added));
            Some(append_rows(base, &delta, deletes))
        };
        let generation = self
            .stored
            .install_generation(&components, nn.as_ref(), wal_applied)
            .map_err(storage_error)?;
        self.base_rows += added;
        self.delta = Self::empty_delta(&self.spec, self.cardinality)?;
        self.delta_version += 1;
        self.deleted = BitVec::zeros(self.base_rows);
        self.overlay_cache = None;
        // Every applied batch is now durable in the base files.
        self.durable_seq = wal_applied;
        Ok(generation)
    }

    /// Snapshots the delta as a [`DeltaOverlay`] for query evaluation.
    /// The snapshot is cached and reused across queries until a committed
    /// batch bumps the delta version — and because the delta is kept as
    /// an incrementally maintained index, a cache miss only clones the
    /// current delta bitmaps, it never re-encodes the delta rows. A
    /// freshly compacted or untouched index yields a quiesced overlay,
    /// which attach points drop.
    pub fn overlay(&mut self) -> Result<Arc<DeltaOverlay>, Error> {
        if let Some((version, o)) = &self.overlay_cache {
            if *version == self.delta_version {
                return Ok(Arc::clone(o));
            }
        }
        // An empty delta index has zero-length bitmaps in every slot, so
        // the deletes-only (and untouched) cases flow through unchanged.
        let overlay = Arc::new(
            DeltaOverlay::from_index(self.base_rows, &self.delta, self.deleted.clone())?
                .with_version(self.delta_version),
        );
        self.overlay_cache = Some((self.delta_version, Arc::clone(&overlay)));
        Ok(overlay)
    }

    /// Evaluates one selection query over base ⊕ delta.
    pub fn evaluate(
        &mut self,
        query: SelectionQuery,
        algorithm: Algorithm,
    ) -> Result<(BitVec, EvalStats), Error> {
        let overlay = self.overlay()?;
        let base_nn = self.stored.read_nn().map_err(storage_error)?;
        let mut source = SharedSource::try_unpooled(&*self.stored, &self.spec)?;
        if let Some(nn) = base_nn {
            source = source.with_nn(nn);
        }
        let mut ctx = ExecContext::new(&mut source).with_overlay(Some(overlay));
        let found = evaluate_in(&mut ctx, query, algorithm)?;
        Ok((found, ctx.take_stats()))
    }

    /// Total logical rows: stored base plus appended delta (deleted rows
    /// keep their row ids and stay counted).
    pub fn n_rows(&self) -> usize {
        self.base_rows + self.delta.n_rows()
    }

    /// Rows in the not-yet-compacted delta segment.
    pub fn delta_rows(&self) -> usize {
        self.delta.n_rows()
    }

    /// Monotonic delta version: bumped by every applied batch and every
    /// compaction. Overlay snapshots carry it
    /// ([`DeltaOverlay::version`]), so callers can tell whether a cached
    /// snapshot is still current.
    pub fn delta_version(&self) -> u64 {
        self.delta_version
    }

    /// Rows currently marked deleted.
    pub fn deleted_rows(&self) -> usize {
        self.deleted.count_ones()
    }

    /// Highest fsync-acknowledged WAL sequence number.
    pub fn durable_seq(&self) -> u64 {
        self.durable_seq
    }

    /// Sequence number the next committed batch will get.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// The underlying stored index.
    pub fn stored(&self) -> &StoredIndex<S> {
        self.stored
    }

    /// Checks a batch against the current logical state without touching
    /// anything: append values must be within the attribute's
    /// cardinality ([`Error::ValueOutOfRange`]), delete row ids within the
    /// logical row range ([`Error::InvalidQuery`]).
    fn validate(&self, op: &WalOp) -> Result<(), Error> {
        match op {
            WalOp::Append { values } => {
                for v in values.iter().flatten() {
                    if *v >= self.cardinality {
                        return Err(Error::ValueOutOfRange {
                            value: *v,
                            cardinality: self.cardinality,
                        });
                    }
                }
            }
            WalOp::Delete { rows } => {
                for &r in rows {
                    if usize::try_from(r).map_or(true, |r| r >= self.n_rows()) {
                        return Err(Error::InvalidQuery(format!(
                            "delete targets row {r}, index holds {} rows",
                            self.n_rows()
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies a validated batch to the in-memory delta, extending the
    /// delta index bitmaps in place and bumping the delta version (which
    /// is what invalidates cached overlay snapshots).
    fn apply(&mut self, op: &WalOp) {
        match op {
            WalOp::Append { values } => {
                for v in values {
                    match v {
                        Some(v) => self
                            .delta
                            .append(*v)
                            .expect("append was validated against the spec's base"),
                        None => self.delta.append_null(),
                    }
                    self.deleted.push(false);
                }
            }
            WalOp::Delete { rows } => {
                for &r in rows {
                    self.deleted.set(r as usize, true);
                }
            }
        }
        self.delta_version += 1;
    }

    /// An empty delta index under the base's spec — the between-batches
    /// state [`IngestIndex::apply`] appends into.
    fn empty_delta(spec: &IndexSpec, cardinality: u32) -> Result<BitmapIndex, Error> {
        BitmapIndex::build(&Column::new(Vec::new(), cardinality.max(1)), spec.clone())
    }

    /// Fsyncs the WAL now, or defers inside an open group-commit window.
    /// Returns whether `seq` is acknowledged.
    fn maybe_sync(&mut self, seq: u64) -> Result<bool, Error> {
        let due = match (self.options.fsync_interval, self.last_sync) {
            (None, _) | (Some(_), None) => true,
            (Some(window), Some(last)) => last.elapsed() >= window,
        };
        if due {
            self.stored
                .store_mut()
                .sync_file(wal::WAL_FILE)
                .map_err(|e| Error::Storage(e.to_string()))?;
            self.last_sync = Some(Instant::now());
            self.durable_seq = seq;
        }
        Ok(self.durable_seq >= seq)
    }

    /// After a failed append: rewrites the WAL's valid prefix through the
    /// atomic write path, dropping whatever torn bytes the failure left.
    fn repair_wal_tail(&mut self) -> Result<(), Error> {
        let bytes = match self.stored.store().read_file(wal::WAL_FILE) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(Error::Storage(e.to_string())),
        };
        let replayed = wal::replay(&bytes).map_err(storage_error)?;
        let keep = &bytes[..replayed.valid_bytes as usize];
        let image = if keep.is_empty() {
            wal::wal_header()
        } else {
            keep.to_vec()
        };
        self.stored
            .store_mut()
            .write_file(wal::WAL_FILE, &image)
            .map_err(|e| Error::Storage(e.to_string()))?;
        self.wal_dirty = false;
        Ok(())
    }
}

/// `base` with `delta`'s rows appended and, when there are `deletes` (the
/// deleted-row mask, dense and encoded), those rows cleared — in `base`'s
/// form. A WAH bitmap is extended in the run domain and folded once
/// against the encoded mask; a literal one is extended and masked over
/// dense words.
fn append_rows(base: Repr, delta: &BitVec, deletes: Option<(&BitVec, &WahBitmap)>) -> Repr {
    match base {
        Repr::Wah(runs) => {
            let mut runs = Arc::unwrap_or_clone(runs);
            runs.extend_from(delta);
            if let Some((_, deleted)) = deletes {
                let program = Fold {
                    seed: Some(&runs),
                    steps: vec![FoldStep::AndNot(deleted)],
                    ..Fold::default()
                };
                runs = wah::fold(runs.len(), &program);
            }
            Repr::wah(runs)
        }
        Repr::Literal(bits) => {
            let mut bits = Arc::unwrap_or_clone(bits);
            bits.extend_from(delta);
            if let Some((deleted, _)) = deletes {
                bits.and_not_assign(deleted);
            }
            Repr::literal(bits)
        }
    }
}
