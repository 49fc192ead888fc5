//! Stored indexes: the paper's physical organizations (Section 9.1) and
//! the slot-coded format the engine serves, behind one reader with I/O
//! accounting, checksummed framing and bounded retry.
//!
//! Every store wraps every file — bitmap payloads and the manifest — in
//! the checksummed frame of [`format`](crate::format), so a read either
//! returns the bytes that were written or a typed [`StorageError`]. There
//! is one read path: [`StoredIndex::read_repr`] is the primitive — `&self`,
//! so any number of threads read one index, with the I/O cost of every
//! read accumulated in atomic counters the index owns — and
//! [`StoredIndex::read_bitmap`] is that read materialized to dense words.
//!
//! **The paper's layouts** ([`StoredIndex::create`], manifest
//! `version=2`): one codec-compressed payload per file under BS, CS or IS
//! — what the Section 9 space/time experiments reproduce from.
//!
//! **The current format** ([`StoredIndex::create_v4`], manifest
//! `version=4`) is what the engine serves and ingests into. It is
//! bitmap-level, and each slot file's payload starts with a one-byte tag
//! chosen per slot at write time: the dense bytes (compressed with the
//! store's byte codec, as above) or the WAH form, which
//! [`StoredIndex::read_repr`] hands to the executor still compressed — so
//! sparse bitmaps cost less I/O, less pool memory, *and* no decompression.
//! Beside the slots sits a **summary block**: one framed file holding, for
//! every slot, an any-bit and an all-bit per [`SUMMARY_WINDOW_BITS`]-bit
//! window. Segmented execution consults it *before* fetching a slot and
//! skips fetch + decode of provably-constant segments. A clear any-bit is a
//! guarantee of zeros; a missing, corrupt, or shape-mismatched block
//! degrades to fetch-and-check ([`StoredIndex::read_summaries`] returns
//! `None`) — never to a wrong answer. Build, compaction
//! ([`StoredIndex::install_generation`]) and repair
//! ([`StoredIndex::scrub_and_repair`]) encode this format through one
//! writer, so the three cannot drift. A manifest saying `version=3` — the
//! same slot files, written before the summary block existed — *is* this
//! format with the block absent: it opens and reads through the degrade
//! path, and the first compaction or repair commits it as `version=4`.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use bindex_bitvec::{BitVec, IndexSummaries, SlotSummary, SUMMARY_WINDOW_BITS};
use bindex_compress::wah::WahBitmap;
use bindex_compress::{CodecKind, Repr};

use crate::error::{RepairReport, ScrubFailure, ScrubReport, StorageError};
use crate::format;
use crate::store::{ByteStore, IoStats};

/// Physical organization of an index's bit matrix (Section 9.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageScheme {
    /// **BS**: one file per bitmap (column-major).
    BitmapLevel,
    /// **CS**: one row-major file per component.
    ComponentLevel,
    /// **IS**: one row-major file for the entire index.
    IndexLevel,
}

/// Shape metadata of a stored index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredIndexMeta {
    /// Rows per bitmap (`N`).
    pub n_rows: usize,
    /// Stored bitmaps per component (`n_i`).
    pub bitmaps_per_component: Vec<u32>,
    /// Physical organization.
    pub scheme: StorageScheme,
    /// Per-file compression codec.
    pub codec: CodecKind,
    /// Repair journal: every file ever rewritten by
    /// [`StoredIndex::scrub_and_repair`], oldest first, persisted as
    /// `repaired=` lines in the manifest. A non-empty journal tells an
    /// operator the store has lost bytes before, even though reads are
    /// clean now.
    pub repairs: Vec<String>,
    /// Base generation. Generation 0 uses the legacy file names
    /// (`c{i}_b{j}.bmp`); every [`StoredIndex::install_generation`] bumps
    /// it and writes `g{G}_`-prefixed files, so the old and new base never
    /// collide and a crash mid-compaction leaves whichever generation the
    /// manifest points at.
    pub generation: u64,
    /// Highest WAL sequence number folded into this base by compaction.
    /// Replay after reopen skips records at or below it.
    pub wal_applied: u64,
    /// Whether a non-null bitmap file is persisted alongside the slots
    /// (deleted rows are stored as nulls, so any compaction that absorbed
    /// a delete writes one).
    pub has_nn: bool,
    /// Compaction journal: the latest installed generation only (empty
    /// before the first compaction), persisted as one `compacted=`
    /// manifest line. Every commit rewrites the manifest, so a line per
    /// compaction would make each ingest write more than the one before.
    pub compactions: Vec<String>,
}

impl StoredIndexMeta {
    /// Metadata of an empty generation-0 store with empty journals.
    fn fresh(scheme: StorageScheme, codec: CodecKind) -> Self {
        Self {
            n_rows: 0,
            bitmaps_per_component: Vec::new(),
            scheme,
            codec,
            repairs: Vec::new(),
            generation: 0,
            wal_applied: 0,
            has_nn: false,
            compactions: Vec::new(),
        }
    }

    /// `self` reshaped to hold `components[i-1][j]` (bitmap `j` of
    /// component `i`, `len` bits long) and the optional non-null bitmap —
    /// where every writer's input is checked: all bitmaps share one row
    /// count.
    fn shaped<B>(
        mut self,
        components: &[Vec<B>],
        nn: Option<&B>,
        len: impl Fn(&B) -> usize,
    ) -> Self {
        self.n_rows = components.first().and_then(|c| c.first()).map_or(0, &len);
        for bm in components.iter().flatten().chain(nn) {
            assert_eq!(len(bm), self.n_rows, "bitmaps must share the row count");
        }
        self.bitmaps_per_component = components.iter().map(|c| c.len() as u32).collect();
        self.has_nn = nn.is_some();
        self
    }

    /// Total stored bitmaps `n`.
    pub fn total_bitmaps(&self) -> u64 {
        self.bitmaps_per_component
            .iter()
            .map(|&x| u64::from(x))
            .sum()
    }

    /// Serializes the metadata as the manifest file format (one
    /// `key=value` per line; versioned, order-insensitive).
    fn to_manifest(&self, version: u32) -> String {
        let comps: Vec<String> = self
            .bitmaps_per_component
            .iter()
            .map(u32::to_string)
            .collect();
        let mut text = format!(
            "version={}\nn_rows={}\nscheme={}\ncodec={}\ncomponents={}\n",
            version,
            self.n_rows,
            match self.scheme {
                StorageScheme::BitmapLevel => "bs",
                StorageScheme::ComponentLevel => "cs",
                StorageScheme::IndexLevel => "is",
            },
            self.codec.name(),
            comps.join(",")
        );
        // Ingest metadata is emitted only when set, so a never-ingested
        // store's manifest stays byte-identical to what older builds wrote.
        if self.generation != 0 {
            text.push_str(&format!("generation={}\n", self.generation));
        }
        if self.wal_applied != 0 {
            text.push_str(&format!("wal_applied={}\n", self.wal_applied));
        }
        if self.has_nn {
            text.push_str("nn=1\n");
        }
        // The repair journal: one repeatable line per rewritten file.
        for file in &self.repairs {
            text.push_str("repaired=");
            text.push_str(file);
            text.push('\n');
        }
        // The compaction journal: the latest installed generation.
        for entry in &self.compactions {
            text.push_str("compacted=");
            text.push_str(entry);
            text.push('\n');
        }
        text
    }

    /// Parses a manifest produced by [`StoredIndexMeta::to_manifest`],
    /// returning the metadata and the store's format version.
    fn from_manifest(text: &str) -> Result<(Self, u32), StorageError> {
        let bad = |msg: &str| StorageError::corrupt(MANIFEST_FILE, format!("manifest: {msg}"));
        let mut n_rows = None;
        let mut scheme = None;
        let mut codec = None;
        let mut comps: Option<Vec<u32>> = None;
        let mut version = None;
        let mut repairs = Vec::new();
        let mut generation = 0;
        let mut wal_applied = 0;
        let mut has_nn = false;
        let mut compactions = Vec::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let (k, v) = line
                .split_once('=')
                .ok_or_else(|| bad(&format!("malformed line {line:?}")))?;
            match k {
                "version" => version = Some(v.to_string()),
                "n_rows" => n_rows = Some(v.parse().map_err(|_| bad("bad n_rows"))?),
                "scheme" => {
                    scheme = Some(match v {
                        "bs" => StorageScheme::BitmapLevel,
                        "cs" => StorageScheme::ComponentLevel,
                        "is" => StorageScheme::IndexLevel,
                        other => return Err(bad(&format!("unknown scheme {other}"))),
                    })
                }
                "codec" => {
                    codec = Some(match v {
                        "none" => CodecKind::None,
                        "rle" => CodecKind::Rle,
                        "lzss" => CodecKind::Lzss,
                        "deflate" => CodecKind::Deflate,
                        other => return Err(bad(&format!("unknown codec {other}"))),
                    })
                }
                "components" => {
                    comps = Some(
                        v.split(',')
                            .map(|x| x.parse().map_err(|_| bad("bad component count")))
                            .collect::<Result<Vec<u32>, StorageError>>()?,
                    )
                }
                "repaired" => repairs.push(v.to_string()),
                "generation" => generation = v.parse().map_err(|_| bad("bad generation"))?,
                "wal_applied" => wal_applied = v.parse().map_err(|_| bad("bad wal_applied"))?,
                "nn" => {
                    has_nn = match v {
                        "1" => true,
                        "0" => false,
                        other => return Err(bad(&format!("bad nn flag {other}"))),
                    }
                }
                // An older build kept one line per compaction; the last
                // one is the latest.
                "compacted" => compactions = vec![v.to_string()],
                other => return Err(bad(&format!("unknown key {other}"))),
            }
        }
        let version = match version.as_deref() {
            Some("2") => 2,
            Some("3") => 3,
            Some("4") => 4,
            _ => return Err(bad("unsupported version")),
        };
        Ok((
            Self {
                n_rows: n_rows.ok_or_else(|| bad("missing n_rows"))?,
                bitmaps_per_component: comps.ok_or_else(|| bad("missing components"))?,
                scheme: scheme.ok_or_else(|| bad("missing scheme"))?,
                codec: codec.ok_or_else(|| bad("missing codec"))?,
                repairs,
                generation,
                wal_applied,
                has_nn,
                compactions,
            },
            version,
        ))
    }
}

/// Lock-free accumulator for [`IoStats`], one counter per field, so reads
/// through `&StoredIndex` from any number of threads are all accounted.
/// Relaxed ordering throughout: the counters are independent monotonic
/// sums read only for reporting, never for synchronization.
#[derive(Debug, Default)]
struct AtomicIoStats {
    reads: AtomicU64,
    bytes_read: AtomicU64,
    bytes_decompressed: AtomicU64,
    retries: AtomicU64,
}

impl AtomicIoStats {
    fn snapshot(&self) -> IoStats {
        IoStats {
            reads: self.reads.load(Ordering::Relaxed),
            bytes_read: self.bytes_read.load(Ordering::Relaxed),
            bytes_decompressed: self.bytes_decompressed.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
        }
    }
}

/// An index laid out in a [`ByteStore`] under one of the three schemes,
/// readable bitmap-by-bitmap with byte-level I/O accounting. Reads retry
/// transient failures up to three attempts; checksum and structure
/// failures surface as permanent [`StorageError`]s.
#[derive(Debug)]
pub struct StoredIndex<S: ByteStore> {
    store: S,
    meta: StoredIndexMeta,
    stats: AtomicIoStats,
    /// The manifest's version: 2 for the paper's layouts, 4 (or a legacy
    /// 3) for the slot-coded format.
    version: u32,
    /// Lazily loaded, validated summary block. A resolved `None` means
    /// "no usable summaries" — one of the paper's layouts, a missing file,
    /// or a corrupt/mismatched block that must degrade to fetch-and-check.
    summaries: OnceLock<Option<Arc<IndexSummaries>>>,
}

impl<S: ByteStore> StoredIndex<S> {
    /// A handle on `store` as `meta` describes it, nothing read or written.
    fn handle(store: S, meta: StoredIndexMeta, version: u32) -> Self {
        Self {
            store,
            meta,
            stats: AtomicIoStats::default(),
            version,
            summaries: OnceLock::new(),
        }
    }

    /// Writes one of the paper's layouts: `components[i-1][j]` (bitmap `j`
    /// of component `i`) and the optional non-null bitmap `nn` go into
    /// `store` under `scheme`, each file compressed with `codec` and
    /// wrapped in the checksummed frame.
    pub fn create(
        store: S,
        components: &[Vec<BitVec>],
        nn: Option<&BitVec>,
        scheme: StorageScheme,
        codec: CodecKind,
    ) -> Result<Self, StorageError> {
        let empty = StoredIndexMeta::fresh(scheme, codec);
        let mut index = Self::handle(store, empty, PAPER_VERSION);
        let meta = index.meta.clone().shaped(components, nn, BitVec::len);
        for (name, held) in data_files(&meta) {
            let columns: Vec<&BitVec> = held.iter().map(|&(c, s)| &components[c - 1][s]).collect();
            index.write_dense(&name, &columns)?;
        }
        if let Some(nn) = nn {
            index.write_dense(&gen_nn_file(0), &[nn])?;
        }
        index.commit_manifest(meta, PAPER_VERSION)?;
        Ok(index)
    }

    /// Writes `bitmaps` as one file of the paper's layouts: row-major
    /// across the bitmaps, compressed with the store's codec, framed.
    fn write_dense(&mut self, name: &str, bitmaps: &[&BitVec]) -> Result<(), StorageError> {
        let raw = match bitmaps {
            [one] => one.to_bytes(),
            many => row_major(many),
        };
        let payload = self.meta.codec.compress(&raw);
        Ok(self.store.write_file(name, &format::frame(&payload))?)
    }

    /// The commit point of every writer: one atomic manifest write, after
    /// which this handle describes what the store now holds.
    fn commit_manifest(&mut self, meta: StoredIndexMeta, version: u32) -> Result<(), StorageError> {
        let text = meta.to_manifest(version);
        self.store
            .write_file(MANIFEST_FILE, &format::frame(text.as_bytes()))?;
        self.meta = meta;
        self.version = version;
        // Whatever was committed may have replaced the block, or the slots
        // it summarizes.
        self.summaries = OnceLock::new();
        Ok(())
    }

    /// Writes a store in the current format: bitmap-level slot files, each
    /// payload WAH or `codec`-compressed dense bytes behind a one-byte tag
    /// (the WAH form is kept iff it is at most a quarter of the dense
    /// bytes), the optional non-null bitmap `nn` coded the same way, and
    /// the summary block (`summary.bxs`) segmented execution prunes by
    /// ([`StoredIndex::read_summaries`]).
    pub fn create_v4(
        store: S,
        components: &[Vec<BitVec>],
        nn: Option<&BitVec>,
        codec: CodecKind,
    ) -> Result<Self, StorageError> {
        let empty = StoredIndexMeta::fresh(StorageScheme::BitmapLevel, codec);
        let mut index = Self::handle(store, empty, SLOT_CODED_VERSION);
        let meta = index.meta.clone().shaped(components, nn, BitVec::len);
        let nn = nn.map(|nn| Repr::literal(nn.clone()));
        index.write_generation(
            meta,
            |comp, slot| Some(Repr::literal(components[comp - 1][slot].clone())),
            nn.as_ref(),
            true,
        )?;
        Ok(index)
    }

    /// The one writer of the current format. Writes the files of
    /// generation `meta.generation` in a fixed order — slots, non-null
    /// bitmap, summary block — all through one [`SlotEncoder`], then
    /// commits `meta` with the manifest write. Each bitmap comes in
    /// whichever [`Repr`] the caller holds, and is coded and summarized
    /// from that form: a WAH bitmap is never decoded unless the coding
    /// rule stores it literal. Build and compaction write every file;
    /// repair rewrites the few it has content for: a slot is written when
    /// `content` returns it, the non-null bitmap when `nn` is given, the
    /// summary block when `summarize` — and then every bitmap not being
    /// written is read back from the store to be summarized (not
    /// re-encoded), so the block always describes exactly the bitmaps the
    /// generation holds.
    fn write_generation(
        &mut self,
        meta: StoredIndexMeta,
        mut content: impl FnMut(usize, usize) -> Option<Repr>,
        nn: Option<&Repr>,
        summarize: bool,
    ) -> Result<(), StorageError> {
        let generation = meta.generation;
        let mut enc = SlotEncoder::new(meta.codec);
        // Bitmap-level: one slot per file.
        for (name, held) in data_files(&meta) {
            let (comp, slot) = held[0];
            if let Some(bm) = content(comp, slot) {
                self.store
                    .write_file(&name, &format::frame(&enc.encode_slot(&bm)))?;
            } else if summarize {
                enc.summarize_slot(&self.read_repr(comp, slot)?);
            }
        }
        if let Some(nn) = nn {
            self.store
                .write_file(&gen_nn_file(generation), &format::frame(&enc.encode_nn(nn)))?;
        } else if summarize && meta.has_nn {
            if let Some(stored) = self.read_nn_repr()? {
                enc.summarize_nn(&stored);
            }
        }
        if summarize {
            let shape = &meta.bitmaps_per_component;
            let block = encode_summary_block(meta.n_rows, shape, &enc.slots, enc.nn.as_ref());
            self.store
                .write_file(&summary_file(generation), &format::frame(&block))?;
        }
        self.commit_manifest(meta, SLOT_CODED_VERSION)
    }

    /// Re-opens a stored index, reading its shape from the manifest file —
    /// no rebuild needed. An unframed (version-1) manifest, or a framed one
    /// declaring a version this build does not read, is
    /// [`StorageError::Corrupt`].
    pub fn open(store: S) -> Result<Self, StorageError> {
        let mut retries = 0;
        let data = read_with_retry(&store, MANIFEST_FILE, &mut retries)?;
        let payload = format::unframe(MANIFEST_FILE, &data)?;
        let text = std::str::from_utf8(payload)
            .map_err(|_| StorageError::corrupt(MANIFEST_FILE, "manifest not UTF-8"))?;
        let (meta, version) = StoredIndexMeta::from_manifest(text)?;
        let mut index = Self::handle(store, meta, version);
        *index.stats.retries.get_mut() = retries;
        if index.slot_coded() && index.meta.scheme != StorageScheme::BitmapLevel {
            return Err(StorageError::corrupt(
                MANIFEST_FILE,
                "the slot-coded format requires the bitmap-level scheme",
            ));
        }
        // The manifest is outside input: a shape whose bit matrix does not
        // fit the address space must never reach the read path's sizing.
        let width = usize::try_from(index.meta.total_bitmaps()).unwrap_or(usize::MAX);
        row_major_len(MANIFEST_FILE, index.meta.n_rows, width)?;
        index.scavenge_stale_generations();
        Ok(index)
    }

    /// Removes data files belonging to generations other than the
    /// manifest's — orphans left by a crash between compaction steps
    /// (new-generation files written but never committed, or an old
    /// generation whose garbage collection was interrupted). Best-effort:
    /// a store that cannot mutate (e.g. a crashed fault store) keeps its
    /// orphans until the next open; reads never consult them.
    fn scavenge_stale_generations(&mut self) {
        for name in self.store.file_names().unwrap_or_default() {
            if data_file_generation(&name).is_some_and(|g| g != self.meta.generation) {
                let _ = self.store.remove_file(&name);
            }
        }
    }

    /// Shape metadata.
    pub fn meta(&self) -> &StoredIndexMeta {
        &self.meta
    }

    /// The version the store's manifest declares: 2 for the paper's
    /// layouts, 4 for the current format — or 3, until the first commit,
    /// for a store written before the summary block existed.
    pub fn format_version(&self) -> u32 {
        self.version
    }

    /// `true` for the current format (each bitmap payload starts with a
    /// representation tag), `false` for the paper's layouts.
    fn slot_coded(&self) -> bool {
        self.version > PAPER_VERSION
    }

    /// The underlying byte store.
    pub fn store(&self) -> &S {
        &self.store
    }

    /// Mutable access to the underlying byte store — the ingest layer's
    /// WAL append path writes through here so the log and the base share
    /// one store (and one fault plan under test).
    pub fn store_mut(&mut self) -> &mut S {
        &mut self.store
    }

    /// Consumes the index, returning the underlying store.
    pub fn into_store(self) -> S {
        self.store
    }

    /// Total stored bytes across all bitmap files (physical size including
    /// frame headers; compressed size when compressed) — the space metric
    /// of Section 9. The tiny manifest is excluded. Files whose size
    /// cannot be read count as zero.
    pub fn total_stored_bytes(&self) -> u64 {
        self.store
            .file_names()
            .unwrap_or_default()
            .iter()
            .filter(|n| n.as_str() != MANIFEST_FILE && n.as_str() != crate::wal::WAL_FILE)
            .map(|n| self.store.file_size(n).unwrap_or(0))
            .sum()
    }

    /// Cumulative I/O statistics of every read through this handle, from
    /// any thread.
    pub fn stats(&self) -> IoStats {
        self.stats.snapshot()
    }

    /// Returns and resets the I/O statistics.
    pub fn take_stats(&mut self) -> IoStats {
        std::mem::take(&mut self.stats).snapshot()
    }

    /// Reads stored bitmap `slot` of component `comp` (1-based component)
    /// in its *stored execution representation*: in the current format
    /// a WAH-tagged slot comes back still compressed
    /// ([`Repr::Wah`]), skipping decompression entirely; every other slot
    /// (and every slot of the paper's layouts) is a dense
    /// [`Repr::Literal`].
    ///
    /// Under BS this reads one bitmap file; under CS it reads and
    /// transposes the whole component file; under IS the whole index file
    /// — exactly the access-cost asymmetry Section 9.2 describes.
    ///
    /// Out-of-shape addresses return [`StorageError::InvalidSlot`];
    /// transient store failures are retried up to the policy bound and
    /// then propagate; corruption is reported as a permanent error, never
    /// as a wrong bitmap.
    pub fn read_repr(&self, comp: usize, slot: usize) -> Result<Repr, StorageError> {
        if self.slot_coded() {
            self.check_slot(comp, slot)?;
            return self.read_slot_repr(&gen_bitmap_file(self.meta.generation, comp, slot));
        }
        let (name, width, j) = data_files(&self.meta)
            .find_map(|(name, held)| {
                let j = held.iter().position(|&held| held == (comp, slot))?;
                Some((name, held.len(), j))
            })
            .ok_or(StorageError::InvalidSlot { comp, slot })?;
        self.read_column(&name, width, j).map(Repr::literal)
    }

    /// Column `j` of a paper-layout file of `width` bitmaps: a one-bitmap
    /// file is that bitmap's bytes (as [`StoredIndex::write_dense`] wrote
    /// them), a wider one is row-major.
    fn read_column(&self, name: &str, width: usize, j: usize) -> Result<BitVec, StorageError> {
        let n_rows = self.meta.n_rows;
        let raw_len = row_major_len(name, n_rows, width)?;
        let data = self.read_file(name)?;
        let payload = format::unframe(name, &data)?;
        self.decode_raw(name, payload, raw_len, |raw| match width {
            1 => BitVec::from_bytes(n_rows, raw),
            _ => extract_column(raw, n_rows, width, j),
        })
    }

    /// [`StoredIndex::read_repr`], materialized to dense words.
    pub fn read_bitmap(&self, comp: usize, slot: usize) -> Result<BitVec, StorageError> {
        self.read_repr(comp, slot)
            .map(|repr| self.materialize(repr))
    }

    /// The dense form of a representation this index handed out. A WAH
    /// decode is charged as `bytes_decompressed` — the slot-coded analogue
    /// of a codec decompression.
    pub(crate) fn materialize(&self, repr: Repr) -> BitVec {
        match repr {
            Repr::Literal(b) => Arc::unwrap_or_clone(b),
            Repr::Wah(w) => {
                let dense_bytes = self.meta.n_rows.div_ceil(8) as u64;
                self.stats
                    .bytes_decompressed
                    .fetch_add(dense_bytes, Ordering::Relaxed);
                w.to_bitvec()
            }
        }
    }

    /// Reads the persisted non-null bitmap, if this generation stored one
    /// ([`StoredIndexMeta::has_nn`]). Deleted rows are persisted as nulls,
    /// so evaluators mask them out through the ordinary null-handling
    /// path.
    pub fn read_nn(&self) -> Result<Option<BitVec>, StorageError> {
        Ok(self.read_nn_repr()?.map(|repr| self.materialize(repr)))
    }

    /// [`StoredIndex::read_nn`] in the stored execution representation
    /// (see [`StoredIndex::read_repr`]).
    pub fn read_nn_repr(&self) -> Result<Option<Repr>, StorageError> {
        if !self.meta.has_nn {
            return Ok(None);
        }
        let name = gen_nn_file(self.meta.generation);
        if self.slot_coded() {
            return self.read_slot_repr(&name).map(Some);
        }
        self.read_column(&name, 1, 0)
            .map(|nn| Some(Repr::literal(nn)))
    }

    /// The summary block, loaded and shape-validated once per store handle
    /// (only the call that loads it costs I/O). `None` for the paper's
    /// layouts and whenever the block is missing, unreadable, corrupt, or
    /// disagrees with the stored shape — callers degrade to
    /// fetch-and-check, never to a wrong answer. (That makes summary loss
    /// strictly a performance event, which is why this path is infallible
    /// rather than `Result`-typed.)
    pub fn read_summaries(&self) -> Option<Arc<IndexSummaries>> {
        self.summaries.get_or_init(|| self.load_summaries()).clone()
    }

    fn load_summaries(&self) -> Option<Arc<IndexSummaries>> {
        if !self.slot_coded() {
            return None;
        }
        let name = summary_file(self.meta.generation);
        let data = self.read_file(&name).ok()?;
        let payload = format::unframe(&name, &data).ok()?;
        let summaries = decode_summary_block(payload)?;
        // Shape check against the manifest: a summary block that
        // disagrees with the stored layout must never prune anything.
        let shape: Vec<usize> = self
            .meta
            .bitmaps_per_component
            .iter()
            .map(|&x| x as usize)
            .collect();
        if summaries.n_rows() != self.meta.n_rows || summaries.slots_per_component() != shape {
            return None;
        }
        Some(Arc::new(summaries))
    }

    /// Validates a `(component, slot)` address against the stored shape.
    fn check_slot(&self, comp: usize, slot: usize) -> Result<(), StorageError> {
        let n_i = comp
            .checked_sub(1)
            .and_then(|c| self.meta.bitmaps_per_component.get(c));
        match n_i {
            Some(&n_i) if slot < n_i as usize => Ok(()),
            _ => Err(StorageError::InvalidSlot { comp, slot }),
        }
    }

    /// Reads one slot-coded file: unframe, dispatch on the leading
    /// representation tag.
    fn read_slot_repr(&self, name: &str) -> Result<Repr, StorageError> {
        let n_rows = self.meta.n_rows;
        let data = self.read_file(name)?;
        let payload = format::unframe(name, &data)?;
        let (&tag, rest) = payload
            .split_first()
            .ok_or_else(|| StorageError::corrupt(name, "empty slot payload"))?;
        match tag {
            SLOT_TAG_WAH => WahBitmap::from_bytes(n_rows, rest)
                .map(Repr::wah)
                .map_err(|e| StorageError::corrupt(name, e.to_string())),
            SLOT_TAG_LITERAL => self.decode_raw(name, rest, n_rows.div_ceil(8), |raw| {
                Repr::literal(BitVec::from_bytes(n_rows, raw))
            }),
            other => Err(StorageError::corrupt(
                name,
                format!("unknown slot representation tag {other}"),
            )),
        }
    }

    /// Verifies every file in the store against its frame header and
    /// reports (rather than fails on) each corrupt file.
    pub fn scrub(&mut self) -> Result<ScrubReport, StorageError> {
        let mut names = self.store.file_names()?;
        names.sort();
        let mut report = ScrubReport::default();
        for name in &names {
            report.files_checked += 1;
            let retries = self.stats.retries.get_mut();
            let outcome = read_with_retry(&self.store, name, retries).and_then(|data| {
                if name == crate::wal::WAL_FILE {
                    // The WAL is length-framed per record, not
                    // checksum-framed per file; a torn tail is a normal
                    // crash artifact, only a corrupt header fails.
                    crate::wal::replay(&data).map(|_| ())
                } else {
                    format::unframe(name, &data).map(|_| ())
                }
            });
            if let Err(e) = outcome {
                report.failures.push(ScrubFailure {
                    file: name.clone(),
                    error: e.to_string(),
                });
            }
        }
        Ok(report)
    }

    /// The `(component, slot)` addresses whose bits live in file `name` —
    /// one bitmap under BS, a whole component under CS, every bitmap under
    /// IS. Empty for the manifest and for names outside the layout.
    pub fn file_slots(&self, name: &str) -> Vec<(usize, usize)> {
        data_files(&self.meta)
            .find(|(file, _)| file == name)
            .map_or_else(Vec::new, |(_, held)| held)
    }

    /// Extends [`StoredIndex::scrub`] into online repair: every corrupt
    /// file whose bitmaps the caller can supply is rewritten — encoded as
    /// the store's format encodes it, framed, and through the store's write
    /// path, which on [`DiskStore`](crate::DiskStore) is the atomic
    /// temp-file+rename — and journaled in the manifest's `repaired=`
    /// lines. `content(comp, slot)` and `nn` (the non-null bitmap) must be
    /// the bits the store held, at the store's row count. A corrupt
    /// manifest is rewritten from the in-memory metadata; a corrupt summary
    /// block is derived data, rebuilt from the stored bitmaps rather than
    /// asked of the caller — also whenever the non-null bitmap, which it
    /// summarizes last, is rewritten. Files the caller cannot cover are
    /// reported, not failed on.
    pub fn scrub_and_repair<F>(
        &mut self,
        mut content: F,
        nn: Option<&BitVec>,
    ) -> Result<RepairReport, StorageError>
    where
        F: FnMut(usize, usize) -> Option<BitVec>,
    {
        let mut report = RepairReport {
            scrub: self.scrub()?,
            ..RepairReport::default()
        };
        let coded = self.slot_coded();
        let n_rows = self.meta.n_rows;
        let nn = nn.filter(|nn| nn.len() == n_rows);
        let nn_file = gen_nn_file(self.meta.generation);
        let summary = summary_file(self.meta.generation);
        let mut manifest_dirty = false;
        let mut summary_failure = None;
        let mut nn_dirty = false;
        // The summary block can only describe bitmaps that can be read.
        let mut bitmaps_lost = false;
        // Rewrites of the current format wait for the one writer below.
        let mut fixes: HashMap<(usize, usize), Repr> = HashMap::new();
        for failure in report.scrub.failures.clone() {
            if failure.file == MANIFEST_FILE {
                manifest_dirty = true;
                continue;
            }
            if coded && failure.file == summary {
                summary_failure = Some(failure);
                continue;
            }
            if self.meta.has_nn && failure.file == nn_file {
                match nn {
                    Some(_) if coded => nn_dirty = true,
                    Some(nn) => self.write_dense(&nn_file, &[nn])?,
                    None => {
                        bitmaps_lost = true;
                        report.unrepaired.push(failure);
                        continue;
                    }
                }
                report.repaired.push(failure.file);
                continue;
            }
            let slots = self.file_slots(&failure.file);
            let bitmaps: Vec<BitVec> = slots
                .iter()
                .map_while(|&(comp, slot)| content(comp, slot).filter(|bm| bm.len() == n_rows))
                .collect();
            if slots.is_empty() || bitmaps.len() != slots.len() {
                bitmaps_lost |= !slots.is_empty();
                report.unrepaired.push(failure);
                continue;
            }
            if coded {
                fixes.extend(
                    slots
                        .into_iter()
                        .zip(bitmaps.into_iter().map(Repr::literal)),
                );
            } else {
                self.write_dense(&failure.file, &bitmaps.iter().collect::<Vec<_>>())?;
            }
            report.repaired.push(failure.file);
        }
        let summarize = (summary_failure.is_some() || nn_dirty) && !bitmaps_lost;
        if summarize {
            report.repaired.push(summary);
        } else {
            report.unrepaired.extend(summary_failure);
        }
        if manifest_dirty {
            report.repaired.push(MANIFEST_FILE.to_string());
        }
        if report.repaired.is_empty() {
            return Ok(report);
        }
        let mut meta = self.meta.clone();
        meta.repairs.extend(report.repaired.iter().cloned());
        if coded {
            let nn = nn.filter(|_| nn_dirty).map(|nn| Repr::literal(nn.clone()));
            self.write_generation(
                meta,
                |comp, slot| fixes.get(&(comp, slot)).cloned(),
                nn.as_ref(),
                summarize,
            )?;
        } else {
            self.commit_manifest(meta, PAPER_VERSION)?;
        }
        Ok(report)
    }

    /// Installs a compacted base as the next generation, atomically.
    ///
    /// The new bitmaps (and optional non-null mask, which also carries
    /// deleted rows as nulls) are written in the current format under
    /// `g{G+1}_`-prefixed names, so nothing the current generation reads is
    /// touched. Each comes in whichever [`Repr`] the caller holds — a
    /// compaction that extended a WAH slot in the run domain hands it over
    /// still compressed — and the files are the same bytes either way. The
    /// single commit point is the manifest rewrite — one
    /// atomic `write_file` that flips generation, scheme (always
    /// bitmap-level after compaction), `wal_applied` watermark, and the
    /// `compacted=` journal line, which replaces the previous one. A crash
    /// strictly before that write leaves the old generation fully intact
    /// (the orphaned `g{G+1}_` files are scavenged on the next open); a
    /// crash after it leaves the new generation committed (stale old files likewise scavenged). There is
    /// no intermediate state in which a reader mixes the two.
    ///
    /// After the commit, old-generation files are garbage-collected and the
    /// WAL is reset through the atomic write path — both best-effort, since
    /// the commit has already happened and reopen repeats the cleanup. The
    /// WAL is only reset when its highest sequence number is covered by
    /// `wal_applied`, so records appended concurrently with a lagging
    /// compaction are never dropped.
    ///
    /// Returns the new generation number.
    pub fn install_generation(
        &mut self,
        components: &[Vec<Repr>],
        nn: Option<&Repr>,
        wal_applied: u64,
    ) -> Result<u64, StorageError> {
        let next = self.meta.generation + 1;
        let mut meta = self.meta.clone().shaped(components, nn, Repr::len);
        meta.scheme = StorageScheme::BitmapLevel;
        meta.generation = next;
        meta.wal_applied = wal_applied;
        meta.compactions = vec![format!("gen{next}:rows={}:wal={wal_applied}", meta.n_rows)];
        // A crash anywhere before the writer's manifest swap leaves orphans;
        // the manifest still names the old base.
        self.write_generation(
            meta,
            |comp, slot| Some(components[comp - 1][slot].clone()),
            nn,
            true,
        )?;
        // Cleanup, best-effort (reopen scavenges whatever this misses —
        // including everything, if the store just crashed).
        self.scavenge_stale_generations();
        if let Ok(data) = self.store.read_file(crate::wal::WAL_FILE) {
            let covered = crate::wal::replay(&data)
                .map(|out| out.records.last().map_or(0, |r| r.seq) <= wal_applied)
                .unwrap_or(true);
            if covered {
                let _ = self
                    .store
                    .write_file(crate::wal::WAL_FILE, &crate::wal::wal_header());
            }
        }
        Ok(next)
    }

    /// Reads `name` with bounded retry, charging the read, its bytes and
    /// every retry (also those of a read that failed in the end) to the
    /// index's counters.
    fn read_file(&self, name: &str) -> Result<Vec<u8>, StorageError> {
        let mut retries = 0;
        let data = read_with_retry(&self.store, name, &mut retries);
        self.stats.retries.fetch_add(retries, Ordering::Relaxed);
        let data = data?;
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        self.stats
            .bytes_read
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(data)
    }

    /// Undoes the store's byte codec on `payload` and hands exactly
    /// `raw_len` dense bytes to `decode`, borrowed from `payload` itself
    /// when nothing is compressed. A payload of any other length is
    /// [`StorageError::Corrupt`]: `decode` indexes by the manifest's
    /// shape, so it must never see a short buffer.
    fn decode_raw<T>(
        &self,
        name: &str,
        payload: &[u8],
        raw_len: usize,
        decode: impl FnOnce(&[u8]) -> T,
    ) -> Result<T, StorageError> {
        if self.meta.codec == CodecKind::None {
            if payload.len() != raw_len {
                return Err(StorageError::corrupt(
                    name,
                    format!("payload holds {} bytes, expected {raw_len}", payload.len()),
                ));
            }
            return Ok(decode(payload));
        }
        let out = self
            .meta
            .codec
            .decompress(payload, raw_len)
            .map_err(|e| StorageError::corrupt(name, e.to_string()))?;
        self.stats
            .bytes_decompressed
            .fetch_add(out.len() as u64, Ordering::Relaxed);
        Ok(decode(&out))
    }
}

/// Total attempts per read, including the first. Permanent errors are
/// never retried.
const MAX_READ_ATTEMPTS: u32 = 3;

/// Reads `name`, retrying transient failures up to [`MAX_READ_ATTEMPTS`]
/// total attempts and counting each retry into `retries`.
fn read_with_retry<S: ByteStore>(
    store: &S,
    name: &str,
    retries: &mut u64,
) -> Result<Vec<u8>, StorageError> {
    let mut attempt = 1;
    loop {
        match store.read_file(name) {
            Ok(data) => return Ok(data),
            Err(e) => {
                let err = StorageError::from(e);
                if err.is_transient() && attempt < MAX_READ_ATTEMPTS {
                    attempt += 1;
                    *retries += 1;
                } else {
                    return Err(err);
                }
            }
        }
    }
}

/// Name of the single index file under the IS scheme.
const INDEX_FILE: &str = "index.bix";
/// Name of the manifest file present under every scheme.
pub(crate) const MANIFEST_FILE: &str = "manifest.bixm";

/// Manifest version of the paper's layouts ([`StoredIndex::create`]).
const PAPER_VERSION: u32 = 2;
/// Manifest version every writer of the current format commits.
const SLOT_CODED_VERSION: u32 = 4;

/// Slot tag: dense bytes, compressed with the store's byte codec.
const SLOT_TAG_LITERAL: u8 = 0;
/// Slot tag: WAH compressed words, operable without decompression.
const SLOT_TAG_WAH: u8 = 1;

/// The encoder behind [`StoredIndex::write_generation`]: every bitmap of a
/// generation passes through one of these, so the summary block is built
/// from exactly the bitmaps whose encodings were emitted (or, in a repair,
/// left in place).
struct SlotEncoder {
    codec: CodecKind,
    /// Slot summaries in component-major order.
    slots: Vec<SlotSummary>,
    nn: Option<SlotSummary>,
}

impl SlotEncoder {
    fn new(codec: CodecKind) -> Self {
        Self {
            codec,
            slots: Vec::new(),
            nn: None,
        }
    }

    /// Records the summary of the next slot, whose stored file stays as
    /// it is.
    fn summarize_slot(&mut self, bm: &Repr) {
        self.slots.push(summarize(bm));
    }

    /// Encodes the next slot's payload and records its summary.
    fn encode_slot(&mut self, bm: &Repr) -> Vec<u8> {
        self.summarize_slot(bm);
        self.payload(bm)
    }

    /// Records the summary of a non-null bitmap whose file stays as it is.
    fn summarize_nn(&mut self, bm: &Repr) {
        self.nn = Some(summarize(bm));
    }

    /// Encodes the non-null bitmap and records its summary.
    fn encode_nn(&mut self, bm: &Repr) -> Vec<u8> {
        self.summarize_nn(bm);
        self.payload(bm)
    }

    /// One bitmap as a slot payload (tag byte + body), keeping the WAH
    /// form iff it is at most a quarter of the dense bytes — a WAH slot is
    /// one the compressed kernels can actually win on. Slots compressing
    /// only marginally (uniform-random bitmaps hover near ratio 0.75–1.0)
    /// stay literal: the modest byte saving does not pay for decompressing
    /// them on every fetch. The rule is computed from whichever form `bm`
    /// is in; a canonical WAH bitmap is the same words
    /// [`WahBitmap::from_bitvec`] gives, so both forms store the same
    /// bytes.
    fn payload(&self, bm: &Repr) -> Vec<u8> {
        let encoded;
        let wah = match bm {
            Repr::Wah(wah) => &**wah,
            Repr::Literal(bits) => {
                encoded = WahBitmap::from_bitvec(bits);
                &encoded
            }
        };
        if wah.compressed_bytes() * 4 <= bm.len().div_ceil(8) {
            let mut out = Vec::with_capacity(1 + wah.compressed_bytes());
            out.push(SLOT_TAG_WAH);
            out.extend_from_slice(&wah.to_bytes());
            out
        } else {
            let mut out = vec![SLOT_TAG_LITERAL];
            out.extend_from_slice(&self.codec.compress(&bm.to_bitvec().to_bytes()));
            out
        }
    }
}

/// A bitmap's window summary, computed from the form it is in: a WAH
/// bitmap from its runs, a dense one from its words.
fn summarize(bm: &Repr) -> SlotSummary {
    match bm {
        Repr::Literal(bits) => SlotSummary::build(bits),
        Repr::Wah(wah) => wah.summary(SUMMARY_WINDOW_BITS),
    }
}

/// Serializes a summary block: fixed header (row count, window width,
/// per-component slot counts `shape`, nn flag) followed by each slot's
/// packed window bits in component-major order, nn summary last. Each
/// summary contributes two equal-sized planes back to back: the
/// "any-bit-set" bits, then the "all-ones" bits.
fn encode_summary_block(
    n_rows: usize,
    shape: &[u32],
    slots: &[SlotSummary],
    nn: Option<&SlotSummary>,
) -> Vec<u8> {
    let mut out = Vec::new();
    out.extend_from_slice(&(n_rows as u64).to_le_bytes());
    out.extend_from_slice(&(SUMMARY_WINDOW_BITS as u32).to_le_bytes());
    out.extend_from_slice(&(shape.len() as u32).to_le_bytes());
    for n_i in shape {
        out.extend_from_slice(&n_i.to_le_bytes());
    }
    out.push(u8::from(nn.is_some()));
    for summary in slots.iter().chain(nn) {
        out.extend_from_slice(&summary.any.to_bytes());
        out.extend_from_slice(&summary.all.to_bytes());
    }
    out
}

/// Parses a summary block payload. `None` on any structural defect —
/// the caller treats that exactly like a missing block.
fn decode_summary_block(payload: &[u8]) -> Option<IndexSummaries> {
    fn take<'a>(p: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
        if p.len() < n {
            return None;
        }
        let (head, tail) = p.split_at(n);
        *p = tail;
        Some(head)
    }
    let mut p = payload;
    let n_rows = u64::from_le_bytes(take(&mut p, 8)?.try_into().ok()?) as usize;
    let window_bits = u32::from_le_bytes(take(&mut p, 4)?.try_into().ok()?) as usize;
    if window_bits == 0 {
        return None;
    }
    let n_components = u32::from_le_bytes(take(&mut p, 4)?.try_into().ok()?) as usize;
    // The remaining payload bounds the believable slot count; reject
    // headers promising more slots than bytes before allocating.
    if n_components > p.len() / 4 {
        return None;
    }
    let mut counts = Vec::with_capacity(n_components);
    for _ in 0..n_components {
        counts.push(u32::from_le_bytes(take(&mut p, 4)?.try_into().ok()?) as usize);
    }
    let has_nn = match take(&mut p, 1)? {
        [0] => false,
        [1] => true,
        _ => return None,
    };
    let windows = SlotSummary::windows_for(n_rows, window_bits);
    // Zero windows leave the body empty, so the length check below would
    // bound no slot count; an empty relation has nothing to prune anyway.
    if windows == 0 {
        return None;
    }
    let bytes_per = windows.div_ceil(8);
    let total_slots = counts.iter().try_fold(0usize, |a, &c| a.checked_add(c))?;
    let n_summaries = total_slots.checked_add(usize::from(has_nn))?;
    // Two equal planes per summary (any + all); a body of any other size
    // is a structural defect.
    let body = n_summaries.checked_mul(bytes_per)?.checked_mul(2)?;
    if p.len() != body {
        return None;
    }
    let read_summary = |p: &mut &[u8]| -> Option<SlotSummary> {
        Some(SlotSummary {
            len: n_rows,
            window_bits,
            any: BitVec::from_bytes(windows, take(p, bytes_per)?),
            all: BitVec::from_bytes(windows, take(p, bytes_per)?),
        })
    };
    let mut slots = Vec::with_capacity(n_components);
    for &count in &counts {
        let mut comp = Vec::with_capacity(count);
        for _ in 0..count {
            comp.push(read_summary(&mut p)?);
        }
        slots.push(comp);
    }
    let nn = if has_nn {
        Some(read_summary(&mut p)?)
    } else {
        None
    };
    Some(IndexSummaries::new(n_rows, window_bits, slots, nn))
}

/// Slot file name for a given base generation. Generation 0 keeps the
/// legacy names so pre-ingest stores stay readable byte-for-byte;
/// compacted generations are `g{G}_`-prefixed so two generations never
/// collide in one store.
fn gen_bitmap_file(generation: u64, comp: usize, slot: usize) -> String {
    if generation == 0 {
        format!("c{comp}_b{slot}.bmp")
    } else {
        format!("g{generation}_c{comp}_b{slot}.bmp")
    }
}

/// Non-null bitmap file name for a given base generation.
fn gen_nn_file(generation: u64) -> String {
    if generation == 0 {
        "nn.bmp".to_string()
    } else {
        format!("g{generation}_nn.bmp")
    }
}

/// Name of the generation-0 summary block file.
const SUMMARY_FILE: &str = "summary.bxs";

/// Summary block file name for a given base generation.
fn summary_file(generation: u64) -> String {
    if generation == 0 {
        SUMMARY_FILE.to_string()
    } else {
        format!("g{generation}_{SUMMARY_FILE}")
    }
}

/// The generation a data file belongs to, or `None` for files outside the
/// data layout (manifest, WAL, strays). Used to scavenge orphans left by
/// a crash between compaction steps.
fn data_file_generation(name: &str) -> Option<u64> {
    let (generation, rest) = match name.strip_prefix('g') {
        Some(tail) => {
            let (num, rest) = tail.split_once('_')?;
            (num.parse().ok()?, rest)
        }
        None => (0, name),
    };
    let is_data = rest == "nn.bmp"
        || rest == SUMMARY_FILE
        || rest == INDEX_FILE
        || parse_slot_name(rest).is_some()
        || parse_component_name(rest).is_some();
    is_data.then_some(generation)
}

/// Parses `c{comp}_b{slot}.bmp`.
fn parse_slot_name(name: &str) -> Option<(usize, usize)> {
    let rest = name.strip_prefix('c')?.strip_suffix(".bmp")?;
    let (comp, slot) = rest.split_once("_b")?;
    Some((comp.parse().ok()?, slot.parse().ok()?))
}

/// Parses `c{comp}.cmp`.
fn parse_component_name(name: &str) -> Option<usize> {
    name.strip_prefix('c')?.strip_suffix(".cmp")?.parse().ok()
}

fn component_file(comp: usize) -> String {
    format!("c{comp}.cmp")
}

/// A data file's name and the `(component, slot)` addresses it holds, in
/// column order.
type DataFile = (String, Vec<(usize, usize)>);

/// The file map of a shaped store: its bitmap files in write order — one
/// slot per file under BS and the current format (named for the
/// manifest's generation), one component per file under CS, every bitmap
/// in one file under IS. The non-null bitmap and the summary block are
/// not in it.
fn data_files(meta: &StoredIndexMeta) -> Box<dyn Iterator<Item = DataFile> + '_> {
    let slots = |ci: usize, n_i: u32| (0..n_i as usize).map(move |slot| (ci + 1, slot));
    let shape = meta.bitmaps_per_component.iter().enumerate();
    let all = shape.clone().flat_map(move |(ci, &n_i)| slots(ci, n_i));
    match meta.scheme {
        StorageScheme::BitmapLevel => Box::new(all.map(|(comp, slot)| {
            (
                gen_bitmap_file(meta.generation, comp, slot),
                vec![(comp, slot)],
            )
        })),
        StorageScheme::ComponentLevel => Box::new(
            shape.map(move |(ci, &n_i)| (component_file(ci + 1), slots(ci, n_i).collect())),
        ),
        StorageScheme::IndexLevel => {
            Box::new(std::iter::once((INDEX_FILE.to_string(), all.collect())))
        }
    }
}

/// Packs `bitmaps` (columns) into a row-major byte buffer: bit
/// `r * width + j` holds bitmap `j`'s bit for row `r`.
fn row_major(bitmaps: &[&BitVec]) -> Vec<u8> {
    let width = bitmaps.len();
    let n_rows = bitmaps.first().map_or(0, |bm| bm.len());
    let mut out = vec![0u8; (n_rows * width).div_ceil(8)];
    for (j, bm) in bitmaps.iter().enumerate() {
        for r in bm.iter_ones() {
            let bit = r * width + j;
            out[bit / 8] |= 1 << (bit % 8);
        }
    }
    out
}

/// Byte length of a row-major file of `width` bitmaps over `n_rows` rows.
/// Both factors come from the manifest, so a product that overflows is a
/// corrupt manifest (named as `file`), not arithmetic to wrap or panic on.
fn row_major_len(file: &str, n_rows: usize, width: usize) -> Result<usize, StorageError> {
    n_rows
        .checked_mul(width)
        .map(|bits| bits.div_ceil(8))
        .ok_or_else(|| {
            StorageError::corrupt(
                file,
                format!("{n_rows} rows x {width} bitmaps overflows the address space"),
            )
        })
}

/// Extracts column `j` from a row-major buffer of `width` bitmaps.
fn extract_column(raw: &[u8], n_rows: usize, width: usize, j: usize) -> BitVec {
    let mut out = BitVec::zeros(n_rows);
    for r in 0..n_rows {
        let bit = r * width + j;
        if raw[bit / 8] & (1 << (bit % 8)) != 0 {
            out.set(r, true);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, FaultStore};
    use crate::store::MemStore;

    /// Two components: 3 bitmaps of 20 rows and 2 bitmaps of 20 rows.
    fn sample_components() -> Vec<Vec<BitVec>> {
        let pat =
            |step: usize, off: usize| BitVec::from_fn(20, move |i| (i + off).is_multiple_of(step));
        vec![
            vec![pat(2, 0), pat(3, 1), pat(5, 2)],
            vec![pat(4, 0), pat(7, 3)],
        ]
    }

    /// `comps` as the dense representations a writer takes.
    fn reprs(comps: &[Vec<BitVec>]) -> Vec<Vec<Repr>> {
        comps
            .iter()
            .map(|c| c.iter().cloned().map(Repr::literal).collect())
            .collect()
    }

    /// `comps`, without nulls, in one of the paper's layouts.
    fn paper_store(
        comps: &[Vec<BitVec>],
        scheme: StorageScheme,
        codec: CodecKind,
    ) -> StoredIndex<MemStore> {
        StoredIndex::create(MemStore::new(), comps, None, scheme, codec).unwrap()
    }

    /// `comps`, without nulls, in the current format.
    fn coded_store(comps: &[Vec<BitVec>], codec: CodecKind) -> StoredIndex<MemStore> {
        StoredIndex::create_v4(MemStore::new(), comps, None, codec).unwrap()
    }

    /// `stored`, reopened after one bit of `name`'s last byte flipped at
    /// rest, behind the index's back.
    fn corrupted(stored: StoredIndex<MemStore>, name: &str) -> StoredIndex<MemStore> {
        let mut store = stored.into_store();
        let mut data = store.read_file(name).unwrap();
        *data.last_mut().unwrap() ^= 0x08;
        store.write_file(name, &data).unwrap();
        StoredIndex::open(store).unwrap()
    }

    fn roundtrip(scheme: StorageScheme, codec: CodecKind) {
        let comps = sample_components();
        let stored = paper_store(&comps, scheme, codec);
        for (ci, comp) in comps.iter().enumerate() {
            for (j, bm) in comp.iter().enumerate() {
                let got = stored.read_bitmap(ci + 1, j).unwrap();
                assert_eq!(&got, bm, "{scheme:?}/{codec:?} comp {} slot {j}", ci + 1);
            }
        }
        assert_eq!(stored.read_nn().unwrap(), None);
        // A non-null bitmap rides along as one more bitmap-level file.
        let nn = BitVec::from_fn(20, |i| i % 6 != 1);
        let store = StoredIndex::create(MemStore::new(), &comps, Some(&nn), scheme, codec)
            .unwrap()
            .into_store();
        let reopened = StoredIndex::open(store).unwrap();
        assert_eq!(
            reopened.read_nn().unwrap(),
            Some(nn),
            "{scheme:?}/{codec:?}"
        );
        assert_eq!(&reopened.read_bitmap(2, 1).unwrap(), &comps[1][1]);
    }

    #[test]
    fn all_schemes_all_codecs_roundtrip() {
        for scheme in SCHEMES {
            for codec in [
                CodecKind::None,
                CodecKind::Rle,
                CodecKind::Lzss,
                CodecKind::Deflate,
            ] {
                roundtrip(scheme, codec);
            }
        }
    }

    #[test]
    fn file_counts_per_scheme() {
        let comps = sample_components();
        let bs = paper_store(&comps, StorageScheme::BitmapLevel, CodecKind::None);
        assert_eq!(bs.store.file_names().unwrap().len(), 6); // 5 bitmaps + manifest
        let cs = paper_store(&comps, StorageScheme::ComponentLevel, CodecKind::None);
        assert_eq!(cs.store.file_names().unwrap().len(), 3); // 2 components + manifest
        let is = paper_store(&comps, StorageScheme::IndexLevel, CodecKind::None);
        assert_eq!(is.store.file_names().unwrap().len(), 2); // index + manifest
    }

    #[test]
    fn io_accounting_reflects_scheme_asymmetry() {
        let comps = sample_components();
        let mut bs = paper_store(&comps, StorageScheme::BitmapLevel, CodecKind::None);
        bs.read_bitmap(1, 0).unwrap();
        let bs_stats = bs.take_stats();
        assert_eq!(bs_stats.reads, 1);
        // ceil(20/8) = 3 payload bytes + 20-byte frame header.
        assert_eq!(bs_stats.bytes_read, 3 + format::HEADER_LEN as u64);

        let mut cs = paper_store(&comps, StorageScheme::ComponentLevel, CodecKind::None);
        cs.read_bitmap(1, 0).unwrap();
        let cs_stats = cs.take_stats();
        // CS reads the whole 20x3-bit component: ceil(60/8) = 8 bytes + header.
        assert_eq!(cs_stats.bytes_read, 8 + format::HEADER_LEN as u64);
        assert!(cs_stats.bytes_read > bs_stats.bytes_read);
    }

    #[test]
    fn decompression_accounted() {
        let comps = sample_components();
        let mut cbs = paper_store(&comps, StorageScheme::BitmapLevel, CodecKind::Lzss);
        cbs.read_bitmap(2, 1).unwrap();
        let s = cbs.take_stats();
        assert_eq!(s.bytes_decompressed, 3);
        assert!(s.bytes_read > 0);
    }

    #[test]
    fn meta_totals() {
        let comps = sample_components();
        let s = paper_store(&comps, StorageScheme::IndexLevel, CodecKind::None);
        assert_eq!(s.meta().total_bitmaps(), 5);
        assert_eq!(s.meta().n_rows, 20);
        // IS file: ceil(20*5/8) = 13 payload bytes + frame header.
        assert_eq!(s.total_stored_bytes(), 13 + format::HEADER_LEN as u64);
    }

    #[test]
    fn open_reloads_without_rebuild() {
        let comps = sample_components();
        let store = {
            let stored = paper_store(&comps, StorageScheme::ComponentLevel, CodecKind::Deflate);
            stored.store
        };
        let reopened = StoredIndex::open(store).unwrap();
        assert_eq!(reopened.meta().n_rows, 20);
        assert_eq!(reopened.meta().bitmaps_per_component, vec![3, 2]);
        assert_eq!(reopened.meta().scheme, StorageScheme::ComponentLevel);
        assert_eq!(reopened.meta().codec, CodecKind::Deflate);
        assert_eq!(reopened.format_version(), 2);
        for (ci, comp) in comps.iter().enumerate() {
            for (j, bm) in comp.iter().enumerate() {
                assert_eq!(&reopened.read_bitmap(ci + 1, j).unwrap(), bm);
            }
        }
    }

    #[test]
    fn manifest_roundtrip_and_rejects_garbage() {
        let meta = StoredIndexMeta {
            n_rows: 12345,
            bitmaps_per_component: vec![7, 1, 4],
            repairs: vec!["c1_b0.bmp".into(), "c3_b2.bmp".into()],
            ..StoredIndexMeta::fresh(StorageScheme::BitmapLevel, CodecKind::Lzss)
        };
        let text = meta.to_manifest(2);
        // Defaulted ingest keys are not emitted: pre-ingest manifests stay
        // byte-identical to what older builds wrote.
        assert!(!text.contains("generation="));
        assert!(!text.contains("wal_applied="));
        assert!(!text.contains("nn="));
        let (parsed, version) = StoredIndexMeta::from_manifest(&text).unwrap();
        assert_eq!(parsed, meta);
        assert_eq!(version, 2);
        assert!(StoredIndexMeta::from_manifest("").is_err());
        assert!(StoredIndexMeta::from_manifest("version=9\n").is_err());
        assert!(StoredIndexMeta::from_manifest(&text.replace("lzss", "zip")).is_err());
        assert!(StoredIndexMeta::from_manifest(&text.replace("scheme=bs", "scheme=qq")).is_err());
        let mut store = MemStore::new();
        store.write_file("other", b"x").unwrap();
        assert!(StoredIndex::open(store).is_err(), "missing manifest");
    }

    #[test]
    fn manifest_roundtrips_ingest_metadata() {
        let meta = StoredIndexMeta {
            n_rows: 64,
            bitmaps_per_component: vec![4],
            generation: 3,
            wal_applied: 17,
            has_nn: true,
            compactions: vec!["gen3:rows=64:wal=17".into()],
            ..StoredIndexMeta::fresh(StorageScheme::BitmapLevel, CodecKind::None)
        };
        let text = meta.to_manifest(3);
        let (parsed, version) = StoredIndexMeta::from_manifest(&text).unwrap();
        assert_eq!(parsed, meta);
        assert_eq!(version, 3);
        assert!(StoredIndexMeta::from_manifest(&text.replace("nn=1", "nn=2")).is_err());
        assert!(
            StoredIndexMeta::from_manifest(&text.replace("generation=3", "generation=x")).is_err()
        );
    }

    #[test]
    fn data_file_generation_classifies_names() {
        assert_eq!(data_file_generation("c1_b0.bmp"), Some(0));
        assert_eq!(data_file_generation("c2.cmp"), Some(0));
        assert_eq!(data_file_generation("index.bix"), Some(0));
        assert_eq!(data_file_generation("nn.bmp"), Some(0));
        assert_eq!(data_file_generation("g7_c1_b0.bmp"), Some(7));
        assert_eq!(data_file_generation("g7_nn.bmp"), Some(7));
        assert_eq!(data_file_generation(SUMMARY_FILE), Some(0));
        assert_eq!(data_file_generation("g7_summary.bxs"), Some(7));
        assert_eq!(data_file_generation(MANIFEST_FILE), None);
        assert_eq!(data_file_generation(crate::wal::WAL_FILE), None);
        assert_eq!(data_file_generation("stray.tmp"), None);
        assert_eq!(data_file_generation("gx_c1_b0.bmp"), None);
    }

    #[test]
    fn install_generation_swaps_base_atomically() {
        let comps = sample_components();
        let mut stored = paper_store(&comps, StorageScheme::BitmapLevel, CodecKind::None);
        // New base: same shape, first bitmap complemented, one nulled row.
        let mut new_comps = comps.clone();
        new_comps[0][0].not_assign();
        let mut nn = BitVec::ones(20);
        nn.set(3, false);
        let generation = stored
            .install_generation(&reprs(&new_comps), Some(&Repr::literal(nn.clone())), 9)
            .unwrap();
        assert_eq!(generation, 1);
        assert_eq!(stored.format_version(), 4);
        assert_eq!(stored.meta().generation, 1);
        assert_eq!(stored.meta().wal_applied, 9);
        assert!(stored.meta().has_nn);
        assert_eq!(stored.meta().compactions, vec!["gen1:rows=20:wal=9"]);
        for (ci, comp) in new_comps.iter().enumerate() {
            for (j, bm) in comp.iter().enumerate() {
                assert_eq!(&stored.read_bitmap(ci + 1, j).unwrap(), bm);
            }
        }
        assert_eq!(stored.read_nn().unwrap(), Some(nn.clone()));
        // Old-generation files are gone; a reopen sees only the new base.
        let store = stored.into_store();
        assert!(store.read_file("c1_b0.bmp").is_err());
        let mut reopened = StoredIndex::open(store).unwrap();
        assert_eq!(reopened.meta().generation, 1);
        assert_eq!(reopened.read_nn().unwrap(), Some(nn));
        assert_eq!(&reopened.read_bitmap(1, 0).unwrap(), &new_comps[0][0]);
        assert!(reopened.scrub().unwrap().is_clean());
    }

    #[test]
    fn open_scavenges_orphaned_generation_files() {
        let comps = sample_components();
        let stored = paper_store(&comps, StorageScheme::BitmapLevel, CodecKind::None);
        let mut store = stored.into_store();
        // Simulate a crash mid-compaction: new-generation files written,
        // manifest never swapped.
        store
            .write_file("g1_c1_b0.bmp", &format::frame(b"orphan"))
            .unwrap();
        store
            .write_file("g1_nn.bmp", &format::frame(b"orphan"))
            .unwrap();
        let mut reopened = StoredIndex::open(store).unwrap();
        assert_eq!(reopened.meta().generation, 0);
        assert!(reopened.store().read_file("g1_c1_b0.bmp").is_err());
        assert!(reopened.store().read_file("g1_nn.bmp").is_err());
        assert!(reopened.scrub().unwrap().is_clean());
        assert_eq!(&reopened.read_bitmap(1, 0).unwrap(), &comps[0][0]);
    }

    #[test]
    fn total_bytes_excludes_manifest() {
        let comps = sample_components();
        let s = paper_store(&comps, StorageScheme::IndexLevel, CodecKind::None);
        // IS file alone: ceil(20*5/8) = 13 payload bytes + frame header.
        assert_eq!(s.total_stored_bytes(), 13 + format::HEADER_LEN as u64);
    }

    #[test]
    fn bad_slot_is_typed_error() {
        let comps = sample_components();
        let s = paper_store(&comps, StorageScheme::BitmapLevel, CodecKind::None);
        assert!(matches!(
            s.read_bitmap(1, 3),
            Err(StorageError::InvalidSlot { comp: 1, slot: 3 })
        ));
        assert!(matches!(
            s.read_bitmap(0, 0),
            Err(StorageError::InvalidSlot { comp: 0, slot: 0 })
        ));
        assert!(matches!(
            s.read_bitmap(7, 0),
            Err(StorageError::InvalidSlot { comp: 7, slot: 0 })
        ));
    }

    const SCHEMES: [StorageScheme; 3] = [
        StorageScheme::BitmapLevel,
        StorageScheme::ComponentLevel,
        StorageScheme::IndexLevel,
    ];

    /// Version-1 stores (unframed files, plain-text manifest) are no longer
    /// read: the manifest — unframed as v1 wrote it, or framed by hand —
    /// is a typed error at open, never a panic or a misread store.
    #[test]
    fn version_1_manifests_are_corrupt_not_a_panic() {
        let comps = sample_components();
        for scheme in SCHEMES {
            let stored = paper_store(&comps, scheme, CodecKind::None);
            let v1 = stored.meta().to_manifest(1);
            let mut store = stored.into_store();
            for manifest in [v1.as_bytes().to_vec(), format::frame(v1.as_bytes())] {
                store.write_file(MANIFEST_FILE, &manifest).unwrap();
                assert!(
                    matches!(
                        StoredIndex::open(store.clone()),
                        Err(StorageError::Corrupt { .. })
                    ),
                    "{scheme:?}"
                );
            }
        }
    }

    /// A validly framed manifest whose row count makes the row-major file
    /// length overflow: open must reject it, not wrap `raw_len` to 0 and
    /// allocate 2^62 bits for the column on the first read.
    #[test]
    fn manifest_shape_overflow_is_corrupt_at_open() {
        for scheme in ["cs", "is"] {
            let manifest = format!(
                "version=2\nn_rows=4611686018427387904\nscheme={scheme}\ncodec=none\ncomponents=8\n"
            );
            let mut store = MemStore::new();
            store
                .write_file(MANIFEST_FILE, &format::frame(manifest.as_bytes()))
                .unwrap();
            store.write_file("c1.cmp", &format::frame(&[])).unwrap();
            store.write_file(INDEX_FILE, &format::frame(&[])).unwrap();
            assert!(
                matches!(StoredIndex::open(store), Err(StorageError::Corrupt { .. })),
                "{scheme}"
            );
        }
    }

    #[test]
    fn concurrent_reads_account_every_read() {
        let comps = sample_components();
        let stored = paper_store(&comps, StorageScheme::BitmapLevel, CodecKind::None);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let stored = &stored;
                scope.spawn(move || {
                    for slot in 0..2 {
                        stored.read_bitmap(1, slot).unwrap();
                        stored.read_repr(2, slot).unwrap();
                    }
                });
            }
        });
        assert_eq!(stored.stats().reads, 16);
    }

    /// A correctly framed payload of the wrong length (a v2 file rewritten
    /// with a valid checksum over too few bytes) is just as corrupt.
    #[test]
    fn framed_payload_of_wrong_length_is_corrupt() {
        let comps = sample_components();
        for scheme in SCHEMES {
            let mut store = paper_store(&comps, scheme, CodecKind::None).into_store();
            for name in store.file_names().unwrap() {
                if name != MANIFEST_FILE {
                    store.write_file(&name, &format::frame(&[0xFF])).unwrap();
                }
            }
            let stored = StoredIndex::open(store).unwrap();
            assert!(
                matches!(stored.read_bitmap(1, 0), Err(StorageError::Corrupt { .. })),
                "{scheme:?}"
            );
        }
    }

    /// Bytes recorded from the commit before the CRC and bytes↔words
    /// kernels were rewritten: a v4 literal slot file (frame header, tag
    /// byte, dense bytes) must stay byte-identical, so stored size per row
    /// cannot move.
    #[test]
    fn v4_slot_file_bytes_are_frozen() {
        let bm = BitVec::from_fn(300, |i| i % 3 == 0 || i % 7 == 1);
        let stored =
            StoredIndex::create_v4(MemStore::new(), &[vec![bm]], None, CodecKind::None).unwrap();
        assert_eq!(
            stored.store().read_file("c1_b0.bmp").unwrap(),
            [
                66, 73, 88, 70, 2, 0, 0, 0, 39, 0, 0, 0, 0, 0, 0, 0, 120, 103, 196, 243, 0, 75,
                147, 100, 105, 146, 44, 77, 146, 165, 73, 178, 52, 73, 150, 38, 201, 210, 36, 89,
                154, 36, 75, 147, 100, 105, 146, 44, 77, 146, 165, 73, 178, 52, 73, 150, 38, 201,
                2
            ]
        );
    }

    #[test]
    fn corruption_is_reported_not_returned() {
        let comps = sample_components();
        let stored = paper_store(&comps, StorageScheme::BitmapLevel, CodecKind::None);
        let mut reopened = corrupted(stored, "c1_b0.bmp");
        match reopened.read_bitmap(1, 0) {
            Err(StorageError::ChecksumMismatch { file, .. }) => assert_eq!(file, "c1_b0.bmp"),
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
        // Other bitmaps are unaffected.
        assert!(reopened.read_bitmap(1, 1).is_ok());
        // Scrub pinpoints exactly the corrupt file.
        let report = reopened.scrub().unwrap();
        assert_eq!(report.files_checked, 6);
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].file, "c1_b0.bmp");
    }

    #[test]
    fn truncation_is_a_clean_error() {
        let comps = sample_components();
        let stored = paper_store(&comps, StorageScheme::IndexLevel, CodecKind::None);
        let mut store = stored.into_store();
        let data = store.read_file(INDEX_FILE).unwrap();
        store
            .write_file(INDEX_FILE, &data[..data.len() / 2])
            .unwrap();
        let reopened = StoredIndex::open(store).unwrap();
        assert!(matches!(
            reopened.read_bitmap(1, 0),
            Err(StorageError::Corrupt { .. })
        ));
    }

    #[test]
    fn file_slots_maps_every_scheme() {
        let comps = sample_components();
        let bs = paper_store(&comps, StorageScheme::BitmapLevel, CodecKind::None);
        assert_eq!(bs.file_slots("c2_b1.bmp"), vec![(2, 1)]);
        assert_eq!(bs.file_slots(MANIFEST_FILE), vec![]);
        assert_eq!(bs.file_slots("stray.tmp"), vec![]);
        let cs = paper_store(&comps, StorageScheme::ComponentLevel, CodecKind::None);
        assert_eq!(cs.file_slots("c1.cmp"), vec![(1, 0), (1, 1), (1, 2)]);
        let is = paper_store(&comps, StorageScheme::IndexLevel, CodecKind::None);
        assert_eq!(
            is.file_slots(INDEX_FILE),
            vec![(1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]
        );
    }

    #[test]
    fn scrub_and_repair_restores_corrupt_files_and_journals() {
        for scheme in SCHEMES {
            let comps = sample_components();
            let stored = paper_store(&comps, scheme, CodecKind::Deflate);
            // Corrupt one payload byte of the first data file.
            let names = stored.store().file_names().unwrap();
            let name = names.into_iter().find(|n| n != MANIFEST_FILE).unwrap();
            let mut stored = corrupted(stored, &name);
            let report = stored
                .scrub_and_repair(|comp, slot| Some(comps[comp - 1][slot].clone()), None)
                .unwrap();
            assert_eq!(report.repaired, vec![name.clone()], "{scheme:?}");
            assert!(report.fully_repaired(), "{scheme:?}");
            assert!(stored.scrub().unwrap().is_clean(), "{scheme:?}");
            // A fresh open reads every bitmap clean and sees the journal.
            let reopened = StoredIndex::open(stored.into_store()).unwrap();
            assert_eq!(reopened.meta().repairs, vec![name], "{scheme:?}");
            for (ci, comp) in comps.iter().enumerate() {
                for (j, bm) in comp.iter().enumerate() {
                    assert_eq!(&reopened.read_bitmap(ci + 1, j).unwrap(), bm, "{scheme:?}");
                }
            }
        }
    }

    #[test]
    fn unrepairable_files_are_reported_not_failed() {
        let comps = sample_components();
        let stored = paper_store(&comps, StorageScheme::BitmapLevel, CodecKind::None);
        let mut store = stored.into_store();
        let mut data = store.read_file("c1_b0.bmp").unwrap();
        data[0] ^= 0xFF;
        store.write_file("c1_b0.bmp", &data).unwrap();
        let mut stored = StoredIndex::open(store).unwrap();
        // A provider with nothing to offer leaves the file corrupt.
        let report = stored.scrub_and_repair(|_, _| None, None).unwrap();
        assert!(report.repaired.is_empty());
        assert_eq!(report.unrepaired.len(), 1);
        assert_eq!(report.unrepaired[0].file, "c1_b0.bmp");
        assert!(!report.fully_repaired());
        assert!(!stored.scrub().unwrap().is_clean());
        // No repair happened, so nothing was journaled.
        assert!(stored.meta().repairs.is_empty());
    }

    #[test]
    fn transient_faults_are_retried_within_policy() {
        let comps = sample_components();
        let store = paper_store(&comps, StorageScheme::BitmapLevel, CodecKind::None).into_store();
        // Two transient failures, then success: within the default 3 attempts.
        let faulty = FaultStore::new(store, FaultPlan::new(5).with_transient_reads("c1_b0", 2));
        let stored = StoredIndex::open(faulty).unwrap();
        let bm = stored.read_bitmap(1, 0).unwrap();
        assert_eq!(&bm, &comps[0][0]);
        assert_eq!(stored.stats().retries, 2);

        // Three failures exceed the default policy: the error propagates.
        let store2 = paper_store(&comps, StorageScheme::BitmapLevel, CodecKind::None).into_store();
        let faulty2 = FaultStore::new(store2, FaultPlan::new(5).with_transient_reads("c1_b0", 3));
        let stored2 = StoredIndex::open(faulty2).unwrap();
        let err = stored2.read_bitmap(1, 0).unwrap_err();
        assert!(err.is_transient());
        // A follow-up read succeeds (the budget is spent).
        assert!(stored2.read_bitmap(1, 0).is_ok());
    }

    /// Wide bitmaps where the per-slot heuristic actually diverges: a very
    /// sparse column (WAH wins) next to a dense pseudo-random one (dense
    /// bytes win).
    fn mixed_density_components() -> Vec<Vec<BitVec>> {
        let n = 4096;
        vec![vec![
            BitVec::from_fn(n, |i| i % 1000 == 0),
            BitVec::from_fn(n, |i| (i.wrapping_mul(2_654_435_761)) % 3 == 0),
            BitVec::zeros(n),
        ]]
    }

    #[test]
    fn slot_coding_roundtrips_and_reopens() {
        let comps = mixed_density_components();
        for codec in [CodecKind::None, CodecKind::Deflate] {
            let stored = coded_store(&comps, codec);
            assert_eq!(stored.format_version(), 4);
            let reopened = StoredIndex::open(stored.into_store()).unwrap();
            assert_eq!(reopened.format_version(), 4);
            for (j, bm) in comps[0].iter().enumerate() {
                assert_eq!(
                    &reopened.read_bitmap(1, j).unwrap(),
                    bm,
                    "{codec:?} slot {j}"
                );
            }
        }
    }

    #[test]
    fn read_repr_keeps_sparse_slots_compressed() {
        let comps = mixed_density_components();
        let stored = coded_store(&comps, CodecKind::None);
        let sparse = stored.read_repr(1, 0).unwrap();
        assert!(sparse.is_compressed(), "sparse slot should stay WAH");
        let dense = stored.read_repr(1, 1).unwrap();
        assert!(!dense.is_compressed(), "dense slot should be literal");
        let empty = stored.read_repr(1, 2).unwrap();
        assert!(empty.is_compressed(), "all-zeros slot should stay WAH");
        for (j, bm) in comps[0].iter().enumerate() {
            assert_eq!(*stored.read_repr(1, j).unwrap().to_bitvec(), *bm);
        }
        // WAH slot reads cost no codec decompression.
        let mut fresh = StoredIndex::open(stored.into_store()).unwrap();
        fresh.read_repr(1, 0).unwrap();
        assert_eq!(fresh.stats().bytes_decompressed, 0);
        // Materializing the same slot through read_bitmap does.
        fresh.read_bitmap(1, 0).unwrap();
        assert!(fresh.take_stats().bytes_decompressed > 0);
    }

    #[test]
    fn slot_coding_stores_sparse_slots_smaller_than_the_paper_layout() {
        let comps = mixed_density_components();
        let v2 = paper_store(&comps, StorageScheme::BitmapLevel, CodecKind::None);
        let coded = coded_store(&comps, CodecKind::None);
        assert!(coded.total_stored_bytes() < v2.total_stored_bytes());
    }

    #[test]
    fn scrub_and_repair_preserves_slot_coding() {
        let comps = mixed_density_components();
        let stored = coded_store(&comps, CodecKind::Deflate);
        let mut stored = corrupted(stored, "c1_b0.bmp");
        assert!(stored.read_repr(1, 0).is_err());
        let report = stored
            .scrub_and_repair(|comp, slot| Some(comps[comp - 1][slot].clone()), None)
            .unwrap();
        assert_eq!(report.repaired, vec!["c1_b0.bmp".to_string()]);
        // The repaired slot is WAH again — not silently rewritten dense.
        let repr = stored.read_repr(1, 0).unwrap();
        assert!(repr.is_compressed());
        assert_eq!(*repr.to_bitvec(), comps[0][0]);
        // Reopen sees the same format and the repair journal.
        let reopened = StoredIndex::open(stored.into_store()).unwrap();
        assert_eq!(reopened.format_version(), 4);
        assert_eq!(reopened.meta().repairs, vec!["c1_b0.bmp".to_string()]);
    }

    #[test]
    fn pre_v3_read_repr_is_always_literal() {
        let comps = sample_components();
        let v2 = paper_store(&comps, StorageScheme::ComponentLevel, CodecKind::Rle);
        let repr = v2.read_repr(1, 2).unwrap();
        assert!(!repr.is_compressed());
        assert_eq!(*repr.to_bitvec(), comps[0][2]);
    }

    /// Components wide enough to span several summary windows, with one
    /// slot dead over a whole window range.
    fn windowed_components() -> Vec<Vec<BitVec>> {
        let n = 4 * SUMMARY_WINDOW_BITS + 100;
        vec![
            vec![
                // Live only in the first window.
                BitVec::from_indices(n, &[5, 6, 7]),
                // Live only in the last (partial) window.
                BitVec::from_indices(n, &[4 * SUMMARY_WINDOW_BITS + 50]),
                BitVec::zeros(n),
            ],
            vec![BitVec::from_fn(n, |i| i.is_multiple_of(3))],
        ]
    }

    #[test]
    fn v4_roundtrips_and_serves_validated_summaries() {
        let comps = windowed_components();
        let stored = coded_store(&comps, CodecKind::None);
        assert_eq!(stored.format_version(), 4);
        let reopened = StoredIndex::open(stored.into_store()).unwrap();
        assert_eq!(reopened.format_version(), 4);
        for (ci, comp) in comps.iter().enumerate() {
            for (j, bm) in comp.iter().enumerate() {
                assert_eq!(&reopened.read_bitmap(ci + 1, j).unwrap(), bm);
            }
        }
        let summaries = reopened.read_summaries().expect("v4 store has summaries");
        assert_eq!(summaries.n_rows(), comps[0][0].len());
        assert_eq!(summaries.slots_per_component(), vec![3, 1]);
        let s = summaries.get(1, 0).unwrap();
        assert!(s.range_any(0, SUMMARY_WINDOW_BITS));
        assert!(!s.range_any(SUMMARY_WINDOW_BITS, 4 * SUMMARY_WINDOW_BITS + 100));
        let tail = summaries.get(1, 1).unwrap();
        assert!(!tail.range_any(0, 4 * SUMMARY_WINDOW_BITS));
        assert!(tail.range_any(4 * SUMMARY_WINDOW_BITS, 4 * SUMMARY_WINDOW_BITS + 100));
        assert!(!summaries.get(1, 2).unwrap().range_any(0, usize::MAX));
        assert!(summaries.get(2, 0).unwrap().range_any(0, 3));
        // The second call serves the cached block without new I/O.
        let before = reopened.stats().reads;
        let again = reopened.read_summaries().unwrap();
        assert!(Arc::ptr_eq(&summaries, &again));
        assert_eq!(reopened.stats().reads, before);
    }

    /// A one-bit slot (stored WAH) beside a dense one (stored literal).
    fn fixture_components() -> Vec<Vec<BitVec>> {
        vec![vec![
            BitVec::from_indices(300, &[299]),
            BitVec::from_fn(300, |i| i % 3 == 0 || i % 7 == 1),
        ]]
    }

    /// The files the commit before this writer existed stored for
    /// [`fixture_components`]: the two slots and their summary block.
    const FIXTURE_FILES: [&[u8]; 3] = [
        &[
            66, 73, 88, 70, 2, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0, 5, 185, 25, 21, 1, 9, 0, 0, 128, 0,
            0, 16, 0,
        ],
        &[
            66, 73, 88, 70, 2, 0, 0, 0, 39, 0, 0, 0, 0, 0, 0, 0, 120, 103, 196, 243, 0, 75, 147,
            100, 105, 146, 44, 77, 146, 165, 73, 178, 52, 73, 150, 38, 201, 210, 36, 89, 154, 36,
            75, 147, 100, 105, 146, 44, 77, 146, 165, 73, 178, 52, 73, 150, 38, 201, 2,
        ],
        &[
            66, 73, 88, 70, 2, 0, 0, 0, 25, 0, 0, 0, 0, 0, 0, 0, 235, 182, 72, 1, 44, 1, 0, 0, 0,
            0, 0, 0, 0, 128, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 0, 1, 0, 1, 0,
        ],
    ];
    const FIXTURE_SHAPE: &str = "n_rows=300\nscheme=bs\ncodec=none\ncomponents=2\n";

    /// For an index without nulls, build and a first compaction write the
    /// file names and bytes they wrote before they shared a writer.
    #[test]
    fn null_free_build_and_first_compaction_write_frozen_files() {
        let comps = fixture_components();
        let frozen = |stored: &StoredIndex<MemStore>, prefix: &str, manifest: String| {
            let store = stored.store();
            let names = ["c1_b0.bmp", "c1_b1.bmp", SUMMARY_FILE];
            for (name, bytes) in names.iter().zip(FIXTURE_FILES) {
                assert_eq!(store.read_file(&format!("{prefix}{name}")).unwrap(), bytes);
            }
            assert_eq!(store.file_names().unwrap().len(), 4, "and the manifest");
            let data = store.read_file(MANIFEST_FILE).unwrap();
            let text = format::unframe(MANIFEST_FILE, &data).unwrap();
            assert_eq!(text, manifest.as_bytes());
        };
        let mut stored = coded_store(&comps, CodecKind::None);
        frozen(&stored, "", format!("version=4\n{FIXTURE_SHAPE}"));
        stored.install_generation(&reprs(&comps), None, 3).unwrap();
        let journal = "generation=1\nwal_applied=3\ncompacted=gen1:rows=300:wal=3\n";
        frozen(
            &stored,
            "g1_",
            format!("version=4\n{FIXTURE_SHAPE}{journal}"),
        );
    }

    /// The compaction journal holds the latest generation only: a hundred
    /// compactions leave one `compacted=` line, and a manifest an older
    /// build wrote with a line per compaction opens with the last one and
    /// writes just that one on its next commit.
    #[test]
    fn compaction_journal_keeps_only_the_latest_entry() {
        let comps = fixture_components();
        let journal_lines = |store: &MemStore| {
            let data = store.read_file(MANIFEST_FILE).unwrap();
            let text = format::unframe(MANIFEST_FILE, &data).unwrap();
            std::str::from_utf8(text)
                .unwrap()
                .matches("compacted=")
                .count()
        };
        let mut stored = coded_store(&comps, CodecKind::None);
        for wal in 1..=100 {
            stored
                .install_generation(&reprs(&comps), None, wal)
                .unwrap();
        }
        assert_eq!(stored.meta().compactions.len(), 1);
        let mut store = StoredIndex::open(stored.into_store()).unwrap().into_store();
        assert_eq!(journal_lines(&store), 1);

        let manifest = format!(
            "version=4\n{FIXTURE_SHAPE}generation=100\nwal_applied=100\n\
             compacted=gen99:rows=300:wal=99\ncompacted=gen100:rows=300:wal=100\n"
        );
        store
            .write_file(MANIFEST_FILE, &format::frame(manifest.as_bytes()))
            .unwrap();
        let mut legacy = StoredIndex::open(store).unwrap();
        assert_eq!(legacy.meta().compactions, vec!["gen100:rows=300:wal=100"]);
        legacy
            .install_generation(&reprs(&comps), None, 101)
            .unwrap();
        assert_eq!(legacy.meta().compactions, vec!["gen101:rows=300:wal=101"]);
        assert_eq!(journal_lines(legacy.store()), 1);
    }

    /// A store written before the summary block existed — a `version=3`
    /// manifest and the same slot files — is the current format with the
    /// block absent: it opens, answers in the stored representation,
    /// degrades to no summaries, and its first compaction upgrades it.
    #[test]
    fn version_3_manifest_opens_as_the_current_format_without_summaries() {
        let comps = fixture_components();
        let mut store = MemStore::new();
        let manifest = format!("version=3\n{FIXTURE_SHAPE}");
        store
            .write_file(MANIFEST_FILE, &format::frame(manifest.as_bytes()))
            .unwrap();
        store.write_file("c1_b0.bmp", FIXTURE_FILES[0]).unwrap();
        store.write_file("c1_b1.bmp", FIXTURE_FILES[1]).unwrap();
        let mut stored = StoredIndex::open(store).unwrap();
        assert_eq!(stored.format_version(), 3);
        assert!(stored.read_repr(1, 0).unwrap().is_compressed());
        assert!(!stored.read_repr(1, 1).unwrap().is_compressed());
        for (j, bm) in comps[0].iter().enumerate() {
            assert_eq!(&stored.read_bitmap(1, j).unwrap(), bm, "slot {j}");
        }
        assert!(stored.read_summaries().is_none());
        assert!(stored.scrub().unwrap().is_clean());
        stored.install_generation(&reprs(&comps), None, 0).unwrap();
        assert_eq!(stored.format_version(), 4);
        assert!(stored.read_summaries().is_some());
        let reopened = StoredIndex::open(stored.into_store()).unwrap();
        assert_eq!(reopened.format_version(), 4);
        assert_eq!(&reopened.read_bitmap(1, 0).unwrap(), &comps[0][0]);
    }

    #[test]
    fn corrupt_summary_degrades_to_none_and_repairs() {
        let comps = windowed_components();
        let stored = coded_store(&comps, CodecKind::None);
        let mut stored = corrupted(stored, SUMMARY_FILE);
        // Corrupt block: no summaries, but every bitmap still reads clean.
        assert!(stored.read_summaries().is_none());
        assert_eq!(&stored.read_bitmap(1, 0).unwrap(), &comps[0][0]);
        let report = stored.scrub().unwrap();
        assert_eq!(report.failures.len(), 1);
        assert_eq!(report.failures[0].file, SUMMARY_FILE);
        // Repair rebuilds the block from the stored slots — no caller
        // content needed — and the summaries come back validated.
        let report = stored.scrub_and_repair(|_, _| None, None).unwrap();
        assert_eq!(report.repaired, vec![SUMMARY_FILE.to_string()]);
        assert!(report.fully_repaired(), "{report:?}");
        assert!(stored.scrub().unwrap().is_clean());
        let summaries = stored.read_summaries().expect("repaired summaries");
        assert!(!summaries.get(1, 2).unwrap().range_any(0, usize::MAX));
        let reopened = StoredIndex::open(stored.into_store()).unwrap();
        assert_eq!(reopened.meta().repairs, vec![SUMMARY_FILE.to_string()]);
    }

    /// A corrupt non-null bitmap is a file like any other: rewritten from
    /// the caller's copy (in the current format together with the summary
    /// block, whose last entry describes it), reported when there is none.
    #[test]
    fn corrupt_nn_is_rewritten_from_the_callers_copy() {
        let comps = windowed_components();
        let nn = BitVec::from_fn(comps[0][0].len(), |i| i % 1000 != 3);
        for coded in [false, true] {
            let stored = if coded {
                StoredIndex::create_v4(MemStore::new(), &comps, Some(&nn), CodecKind::None)
            } else {
                let scheme = StorageScheme::ComponentLevel;
                StoredIndex::create(MemStore::new(), &comps, Some(&nn), scheme, CodecKind::None)
            }
            .unwrap();
            let repr = stored.read_nn_repr().unwrap().expect("has_nn");
            assert_eq!(repr.is_compressed(), coded);
            let mut stored = corrupted(stored, "nn.bmp");
            let unreadable = stored.read_nn().unwrap_err();
            assert!(matches!(unreadable, StorageError::ChecksumMismatch { .. }));
            let report = stored.scrub_and_repair(|_, _| None, None).unwrap();
            assert!(report.repaired.is_empty(), "{report:?}");
            assert_eq!(report.unrepaired[0].file, "nn.bmp");
            let report = stored.scrub_and_repair(|_, _| None, Some(&nn)).unwrap();
            let mut rewritten = vec!["nn.bmp".to_string()];
            rewritten.extend(coded.then(|| SUMMARY_FILE.to_string()));
            assert_eq!(report.repaired, rewritten);
            assert!(report.fully_repaired(), "{report:?}");
            assert!(stored.scrub().unwrap().is_clean());
            assert_eq!(stored.read_nn().unwrap().as_ref(), Some(&nn));
            assert_eq!(stored.meta().repairs, rewritten);
            let summaries = stored.read_summaries();
            assert_eq!(summaries.is_some(), coded);
            if let Some(summaries) = summaries {
                assert_eq!(summaries.nn(), Some(&SlotSummary::build(&nn)));
                assert_eq!(summaries.get(2, 0), Some(&SlotSummary::build(&comps[1][0])));
            }
        }
    }

    #[test]
    fn mismatched_summary_shape_is_rejected() {
        let comps = windowed_components();
        let stored = coded_store(&comps, CodecKind::None);
        let mut store = stored.into_store();
        // A validly framed block whose shape disagrees with the manifest
        // (one component, one slot) must not be served.
        let wrong = encode_summary_block(
            comps[0][0].len(),
            &[1],
            &[SlotSummary::build(&comps[0][0])],
            None,
        );
        store
            .write_file(SUMMARY_FILE, &format::frame(&wrong))
            .unwrap();
        let stored = StoredIndex::open(store).unwrap();
        assert!(stored.read_summaries().is_none());
    }

    #[test]
    fn summary_block_decoder_rejects_structural_garbage() {
        assert!(decode_summary_block(&[]).is_none());
        assert!(decode_summary_block(&[0u8; 16]).is_none());
        let ones = SlotSummary::build(&BitVec::ones(100));
        let zeros = SlotSummary::build(&BitVec::zeros(100));
        let good = encode_summary_block(100, &[1], std::slice::from_ref(&ones), Some(&zeros));
        let decoded = decode_summary_block(&good).unwrap();
        assert_eq!(decoded.n_rows(), 100);
        // Both planes round-trip.
        assert_eq!(decoded.get(1, 0).unwrap(), &ones);
        assert!(decoded.get(1, 0).unwrap().range_all(0, 100));
        assert!(!decoded.nn().unwrap().range_any(0, 100));
        // Truncated and padded bodies both fail the exact-length check.
        assert!(decode_summary_block(&good[..good.len() - 1]).is_none());
        let mut padded = good.clone();
        padded.push(0);
        assert!(decode_summary_block(&padded).is_none());
        // So does a body of one plane per summary, which no writer produces.
        let plane = ones.any.to_bytes().len();
        assert!(decode_summary_block(&good[..good.len() - 2 * plane]).is_none());
        // A zero window width cannot be divided by.
        let mut zero_window = good;
        zero_window[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(decode_summary_block(&zero_window).is_none());
    }

    #[test]
    fn summary_block_of_zero_windows_is_absent() {
        let comps = windowed_components();
        let stored = coded_store(&comps, CodecKind::None);
        let mut store = stored.into_store();
        // A correctly framed 21-byte block: `n_rows = 0`, one component of
        // `u32::MAX` slots. Zero windows make its body empty, so no length
        // check bounds the slot count.
        let mut block = 0u64.to_le_bytes().to_vec();
        block.extend_from_slice(&(SUMMARY_WINDOW_BITS as u32).to_le_bytes());
        block.extend_from_slice(&1u32.to_le_bytes());
        block.extend_from_slice(&u32::MAX.to_le_bytes());
        block.push(0);
        assert_eq!(block.len(), 21);
        store
            .write_file(SUMMARY_FILE, &format::frame(&block))
            .unwrap();
        let stored = StoredIndex::open(store).unwrap();
        assert!(stored.read_summaries().is_none());
    }

    #[test]
    fn install_generation_writes_next_summary_block() {
        let comps = windowed_components();
        let mut stored = coded_store(&comps, CodecKind::None);
        // Warm the cache so installation must invalidate it.
        assert!(stored.read_summaries().is_some());
        let mut new_comps = comps.clone();
        new_comps[0][2] = BitVec::from_indices(comps[0][0].len(), &[2 * SUMMARY_WINDOW_BITS + 9]);
        stored
            .install_generation(&reprs(&new_comps), None, 1)
            .unwrap();
        assert_eq!(stored.format_version(), 4);
        let summaries = stored.read_summaries().expect("fresh generation summaries");
        let s = summaries.get(1, 2).unwrap();
        assert!(s.range_any(2 * SUMMARY_WINDOW_BITS, 3 * SUMMARY_WINDOW_BITS));
        assert!(!s.range_any(0, 2 * SUMMARY_WINDOW_BITS));
        // The old generation-0 summary block is scavenged with its slots.
        assert!(stored.store().read_file(SUMMARY_FILE).is_err());
        assert!(stored.store().read_file("g1_summary.bxs").is_ok());
        assert!(stored.scrub().unwrap().is_clean());
    }

    #[test]
    fn slot_payload_rejects_unknown_tag_and_bad_wah() {
        let comps = mixed_density_components();
        let stored = coded_store(&comps, CodecKind::None);
        let mut store = stored.into_store();
        // Rewrite the sparse slot with an unknown tag, properly framed so
        // only the tag dispatch can object.
        store
            .write_file("c1_b0.bmp", &format::frame(&[9u8, 0, 0, 0, 0]))
            .unwrap();
        let stored = StoredIndex::open(store).unwrap();
        match stored.read_repr(1, 0) {
            Err(StorageError::Corrupt { file, .. }) => assert_eq!(file, "c1_b0.bmp"),
            other => panic!("expected corrupt, got {other:?}"),
        }
        // A WAH tag with a malformed body is also a clean typed error.
        let mut store = stored.into_store();
        store
            .write_file("c1_b0.bmp", &format::frame(&[SLOT_TAG_WAH, 1, 2, 3]))
            .unwrap();
        let stored = StoredIndex::open(store).unwrap();
        assert!(matches!(
            stored.read_repr(1, 0),
            Err(StorageError::Corrupt { .. })
        ));
    }
}
