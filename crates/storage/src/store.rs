//! Byte stores: named flat files in memory or on disk, with I/O statistics.

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative I/O statistics of a stored index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoStats {
    /// Number of file reads issued.
    pub reads: u64,
    /// Bytes read from the store (compressed size when compressed).
    pub bytes_read: u64,
    /// Bytes produced by decompression (0 for uncompressed files).
    pub bytes_decompressed: u64,
    /// Reads retried after a transient failure (fault tolerance layer).
    pub retries: u64,
}

impl IoStats {
    /// Accumulates another stats record.
    pub fn add(&mut self, other: &IoStats) {
        self.reads += other.reads;
        self.bytes_read += other.bytes_read;
        self.bytes_decompressed += other.bytes_decompressed;
        self.retries += other.retries;
    }
}

/// A flat namespace of byte files.
pub trait ByteStore {
    /// Writes (or replaces) a file.
    fn write_file(&mut self, name: &str, data: &[u8]) -> io::Result<()>;
    /// Reads a whole file.
    fn read_file(&self, name: &str) -> io::Result<Vec<u8>>;
    /// Size of a file in bytes.
    fn file_size(&self, name: &str) -> io::Result<u64>;
    /// Names of all files, in unspecified order. Directory-read failures
    /// propagate rather than masquerading as an empty store.
    fn file_names(&self) -> io::Result<Vec<String>>;

    /// Appends bytes to the end of a file, creating it if absent — the
    /// write-ahead-log primitive. Unlike [`ByteStore::write_file`] an
    /// append is **not** atomic: a crash may persist any prefix, which is
    /// why WAL records carry their own framing and checksum. Durability
    /// requires a following [`ByteStore::sync_file`].
    fn append_file(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        let mut bytes = match self.read_file(name) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        bytes.extend_from_slice(data);
        self.write_file(name, &bytes)
    }

    /// Durably flushes a file's content to the medium (fsync). A no-op
    /// for stores whose writes are immediately durable (memory).
    fn sync_file(&mut self, _name: &str) -> io::Result<()> {
        Ok(())
    }

    /// Removes a file. Removing a missing file is an error.
    fn remove_file(&mut self, name: &str) -> io::Result<()>;

    /// Total bytes across all files.
    fn total_bytes(&self) -> io::Result<u64> {
        let mut sum = 0;
        for name in self.file_names()? {
            sum += self.file_size(&name)?;
        }
        Ok(sum)
    }
}

/// Boxed stores forward to the inner store, so code that must be
/// non-generic over storage (the query server holds disk-backed, faulty,
/// and in-memory indexes behind one type) can use
/// `Box<dyn ByteStore + Send + Sync>` wherever a `ByteStore` is expected.
impl ByteStore for Box<dyn ByteStore + Send + Sync> {
    fn write_file(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        (**self).write_file(name, data)
    }

    fn read_file(&self, name: &str) -> io::Result<Vec<u8>> {
        (**self).read_file(name)
    }

    fn file_size(&self, name: &str) -> io::Result<u64> {
        (**self).file_size(name)
    }

    fn file_names(&self) -> io::Result<Vec<String>> {
        (**self).file_names()
    }

    fn append_file(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        (**self).append_file(name, data)
    }

    fn sync_file(&mut self, name: &str) -> io::Result<()> {
        (**self).sync_file(name)
    }

    fn remove_file(&mut self, name: &str) -> io::Result<()> {
        (**self).remove_file(name)
    }

    fn total_bytes(&self) -> io::Result<u64> {
        (**self).total_bytes()
    }
}

/// In-memory store, for unit tests and scan-count experiments.
#[derive(Debug, Default, Clone)]
pub struct MemStore {
    files: HashMap<String, Vec<u8>>,
}

impl MemStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ByteStore for MemStore {
    fn write_file(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        self.files.insert(name.to_string(), data.to_vec());
        Ok(())
    }

    fn read_file(&self, name: &str) -> io::Result<Vec<u8>> {
        self.files
            .get(name)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))
    }

    fn file_size(&self, name: &str) -> io::Result<u64> {
        self.files
            .get(name)
            .map(|d| d.len() as u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))
    }

    fn file_names(&self) -> io::Result<Vec<String>> {
        Ok(self.files.keys().cloned().collect())
    }

    fn append_file(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        self.files
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(data);
        Ok(())
    }

    fn remove_file(&mut self, name: &str) -> io::Result<()> {
        self.files
            .remove(name)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, name.to_string()))
    }
}

/// On-disk store rooted at a directory; used by the wall-clock experiments
/// of Section 9.
#[derive(Debug)]
pub struct DiskStore {
    dir: PathBuf,
}

impl DiskStore {
    /// Opens (creating if needed) a store rooted at `dir`, and removes
    /// what an interrupted [`ByteStore::write_file`] left there: a temp
    /// file is never the live copy (the rename is the commit point), so a
    /// leftover one is only garbage a later scan would trip over.
    pub fn open(dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            if entry.file_name().to_str().is_some_and(is_write_temp) {
                // Best-effort, like every cleanup here: `file_names` hides
                // a temp that a read-only directory will not let go of.
                let _ = fs::remove_file(entry.path());
            }
        }
        Ok(Self { dir })
    }

    /// The root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn path_of(&self, name: &str) -> PathBuf {
        debug_assert!(
            !name.contains('/') && !name.contains('\\'),
            "flat namespace only"
        );
        self.dir.join(name)
    }

    /// Fsyncs the store directory so a just-renamed or just-removed entry
    /// is durable — without it a crash can roll back the rename itself
    /// even though the file data was synced.
    fn sync_dir(&self) -> io::Result<()> {
        fs::File::open(&self.dir)?.sync_all()
    }
}

impl ByteStore for DiskStore {
    /// Atomic replace: the data lands under a temporary name, is fsynced,
    /// and only then renamed into place — followed by a directory fsync so
    /// the rename is durable — so a crash mid-write leaves either the old
    /// file or the new one, never a torn mixture.
    fn write_file(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let id = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let tmp = self.path_of(&format!("{name}{TEMP_MARK}{id}"));
        let land = || {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(data)?;
            f.sync_all()?;
            drop(f);
            fs::rename(&tmp, self.path_of(name))
        };
        land().inspect_err(|_| {
            let _ = fs::remove_file(&tmp);
        })?;
        self.sync_dir()
    }

    fn read_file(&self, name: &str) -> io::Result<Vec<u8>> {
        fs::read(self.path_of(name))
    }

    fn file_size(&self, name: &str) -> io::Result<u64> {
        Ok(fs::metadata(self.path_of(name))?.len())
    }

    /// A write temp is not a file of the store — it is another handle's
    /// write in flight, or garbage the next open removes — so a scrub or a
    /// size total never sees one.
    fn file_names(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                if let Ok(name) = entry.file_name().into_string() {
                    if !is_write_temp(&name) {
                        names.push(name);
                    }
                }
            }
        }
        Ok(names)
    }

    /// Real positional append (`O_APPEND`), not read-concat-rewrite. Not
    /// atomic — see the trait docs; callers frame and checksum appended
    /// records. Durability still requires [`ByteStore::sync_file`].
    fn append_file(&mut self, name: &str, data: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.path_of(name))?;
        f.write_all(data)
    }

    fn sync_file(&mut self, name: &str) -> io::Result<()> {
        fs::File::open(self.path_of(name))?.sync_all()
    }

    fn remove_file(&mut self, name: &str) -> io::Result<()> {
        fs::remove_file(self.path_of(name))?;
        self.sync_dir()
    }
}

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

/// What [`DiskStore`]'s `write_file` puts between a file's name and the
/// counter in the name it writes under before the rename.
const TEMP_MARK: &str = ".tmp";

/// `true` for `"<name>.tmp<digits>"`, the only shape a write temp has —
/// `"notes.tmp"` is somebody's file.
fn is_write_temp(name: &str) -> bool {
    name.rsplit_once(TEMP_MARK)
        .is_some_and(|(_, id)| !id.is_empty() && id.bytes().all(|b| b.is_ascii_digit()))
}

/// A process-unique temporary directory, removed on drop. (The `tempfile`
/// crate is outside the allowed dependency set.)
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Creates a fresh directory under the system temp dir.
    pub fn new(tag: &str) -> io::Result<Self> {
        let id = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("bindex-{tag}-{}-{id}", std::process::id()));
        fs::create_dir_all(&path)?;
        Ok(Self { path })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &mut dyn ByteStore) {
        store.write_file("a.bin", &[1, 2, 3]).unwrap();
        store.write_file("b.bin", &[9; 100]).unwrap();
        assert_eq!(store.read_file("a.bin").unwrap(), vec![1, 2, 3]);
        assert_eq!(store.file_size("b.bin").unwrap(), 100);
        assert!(store.read_file("missing").is_err());
        let mut names = store.file_names().unwrap();
        names.sort();
        assert_eq!(names, vec!["a.bin", "b.bin"]);
        assert_eq!(store.total_bytes().unwrap(), 103);
        // overwrite
        store.write_file("a.bin", &[7]).unwrap();
        assert_eq!(store.read_file("a.bin").unwrap(), vec![7]);
        // append: grows an existing file, creates a missing one
        store.append_file("a.bin", &[8, 9]).unwrap();
        assert_eq!(store.read_file("a.bin").unwrap(), vec![7, 8, 9]);
        store.append_file("log.bin", &[1]).unwrap();
        store.append_file("log.bin", &[2]).unwrap();
        assert_eq!(store.read_file("log.bin").unwrap(), vec![1, 2]);
        store.sync_file("log.bin").unwrap();
        // remove: gone afterwards, error when missing
        store.remove_file("log.bin").unwrap();
        assert!(store.read_file("log.bin").is_err());
        assert!(store.remove_file("log.bin").is_err());
    }

    #[test]
    fn mem_store_behaviour() {
        exercise(&mut MemStore::new());
    }

    #[test]
    fn disk_store_behaviour() {
        let tmp = TempDir::new("store-test").unwrap();
        let mut store = DiskStore::open(tmp.path()).unwrap();
        exercise(&mut store);
    }

    #[test]
    fn disk_write_replaces_atomically_and_leaves_no_temp_files() {
        let tmp = TempDir::new("atomic").unwrap();
        let mut store = DiskStore::open(tmp.path()).unwrap();
        store.write_file("f.bin", &[1; 64]).unwrap();
        store.write_file("f.bin", &[2; 32]).unwrap();
        assert_eq!(store.read_file("f.bin").unwrap(), vec![2; 32]);
        assert_eq!(store.file_names().unwrap(), vec!["f.bin"]);
    }

    /// Raw directory listing, write temps included.
    fn on_disk(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        names
    }

    #[test]
    fn failed_write_removes_its_temp() {
        let tmp = TempDir::new("failed-write").unwrap();
        let mut store = DiskStore::open(tmp.path()).unwrap();
        // A directory under the target name makes the rename fail.
        fs::create_dir(tmp.path().join("taken")).unwrap();
        assert!(store.write_file("taken", &[1; 64]).is_err());
        assert_eq!(on_disk(tmp.path()), vec!["taken"]);
    }

    /// A kill between `File::create` and `rename` leaves a torn temp. It
    /// is never the live copy, so a scrub must not trip over it and the
    /// next open removes it.
    #[test]
    fn torn_write_temp_is_invisible_to_scrub_and_removed_on_reopen() {
        use crate::layout::StoredIndex;
        use bindex_bitvec::BitVec;
        use bindex_compress::CodecKind;

        let tmp = TempDir::new("torn-temp").unwrap();
        let comps = vec![vec![
            BitVec::from_fn(1000, |i| i % 3 == 0),
            BitVec::from_fn(1000, |i| i % 7 < 4),
        ]];
        let store = DiskStore::open(tmp.path()).unwrap();
        let mut stored = StoredIndex::create_v4(store, &comps, None, CodecKind::None).unwrap();
        let healthy = on_disk(tmp.path());
        let torn = "g0_c1_b0.bmp.tmp7";
        fs::write(tmp.path().join(torn), b"BIXF\x02\x00").unwrap();
        // Ends in `.tmp` but carries no counter: somebody's file, framed
        // so the scrub that does see it finds it sound.
        fs::write(tmp.path().join("notes.tmp"), crate::format::frame(b"kept")).unwrap();

        for _ in 0..2 {
            let scrub = stored.scrub().unwrap();
            assert_eq!(scrub.failures, vec![]);
            assert_eq!(scrub.files_checked, healthy.len() + 1);
            let repair = stored.scrub_and_repair(|_, _| None, None).unwrap();
            assert_eq!(repair.unrepaired, vec![]);
        }
        assert!(on_disk(tmp.path()).contains(&torn.to_string()));

        let reopened = StoredIndex::open(DiskStore::open(tmp.path()).unwrap()).unwrap();
        let mut expected = healthy;
        expected.push("notes.tmp".to_string());
        expected.sort();
        assert_eq!(on_disk(tmp.path()), expected);
        assert_eq!(reopened.read_bitmap(1, 1).unwrap(), comps[0][1]);
    }

    #[test]
    fn write_temp_names() {
        for name in [
            "a.bmp.tmp0",
            "manifest.bixm.tmp18446744073709551615",
            ".tmp3",
        ] {
            assert!(is_write_temp(name), "{name}");
        }
        for name in [
            "a.bmp",
            "notes.tmp",
            "a.tmp7.bmp",
            "a.tmp7x",
            "a.tmp-7",
            "tmp7",
        ] {
            assert!(!is_write_temp(name), "{name}");
        }
    }

    #[test]
    fn temp_dir_cleans_up() {
        let path;
        {
            let tmp = TempDir::new("cleanup").unwrap();
            path = tmp.path().to_path_buf();
            fs::write(path.join("x"), b"y").unwrap();
            assert!(path.exists());
        }
        assert!(!path.exists());
    }

    #[test]
    fn io_stats_accumulate() {
        let mut a = IoStats {
            reads: 1,
            bytes_read: 10,
            bytes_decompressed: 20,
            retries: 1,
        };
        a.add(&IoStats {
            reads: 2,
            bytes_read: 5,
            bytes_decompressed: 0,
            retries: 2,
        });
        assert_eq!(a.reads, 3);
        assert_eq!(a.bytes_read, 15);
        assert_eq!(a.bytes_decompressed, 20);
        assert_eq!(a.retries, 3);
    }
}
