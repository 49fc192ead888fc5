//! Typed storage errors, transient/permanent classification, and the
//! bounded retry policy used by [`StoredIndex`](crate::StoredIndex).

use std::fmt;
use std::io;

/// An error reading from or writing to a stored index.
#[derive(Debug)]
pub enum StorageError {
    /// The underlying byte store failed. May be transient (see
    /// [`StorageError::is_transient`]).
    Io(io::Error),
    /// A file's payload does not match the checksum in its header: the
    /// bytes on storage are not the bytes that were written. Permanent —
    /// retrying re-reads the same corrupt bytes.
    ChecksumMismatch {
        /// The corrupt file.
        file: String,
        /// Checksum recorded in the header at write time.
        expected: u32,
        /// Checksum of the payload actually read.
        actual: u32,
    },
    /// A file is structurally invalid (bad magic, unsupported format
    /// version, truncated header, or payload length mismatch). Permanent.
    Corrupt {
        /// The invalid file.
        file: String,
        /// What was wrong with it.
        detail: String,
    },
    /// A bitmap address outside the stored index's shape was requested.
    /// A caller error, not a medium failure.
    InvalidSlot {
        /// 1-based component.
        comp: usize,
        /// 0-based slot within the component.
        slot: usize,
    },
}

impl StorageError {
    /// Convenience constructor for [`StorageError::Corrupt`].
    pub fn corrupt(file: &str, detail: impl Into<String>) -> Self {
        StorageError::Corrupt {
            file: file.to_string(),
            detail: detail.into(),
        }
    }

    /// Whether retrying the operation could succeed. Only environmental
    /// I/O hiccups (interrupts, timeouts) are transient; missing files,
    /// short reads, and checksum or structure failures are permanent.
    pub fn is_transient(&self) -> bool {
        match self {
            StorageError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::Interrupted | io::ErrorKind::TimedOut | io::ErrorKind::WouldBlock
            ),
            _ => false,
        }
    }
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::ChecksumMismatch {
                file,
                expected,
                actual,
            } => write!(
                f,
                "checksum mismatch in {file}: header says {expected:#010x}, payload is {actual:#010x}"
            ),
            StorageError::Corrupt { file, detail } => write!(f, "corrupt file {file}: {detail}"),
            StorageError::InvalidSlot { comp, slot } => {
                write!(f, "slot {slot} out of range for component {comp}")
            }
        }
    }
}

impl std::error::Error for StorageError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StorageError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

/// One file that failed verification during a [`scrub`](crate::StoredIndex::scrub).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScrubFailure {
    /// The failing file.
    pub file: String,
    /// The rendered verification error.
    pub error: String,
}

/// Outcome of a full-store integrity scan.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Files examined.
    pub files_checked: usize,
    /// Files whose frame or checksum failed verification.
    pub failures: Vec<ScrubFailure>,
}

impl ScrubReport {
    /// `true` when every file verified clean.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Outcome of a [`scrub_and_repair`](crate::StoredIndex::scrub_and_repair)
/// pass: the integrity scan that drove it, plus what was rewritten.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// The scan that found the damage.
    pub scrub: ScrubReport,
    /// Files rewritten with reconstructed content, in scan order.
    pub repaired: Vec<String>,
    /// Corrupt files left in place — no content provider could supply
    /// their bitmaps.
    pub unrepaired: Vec<ScrubFailure>,
}

impl RepairReport {
    /// `true` when every corrupt file was rewritten (vacuously true for a
    /// clean store).
    pub fn fully_repaired(&self) -> bool {
        self.unrepaired.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_classification() {
        assert!(StorageError::Io(io::Error::new(io::ErrorKind::Interrupted, "x")).is_transient());
        assert!(StorageError::Io(io::Error::new(io::ErrorKind::TimedOut, "x")).is_transient());
        assert!(!StorageError::Io(io::Error::new(io::ErrorKind::NotFound, "x")).is_transient());
        assert!(!StorageError::ChecksumMismatch {
            file: "f".into(),
            expected: 1,
            actual: 2
        }
        .is_transient());
        assert!(!StorageError::corrupt("f", "bad magic").is_transient());
        assert!(!StorageError::InvalidSlot { comp: 1, slot: 9 }.is_transient());
    }

    #[test]
    fn display_renders() {
        let e = StorageError::ChecksumMismatch {
            file: "c1_b0.bmp".into(),
            expected: 0xDEADBEEF,
            actual: 0x12345678,
        };
        let s = e.to_string();
        assert!(s.contains("c1_b0.bmp") && s.contains("0xdeadbeef"), "{s}");
        assert!(StorageError::InvalidSlot { comp: 2, slot: 7 }
            .to_string()
            .contains("component 2"));
    }
}
