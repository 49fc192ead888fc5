//! Error type for the core index layer.

/// Errors raised by index construction, evaluation, and design routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A base sequence was empty or contained a number `< 2`.
    InvalidBase(String),
    /// The base does not cover the attribute cardinality (`Π b_i < C`).
    BaseTooSmall {
        /// Product of the base numbers.
        product: u128,
        /// Attribute cardinality that must be covered.
        cardinality: u32,
    },
    /// A value or predicate constant was outside `0 .. C`.
    ValueOutOfRange {
        /// The offending value.
        value: u32,
        /// The attribute cardinality.
        cardinality: u32,
    },
    /// An evaluation algorithm was applied to an index with the wrong
    /// encoding (e.g. RangeEval-Opt on an equality-encoded index).
    EncodingMismatch {
        /// What the algorithm requires.
        expected: &'static str,
        /// What the index uses.
        actual: &'static str,
    },
    /// A design problem has no solution (e.g. space constraint below the
    /// space-optimal index).
    Infeasible(String),
    /// An index invariant check failed.
    CorruptIndex(String),
    /// A storage read failed (I/O error fetching a stored bitmap). The
    /// payload is the rendered error; carried as a string so the error
    /// type stays `Clone + Eq` for the design routines.
    Storage(String),
    /// A stored file failed its checksum: the bytes on storage are not the
    /// bytes that were written. Permanent — retrying cannot help.
    ChecksumMismatch(String),
    /// A batch worker panicked while evaluating a query. The payload is
    /// the panic message; the panic is confined to the one query it
    /// interrupted, so the rest of the workload still completes.
    WorkerPanic(String),
    /// The query's deadline expired while it was running. Segment-at-a-time
    /// evaluation checks the [`Deadline`](crate::Deadline) between segments
    /// and bails out with this error, so shed work stops consuming cores
    /// instead of running to completion for an answer nobody is waiting
    /// for. The partial foundset is discarded.
    DeadlineExceeded,
    /// The serving layer refused the query before evaluation started:
    /// its admission queue was already at its high-water mark. The payload
    /// says which bound was hit. Retryable by the client after backoff —
    /// the index itself is healthy.
    Overloaded(String),
    /// The query itself was structurally invalid before evaluation
    /// started — e.g. a threshold with `k = 0`, `k` exceeding the
    /// predicate count, or no predicates at all. A caller error, never a
    /// panic or a silent empty foundset; the serving layer maps it to a
    /// typed `BadRequest` rejection.
    InvalidQuery(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::InvalidBase(msg) => write!(f, "invalid base: {msg}"),
            Error::BaseTooSmall {
                product,
                cardinality,
            } => write!(
                f,
                "base product {product} does not cover attribute cardinality {cardinality}"
            ),
            Error::ValueOutOfRange { value, cardinality } => {
                write!(
                    f,
                    "value {value} out of range for cardinality {cardinality}"
                )
            }
            Error::EncodingMismatch { expected, actual } => {
                write!(
                    f,
                    "algorithm requires {expected} encoding, index is {actual}"
                )
            }
            Error::Infeasible(msg) => write!(f, "infeasible design problem: {msg}"),
            Error::CorruptIndex(msg) => write!(f, "index invariant violated: {msg}"),
            Error::Storage(msg) => write!(f, "storage error: {msg}"),
            // The carried message is a rendered storage error that already
            // names the file and both checksums; no extra prefix.
            Error::ChecksumMismatch(msg) => write!(f, "{msg}"),
            Error::WorkerPanic(msg) => write!(f, "batch worker panicked: {msg}"),
            Error::DeadlineExceeded => {
                write!(f, "deadline exceeded: query cancelled between segments")
            }
            Error::Overloaded(msg) => write!(f, "overloaded: {msg}"),
            Error::InvalidQuery(msg) => write!(f, "invalid query: {msg}"),
        }
    }
}

impl std::error::Error for Error {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, Error>;
