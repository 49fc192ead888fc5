//! The wire protocol: length-prefixed binary frames over TCP.
//!
//! Every message is one *frame*: a little-endian `u32` payload length
//! followed by that many bytes. The first payload byte is a message tag;
//! the rest is tag-specific, all integers little-endian, strings as a
//! `u16` length plus UTF-8 bytes. The format is deliberately boring — the
//! interesting machinery (admission control, breakers, deadlines) lives
//! behind it, and a hand-rolled codec keeps the crate dependency-free.
//!
//! Malformed input never panics the server: every decoder returns
//! `io::Error` with [`io::ErrorKind::InvalidData`], which the connection
//! handler answers with [`ErrorCode::BadRequest`] before closing.
//!
//! **A frame is one write.** [`write_frame`] hands the length prefix and
//! the payload to one `write_vectored` call over two `IoSlice`s (a short
//! write advances the slices and continues), never copying the payload.
//! Both ends set `TCP_NODELAY`, so two `write_all`s put every request and
//! every reply on loopback as two segments, and the peer was woken for a
//! 4-byte header before its payload had arrived. One `Server` and one
//! `Client` pinned to one CPU of a 2-thread x86-64 box (2^18 rows, 20,000
//! requests per round, three rounds): ping p50 12.7–21.6 → 6.6–9.6 µs,
//! count p50 30.7–45.8 → 25.6–32.0 µs, 32 KiB bitmap p50 48–67 → 31–48 µs.
//!
//! **A header alone reserves at most 64 KiB.** [`read_frame`] and the
//! server's connection loop share one `FrameReader`, which reserves
//! `min(len, 64 KiB)` for a declared payload and grows the buffer as bytes
//! arrive, so a peer must send the bytes it declares before the reader
//! holds them.

use std::io::{self, IoSlice, Read, Write};

use bindex::relation::query::{Op, SelectionQuery};

/// Hard cap on a frame payload (64 MiB) — a length prefix beyond this is
/// treated as a protocol violation rather than an allocation request.
pub const MAX_FRAME: u32 = 64 << 20;

/// Protocol version byte carried in every request frame; bumped on any
/// incompatible change. Version 2 added [`Request::Ingest`] /
/// [`Response::Ingested`] and the `ingests` counter in [`StatsSnapshot`];
/// version 3 added [`Request::Threshold`] ("≥ k of N predicates").
pub const PROTOCOL_VERSION: u8 = 3;

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes one frame (length prefix + payload) in one vectored write —
/// more only if the writer takes it short — and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| bad("frame too large to encode"))?;
    if len > MAX_FRAME {
        return Err(bad(format!("frame of {len} bytes exceeds MAX_FRAME")));
    }
    let header = len.to_le_bytes();
    let mut slices = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut left = &mut slices[..];
    while !left.is_empty() {
        match w.write_vectored(left) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "failed to write the whole frame",
                ))
            }
            Ok(n) => IoSlice::advance_slices(&mut left, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    w.flush()
}

/// Reads one frame, blocking until the payload is complete. Returns
/// `Ok(None)` on a clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    FrameReader::new().poll(r)
}

/// What a frame's length prefix reserves before any payload byte has
/// arrived, and the least the buffer grows by once it is full.
const READ_CHUNK: usize = 64 << 10;

/// Incremental frame reader that survives read timeouts: partial header
/// or payload bytes are kept across [`poll`](FrameReader::poll) calls, so
/// a connection loop can check a flag between timeouts without ever
/// corrupting the stream framing.
pub(crate) struct FrameReader {
    header: [u8; 4],
    filled: usize,
    /// The declared payload length, once the header is complete.
    want: Option<usize>,
    /// Received bytes, then zeroed room for the next read.
    payload: Vec<u8>,
    got: usize,
}

impl FrameReader {
    pub(crate) fn new() -> Self {
        Self {
            header: [0; 4],
            filled: 0,
            want: None,
            payload: Vec::new(),
            got: 0,
        }
    }

    /// `Ok(Some(payload))` when a full frame has arrived; `Ok(None)` on a
    /// clean EOF at a frame boundary. A read timeout is returned as the
    /// reader's error with every byte so far kept, so polling again
    /// resumes the frame; EOF mid-frame is `UnexpectedEof`.
    pub(crate) fn poll(&mut self, r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
        loop {
            let read = match self.want {
                None => r.read(&mut self.header[self.filled..]),
                Some(want) if self.got == want => return Ok(Some(self.finish())),
                Some(want) => {
                    if self.got == self.payload.len() {
                        let room = want.min(self.got + self.got.max(READ_CHUNK));
                        self.payload.resize(room, 0);
                    }
                    r.read(&mut self.payload[self.got..])
                }
            };
            match read {
                Ok(0) if self.want.is_none() && self.filled == 0 => return Ok(None),
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "connection closed mid-frame",
                    ))
                }
                Ok(n) if self.want.is_some() => self.got += n,
                Ok(n) => {
                    self.filled += n;
                    if self.filled == 4 {
                        let len = u32::from_le_bytes(self.header);
                        if len > MAX_FRAME {
                            return Err(bad(format!("frame length {len} exceeds MAX_FRAME")));
                        }
                        let len = len as usize;
                        self.want = Some(len);
                        self.payload = Vec::with_capacity(len.min(READ_CHUNK));
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn finish(&mut self) -> Vec<u8> {
        self.filled = 0;
        self.want = None;
        self.got = 0;
        std::mem::take(&mut self.payload)
    }
}

/// Typed error codes carried in [`Response::Error`] — the client-visible
/// taxonomy of "no answer": each code tells the caller what to do next
/// (back off, retry elsewhere, fix the request, give up).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// Every admission permit is held; retry after backoff.
    Overloaded = 1,
    /// The request's deadline expired before an answer was produced.
    DeadlineExceeded = 2,
    /// The server is draining; no new queries are admitted.
    ShuttingDown = 3,
    /// No served index has the requested name.
    UnknownIndex = 4,
    /// The request frame did not decode or carried invalid fields.
    BadRequest = 5,
    /// Evaluation failed (storage fault with strict serving, corrupt
    /// index, evaluation panic); the message carries the rendered error.
    QueryFailed = 6,
    /// The server lost the reply path internally; retryable.
    Internal = 7,
}

impl ErrorCode {
    fn from_u8(v: u8) -> io::Result<Self> {
        Ok(match v {
            1 => ErrorCode::Overloaded,
            2 => ErrorCode::DeadlineExceeded,
            3 => ErrorCode::ShuttingDown,
            4 => ErrorCode::UnknownIndex,
            5 => ErrorCode::BadRequest,
            6 => ErrorCode::QueryFailed,
            7 => ErrorCode::Internal,
            other => return Err(bad(format!("unknown error code {other}"))),
        })
    }
}

fn op_to_u8(op: Op) -> u8 {
    match op {
        Op::Lt => 0,
        Op::Le => 1,
        Op::Gt => 2,
        Op::Ge => 3,
        Op::Eq => 4,
        Op::Ne => 5,
    }
}

fn op_from_u8(v: u8) -> io::Result<Op> {
    Ok(match v {
        0 => Op::Lt,
        1 => Op::Le,
        2 => Op::Gt,
        3 => Op::Ge,
        4 => Op::Eq,
        5 => Op::Ne,
        other => return Err(bad(format!("unknown operator code {other}"))),
    })
}

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Evaluate `A op v` on a served index. `deadline_ms == 0` means "use
    /// the server's default deadline"; `want_bitmap` asks for the full
    /// foundset instead of just its cardinality.
    Query {
        /// Name of the served index.
        index: String,
        /// The selection predicate.
        query: SelectionQuery,
        /// `true` to return the foundset words, `false` for the count.
        want_bitmap: bool,
        /// Per-request deadline in milliseconds; `0` = server default.
        deadline_ms: u64,
    },
    /// Liveness probe.
    Ping,
    /// Snapshot of the server counters.
    Stats,
    /// Run scrub-and-repair on a served index (drains its readers,
    /// rewrites damaged files, invalidates caches, notifies the breaker).
    Repair {
        /// Name of the served index.
        index: String,
    },
    /// Ask the server to drain and exit.
    Shutdown,
    /// Apply one ingest batch to a served index and compact it into a
    /// fresh storage generation (WAL-logged; drains that index's readers
    /// for the rewrite, like `Repair`). Deletes may target rows appended
    /// in the same batch.
    Ingest {
        /// Name of the served index.
        index: String,
        /// Rows to append; `None` is a null row.
        appends: Vec<Option<u32>>,
        /// Absolute row ids to delete.
        deletes: Vec<u64>,
    },
    /// Evaluate "at least `k` of these predicates hold" on a served
    /// index, in one pass through a bit-sliced counter network. A
    /// duplicated predicate counts twice toward `k`. Degenerate shapes
    /// (`k = 0`, `k` above the predicate count, no predicates) are
    /// answered with a typed [`ErrorCode::BadRequest`].
    Threshold {
        /// Name of the served index.
        index: String,
        /// How many predicates must hold per row.
        k: u32,
        /// The predicate set (order does not matter to the answer or the
        /// result cache).
        predicates: Vec<SelectionQuery>,
        /// `true` to return the foundset words, `false` for the count.
        want_bitmap: bool,
        /// Per-request deadline in milliseconds; `0` = server default.
        deadline_ms: u64,
    },
}

const TAG_QUERY: u8 = 0x01;
const TAG_PING: u8 = 0x02;
const TAG_STATS: u8 = 0x03;
const TAG_REPAIR: u8 = 0x04;
const TAG_SHUTDOWN: u8 = 0x05;
const TAG_INGEST: u8 = 0x06;
const TAG_THRESHOLD: u8 = 0x07;

const TAG_COUNT: u8 = 0x81;
const TAG_BITMAP: u8 = 0x82;
const TAG_PONG: u8 = 0x83;
const TAG_STATS_REPLY: u8 = 0x84;
const TAG_REPAIRED: u8 = 0x85;
const TAG_SHUTDOWN_ACK: u8 = 0x86;
const TAG_INGESTED: u8 = 0x87;
const TAG_ERROR: u8 = 0xEE;

/// Null-row sentinel in an ingest frame's append values — the same
/// convention the on-disk WAL uses; real values are always below the
/// attribute's cardinality, which is at most `u32::MAX`.
const NULL_SENTINEL: u32 = u32::MAX;

fn put_str(out: &mut Vec<u8>, s: &str) -> io::Result<()> {
    let len = u16::try_from(s.len()).map_err(|_| bad("string too long for wire"))?;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// A cursor over a received payload; every getter bounds-checks.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.buf.len())
            .ok_or_else(|| bad("truncated frame"))?;
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> io::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn str(&mut self) -> io::Result<String> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| bad("string is not UTF-8"))
    }

    /// Capacity to reserve for `n` declared elements of `size` wire bytes
    /// each: never more than the rest of the frame can hold, so a frame
    /// declaring more than it carries reserves at most its own length and
    /// then fails on the first element it lacks.
    fn capacity(&self, n: usize, size: usize) -> usize {
        n.min((self.buf.len() - self.pos) / size)
    }

    fn done(&self) -> io::Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(bad("trailing bytes after message"))
        }
    }
}

impl Request {
    /// Serializes into a frame payload (version byte + tag + fields).
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let mut out = vec![PROTOCOL_VERSION];
        match self {
            Request::Query {
                index,
                query,
                want_bitmap,
                deadline_ms,
            } => {
                out.push(TAG_QUERY);
                put_str(&mut out, index)?;
                out.push(op_to_u8(query.op));
                out.extend_from_slice(&query.constant.to_le_bytes());
                out.push(u8::from(*want_bitmap));
                out.extend_from_slice(&deadline_ms.to_le_bytes());
            }
            Request::Ping => out.push(TAG_PING),
            Request::Stats => out.push(TAG_STATS),
            Request::Repair { index } => {
                out.push(TAG_REPAIR);
                put_str(&mut out, index)?;
            }
            Request::Shutdown => out.push(TAG_SHUTDOWN),
            Request::Ingest {
                index,
                appends,
                deletes,
            } => {
                out.push(TAG_INGEST);
                put_str(&mut out, index)?;
                let n = u32::try_from(appends.len()).map_err(|_| bad("too many appends"))?;
                out.extend_from_slice(&n.to_le_bytes());
                for v in appends {
                    if *v == Some(NULL_SENTINEL) {
                        return Err(bad("append value collides with the null sentinel"));
                    }
                    out.extend_from_slice(&v.unwrap_or(NULL_SENTINEL).to_le_bytes());
                }
                let n = u32::try_from(deletes.len()).map_err(|_| bad("too many deletes"))?;
                out.extend_from_slice(&n.to_le_bytes());
                for r in deletes {
                    out.extend_from_slice(&r.to_le_bytes());
                }
            }
            Request::Threshold {
                index,
                k,
                predicates,
                want_bitmap,
                deadline_ms,
            } => {
                out.push(TAG_THRESHOLD);
                put_str(&mut out, index)?;
                out.extend_from_slice(&k.to_le_bytes());
                let n = u16::try_from(predicates.len()).map_err(|_| bad("too many predicates"))?;
                out.extend_from_slice(&n.to_le_bytes());
                for p in predicates {
                    out.push(op_to_u8(p.op));
                    out.extend_from_slice(&p.constant.to_le_bytes());
                }
                out.push(u8::from(*want_bitmap));
                out.extend_from_slice(&deadline_ms.to_le_bytes());
            }
        }
        Ok(out)
    }

    /// Parses a frame payload.
    pub fn decode(payload: &[u8]) -> io::Result<Self> {
        let mut c = Cursor::new(payload);
        let version = c.u8()?;
        if version != PROTOCOL_VERSION {
            return Err(bad(format!("unsupported protocol version {version}")));
        }
        let tag = c.u8()?;
        let req = match tag {
            TAG_QUERY => {
                let index = c.str()?;
                let op = op_from_u8(c.u8()?)?;
                let constant = c.u32()?;
                let want_bitmap = c.u8()? != 0;
                let deadline_ms = c.u64()?;
                Request::Query {
                    index,
                    query: SelectionQuery::new(op, constant),
                    want_bitmap,
                    deadline_ms,
                }
            }
            TAG_PING => Request::Ping,
            TAG_STATS => Request::Stats,
            TAG_REPAIR => Request::Repair { index: c.str()? },
            TAG_SHUTDOWN => Request::Shutdown,
            TAG_INGEST => {
                let index = c.str()?;
                let n = c.u32()? as usize;
                let mut appends = Vec::with_capacity(c.capacity(n, 4));
                for _ in 0..n {
                    let v = c.u32()?;
                    appends.push((v != NULL_SENTINEL).then_some(v));
                }
                let n = c.u32()? as usize;
                let mut deletes = Vec::with_capacity(c.capacity(n, 8));
                for _ in 0..n {
                    deletes.push(c.u64()?);
                }
                Request::Ingest {
                    index,
                    appends,
                    deletes,
                }
            }
            TAG_THRESHOLD => {
                let index = c.str()?;
                let k = c.u32()?;
                let n = c.u16()? as usize;
                let mut predicates = Vec::with_capacity(c.capacity(n, 5));
                for _ in 0..n {
                    let op = op_from_u8(c.u8()?)?;
                    let constant = c.u32()?;
                    predicates.push(SelectionQuery::new(op, constant));
                }
                let want_bitmap = c.u8()? != 0;
                let deadline_ms = c.u64()?;
                Request::Threshold {
                    index,
                    k,
                    predicates,
                    want_bitmap,
                    deadline_ms,
                }
            }
            other => return Err(bad(format!("unknown request tag {other:#x}"))),
        };
        c.done()?;
        Ok(req)
    }
}

/// Aggregate server counters, as carried by [`Response::Stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Queries admitted (given a permit).
    pub admitted: u64,
    /// Queries answered (any terminal response, including typed errors).
    pub completed: u64,
    /// Queries refused at admission because every permit was held.
    pub shed_overload: u64,
    /// Queries cancelled by their deadline.
    pub shed_deadline: u64,
    /// Queries answered from reconstructed bitmaps (degraded serving).
    pub degraded: u64,
    /// Queries that failed with a storage or evaluation error.
    pub failed: u64,
    /// Result-cache hits.
    pub cache_hits: u64,
    /// Result-cache misses.
    pub cache_misses: u64,
    /// Repair operations performed.
    pub repairs: u64,
    /// Ingest batches applied and compacted.
    pub ingests: u64,
    /// Circuit-breaker trips (Closed → Open transitions).
    pub breaker_trips: u64,
}

impl StatsSnapshot {
    fn encode_into(&self, out: &mut Vec<u8>) {
        for v in [
            self.admitted,
            self.completed,
            self.shed_overload,
            self.shed_deadline,
            self.degraded,
            self.failed,
            self.cache_hits,
            self.cache_misses,
            self.repairs,
            self.ingests,
            self.breaker_trips,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    fn decode_from(c: &mut Cursor<'_>) -> io::Result<Self> {
        Ok(Self {
            admitted: c.u64()?,
            completed: c.u64()?,
            shed_overload: c.u64()?,
            shed_deadline: c.u64()?,
            degraded: c.u64()?,
            failed: c.u64()?,
            cache_hits: c.u64()?,
            cache_misses: c.u64()?,
            repairs: c.u64()?,
            ingests: c.u64()?,
            breaker_trips: c.u64()?,
        })
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    /// Foundset cardinality of a `want_bitmap = false` query.
    Count {
        /// Number of qualifying rows.
        cardinality: u64,
        /// Answer came from reconstructed bitmaps (breaker open).
        degraded: bool,
        /// Answer was served from the result cache.
        cached: bool,
    },
    /// Full foundset of a `want_bitmap = true` query.
    Bitmap {
        /// Number of qualifying rows (redundant with the words; cheap).
        cardinality: u64,
        /// Answer came from reconstructed bitmaps.
        degraded: bool,
        /// Answer was served from the result cache.
        cached: bool,
        /// Foundset length in bits.
        n_bits: u64,
        /// Foundset payload, 64 bits per word, row 0 = LSB of word 0.
        words: Vec<u64>,
    },
    /// Reply to [`Request::Ping`].
    Pong,
    /// Reply to [`Request::Stats`].
    Stats(StatsSnapshot),
    /// Reply to [`Request::Repair`].
    Repaired {
        /// Files rewritten with reconstructed content.
        repaired: u32,
        /// Corrupt files no provider could rebuild.
        unrepaired: u32,
    },
    /// Reply to [`Request::Shutdown`]; the server drains after sending.
    ShutdownAck,
    /// Reply to [`Request::Ingest`].
    Ingested {
        /// Highest durable WAL sequence number covered by the compaction.
        seq: u64,
        /// The storage generation the batch landed in.
        generation: u64,
        /// Logical rows after the batch.
        n_rows: u64,
    },
    /// A typed failure; see [`ErrorCode`].
    Error {
        /// What kind of failure.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

impl Response {
    /// Serializes into a frame payload.
    pub fn encode(&self) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        match self {
            Response::Count {
                cardinality,
                degraded,
                cached,
            } => {
                out.push(TAG_COUNT);
                out.extend_from_slice(&cardinality.to_le_bytes());
                out.push(u8::from(*degraded));
                out.push(u8::from(*cached));
            }
            Response::Bitmap {
                cardinality,
                degraded,
                cached,
                n_bits,
                words,
            } => {
                let n_words = u32::try_from(words.len()).map_err(|_| bad("bitmap too large"))?;
                out.reserve_exact(1 + 8 + 1 + 1 + 8 + 4 + 8 * words.len());
                out.push(TAG_BITMAP);
                out.extend_from_slice(&cardinality.to_le_bytes());
                out.push(u8::from(*degraded));
                out.push(u8::from(*cached));
                out.extend_from_slice(&n_bits.to_le_bytes());
                out.extend_from_slice(&n_words.to_le_bytes());
                let start = out.len();
                out.resize(start + 8 * words.len(), 0);
                for (dst, w) in out[start..].chunks_exact_mut(8).zip(words) {
                    dst.copy_from_slice(&w.to_le_bytes());
                }
            }
            Response::Pong => out.push(TAG_PONG),
            Response::Stats(snapshot) => {
                out.push(TAG_STATS_REPLY);
                snapshot.encode_into(&mut out);
            }
            Response::Repaired {
                repaired,
                unrepaired,
            } => {
                out.push(TAG_REPAIRED);
                out.extend_from_slice(&repaired.to_le_bytes());
                out.extend_from_slice(&unrepaired.to_le_bytes());
            }
            Response::ShutdownAck => out.push(TAG_SHUTDOWN_ACK),
            Response::Ingested {
                seq,
                generation,
                n_rows,
            } => {
                out.push(TAG_INGESTED);
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&generation.to_le_bytes());
                out.extend_from_slice(&n_rows.to_le_bytes());
            }
            Response::Error { code, message } => {
                out.push(TAG_ERROR);
                out.push(*code as u8);
                put_str(&mut out, message)?;
            }
        }
        Ok(out)
    }

    /// Parses a frame payload.
    pub fn decode(payload: &[u8]) -> io::Result<Self> {
        let mut c = Cursor::new(payload);
        let tag = c.u8()?;
        let resp = match tag {
            TAG_COUNT => Response::Count {
                cardinality: c.u64()?,
                degraded: c.u8()? != 0,
                cached: c.u8()? != 0,
            },
            TAG_BITMAP => {
                let cardinality = c.u64()?;
                let degraded = c.u8()? != 0;
                let cached = c.u8()? != 0;
                let n_bits = c.u64()?;
                let n_words = c.u32()? as usize;
                // A client builds a bitmap of `n_bits` from these words:
                // a length they do not cover would have it allocate for
                // bits the frame never carried.
                if n_bits.div_ceil(64) != n_words as u64 {
                    return Err(bad(format!(
                        "bitmap of {n_bits} bits carries {n_words} words"
                    )));
                }
                if cardinality > n_bits {
                    return Err(bad(format!(
                        "bitmap of {n_bits} bits claims {cardinality} set"
                    )));
                }
                let bytes = n_words
                    .checked_mul(8)
                    .ok_or_else(|| bad("bitmap too large"))?;
                let words = c
                    .take(bytes)?
                    .chunks_exact(8)
                    .map(|w| u64::from_le_bytes(w.try_into().unwrap()))
                    .collect();
                Response::Bitmap {
                    cardinality,
                    degraded,
                    cached,
                    n_bits,
                    words,
                }
            }
            TAG_PONG => Response::Pong,
            TAG_STATS_REPLY => Response::Stats(StatsSnapshot::decode_from(&mut c)?),
            TAG_REPAIRED => Response::Repaired {
                repaired: c.u32()?,
                unrepaired: c.u32()?,
            },
            TAG_SHUTDOWN_ACK => Response::ShutdownAck,
            TAG_INGESTED => Response::Ingested {
                seq: c.u64()?,
                generation: c.u64()?,
                n_rows: c.u64()?,
            },
            TAG_ERROR => Response::Error {
                code: ErrorCode::from_u8(c.u8()?)?,
                message: c.str()?,
            },
            other => return Err(bad(format!("unknown response tag {other:#x}"))),
        };
        c.done()?;
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_request(req: Request) {
        let bytes = req.encode().unwrap();
        assert_eq!(Request::decode(&bytes).unwrap(), req);
    }

    fn round_trip_response(resp: Response) {
        let bytes = resp.encode().unwrap();
        assert_eq!(Response::decode(&bytes).unwrap(), resp);
    }

    #[test]
    fn requests_round_trip() {
        for op in Op::ALL {
            round_trip_request(Request::Query {
                index: "lineitem.qty".into(),
                query: SelectionQuery::new(op, 4711),
                want_bitmap: op == Op::Eq,
                deadline_ms: 250,
            });
        }
        round_trip_request(Request::Ping);
        round_trip_request(Request::Stats);
        round_trip_request(Request::Repair { index: "x".into() });
        round_trip_request(Request::Shutdown);
        round_trip_request(Request::Ingest {
            index: "lineitem.qty".into(),
            appends: vec![Some(3), None, Some(0), Some(u32::MAX - 1)],
            deletes: vec![0, 17, u64::from(u32::MAX) + 1],
        });
        round_trip_request(Request::Ingest {
            index: "deletes-only".into(),
            appends: vec![],
            deletes: vec![4],
        });
        round_trip_request(Request::Threshold {
            index: "lineitem.qty".into(),
            k: 3,
            predicates: vec![
                SelectionQuery::new(Op::Le, 40),
                SelectionQuery::new(Op::Gt, 7),
                SelectionQuery::new(Op::Ne, 13),
                SelectionQuery::new(Op::Ne, 13),
            ],
            want_bitmap: true,
            deadline_ms: 125,
        });
        // A structurally invalid threshold still round-trips: validation
        // is the server's job, answered with a typed BadRequest.
        round_trip_request(Request::Threshold {
            index: "t".into(),
            k: 0,
            predicates: vec![],
            want_bitmap: false,
            deadline_ms: 0,
        });
    }

    #[test]
    fn null_sentinel_collision_is_rejected_at_encode() {
        let req = Request::Ingest {
            index: "x".into(),
            appends: vec![Some(u32::MAX)],
            deletes: vec![],
        };
        assert!(req.encode().is_err());
    }

    #[test]
    fn responses_round_trip() {
        round_trip_response(Response::Count {
            cardinality: 123_456,
            degraded: true,
            cached: false,
        });
        round_trip_response(Response::Bitmap {
            cardinality: 3,
            degraded: false,
            cached: true,
            n_bits: 130,
            words: vec![0b1011, 0, u64::MAX],
        });
        round_trip_response(Response::Pong);
        round_trip_response(Response::Stats(StatsSnapshot {
            admitted: 10,
            completed: 9,
            shed_overload: 1,
            ..StatsSnapshot::default()
        }));
        round_trip_response(Response::Repaired {
            repaired: 2,
            unrepaired: 0,
        });
        round_trip_response(Response::ShutdownAck);
        round_trip_response(Response::Ingested {
            seq: 42,
            generation: 3,
            n_rows: 1_000_001,
        });
        round_trip_response(Response::Error {
            code: ErrorCode::Overloaded,
            message: "queue full (depth 64)".into(),
        });
    }

    #[test]
    fn frames_round_trip_over_a_buffer() {
        let req = Request::Query {
            index: "t".into(),
            query: SelectionQuery::new(Op::Le, 9),
            want_bitmap: false,
            deadline_ms: 0,
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode().unwrap()).unwrap();
        write_frame(&mut wire, &Request::Ping.encode().unwrap()).unwrap();
        let mut r = &wire[..];
        assert_eq!(
            Request::decode(&read_frame(&mut r).unwrap().unwrap()).unwrap(),
            req
        );
        assert_eq!(
            Request::decode(&read_frame(&mut r).unwrap().unwrap()).unwrap(),
            Request::Ping
        );
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    /// The frames of `frames_round_trip_over_a_buffer`.
    fn two_frames() -> [Vec<u8>; 2] {
        let req = Request::Query {
            index: "t".into(),
            query: SelectionQuery::new(Op::Le, 9),
            want_bitmap: false,
            deadline_ms: 0,
        };
        [req.encode().unwrap(), Request::Ping.encode().unwrap()]
    }

    /// Takes everything it is handed and counts the calls.
    #[derive(Default)]
    struct CountingSink {
        bytes: Vec<u8>,
        calls: usize,
    }

    impl Write for CountingSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            self.bytes.write_vectored(bufs)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Takes at most 3 bytes per call and is interrupted once, first.
    #[derive(Default)]
    struct DribbleSink {
        bytes: Vec<u8>,
        interrupted: bool,
    }

    impl Write for DribbleSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }
        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            if !std::mem::replace(&mut self.interrupted, true) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let before = self.bytes.len();
            for b in bufs {
                let n = b.len().min(before + 3 - self.bytes.len());
                self.bytes.extend_from_slice(&b[..n]);
            }
            Ok(self.bytes.len() - before)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Hands out at most 3 bytes per call and is interrupted once, first.
    struct DribbleSource<'a> {
        bytes: &'a [u8],
        interrupted: bool,
    }

    impl Read for DribbleSource<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            if !std::mem::replace(&mut self.interrupted, true) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let n = buf.len().min(3).min(self.bytes.len());
            buf[..n].copy_from_slice(&self.bytes[..n]);
            self.bytes = &self.bytes[n..];
            Ok(n)
        }
    }

    #[test]
    fn a_frame_is_one_write() {
        let mut sink = CountingSink::default();
        let mut wire = Vec::new();
        for (i, frame) in two_frames().iter().enumerate() {
            write_frame(&mut sink, frame).unwrap();
            write_frame(&mut wire, frame).unwrap();
            assert_eq!(sink.calls, i + 1, "one write call per frame");
        }
        let big = vec![0xA5; 3 * READ_CHUNK];
        write_frame(&mut sink, &big).unwrap();
        write_frame(&mut wire, &big).unwrap();
        assert_eq!(sink.calls, 3);
        assert_eq!(sink.bytes, wire);
    }

    #[test]
    fn short_and_interrupted_writes_and_reads_keep_the_stream() {
        let mut sink = DribbleSink::default();
        let mut wire = Vec::new();
        for frame in two_frames() {
            write_frame(&mut sink, &frame).unwrap();
            write_frame(&mut wire, &frame).unwrap();
        }
        assert_eq!(sink.bytes, wire);

        let mut r = DribbleSource {
            bytes: &sink.bytes,
            interrupted: false,
        };
        for frame in two_frames() {
            assert_eq!(read_frame(&mut r).unwrap(), Some(frame));
        }
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    /// A `MAX_FRAME` length prefix followed by 100 payload bytes, then EOF.
    fn huge_header_short_body() -> Vec<u8> {
        let mut wire = MAX_FRAME.to_le_bytes().to_vec();
        wire.extend_from_slice(&[7; 100]);
        wire
    }

    #[test]
    fn a_frame_header_alone_reserves_at_most_64_kib() {
        let wire = huge_header_short_body();
        let mut reader = FrameReader::new();
        let err = reader.poll(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(reader.got, 100);
        assert!(
            reader.payload.capacity() <= 64 << 10,
            "{}",
            reader.payload.capacity()
        );

        /// Records the largest buffer it is handed.
        struct Widest<'a>(&'a [u8], usize);
        impl Read for Widest<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.1 = self.1.max(buf.len());
                self.0.read(buf)
            }
        }
        let mut r = Widest(&wire, 0);
        let err = read_frame(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
        assert!(r.1 <= 64 << 10, "read_frame handed out {} bytes", r.1);
    }

    #[test]
    fn oversized_and_truncated_frames_are_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(MAX_FRAME + 1).to_le_bytes());
        assert!(read_frame(&mut &wire[..]).is_err());

        let mut short = Vec::new();
        write_frame(&mut short, &[PROTOCOL_VERSION, TAG_QUERY, 5, 0]).unwrap();
        let payload = read_frame(&mut &short[..]).unwrap().unwrap();
        assert!(Request::decode(&payload).is_err());

        // Trailing garbage after a well-formed message is a violation.
        let mut bytes = Request::Ping.encode().unwrap();
        bytes.push(0xAB);
        assert!(Request::decode(&bytes).is_err());
    }

    /// Tiny frames that declare a huge element count — the allocation
    /// request a hostile client would send — are typed errors.
    #[test]
    fn frames_declaring_more_elements_than_they_carry_are_rejected() {
        let huge = u32::MAX.to_le_bytes();
        let ingest = |appends: [u8; 4], deletes: &[u8]| {
            let mut f = vec![PROTOCOL_VERSION, TAG_INGEST, 1, 0, b'x'];
            f.extend_from_slice(&appends);
            f.extend_from_slice(deletes);
            f
        };
        let mut threshold = vec![PROTOCOL_VERSION, TAG_THRESHOLD, 1, 0, b'x', 1, 0, 0, 0];
        threshold.extend_from_slice(&u16::MAX.to_le_bytes());
        for frame in [ingest(huge, &[]), ingest([0; 4], &huge), threshold] {
            let err = Request::decode(&frame).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{frame:?}");
        }
        let mut bitmap = vec![TAG_BITMAP];
        bitmap.extend_from_slice(&[0; 8 + 1 + 1 + 8]);
        bitmap.extend_from_slice(&huge);
        let err = Response::decode(&bitmap).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    /// A bitmap reply's length must be what its words cover, and its
    /// cardinality at most that length: `n_bits = 2^64 − 1` over no words
    /// would have a client size a bitmap of 2^58 words.
    #[test]
    fn a_bitmap_reply_whose_length_its_words_do_not_cover_is_rejected() {
        let frame = |cardinality: u64, n_bits: u64, words: &[u64]| {
            let mut f = vec![TAG_BITMAP];
            f.extend_from_slice(&cardinality.to_le_bytes());
            f.extend_from_slice(&[0, 0]);
            f.extend_from_slice(&n_bits.to_le_bytes());
            f.extend_from_slice(&(words.len() as u32).to_le_bytes());
            for w in words {
                f.extend_from_slice(&w.to_le_bytes());
            }
            f
        };
        for (cardinality, n_bits, words) in [
            (0, u64::MAX, &[][..]),
            (0, 65, &[0][..]),
            (0, 64, &[0, 0][..]),
            (0, 0, &[0][..]),
            (3, 2, &[3][..]),
        ] {
            let err = Response::decode(&frame(cardinality, n_bits, words)).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{n_bits} bits");
        }
        for (cardinality, n_bits, words) in
            [(0, 0, &[][..]), (1, 1, &[1][..]), (2, 65, &[1, 1][..])]
        {
            let decoded = Response::decode(&frame(cardinality, n_bits, words)).unwrap();
            assert!(matches!(decoded, Response::Bitmap { n_bits: n, .. } if n == n_bits));
        }
    }

    #[test]
    fn reserved_capacity_is_bounded_by_the_bytes_left() {
        let frame = [0u8; 20];
        let mut c = Cursor::new(&frame);
        assert_eq!(c.capacity(u32::MAX as usize, 8), 2);
        assert_eq!(c.capacity(u32::MAX as usize, 4), 5);
        assert_eq!(c.capacity(3, 4), 3, "an honest count is reserved whole");
        c.take(17).unwrap();
        assert_eq!(c.capacity(usize::MAX, 5), 0);
        assert_eq!(c.capacity(usize::MAX, 1), 3);
    }

    #[test]
    fn unknown_tags_and_versions_are_rejected() {
        assert!(Request::decode(&[PROTOCOL_VERSION, 0x7F]).is_err());
        assert!(Request::decode(&[99, TAG_PING]).is_err());
        assert!(Response::decode(&[0x42]).is_err());
    }
}
