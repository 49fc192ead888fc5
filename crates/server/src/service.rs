//! The server proper: acceptor, connection handlers, admission, and
//! graceful drain.
//!
//! ```text
//!  TCP conn ──▶ conn thread: decode ──try_acquire──▶ permit ──▶ count or keep sink ──▶ write
//!                                  └─ all held: typed Overloaded ──────────────────────▶ write
//! ```
//!
//! Each accepted connection gets a thread that decodes frames and answers
//! every request itself, queries included: a query takes one of
//! `workers + queue_depth` admission permits (`admission::Permits`) and runs to
//! completion on that thread, under a per-request [`Deadline`] the engine
//! checks between windows. Admission is *offered*, never waited for: with
//! every permit held the reply is an immediate typed `Overloaded`, which
//! is the load-shedding contract. A count request runs through the count
//! sink — a one-plan selection ends in a popcount and writes no foundset —
//! and a bitmap request through the keep sink.
//!
//! Drain ([`Server::shutdown`]) is a strict sequence: stop admitting (a
//! flag every query checks before it takes a permit), wake the acceptor
//! with a self-connection, then join the connection threads — each
//! finishes the query it is running and writes its reply; its read loop
//! polls the drain flag on a short timeout. Nothing in flight is dropped;
//! everything not yet admitted is refused with `ShuttingDown`.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bindex::core::{Deadline, Error};
use bindex::engine::batch::Sink;
use bindex::relation::query::ThresholdQuery;

use crate::admission::Permits;
use crate::protocol::{write_frame, ErrorCode, FrameReader, Request, Response, StatsSnapshot};
use crate::registry::{Registry, ServedQuery};

/// Tuning for one server instance. Queries run on the connection thread
/// that read them; no evaluation thread is spawned. `workers +
/// queue_depth` is the admission permit pool: the queries that may be in
/// flight at once.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Queries expected to evaluate at once — one per CPU by default. With
    /// `queue_depth` it sizes the permit pool (at least 1 is counted).
    pub workers: usize,
    /// Queries admitted beyond `workers`; an arrival that finds `workers +
    /// queue_depth` queries in flight is shed with `Overloaded`.
    pub queue_depth: usize,
    /// Deadline applied to queries that do not carry their own.
    pub default_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            queue_depth: 64,
            default_deadline: Duration::from_millis(250),
        }
    }
}

#[derive(Default)]
struct Metrics {
    admitted: AtomicU64,
    completed: AtomicU64,
    shed_overload: AtomicU64,
    shed_deadline: AtomicU64,
    degraded: AtomicU64,
    failed: AtomicU64,
    repairs: AtomicU64,
    ingests: AtomicU64,
}

struct Shared {
    registry: Registry,
    config: ServerConfig,
    permits: Permits,
    metrics: Metrics,
    draining: AtomicBool,
    shutdown_requested: AtomicBool,
}

impl Shared {
    fn err(code: ErrorCode, message: impl Into<String>) -> Response {
        Response::Error {
            code,
            message: message.into(),
        }
    }

    fn snapshot(&self) -> StatsSnapshot {
        let mut s = StatsSnapshot {
            admitted: self.metrics.admitted.load(Ordering::Relaxed),
            completed: self.metrics.completed.load(Ordering::Relaxed),
            shed_overload: self.metrics.shed_overload.load(Ordering::Relaxed),
            shed_deadline: self.metrics.shed_deadline.load(Ordering::Relaxed),
            degraded: self.metrics.degraded.load(Ordering::Relaxed),
            failed: self.metrics.failed.load(Ordering::Relaxed),
            repairs: self.metrics.repairs.load(Ordering::Relaxed),
            ingests: self.metrics.ingests.load(Ordering::Relaxed),
            ..StatsSnapshot::default()
        };
        for index in self.registry.all() {
            let (hits, misses, _) = index.cache_stats();
            s.cache_hits += hits;
            s.cache_misses += misses;
            s.breaker_trips += index.breaker().trips();
        }
        s
    }

    fn handle_request(&self, req: Request) -> Response {
        match req {
            Request::Ping => Response::Pong,
            Request::Stats => Response::Stats(self.snapshot()),
            Request::Shutdown => {
                self.shutdown_requested.store(true, Ordering::SeqCst);
                Response::ShutdownAck
            }
            Request::Repair { index } => match self.registry.get(&index) {
                None => Self::err(ErrorCode::UnknownIndex, format!("no index named {index:?}")),
                Some(served) => match served.repair() {
                    Ok(report) => {
                        self.metrics.repairs.fetch_add(1, Ordering::Relaxed);
                        Response::Repaired {
                            repaired: report.repaired.len() as u32,
                            unrepaired: report.unrepaired.len() as u32,
                        }
                    }
                    Err(e) => Self::err(ErrorCode::Internal, e.to_string()),
                },
            },
            Request::Ingest {
                index,
                appends,
                deletes,
            } => match self.registry.get(&index) {
                None => Self::err(ErrorCode::UnknownIndex, format!("no index named {index:?}")),
                Some(served) => match served.ingest(&appends, &deletes) {
                    Ok(summary) => {
                        self.metrics.ingests.fetch_add(1, Ordering::Relaxed);
                        Response::Ingested {
                            seq: summary.seq,
                            generation: summary.generation,
                            n_rows: summary.n_rows,
                        }
                    }
                    // An out-of-range value or row id is the client's
                    // mistake; anything else is a server-side failure.
                    Err(e @ (Error::ValueOutOfRange { .. } | Error::InvalidQuery(_))) => {
                        Self::err(ErrorCode::BadRequest, e.to_string())
                    }
                    Err(e) => Self::err(ErrorCode::Internal, e.to_string()),
                },
            },
            Request::Query {
                index,
                query,
                want_bitmap,
                deadline_ms,
            } => self.handle_query(
                &index,
                ServedQuery::Selection(query),
                want_bitmap,
                deadline_ms,
            ),
            Request::Threshold {
                index,
                k,
                predicates,
                want_bitmap,
                deadline_ms,
            } => {
                let query = ThresholdQuery::new(k, predicates);
                // Reject degenerate thresholds before they take a permit:
                // the request is wrong, not the server busy.
                if let Err(msg) = query.validate() {
                    return Self::err(ErrorCode::BadRequest, format!("invalid query: {msg}"));
                }
                self.handle_query(
                    &index,
                    ServedQuery::Threshold(query),
                    want_bitmap,
                    deadline_ms,
                )
            }
        }
    }

    fn handle_query(
        &self,
        index: &str,
        query: ServedQuery,
        want_bitmap: bool,
        deadline_ms: u64,
    ) -> Response {
        if self.draining.load(Ordering::SeqCst) {
            return Self::err(ErrorCode::ShuttingDown, "server is draining");
        }
        let Some(served) = self.registry.get(index) else {
            return Self::err(ErrorCode::UnknownIndex, format!("no index named {index:?}"));
        };
        let timeout = if deadline_ms == 0 {
            self.config.default_deadline
        } else {
            Duration::from_millis(deadline_ms)
        };
        let Ok(_permit) = self.permits.try_acquire() else {
            self.metrics.shed_overload.fetch_add(1, Ordering::Relaxed);
            return Self::err(
                ErrorCode::Overloaded,
                format!(
                    "{} queries in flight, the admission limit",
                    self.permits.capacity()
                ),
            );
        };
        self.metrics.admitted.fetch_add(1, Ordering::Relaxed);
        let sink = if want_bitmap { Sink::Keep } else { Sink::Count };
        let resp = match served.serve(query, Some(Deadline::after(timeout)), sink) {
            Ok(answer) => {
                if answer.degraded {
                    self.metrics.degraded.fetch_add(1, Ordering::Relaxed);
                }
                if want_bitmap {
                    let bits = answer
                        .bits
                        .expect("a keep-sink answer, cached or not, holds its foundset");
                    Response::Bitmap {
                        cardinality: answer.cardinality,
                        degraded: answer.degraded,
                        cached: answer.cached,
                        n_bits: bits.len() as u64,
                        words: bits.to_bitvec().words().to_vec(),
                    }
                } else {
                    Response::Count {
                        cardinality: answer.cardinality,
                        degraded: answer.degraded,
                        cached: answer.cached,
                    }
                }
            }
            Err(Error::DeadlineExceeded) => {
                self.metrics.shed_deadline.fetch_add(1, Ordering::Relaxed);
                Self::err(
                    ErrorCode::DeadlineExceeded,
                    "deadline expired mid-evaluation; partial work discarded",
                )
            }
            // A query the index rejects before evaluating — a constant
            // its base cannot decompose, or a malformed threshold that
            // slipped past the connection layer's check — is the
            // client's mistake, not a server fault: typed rejection, no
            // breaker or failure count.
            Err(e @ (Error::InvalidQuery(_) | Error::ValueOutOfRange { .. })) => {
                Self::err(ErrorCode::BadRequest, e.to_string())
            }
            Err(e) => {
                self.metrics.failed.fetch_add(1, Ordering::Relaxed);
                Self::err(ErrorCode::QueryFailed, e.to_string())
            }
        };
        self.metrics.completed.fetch_add(1, Ordering::Relaxed);
        resp
    }
}

fn handle_conn(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_millis(200)));
    let _ = stream.set_nodelay(true);
    let mut reader = FrameReader::new();
    loop {
        // A read timeout keeps the partial frame in `reader` and lets the
        // loop check the drain flag a few times a second.
        let payload = match reader.poll(&mut stream) {
            Ok(Some(p)) => p,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if shared.draining.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
            Ok(None) | Err(_) => return,
        };
        let resp = match Request::decode(&payload) {
            Ok(req) => shared.handle_request(req),
            Err(e) => Shared::err(ErrorCode::BadRequest, e.to_string()),
        };
        let bytes = resp.encode().unwrap_or_else(|e| {
            Shared::err(
                ErrorCode::Internal,
                format!("response encoding failed: {e}"),
            )
            .encode()
            .expect("error responses always encode")
        });
        if write_frame(&mut stream, &bytes).is_err() {
            return;
        }
    }
}

/// What the drain left behind; returned by [`Server::shutdown`].
#[derive(Debug, Clone, Copy)]
pub struct DrainReport {
    /// Queries holding a permit when the drain began (all of them were
    /// answered before shutdown returned).
    pub in_flight_at_close: usize,
    /// Total queries answered over the server's lifetime.
    pub completed: u64,
    /// Queries shed with `Overloaded`.
    pub shed_overload: u64,
    /// Queries shed by their deadline mid-evaluation.
    pub shed_deadline: u64,
}

/// A running server: owns the acceptor and live connections.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `listen` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the acceptor; each connection gets a thread of its own.
    pub fn start(registry: Registry, config: ServerConfig, listen: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            registry,
            permits: Permits::new(config.workers.max(1) + config.queue_depth),
            config,
            metrics: Metrics::default(),
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
        });
        let conns: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
        let acceptor = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shared.draining.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(stream) = stream else { continue };
                    let shared = Arc::clone(&shared);
                    let handle = std::thread::spawn(move || handle_conn(&shared, stream));
                    conns.lock().unwrap().push(handle);
                }
            })
        };
        Ok(Server {
            shared,
            addr,
            acceptor: Some(acceptor),
            conns,
        })
    }

    /// The bound address (useful with an ephemeral listen port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `true` once a client has sent [`Request::Shutdown`]; the owner is
    /// expected to call [`Server::shutdown`].
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown_requested.load(Ordering::SeqCst)
    }

    /// Aggregate counters (same numbers a `Stats` request returns).
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Graceful drain: refuse new work, let every admitted query finish,
    /// join every thread. Consumes the server; returns what was in flight.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.draining.store(true, Ordering::SeqCst);
        let in_flight_at_close = self.shared.permits.held();
        // Wake the acceptor out of `accept()` with a throwaway
        // connection; it sees the drain flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap());
        for conn in conns {
            let _ = conn.join();
        }
        DrainReport {
            in_flight_at_close,
            completed: self.shared.metrics.completed.load(Ordering::Relaxed),
            shed_overload: self.shared.metrics.shed_overload.load(Ordering::Relaxed),
            shed_deadline: self.shared.metrics.shed_deadline.load(Ordering::Relaxed),
        }
    }
}
