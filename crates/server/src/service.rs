//! The server proper: acceptor, connection handlers, bounded admission
//! queue, evaluation workers, and graceful drain.
//!
//! ```text
//!  TCP conns ──▶ conn threads ──try_push──▶ BoundedQueue ──pop──▶ workers
//!                    │   ▲                   (high-water:            │
//!                    │   └── typed reply ◀── shed Overloaded) ◀─────┘
//! ```
//!
//! Each accepted connection gets a thread that decodes frames and answers
//! control requests inline; queries are wrapped in a [`Job`] carrying a
//! per-request [`Deadline`] and a rendezvous channel, then offered to the
//! bounded queue — *offered*, never waited: a full queue is an immediate
//! typed `Overloaded` response, which is the load-shedding contract.
//! Workers pop jobs, drop the ones whose deadline already expired while
//! queued (the deadline also rides into the engine, which cancels
//! between morsels), and reply through the channel.
//!
//! Drain ([`Server::shutdown`]) is a strict sequence: stop admitting
//! (flag + queue close), wake the acceptor with a self-connection, join
//! workers (they finish everything already queued), then join connection
//! threads (their read loops poll the drain flag on a short timeout).
//! Nothing in flight is dropped; everything not yet admitted is refused
//! with `ShuttingDown`.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use bindex::core::{Deadline, Error};
use bindex::relation::query::ThresholdQuery;

use crate::admission::{BoundedQueue, PushError};
use crate::protocol::{write_frame, ErrorCode, FrameReader, Request, Response, StatsSnapshot};
use crate::registry::{Registry, ServedIndex, ServedQuery};

/// Tuning for one server instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Evaluation worker threads.
    pub workers: usize,
    /// Admission-queue high-water mark; arrivals beyond it are shed.
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

/// One admitted query on its way to a worker.
struct Job {
    index: Arc<ServedIndex>,
    query: ServedQuery,
    want_bitmap: bool,
    deadline: Deadline,
    reply: SyncSender<Response>,
}

struct Shared {
    registry: Registry,
    config: ServerConfig,
    queue: BoundedQueue<Job>,
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
                // Reject degenerate thresholds before they consume a
                // queue slot: the request is wrong, not the server busy.
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
        let (reply, answer) = sync_channel(1);
        let job = Job {
            index: served,
            query,
            want_bitmap,
            deadline: Deadline::after(timeout),
            reply,
        };
        match self.queue.try_push(job) {
            Ok(()) => {
                self.metrics.admitted.fetch_add(1, Ordering::Relaxed);
            }
            Err(PushError::Full(_)) => {
                self.metrics.shed_overload.fetch_add(1, Ordering::Relaxed);
                return Self::err(
                    ErrorCode::Overloaded,
                    format!("admission queue full (depth {})", self.queue.capacity()),
                );
            }
            Err(PushError::Closed(_)) => {
                return Self::err(ErrorCode::ShuttingDown, "server is draining");
            }
        }
        // The deadline rides into the engine, which cancels between
        // morsels — but a single fetch inside one morsel is not
        // interruptible, so give the worker a grace window beyond the
        // deadline before declaring the reply lost.
        let grace = timeout + Duration::from_secs(2);
        match answer.recv_timeout(grace) {
            Ok(resp) => resp,
            Err(RecvTimeoutError::Timeout) => Self::err(
                ErrorCode::DeadlineExceeded,
                "no answer within the deadline grace window",
            ),
            Err(RecvTimeoutError::Disconnected) => {
                Self::err(ErrorCode::Internal, "worker dropped the reply channel")
            }
        }
    }
}

fn worker_loop(shared: &Shared) {
    while let Some(job) = shared.queue.pop() {
        let resp = if job.deadline.expired() {
            // Shed without touching the index: the time budget was spent
            // waiting in the queue.
            shared.metrics.shed_deadline.fetch_add(1, Ordering::Relaxed);
            Shared::err(ErrorCode::DeadlineExceeded, "deadline expired while queued")
        } else {
            match job.index.execute_any(job.query, Some(job.deadline)) {
                Ok(answer) => {
                    if answer.degraded {
                        shared.metrics.degraded.fetch_add(1, Ordering::Relaxed);
                    }
                    if job.want_bitmap {
                        Response::Bitmap {
                            cardinality: answer.cardinality,
                            degraded: answer.degraded,
                            cached: answer.cached,
                            n_bits: answer.bits.len() as u64,
                            words: answer.bits.to_bitvec().words().to_vec(),
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
                    shared.metrics.shed_deadline.fetch_add(1, Ordering::Relaxed);
                    Shared::err(
                        ErrorCode::DeadlineExceeded,
                        "deadline expired mid-evaluation; partial work discarded",
                    )
                }
                // A query the index rejects before evaluating — a constant
                // its base cannot decompose, or a malformed threshold that
                // slipped past the connection layer's check — is the
                // client's mistake, not a server fault: typed rejection,
                // no breaker or failure count.
                Err(e @ (Error::InvalidQuery(_) | Error::ValueOutOfRange { .. })) => {
                    Shared::err(ErrorCode::BadRequest, e.to_string())
                }
                Err(e) => {
                    shared.metrics.failed.fetch_add(1, Ordering::Relaxed);
                    Shared::err(ErrorCode::QueryFailed, e.to_string())
                }
            }
        };
        shared.metrics.completed.fetch_add(1, Ordering::Relaxed);
        // The connection may have given up (grace window elapsed) — a
        // dead receiver is fine.
        let _ = job.reply.send(resp);
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
    /// Jobs still queued when the drain began (all of them were finished
    /// by the workers before shutdown returned).
    pub queued_at_close: usize,
    /// Total queries answered over the server's lifetime.
    pub completed: u64,
    /// Queries shed with `Overloaded`.
    pub shed_overload: u64,
    /// Queries shed by their deadline (queued or mid-evaluation).
    pub shed_deadline: u64,
}

/// A running server: owns the acceptor, workers, and live connections.
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
    conns: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Binds `listen` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the acceptor and `config.workers` evaluation workers.
    pub fn start(registry: Registry, config: ServerConfig, listen: &str) -> io::Result<Server> {
        let listener = TcpListener::bind(listen)?;
        let addr = listener.local_addr()?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            registry,
            queue: BoundedQueue::new(config.queue_depth),
            config,
            metrics: Metrics::default(),
            draining: AtomicBool::new(false),
            shutdown_requested: AtomicBool::new(false),
        });
        let worker_handles: Vec<_> = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
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
            workers: worker_handles,
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

    /// Graceful drain: refuse new work, finish queued work, join every
    /// thread. Consumes the server; returns what was in flight.
    pub fn shutdown(mut self) -> DrainReport {
        self.shared.draining.store(true, Ordering::SeqCst);
        let queued_at_close = self.shared.queue.len();
        self.shared.queue.close();
        // Wake the acceptor out of `accept()` with a throwaway
        // connection; it sees the drain flag and exits.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        let conns = std::mem::take(&mut *self.conns.lock().unwrap());
        for conn in conns {
            let _ = conn.join();
        }
        DrainReport {
            queued_at_close,
            completed: self.shared.metrics.completed.load(Ordering::Relaxed),
            shed_overload: self.shared.metrics.shed_overload.load(Ordering::Relaxed),
            shed_deadline: self.shared.metrics.shed_deadline.load(Ordering::Relaxed),
        }
    }
}
