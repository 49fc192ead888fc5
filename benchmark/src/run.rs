//! The four workloads, run through the end-to-end API of `adapter.rs`
//! alone: set up three times, warm, measure an untraced window with every
//! answer checked, then (with `--trace`) replay the stream once more under
//! spans and hand the store directory to the layer probes.

use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::adapter::{Conn, Dataset, MemIndex, Reply, Serving};
use crate::catalog::{Owner, PER_LAYER};
use crate::env::{self, Scratch};
use crate::openloop::Schedule;
use crate::oracle::{reference_words, Oracle, VersionedOracle};
use crate::probes;
use crate::query::{Op, Query};
use crate::rng::Rng;
use crate::spec::{self, QueryStream, Scale, Workload, CARDINALITY, INGEST_RATE};
use crate::stats::{self, Slice};
use crate::trace::{self, Recorder, LEVELS};

/// Set-ups per run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;

/// Distinct `want_bitmap` replies checked bit for bit per run.
const BITMAPS_CHECKED: usize = 64;

/// Ingest batches the traced replay sends after its queries.
const TRACED_INGESTS: usize = 8;

/// Requests of the traced-versus-untraced comparison behind
/// `trace.overhead_pct`.
const OVERHEAD_OPS: usize = 800;

/// Counts the durability check samples after a restart.
const RESTART_SAMPLES: usize = 100;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Full size or smoke.
    pub scale: Scale,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Whether to add the traced pass and the layer probes.
    pub trace: bool,
}

/// Operations attempted and operations that failed or answered wrongly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Transport errors + typed errors + sheds + wrong answers.
    pub failed: u64,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// What one run measured.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Operations attempted and failed over the whole run.
    pub tally: Tally,
    /// The end-to-end metrics, in catalogue order.
    pub end_to_end: Vec<(&'static str, f64)>,
    /// The per-layer metrics (`None` = that layer's probe failed); empty
    /// without `--trace`.
    pub layer: BTreeMap<&'static str, Option<f64>>,
    /// Workload-specific end-to-end numbers, shown in the printed table
    /// on every run (they are per-layer metrics in `BENCHMARK.json`).
    pub extra: Vec<(&'static str, f64)>,
}

/// Runs one workload.
pub fn run(cfg: RunConfig) -> Result<RunResult, String> {
    if cfg.workload.pinned() {
        // Before any thread exists: every thread started later inherits it.
        crate::affinity::pin_to_one_cpu();
    }
    match cfg.workload {
        Workload::BatchScan => run_batch(cfg),
        _ => {
            let scratch =
                Scratch::new(&format!("run-{}", cfg.workload.name())).map_err(|e| e.to_string())?;
            run_served(cfg, scratch.path())
        }
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        stats::median(values)
    }
}

/// Where set-up time went; `total_s` is what `setup_s` reports.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimings {
    total_s: f64,
    gen_s: f64,
    build_s: f64,
    persist_s: f64,
    stored_bytes: u64,
}

struct Served {
    data: Dataset,
    oracle: VersionedOracle,
    batches: Vec<Vec<u32>>,
    serving: Serving,
    timings: SetupTimings,
}

fn readers(w: Workload) -> usize {
    let t = spec::parallelism();
    if w == Workload::IngestMixed {
        t.saturating_sub(1).max(1)
    } else {
        t
    }
}

/// One reply checked against the oracle: the count must be right for a
/// version the read could have seen, and a bitmap must carry exactly that
/// many set bits over exactly the column's rows.
fn reply_ok(
    reply: &Result<Reply, String>,
    q: Query,
    oracle: &VersionedOracle,
    acked_before: usize,
    sent_after: usize,
) -> bool {
    match reply {
        Ok(Reply::Count(c)) => oracle.admits(q, acked_before, sent_after, *c),
        Ok(Reply::Bitmap {
            count,
            n_bits,
            words,
        }) => {
            oracle.admits(q, acked_before, sent_after, *count)
                && words.iter().map(|w| u64::from(w.count_ones())).sum::<u64>() == *count
                && (acked_before..=sent_after.max(acked_before))
                    .any(|v| oracle.at(v).rows() == *n_bits)
        }
        Err(_) => false,
    }
}

fn setup_served(cfg: RunConfig, dir: &Path, n_batches: usize) -> Result<(Served, Tally), String> {
    let w = cfg.workload;
    let t0 = Instant::now();
    let data = spec::base_column(w, cfg.scale, cfg.seed);
    let gen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let index = MemIndex::build(&data)?;
    let build_s = t1.elapsed().as_secs_f64();
    let t2 = Instant::now();
    index.persist(dir)?;
    let persist_s = t2.elapsed().as_secs_f64();
    drop(index);
    let t3 = Instant::now();
    let serving = Serving::start(dir, w.tuning(), spec::parallelism())?;
    let start_s = t3.elapsed().as_secs_f64();

    // The oracle is the benchmark's own cost, not the system's: untimed.
    let batches = spec::append_batches(cfg.seed, n_batches);
    let oracle = VersionedOracle::new(Oracle::new(data.values(), CARDINALITY), &batches);
    let stored_bytes = env::dir_bytes(dir).map_err(|e| e.to_string())?;

    let t4 = Instant::now();
    let addr = serving.addr();
    let warm = cfg.scale.warm_ops(w);
    let tallies: Vec<Result<Tally, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers(w))
            .map(|i| {
                let oracle = &oracle;
                scope.spawn(move || -> Result<Tally, String> {
                    let mut conn = Conn::connect(addr)?;
                    let mut stream = QueryStream::new(w, cfg.seed, 1000 + i as u64);
                    let mut tally = Tally::default();
                    for _ in 0..warm {
                        let (q, want_bitmap) = stream.next_request();
                        let reply = conn.query(q, want_bitmap);
                        tally.record(reply_ok(&reply, q, oracle, 0, 0));
                    }
                    Ok(tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "warm-up thread panicked".to_string())?
            })
            .collect()
    });
    let warm_s = t4.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    for t in tallies {
        tally.add(t?);
    }
    let timings = SetupTimings {
        total_s: gen_s + build_s + persist_s + start_s + warm_s,
        gen_s,
        build_s,
        persist_s,
        stored_bytes,
    };
    Ok((
        Served {
            data,
            oracle,
            batches,
            serving,
            timings,
        },
        tally,
    ))
}

/// One verified reply: when it completed (seconds into the window) and
/// how long the caller waited.
#[derive(Debug, Clone, Copy)]
struct Sample {
    at_s: f64,
    ms: f64,
    bitmap: bool,
}

struct ReaderOut {
    samples: Vec<Sample>,
    tally: Tally,
    /// First distinct `want_bitmap` replies, for the bit-for-bit check.
    bitmaps: Vec<(Query, Vec<u64>)>,
}

struct Shared<'a> {
    oracle: &'a VersionedOracle,
    /// Ingest batches acknowledged so far.
    acked: &'a AtomicUsize,
    /// Ingest batches sent so far (stored before the send).
    sent: &'a AtomicUsize,
    start: Instant,
    deadline: Instant,
}

fn reader_loop(
    conn: &mut Conn,
    mut stream: QueryStream,
    shared: &Shared<'_>,
    keep_bitmaps: usize,
) -> ReaderOut {
    let mut out = ReaderOut {
        samples: Vec::with_capacity(1 << 17),
        tally: Tally::default(),
        bitmaps: Vec::new(),
    };
    let mut kept: HashSet<Query> = HashSet::new();
    while Instant::now() < shared.deadline {
        let (q, want_bitmap) = stream.next_request();
        let acked_before = shared.acked.load(Ordering::SeqCst);
        let start = Instant::now();
        let reply = conn.query(q, want_bitmap);
        let elapsed = start.elapsed();
        let sent_after = shared.sent.load(Ordering::SeqCst);
        let ok = reply_ok(&reply, q, shared.oracle, acked_before, sent_after);
        out.tally.record(ok);
        if !ok {
            continue;
        }
        out.samples.push(Sample {
            at_s: (start + elapsed - shared.start).as_secs_f64(),
            ms: ms(elapsed),
            bitmap: want_bitmap,
        });
        if let Ok(Reply::Bitmap { words, .. }) = reply {
            if kept.len() < keep_bitmaps && kept.insert(q) {
                out.bitmaps.push((q, words));
            }
        }
    }
    out
}

#[derive(Default)]
struct WriterOut {
    ack_ms: Vec<f64>,
    lag_ms: Vec<f64>,
    tally: Tally,
}

/// Sends batch `i` and checks the acknowledged row count; on success the
/// batch is visible to every later read.
fn ingest_one(conn: &mut Conn, i: usize, batches: &[Vec<u32>], shared: &Shared<'_>) -> bool {
    shared.sent.store(i + 1, Ordering::SeqCst);
    let ok = matches!(conn.ingest(&batches[i]), Ok(rows) if rows == shared.oracle.at(i + 1).rows());
    if ok {
        shared.acked.store(i + 1, Ordering::SeqCst);
    }
    ok
}

fn writer_loop(conn: &mut Conn, batches: &[Vec<u32>], shared: &Shared<'_>) -> WriterOut {
    let schedule = Schedule::new(shared.start, INGEST_RATE);
    let mut out = WriterOut::default();
    for i in 0..batches.len() {
        let due = schedule.due(i as u32);
        if due >= shared.deadline {
            break;
        }
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        let sent = Instant::now();
        let ok = ingest_one(conn, i, batches, shared);
        let timing = schedule.account(i as u32, sent, Instant::now());
        out.tally.record(ok);
        if !ok {
            // The store's version is now unknown; stop writing so the
            // readers' oracle window stays a true bound.
            break;
        }
        out.ack_ms.push(ms(timing.latency));
        out.lag_ms.push(ms(timing.lag));
    }
    out
}

/// Shortest slice of the timed window (see `stats::steady`).
const SLICE_MIN_S: f64 = 0.25;

/// Operations a slice should hold on average. A slice's rate is a count,
/// and picking the fastest slices of a slow workload would otherwise pick
/// counting noise: `serve_cold` answers ~125 requests per quarter second.
const SLICE_OPS: f64 = 500.0;

struct Window {
    /// Count-only latencies of the whole window, for the tail percentile.
    count_ms: Vec<f64>,
    bitmap_ms: Vec<f64>,
    /// The window cut into equal pieces of about [`SLICE_OPS`] replies
    /// (at least [`SLICE_MIN_S`] long): verified replies and the
    /// count-only latencies among them.
    slices: Vec<Slice>,
    writer: WriterOut,
    tally: Tally,
    bitmaps: Vec<(Query, Vec<u64>)>,
}

fn timed_window(
    cfg: RunConfig,
    served: &Served,
    acked: &AtomicUsize,
    sent: &AtomicUsize,
) -> Result<Window, String> {
    let w = cfg.workload;
    let addr = served.serving.addr();
    let mut conns = (0..readers(w))
        .map(|_| Conn::connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut writer_conn = if w == Workload::IngestMixed {
        Some(Conn::connect(addr)?)
    } else {
        None
    };
    let start = Instant::now();
    let shared = Shared {
        oracle: &served.oracle,
        acked,
        sent,
        start,
        deadline: start + Duration::from_secs_f64(cfg.seconds),
    };
    let (outs, writer) = std::thread::scope(|scope| {
        let shared = &shared;
        let handles: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(i, conn)| {
                let stream = QueryStream::new(w, cfg.seed, i as u64);
                let keep = if i == 0 { BITMAPS_CHECKED } else { 0 };
                scope.spawn(move || reader_loop(conn, stream, shared, keep))
            })
            .collect();
        let writer = writer_conn
            .as_mut()
            .map(|conn| scope.spawn(move || writer_loop(conn, &served.batches, shared)));
        let outs: Vec<ReaderOut> = handles
            .into_iter()
            .map(|h| h.join().expect("reader thread panicked"))
            .collect();
        let writer = writer.map(|h| h.join().expect("writer thread panicked"));
        (outs, writer)
    });
    let replies: usize = outs.iter().map(|o| o.samples.len()).sum();
    let slice_s = (SLICE_OPS * cfg.seconds / replies.max(1) as f64)
        .clamp(SLICE_MIN_S.min(cfg.seconds), cfg.seconds);
    let n_slices = ((cfg.seconds / slice_s) as usize).max(1);
    let mut window = Window {
        count_ms: Vec::new(),
        bitmap_ms: Vec::new(),
        slices: vec![
            Slice {
                seconds: slice_s,
                ..Slice::default()
            };
            n_slices
        ],
        writer: writer.unwrap_or_default(),
        tally: Tally::default(),
        bitmaps: Vec::new(),
    };
    for out in outs {
        for s in out.samples {
            // A reply that lands after the nominal window belongs to no slice.
            if let Some(slice) = window.slices.get_mut((s.at_s / slice_s) as usize) {
                slice.ops += 1;
                if !s.bitmap {
                    slice.latencies_ms.push(s.ms);
                }
            }
            if s.bitmap {
                window.bitmap_ms.push(s.ms);
            } else {
                window.count_ms.push(s.ms);
            }
        }
        window.tally.add(out.tally);
        window.bitmaps.extend(out.bitmaps);
    }
    window.tally.add(window.writer.tally);
    Ok(window)
}

/// The first distinct `want_bitmap` replies against `core::eval::naive`,
/// bit for bit. Only `serve_hot` asks for bitmaps, and it never ingests,
/// so the base column is the reference.
fn check_bitmaps(data: &Dataset, bitmaps: &[(Query, Vec<u64>)]) -> Tally {
    let mut tally = Tally::default();
    for (q, words) in bitmaps {
        tally.record(data.naive_words(*q) == *words);
    }
    tally
}

/// After `ingest_mixed`: a fresh server over the directory must hold every
/// acknowledged batch — the row count and sampled counts match the oracle.
fn check_restart(cfg: RunConfig, dir: &Path, oracle: &Oracle) -> Result<Tally, String> {
    let serving = Serving::start(dir, cfg.workload.tuning(), 1)?;
    let mut conn = Conn::connect(serving.addr())?;
    let mut tally = Tally::default();
    let all_rows = Query { op: Op::Ge, v: 0 };
    tally.record(matches!(conn.query(all_rows, false), Ok(Reply::Count(c)) if c == oracle.rows()));
    let mut rng = Rng::new(cfg.seed, 0xD07A);
    for _ in 0..RESTART_SAMPLES {
        let q = Query {
            op: Op::ALL[rng.below(6) as usize],
            v: rng.below(u64::from(CARDINALITY)) as u32,
        };
        tally.record(matches!(conn.query(q, false), Ok(Reply::Count(c)) if c == oracle.count(q)));
    }
    drop(conn);
    serving.shutdown();
    Ok(tally)
}

/// One request of the traced pass at concurrency 1; with a recorder the
/// call is an L0 span. Returns the latency in microseconds if the request
/// was count-only.
fn query_l0(
    conn: &mut Conn,
    op_id: usize,
    (q, want_bitmap): (Query, bool),
    oracle: &Oracle,
    rec: Option<&mut Recorder>,
    tally: &mut Tally,
) -> Option<f64> {
    let start = Instant::now();
    let reply = match rec {
        Some(rec) => rec.time(LEVELS[0].0, op_id as u32, None, || {
            conn.query(q, want_bitmap)
        }),
        None => conn.query(q, want_bitmap),
    };
    let elapsed = start.elapsed();
    tally.record(match reply {
        Ok(Reply::Count(c)) | Ok(Reply::Bitmap { count: c, .. }) => c == oracle.count(q),
        Err(_) => false,
    });
    (!want_bitmap).then_some(elapsed.as_secs_f64() * 1e6)
}

/// The driver's share of the traced pass, on the window's own server: the
/// server counters, the L0 replay (spans appended to the trace file), what
/// the spans cost, and on `ingest_mixed` a few traced ingest batches.
/// Returns the L0 level time.
fn traced_pass(
    cfg: RunConfig,
    served: &Served,
    acked: &AtomicUsize,
    sent: &AtomicUsize,
    tally: &mut Tally,
    layer: &mut BTreeMap<&'static str, Option<f64>>,
) -> Result<Option<f64>, String> {
    let w = cfg.workload;
    let mut conn = Conn::connect(served.serving.addr())?;
    let counters = conn.stats()?;
    let lookups = counters.cache_hits + counters.cache_misses;
    layer.insert(
        "server.cache_hit_ratio",
        Some(if lookups == 0 {
            0.0
        } else {
            counters.cache_hits as f64 / lookups as f64
        }),
    );
    layer.insert("server.shed", Some(counters.shed as f64));

    // L0: the first requests of connection 0's stream, one span each, as
    // many passes as the probes make at the levels below.
    let mut stream = QueryStream::new(w, cfg.seed, 0);
    let ops: Vec<(Query, bool)> = (0..cfg.scale.trace_ops(w))
        .map(|_| stream.next_request())
        .collect();
    let oracle = served.oracle.at(acked.load(Ordering::SeqCst));
    let mut rec = Recorder::new();
    for _ in 0..probes::REPLAY_PASSES {
        for (i, &op) in ops.iter().enumerate() {
            query_l0(&mut conn, i, op, oracle, Some(&mut rec), tally);
        }
    }
    // What the spans cost: the next requests alternately with and without
    // one, so both halves see the same caches and the same box.
    let mut scratch_rec = Recorder::new();
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    for i in 0..ops.len().min(OVERHEAD_OPS) {
        let (rec, into) = if i % 2 == 0 {
            (Some(&mut scratch_rec), &mut traced)
        } else {
            (None, &mut untraced)
        };
        into.extend(query_l0(
            &mut conn,
            i,
            stream.next_request(),
            oracle,
            rec,
            tally,
        ));
    }
    let (u, t) = (median_or_zero(&untraced), median_or_zero(&traced));
    layer.insert(
        "trace.overhead_pct",
        Some(if u > 0.0 { (t - u) / u * 100.0 } else { 0.0 }),
    );

    if w == Workload::IngestMixed {
        let now = Instant::now();
        let shared = Shared {
            oracle: &served.oracle,
            acked,
            sent,
            start: now,
            deadline: now,
        };
        for k in 0..TRACED_INGESTS {
            let i = acked.load(Ordering::SeqCst);
            let ok = rec.time(trace::INGEST_SPANS[0], k as u32, None, || {
                ingest_one(&mut conn, i, &served.batches, &shared)
            });
            tally.record(ok);
            if !ok {
                break;
            }
        }
    }
    let trace_path = probes::trace_path(w);
    let _ = std::fs::remove_file(&trace_path);
    rec.append_jsonl(&trace_path).map_err(|e| e.to_string())?;
    let l0_us = rec.level_us(LEVELS[0].0);
    layer.insert("trace.l0_us", l0_us);
    Ok(l0_us)
}

fn run_served(cfg: RunConfig, scratch: &Path) -> Result<RunResult, String> {
    let w = cfg.workload;
    let n_batches = if w == Workload::IngestMixed {
        (cfg.seconds * INGEST_RATE).ceil() as usize + TRACED_INGESTS + 8
    } else {
        0
    };
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUP_ROUNDS);
    let mut kept = None;
    for round in 0..SETUP_ROUNDS {
        let dir = scratch.join(format!("store-{round}"));
        let (served, warm_tally) = setup_served(cfg, &dir, n_batches)?;
        tally.add(warm_tally);
        setups.push(served.timings);
        if round + 1 < SETUP_ROUNDS {
            served.serving.shutdown();
            std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
        } else {
            kept = Some((served, dir));
        }
    }
    let (served, dir) = kept.expect("the last set-up is kept");

    let acked = AtomicUsize::new(0);
    let sent = AtomicUsize::new(0);
    let window = timed_window(cfg, &served, &acked, &sent)?;
    tally.add(window.tally);
    tally.add(check_bitmaps(&served.data, &window.bitmaps));

    // `steady` is `Some` only if some slice holds a count-only latency, so
    // `count_ms` is not empty below.
    let (qps, p50_ms) =
        stats::steady(&window.slices).ok_or("the timed window completed no count query")?;
    let mut count_ms = window.count_ms;
    stats::sort(&mut count_ms);
    let tail_pct = stats::supported_percentile(count_ms.len()).map_or(50.0, |p| p.min(99.0));
    let p99_ms = stats::percentile(&count_ms, tail_pct);

    // The traced pass runs before the server goes away.
    let mut layer = BTreeMap::new();
    let mut l0_us = None;
    if cfg.trace {
        l0_us = traced_pass(cfg, &served, &acked, &sent, &mut tally, &mut layer)?;
    }

    served.serving.shutdown();
    let final_acked = acked.load(Ordering::SeqCst);
    let final_oracle = served.oracle.at(final_acked);
    if w == Workload::IngestMixed {
        tally.add(check_restart(cfg, &dir, final_oracle)?);
    }
    let end_bytes = env::dir_bytes(&dir).map_err(|e| e.to_string())?;
    let setup = median_setup(&setups);

    let ingest_p50 = median_or_zero(&window.writer.ack_ms);
    let extra = vec![
        ("server.count_p99_ms", p99_ms),
        ("server.bitmap_p50_ms", median_or_zero(&window.bitmap_ms)),
        ("bindex.ingest_p50_ms", ingest_p50),
        ("driver.sample_count", count_ms.len() as f64),
        (
            "driver.error_rate",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        ),
    ];
    if cfg.trace {
        let mut ack_ms = window.writer.ack_ms.clone();
        stats::sort(&mut ack_ms);
        layer.insert(
            "bindex.ingest_p90_ms",
            Some(if ack_ms.is_empty() {
                0.0
            } else {
                stats::percentile(&ack_ms, 90.0)
            }),
        );
        layer.insert(
            "bindex.gen_lag_ms",
            Some(median_or_zero(&window.writer.lag_ms)),
        );
        layer.insert("storage.stored_bytes", Some(end_bytes as f64));
        setup_layer_metrics(&mut layer, cfg, &setup);
        let probe_metrics = probes::run_all(cfg, Some(&dir), final_acked);
        finish_layer(&mut layer, &extra, probe_metrics, l0_us, w);
    }

    Ok(RunResult {
        tally,
        end_to_end: vec![
            ("qps", qps),
            ("p50_ms", p50_ms),
            ("setup_s", setup.total_s),
            ("peak_rss_mb", env::peak_rss_mib().unwrap_or(0.0)),
            (
                "stored_bytes_per_row",
                end_bytes as f64 / final_oracle.rows() as f64,
            ),
        ],
        layer,
        extra,
    })
}

fn median_setup(rounds: &[SetupTimings]) -> SetupTimings {
    let med =
        |f: fn(&SetupTimings) -> f64| stats::median(&rounds.iter().map(f).collect::<Vec<_>>());
    SetupTimings {
        total_s: med(|t| t.total_s),
        gen_s: med(|t| t.gen_s),
        build_s: med(|t| t.build_s),
        persist_s: med(|t| t.persist_s),
        stored_bytes: rounds.last().map_or(0, |t| t.stored_bytes),
    }
}

fn setup_layer_metrics(
    layer: &mut BTreeMap<&'static str, Option<f64>>,
    cfg: RunConfig,
    setup: &SetupTimings,
) {
    let rows = cfg.scale.rows(cfg.workload) as f64;
    let per_s = |secs: f64, amount: f64| if secs > 0.0 { amount / secs } else { 0.0 };
    layer.insert("relation.gen_rows_per_s", Some(per_s(setup.gen_s, rows)));
    layer.insert("core.build_rows_per_s", Some(per_s(setup.build_s, rows)));
    layer.insert(
        "storage.persist_mbps",
        Some(per_s(setup.persist_s, setup.stored_bytes as f64 / 1e6)),
    );
}

/// Adds the probes' metrics and everything derived from two levels, fills
/// what does not apply to this workload with 0, and prints the budget.
fn finish_layer(
    layer: &mut BTreeMap<&'static str, Option<f64>>,
    extra: &[(&'static str, f64)],
    probe_metrics: BTreeMap<&'static str, Option<f64>>,
    l0_us: Option<f64>,
    w: Workload,
) {
    for &(name, value) in extra {
        layer.insert(name, Some(value));
    }
    layer.extend(probe_metrics);
    let get = |layer: &BTreeMap<&'static str, Option<f64>>, name: &str| {
        layer.get(name).copied().flatten()
    };
    let level_metric = [
        "trace.l0_us",
        "server.execute_us",
        "engine.single_query_us",
        "bindex.source_eval_us",
        "core.eval_us",
        "bitvec.kernel_us",
    ];
    let mut medians: Vec<Option<f64>> = vec![None; LEVELS.len()];
    for &i in w.trace_levels() {
        medians[i] = if i == 0 {
            l0_us
        } else {
            get(layer, level_metric[i])
        };
    }
    let selfs = trace::self_times(&medians);
    let diff = |a: usize, b: usize| Some(medians[a]? - medians[b]?);
    let ratio = |num: Option<f64>, den: Option<f64>| match (num, den) {
        (Some(n), Some(d)) if d > 0.0 => Some(n / d),
        _ => None,
    };
    let inner_of_l2 = if w == Workload::BatchScan { 4 } else { 3 };
    // (metric, the levels it is computed from, its value)
    let derived: [(&'static str, &[usize], Option<f64>); 7] = [
        ("server.registry_overhead_us", &[1, 2], diff(1, 2)),
        ("engine.batch_overhead_us", &[2], diff(2, inner_of_l2)),
        ("bindex.fetch_share", &[3, 4], ratio(diff(3, 4), medians[3])),
        (
            "bitvec.kernel_share",
            &[4, 5],
            ratio(medians[5], medians[4]),
        ),
        ("trace.server_share", &[0, 2], ratio(diff(0, 2), medians[0])),
        (
            "trace.storage_share",
            &[0, 3, 4],
            ratio(diff(3, 4), medians[0]),
        ),
        (
            "trace.top_self_level",
            &[],
            trace::largest_self(&selfs).map(|i| i as f64),
        ),
    ];
    for (name, levels, value) in derived {
        // A level this workload does not peel makes the metric "not
        // applicable" (0); a level whose probe failed makes it unknown
        // (null).
        let applies = levels.iter().all(|l| w.trace_levels().contains(l));
        layer.insert(name, if applies { value } else { Some(0.0) });
    }
    for m in &PER_LAYER {
        if m.owner != Owner::Derived {
            layer.entry(m.name).or_insert(Some(0.0));
        }
    }
    print_budget(w, &medians, &selfs);
}

fn print_budget(w: Workload, medians: &[Option<f64>], selfs: &[Option<f64>]) {
    println!(
        "trace budget, {} (median us per operation at concurrency 1):",
        w.name()
    );
    let outer = medians.iter().flatten().next().copied().unwrap_or(0.0);
    for (i, (name, what)) in LEVELS.iter().enumerate() {
        if let (Some(m), Some(s)) = (medians[i], selfs[i]) {
            let share = if outer > 0.0 { s / outer * 100.0 } else { 0.0 };
            println!("  {name:<24} median {m:>10.2}  self {s:>10.2}  {share:>5.1}%  {what}");
        }
    }
    match trace::largest_self(selfs) {
        Some(i) => println!("  largest self time: {}", LEVELS[i].0),
        None => println!("  no level was measured"),
    }
    // Levels are replayed one after another, in separate processes, so two
    // levels a microsecond apart can come out in the wrong order; beyond
    // that, an inner level slower than its outer one is a finding.
    for i in trace::negative_selfs(selfs, outer) {
        eprintln!(
            "warning: {} has a negative self time beyond measurement noise: the level inside it is slower",
            LEVELS[i].0
        );
    }
}

struct Batch {
    index: MemIndex,
    data: Dataset,
    oracle: Oracle,
    timings: SetupTimings,
}

/// Checks one selection batch's answers by count, O(1) each.
fn check_selection(run: &crate::adapter::BatchRun, queries: &[Query], oracle: &Oracle) -> Tally {
    let mut tally = Tally::default();
    for (q, answer) in queries.iter().zip(&run.answers) {
        tally.record(
            answer
                .as_ref()
                .is_some_and(|a| a.count() == oracle.count(*q)),
        );
    }
    tally
}

fn setup_batch(cfg: RunConfig, queries: &[Query]) -> Result<(Batch, Tally), String> {
    let t0 = Instant::now();
    let data = spec::base_column(cfg.workload, cfg.scale, cfg.seed);
    let gen_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let index = MemIndex::build(&data)?;
    let build_s = t1.elapsed().as_secs_f64();
    let oracle = Oracle::new(data.values(), CARDINALITY);
    let t2 = Instant::now();
    let warm = index.selection_batch(queries, spec::parallelism());
    let warm_s = t2.elapsed().as_secs_f64();
    let tally = check_selection(&warm, queries, &oracle);
    let timings = SetupTimings {
        total_s: gen_s + build_s + warm_s,
        gen_s,
        build_s,
        persist_s: 0.0,
        stored_bytes: index.size_bytes() as u64,
    };
    Ok((
        Batch {
            index,
            data,
            oracle,
            timings,
        },
        tally,
    ))
}

/// Repeats `batch` until `seconds` have passed (at least three times).
/// Each repetition is one slice: its queries, the engine's time for them,
/// and that time again as the "latency" a caller of the batch waits.
fn repeat_batches(
    seconds: f64,
    n_queries: usize,
    tally: &mut Tally,
    mut batch: impl FnMut(usize) -> (crate::adapter::BatchRun, Tally),
) -> (Vec<Slice>, Vec<f64>) {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut slices, mut steals) = (Vec::new(), Vec::new());
    while slices.len() < 3 || Instant::now() < deadline {
        let (run, checked) = batch(slices.len());
        tally.add(checked);
        slices.push(Slice {
            ops: n_queries as u64,
            seconds: run.elapsed.as_secs_f64(),
            latencies_ms: vec![ms(run.elapsed)],
        });
        steals.push(run.steals as f64);
    }
    (slices, steals)
}

fn run_batch(cfg: RunConfig) -> Result<RunResult, String> {
    let t = spec::parallelism();
    let queries = spec::selection_batch(cfg.seed, cfg.scale.batch_queries());
    let thresholds = spec::threshold_batch(cfg.seed, cfg.scale.threshold_queries());
    let mut tally = Tally::default();
    let mut setups = Vec::with_capacity(SETUP_ROUNDS);
    let mut kept = None;
    for _ in 0..SETUP_ROUNDS {
        // Drop the previous round first so peak RSS is one set-up's.
        drop(kept.take());
        let (batch, warm_tally) = setup_batch(cfg, &queries)?;
        tally.add(warm_tally);
        setups.push(batch.timings);
        kept = Some(batch);
    }
    let Batch {
        index,
        data,
        oracle,
        ..
    } = kept.expect("the last set-up is kept");
    let setup = median_setup(&setups);

    // Three fifths of the window at T threads (the gated numbers), a fifth
    // at one thread (the engine's whole-bitmap straight-line path), a
    // fifth on threshold batches.
    let selection = |threads: usize| {
        let (index, queries, oracle) = (&index, &queries, &oracle);
        move |_: usize| {
            let run = index.selection_batch(queries, threads);
            let checked = check_selection(&run, queries, oracle);
            (run, checked)
        }
    };
    let n = queries.len();
    let (batches_t, steals) = repeat_batches(cfg.seconds * 0.6, n, &mut tally, selection(t));
    let (batches_1, _) = repeat_batches(cfg.seconds * 0.2, n, &mut tally, selection(1));
    let want_counts: Vec<u64> = thresholds
        .iter()
        .map(|q| oracle.threshold_count(q))
        .collect();
    let (batches_thr, _) = repeat_batches(cfg.seconds * 0.2, thresholds.len(), &mut tally, |rep| {
        let run = index.threshold_batch(&thresholds, t);
        let mut checked = Tally::default();
        for ((q, answer), want) in thresholds.iter().zip(&run.answers).zip(&want_counts) {
            let ok = answer.as_ref().is_some_and(|a| {
                // Every repetition by count; the first one bit for bit.
                a.count() == *want
                    && (rep > 0
                        || a.words() == reference_words(data.values(), CARDINALITY, |v| q.holds(v)))
            });
            checked.record(ok);
        }
        (run, checked)
    });

    let steady = |batches: &[Slice]| stats::steady(batches).expect("at least three batches ran");
    let (qps, batch_ms) = steady(&batches_t);
    let (qps_1t, _) = steady(&batches_1);
    let (threshold_qps, _) = steady(&batches_thr);
    let times_t: Vec<f64> = batches_t.iter().map(|b| b.seconds * 1e3).collect();
    let extra = vec![
        ("engine.qps_1t", qps_1t),
        ("engine.threshold_qps", threshold_qps),
        ("engine.scaling_eff", qps / (t as f64 * qps_1t)),
        ("driver.sample_count", times_t.len() as f64),
        (
            "driver.error_rate",
            tally.failed as f64 / tally.attempted.max(1) as f64,
        ),
    ];
    let rows = oracle.rows();
    let mut layer = BTreeMap::new();
    if cfg.trace {
        layer.insert("engine.steals", Some(stats::median(&steals)));
        layer.insert("engine.batch_cv", Some(stats::cv(&times_t)));
        layer.insert("storage.stored_bytes", Some(setup.stored_bytes as f64));
        setup_layer_metrics(&mut layer, cfg, &setup);
        let _ = std::fs::remove_file(probes::trace_path(cfg.workload));
        // The probes rebuild the index themselves; free ours first.
        drop((index, data));
        let probe_metrics = probes::run_all(cfg, None, 0);
        finish_layer(&mut layer, &extra, probe_metrics, None, cfg.workload);
    }
    Ok(RunResult {
        tally,
        end_to_end: vec![
            ("qps", qps),
            ("p50_ms", batch_ms),
            ("setup_s", setup.total_s),
            ("peak_rss_mb", env::peak_rss_mib().unwrap_or(0.0)),
            (
                "stored_bytes_per_row",
                setup.stored_bytes as f64 / rows as f64,
            ),
        ],
        layer,
        extra,
    })
}
