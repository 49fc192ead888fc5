//! The `bindex-server` binary: serve one or more stored bitmap indexes
//! over TCP.
//!
//! ```text
//! bindex-server --demo                          # built-in demo index
//! bindex-server --index qty=/data/qty:10,10:range
//! ```
//!
//! Options:
//!
//! * `--listen ADDR` — bind address (default `127.0.0.1:7654`;
//!   use port `0` for an ephemeral port, printed at startup);
//! * `--demo` — build and serve a synthetic index named `demo`
//!   (200k rows, cardinality 1000, base <32,32>, range-encoded) from a
//!   temporary directory;
//! * `--index NAME=DIR:b1,b2,…:range|eq|interval` — serve an existing
//!   stored index from `DIR` with the given layout;
//! * `--workers N`, `--queue-depth N`, `--deadline-ms N` — override the
//!   corresponding `ServerConfig::default()` fields (one per available
//!   CPU, 64, 250 ms). Queries run on the connection thread that read
//!   them; `workers + queue-depth` of them may be in flight before an
//!   arrival is shed with `Overloaded`. The configuration in effect is
//!   printed at startup;
//! * `--duration SECS` — exit (gracefully) after this long; for smoke
//!   tests.
//!
//! The process drains and exits 0 when a client sends `Shutdown`, on
//! `--duration` expiry, and refuses new queries while draining.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bindex::compress::CodecKind;
use bindex::relation::gen;
use bindex::storage::{DiskStore, TempDir};
use bindex::stored::persist_index_v4;
use bindex::{Base, BitmapIndex, Encoding, IndexSpec};
use bindex_server::{IndexTuning, Registry, ServedIndex, Server, ServerConfig};

fn usage() -> ! {
    eprintln!(
        "usage: bindex-server [--listen ADDR] [--demo] \
         [--index NAME=DIR:b1,b2,...:range|eq|interval] [--workers N] \
         [--queue-depth N] [--deadline-ms N] [--duration SECS]"
    );
    std::process::exit(2)
}

fn parse_encoding(s: &str) -> Option<Encoding> {
    match s {
        "range" => Some(Encoding::Range),
        "eq" | "equality" => Some(Encoding::Equality),
        "interval" => Some(Encoding::Interval),
        _ => None,
    }
}

/// `NAME=DIR:b1,b2,...:ENC` → a served index over the existing store.
fn open_index(arg: &str) -> Result<ServedIndex, String> {
    let (name, rest) = arg.split_once('=').ok_or("missing '=' in --index")?;
    let mut parts = rest.rsplitn(3, ':');
    let enc = parts.next().ok_or("missing encoding")?;
    let digits = parts.next().ok_or("missing base digits")?;
    let dir = parts.next().ok_or("missing directory")?;
    let encoding = parse_encoding(enc).ok_or_else(|| format!("unknown encoding {enc:?}"))?;
    let base: Vec<u32> = digits
        .split(',')
        .map(|d| d.trim().parse::<u32>().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let base = Base::from_msb(&base).map_err(|e| e.to_string())?;
    let spec = IndexSpec::new(base, encoding);
    let store = DiskStore::open(dir).map_err(|e| e.to_string())?;
    ServedIndex::new(
        name,
        spec,
        Box::new(store),
        None,
        None,
        IndexTuning::default(),
    )
    .map_err(|e| e.to_string())
}

/// Builds the synthetic demo index in a temp dir; the [`TempDir`] guard
/// keeps it alive (and cleans it up on exit).
fn demo_index() -> Result<(ServedIndex, TempDir), String> {
    let n_rows = 200_000;
    let cardinality = 1000;
    let column = gen::uniform(n_rows, cardinality, 42);
    let base = Base::from_msb(&[32, 32]).map_err(|e| e.to_string())?;
    let spec = IndexSpec::new(base, Encoding::Range);
    let index = BitmapIndex::build(&column, spec.clone()).map_err(|e| e.to_string())?;
    let dir = TempDir::new("server-demo").map_err(|e| e.to_string())?;
    let store = DiskStore::open(dir.path()).map_err(|e| e.to_string())?;
    // Version-4: checksummed frames (so the demo also accepts ingest
    // batches) plus the summary block, so segmented queries prune dead
    // windows without touching disk.
    let stored = persist_index_v4(&index, store, CodecKind::None).map_err(|e| e.to_string())?;
    let served = ServedIndex::new(
        "demo",
        spec,
        Box::new(stored.into_store()),
        Some(Arc::new(column)),
        None,
        IndexTuning::default(),
    )
    .map_err(|e| e.to_string())?;
    Ok((served, dir))
}

fn main() -> ExitCode {
    let mut listen = "127.0.0.1:7654".to_string();
    let mut config = ServerConfig::default();
    let mut registry = Registry::new();
    let mut duration: Option<Duration> = None;
    let mut _demo_dir: Option<TempDir> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().unwrap_or_else(|| usage_missing(what));
        match arg.as_str() {
            "--listen" => listen = value("--listen"),
            "--demo" => match demo_index() {
                Ok((served, dir)) => {
                    registry.insert(served);
                    _demo_dir = Some(dir);
                }
                Err(e) => {
                    eprintln!("error: building demo index: {e}");
                    return ExitCode::FAILURE;
                }
            },
            "--index" => match open_index(&value("--index")) {
                Ok(served) => registry.insert(served),
                Err(e) => {
                    eprintln!("error: opening index: {e}");
                    return ExitCode::FAILURE;
                }
            },
            "--workers" => match value("--workers").parse() {
                Ok(n) if n >= 1 => config.workers = n,
                _ => usage(),
            },
            "--queue-depth" => match value("--queue-depth").parse() {
                Ok(n) if n >= 1 => config.queue_depth = n,
                _ => usage(),
            },
            "--deadline-ms" => match value("--deadline-ms").parse::<u64>() {
                Ok(ms) if ms >= 1 => config.default_deadline = Duration::from_millis(ms),
                _ => usage(),
            },
            "--duration" => match value("--duration").parse::<u64>() {
                Ok(secs) => duration = Some(Duration::from_secs(secs)),
                Err(_) => usage(),
            },
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    if registry.names().is_empty() {
        eprintln!("error: nothing to serve; pass --demo or --index");
        return ExitCode::FAILURE;
    }

    let names = registry.names().join(", ");
    let server = match Server::start(registry, config.clone(), &listen) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: binding {listen}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "bindex-server listening on {} (indexes: {names}; workers {}, queue depth {}, \
         default deadline {:?})",
        server.addr(),
        config.workers,
        config.queue_depth,
        config.default_deadline
    );

    let started = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(100));
        if server.shutdown_requested() {
            println!("shutdown requested by client; draining");
            break;
        }
        if duration.is_some_and(|d| started.elapsed() >= d) {
            println!("duration elapsed; draining");
            break;
        }
    }
    let report = server.shutdown();
    println!(
        "drained: {} completed, {} shed overloaded, {} shed by deadline, {} in flight at close",
        report.completed, report.shed_overload, report.shed_deadline, report.in_flight_at_close
    );
    ExitCode::SUCCESS
}

fn usage_missing(what: &str) -> ! {
    eprintln!("error: {what} needs a value");
    usage()
}
