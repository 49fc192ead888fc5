//! Every metric and workload the benchmark reports, by name, with its
//! unit, direction, regression bound and the interaction it is there to
//! show. `BENCHMARK.json` is this file rendered (`driver manifest`); the
//! README's tables are this file in prose.

use crate::json::Value;
use crate::spec::Workload;

/// Seconds one run measures (`run_seconds` in `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// Which way a metric gets better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Why a workload is in the benchmark.
pub fn why(w: Workload) -> &'static str {
    match w {
        Workload::ServeHot => {
            "2^18 rows fit pool and page cache, on one CPU: the server/engine per-request path \
             (codec, admission, source construction) does the work and storage none"
        }
        Workload::ServeCold => {
            "2^21 rows, pool 8 of 27 bitmaps, no result cache: file read + CRC + bytes-to-words \
             dominate, so a storage gain shows here and must leave serve_hot flat"
        }
        Workload::BatchScan => {
            "2^23 rows in memory, no server or store: 1 MiB bitmaps exceed L2, so bitvec \
             kernels, core evaluation and the engine's T-thread scheduler do all the work"
        }
        Workload::IngestMixed => {
            "open-loop 4,096-row appends (WAL, fsync, full compaction under the write lock) \
             beside closed-loop reads, on one CPU, of a clustered column whose slots are all WAH"
        }
    }
}

/// An end-to-end metric: measured on every workload with tracing off,
/// gated by `bound`.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// What it means, workload by workload.
    pub meaning: &'static str,
}

/// The end-to-end metrics. The acceptance contract wants every one of
/// them on every workload, so these are the five that mean something on
/// all four; the workload-specific ones of ISSUE 11 (`qps_1t`,
/// `threshold_qps`, `bitmap_p50_ms`, `ingest_p50_ms`, `count_p99_ms`) are
/// per-layer metrics below, measured in the same untraced window.
///
/// The bounds are what ten runs on a shared 2-vCPU VM can hold (README,
/// "Observed spreads"), not what one would like them to be.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        meaning: "verified-correct operations per second over the least-disturbed slices of \
                  the window: count and bitmap queries (serve_*), reads only (ingest_mixed), \
                  queries of the T-thread selection batches (batch_scan)",
    },
    EndToEnd {
        name: "p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        meaning: "median latency, over the same slices, of what a caller waits for: one \
                  count-only query (serve_*, ingest_mixed readers), one T-thread selection \
                  batch (batch_scan)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        meaning: "generate + build + persist + open + server start + warm-up requests; median \
                  of three set-ups per run",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.25,
        meaning: "VmHWM of the workload's process (server, clients and oracle in one process)",
    },
    EndToEnd {
        name: "stored_bytes_per_row",
        unit: "B",
        better: Better::Lower,
        bound: 0.10,
        meaning: "bytes in the store directory / logical rows at the end of the run, WAL and \
                  generation garbage included (served workloads); bitmap heap bytes / rows \
                  (batch_scan): the paper's space axis",
    },
];

/// Who measures a per-layer metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Owner {
    /// The driver, from the untraced window, set-up timings or the L0
    /// replay, through the end-to-end API only.
    Driver,
    /// The driver, from two probes' outputs (null if either failed).
    Derived,
    /// The named layer probe (`probe_<name>`).
    Probe(&'static str),
}

/// A per-layer metric: reported with `--trace 1`, never gated.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    /// Metric name; the prefix is the crate it observes.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Who measures it.
    pub owner: Owner,
    /// The end-to-end metric it should move, and where it should not.
    pub moves: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    owner: Owner,
    moves: &'static str,
) -> Layer {
    Layer {
        name,
        unit,
        better,
        owner,
        moves,
    }
}

use Better::{Higher, Lower};
use Owner::{Derived, Driver, Probe};

const HOT: &str = "p50_ms and qps on serve_hot; <5% on serve_cold; nothing on batch_scan";
const BATCH: &str = "qps, engine.qps_1t, engine.threshold_qps on batch_scan";
const COLD: &str = "p50_ms and qps on serve_cold; nothing on serve_hot after warm-up";
const INGEST: &str = "bindex.ingest_p50_ms, and through the write lock server.count_p99_ms, on \
                      ingest_mixed only";
const WAH: &str = "p50_ms and qps on ingest_mixed; zero on the three uniform workloads";

/// The per-layer metrics.
pub const PER_LAYER: [Layer; 72] = [
    // Workload-specific end-to-end numbers (untraced window).
    layer("server.count_p99_ms", "ms", Lower, Driver, "tail of p50_ms's samples on the served workloads; compaction stalls on ingest_mixed"),
    layer("server.bitmap_p50_ms", "ms", Lower, Driver, "want_bitmap latency on serve_hot only; follows server.codec_resp_bitmap_us"),
    layer("engine.qps_1t", "1/s", Higher, Driver, "batch_scan, same batches at 1 thread: the whole-bitmap straight-line path"),
    layer("engine.threshold_qps", "1/s", Higher, Driver, "batch_scan threshold batches at T threads"),
    layer("engine.scaling_eff", "ratio", Higher, Driver, "qps / (T x engine.qps_1t) on batch_scan; a scheduler change moves this and not qps_1t"),
    layer("engine.steals", "count", Lower, Driver, "work-steal operations per T-thread batch on batch_scan"),
    layer("engine.batch_cv", "ratio", Lower, Driver, "variation of T-thread batch times on batch_scan"),
    layer("bindex.ingest_p50_ms", "ms", Lower, Driver, "median ack latency of an ingest batch from its due time (ingest_mixed)"),
    layer("bindex.ingest_p90_ms", "ms", Lower, Driver, INGEST),
    layer("bindex.gen_lag_ms", "ms", Lower, Driver, "how late the open-loop writer sent its batches (median); a queue that grows shows here"),
    layer("server.cache_hit_ratio", "ratio", Higher, Driver, HOT),
    layer("server.shed", "count", Lower, Driver, "requests shed; any is an error on these workloads"),
    layer("driver.sample_count", "count", Higher, Driver, "latency or batch samples behind p50_ms"),
    layer("driver.error_rate", "ratio", Lower, Driver, "(transport + typed errors + sheds + wrong answers) / attempted; must be 0"),
    layer("relation.gen_rows_per_s", "1/s", Higher, Driver, "setup_s"),
    layer("core.build_rows_per_s", "1/s", Higher, Driver, "setup_s, most on batch_scan"),
    layer("storage.persist_mbps", "MB/s", Higher, Driver, "setup_s on the served workloads"),
    layer("storage.stored_bytes", "B", Lower, Driver, "stored_bytes_per_row"),
    layer("trace.l0_us", "us", Lower, Driver, "1-connection Client::query median in the traced replay"),
    layer("trace.overhead_pct", "%", Lower, Driver, "traced vs untraced 1-connection p50; what the spans cost"),
    // Derived across levels.
    layer("server.registry_overhead_us", "us", Lower, Derived, HOT),
    layer("engine.batch_overhead_us", "us", Lower, Derived, HOT),
    layer("bindex.fetch_share", "ratio", Lower, Derived, COLD),
    layer("bitvec.kernel_share", "ratio", Higher, Derived, "share of core.eval_us the kernels account for; high on batch_scan, <=25% of p50_ms on serve_hot"),
    layer("trace.server_share", "ratio", Lower, Derived, "(L0 - L2) / L0: >= 0.5 expected on serve_hot, < 0.05 on serve_cold"),
    layer("trace.storage_share", "ratio", Lower, Derived, "(L3 - L4) / L0: >= 0.6 expected on serve_cold, <= 0.05 on serve_hot"),
    layer("trace.top_self_level", "level", Lower, Derived, "index of the trace level with the largest self time"),
    // probe_server.
    layer("server.ping_rtt_us", "us", Lower, Probe("server"), HOT),
    layer("server.request_overhead_us", "us", Lower, Probe("server"), HOT),
    layer("server.queue_handoff_us", "us", Lower, Probe("server"), HOT),
    layer("server.codec_req_us", "us", Lower, Probe("server"), HOT),
    layer("server.codec_resp_count_us", "us", Lower, Probe("server"), HOT),
    layer("server.codec_resp_bitmap_us", "us", Lower, Probe("server"), "server.bitmap_p50_ms on serve_hot only"),
    layer("server.execute_us", "us", Lower, Probe("server"), HOT),
    layer("store.reads", "count", Lower, Probe("server"), COLD),
    layer("store.bytes_read", "B", Lower, Probe("server"), COLD),
    layer("store.read_busy_ms", "ms", Lower, Probe("server"), COLD),
    layer("storage.reads_per_query", "count", Lower, Probe("server"), "p50_ms on serve_cold; must be 0 on serve_hot after warm-up"),
    layer("storage.bytes_read_per_query", "B", Lower, Probe("server"), COLD),
    // probe_engine.
    layer("engine.single_query_us", "us", Lower, Probe("engine"), HOT),
    // probe_bindex.
    layer("bindex.source_eval_us", "us", Lower, Probe("bindex"), COLD),
    layer("storage.pool_hit_ratio", "ratio", Higher, Probe("bindex"), "p50_ms on serve_cold; must be 1.0 on serve_hot after warm-up"),
    layer("storage.pool_evictions", "count", Lower, Probe("bindex"), COLD),
    layer("core.materializations_per_query", "count", Lower, Probe("bindex"), WAH),
    layer("core.compressed_ops_per_query", "count", Higher, Probe("bindex"), WAH),
    layer("core.segments_pruned_per_query", "count", Higher, Probe("bindex"), WAH),
    layer("bindex.ingest_commit_ms", "ms", Lower, Probe("bindex"), INGEST),
    layer("bindex.compact_ms", "ms", Lower, Probe("bindex"), INGEST),
    layer("store.writes", "count", Lower, Probe("bindex"), "bindex.ingest_p50_ms and stored_bytes_per_row on ingest_mixed"),
    layer("store.bytes_written", "B", Lower, Probe("bindex"), "bindex.ingest_p50_ms and stored_bytes_per_row on ingest_mixed"),
    layer("store.appends", "count", Lower, Probe("bindex"), INGEST),
    layer("store.syncs", "count", Lower, Probe("bindex"), INGEST),
    layer("store.write_busy_ms", "ms", Lower, Probe("bindex"), INGEST),
    layer("store.bytes_written_per_user_byte", "ratio", Lower, Probe("bindex"), "write amplification of append + compact; bindex.ingest_p50_ms on ingest_mixed"),
    // probe_core.
    layer("core.eval_us", "us", Lower, Probe("core"), BATCH),
    layer("core.eval_other_mode_us", "us", Lower, Probe("core"), "the same queries in the other execution mode (segmented on batch_scan, whole-bitmap on the served workloads)"),
    layer("core.eval_other_source_us", "us", Lower, Probe("core"), "the same queries over the other in-memory source: what MemorySource's clone-per-fetch costs (served) or would save (batch_scan)"),
    layer("core.scans_per_query", "count", Lower, Probe("core"), "exact; equals the paper's cost model; a change is a plan change and moves every latency"),
    layer("core.ops_per_query", "count", Lower, Probe("core"), "exact; equals the paper's cost model; a change is a plan change and moves every latency"),
    layer("core.segments_skipped_per_query", "count", Higher, Probe("core"), BATCH),
    // probe_bitvec.
    layer("bitvec.kernel_us", "us", Lower, Probe("bitvec"), BATCH),
    layer("bitvec.and_gbps", "GB/s", Higher, Probe("bitvec"), BATCH),
    layer("bitvec.or_gbps", "GB/s", Higher, Probe("bitvec"), BATCH),
    layer("bitvec.count_and_gbps", "GB/s", Higher, Probe("bitvec"), BATCH),
    layer("bitvec.threshold_gbps", "GB/s", Higher, Probe("bitvec"), "engine.threshold_qps on batch_scan"),
    // probe_storage.
    layer("storage.read_repr_us", "us", Lower, Probe("storage"), COLD),
    layer("storage.read_mbps", "MB/s", Higher, Probe("storage"), COLD),
    layer("storage.crc_mbps", "MB/s", Higher, Probe("storage"), COLD),
    // probe_compress.
    layer("compress.wah_slots", "count", Lower, Probe("compress"), "27 on ingest_mixed, 0 on the uniform workloads, so compress.* cannot move them"),
    layer("compress.wah_ratio", "ratio", Higher, Probe("compress"), "stored_bytes_per_row on ingest_mixed"),
    layer("compress.wah_decode_mbps", "MB/s", Higher, Probe("compress"), WAH),
    layer("compress.wah_and_us", "us", Lower, Probe("compress"), WAH),
];

/// The layer probes, in the order the driver runs them.
pub const PROBES: [&str; 7] = [
    "server", "engine", "bindex", "core", "bitvec", "storage", "compress",
];

/// The end-to-end metric called `name`.
pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, rendered from this catalogue.
pub fn benchmark_json() -> Value {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
        "run",
    ];
    Value::obj([
        (
            "command",
            Value::Arr(command.iter().map(|s| Value::str(*s)).collect()),
        ),
        ("paths", Value::Arr(vec![Value::str("benchmark")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Value::obj([("name", Value::str(w.name())), ("why", Value::str(why(*w)))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.name())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Value::obj([
                            ("name", Value::str(m.name)),
                            ("unit", Value::str(m.unit)),
                            ("better", Value::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn well_formed_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn well_formed_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    /// The limits the acceptance driver refuses a `BENCHMARK.json` over.
    #[test]
    fn catalogue_meets_the_contracts_limits() {
        let mut seen = HashSet::new();
        for w in Workload::ALL {
            assert!(well_formed_name(w.name()) && seen.insert(w.name()));
            assert!(
                why(w).len() <= 200 && !why(w).contains('\n'),
                "{}",
                w.name()
            );
        }
        for m in END_TO_END {
            assert!(
                well_formed_name(m.name) && seen.insert(m.name),
                "{}",
                m.name
            );
            assert!(well_formed_unit(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25);
        }
        for m in PER_LAYER {
            assert!(
                well_formed_name(m.name) && seen.insert(m.name),
                "{}",
                m.name
            );
            assert!(well_formed_unit(m.unit), "{}: {}", m.name, m.unit);
            if let Owner::Probe(p) = m.owner {
                assert!(PROBES.contains(&p), "{p}");
            }
        }
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        assert!((1..=60).contains(&RUN_SECONDS));
        let rendered = benchmark_json().render_pretty();
        assert!(rendered.len() <= 64 * 1024);
        let back = crate::json::parse(&rendered).unwrap();
        let keys: Vec<&str> = back.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }
}
