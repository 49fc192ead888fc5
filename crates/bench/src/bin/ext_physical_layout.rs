//! **Extension** — Compression-aware physical layout, measured end to
//! end: the query-config sweep {v4 (unpruned, the baseline), v4+prune,
//! v4+pool, v4+prune+pool} over sparse and clustered half-dead domains —
//! average wall time per workload pass, end-to-end speedup vs the
//! unpruned baseline, `segments_pruned`, bytes read, and bytes *not*
//! fetched (baseline bytes minus config bytes). `+pool` puts a
//! [`ShardedPool`] that holds every slot in front of the store, so the
//! timed passes read nothing: what the cache buys and what pruning buys
//! are separate rows. Every configuration's answers are asserted
//! bit-identical to the baseline's before anything is timed.
//!
//! Emits `BENCH_physical_layout.json` and the usual CSV. `--smoke` (alias
//! `--quick`) shrinks the workload for CI.

use std::time::Instant;

use bindex::compress::CodecKind;
use bindex::core::eval::{evaluate_segmented_in, Algorithm};
use bindex::core::ExecContext;
use bindex::relation::query::{full_space, SelectionQuery};
use bindex::relation::{gen, Column};
use bindex::storage::{MemStore, ShardedPool, SharedIndexReader};
use bindex::stored::{persist_index_v4, SharedSource};
use bindex::{Base, BitVec, Encoding, IndexSpec, SUMMARY_WINDOW_BITS};
use bindex_bench::{f2, print_table, smoke, write_artifact, Csv, RunProvenance};

struct Config {
    rows: usize,
    cardinality: u32,
    reps: usize,
}

/// Morsel size for the query sweep: one summary window per segment, so
/// pruning decisions are at their finest stored granularity.
const SEGMENT_BITS: usize = SUMMARY_WINDOW_BITS;

/// One query-path configuration of the sweep.
struct LayoutConfig {
    name: &'static str,
    prune: bool,
    pool: bool,
}

const CONFIGS: [LayoutConfig; 4] = [
    LayoutConfig {
        name: "v4",
        prune: false,
        pool: false,
    },
    LayoutConfig {
        name: "v4+prune",
        prune: true,
        pool: false,
    },
    LayoutConfig {
        name: "v4+pool",
        prune: false,
        pool: true,
    },
    LayoutConfig {
        name: "v4+prune+pool",
        prune: true,
        pool: true,
    },
];

/// Half the domain never occurs (dead slots — what summaries prune), the
/// live half in medium runs: the clustered shape of the acceptance
/// criteria.
fn clustered_half_dead(cfg: &Config, seed: u64) -> Column {
    let live = (cfg.cardinality / 2).max(1);
    let runs = gen::clustered(cfg.rows, live, 1024, seed);
    Column::new(runs.values().to_vec(), cfg.cardinality)
}

/// An eighth of the domain occurs uniformly: the sparse shape.
fn sparse_domain(cfg: &Config, seed: u64) -> Column {
    let live = (cfg.cardinality / 8).max(1);
    let vals = gen::uniform(cfg.rows, live, seed);
    Column::new(vals.values().to_vec(), cfg.cardinality)
}

/// Two-component equality index: every equality probe is a cross-
/// component AND, every range query an OR-of-ANDs chain — the AND
/// workloads summary pruning targets.
fn spec(cfg: &Config) -> IndexSpec {
    let digits = (f64::from(cfg.cardinality)).sqrt().ceil() as u32;
    IndexSpec::new(
        Base::from_msb(&[digits, digits]).expect("base"),
        Encoding::Equality,
    )
}

/// One full workload pass; returns per-query answers plus the pass's
/// pruned-segment count.
fn run_pass(
    reader: &SharedIndexReader<MemStore>,
    spec: &IndexSpec,
    prune: bool,
    queries: &[SelectionQuery],
) -> (Vec<BitVec>, usize) {
    let mut answers = Vec::with_capacity(queries.len());
    let mut pruned = 0usize;
    let mut src = SharedSource::try_new(reader, spec.clone()).expect("spec matches");
    for &q in queries {
        let mut ctx = ExecContext::new(&mut src).with_pruning(prune);
        let found = evaluate_segmented_in(&mut ctx, q, Algorithm::EqualityEval, SEGMENT_BITS)
            .expect("clean store evaluates");
        pruned += ctx.take_stats().segments_pruned;
        answers.push(found);
    }
    (answers, pruned)
}

/// Best-of-`reps` wall seconds for one workload pass.
fn time_pass(
    reader: &SharedIndexReader<MemStore>,
    spec: &IndexSpec,
    prune: bool,
    queries: &[SelectionQuery],
    reps: usize,
) -> f64 {
    let mut best = f64::MAX;
    let mut sink = 0usize;
    for _ in 0..reps {
        let start = Instant::now();
        let (answers, _) = run_pass(reader, spec, prune, queries);
        best = best.min(start.elapsed().as_secs_f64());
        sink ^= answers.iter().map(BitVec::count_ones).sum::<usize>();
    }
    assert!(sink < usize::MAX);
    best
}

struct SweepPoint {
    data: &'static str,
    config: &'static str,
    pruning: bool,
    pool: bool,
    seconds: f64,
    speedup_vs_unpruned: f64,
    segments_pruned: usize,
    bytes_read: u64,
    bytes_not_fetched: u64,
}

/// The {pruning} × {pool} sweep over one dataset. Answers are asserted
/// bit-identical to the unpruned, unpooled baseline before timing; the
/// pruning configurations must read strictly fewer bytes.
fn query_sweep(cfg: &Config, data: &'static str, col: &Column) -> Vec<SweepPoint> {
    let spec = spec(cfg);
    let idx = bindex::BitmapIndex::build(col, spec.clone()).expect("index builds");
    let queries = full_space(cfg.cardinality);
    let mut points: Vec<SweepPoint> = Vec::new();
    let mut baseline: Option<(Vec<BitVec>, u64, f64)> = None;
    for lc in &CONFIGS {
        // A fresh store per configuration: cold-path byte accounting must
        // not be contaminated by a previous configuration's reads.
        let stored = persist_index_v4(&idx, MemStore::new(), CodecKind::None).expect("persist");
        let reader = if lc.pool {
            // Holds every slot: nothing is evicted, so after the first
            // pass below each slot has been read and verified once.
            let fits = ShardedPool::new(stored.meta().total_bitmaps() as usize, 1);
            SharedIndexReader::with_pool(stored, fits)
        } else {
            SharedIndexReader::new(stored)
        };
        let (answers, pruned) = run_pass(&reader, &spec, lc.prune, &queries);
        let bytes_read = reader.stats().bytes_read;
        let seconds = time_pass(&reader, &spec, lc.prune, &queries, cfg.reps);
        let (base_answers, base_bytes, base_seconds) = baseline.get_or_insert_with(|| {
            assert_eq!(lc.name, "v4", "the unpruned, unpooled baseline runs first");
            (answers.clone(), bytes_read, seconds)
        });
        assert_eq!(
            &answers, base_answers,
            "{data}/{}: answers must be bit-identical to the baseline",
            lc.name
        );
        if lc.prune {
            assert!(pruned > 0, "{data}/{}: pruning must fire", lc.name);
            assert!(
                bytes_read < *base_bytes,
                "{data}/{}: pruning must read strictly fewer bytes ({bytes_read} vs {base_bytes})",
                lc.name
            );
        } else {
            assert_eq!(pruned, 0, "{data}/{}: pruning disabled", lc.name);
        }
        points.push(SweepPoint {
            data,
            config: lc.name,
            pruning: lc.prune,
            pool: lc.pool,
            seconds,
            speedup_vs_unpruned: *base_seconds / seconds,
            segments_pruned: pruned,
            bytes_read,
            bytes_not_fetched: base_bytes.saturating_sub(bytes_read),
        });
    }
    points
}

fn main() {
    let smoke = smoke();
    let provenance = RunProvenance::capture(1);
    let cfg = if smoke {
        Config {
            rows: 1 << 16,
            cardinality: 16,
            reps: 1,
        }
    } else {
        Config {
            // 16 summary windows per slot, 32 segments per query: window-
            // granular pruning and whole-slot pruning both in play.
            rows: 1 << 19,
            cardinality: 64,
            // Best-of-9: at ~30 ms per pass, best-of-3 still carries ±10%
            // scheduler jitter on a single-core box.
            reps: 9,
        }
    };

    let clustered_q = clustered_half_dead(&cfg, 0xAB);
    let sparse_q = sparse_domain(&cfg, 0xCD);
    let mut sweep = query_sweep(&cfg, "clustered", &clustered_q);
    sweep.extend(query_sweep(&cfg, "sparse", &sparse_q));
    print_table(
        &format!(
            "query configs, {} rows, segment {} bits, full space of {}",
            cfg.rows, SEGMENT_BITS, cfg.cardinality
        ),
        &[
            "data",
            "config",
            "seconds",
            "speedup_vs_unpruned",
            "segments_pruned",
            "bytes_read",
            "bytes_not_fetched",
        ],
        &sweep
            .iter()
            .map(|p| {
                vec![
                    p.data.to_string(),
                    p.config.to_string(),
                    format!("{:.6}", p.seconds),
                    f2(p.speedup_vs_unpruned),
                    p.segments_pruned.to_string(),
                    p.bytes_read.to_string(),
                    p.bytes_not_fetched.to_string(),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let mut csv = Csv::create(
        "ext_physical_layout",
        &[
            "data",
            "config",
            "bytes_read",
            "seconds",
            "speedup_vs_unpruned",
            "segments_pruned",
        ],
    )
    .expect("csv");
    for p in &sweep {
        csv.row(&[
            &p.data,
            &p.config,
            &p.bytes_read,
            &format!("{:.6}", p.seconds),
            &f2(p.speedup_vs_unpruned),
            &p.segments_pruned,
        ])
        .expect("row");
    }
    println!("\nCSV: {}", csv.path().display());

    // Hand-rolled JSON (no serde in the dependency set).
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|p| {
            format!(
                "    {{\"data\": \"{}\", \"config\": \"{}\", \"pruning\": {}, \"pool\": {}, \
                 \"seconds\": {:.6}, \"speedup_vs_unpruned\": {:.3}, \"segments_pruned\": {}, \
                 \"bytes_read\": {}, \"bytes_not_fetched\": {}}}",
                p.data,
                p.config,
                p.pruning,
                p.pool,
                p.seconds,
                p.speedup_vs_unpruned,
                p.segments_pruned,
                p.bytes_read,
                p.bytes_not_fetched
            )
        })
        .collect();
    let headline = |data: &str| {
        sweep
            .iter()
            .find(|p| p.data == data && p.config == "v4+prune")
            .map_or(0.0, |p| p.speedup_vs_unpruned)
    };
    let json = format!(
        "{{\n  \"experiment\": \"physical_layout\",\n  \"smoke\": {smoke},\n  {prov},\n  \
         \"summary_window_bits\": {window},\n  \"segment_bits\": {seg},\n  \
         \"rows\": {rows},\n  \"cardinality\": {card},\n  \"identical_answers\": true,\n  \
         \"pruned_speedup_clustered\": {sp_c:.3},\n  \"pruned_speedup_sparse\": {sp_s:.3},\n  \
         \"query_configs\": [\n{sweep}\n  ]\n}}\n",
        prov = provenance.json_fields(),
        window = SUMMARY_WINDOW_BITS,
        seg = SEGMENT_BITS,
        rows = cfg.rows,
        card = cfg.cardinality,
        sp_c = headline("clustered"),
        sp_s = headline("sparse"),
        sweep = sweep_json.join(",\n"),
    );
    write_artifact("physical_layout", &json).expect("write json");
}
