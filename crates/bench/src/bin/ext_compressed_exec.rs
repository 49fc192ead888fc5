//! Extension experiment: compressed-domain query execution.
//!
//! Five measurements back compressed-domain execution and its one rule
//! (an operand is folded compressed at no more than 1/16 of its literal
//! size — `max_folded_ratio`):
//!
//! 1. **Kernel density sweep** — k-ary AND/OR [`wah::fold`] programs (the
//!    engine a served query runs) on WAH-compressed operands vs
//!    decompress-then-operate (the cost the executor pays when it
//!    materializes), across densities 0.001–0.5.
//! 2. **Crossover calibration** — the same sweep also times the dense
//!    kernels on pre-materialized operands (the steady-state alternative),
//!    locating the density where staying compressed stops paying.
//! 3. **End-to-end** — full selection workloads through a version-3
//!    per-slot-coded store vs the all-literal layout, for a sparse
//!    (equality-encoded) and a dense (range-encoded) index.
//! 4. **Pool residency** — how many slots a byte-budgeted [`ShardedPool`]
//!    keeps resident when the store serves WAH reprs instead of dense
//!    bitmaps.
//! 5. **Served range queries** — RangeEval-Opt over a v4 store of a
//!    run-clustered column behind a warm pool, the way the server
//!    evaluates it: decode-then-fold (every operand's windows decoded,
//!    folded densely) against the compressed-domain fold, for a count
//!    reply and for a dense result, across cluster lengths — which is
//!    where the executor's 1/16 size rule switches between the two.
//!
//! Emits `BENCH_compressed_exec.json` and the usual CSV. `--quick` shrinks
//! everything for CI smoke runs.

use std::time::Instant;

use bindex::bitvec::kernels::{self, Fold, FoldStep};
use bindex::compress::wah::{self, WahBitmap};
use bindex::compress::CodecKind;
use bindex::core::eval::{evaluate, evaluate_repr_in, evaluate_segmented_in, Algorithm};
use bindex::core::ExecContext;
use bindex::relation::query::{full_space, Query, SelectionQuery, ThresholdQuery};
use bindex::relation::{gen, Column};
use bindex::storage::{MemStore, ShardedPool, SharedIndexReader, StorageScheme, StoredIndex};
use bindex::stored::{persist_index, persist_index_v4, SharedSource};
use bindex::{Base, BitVec, BitmapIndex, Encoding, IndexSpec};
use bindex_bench::{f2, print_table, smoke, write_artifact, Csv, RunProvenance};

struct Config {
    bits: usize,
    densities: &'static [f64],
    kernel_reps: usize,
    rows: usize,
    cardinality: u32,
    workload_reps: usize,
    served_rows: usize,
    served_clusters: &'static [usize],
    served_queries: usize,
}

const OPERANDS: usize = 4;

/// Bits per clustered run of ones. Bitmap-index slots inherit the value
/// clustering of the underlying column (sorted keys, time-correlated
/// attributes), which is the structure WAH's fill words exploit; uniform
/// single-bit sparsity is the adversarial case, exercised by the property
/// suite rather than timed here.
const CLUSTER_BITS: usize = 32;

/// Deterministic pseudo-random bitmap with roughly `density` ones, set in
/// runs of [`CLUSTER_BITS`].
fn random_bitmap(bits: usize, density: f64, seed: usize) -> BitVec {
    let threshold = (density * 1_000_000.0) as usize;
    BitVec::from_fn(bits, |i| {
        (i / CLUSTER_BITS)
            .wrapping_add(seed.wrapping_mul(0x9e37_79b9))
            .wrapping_mul(2_654_435_761)
            % 1_000_000
            < threshold
    })
}

/// Best-of-`reps` wall time of `f`, with a sink so the work is not
/// optimized away.
fn best_of(reps: usize, mut f: impl FnMut() -> usize) -> f64 {
    let mut best = f64::MAX;
    let mut sink = 0usize;
    for _ in 0..reps {
        let start = Instant::now();
        sink ^= f();
        best = best.min(start.elapsed().as_secs_f64());
    }
    assert!(sink < usize::MAX);
    best
}

/// `|ops[0] ∘ ops[1] ∘ …|` as one [`wah::fold`] program, one `step` per
/// operand after the seed.
fn folded_count<'a>(
    ops: &[&'a WahBitmap],
    step: fn(&'a WahBitmap) -> FoldStep<&'a WahBitmap>,
) -> usize {
    let program = Fold {
        seed: Some(ops[0]),
        steps: ops[1..].iter().map(|&w| step(w)).collect(),
        ..Fold::default()
    };
    wah::fold(ops[0].len(), &program).count_ones()
}

struct SweepRow {
    density: f64,
    compressed_ratio: f64,
    wah_and: f64,
    decomp_and: f64,
    dense_and: f64,
    wah_or: f64,
    decomp_or: f64,
    dense_or: f64,
}

fn kernel_sweep(cfg: &Config) -> Vec<SweepRow> {
    let mut rows = Vec::new();
    for &density in cfg.densities {
        let dense: Vec<BitVec> = (0..OPERANDS)
            .map(|s| random_bitmap(cfg.bits, density, s))
            .collect();
        let compressed: Vec<WahBitmap> = dense.iter().map(WahBitmap::from_bitvec).collect();
        let dense_refs: Vec<&BitVec> = dense.iter().collect();
        let wah_refs: Vec<&WahBitmap> = compressed.iter().collect();
        let literal_bytes = (cfg.bits.div_ceil(64) * 8 * OPERANDS) as f64;
        let wah_bytes: usize = compressed.iter().map(WahBitmap::compressed_bytes).sum();

        let wah_and = best_of(cfg.kernel_reps, || folded_count(&wah_refs, FoldStep::And));
        let wah_or = best_of(cfg.kernel_reps, || folded_count(&wah_refs, FoldStep::Or));
        // What adaptive execution avoids: inflate every operand, then run
        // the dense kernel.
        let decomp_and = best_of(cfg.kernel_reps, || {
            let mats: Vec<BitVec> = compressed.iter().map(WahBitmap::to_bitvec).collect();
            let refs: Vec<&BitVec> = mats.iter().collect();
            kernels::and_all(&refs).count_ones()
        });
        let decomp_or = best_of(cfg.kernel_reps, || {
            let mats: Vec<BitVec> = compressed.iter().map(WahBitmap::to_bitvec).collect();
            let refs: Vec<&BitVec> = mats.iter().collect();
            kernels::or_all(&refs).count_ones()
        });
        // Steady state after materialization: operands already dense.
        let dense_and = best_of(cfg.kernel_reps, || {
            kernels::and_all(&dense_refs).count_ones()
        });
        let dense_or = best_of(cfg.kernel_reps, || {
            kernels::or_all(&dense_refs).count_ones()
        });

        rows.push(SweepRow {
            density,
            compressed_ratio: wah_bytes as f64 / literal_bytes,
            wah_and,
            decomp_and,
            dense_and,
            wah_or,
            decomp_or,
            dense_or,
        });
    }
    rows
}

/// First density where a compressed-domain kernel loses to
/// decompress-then-operate (`None` if it never loses). This is the
/// executor's actual alternative at fetch time — a fetched slot arrives
/// compressed, so the dense kernels cannot run without first paying the
/// decompression the `decomp_*` timings include. The `dense_*` columns
/// (operands already materialized) are reported for the steady-state
/// contrast but do not define the crossover.
fn measured_crossover(rows: &[SweepRow]) -> Option<f64> {
    rows.iter()
        .find(|r| r.wah_and > r.decomp_and || r.wah_or > r.decomp_or)
        .map(|r| r.density)
}

/// Best-of-`reps` seconds to answer the full query space against a stored
/// index (fresh source per rep; pool-less, so every rep pays storage I/O).
fn workload_seconds(
    stored: &StoredIndex<MemStore>,
    spec: &IndexSpec,
    cardinality: u32,
    reps: usize,
) -> f64 {
    let queries = full_space(cardinality);
    let mut best = f64::MAX;
    let mut sink = 0usize;
    for _ in 0..reps {
        let mut src = SharedSource::try_unpooled(stored, spec.clone()).expect("spec matches");
        let start = Instant::now();
        for &q in &queries {
            let (found, _) = evaluate(&mut src, q, Algorithm::Auto).expect("evaluates");
            sink ^= found.count_ones();
        }
        best = best.min(start.elapsed().as_secs_f64());
    }
    assert!(sink < usize::MAX);
    best
}

struct EndToEnd {
    label: &'static str,
    literal_s: f64,
    coded_s: f64,
}

impl EndToEnd {
    /// Positive = the slot-coded store is slower than all-literal.
    fn loss_pct(&self) -> f64 {
        (self.coded_s / self.literal_s - 1.0) * 100.0
    }
}

/// A sorted column: every equality slot is one contiguous run, the
/// best case for per-slot WAH coding (a clustered fact table).
fn clustered_column(rows: usize, cardinality: u32) -> Column {
    let values: Vec<u32> = (0..rows)
        .map(|i| (i as u64 * u64::from(cardinality) / rows as u64) as u32)
        .collect();
    Column::new(values, cardinality)
}

fn end_to_end(col: &Column, cfg: &Config, encoding: Encoding, label: &'static str) -> EndToEnd {
    let spec = IndexSpec::new(Base::single(cfg.cardinality).unwrap(), encoding);
    let idx = BitmapIndex::build(col, spec.clone()).unwrap();
    let literal = persist_index(
        &idx,
        MemStore::new(),
        StorageScheme::BitmapLevel,
        CodecKind::None,
    )
    .unwrap();
    let coded = persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap();
    let literal_s = workload_seconds(&literal, &spec, cfg.cardinality, cfg.workload_reps);
    let coded_s = workload_seconds(&coded, &spec, cfg.cardinality, cfg.workload_reps);
    EndToEnd {
        label,
        literal_s,
        coded_s,
    }
}

struct PoolResidency {
    byte_budget: usize,
    literal_resident: usize,
    coded_resident: usize,
}

/// Streams every slot of both stores through a byte-budgeted pool and
/// reports how many stayed resident.
fn pool_residency(col: &Column, cfg: &Config) -> PoolResidency {
    let spec = IndexSpec::new(Base::single(cfg.cardinality).unwrap(), Encoding::Equality);
    let idx = BitmapIndex::build(col, spec).unwrap();
    let literal = persist_index(
        &idx,
        MemStore::new(),
        StorageScheme::BitmapLevel,
        CodecKind::None,
    )
    .unwrap();
    let coded = persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap();
    // A budget of a quarter of the literal heap: the dense store must
    // evict, the compressed store should fit far more slots.
    let slot_bytes = cfg.rows.div_ceil(64) * 8;
    let byte_budget = slot_bytes * cfg.cardinality as usize / 4;

    let sweep = |stored: &StoredIndex<MemStore>| {
        let pool = ShardedPool::with_byte_budget(byte_budget, 1);
        let shape: Vec<usize> = stored
            .meta()
            .bitmaps_per_component
            .iter()
            .map(|&n| n as usize)
            .collect();
        for (c, &n_i) in shape.iter().enumerate() {
            for slot in 0..n_i {
                pool.get_or_load_repr((c + 1, slot), || stored.read_repr(c + 1, slot))
                    .expect("slot reads");
            }
        }
        pool.resident()
    };
    PoolResidency {
        byte_budget,
        literal_resident: sweep(&literal),
        coded_resident: sweep(&coded),
    }
}

/// The served index of the `served_range` section: the benchmark's
/// (`ingest_mixed`): C = 1000 under base <10,10,10>, range-encoded, 27
/// stored bitmaps.
const SERVED_CARDINALITY: u32 = 1000;
/// The server's default segment size.
const SERVED_SEGMENT_BITS: usize = 1 << 16;
/// The cluster length of the benchmark's column.
const BENCHMARK_CLUSTER: usize = 4096;

/// Mean µs per query of three ways to answer the same queries.
#[derive(Clone, Copy, Default)]
struct ServedTimes {
    /// Decode-then-fold: window-by-window dense evaluation, every
    /// compressed operand decoded (what every query paid before the
    /// compressed fold existed, and what a declined one pays now).
    decode_fold: f64,
    /// As the executor chooses, the foundset left as evaluation produced
    /// it and counted — a count reply.
    count: f64,
    /// As the executor chooses, the foundset decoded to dense words.
    dense: f64,
}

struct ServedRow {
    cluster_len: usize,
    wah_slots: usize,
    /// Mean compressed ÷ literal size over the stored slots.
    mean_ratio: f64,
    /// Share of queries the executor folded in the compressed domain.
    folded_share: f64,
    all: ServedTimes,
    /// The folded queries alone (`None` when there were none).
    folded: Option<ServedTimes>,
    /// The declined queries alone.
    declined: Option<ServedTimes>,
}

/// One cluster length of the served-range sweep: builds the column and
/// its v4 store, warms a pool that holds every slot, and answers `queries`
/// each of the three ways, best of `reps` per query.
fn served_range_row(
    rows: usize,
    cluster_len: usize,
    queries: &[SelectionQuery],
    reps: usize,
) -> ServedRow {
    let spec = IndexSpec::new(Base::uniform(10, 3).unwrap(), Encoding::Range);
    let col = gen::clustered(rows, SERVED_CARDINALITY, cluster_len, 1);
    let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
    let stored = persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap();
    let reader = SharedIndexReader::with_pool(stored, ShardedPool::new(64, 8));
    let (mut wah_slots, mut ratio_sum, mut slots) = (0usize, 0.0, 0usize);
    for comp in 1..=3 {
        for slot in 0..9 {
            let repr = reader.read_repr(comp, slot).expect("slot reads");
            wah_slots += usize::from(repr.is_compressed());
            ratio_sum += repr.heap_bytes() as f64 / (rows.div_ceil(64) * 8) as f64;
            slots += 1;
        }
    }

    // One source and context per query, as the server builds them.
    let time = |f: &mut dyn FnMut(&mut ExecContext<'_, SharedSource<'_, MemStore>>) -> usize| {
        let mut best = f64::MAX;
        for _ in 0..reps {
            let mut src = SharedSource::try_new(&reader, spec.clone()).expect("spec matches");
            let mut ctx = ExecContext::new(&mut src);
            let start = Instant::now();
            let ones = f(&mut ctx);
            best = best.min(start.elapsed().as_secs_f64());
            std::hint::black_box(ones);
        }
        best * 1e6
    };
    let mut per_query: Vec<(bool, ServedTimes)> = Vec::with_capacity(queries.len());
    for &q in queries {
        let want = bindex::core::eval::naive::evaluate(&col, q).count_ones();
        let query = Query::Selection(q);
        // No threshold takes the compressed fold, and a 1-of-1 threshold is
        // its predicate: the same chain, window by window over decoded words.
        let decoded = Query::Threshold(ThresholdQuery::new(1, vec![q]));
        let mut folded = false;
        let times = ServedTimes {
            decode_fold: time(&mut |ctx| {
                let found =
                    evaluate_repr_in(ctx, &decoded, Algorithm::Auto, Some(SERVED_SEGMENT_BITS))
                        .expect("evaluates");
                assert!(!found.is_compressed(), "decode-then-fold {q}");
                let ones = found.count_ones();
                assert_eq!(ones, want, "decode-then-fold {q}");
                ones
            }),
            count: time(&mut |ctx| {
                let found =
                    evaluate_repr_in(ctx, &query, Algorithm::Auto, Some(SERVED_SEGMENT_BITS))
                        .expect("evaluates");
                folded = found.is_compressed();
                let ones = found.count_ones();
                assert_eq!(ones, want, "count {q}");
                ones
            }),
            dense: time(&mut |ctx| {
                evaluate_segmented_in(ctx, q, Algorithm::Auto, SERVED_SEGMENT_BITS)
                    .expect("evaluates")
                    .count_ones()
            }),
        };
        per_query.push((folded, times));
    }
    let mean = |keep: &dyn Fn(bool) -> bool| {
        let kept: Vec<&ServedTimes> = per_query
            .iter()
            .filter(|(folded, _)| keep(*folded))
            .map(|(_, t)| t)
            .collect();
        let n = kept.len() as f64;
        (!kept.is_empty()).then(|| ServedTimes {
            decode_fold: kept.iter().map(|t| t.decode_fold).sum::<f64>() / n,
            count: kept.iter().map(|t| t.count).sum::<f64>() / n,
            dense: kept.iter().map(|t| t.dense).sum::<f64>() / n,
        })
    };
    let n_folded = per_query.iter().filter(|(folded, _)| *folded).count();
    ServedRow {
        cluster_len,
        wah_slots,
        mean_ratio: ratio_sum / slots as f64,
        folded_share: n_folded as f64 / queries.len() as f64,
        all: mean(&|_| true).expect("at least one query"),
        folded: mean(&|folded| folded),
        declined: mean(&|folded| !folded),
    }
}

fn served_times_json(t: Option<ServedTimes>) -> String {
    match t {
        Some(t) => format!(
            "{{\"decode_then_fold_us\": {:.2}, \"count_us\": {:.2}, \"dense_result_us\": {:.2}}}",
            t.decode_fold, t.count, t.dense
        ),
        None => "null".into(),
    }
}

fn main() {
    let quick = smoke();
    let provenance = RunProvenance::capture(1);
    let cfg = if quick {
        Config {
            bits: 1 << 18,
            densities: &[0.001, 0.01, 0.05, 0.5],
            kernel_reps: 10,
            rows: 20_000,
            cardinality: 20,
            workload_reps: 2,
            served_rows: 1 << 18,
            served_clusters: &[256, BENCHMARK_CLUSTER],
            served_queries: 300,
        }
    } else {
        Config {
            bits: 1 << 21,
            densities: &[0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5],
            kernel_reps: 30,
            rows: 200_000,
            cardinality: 50,
            workload_reps: 3,
            served_rows: 1 << 21,
            served_clusters: &[64, 128, 256, 512, 1024, 2048, BENCHMARK_CLUSTER, 16_384],
            served_queries: 2000,
        }
    };

    // 1 + 2: kernels across densities, and the measured crossover.
    let sweep = kernel_sweep(&cfg);
    let mut table_rows = Vec::new();
    for r in &sweep {
        table_rows.push(vec![
            format!("{:.3}", r.density),
            format!("{:.3}", r.compressed_ratio),
            f2(r.decomp_and / r.wah_and),
            f2(r.decomp_or / r.wah_or),
            f2(r.dense_and / r.wah_and),
            f2(r.dense_or / r.wah_or),
        ]);
    }
    print_table(
        &format!("{OPERANDS}-way WAH kernels ({} bits)", cfg.bits),
        &[
            "density",
            "size ratio",
            "AND vs decomp",
            "OR vs decomp",
            "AND vs dense",
            "OR vs dense",
        ],
        &table_rows,
    );
    let crossover = measured_crossover(&sweep);
    println!(
        "  measured crossover: {}",
        crossover.map_or("beyond sweep".into(), |d| format!("{d:.3}")),
    );

    // 3: end-to-end stored-index workloads. The clustered column is the
    // win case (slots stored WAH, adaptive ops stay compressed); the
    // uniform column's slots fail the codec heuristic and stay literal,
    // pinning the no-regression bound; range encoding's dense prefix
    // slots are the high-density guard.
    let col = gen::uniform(cfg.rows, cfg.cardinality, 11);
    let clustered = clustered_column(cfg.rows, cfg.cardinality);
    let runs = [
        end_to_end(&clustered, &cfg, Encoding::Equality, "equality, clustered"),
        end_to_end(&col, &cfg, Encoding::Equality, "equality, uniform"),
        end_to_end(&col, &cfg, Encoding::Range, "range (dense slots)"),
    ];
    print_table(
        "end-to-end: slot-coded vs all-literal store",
        &["index", "literal s", "slot-coded s", "loss %"],
        &runs
            .iter()
            .map(|r| {
                vec![
                    r.label.to_string(),
                    format!("{:.4}", r.literal_s),
                    format!("{:.4}", r.coded_s),
                    f2(r.loss_pct()),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // 4: byte-budgeted pool residency (clustered column, where the
    // slot coding actually stores slots compressed).
    let pool = pool_residency(&clustered, &cfg);
    print_table(
        "pool residency under one byte budget",
        &["store", "resident slots"],
        &[
            vec!["literal".into(), pool.literal_resident.to_string()],
            vec!["slot-coded".into(), pool.coded_resident.to_string()],
        ],
    );
    println!("  (budget: {} bytes)", pool.byte_budget);

    // 5: served range queries across cluster lengths.
    let space = full_space(SERVED_CARDINALITY);
    let served_queries: Vec<SelectionQuery> = space
        .iter()
        .copied()
        .step_by(space.len() / cfg.served_queries)
        .collect();
    let served: Vec<ServedRow> = cfg
        .served_clusters
        .iter()
        .map(|&len| served_range_row(cfg.served_rows, len, &served_queries, cfg.workload_reps))
        .collect();
    let us = |t: Option<ServedTimes>, f: fn(&ServedTimes) -> f64| {
        t.map_or("-".into(), |t| format!("{:.1}", f(&t)))
    };
    print_table(
        &format!(
            "served RangeEval-Opt, {} rows, C = {SERVED_CARDINALITY} <10,10,10>, v4 + warm pool \
             (us/query; folded = the queries the 1/16 rule sent to the compressed fold)",
            cfg.served_rows
        ),
        &[
            "cluster",
            "WAH slots",
            "size ratio",
            "folded",
            "decode+fold",
            "count",
            "dense result",
            "folded: decode+fold",
            "folded: count",
            "folded: dense",
        ],
        &served
            .iter()
            .map(|r| {
                vec![
                    r.cluster_len.to_string(),
                    r.wah_slots.to_string(),
                    format!("{:.4}", r.mean_ratio),
                    format!("{:.3}", r.folded_share),
                    us(Some(r.all), |t| t.decode_fold),
                    us(Some(r.all), |t| t.count),
                    us(Some(r.all), |t| t.dense),
                    us(r.folded, |t| t.decode_fold),
                    us(r.folded, |t| t.count),
                    us(r.folded, |t| t.dense),
                ]
            })
            .collect::<Vec<_>>(),
    );
    // Wherever the rule sends most queries to the compressed fold, the
    // fold must be the faster side even when the caller wants dense words
    // (a row straddling the switch folds a handful of queries at break-even
    // and says nothing either way); at the benchmark's cluster length that
    // is every query that reads a bitmap.
    let fold_faster_where_rule_folds = served
        .iter()
        .filter(|r| r.folded_share > 0.5)
        .filter_map(|r| r.folded)
        .all(|t| t.dense < t.decode_fold && t.count < t.decode_fold);
    let switch = served
        .windows(2)
        .find(|w| w[0].folded_share <= 0.5 && w[1].folded_share > 0.5)
        .map_or("null".into(), |w| {
            format!("[{}, {}]", w[0].cluster_len, w[1].cluster_len)
        });
    let at_benchmark = served
        .iter()
        .find(|r| r.cluster_len == BENCHMARK_CLUSTER)
        .expect("the sweep includes the benchmark's cluster length");
    let fold_faster_at_benchmark_ratio = at_benchmark.folded_share > 0.99
        && at_benchmark.all.dense < at_benchmark.all.decode_fold
        && at_benchmark.all.count < at_benchmark.all.decode_fold;
    println!("rule switches to the compressed fold between cluster lengths: {switch}");
    println!("compressed fold faster wherever the rule folds: {fold_faster_where_rule_folds}");
    println!(
        "compressed fold faster than decode-then-fold at cluster {BENCHMARK_CLUSTER}: \
         {fold_faster_at_benchmark_ratio}"
    );

    // CSV: the kernel sweep.
    let mut csv = Csv::create(
        "ext_compressed_exec",
        &[
            "density",
            "compressed_ratio",
            "wah_and_s",
            "decomp_and_s",
            "dense_and_s",
            "wah_or_s",
            "decomp_or_s",
            "dense_or_s",
        ],
    )
    .expect("csv");
    for r in &sweep {
        csv.row(&[
            &format!("{:.3}", r.density) as &dyn std::fmt::Display,
            &format!("{:.4}", r.compressed_ratio),
            &format!("{:.6}", r.wah_and),
            &format!("{:.6}", r.decomp_and),
            &format!("{:.6}", r.dense_and),
            &format!("{:.6}", r.wah_or),
            &format!("{:.6}", r.decomp_or),
            &format!("{:.6}", r.dense_or),
        ])
        .expect("row");
    }
    println!("\nCSV: {}", csv.path().display());

    // Acceptance summary: sparse compressed ops must beat
    // decompress-then-operate comfortably; the adaptive path must never
    // lose meaningfully at high density.
    let sparse_ok = sweep
        .iter()
        .filter(|r| r.density <= 0.01)
        .all(|r| r.decomp_and / r.wah_and >= 1.5 && r.decomp_or / r.wah_or >= 1.5);
    let dense_loss = runs[1].loss_pct().max(runs[2].loss_pct());
    let adaptive_ok = dense_loss <= 5.0;
    println!("sparse (<=1%) compressed speedup >= 1.5x: {sparse_ok}");
    println!("adaptive loss at high density <= 5%: {adaptive_ok} ({dense_loss:.2}%)");

    // Hand-rolled JSON (no serde in the dependency set).
    let sweep_json: Vec<String> = sweep
        .iter()
        .map(|r| {
            format!(
                "    {{\"density\": {:.3}, \"compressed_ratio\": {:.4}, \
                 \"wah_and_seconds\": {:.6}, \"decompress_and_seconds\": {:.6}, \
                 \"dense_and_seconds\": {:.6}, \"and_speedup_vs_decompress\": {:.3}, \
                 \"wah_or_seconds\": {:.6}, \"decompress_or_seconds\": {:.6}, \
                 \"dense_or_seconds\": {:.6}, \"or_speedup_vs_decompress\": {:.3}}}",
                r.density,
                r.compressed_ratio,
                r.wah_and,
                r.decomp_and,
                r.dense_and,
                r.decomp_and / r.wah_and,
                r.wah_or,
                r.decomp_or,
                r.dense_or,
                r.decomp_or / r.wah_or,
            )
        })
        .collect();
    let end_json: Vec<String> = runs
        .iter()
        .map(|r| {
            format!(
                "    {{\"index\": \"{}\", \"literal_seconds\": {:.6}, \
                 \"slot_coded_seconds\": {:.6}, \"loss_pct\": {:.2}}}",
                r.label,
                r.literal_s,
                r.coded_s,
                r.loss_pct(),
            )
        })
        .collect();
    let served_json: Vec<String> = served
        .iter()
        .map(|r| {
            format!(
                "      {{\"cluster_len\": {}, \"wah_slots\": {}, \"mean_compressed_ratio\": {:.5}, \
                 \"folded_share\": {:.4}, \"all_queries\": {}, \"folded_queries\": {}, \
                 \"declined_queries\": {}}}",
                r.cluster_len,
                r.wah_slots,
                r.mean_ratio,
                r.folded_share,
                served_times_json(Some(r.all)),
                served_times_json(r.folded),
                served_times_json(r.declined),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"compressed_exec\",\n  \"quick\": {quick},\n  {prov},\n  \
         \"bits\": {bits},\n  \"operands\": {OPERANDS},\n  \
         \"measured_crossover\": {crossover},\n  \"kernel_sweep\": [\n{sweep}\n  ],\n  \
         \"sparse_speedup_at_most_1pct_ge_1_5x\": {sparse_ok},\n  \
         \"end_to_end\": [\n{end}\n  ],\n  \
         \"adaptive_high_density_loss_le_5pct\": {adaptive_ok},\n  \
         \"pool\": {{\"byte_budget\": {budget}, \"literal_resident_slots\": {lit_res}, \
         \"slot_coded_resident_slots\": {coded_res}}},\n  \
         \"served_range\": {{\n    \"rows\": {served_rows}, \"cardinality\": {SERVED_CARDINALITY}, \
         \"base\": \"<10,10,10>\", \"queries\": {served_n}, \
         \"segment_bits\": {SERVED_SEGMENT_BITS}, \"max_folded_ratio\": 0.0625, \
         \"benchmark_cluster_len\": {BENCHMARK_CLUSTER},\n    \"sweep\": [\n{served}\n    ],\n    \
         \"rule_switches_between_cluster_lens\": {switch},\n    \
         \"fold_faster_where_rule_folds\": {fold_faster_where_rule_folds},\n    \
         \"fold_faster_at_benchmark_ratio\": {fold_faster_at_benchmark_ratio}\n  }}\n}}\n",
        served_rows = cfg.served_rows,
        served_n = served_queries.len(),
        served = served_json.join(",\n"),
        prov = provenance.json_fields(),
        bits = cfg.bits,
        crossover = crossover.map_or("null".into(), |d| format!("{d:.3}")),
        sweep = sweep_json.join(",\n"),
        end = end_json.join(",\n"),
        budget = pool.byte_budget,
        lit_res = pool.literal_resident,
        coded_res = pool.coded_resident,
    );
    write_artifact("compressed_exec", &json).expect("write json");
}
