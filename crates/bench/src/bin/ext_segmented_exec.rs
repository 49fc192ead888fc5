//! Extension experiment: segment-at-a-time execution, one query on one
//! thread — what the windowed path of `evaluate_repr_in` buys over the
//! whole-bitmap path.
//!
//! Three measurements back the segmented executor and its default segment
//! size (`DEFAULT_SEGMENT_BITS` = 32 KiB of bits):
//!
//! 1. **8-way AND/OR blocking sweep** — the pairwise folds the evaluators
//!    actually run (RangeEval's chains, equality's `or_range`), whole-
//!    bitmap vs segmented, across segment sizes. Whole-bitmap mode
//!    re-streams the full-length accumulator once per operand; blocking
//!    keeps it cache-resident, which is where the single-thread win
//!    lives once the working set outgrows L2.
//! 2. **Evaluator sweep** — full query spaces through `evaluate_in` vs
//!    `evaluate_segmented_in` for all four concrete algorithms, so the
//!    end-to-end overhead of windowed fetches and per-segment dispatch
//!    is on the record.
//! 3. **Density sweep** — equality-encoded indexes across cardinalities
//!    (per-slot density 1/C), checking the segmented path holds up from
//!    dense to sparse slots.
//!
//! Emits `BENCH_segmented_exec.json` and the usual CSV. `--quick` shrinks
//! everything for CI smoke runs.

use std::time::Instant;

use bindex::bitvec::{kernels, SegmentView};
use bindex::core::eval::{evaluate_in, evaluate_segmented_in, Algorithm};
use bindex::core::{ExecContext, DEFAULT_SEGMENT_BITS};
use bindex::relation::gen;
use bindex::relation::query::{full_space, Op, SelectionQuery};
use bindex::{Base, BitVec, BitmapIndex, Encoding, IndexSpec};
use bindex_bench::{f2, print_table, smoke, write_artifact, Csv, RunProvenance};

struct Config {
    /// Bits per operand in the 8-way fold sweep.
    fold_bits: usize,
    fold_reps: usize,
    /// Rows in the end-to-end evaluator sweeps.
    rows: usize,
    cardinality: u32,
    workload_reps: usize,
}

const OPERANDS: usize = 8;

/// Segment sizes swept against the whole-bitmap baseline. The default
/// (32 KiB of bits) sits in the middle; the extremes bracket it so the
/// sweep shows why it was chosen.
const SEGMENT_SWEEP: [usize; 4] = [1 << 16, DEFAULT_SEGMENT_BITS, 1 << 20, 1 << 22];

/// One operand of the ~50%-dense generator
/// ([`bindex_bench::synthetic_bitmaps`]). Density is irrelevant to the
/// dense kernels' cost — the density axis is swept end-to-end, where it
/// sets chain lengths.
fn random_bitmap(bits: usize, seed: u64) -> BitVec {
    bindex_bench::synthetic_bitmaps(bits, 1, seed)
        .pop()
        .expect("one bitmap")
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

/// The whole-bitmap pairwise fold: the accumulator is full row-count
/// width and is re-streamed once per operand.
fn fold_whole(operands: &[BitVec], and: bool) -> usize {
    let mut acc = operands[0].clone();
    for op in &operands[1..] {
        if and {
            acc.and_assign(op);
        } else {
            acc.or_assign(op);
        }
    }
    acc.count_ones()
}

/// The same fold blocked into `segment_bits`-sized morsels: the
/// accumulator segment stays cache-resident across all operands.
fn fold_segmented(operands: &[BitVec], and: bool, segment_bits: usize) -> usize {
    let bits = operands[0].len();
    let mut ones = 0usize;
    let mut lo = 0usize;
    while lo < bits {
        let hi = (lo + segment_bits).min(bits);
        let mut acc = operands[0].view_range(lo, hi).to_bitvec();
        for op in &operands[1..] {
            let view = op.view_range(lo, hi);
            if and {
                acc.and_assign_view(view);
            } else {
                acc.or_assign_view(view);
            }
        }
        ones += acc.count_ones();
        lo = hi;
    }
    ones
}

/// The 8-way count through the segmented executor's fused path: one pass
/// per segment through `kernels::count_*` over zero-copy views, no
/// intermediate materialization.
fn count_segmented(operands: &[BitVec], and: bool, segment_bits: usize) -> usize {
    let bits = operands[0].len();
    let mut ones = 0usize;
    let mut lo = 0usize;
    while lo < bits {
        let hi = (lo + segment_bits).min(bits);
        let views: Vec<SegmentView<'_>> = operands.iter().map(|op| op.view_range(lo, hi)).collect();
        ones += if and {
            kernels::count_and(&views)
        } else {
            kernels::count_or(&views)
        };
        lo = hi;
    }
    ones
}

struct FoldPoint {
    op: &'static str,
    variant: &'static str,
    /// `None` is a whole-bitmap variant.
    segment_bits: Option<usize>,
    seconds: f64,
    /// Relative to the whole-bitmap pairwise fold of the same operator —
    /// the code path the evaluators ran before segmented execution.
    speedup: f64,
}

fn fold_sweep(cfg: &Config) -> Vec<FoldPoint> {
    let operands: Vec<BitVec> = (0..OPERANDS as u64)
        .map(|s| random_bitmap(cfg.fold_bits, s + 1))
        .collect();
    let refs: Vec<&BitVec> = operands.iter().collect();
    let mut points = Vec::new();
    for (op, and) in [("and", true), ("or", false)] {
        let whole = best_of(cfg.fold_reps, || fold_whole(&operands, and));
        let expected = fold_whole(&operands, and);
        points.push(FoldPoint {
            op,
            variant: "pairwise",
            segment_bits: None,
            seconds: whole,
            speedup: 1.0,
        });
        for seg in SEGMENT_SWEEP {
            assert_eq!(fold_segmented(&operands, and, seg), expected);
            let s = best_of(cfg.fold_reps, || fold_segmented(&operands, and, seg));
            points.push(FoldPoint {
                op,
                variant: "pairwise",
                segment_bits: Some(seg),
                seconds: s,
                speedup: whole / s,
            });
        }
        // The count-query shape: the whole-bitmap path folds then
        // popcounts; the segmented executor runs the fused count kernel
        // per morsel and never materializes the conjunction.
        let fused_whole = best_of(cfg.fold_reps, || {
            if and {
                kernels::count_and(&refs)
            } else {
                kernels::count_or(&refs)
            }
        });
        points.push(FoldPoint {
            op,
            variant: "fused_count",
            segment_bits: None,
            seconds: fused_whole,
            speedup: whole / fused_whole,
        });
        for seg in SEGMENT_SWEEP {
            assert_eq!(count_segmented(&operands, and, seg), expected);
            let s = best_of(cfg.fold_reps, || count_segmented(&operands, and, seg));
            points.push(FoldPoint {
                op,
                variant: "fused_count",
                segment_bits: Some(seg),
                seconds: s,
                speedup: whole / s,
            });
        }
    }
    points
}

/// Best-of-`reps` seconds to answer the full query space against an
/// in-memory index, whole-bitmap or segmented.
fn workload_seconds(
    index: &BitmapIndex,
    cardinality: u32,
    algorithm: Algorithm,
    segment_bits: Option<usize>,
    reps: usize,
) -> f64 {
    let queries = full_space(cardinality);
    best_of(reps, || {
        let mut sink = 0usize;
        let mut src = index.source();
        for &q in &queries {
            let mut ctx = ExecContext::new(&mut src);
            let found = match segment_bits {
                None => evaluate_in(&mut ctx, q, algorithm),
                Some(seg) => evaluate_segmented_in(&mut ctx, q, algorithm, seg),
            }
            .expect("evaluates");
            sink ^= found.count_ones();
        }
        sink
    })
}

struct EvalPoint {
    label: String,
    algorithm: &'static str,
    segment_bits: Option<usize>,
    seconds: f64,
    speedup: f64,
}

/// Whole-bitmap vs segmented (default morsel) for every concrete
/// algorithm, plus a segment-size sweep on RangeEval-Opt — the evaluator
/// whose n-AND seeding moves the most intermediate bytes.
fn evaluator_sweep(cfg: &Config) -> Vec<EvalPoint> {
    let col = gen::uniform(cfg.rows, cfg.cardinality, 7);
    // A two-component base: queries run per-component digit chains plus
    // cross-component combining, the multi-operand shape segment blocking
    // targets (single-fetch queries are bounded by result assembly, not
    // operator work, and are covered by the density sweep's low end).
    let digits = (f64::from(cfg.cardinality)).sqrt().ceil() as u32;
    let base = Base::from_msb(&[digits, digits]).expect("base");
    let combos: [(Encoding, Algorithm, &'static str); 4] = [
        (Encoding::Range, Algorithm::RangeEval, "RangeEval"),
        (Encoding::Range, Algorithm::RangeEvalOpt, "RangeEvalOpt"),
        (Encoding::Equality, Algorithm::EqualityEval, "EqualityEval"),
        (Encoding::Interval, Algorithm::IntervalEval, "IntervalEval"),
    ];
    let mut points = Vec::new();
    for (encoding, algorithm, name) in combos {
        let spec = IndexSpec::new(base.clone(), encoding);
        let index = BitmapIndex::build(&col, spec).expect("index builds");
        let whole = workload_seconds(&index, cfg.cardinality, algorithm, None, cfg.workload_reps);
        points.push(EvalPoint {
            label: format!("{name} whole"),
            algorithm: name,
            segment_bits: None,
            seconds: whole,
            speedup: 1.0,
        });
        let sweep: Vec<usize> = if matches!(algorithm, Algorithm::RangeEvalOpt) {
            // A segment at or above the row count degenerates to the
            // whole-bitmap pass plus pure assembly overhead; sweep only
            // sizes that actually block.
            SEGMENT_SWEEP
                .into_iter()
                .filter(|&s| s < cfg.rows)
                .collect()
        } else {
            vec![DEFAULT_SEGMENT_BITS]
        };
        for seg in sweep {
            let s = workload_seconds(
                &index,
                cfg.cardinality,
                algorithm,
                Some(seg),
                cfg.workload_reps,
            );
            points.push(EvalPoint {
                label: format!("{name} seg={seg}"),
                algorithm: name,
                segment_bits: Some(seg),
                seconds: s,
                speedup: whole / s,
            });
        }
    }
    points
}

struct DensityPoint {
    cardinality: u32,
    density: f64,
    whole_s: f64,
    seg_s: f64,
    speedup: f64,
}

/// Equality-encoded indexes across cardinalities: per-slot density is
/// 1/C, so this sweeps dense → sparse operands through the same
/// segmented path. Only range predicates are timed — `or_range`'s chain
/// length is what the density axis controls (an equality probe fetches a
/// single slot whatever the density, so it carries no signal here).
fn density_sweep(cfg: &Config, quick: bool) -> Vec<DensityPoint> {
    let mut points = Vec::new();
    for cardinality in [16u32, 64, 256] {
        let col = gen::uniform(cfg.rows, cardinality, 11);
        let spec = IndexSpec::new(Base::single(cardinality).expect("base"), Encoding::Equality);
        let index = BitmapIndex::build(&col, spec).expect("index builds");
        let queries: Vec<SelectionQuery> = (0..cardinality)
            .map(|v| SelectionQuery::new(Op::Le, v))
            .collect();
        // Low cardinalities finish in milliseconds; give best-of more
        // shots there so scheduler noise does not swamp the signal.
        let reps = if cardinality < 256 && !quick {
            cfg.workload_reps * 3
        } else {
            cfg.workload_reps
        };
        let run = |segment_bits: Option<usize>| {
            best_of(reps, || {
                let mut sink = 0usize;
                let mut src = index.source();
                for &q in &queries {
                    let mut ctx = ExecContext::new(&mut src);
                    let found = match segment_bits {
                        None => evaluate_in(&mut ctx, q, Algorithm::EqualityEval),
                        Some(seg) => {
                            evaluate_segmented_in(&mut ctx, q, Algorithm::EqualityEval, seg)
                        }
                    }
                    .expect("evaluates");
                    sink ^= found.count_ones();
                }
                sink
            })
        };
        let whole_s = run(None);
        let seg_s = run(Some(DEFAULT_SEGMENT_BITS));
        points.push(DensityPoint {
            cardinality,
            density: 1.0 / f64::from(cardinality),
            whole_s,
            seg_s,
            speedup: whole_s / seg_s,
        });
    }
    points
}

fn seg_label(seg: Option<usize>) -> String {
    seg.map_or_else(|| "whole".into(), |s| s.to_string())
}

fn main() {
    let quick = smoke();
    let provenance = RunProvenance::capture(1);
    let cfg = if quick {
        Config {
            fold_bits: 1 << 20,
            fold_reps: 5,
            rows: 1 << 15,
            cardinality: 20,
            workload_reps: 2,
        }
    } else {
        Config {
            // 32 MiB per operand: the 8-operand working set (256 MiB)
            // outruns the last-level cache, which is where whole-bitmap
            // accumulator re-streaming starts paying full price.
            fold_bits: 1 << 28,
            fold_reps: 10,
            rows: 1 << 21,
            cardinality: 50,
            workload_reps: 3,
        }
    };

    let folds = fold_sweep(&cfg);
    print_table(
        &format!("8-way AND/OR, {} bits/operand", cfg.fold_bits),
        &["op", "variant", "segment_bits", "seconds", "speedup"],
        &folds
            .iter()
            .map(|p| {
                vec![
                    p.op.to_string(),
                    p.variant.to_string(),
                    seg_label(p.segment_bits),
                    format!("{:.6}", p.seconds),
                    f2(p.speedup),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let evals = evaluator_sweep(&cfg);
    print_table(
        &format!(
            "full query space, {} rows, cardinality {}",
            cfg.rows, cfg.cardinality
        ),
        &["configuration", "seconds", "speedup"],
        &evals
            .iter()
            .map(|p| vec![p.label.clone(), format!("{:.6}", p.seconds), f2(p.speedup)])
            .collect::<Vec<_>>(),
    );

    let densities = density_sweep(&cfg, quick);
    print_table(
        "equality slots, dense → sparse (segmented at default)",
        &["cardinality", "slot_density", "whole_s", "seg_s", "speedup"],
        &densities
            .iter()
            .map(|p| {
                vec![
                    p.cardinality.to_string(),
                    format!("{:.4}", p.density),
                    format!("{:.6}", p.whole_s),
                    format!("{:.6}", p.seg_s),
                    f2(p.speedup),
                ]
            })
            .collect::<Vec<_>>(),
    );

    let mut csv = Csv::create(
        "ext_segmented_exec",
        &["section", "label", "segment_bits", "seconds", "speedup"],
    )
    .expect("csv");
    for p in &folds {
        csv.row(&[
            &"fold_8way",
            &format!("{}_{}", p.op, p.variant),
            &seg_label(p.segment_bits),
            &format!("{:.6}", p.seconds),
            &f2(p.speedup),
        ])
        .expect("row");
    }
    for p in &evals {
        csv.row(&[
            &"evaluators",
            &p.algorithm,
            &seg_label(p.segment_bits),
            &format!("{:.6}", p.seconds),
            &f2(p.speedup),
        ])
        .expect("row");
    }
    for p in &densities {
        csv.row(&[
            &"density",
            &format!("card_{}", p.cardinality),
            &DEFAULT_SEGMENT_BITS,
            &format!("{:.6}", p.seg_s),
            &f2(p.speedup),
        ])
        .expect("row");
    }
    println!("\nCSV: {}", csv.path().display());

    // Hand-rolled JSON (no serde in the dependency set).
    let fold_json: Vec<String> = folds
        .iter()
        .map(|p| {
            format!(
                "    {{\"op\": \"{}\", \"variant\": \"{}\", \"segment_bits\": {}, \
                 \"seconds\": {:.6}, \"speedup\": {:.3}}}",
                p.op,
                p.variant,
                p.segment_bits
                    .map_or_else(|| "null".into(), |s| s.to_string()),
                p.seconds,
                p.speedup
            )
        })
        .collect();
    let eval_json: Vec<String> = evals
        .iter()
        .map(|p| {
            format!(
                "    {{\"algorithm\": \"{}\", \"segment_bits\": {}, \"seconds\": {:.6}, \
                 \"speedup\": {:.3}}}",
                p.algorithm,
                p.segment_bits
                    .map_or_else(|| "null".into(), |s| s.to_string()),
                p.seconds,
                p.speedup
            )
        })
        .collect();
    let density_json: Vec<String> = densities
        .iter()
        .map(|p| {
            format!(
                "    {{\"cardinality\": {}, \"slot_density\": {:.4}, \
                 \"whole_seconds\": {:.6}, \"segmented_seconds\": {:.6}, \"speedup\": {:.3}}}",
                p.cardinality, p.density, p.whole_s, p.seg_s, p.speedup
            )
        })
        .collect();
    // The headline numbers: the segmented executor (fused per-morsel
    // count at the default morsel size) against the whole-bitmap pairwise
    // path, for the 8-way conjunction and disjunction.
    let headline = |op: &str| {
        folds
            .iter()
            .find(|p| {
                p.op == op
                    && p.variant == "fused_count"
                    && p.segment_bits == Some(DEFAULT_SEGMENT_BITS)
            })
            .map_or(0.0, |p| p.speedup)
    };
    let json = format!(
        "{{\n  \"experiment\": \"segmented_exec\",\n  \"quick\": {quick},\n  {prov},\n  \
         \"default_segment_bits\": {default},\n  \"fold_bits\": {fold_bits},\n  \
         \"fold_operands\": {operands},\n  \"rows\": {rows},\n  \
         \"and_8way_speedup_at_default\": {and_sp:.3},\n  \
         \"or_8way_speedup_at_default\": {or_sp:.3},\n  \
         \"fold_8way\": [\n{folds}\n  ],\n  \"evaluators\": [\n{evals}\n  ],\n  \
         \"density\": [\n{densities}\n  ]\n}}\n",
        prov = provenance.json_fields(),
        default = DEFAULT_SEGMENT_BITS,
        fold_bits = cfg.fold_bits,
        operands = OPERANDS,
        rows = cfg.rows,
        and_sp = headline("and"),
        or_sp = headline("or"),
        folds = fold_json.join(",\n"),
        evals = eval_json.join(",\n"),
        densities = density_json.join(",\n"),
    );
    write_artifact("segmented_exec", &json).expect("write json");
}
