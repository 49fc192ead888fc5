//! Property tests for threshold (k-of-N) queries: over seeded random
//! bases, columns, and predicate sets, every layout configuration of
//! {pruning on/off} × {unpooled, pool-that-fits} — plus pruning on over a
//! store whose summary block is gone — must produce foundsets
//! bit-identical to the per-row reference (`ThresholdQuery::matches`
//! over the column values) — and identical `EvalStats`, including the
//! `threshold_combines` charge, once the counters pruning is *allowed*
//! to move are set aside — for every recovery policy. A delta overlay
//! must make a threshold exactly the symmetric function of its
//! predicates' overlaid foundsets; a corrupted store may fail a threshold
//! but never answer it wrongly; and malformed thresholds are typed errors
//! on every storage path. (The CSA kernel itself is checked against the
//! per-row popcount definition in `bitvec::kernels`' own tests.)
//!
//! `BINDEX_CHAOS_SEED` pins one seed (the chaos-smoke CI knob); unset, a
//! default matrix runs.

use std::sync::Arc;

use bindex::bitvec::kernels;
use bindex::compress::CodecKind;
use bindex::core::eval::{evaluate_in, evaluate_segmented_in, Algorithm};
use bindex::core::{Error, EvalStats, ExecContext};
use bindex::relation::query::{Op, SelectionQuery, ThresholdQuery};
use bindex::relation::{Column, Rng};
use bindex::storage::{ByteStore, MemStore, ShardedPool, SharedIndexReader, StoredIndex};
use bindex::stored::{persist_index_v4, SharedSource};
use bindex::{
    Base, BitVec, BitmapIndex, Encoding, IndexSpec, IngestIndex, IngestOptions, RecoveryPolicy,
};

fn seeds() -> Vec<u64> {
    match std::env::var("BINDEX_CHAOS_SEED") {
        Ok(raw) => vec![raw.parse().expect("BINDEX_CHAOS_SEED must be an integer")],
        Err(_) => vec![1, 2, 3],
    }
}

/// 1..=3 components with digits in `2..8` and product at most 24 — small
/// enough that the query × config matrix stays cheap.
fn rand_base(rng: &mut Rng) -> Base {
    loop {
        let k = rng.range_usize(1, 4);
        let digits: Vec<u32> = (0..k).map(|_| 2 + rng.below_u32(6)).collect();
        if digits.iter().map(|&b| u64::from(b)).product::<u64>() <= 24 {
            return Base::new(digits).unwrap();
        }
    }
}

/// Clustered columns over the lower half of the domain (sorted runs plus
/// fully-dead slots — the shapes the early-exit bound exists for) mixed
/// with uniform full-domain ones.
fn rand_column(rng: &mut Rng, base: &Base, rows: usize, clustered: bool) -> Column {
    let card = base.product() as u32;
    if clustered {
        let live = (card / 2).max(1) as usize;
        Column::new((0..rows).map(|i| (i * live / rows) as u32).collect(), card)
    } else {
        Column::from_values((0..rows).map(|_| rng.below_u32(card)).collect())
    }
}

/// Random predicate sets with interior, edge, and duplicate-predicate
/// thresholds: `k = 1` (the OR plan), a middle k (the CSA network), and
/// `k = N` (the AND plan) for each fan-in.
fn rand_thresholds(rng: &mut Rng, card: u32) -> Vec<ThresholdQuery> {
    const OPS: [Op; 6] = [Op::Lt, Op::Le, Op::Gt, Op::Ge, Op::Eq, Op::Ne];
    let pred =
        |rng: &mut Rng| SelectionQuery::new(OPS[rng.below_usize(OPS.len())], rng.below_u32(card));
    let mut out = Vec::new();
    for n in [2usize, 3, 5] {
        let mut preds: Vec<SelectionQuery> = (0..n).map(|_| pred(rng)).collect();
        if n == 5 {
            // A duplicate predicate must count twice toward k.
            preds[4] = preds[0];
        }
        let mut ks = vec![1u32, n as u32 / 2 + 1, n as u32];
        ks.dedup();
        for k in ks {
            out.push(ThresholdQuery::new(k, preds.clone()));
        }
    }
    out
}

/// Per-row reference: the symmetric function applied value by value.
fn reference(col: &Column, q: &ThresholdQuery) -> BitVec {
    BitVec::from_fn(col.len(), |r| q.matches(col.values()[r]))
}

/// The counters that must not move across any layout configuration —
/// everything the paper's cost model charges, including the threshold
/// combine tally. Pruning may change `segments_pruned` /
/// `segments_skipped` and may only *reduce* `materializations`.
fn invariant_counters(s: &EvalStats) -> [usize; 10] {
    [
        s.scans,
        s.ands,
        s.ors,
        s.xors,
        s.nots,
        s.threshold_combines,
        s.buffer_hits,
        s.degraded_fetches,
        s.reconstructed_bitmaps,
        s.segments_evaluated,
    ]
}

type EvalOutcome = Result<(BitVec, EvalStats), String>;

struct Config {
    name: &'static str,
    /// Serve from the copy of the store whose summary block was removed.
    summaries: bool,
    prune: bool,
    pool: bool,
}

const CONFIGS: &[Config] = &[
    Config {
        name: "v4",
        summaries: true,
        prune: false,
        pool: false,
    },
    Config {
        name: "no-summary+prune", // no summary block: pruning must be inert
        summaries: false,
        prune: true,
        pool: false,
    },
    Config {
        name: "v4+prune",
        summaries: true,
        prune: true,
        pool: false,
    },
    Config {
        name: "v4+pool",
        summaries: true,
        prune: false,
        pool: true,
    },
    Config {
        name: "v4+prune+pool",
        summaries: true,
        prune: true,
        pool: true,
    },
];

/// The cache axis over one store: a reader with no pool, and a second
/// handle on the same bytes behind a pool that holds every slot (so it
/// never evicts — each slot is read and verified once, then shared).
fn unpooled_and_pooled(store: MemStore) -> [SharedIndexReader<MemStore>; 2] {
    let pooled = StoredIndex::open(store.clone()).unwrap();
    let fits = ShardedPool::new(pooled.meta().total_bitmaps() as usize, 1);
    [
        SharedIndexReader::new(StoredIndex::open(store).unwrap()),
        SharedIndexReader::with_pool(pooled, fits),
    ]
}

fn run_config(
    reader: &SharedIndexReader<MemStore>,
    spec: &IndexSpec,
    prune: bool,
    q: &ThresholdQuery,
    policy: &RecoveryPolicy,
    segment_bits: usize,
) -> EvalOutcome {
    let mut src = SharedSource::try_new(reader, spec.clone()).unwrap();
    let mut ctx = ExecContext::new(&mut src)
        .with_recovery(policy.clone())
        .with_pruning(prune);
    match evaluate_segmented_in(&mut ctx, q.clone(), Algorithm::Auto, segment_bits) {
        Ok(found) => Ok((found, ctx.take_stats())),
        Err(e) => Err(e.to_string()),
    }
}

/// The full configuration matrix on clean stores: every config answers
/// the per-row reference bit for bit with identical invariant counters,
/// and pruning is inert without a summary block.
#[test]
fn threshold_layout_matrix_is_bit_identical() {
    for seed in seeds() {
        let mut rng = Rng::seed_from_u64(0x7B10 + seed);
        let base = rand_base(&mut rng);
        let rows = rng.range_usize(65, 400);
        let col = rand_column(&mut rng, &base, rows, seed.is_multiple_of(2));
        let column = Arc::new(col.clone());
        let queries = rand_thresholds(&mut rng, base.product() as u32);
        for encoding in [Encoding::Range, Encoding::Equality, Encoding::Interval] {
            let spec = IndexSpec::new(base.clone(), encoding);
            let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
            let v4 = persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap();
            // The degrade path: the same bytes with the summary block gone.
            let mut bare = v4.store().clone();
            bare.remove_file("summary.bxs").unwrap();
            let bare = SharedIndexReader::new(StoredIndex::open(bare).unwrap());
            assert!(bare.index().read_summaries().is_none());
            let [v4, v4_pooled] = unpooled_and_pooled(v4.into_store());
            let policies = [
                RecoveryPolicy::Fail,
                RecoveryPolicy::Reconstruct,
                RecoveryPolicy::ReconstructOrScan(Arc::clone(&column)),
            ];
            for q in &queries {
                let want = reference(&col, q);
                for policy in &policies {
                    // Policies other than `Fail` are inert on a clean
                    // store but a different code path; one size each.
                    let sweep: &[usize] = if matches!(policy, RecoveryPolicy::Fail) {
                        &[64, 512]
                    } else {
                        &[64]
                    };
                    for &segment_bits in sweep {
                        let mut outcomes: Vec<(&str, EvalOutcome)> = Vec::new();
                        for cfg in CONFIGS {
                            let reader = match (cfg.summaries, cfg.pool) {
                                (false, _) => &bare,
                                (true, false) => &v4,
                                (true, true) => &v4_pooled,
                            };
                            let out = run_config(reader, &spec, cfg.prune, q, policy, segment_bits);
                            outcomes.push((cfg.name, out));
                        }
                        let label =
                            format!("seed {seed} {encoding:?} {policy:?} seg={segment_bits} {q}");
                        let (base_name, baseline) = &outcomes[0];
                        let (b_found, b_stats) = baseline
                            .as_ref()
                            .unwrap_or_else(|e| panic!("{label}: baseline {base_name}: {e}"));
                        assert_eq!(b_found, &want, "{label}: baseline vs per-row reference");
                        for (name, out) in &outcomes[1..] {
                            let (found, stats) = out
                                .as_ref()
                                .unwrap_or_else(|e| panic!("{label}: {name} failed: {e}"));
                            assert_eq!(found, &want, "{label}: {name} result");
                            assert_eq!(
                                invariant_counters(stats),
                                invariant_counters(b_stats),
                                "{label}: {name} stats"
                            );
                            assert!(
                                stats.materializations <= b_stats.materializations,
                                "{label}: {name} pruning may only reduce materializations"
                            );
                            if !name.contains("v4+prune") {
                                assert_eq!(
                                    stats.segments_pruned, 0,
                                    "{label}: {name} must not prune"
                                );
                            }
                            assert!(
                                stats.segments_pruned + stats.segments_skipped
                                    <= stats.segments_evaluated,
                                "{label}: {name} disjoint segment counters"
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Threshold over a live delta overlay (appended rows plus deletes) is
/// exactly the per-row symmetric function of its predicates' overlaid
/// foundsets, whole-bitmap and segmented alike.
#[test]
fn threshold_over_delta_overlay_matches_selection_foundsets() {
    for seed in seeds() {
        let mut rng = Rng::seed_from_u64(0x7B30 + seed);
        let card = 12u32;
        let base_rows = rng.range_usize(100, 300);
        let col = Column::new((0..base_rows).map(|_| rng.below_u32(card)).collect(), card);
        let spec = IndexSpec::new(Base::from_msb(&[3, 4]).unwrap(), Encoding::Equality);
        let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
        let mut stored = persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap();

        let overlay = {
            let mut ingest =
                IngestIndex::open(&mut stored, spec.clone(), card, IngestOptions::new()).unwrap();
            let appends: Vec<Option<u32>> = (0..40).map(|_| Some(rng.below_u32(card))).collect();
            ingest.append(&appends).unwrap();
            let deletes: Vec<u64> = (0..5).map(|_| rng.below_usize(base_rows) as u64).collect();
            ingest.delete(&deletes).unwrap();
            ingest.overlay().unwrap()
        };

        let preds = vec![
            SelectionQuery::new(Op::Le, 4),
            SelectionQuery::new(Op::Ge, 3),
            SelectionQuery::new(Op::Ne, 7),
            SelectionQuery::new(Op::Eq, 2),
        ];
        // Overlaid per-predicate foundsets are the ground truth the
        // symmetric function is defined over (they already encode the
        // append and delete semantics).
        let founds: Vec<BitVec> = preds
            .iter()
            .map(|&p| {
                let mut src = SharedSource::try_unpooled(&stored, spec.clone()).unwrap();
                let mut ctx = ExecContext::new(&mut src).with_overlay(Some(Arc::clone(&overlay)));
                evaluate_in(&mut ctx, p, Algorithm::Auto).unwrap()
            })
            .collect();
        let n_rows = founds[0].len();
        assert_eq!(n_rows, base_rows + 40, "overlay extends the row space");

        for k in 1..=preds.len() as u32 {
            let q = ThresholdQuery::new(k, preds.clone());
            let want = BitVec::from_fn(n_rows, |r| {
                founds.iter().filter(|f| f.get(r)).count() >= k as usize
            });
            let mut src = SharedSource::try_unpooled(&stored, spec.clone()).unwrap();
            let mut ctx = ExecContext::new(&mut src).with_overlay(Some(Arc::clone(&overlay)));
            let whole = evaluate_in(&mut ctx, q.clone(), Algorithm::Auto).unwrap();
            assert_eq!(whole, want, "seed {seed} whole {q}");
            let seg = evaluate_segmented_in(&mut ctx, q.clone(), Algorithm::Auto, 64).unwrap();
            assert_eq!(seg, want, "seed {seed} segmented {q}");
        }
    }
}

/// Corrupted data files under every recovery policy: a threshold may
/// fail (typed, on `Fail`) and pruning may turn a failure into a success
/// on a provably-dead window, but no path — with or without a pool in
/// front of the store — ever yields a wrong answer.
#[test]
fn corrupted_stores_never_yield_wrong_threshold_answers() {
    for seed in seeds() {
        let mut rng = Rng::seed_from_u64(0x7B40 + seed);
        let base = rand_base(&mut rng);
        let rows = rng.range_usize(65, 400);
        let col = rand_column(&mut rng, &base, rows, true);
        let column = Arc::new(col.clone());
        let queries = rand_thresholds(&mut rng, base.product() as u32);
        let spec = IndexSpec::new(base.clone(), Encoding::Equality);
        let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
        let stored = persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap();
        let mut store = stored.into_store();
        let mut names: Vec<String> = store
            .file_names()
            .unwrap()
            .into_iter()
            .filter(|n| n.contains(".bmp"))
            .collect();
        names.sort();
        let victim = names.remove(rng.below_usize(names.len()));
        let mut data = store.read_file(&victim).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0x08;
        store.write_file(&victim, &data).unwrap();
        let readers = unpooled_and_pooled(store);

        let policies = [
            RecoveryPolicy::Fail,
            RecoveryPolicy::Reconstruct,
            RecoveryPolicy::ReconstructOrScan(Arc::clone(&column)),
        ];
        for q in &queries {
            let want = reference(&col, q);
            for policy in &policies {
                for (reader, cache) in readers.iter().zip(["unpooled", "pooled"]) {
                    let label = format!("seed {seed} {victim} {cache} {policy:?} {q}");
                    let plain = run_config(reader, &spec, false, q, policy, 64);
                    let pruned = run_config(reader, &spec, true, q, policy, 64);
                    match (&plain, &pruned) {
                        (Ok((p_found, _)), Ok((r_found, _))) => {
                            assert_eq!(p_found, &want, "{label}: unpruned answer");
                            assert_eq!(r_found, &want, "{label}: pruned answer");
                        }
                        (Err(_), Ok((r_found, _))) => {
                            // Pruning skipped the corrupt fetch entirely —
                            // legal only because the answer is still exact.
                            assert_eq!(r_found, &want, "{label}: pruned-past-corruption");
                        }
                        (Err(_), Err(_)) => {}
                        (Ok(_), Err(e)) => {
                            panic!("{label}: pruning introduced a failure: {e}")
                        }
                    }
                }
            }
        }
    }
}

/// Malformed thresholds are `Error::InvalidQuery` on every storage path
/// (whole-bitmap and segmented, pruned and pooled) — never a panic and
/// never an empty foundset. The raw kernels, by contrast, are total on
/// degenerate k; the typed boundary lives in the query layer.
#[test]
fn degenerate_thresholds_are_typed_errors_on_stored_indexes() {
    let col = Column::new((0..200u32).map(|i| i % 12).collect(), 12);
    let spec = IndexSpec::new(Base::from_msb(&[3, 4]).unwrap(), Encoding::Range);
    let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
    let stored = persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap();
    let [_, reader] = unpooled_and_pooled(stored.into_store());
    let p = SelectionQuery::new(Op::Le, 4);
    for bad in [
        ThresholdQuery::new(0, vec![p]),
        ThresholdQuery::new(2, vec![p]),
        ThresholdQuery::new(1, Vec::new()),
    ] {
        assert!(bad.validate().is_err(), "{bad} must not validate");
        let mut src = SharedSource::try_new(&reader, spec.clone()).unwrap();
        let mut ctx = ExecContext::new(&mut src).with_pruning(true);
        let whole = evaluate_in(&mut ctx, bad.clone(), Algorithm::Auto);
        assert!(
            matches!(whole, Err(Error::InvalidQuery(_))),
            "whole {bad}: {whole:?}"
        );
        let seg = evaluate_segmented_in(&mut ctx, bad.clone(), Algorithm::Auto, 64);
        assert!(
            matches!(seg, Err(Error::InvalidQuery(_))),
            "segmented {bad}: {seg:?}"
        );
    }
    // The kernels stay total: degenerate k is all-ones / all-zeros.
    let a = BitVec::ones(100);
    let b = BitVec::zeros(100);
    assert_eq!(kernels::threshold_k(&[&a, &b], 0), BitVec::ones(100));
    assert_eq!(kernels::threshold_k(&[&a, &b], 3), BitVec::zeros(100));
}
