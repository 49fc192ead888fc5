//! Property tests for the compression-aware physical layout (the current
//! stored format): over seeded random bases, columns, and row counts, every
//! combination of {pruning on/off} × {unpooled, pool-that-fits} — plus
//! pruning on over a store whose summary block is gone — must produce
//! bit-identical answers — and identical `EvalStats` once the counters that pruning is
//! *allowed* to move (`segments_pruned`, `segments_skipped`,
//! `materializations`) are set aside — for every evaluator and recovery
//! policy. A corrupted summary block degrades to fetch-and-check (never a
//! wrong answer), scrub repairs it, and window-granular pruning on
//! clustered data provably reads fewer bytes.
//!
//! `BINDEX_CHAOS_SEED` pins one seed (the chaos-smoke CI knob); unset, a
//! default matrix runs. Failures print the case seed.

use std::sync::Arc;

use bindex::compress::CodecKind;
use bindex::core::eval::{evaluate_segmented_in, Algorithm};
use bindex::core::{EvalStats, ExecContext};
use bindex::relation::query::{full_space, Op, SelectionQuery};
use bindex::relation::{Column, Rng};
use bindex::storage::{ByteStore, MemStore, ShardedPool, SharedIndexReader, StoredIndex};
use bindex::stored::{persist_index_v4, scrub_and_repair_index, SharedSource};
use bindex::{Base, BitVec, BitmapIndex, Encoding, IndexSpec, RecoveryPolicy, SUMMARY_WINDOW_BITS};

fn seeds() -> Vec<u64> {
    match std::env::var("BINDEX_CHAOS_SEED") {
        Ok(raw) => vec![raw.parse().expect("BINDEX_CHAOS_SEED must be an integer")],
        Err(_) => vec![1, 2, 3],
    }
}

/// 1..=3 components with digits in `2..8` and product at most 24 — small
/// enough that the full query space times the config matrix stays cheap.
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
/// fully-dead slots — the shapes pruning exists for) mixed with uniform
/// full-domain ones.
fn rand_column(rng: &mut Rng, base: &Base, rows: usize, clustered: bool) -> Column {
    let card = base.product() as u32;
    if clustered {
        let live = (card / 2).max(1) as usize;
        Column::new((0..rows).map(|i| (i * live / rows) as u32).collect(), card)
    } else {
        Column::from_values((0..rows).map(|_| rng.below_u32(card)).collect())
    }
}

fn algorithms(encoding: Encoding) -> &'static [Algorithm] {
    match encoding {
        Encoding::Range => &[
            Algorithm::RangeEval,
            Algorithm::RangeEvalOpt,
            Algorithm::Auto,
        ],
        Encoding::Equality => &[Algorithm::EqualityEval, Algorithm::Auto],
        Encoding::Interval => &[Algorithm::IntervalEval, Algorithm::Auto],
    }
}

/// The counters that must not move across any layout configuration.
/// Pruning is allowed to change `segments_pruned` / `segments_skipped`
/// (disjoint counting) and may only *reduce* `materializations` (a pruned
/// slot's WAH cursor is never created); everything the paper's cost model
/// charges — scans, ops, buffer hits — and the recovery counters must be
/// bit-identical.
fn invariant_counters(s: &EvalStats) -> [usize; 9] {
    [
        s.scans,
        s.ands,
        s.ors,
        s.xors,
        s.nots,
        s.buffer_hits,
        s.degraded_fetches,
        s.reconstructed_bitmaps,
        s.segments_evaluated,
    ]
}

type EvalOutcome = Result<(BitVec, EvalStats), String>;

/// One layout configuration of the matrix.
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
    q: SelectionQuery,
    algo: Algorithm,
    policy: &RecoveryPolicy,
    segment_bits: usize,
) -> EvalOutcome {
    let mut src = SharedSource::try_new(reader, spec.clone()).unwrap();
    let mut ctx = ExecContext::new(&mut src)
        .with_recovery(policy.clone())
        .with_pruning(prune);
    match evaluate_segmented_in(&mut ctx, q, algo, segment_bits) {
        Ok(found) => Ok((found, ctx.take_stats())),
        Err(e) => Err(e.to_string()),
    }
}

/// The full configuration matrix on clean stores: identical answers,
/// identical invariant counters, pruning inert without a summary block.
#[test]
fn layout_matrix_is_bit_identical() {
    for seed in seeds() {
        let mut rng = Rng::seed_from_u64(0x14A0 + seed);
        let base = rand_base(&mut rng);
        let rows = rng.range_usize(65, 400);
        let col = rand_column(&mut rng, &base, rows, seed.is_multiple_of(2));
        let column = Arc::new(col.clone());
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
            for q in full_space(base.product() as u32) {
                for &algo in algorithms(encoding) {
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
                                let out = run_config(
                                    reader,
                                    &spec,
                                    cfg.prune,
                                    q,
                                    algo,
                                    policy,
                                    segment_bits,
                                );
                                outcomes.push((cfg.name, out));
                            }
                            let label = format!(
                                "seed {seed} {encoding:?} {algo:?} {policy:?} \
                                 seg={segment_bits} {q}"
                            );
                            let (base_name, baseline) = &outcomes[0];
                            let (b_found, b_stats) = baseline.as_ref().unwrap_or_else(|e| {
                                panic!("{label}: baseline {base_name} failed: {e}")
                            });
                            for (name, out) in &outcomes[1..] {
                                let (found, stats) = out
                                    .as_ref()
                                    .unwrap_or_else(|e| panic!("{label}: {name} failed: {e}"));
                                assert_eq!(found, b_found, "{label}: {name} result");
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
}

/// Corrupted *data* files under every recovery policy: pruning may turn a
/// failure into a success (a provably-dead slot is never fetched, and
/// zeros are its exact content) but must never produce a wrong answer,
/// and whenever the unpruned run succeeds the pruned run matches it
/// bit-for-bit — with and without a pool in front of the store.
#[test]
fn corrupted_data_files_never_yield_wrong_answers() {
    for seed in seeds() {
        let mut rng = Rng::seed_from_u64(0x14A1 + seed);
        let base = rand_base(&mut rng);
        let rows = rng.range_usize(65, 400);
        let col = rand_column(&mut rng, &base, rows, true);
        let column = Arc::new(col.clone());
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
        for q in full_space(base.product() as u32) {
            for &algo in algorithms(Encoding::Equality) {
                for policy in &policies {
                    for (reader, cache) in readers.iter().zip(["unpooled", "pooled"]) {
                        let label = format!("seed {seed} {victim} {cache} {algo:?} {policy:?} {q}");
                        let want = bindex::core::eval::naive::evaluate(&col, q);
                        let plain = run_config(reader, &spec, false, q, algo, policy, 64);
                        let pruned = run_config(reader, &spec, true, q, algo, policy, 64);
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
}

/// A corrupted summary block is detected on load, silently disables
/// pruning (fetch-and-check, bit-exact answers), and is rebuilt by
/// scrub-and-repair — after which pruning fires again.
#[test]
fn corrupted_summary_degrades_then_repairs() {
    // Half the domain never occurs: slots 4..8 are fully dead, so healthy
    // summaries prune their fetches outright.
    let rows = 2048;
    let card = 8u32;
    let col = Column::new((0..rows).map(|i| (i * 4 / rows) as u32).collect(), card);
    let spec = IndexSpec::new(Base::single(card).unwrap(), Encoding::Equality);
    let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
    let stored = persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap();
    let mut store = stored.into_store();
    let victim = store
        .file_names()
        .unwrap()
        .into_iter()
        .find(|n| n.contains("summary"))
        .expect("v4 store has a summary block");
    let mut data = store.read_file(&victim).unwrap();
    let last = data.len() - 1;
    data[last] ^= 0x01;
    store.write_file(&victim, &data).unwrap();
    let mut reader = SharedIndexReader::new(StoredIndex::open(store).unwrap());

    let mut pruned_total = 0usize;
    for q in full_space(card) {
        let want = bindex::core::eval::naive::evaluate(&col, q);
        let out = run_config(
            &reader,
            &spec,
            true,
            q,
            Algorithm::EqualityEval,
            &RecoveryPolicy::Fail,
            64,
        );
        let (found, stats) = out.expect("corrupt summaries must not fail queries");
        assert_eq!(found, want, "degraded {q}");
        pruned_total += stats.segments_pruned;
    }
    assert_eq!(pruned_total, 0, "a corrupt summary block must not prune");

    // Scrub-and-repair rebuilds the block from the (intact) slot files.
    let report = reader
        .repair_index(|stored| scrub_and_repair_index(stored, &spec, Some(&col), None))
        .unwrap();
    assert!(report.fully_repaired(), "{report:?}");
    for q in full_space(card) {
        let want = bindex::core::eval::naive::evaluate(&col, q);
        let out = run_config(
            &reader,
            &spec,
            true,
            q,
            Algorithm::EqualityEval,
            &RecoveryPolicy::Fail,
            64,
        );
        let (found, stats) = out.expect("repaired store");
        assert_eq!(found, want, "repaired {q}");
        pruned_total += stats.segments_pruned;
    }
    assert!(pruned_total > 0, "repaired summaries must prune again");
}

/// Window-granular pruning on rows wider than one summary window: the
/// pruned run answers identically and reads strictly fewer bytes from
/// storage than the unpruned run on the same fresh store.
#[test]
fn window_pruning_reads_strictly_fewer_bytes() {
    // Only even values occur, clustered: the odd slots are fully dead
    // (their queries fetch nothing under pruning) and each live slot is a
    // short run touching one or two of its three summary windows. `=` is
    // one plan over compressed slots, which must leave a dead slot to
    // pruning rather than fold it; `≤` ORs slot prefixes window by window.
    let rows = 3 * SUMMARY_WINDOW_BITS; // three windows per slot
    let card = 8u32;
    let col = Column::new(
        (0..rows).map(|i| ((i * 4 / rows) * 2) as u32).collect(),
        card,
    );
    let spec = IndexSpec::new(Base::single(card).unwrap(), Encoding::Equality);
    let idx = BitmapIndex::build(&col, spec.clone()).unwrap();

    let run = |op: Op, prune: bool| -> (Vec<BitVec>, usize, u64) {
        let reader = SharedIndexReader::new(
            persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap(),
        );
        let mut founds = Vec::new();
        let mut pruned = 0usize;
        for q in (0..card).map(|v| SelectionQuery::new(op, v)) {
            let out = run_config(
                &reader,
                &spec,
                prune,
                q,
                Algorithm::EqualityEval,
                &RecoveryPolicy::Fail,
                SUMMARY_WINDOW_BITS,
            );
            let (found, stats) = out.expect("clean store");
            founds.push(found);
            pruned += stats.segments_pruned;
        }
        let bytes = reader.stats().bytes_read;
        (founds, pruned, bytes)
    };
    // Each operator on its own: neither may lean on the other's savings.
    for op in [Op::Eq, Op::Le] {
        let (plain_founds, plain_pruned, plain_bytes) = run(op, false);
        let (pruned_founds, pruned_pruned, pruned_bytes) = run(op, true);
        assert_eq!(plain_founds, pruned_founds, "answers must be bit-identical");
        assert_eq!(plain_pruned, 0);
        assert!(pruned_pruned > 0, "{op:?}: clustered windows must prune");
        assert!(
            pruned_bytes < plain_bytes,
            "{op:?}: pruning must fetch strictly fewer bytes ({pruned_bytes} vs {plain_bytes})"
        );
    }
}
