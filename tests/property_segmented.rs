//! Property tests for segment-at-a-time execution: over seeded random
//! bases, columns, and row counts, the segmented driver must be
//! bit-identical to whole-bitmap evaluation — the result bitmap *and* the
//! paper-model `EvalStats` counters — for every evaluator, on literal and
//! slot-coded (WAH) stores, under every recovery policy (including a corrupted
//! store, where degraded-fetch accounting must also match), and with
//! early exit changing nothing but `segments_skipped`.
//!
//! `BINDEX_CHAOS_SEED` pins one seed (the chaos-smoke CI knob); unset, a
//! default matrix runs. Failures print the case seed.

use std::sync::Arc;

use bindex::compress::CodecKind;
use bindex::core::eval::{evaluate_in, evaluate_segmented_in, Algorithm};
use bindex::core::{EvalStats, ExecContext};
use bindex::relation::query::full_space;
use bindex::relation::{Column, Rng};
use bindex::storage::{ByteStore, MemStore, StorageScheme, StoredIndex};
use bindex::stored::{persist_index, persist_index_v4, SharedSource};
use bindex::{Base, BitVec, BitmapIndex, BitmapSource, Encoding, IndexSpec, RecoveryPolicy};

fn seeds() -> Vec<u64> {
    match std::env::var("BINDEX_CHAOS_SEED") {
        Ok(raw) => vec![raw.parse().expect("BINDEX_CHAOS_SEED must be an integer")],
        Err(_) => vec![1, 2, 3],
    }
}

/// Word-boundary row counts interleaved with random ones: segment and
/// bitmap tails land on the same boundaries, where slicing bugs live.
const BOUNDARY_ROWS: &[usize] = &[63, 64, 65, 127, 128, 129, 192, 257];

/// Segment sizes deliberately tiny relative to the row counts, so every
/// case runs many segments (including a ragged tail).
const SEGMENT_SIZES: &[usize] = &[64, 512];

fn rand_rows(rng: &mut Rng, seed: u64) -> usize {
    if seed.is_multiple_of(3) {
        BOUNDARY_ROWS[rng.below_usize(BOUNDARY_ROWS.len())]
    } else {
        rng.range_usize(65, 400)
    }
}

/// 1..=3 components with digits in `2..8` and product at most 36 — small
/// enough that the full query space stays cheap, wide enough to exercise
/// multi-component chains.
fn rand_base(rng: &mut Rng) -> Base {
    loop {
        let k = rng.range_usize(1, 4);
        let digits: Vec<u32> = (0..k).map(|_| 2 + rng.below_u32(6)).collect();
        if digits.iter().map(|&b| u64::from(b)).product::<u64>() <= 36 {
            return Base::new(digits).unwrap();
        }
    }
}

fn rand_column(rng: &mut Rng, base: &Base, rows: usize) -> Column {
    let card = base.product() as u32;
    Column::from_values((0..rows).map(|_| rng.below_u32(card)).collect())
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

/// The eight paper-model counters that must not move between whole-bitmap
/// and segmented execution. (`compressed_ops` and `materializations` are
/// representation metrics — windowed WAH decoding legitimately differs —
/// and the `segments_*` counters exist only on the segmented side.)
fn core8(s: &EvalStats) -> [usize; 8] {
    [
        s.scans,
        s.ands,
        s.ors,
        s.xors,
        s.nots,
        s.buffer_hits,
        s.degraded_fetches,
        s.reconstructed_bitmaps,
    ]
}

type EvalOutcome = Result<(BitVec, EvalStats), String>;

fn run_whole<S: BitmapSource>(
    src: &mut S,
    q: bindex::relation::query::SelectionQuery,
    algo: Algorithm,
    policy: &RecoveryPolicy,
) -> EvalOutcome {
    let mut ctx = ExecContext::new(src).with_recovery(policy.clone());
    match evaluate_in(&mut ctx, q, algo) {
        Ok(found) => Ok((found, ctx.take_stats())),
        Err(e) => Err(e.to_string()),
    }
}

fn run_segmented<S: BitmapSource>(
    src: &mut S,
    q: bindex::relation::query::SelectionQuery,
    algo: Algorithm,
    policy: &RecoveryPolicy,
    segment_bits: usize,
) -> EvalOutcome {
    let mut ctx = ExecContext::new(src).with_recovery(policy.clone());
    match evaluate_segmented_in(&mut ctx, q, algo, segment_bits) {
        Ok(found) => Ok((found, ctx.take_stats())),
        Err(e) => Err(e.to_string()),
    }
}

/// Asserts whole/segmented parity for one case: identical result (or both
/// failing), identical core counters, and the expected segment count.
fn assert_parity(
    label: &str,
    whole: &EvalOutcome,
    seg: &EvalOutcome,
    rows: usize,
    segment_bits: usize,
) {
    match (whole, seg) {
        (Ok((w_found, w_stats)), Ok((s_found, s_stats))) => {
            assert_eq!(w_found, s_found, "{label}: result");
            assert_eq!(core8(w_stats), core8(s_stats), "{label}: stats");
            assert_eq!(w_stats.segments_evaluated, 0, "{label}: whole counters");
            assert_eq!(
                s_stats.segments_evaluated,
                rows.div_ceil(segment_bits).max(1),
                "{label}: segment count"
            );
            assert!(
                s_stats.segments_skipped <= s_stats.segments_evaluated,
                "{label}: skipped is a subset"
            );
        }
        (Err(_), Err(_)) => {}
        (w, s) => panic!(
            "{label}: modes disagree on failure: whole ok={} seg ok={}",
            w.is_ok(),
            s.is_ok()
        ),
    }
}

/// All five evaluators on clean literal and slot-coded (WAH) stores, every
/// recovery policy, several segment sizes: segmented execution is bit-identical in
/// results and op counts.
#[test]
fn segmented_matches_whole_on_clean_stores() {
    for seed in seeds() {
        let mut rng = Rng::seed_from_u64(0x5E60 + seed);
        let base = rand_base(&mut rng);
        let rows = rand_rows(&mut rng, seed);
        let col = rand_column(&mut rng, &base, rows);
        let column = Arc::new(col.clone());
        for encoding in [Encoding::Range, Encoding::Equality, Encoding::Interval] {
            let spec = IndexSpec::new(base.clone(), encoding);
            let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
            let mut lit = persist_index(
                &idx,
                MemStore::new(),
                StorageScheme::BitmapLevel,
                CodecKind::None,
            )
            .unwrap();
            let mut coded = persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap();
            let policies = [
                RecoveryPolicy::Fail,
                RecoveryPolicy::Reconstruct,
                RecoveryPolicy::ReconstructOrScan(Arc::clone(&column)),
            ];
            for q in full_space(base.product() as u32) {
                for &algo in algorithms(encoding) {
                    for (store_name, stored) in [("literal", &mut lit), ("coded", &mut coded)] {
                        for policy in &policies {
                            // The segment-size sweep runs under `Fail`;
                            // the other policies (inert on a clean store,
                            // but a different code path) run at one size.
                            let sweep: &[usize] = if matches!(policy, RecoveryPolicy::Fail) {
                                SEGMENT_SIZES
                            } else {
                                &SEGMENT_SIZES[..1]
                            };
                            for &segment_bits in sweep {
                                let mut src =
                                    SharedSource::try_unpooled(stored, spec.clone()).unwrap();
                                let whole = run_whole(&mut src, q, algo, policy);
                                let mut src =
                                    SharedSource::try_unpooled(stored, spec.clone()).unwrap();
                                let seg = run_segmented(&mut src, q, algo, policy, segment_bits);
                                let label = format!(
                                    "seed {seed} {store_name} {encoding:?} {algo:?} \
                                     {policy:?} seg={segment_bits} {q}"
                                );
                                assert_parity(&label, &whole, &seg, rows, segment_bits);
                            }
                        }
                    }
                }
            }
        }
    }
}

/// A corrupted slot-coded store: under `Fail` both modes fail on the same
/// queries; under `Reconstruct` / `ReconstructOrScan` both modes degrade
/// identically — same answers, same `degraded_fetches`, same
/// `reconstructed_bitmaps`.
#[test]
fn segmented_matches_whole_on_corrupted_stores() {
    for seed in seeds() {
        let mut rng = Rng::seed_from_u64(0x5E61 + seed);
        let base = rand_base(&mut rng);
        let rows = rand_rows(&mut rng, seed);
        let col = rand_column(&mut rng, &base, rows);
        let column = Arc::new(col.clone());
        let spec = IndexSpec::new(base.clone(), Encoding::Equality);
        let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
        let stored = persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap();
        let mut store = stored.into_store();
        // Flip a payload byte of one rng-chosen slot file, at rest.
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
        let stored = StoredIndex::open(store).unwrap();

        let policies = [
            RecoveryPolicy::Fail,
            RecoveryPolicy::Reconstruct,
            RecoveryPolicy::ReconstructOrScan(Arc::clone(&column)),
        ];
        let mut degraded = 0usize;
        let mut failures = 0usize;
        for q in full_space(base.product() as u32) {
            for &algo in algorithms(Encoding::Equality) {
                for policy in &policies {
                    for &segment_bits in SEGMENT_SIZES {
                        let mut src = SharedSource::try_unpooled(&stored, spec.clone()).unwrap();
                        let whole = run_whole(&mut src, q, algo, policy);
                        let mut src = SharedSource::try_unpooled(&stored, spec.clone()).unwrap();
                        let seg = run_segmented(&mut src, q, algo, policy, segment_bits);
                        let label = format!(
                            "seed {seed} corrupted {victim} {algo:?} {policy:?} \
                             seg={segment_bits} {q}"
                        );
                        assert_parity(&label, &whole, &seg, rows, segment_bits);
                        match &seg {
                            Ok((_, stats)) => degraded += stats.degraded_fetches,
                            Err(_) => failures += 1,
                        }
                    }
                }
            }
        }
        // The corruption must actually bite: some queries fail under
        // `Fail`, and the reconstructing policies must have degraded.
        assert!(failures > 0, "seed {seed}: no query touched {victim}");
        assert!(degraded > 0, "seed {seed}: no degraded fetch on {victim}");
    }
}

/// Early exit on all-zero conjunction segments: a clustered column makes
/// most per-value segments dead, so the segmented run skips work — and
/// changes nothing but `segments_skipped`.
#[test]
fn early_exit_changes_only_segments_skipped() {
    let rows = 1024;
    let segment_bits = 64;
    // Values strictly increase along the rows: each value's foundset is
    // one short run, so for any equality query almost every segment's
    // first conjunction operand is all-zero.
    let card = 16u32;
    let col = Column::from_values(
        (0..rows)
            .map(|i| (i * card as usize / rows) as u32)
            .collect(),
    );
    let base = Base::from_msb(&[4, 4]).unwrap();
    let spec = IndexSpec::new(base, Encoding::Equality);
    let idx = BitmapIndex::build(&col, spec).unwrap();
    let mut skipped_total = 0usize;
    for q in full_space(card) {
        let mut src = idx.source();
        let whole = run_whole(&mut src, q, Algorithm::EqualityEval, &RecoveryPolicy::Fail);
        let mut src = idx.source();
        let seg = run_segmented(
            &mut src,
            q,
            Algorithm::EqualityEval,
            &RecoveryPolicy::Fail,
            segment_bits,
        );
        assert_parity(&format!("early-exit {q}"), &whole, &seg, rows, segment_bits);
        let (_, stats) = seg.as_ref().unwrap();
        skipped_total += stats.segments_skipped;
    }
    assert!(
        skipped_total > 0,
        "clustered equality queries must skip dead segments"
    );
}

/// The count sink against the keep sink, through the served entry
/// (`evaluate_query`): every encoding and algorithm, whole and at 512- and
/// 4,096-bit windows and one window wider than the relation, with and
/// without nulls, over a uniform column and a clustered one (its slots
/// stored WAH, its summary windows prunable). The count is the foundset's
/// popcount and `EvalStats` are identical, field for field.
#[test]
fn count_sink_matches_keep_sink() {
    use bindex::core::exec::Answer;
    use bindex::engine::batch::{evaluate_query, BatchOptions, QueryOutcome, Sink};
    use bindex::relation::query::Query;

    let seed = seeds()[0];
    let mut rng = Rng::seed_from_u64(0x5E63 + seed);
    let base = Base::from_msb(&[5, 6]).unwrap();
    let card = base.product() as u32;
    // Three summary windows and a ragged fourth: a clustered slot that is
    // dead or saturated where the walk first reads it is pruned.
    let rows = 3 * bindex::SUMMARY_WINDOW_BITS + 777;
    let uniform = rand_column(&mut rng, &base, rows);
    let clustered = Column::from_values(
        (0..rows)
            .map(|i| (i * card as usize / rows) as u32)
            .collect(),
    );
    let nulls = BitVec::from_fn(rows, |r| r % 7 == 3);
    let queries: Vec<Query> = full_space(card)
        .into_iter()
        .filter(|_| rng.below_u32(5) == 0)
        .map(Query::from)
        .collect();
    let (mut wah_counted, mut pruned) = (0, 0);
    for (data, col) in [("uniform", &uniform), ("clustered", &clustered)] {
        for masked in [false, true] {
            for encoding in [Encoding::Range, Encoding::Equality, Encoding::Interval] {
                let spec = IndexSpec::new(base.clone(), encoding);
                let idx = if masked {
                    BitmapIndex::build_with_nulls(col, &nulls, spec.clone())
                } else {
                    BitmapIndex::build(col, spec.clone())
                }
                .unwrap();
                let stored = persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap();
                for &algo in algorithms(encoding) {
                    for segment_bits in [
                        None,
                        Some(512),
                        Some(4096),
                        Some(4 * rows.next_power_of_two()),
                    ] {
                        let mut options = BatchOptions::single_threaded();
                        if let Some(bits) = segment_bits {
                            options = options.with_segment_bits(bits);
                        }
                        for q in &queries {
                            let run = |sink| {
                                let mut src =
                                    SharedSource::try_unpooled(&stored, spec.clone()).unwrap();
                                evaluate_query(&mut src, q, algo, &options, sink)
                            };
                            let label = format!(
                                "seed {seed} {data} nulls {masked} {encoding:?} {algo:?} \
                                 seg={segment_bits:?} {q}"
                            );
                            match (run(Sink::Keep), run(Sink::Count)) {
                                (QueryOutcome::Ok((keep, ks)), QueryOutcome::Ok((count, cs))) => {
                                    assert!(matches!(count, Answer::Count(_)), "{label}");
                                    assert_eq!(count.count_ones(), keep.count_ones(), "{label}");
                                    assert_eq!(cs, ks, "{label}");
                                    wah_counted += usize::from(cs.compressed_ops > 0);
                                    pruned += cs.segments_pruned;
                                }
                                (QueryOutcome::Failed(k), QueryOutcome::Failed(c)) => {
                                    assert_eq!(c.to_string(), k.to_string(), "{label}");
                                }
                                (k, c) => panic!("{label}: keep {k:?}, count {c:?}"),
                            }
                        }
                    }
                }
            }
        }
    }
    assert!(wah_counted > 0, "no count ran in the WAH domain");
    assert!(pruned > 0, "no count pruned a window");
}

/// A corrupted equality store: both sinks fail on the same queries, and
/// under the reconstructing policies both degrade the same way — same
/// count, same `EvalStats`, reconstruction counters included.
#[test]
fn count_sink_matches_keep_sink_on_a_corrupted_store() {
    use bindex::engine::batch::{evaluate_query, BatchOptions, QueryOutcome, Sink};

    let seed = seeds()[0];
    let mut rng = Rng::seed_from_u64(0x5E64 + seed);
    let base = Base::from_msb(&[4, 5]).unwrap();
    let col = rand_column(&mut rng, &base, 1500);
    let column = Arc::new(col.clone());
    let spec = IndexSpec::new(base.clone(), Encoding::Equality);
    let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
    let mut store = persist_index_v4(&idx, MemStore::new(), CodecKind::None)
        .unwrap()
        .into_store();
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
    let stored = StoredIndex::open(store).unwrap();

    let (mut degraded, mut failed) = (0, 0);
    for policy in [
        RecoveryPolicy::Fail,
        RecoveryPolicy::Reconstruct,
        RecoveryPolicy::ReconstructOrScan(Arc::clone(&column)),
    ] {
        for segment_bits in [None, Some(512), Some(1024)] {
            let mut options = BatchOptions::single_threaded().with_recovery(policy.clone());
            if let Some(bits) = segment_bits {
                options = options.with_segment_bits(bits);
            }
            for q in full_space(base.product() as u32) {
                let run = |sink| {
                    let mut src = SharedSource::try_unpooled(&stored, spec.clone()).unwrap();
                    evaluate_query(&mut src, &q.into(), Algorithm::Auto, &options, sink)
                };
                let label = format!("seed {seed} {victim} {policy:?} seg={segment_bits:?} {q}");
                match (run(Sink::Keep), run(Sink::Count)) {
                    (QueryOutcome::Ok((k, ks)), QueryOutcome::Ok((c, cs))) => {
                        assert_eq!((c.count_ones(), cs), (k.count_ones(), ks), "{label}");
                    }
                    (QueryOutcome::Degraded((k, ks)), QueryOutcome::Degraded((c, cs))) => {
                        assert_eq!((c.count_ones(), cs), (k.count_ones(), ks), "{label}");
                        degraded += 1;
                    }
                    (QueryOutcome::Failed(k), QueryOutcome::Failed(c)) => {
                        assert_eq!(c.to_string(), k.to_string(), "{label}");
                        failed += 1;
                    }
                    (k, c) => panic!("{label}: keep {k:?}, count {c:?}"),
                }
            }
        }
    }
    assert!(
        failed > 0 && degraded > 0,
        "{victim}: failed {failed}, degraded {degraded}"
    );
}

/// A count cancelled by its deadline stops at the same window boundary as
/// the foundset it stands for: the first window runs, the second is shed,
/// and both report the same `EvalStats`.
#[test]
fn an_expired_deadline_cancels_a_count_between_windows() {
    use bindex::core::eval::{count_in, evaluate_repr_in};
    use bindex::core::{Deadline, Error};
    use bindex::relation::query::Query;

    let col = Column::from_values((0..3000u32).map(|i| (i * 7 + i / 5) % 36).collect());
    let spec = IndexSpec::new(Base::from_msb(&[6, 6]).unwrap(), Encoding::Range);
    let idx = BitmapIndex::build(&col, spec).unwrap();
    let query = Query::from(bindex::relation::query::SelectionQuery::new(
        bindex::relation::query::Op::Le,
        20,
    ));
    let expired = || Some(Deadline::at(std::time::Instant::now()));
    let mut src = idx.source();
    let mut ctx = ExecContext::new(&mut src).with_deadline(expired());
    let keep = evaluate_repr_in(&mut ctx, &query, Algorithm::Auto, Some(512));
    let keep_stats = ctx.take_stats();
    let mut src = idx.source();
    let mut ctx = ExecContext::new(&mut src).with_deadline(expired());
    let count = count_in(&mut ctx, &query, Algorithm::Auto, Some(512));
    let count_stats = ctx.take_stats();
    assert!(matches!(keep, Err(Error::DeadlineExceeded)), "{keep:?}");
    assert!(matches!(count, Err(Error::DeadlineExceeded)), "{count:?}");
    assert_eq!(count_stats, keep_stats);
    assert_eq!(count_stats.segments_evaluated, 1);
    assert!(count_stats.scans > 0);
}
