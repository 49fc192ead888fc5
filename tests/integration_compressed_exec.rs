//! End-to-end equivalence tests for compressed-domain execution: a
//! slot-coded store (per-slot literal-or-WAH payloads — the current
//! format; the `v3_` test names date from the manifest version that
//! introduced the coding) must answer every query bit-identically to the
//! all-literal stores of the paper's layouts and the naive oracle
//! — across all five evaluation algorithms, the parallel batch engine,
//! every codec choice, and every recovery policy, including the online
//! repair path from PR 3.

use std::sync::Arc;

use bindex::compress::CodecKind;
use bindex::core::eval::{evaluate, evaluate_segmented_in, naive, Algorithm};
use bindex::core::ExecContext;
use bindex::engine::{evaluate_selection_workload, BatchOptions};
use bindex::relation::query::{full_space, Op, SelectionQuery};
use bindex::relation::{gen, Column};
use bindex::storage::{
    ByteStore, MemStore, ShardedPool, SharedIndexReader, StorageScheme, StoredIndex,
};
use bindex::stored::{persist_index, persist_index_v4, scrub_and_repair_index, SharedSource};
use bindex::{Base, BitmapIndex, Encoding, IndexSpec, RecoveryPolicy};

const CARDINALITY: u32 = 24;
const CODECS: [CodecKind; 2] = [CodecKind::None, CodecKind::Deflate];

fn spec(encoding: Encoding) -> IndexSpec {
    IndexSpec::new(Base::from_msb(&[4, 6]).unwrap(), encoding)
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

/// A clustered (sorted) column: every bitmap slot is a handful of runs, so
/// the slot-coded store keeps it WAH and the executor stays compressed.
fn clustered_column(rows: usize) -> Column {
    let values: Vec<u32> = (0..rows)
        .map(|i| (i * CARDINALITY as usize / rows) as u32)
        .collect();
    Column::new(values, CARDINALITY)
}

/// All five algorithms (RangeEval, RangeEvalOpt, EqualityEval,
/// IntervalEval, plus Auto dispatch), three encodings, both codecs: the
/// slot-coded store answers exactly like the literal BS store and the
/// naive oracle — on a clustered column (slots stored WAH) and a uniform
/// one (slots mostly fail the WAH heuristic and stay literal).
#[test]
fn v3_bit_identical_across_encodings_codecs_and_algorithms() {
    let columns = [
        ("clustered", clustered_column(1200)),
        ("uniform", gen::uniform(1200, CARDINALITY, 63)),
    ];
    for (kind, col) in &columns {
        for encoding in [Encoding::Range, Encoding::Equality, Encoding::Interval] {
            let idx = BitmapIndex::build(col, spec(encoding)).unwrap();
            for codec in CODECS {
                let lit = persist_index(&idx, MemStore::new(), StorageScheme::BitmapLevel, codec)
                    .unwrap();
                let coded = persist_index_v4(&idx, MemStore::new(), codec).unwrap();
                assert_eq!(coded.format_version(), 4);
                for q in full_space(CARDINALITY) {
                    let want = naive::evaluate(col, q);
                    for &algo in algorithms(encoding) {
                        let label = format!("{kind} {encoding:?} {codec:?} {algo:?} {q}");
                        let mut src = SharedSource::try_unpooled(&lit, spec(encoding)).unwrap();
                        let (found, _) = evaluate(&mut src, q, algo).unwrap();
                        assert_eq!(found, want, "literal {label}");
                        let mut src = SharedSource::try_unpooled(&coded, spec(encoding)).unwrap();
                        let (found, _) = evaluate(&mut src, q, algo).unwrap();
                        assert_eq!(found, want, "coded {label}");
                    }
                }
            }
        }
    }
}

/// The parallel batch engine over a shared slot-coded store answers
/// bit-identically under every recovery policy on a clean store.
#[test]
fn v3_batch_engine_matches_oracle_under_all_recovery_policies() {
    let col = clustered_column(1500);
    let idx = BitmapIndex::build(&col, spec(Encoding::Equality)).unwrap();
    let reader =
        SharedIndexReader::new(persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap());
    let queries = full_space(CARDINALITY);
    let column = Arc::new(col.clone());
    for policy in [
        RecoveryPolicy::Fail,
        RecoveryPolicy::Reconstruct,
        RecoveryPolicy::ReconstructOrScan(Arc::clone(&column)),
    ] {
        let options = BatchOptions::with_threads(4).with_recovery(policy.clone());
        let report = evaluate_selection_workload(
            || SharedSource::try_new(&reader, spec(Encoding::Equality)).unwrap(),
            &queries,
            Algorithm::Auto,
            &options,
        );
        assert!(report.health.all_ok(), "{policy:?}: {:?}", report.health);
        for (q, outcome) in queries.iter().zip(&report.outcomes) {
            let (found, _) = outcome.result().unwrap();
            assert_eq!(found, &naive::evaluate(&col, *q), "{policy:?} {q}");
        }
    }
}

/// Corrupting a slot payload degrades (never changes) answers under
/// `ReconstructOrScan`, and `scrub_and_repair_index` restores a clean
/// store — the PR-3 self-healing loop carries over to compressed slots.
#[test]
fn v3_degrades_and_repairs_like_literal_stores() {
    let col = clustered_column(1500);
    let idx = BitmapIndex::build(&col, spec(Encoding::Equality)).unwrap();
    let stored = persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap();
    let mut store = stored.into_store();
    // Flip a payload byte of one slot file, at rest. `BINDEX_CHAOS_SEED`
    // (the chaos-smoke CI knob) picks the victim; unset, the first file.
    let seed: usize = std::env::var("BINDEX_CHAOS_SEED")
        .ok()
        .and_then(|raw| raw.parse().ok())
        .unwrap_or(0);
    let mut names: Vec<String> = store
        .file_names()
        .unwrap()
        .into_iter()
        .filter(|n| n.contains(".bmp"))
        .collect();
    names.sort();
    let victim = names.remove(seed % names.len());
    let mut data = store.read_file(&victim).unwrap();
    let last = data.len() - 1;
    data[last] ^= 0x08;
    store.write_file(&victim, &data).unwrap();

    let column = Arc::new(col.clone());
    let mut stored = StoredIndex::open(store).unwrap();
    let mut src = SharedSource::try_unpooled(&stored, spec(Encoding::Equality)).unwrap();
    let mut ctx = ExecContext::new(&mut src)
        .with_recovery(RecoveryPolicy::ReconstructOrScan(Arc::clone(&column)));
    let mut degraded = 0usize;
    for q in full_space(CARDINALITY) {
        let found = bindex::core::eval::evaluate_in(&mut ctx, q, Algorithm::Auto).unwrap();
        assert_eq!(found, naive::evaluate(&col, q), "degraded {q}");
        degraded += ctx.take_stats().degraded_fetches;
    }
    assert!(degraded > 0, "the corrupt slot must be touched");

    let report =
        scrub_and_repair_index(&mut stored, &spec(Encoding::Equality), Some(&col), None).unwrap();
    assert!(report.fully_repaired(), "{report:?}");
    let mut fresh = StoredIndex::open(stored.into_store()).unwrap();
    assert!(fresh.scrub().unwrap().is_clean());
    assert_eq!(fresh.format_version(), 4, "repair keeps the slot coding");
    let mut src = SharedSource::try_unpooled(&fresh, spec(Encoding::Equality)).unwrap();
    let mut ctx = ExecContext::new(&mut src);
    for q in full_space(CARDINALITY) {
        let found = bindex::core::eval::evaluate_in(&mut ctx, q, Algorithm::Auto).unwrap();
        assert_eq!(found, naive::evaluate(&col, q), "repaired {q}");
        assert_eq!(ctx.take_stats().degraded_fetches, 0, "{q}");
    }
}

/// With one fixed byte budget, the pool keeps more slots resident when
/// they are served from a slot-coded store than from a literal one —
/// the point of accounting capacity in bytes rather than slot count.
#[test]
fn v3_pool_holds_more_slots_for_the_same_byte_budget() {
    let rows = 4096;
    let card = 64u32;
    let values: Vec<u32> = (0..rows)
        .map(|i| (i * card as usize / rows) as u32)
        .collect();
    let col = Column::new(values, card);
    let spec = IndexSpec::new(Base::single(card).unwrap(), Encoding::Equality);
    let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
    let n_slots = idx.components()[0].len();

    // Budget: a quarter of the literal index (each slot rows/8 bytes).
    let budget = n_slots * (rows / 8) / 4;
    let sweep = |stored: &StoredIndex<MemStore>| {
        let pool = ShardedPool::with_byte_budget(budget, 1);
        let mut compressed = 0usize;
        for slot in 0..n_slots {
            // Component addresses are 1-based at the storage layer.
            let repr = pool
                .get_or_load_repr((1, slot), || stored.read_repr(1, slot))
                .unwrap();
            if repr.is_compressed() {
                compressed += 1;
            }
        }
        (pool.resident(), compressed)
    };

    let lit = persist_index(
        &idx,
        MemStore::new(),
        StorageScheme::BitmapLevel,
        CodecKind::None,
    )
    .unwrap();
    let (lit_resident, lit_compressed) = sweep(&lit);
    assert_eq!(lit_compressed, 0, "v2 serves only literal reprs");

    let coded = persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap();
    let (coded_resident, coded_compressed) = sweep(&coded);
    assert!(
        coded_compressed > n_slots / 2,
        "clustered slots should be stored WAH ({coded_compressed}/{n_slots})"
    );
    assert!(
        coded_resident > lit_resident,
        "byte-accounted pool: coded keeps {coded_resident} slots resident vs \
         {lit_resident} literal under a {budget}-byte budget"
    );
    assert_eq!(
        lit_resident,
        n_slots / 4,
        "literal residency fills the budget"
    );
}

/// Execution on a slot-coded store actually runs compressed-domain ops on
/// sparse clustered slots — and still matches the oracle.
#[test]
fn v3_execution_uses_compressed_ops() {
    // Single-component base: the clustered column keeps each equality
    // slot a handful of runs, 16–20 bytes of WAH whatever the row count —
    // the operands the WAH fold is for once that is 1/16 of the literal
    // size, which a 2,000-bit slot (250 bytes) is too small for: those run
    // dense, with the same answers.
    for (rows, folds) in [(2000, false), (20_000, true)] {
        let col = clustered_column(rows);
        let spec = IndexSpec::new(Base::single(CARDINALITY).unwrap(), Encoding::Equality);
        let idx = BitmapIndex::build(&col, spec.clone()).unwrap();
        let stored = persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap();
        let mut src = SharedSource::try_unpooled(&stored, spec).unwrap();
        let mut ctx = ExecContext::new(&mut src);
        let mut compressed_ops = 0usize;
        // `Le` probes OR a run of sibling slots — a plan of their own.
        for v in 1..CARDINALITY - 1 {
            let q = SelectionQuery::new(Op::Le, v);
            let found = bindex::core::eval::evaluate_in(&mut ctx, q, Algorithm::Auto).unwrap();
            assert_eq!(found, naive::evaluate(&col, q), "{rows} rows {q}");
            compressed_ops += ctx.take_stats().compressed_ops;
        }
        assert_eq!(
            compressed_ops > 0,
            folds,
            "{rows} rows: sparse WAH slots at 1/16 of literal size or less, and only \
             those, must execute in the compressed domain ({compressed_ops} ops)"
        );
    }
}

/// RangeEval-Opt over a stored v4 index, through the segmented entry
/// point a server uses: run-clustered slots (stored WAH, a few dozen runs
/// each) are folded in the compressed domain and only the result is
/// decoded; uniform slots (stored literal) decline at the first operand
/// and run window by window as before. Either way every slot the plan
/// names is read from the store exactly once — deciding costs no read —
/// and answers and paper counters are those of the in-memory index.
#[test]
fn stored_range_eval_opt_folds_compressed_slots_and_reads_each_once() {
    const ROWS: usize = 40_000;
    const SEGMENT_BITS: usize = 8192;
    let columns = [
        (
            "clustered",
            gen::clustered(ROWS, CARDINALITY, 2500, 17),
            true,
        ),
        ("uniform", gen::uniform(ROWS, CARDINALITY, 17), false),
    ];
    for (kind, col, compressed) in &columns {
        let idx = BitmapIndex::build(col, spec(Encoding::Range)).unwrap();
        let stored = persist_index_v4(&idx, MemStore::new(), CodecKind::None).unwrap();
        // The summary block is read once per store handle; take that read
        // out of the per-query accounting.
        assert!(stored.read_summaries().is_some());
        for q in full_space(CARDINALITY) {
            let (want, mem) = evaluate(&mut idx.source(), q, Algorithm::Auto).unwrap();
            assert_eq!(want, naive::evaluate(col, q), "{kind} {q}");
            let reads_before = stored.stats().reads;
            let mut src = SharedSource::try_unpooled(&stored, spec(Encoding::Range)).unwrap();
            let mut ctx = ExecContext::new(&mut src);
            let found = evaluate_segmented_in(&mut ctx, q, Algorithm::Auto, SEGMENT_BITS).unwrap();
            let stats = ctx.take_stats();
            assert_eq!(found, want, "{kind} {q}");
            assert_eq!(
                (stats.scans, stats.ands, stats.ors, stats.xors, stats.nots),
                (mem.scans, mem.ands, mem.ors, mem.xors, mem.nots),
                "{kind} {q}"
            );
            assert_eq!(
                stored.stats().reads - reads_before,
                stats.scans as u64,
                "{kind} {q}: one store read per scanned slot"
            );
            if *compressed && stats.scans > 0 {
                assert_eq!(stats.compressed_ops, stats.total_ops(), "{kind} {q}");
                assert_eq!(stats.materializations, 1, "{kind} {q}: the result");
                assert_eq!(stats.segments_evaluated, 0, "{kind} {q}");
            } else {
                assert_eq!(stats.compressed_ops, 0, "{kind} {q}");
                assert_eq!(stats.materializations, 0, "{kind} {q}");
                assert_eq!(
                    stats.segments_evaluated,
                    ROWS.div_ceil(SEGMENT_BITS),
                    "{kind} {q}"
                );
            }
        }
    }
}
