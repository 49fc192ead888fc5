//! End-to-end online-repair tests: corrupt specific files through the
//! fault-injection store (bit flips and truncation), repair with
//! [`scrub_and_repair_index`], and assert that a fresh open of the store
//! reads every bitmap clean, answers every query correctly, and carries a
//! repair journal matching the fault count — and, when the repair's own
//! write is torn, that the damage stays visible and the next pass ends it.

use std::sync::Arc;

use bindex::compress::CodecKind;
use bindex::core::eval::{evaluate_in, naive, Algorithm};
use bindex::core::ExecContext;
use bindex::engine::batch::{evaluate_selection_workload, BatchHealth, BatchOptions};
use bindex::relation::query::{full_space, Op, SelectionQuery};
use bindex::relation::{gen, Column};
use bindex::storage::{
    ByteStore, FaultPlan, FaultStore, MemStore, SharedIndexReader, StorageScheme, StoredIndex,
};
use bindex::stored::{persist_index, scrub_and_repair_index, SharedSource};
use bindex::{Base, BitmapIndex, Encoding, IndexSpec, RecoveryPolicy};

const SCHEMES: [StorageScheme; 3] = [
    StorageScheme::BitmapLevel,
    StorageScheme::ComponentLevel,
    StorageScheme::IndexLevel,
];
const CODECS: [CodecKind; 2] = [CodecKind::None, CodecKind::Deflate];

fn column() -> Column {
    gen::uniform(1500, 30, 21)
}

fn spec() -> IndexSpec {
    IndexSpec::new(Base::from_msb(&[5, 6]).unwrap(), Encoding::Equality)
}

fn persisted(scheme: StorageScheme, codec: CodecKind) -> (Column, MemStore) {
    let col = column();
    let idx = BitmapIndex::build(&col, spec()).unwrap();
    let stored = persist_index(&idx, MemStore::new(), scheme, codec).unwrap();
    (col, stored.into_store())
}

fn data_pattern(scheme: StorageScheme) -> &'static str {
    match scheme {
        StorageScheme::BitmapLevel => ".bmp",
        StorageScheme::ComponentLevel => ".cmp",
        StorageScheme::IndexLevel => "index.bix",
    }
}

fn probing_queries() -> Vec<SelectionQuery> {
    vec![
        SelectionQuery::new(Op::Le, 13),
        SelectionQuery::new(Op::Eq, 17),
        SelectionQuery::new(Op::Gt, 4),
        SelectionQuery::new(Op::Ne, 29),
    ]
}

/// The first `max` data files of the scheme, in scan (sorted) order.
fn victims(store: &MemStore, scheme: StorageScheme, max: usize) -> Vec<String> {
    let mut names: Vec<String> = store
        .file_names()
        .unwrap()
        .into_iter()
        .filter(|n| n.contains(data_pattern(scheme)))
        .collect();
    names.sort();
    names.truncate(max);
    names
}

/// Damages `victims` at rest by reading each through a fault-injecting
/// store and writing the faulted bytes back — so the corruption is exactly
/// what the fault plan produces (a seeded flipped bit, a truncated read).
fn corrupt_via_faults(store: MemStore, plan: FaultPlan, victims: &[String]) -> MemStore {
    let faulty = FaultStore::new(store, plan);
    let damaged: Vec<(String, Vec<u8>)> = victims
        .iter()
        .map(|v| (v.clone(), faulty.read_file(v).unwrap()))
        .collect();
    assert_eq!(faulty.counters().total(), victims.len() as u64);
    let mut store = faulty.into_inner();
    for (name, data) in damaged {
        assert_ne!(data, store.read_file(&name).unwrap(), "{name}: fault fired");
        store.write_file(&name, &data).unwrap();
    }
    store
}

/// Repairs the store and verifies: full repair, a journal naming exactly
/// the damaged files, a clean fresh open, and correct query answers.
fn repair_and_verify(store: MemStore, col: &Column, damaged: &[String], label: &str) {
    let mut stored = StoredIndex::open(store).unwrap();
    let pre = stored.scrub().unwrap();
    assert_eq!(
        pre.failures.len(),
        damaged.len(),
        "{label}: scrub finds all"
    );

    let report = scrub_and_repair_index(&mut stored, &spec(), Some(col), None).unwrap();
    assert!(report.fully_repaired(), "{label}: {report:?}");
    assert_eq!(report.repaired, damaged, "{label}");

    // A fresh open must read every file clean and see the journal.
    let mut fresh = StoredIndex::open(stored.into_store()).unwrap();
    assert!(fresh.scrub().unwrap().is_clean(), "{label}");
    assert_eq!(fresh.meta().repairs, damaged, "{label}: journal");

    let mut src = SharedSource::try_unpooled(&fresh, spec()).unwrap();
    let mut ctx = ExecContext::new(&mut src);
    for q in probing_queries() {
        let found = evaluate_in(&mut ctx, q, Algorithm::Auto).unwrap();
        assert_eq!(found, naive::evaluate(col, q), "{label} {q}");
        assert_eq!(ctx.take_stats().degraded_fetches, 0, "{label} {q}");
    }
}

#[test]
fn bit_flipped_files_are_repaired_and_journaled() {
    for scheme in SCHEMES {
        for codec in CODECS {
            let (col, store) = persisted(scheme, codec);
            let damaged = victims(&store, scheme, 3);
            let plan = damaged
                .iter()
                .fold(FaultPlan::new(31), |p, v| p.with_bit_flip(v));
            let store = corrupt_via_faults(store, plan, &damaged);
            repair_and_verify(store, &col, &damaged, &format!("{scheme:?}/{codec:?}"));
        }
    }
}

#[test]
fn truncated_files_are_repaired_and_journaled() {
    for scheme in SCHEMES {
        let (col, store) = persisted(scheme, CodecKind::None);
        let damaged = victims(&store, scheme, 1);
        let plan = damaged
            .iter()
            .fold(FaultPlan::new(37), |p, v| p.with_truncated_reads(v, 9));
        let store = corrupt_via_faults(store, plan, &damaged);
        repair_and_verify(store, &col, &damaged, &format!("{scheme:?}/truncated"));
    }
}

#[test]
fn repeated_repairs_append_to_the_journal() {
    let (col, store) = persisted(StorageScheme::BitmapLevel, CodecKind::None);
    let all = victims(&store, StorageScheme::BitmapLevel, 2);

    let first = vec![all[0].clone()];
    let plan = FaultPlan::new(41).with_bit_flip(&first[0]);
    let store = corrupt_via_faults(store, plan, &first);
    let mut stored = StoredIndex::open(store).unwrap();
    let r1 = scrub_and_repair_index(&mut stored, &spec(), Some(&col), None).unwrap();
    assert_eq!(r1.repaired, first);

    let second = vec![all[1].clone()];
    let plan = FaultPlan::new(43).with_bit_flip(&second[0]);
    let store = corrupt_via_faults(stored.into_store(), plan, &second);
    let mut stored = StoredIndex::open(store).unwrap();
    // The first repair is already journaled in the reopened manifest.
    assert_eq!(stored.meta().repairs, first);
    let r2 = scrub_and_repair_index(&mut stored, &spec(), Some(&col), None).unwrap();
    assert_eq!(r2.repaired, second);

    let fresh = StoredIndex::open(stored.into_store()).unwrap();
    assert_eq!(fresh.meta().repairs, all, "journal accumulates in order");
}

/// The acceptance path of the self-healing service: one corrupted
/// equality bitmap degrades (but never changes) query answers, and after
/// `scrub_and_repair_index` a re-run reports zero degraded fetches.
#[test]
fn degraded_until_repaired_then_clean() {
    let (col, store) = persisted(StorageScheme::BitmapLevel, CodecKind::None);
    let damaged = victims(&store, StorageScheme::BitmapLevel, 1);
    let plan = FaultPlan::new(47).with_bit_flip(&damaged[0]);
    let store = corrupt_via_faults(store, plan, &damaged);
    let column = Arc::new(col.clone());

    let mut stored = StoredIndex::open(store).unwrap();
    let mut src = SharedSource::try_unpooled(&stored, spec()).unwrap();
    let mut ctx = ExecContext::new(&mut src)
        .with_recovery(RecoveryPolicy::ReconstructOrScan(Arc::clone(&column)));
    let mut degraded_queries = 0;
    for q in bindex::relation::query::full_space(30) {
        let found = evaluate_in(&mut ctx, q, Algorithm::Auto)
            .unwrap_or_else(|e| panic!("{q} must be answered in degraded mode: {e}"));
        assert_eq!(found, naive::evaluate(&col, q), "{q}: bit-identical");
        if ctx.take_stats().degraded_fetches > 0 {
            degraded_queries += 1;
        }
    }
    assert!(degraded_queries > 0, "the corrupt bitmap must be touched");

    let report = scrub_and_repair_index(&mut stored, &spec(), Some(&col), None).unwrap();
    assert!(report.fully_repaired(), "{report:?}");

    let fresh = StoredIndex::open(stored.into_store()).unwrap();
    let mut src = SharedSource::try_unpooled(&fresh, spec()).unwrap();
    let mut ctx = ExecContext::new(&mut src)
        .with_recovery(RecoveryPolicy::ReconstructOrScan(Arc::clone(&column)));
    for q in bindex::relation::query::full_space(30) {
        let found = evaluate_in(&mut ctx, q, Algorithm::Auto).unwrap();
        assert_eq!(found, naive::evaluate(&col, q), "{q}");
        assert_eq!(
            ctx.take_stats().degraded_fetches,
            0,
            "{q}: repaired store must serve clean"
        );
    }
}

/// Under BS the equality sibling identity repairs a lost slot without the
/// base relation.
#[test]
fn bs_equality_repair_needs_no_column() {
    let (col, store) = persisted(StorageScheme::BitmapLevel, CodecKind::None);
    let damaged = victims(&store, StorageScheme::BitmapLevel, 1);
    let plan = FaultPlan::new(53).with_bit_flip(&damaged[0]);
    let store = corrupt_via_faults(store, plan, &damaged);

    let mut stored = StoredIndex::open(store).unwrap();
    let report = scrub_and_repair_index(&mut stored, &spec(), None, None).unwrap();
    assert!(report.fully_repaired(), "{report:?}");

    let mut fresh = StoredIndex::open(stored.into_store()).unwrap();
    assert!(fresh.scrub().unwrap().is_clean());
    let mut src = SharedSource::try_unpooled(&fresh, spec()).unwrap();
    let mut ctx = ExecContext::new(&mut src);
    for q in probing_queries() {
        let found = evaluate_in(&mut ctx, q, Algorithm::Auto).unwrap();
        assert_eq!(found, naive::evaluate(&col, q), "{q}");
    }
}

/// The full query space on two workers under `recovery`: every answer must
/// be bit-identical to the per-row oracle.
fn two_worker_batch<S: ByteStore + Sync>(
    reader: &SharedIndexReader<S>,
    col: &Column,
    recovery: RecoveryPolicy,
    label: &str,
) -> BatchHealth {
    let queries = full_space(30);
    let report = evaluate_selection_workload(
        || SharedSource::try_new(reader, spec()).unwrap(),
        &queries,
        Algorithm::Auto,
        &BatchOptions::with_threads_unclamped(2).with_recovery(recovery),
    );
    for (q, outcome) in queries.iter().zip(&report.outcomes) {
        let (found, _) = outcome
            .result()
            .unwrap_or_else(|| panic!("{label} {q}: not answered ({:?})", report.health));
        assert_eq!(found, &naive::evaluate(col, *q), "{label} {q}");
    }
    report.health
}

/// Corrupt at rest, serve degraded, then repair through a store that tears
/// the first repair write: the torn file is caught by the checksum layer,
/// never served, and the next pass completes the repair.
#[test]
fn torn_repair_write_is_caught_and_the_next_pass_completes_it() {
    for scheme in SCHEMES {
        let (col, store) = persisted(scheme, CodecKind::None);
        let damaged = victims(&store, scheme, 1);
        let store = corrupt_via_faults(
            store,
            FaultPlan::new(59).with_bit_flip(&damaged[0]),
            &damaged,
        );

        let column = Arc::new(col.clone());
        let reader = SharedIndexReader::new(StoredIndex::open(store).unwrap());
        let health = two_worker_batch(
            &reader,
            &col,
            RecoveryPolicy::ReconstructOrScan(column),
            &format!("{scheme:?}/degraded"),
        );
        assert!(health.degraded > 0, "{scheme:?}: {health:?}");

        let plan = FaultPlan::new(61).with_torn_writes(data_pattern(scheme), 1);
        let faulty = FaultStore::new(reader.into_index().into_store(), plan);
        let mut stored = StoredIndex::open(faulty).unwrap();
        let first = scrub_and_repair_index(&mut stored, &spec(), Some(&col), None).unwrap();
        assert_eq!(first.scrub.failures.len(), 1, "{scheme:?}: {first:?}");
        assert_eq!(stored.store().counters().torn_writes, 1, "{scheme:?}");
        assert!(
            !stored.scrub().unwrap().is_clean(),
            "{scheme:?}: the torn repair write must be caught"
        );
        let second = scrub_and_repair_index(&mut stored, &spec(), Some(&col), None).unwrap();
        assert!(second.fully_repaired(), "{scheme:?}: {second:?}");
        assert!(stored.scrub().unwrap().is_clean(), "{scheme:?}");

        let reader = SharedIndexReader::new(stored);
        let health = two_worker_batch(
            &reader,
            &col,
            RecoveryPolicy::Fail,
            &format!("{scheme:?}/repaired"),
        );
        assert!(health.all_ok(), "{scheme:?}: {health:?}");
    }
}
