//! Chaos acceptance tests for the self-healing batch engine: injected
//! panics never abort a workload, deadlines bound it, and a corrupted
//! store serves bit-identical (flagged-degraded) answers until
//! `scrub_and_repair_index` restores a clean store.
//!
//! The corruption scenarios run over a seed matrix — `BINDEX_CHAOS_SEED`
//! pins one seed (CI runs several); unset, a default matrix runs.

use std::sync::Arc;
use std::time::Duration;

use bindex::compress::CodecKind;
use bindex::core::eval::naive;
use bindex::engine::{evaluate_selection_workload, BatchOptions, Deadline, QueryOutcome};
use bindex::relation::gen;
use bindex::relation::query::{full_space, Op, SelectionQuery};
use bindex::storage::{ByteStore, MemStore, SharedIndexReader, StorageScheme, StoredIndex};
use bindex::stored::{persist_index, scrub_and_repair_index, SharedSource};
use bindex::{
    Algorithm, Base, BitVec, BitmapIndex, BitmapSource, Encoding, Error, IndexSpec, RecoveryPolicy,
};

const CARDINALITY: u32 = 24;

fn seeds() -> Vec<u64> {
    match std::env::var("BINDEX_CHAOS_SEED") {
        Ok(raw) => vec![raw.parse().expect("BINDEX_CHAOS_SEED must be an integer")],
        Err(_) => vec![5, 7, 11],
    }
}

fn spec() -> IndexSpec {
    IndexSpec::new(Base::from_msb(&[4, 6]).unwrap(), Encoding::Equality)
}

/// A `BitmapSource` that panics whenever the poisoned slot is fetched —
/// the chaos monkey for panic-isolation tests.
struct PanicOn<S: BitmapSource> {
    inner: S,
    comp: usize,
    slot: usize,
}

impl<S: BitmapSource> BitmapSource for PanicOn<S> {
    fn spec(&self) -> &IndexSpec {
        self.inner.spec()
    }

    fn n_rows(&self) -> usize {
        self.inner.n_rows()
    }

    fn try_fetch(&mut self, comp: usize, slot: usize) -> Result<BitVec, bindex::Error> {
        assert!(
            !(comp == self.comp && slot == self.slot),
            "chaos: injected panic fetching ({comp}, {slot})"
        );
        self.inner.try_fetch(comp, slot)
    }

    fn try_fetch_nn(&mut self) -> Result<Option<BitVec>, bindex::Error> {
        self.inner.try_fetch_nn()
    }
}

/// A panicking source never takes down the batch: only queries touching
/// the poisoned slot fail (as `WorkerPanic`), the rest answer correctly.
#[test]
fn injected_panics_never_abort_the_workload() {
    let col = gen::uniform(1200, CARDINALITY, 9);
    let idx = BitmapIndex::build(&col, spec()).unwrap();
    // `from_msb(&[4, 6])` stores lsb-first: component 1 has base 6, so an
    // equality probe for value v touches slot v % 6 of component 1.
    let poisoned_slot = 2;
    let queries: Vec<SelectionQuery> = (0..CARDINALITY)
        .map(|v| SelectionQuery::new(Op::Eq, v))
        .collect();
    for threads in [1, 4] {
        let report = evaluate_selection_workload(
            || PanicOn {
                inner: idx.source(),
                comp: 1,
                slot: poisoned_slot,
            },
            &queries,
            Algorithm::Auto,
            &BatchOptions::with_threads(threads),
        );
        assert_eq!(report.health.total(), queries.len());
        let hit = (0..CARDINALITY).filter(|v| v % 6 == poisoned_slot as u32);
        assert_eq!(report.health.worker_panics, hit.count());
        assert_eq!(report.health.failed, report.health.worker_panics);
        assert_eq!(
            report.health.ok,
            queries.len() - report.health.failed,
            "threads={threads}: every query off the poisoned slot completes"
        );
        for (q, outcome) in queries.iter().zip(&report.outcomes) {
            match outcome {
                QueryOutcome::Ok((found, _)) => {
                    assert_eq!(found, &naive::evaluate(&col, *q), "{q}");
                }
                QueryOutcome::Failed(Error::WorkerPanic(msg)) => {
                    assert!(msg.contains("chaos"), "{q}: {msg}");
                    assert_eq!(q.constant % 6, poisoned_slot as u32, "{q}");
                }
                other => panic!("{q}: unexpected outcome {other:?}"),
            }
        }
    }
}

/// An already-expired deadline times out every query instead of hanging
/// or erroring the batch.
#[test]
fn expired_deadline_times_out_the_whole_batch() {
    let col = gen::uniform(600, CARDINALITY, 10);
    let idx = BitmapIndex::build(&col, spec()).unwrap();
    let queries = full_space(CARDINALITY);
    let report = evaluate_selection_workload(
        || idx.source(),
        &queries,
        Algorithm::Auto,
        &BatchOptions::with_threads(2).with_deadline(Deadline::after(Duration::ZERO)),
    );
    assert_eq!(report.health.timed_out, queries.len());
    assert!(report.into_results().is_err());
}

/// Flips one payload byte of the first data file, at rest.
fn corrupt_one_file(store: &mut MemStore) -> String {
    let mut names: Vec<String> = store
        .file_names()
        .unwrap()
        .into_iter()
        .filter(|n| n.contains(".bmp"))
        .collect();
    names.sort();
    let victim = names.remove(0);
    let mut data = store.read_file(&victim).unwrap();
    let last = data.len() - 1;
    data[last] ^= 0x10;
    store.write_file(&victim, &data).unwrap();
    victim
}

/// The full self-healing loop, per seed: corrupt a stored equality
/// bitmap; a parallel batch under `ReconstructOrScan` answers every
/// query bit-identically with the affected ones flagged degraded; after
/// `scrub_and_repair_index` a re-run reports zero degraded fetches.
#[test]
fn degraded_batch_heals_after_repair_across_seeds() {
    for seed in seeds() {
        let col = gen::uniform(1500, CARDINALITY, seed);
        let idx = BitmapIndex::build(&col, spec()).unwrap();
        let stored = persist_index(
            &idx,
            MemStore::new(),
            StorageScheme::BitmapLevel,
            CodecKind::None,
        )
        .unwrap();
        let mut store = stored.into_store();
        corrupt_one_file(&mut store);

        let queries = full_space(CARDINALITY);
        let expected: Vec<BitVec> = queries.iter().map(|&q| naive::evaluate(&col, q)).collect();
        let column = Arc::new(col.clone());
        let options = BatchOptions::with_threads(4)
            .with_recovery(RecoveryPolicy::ReconstructOrScan(Arc::clone(&column)));

        // Degraded pass: every query answered, corrupt slot flagged.
        let reader = SharedIndexReader::new(StoredIndex::open(store).unwrap());
        let report = evaluate_selection_workload(
            || SharedSource::try_new(&reader, spec()).unwrap(),
            &queries,
            Algorithm::Auto,
            &options,
        );
        assert_eq!(report.health.answered(), queries.len(), "seed {seed}");
        assert!(report.health.degraded > 0, "seed {seed}: corruption seen");
        for ((q, want), outcome) in queries.iter().zip(&expected).zip(&report.outcomes) {
            let (found, _) = outcome.result().unwrap();
            assert_eq!(
                found, want,
                "seed {seed} {q}: degraded answers bit-identical"
            );
        }

        // Online repair, then a clean re-run.
        let mut stored = reader.into_index();
        let repair = scrub_and_repair_index(&mut stored, &spec(), Some(&col), None).unwrap();
        assert!(repair.fully_repaired(), "seed {seed}: {repair:?}");
        let reader = SharedIndexReader::new(stored);
        let report = evaluate_selection_workload(
            || SharedSource::try_new(&reader, spec()).unwrap(),
            &queries,
            Algorithm::Auto,
            &options,
        );
        assert!(report.health.all_ok(), "seed {seed}: {:?}", report.health);
        for ((q, want), outcome) in queries.iter().zip(&expected).zip(&report.outcomes) {
            let (found, _) = outcome.result().unwrap();
            assert_eq!(found, want, "seed {seed} {q}");
        }
    }
}
