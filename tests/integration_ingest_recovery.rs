//! Crash-point recovery matrix for streaming ingest.
//!
//! The contract under test: a WAL-backed [`IngestIndex`] may crash at
//! **any byte** of any mutation — WAL record boundaries, mid-record torn
//! appends, the fsync itself, every step of a compaction — and reopening
//! always lands on a consistent snapshot: query results bit-identical to
//! the state after some *prefix* of the committed batches (pre- or
//! post-batch atomicity), with **zero loss of fsync-acknowledged
//! batches**.
//!
//! The harness is deterministic: a traced clean run
//! ([`FaultPlan::with_write_trace`]) enumerates every mutation boundary,
//! then the scenario is replayed with
//! [`FaultPlan::with_crash_after_bytes`] at each boundary plus
//! mid-operation offsets, the surviving bytes are reopened, and all five
//! evaluation algorithms (RangeEval, RangeEval-Opt, EqualityEval,
//! IntervalEval, plus Auto dispatch) are checked against reference
//! snapshots. `BINDEX_CHAOS_SEED` pins one seed (the CI smoke knob);
//! unset, a small seed matrix runs.

use std::collections::BTreeSet;

use bindex::compress::CodecKind;
use bindex::core::eval::Algorithm;
use bindex::relation::query::{Op, SelectionQuery};
use bindex::relation::{gen, Column};
use bindex::storage::wal::{self, WalOp};
use bindex::storage::{ByteStore, FaultPlan, FaultStore, MemStore, StoredIndex};
use bindex::stored::persist_index_v4;
use bindex::{Base, BitVec, BitmapIndex, Encoding, IndexSpec, IngestIndex, IngestOptions};

const CARDINALITY: u32 = 16;
const BASE_ROWS: usize = 240;

fn seeds() -> Vec<u64> {
    match std::env::var("BINDEX_CHAOS_SEED") {
        Ok(raw) => vec![raw.parse().expect("BINDEX_CHAOS_SEED must be an integer")],
        Err(_) => vec![5, 11],
    }
}

fn spec(encoding: Encoding) -> IndexSpec {
    IndexSpec::new(Base::from_msb(&[4, 4]).unwrap(), encoding)
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

fn queries() -> Vec<SelectionQuery> {
    let mut qs = Vec::new();
    for op in [Op::Lt, Op::Le, Op::Gt, Op::Ge, Op::Eq, Op::Ne] {
        for v in [0, 6, CARDINALITY - 1] {
            qs.push(SelectionQuery::new(op, v));
        }
    }
    qs
}

/// One step of the ingest scenario.
#[derive(Debug, Clone)]
enum Step {
    Batch(WalOp),
    Compact,
}

/// The deterministic mutation script: appends (with nulls), deletes
/// hitting base and delta rows, and an explicit mid-script compaction so
/// the crash matrix covers every compaction step.
fn script(seed: u64) -> Vec<Step> {
    let batch = |s: u64, n: usize| -> WalOp {
        let vals = gen::uniform(n, CARDINALITY, seed.wrapping_mul(31).wrapping_add(s));
        WalOp::Append {
            values: vals
                .values()
                .iter()
                .enumerate()
                .map(|(i, &v)| (i % 7 != 3).then_some(v))
                .collect(),
        }
    };
    vec![
        Step::Batch(batch(1, 40)),
        Step::Batch(WalOp::Delete {
            rows: vec![3, 77 + seed % 50, BASE_ROWS as u64 + 5],
        }),
        Step::Batch(batch(2, 30)),
        Step::Compact,
        Step::Batch(batch(3, 25)),
        Step::Batch(WalOp::Delete {
            rows: vec![1, BASE_ROWS as u64 + 70 + seed % 20],
        }),
    ]
}

/// The logical relation after a prefix of batches: merged values plus a
/// null mask that carries both real nulls and deleted rows.
#[derive(Clone)]
struct Snapshot {
    values: Vec<u32>,
    nulls: Vec<bool>,
}

impl Snapshot {
    fn apply(&mut self, op: &WalOp) {
        match op {
            WalOp::Append { values } => {
                for v in values {
                    self.values.push(v.unwrap_or(0));
                    self.nulls.push(v.is_none());
                }
            }
            WalOp::Delete { rows } => {
                for &r in rows {
                    self.nulls[r as usize] = true;
                }
            }
        }
    }

    /// Reference answers under this snapshot, one foundset per query.
    fn answers(&self, encoding: Encoding) -> Vec<BitVec> {
        let col = Column::new(self.values.clone(), CARDINALITY);
        let mut nulls = BitVec::zeros(self.values.len());
        for (i, &n) in self.nulls.iter().enumerate() {
            nulls.set(i, n);
        }
        let reference = BitmapIndex::build_with_nulls(&col, &nulls, spec(encoding)).unwrap();
        queries()
            .into_iter()
            .map(|q| {
                bindex::core::eval::evaluate(&mut reference.source(), q, Algorithm::Auto)
                    .unwrap()
                    .0
            })
            .collect()
    }
}

/// Per-batch-prefix reference snapshots: `snapshots[j]` is the state after
/// the first `j` batches (compaction never changes logical content).
fn snapshots(base: &Column, seed: u64) -> Vec<Snapshot> {
    let mut state = Snapshot {
        values: base.values().to_vec(),
        nulls: vec![false; base.len()],
    };
    let mut out = vec![state.clone()];
    for step in script(seed) {
        if let Step::Batch(op) = step {
            state.apply(&op);
            out.push(state.clone());
        }
    }
    out
}

/// Drives the script against an ingest index until the first error.
/// Returns (acked batch count, attempted batch count); with default
/// options every `Ok` commit is fsynced, so acked == Ok commits.
fn drive<S: ByteStore>(ingest: &mut IngestIndex<'_, S>, seed: u64) -> (usize, usize) {
    let mut acked = 0;
    let mut attempted = 0;
    for step in script(seed) {
        match step {
            Step::Batch(op) => {
                attempted += 1;
                match ingest.commit(op) {
                    Ok(ack) => {
                        assert!(ack.durable, "default options fsync every commit");
                        acked += 1;
                    }
                    Err(_) => return (acked, attempted),
                }
            }
            Step::Compact => {
                if ingest.compact().is_err() {
                    return (acked, attempted);
                }
            }
        }
    }
    (acked, attempted)
}

fn open_stored<S: ByteStore>(store: S) -> StoredIndex<S> {
    StoredIndex::open(store).expect("manifest swaps are atomic; opening never tears")
}

/// Starts an ingest session over `stored` (replays the WAL).
fn session<S: ByteStore>(
    stored: &mut StoredIndex<S>,
    encoding: Encoding,
) -> Result<IngestIndex<'_, S>, bindex::core::Error> {
    IngestIndex::open(stored, spec(encoding), CARDINALITY, IngestOptions::new())
}

/// The crash-point coverage of one traced clean run: every mutation
/// boundary plus two interior offsets per mutation (first byte and
/// midpoint) — WAL record boundaries, mid-record torn appends, the fsync
/// points, and each compaction step all fall out of the trace.
fn crash_points(trace: &[(String, u64)]) -> Vec<u64> {
    let mut points = BTreeSet::new();
    let mut prev = 0u64;
    for &(_, cum) in trace {
        points.insert(cum); // boundary: this op completes, next op dies
        if cum > prev + 1 {
            points.insert(prev + 1); // first byte of the op
            points.insert(prev + (cum - prev) / 2); // torn mid-operation
        }
        prev = cum;
    }
    points.insert(0); // crash before the first mutation
    points.into_iter().collect()
}

/// The tentpole matrix: for every crash point of the traced scenario,
/// replay with an injected crash, reopen the surviving bytes, and assert
/// (a) zero acknowledged-batch loss and (b) results bit-identical to a
/// batch-prefix snapshot under every evaluation algorithm.
#[test]
fn crash_point_matrix_recovers_a_batch_prefix_under_every_evaluator() {
    for seed in seeds() {
        for encoding in [Encoding::Range, Encoding::Equality, Encoding::Interval] {
            let base = gen::uniform(BASE_ROWS, CARDINALITY, seed);
            let built = BitmapIndex::build(&base, spec(encoding)).unwrap();
            let initial = persist_index_v4(&built, MemStore::new(), CodecKind::None)
                .unwrap()
                .into_store();
            let snaps = snapshots(&base, seed);
            let answers: Vec<Vec<BitVec>> = snaps.iter().map(|s| s.answers(encoding)).collect();

            // Traced clean run enumerates the mutation boundaries.
            let mut traced = open_stored(FaultStore::new(
                initial.clone(),
                FaultPlan::new(seed).with_write_trace(),
            ));
            let mut ingest = session(&mut traced, encoding).unwrap();
            let (acked, attempted) = drive(&mut ingest, seed);
            assert_eq!(acked, attempted, "clean run acks everything");
            let trace = ingest.stored().store().write_trace();
            assert!(
                trace.iter().any(|(op, _)| op.starts_with("append:wal")),
                "trace must include WAL appends: {trace:?}"
            );
            assert!(
                trace.iter().any(|(op, _)| op == "write:manifest.bixm"),
                "trace must include the compaction manifest swap: {trace:?}"
            );
            let points = crash_points(&trace);
            assert!(
                points.len() > 3 * attempted,
                "matrix too sparse: {points:?}"
            );

            for &budget in &points {
                // Replay with the crash injected at `budget` bytes.
                let mut crashed_stored = open_stored(FaultStore::new(
                    initial.clone(),
                    FaultPlan::new(seed).with_crash_after_bytes(budget),
                ));
                let mut crashed = session(&mut crashed_stored, encoding).unwrap();
                let (acked, _) = drive(&mut crashed, seed);
                drop(crashed);

                // "Reboot": reopen whatever bytes survived the crash.
                let survivor = crashed_stored.into_store().into_inner();
                let mut reopened_stored = open_stored(survivor);
                let mut reopened = session(&mut reopened_stored, encoding)
                    .unwrap_or_else(|e| panic!("reopen at budget {budget}: {e}"));

                // Zero acknowledged-batch loss.
                assert!(
                    reopened.durable_seq() >= acked as u64,
                    "budget {budget}: acked {acked} batches but reopened \
                     durable_seq is {}",
                    reopened.durable_seq()
                );

                // Results must equal exactly one batch-prefix snapshot,
                // and that prefix must contain every acknowledged batch.
                let qs = queries();
                let first_algo = algorithms(encoding)[0];
                let got: Vec<BitVec> = qs
                    .iter()
                    .map(|&q| reopened.evaluate(q, first_algo).unwrap().0)
                    .collect();
                let j = (0..answers.len())
                    .find(|&j| answers[j] == got)
                    .unwrap_or_else(|| {
                        panic!(
                            "budget {budget} ({encoding:?}, seed {seed}): reopened \
                             results match no batch-prefix snapshot"
                        )
                    });
                assert!(
                    j >= acked,
                    "budget {budget}: snapshot prefix {j} loses acked batch \
                     (acked {acked})"
                );
                for &algo in &algorithms(encoding)[1..] {
                    for (qi, &q) in qs.iter().enumerate() {
                        let (bits, _) = reopened.evaluate(q, algo).unwrap();
                        assert_eq!(
                            bits, answers[j][qi],
                            "budget {budget} {algo:?} query {qi} diverges from \
                             snapshot {j}"
                        );
                    }
                }
            }
        }
    }
}

/// Torn fsync on the WAL append: the batch errors (never acknowledged),
/// the torn tail is repaired on the next commit, and both the live index
/// and a reopen settle on consistent prefix states.
#[test]
fn torn_fsync_append_is_unacknowledged_and_repaired() {
    for seed in seeds() {
        let base = gen::uniform(BASE_ROWS, CARDINALITY, seed);
        let built = BitmapIndex::build(&base, spec(Encoding::Equality)).unwrap();
        let store = persist_index_v4(&built, MemStore::new(), CodecKind::None)
            .unwrap()
            .into_store();
        let faulted = FaultStore::new(store, FaultPlan::new(seed).with_torn_writes("wal", 1));
        let mut stored = StoredIndex::open(faulted).unwrap();
        let mut ingest = session(&mut stored, Encoding::Equality).unwrap();

        // First commit: the header append or record append tears.
        let err = ingest.append(&[Some(1), None, Some(5)]).unwrap_err();
        assert!(err.to_string().contains("torn"), "{err}");
        assert_eq!(ingest.durable_seq(), 0, "torn batch must not be acked");

        // Next commit repairs the tail and lands cleanly.
        let ack = ingest.append(&[Some(2), Some(3)]).unwrap();
        assert!(ack.durable);
        assert_eq!(ingest.stored().store().counters().torn_writes, 1);

        // Reopen: exactly the repaired batch is present.
        drop(ingest);
        let survivor = stored.into_store().into_inner();
        let mut reopened_stored = open_stored(survivor);
        let mut reopened = session(&mut reopened_stored, Encoding::Equality).unwrap();
        assert_eq!(reopened.n_rows(), BASE_ROWS + 2);
        assert_eq!(reopened.durable_seq(), ack.seq);
        let q = SelectionQuery::new(Op::Eq, 2);
        let (bits, _) = reopened.evaluate(q, Algorithm::EqualityEval).unwrap();
        assert!(bits.get(BASE_ROWS), "appended row 0 holds value 2");
    }
}

/// At-rest corruption of the WAL tail truncates back to the valid prefix
/// instead of erroring; a corrupted header is a hard, typed error (silent
/// loss of acknowledged batches is never acceptable).
#[test]
fn wal_tail_corruption_truncates_to_valid_prefix() {
    let base = gen::uniform(BASE_ROWS, CARDINALITY, 9);
    let built = BitmapIndex::build(&base, spec(Encoding::Range)).unwrap();
    let store = persist_index_v4(&built, MemStore::new(), CodecKind::None)
        .unwrap()
        .into_store();
    let mut stored = open_stored(store);
    let mut ingest = session(&mut stored, Encoding::Range).unwrap();
    ingest.append(&[Some(1), Some(2)]).unwrap();
    ingest.append(&[Some(3)]).unwrap();
    drop(ingest);
    let mut bytes_store = stored.into_store();

    // Flip a byte near the end of the WAL: inside the final record.
    let mut wal = bytes_store.read_file("wal.bixl").unwrap();
    let at = wal.len() - 2;
    wal[at] ^= 0x20;
    bytes_store.write_file("wal.bixl", &wal).unwrap();
    let mut reopened_stored = open_stored(bytes_store);
    let mut reopened = session(&mut reopened_stored, Encoding::Range).unwrap();
    assert_eq!(
        reopened.n_rows(),
        BASE_ROWS + 2,
        "second batch dropped, first intact"
    );
    let (bits, _) = reopened
        .evaluate(SelectionQuery::new(Op::Eq, 2), Algorithm::Auto)
        .unwrap();
    assert!(bits.get(BASE_ROWS + 1));

    // Header corruption is a hard error, not silent truncation.
    drop(reopened);
    let mut survivor = reopened_stored.into_store();
    let mut wal = survivor.read_file("wal.bixl").unwrap();
    wal[0] = b'X';
    survivor.write_file("wal.bixl", &wal).unwrap();
    let mut corrupt = open_stored(survivor);
    assert!(session(&mut corrupt, Encoding::Range).is_err());
}

/// Group commit (`with_fsync_interval`): commits inside the window are
/// unacknowledged until `flush`, and a crash that eats the unsynced tail
/// loses only unacknowledged batches.
#[test]
fn group_commit_defers_acknowledgement_until_flush() {
    let base = gen::uniform(64, CARDINALITY, 3);
    let built = BitmapIndex::build(&base, spec(Encoding::Equality)).unwrap();
    let store = persist_index_v4(&built, MemStore::new(), CodecKind::None)
        .unwrap()
        .into_store();
    let mut stored = StoredIndex::open(store).unwrap();
    let mut ingest = IngestIndex::open(
        &mut stored,
        spec(Encoding::Equality),
        CARDINALITY,
        IngestOptions::new().with_fsync_interval(Some(std::time::Duration::from_secs(3600))),
    )
    .unwrap();
    // The first commit syncs (opens the window); the second defers.
    let a1 = ingest.append(&[Some(1)]).unwrap();
    assert!(a1.durable);
    let a2 = ingest.append(&[Some(2)]).unwrap();
    assert!(!a2.durable, "inside the group-commit window");
    assert_eq!(ingest.durable_seq(), a1.seq);
    // Flush forces the sync and acknowledges the tail.
    assert_eq!(ingest.flush().unwrap(), a2.seq);
    assert_eq!(ingest.durable_seq(), a2.seq);
}

/// Automatic compaction via the delta row cap: the triggering commit
/// reports the new generation, the delta drains, and queries keep
/// answering the merged state.
#[test]
fn delta_cap_triggers_automatic_compaction() {
    let base = gen::uniform(100, CARDINALITY, 4);
    let built = BitmapIndex::build(&base, spec(Encoding::Range)).unwrap();
    let store = persist_index_v4(&built, MemStore::new(), CodecKind::None)
        .unwrap()
        .into_store();
    let mut stored = StoredIndex::open(store).unwrap();
    let mut ingest = IngestIndex::open(
        &mut stored,
        spec(Encoding::Range),
        CARDINALITY,
        IngestOptions::new().with_delta_max_rows(Some(16)),
    )
    .unwrap();
    let a1 = ingest.append(&[Some(7); 10]).unwrap();
    assert_eq!(a1.compacted, None);
    assert_eq!(ingest.delta_rows(), 10);
    let a2 = ingest.append(&[Some(9); 10]).unwrap();
    assert_eq!(a2.compacted, Some(1), "cap of 16 tripped at 20 delta rows");
    assert_eq!(ingest.delta_rows(), 0, "delta drained into generation 1");
    assert_eq!(ingest.n_rows(), 120);
    let (bits, _) = ingest
        .evaluate(SelectionQuery::new(Op::Eq, 9), Algorithm::Auto)
        .unwrap();
    assert!((100..110).all(|r| !bits.get(r) || base.values()[r - 100] == 9 || r >= 110));
    assert!((110..120).all(|r| bits.get(r)));
}

/// Run-domain compaction writes what a rebuild writes. On a clustered
/// column (every slot and `nn` stored WAH, so each is extended in the run
/// domain and the deletes are one `AndNot` fold) and on a uniform one
/// (literal slots, the dense route), both with nulls and with deletes in
/// the base and the delta, every slot file, the `nn` file and the summary
/// block of the compacted generation are byte-identical to
/// `persist_index_v4` of the index rebuilt from the concatenated column.
#[test]
fn compaction_writes_the_bytes_a_rebuild_writes() {
    let rows = 16 * 1024;
    for clustered in [true, false] {
        let column = |n: usize, seed: u64| {
            if clustered {
                gen::clustered(n, CARDINALITY, 1024, seed)
            } else {
                gen::uniform(n, CARDINALITY, seed)
            }
        };
        let base = column(rows, 1);
        let base_nulls = BitVec::from_fn(rows, |i| (3000..3300).contains(&i) || i % 4093 == 0);
        let built =
            BitmapIndex::build_with_nulls(&base, &base_nulls, spec(Encoding::Range)).unwrap();
        let mut stored = persist_index_v4(&built, MemStore::new(), CodecKind::None).unwrap();
        let slots: Vec<(usize, usize)> =
            (1..=2).flat_map(|c| (0..3).map(move |s| (c, s))).collect();
        let wah_slots = slots
            .iter()
            .filter(|&&(c, s)| stored.read_repr(c, s).unwrap().is_compressed())
            .count();
        assert_eq!(wah_slots, if clustered { slots.len() } else { 0 });

        let appended = WalOp::Append {
            values: column(5000, 2)
                .values()
                .iter()
                .enumerate()
                .map(|(i, &v)| (!(700..760).contains(&i)).then_some(v))
                .collect(),
        };
        let deleted = WalOp::Delete {
            rows: vec![5, 3100, 9000, rows as u64 + 10, rows as u64 + 4999],
        };
        let mut ingest = session(&mut stored, Encoding::Range).unwrap();
        ingest.commit(appended.clone()).unwrap();
        ingest.commit(deleted.clone()).unwrap();
        assert_eq!(ingest.compact().unwrap(), 1);
        drop(ingest);

        let mut logical = Snapshot {
            values: base.values().to_vec(),
            nulls: (0..rows).map(|i| base_nulls.get(i)).collect(),
        };
        logical.apply(&appended);
        logical.apply(&deleted);
        let nulls = BitVec::from_bools(&logical.nulls);
        let rebuilt = BitmapIndex::build_with_nulls(
            &Column::new(logical.values, CARDINALITY),
            &nulls,
            spec(Encoding::Range),
        )
        .unwrap();
        let fresh = persist_index_v4(&rebuilt, MemStore::new(), CodecKind::None).unwrap();
        let mut names = fresh.store().file_names().unwrap();
        names.retain(|name| name != "manifest.bixm");
        names.sort();
        assert_eq!(
            names.len(),
            slots.len() + 2,
            "slots, nn and summary: {names:?}"
        );
        for name in &names {
            assert_eq!(
                stored.store().read_file(&format!("g1_{name}")).unwrap(),
                fresh.store().read_file(name).unwrap(),
                "{name} (clustered {clustered})"
            );
        }
    }
}

/// Compacting a store whose slots and `nn` are all WAH decodes nothing:
/// every bitmap is read compressed, extended and written compressed.
#[test]
fn compacting_an_all_wah_store_decompresses_nothing() {
    let base = gen::clustered(8 * 1024, CARDINALITY, 512, 3);
    let nulls = BitVec::from_fn(base.len(), |i| (100..140).contains(&i));
    let built = BitmapIndex::build_with_nulls(&base, &nulls, spec(Encoding::Range)).unwrap();
    let store = persist_index_v4(&built, MemStore::new(), CodecKind::Deflate)
        .unwrap()
        .into_store();
    let mut stored = open_stored(store);
    assert!(stored.read_nn_repr().unwrap().unwrap().is_compressed());
    let mut ingest = session(&mut stored, Encoding::Range).unwrap();
    ingest.append(&[Some(4); 700]).unwrap();
    ingest.append(&[None; 30]).unwrap();
    ingest.delete(&[7, 8 * 1024 + 3]).unwrap();
    ingest.compact().unwrap();
    assert!(ingest.stored().stats().reads > 0);
    assert_eq!(ingest.stored().stats().bytes_decompressed, 0);
    let (bits, _) = ingest
        .evaluate(SelectionQuery::new(Op::Eq, 4), Algorithm::Auto)
        .unwrap();
    assert!((8 * 1024 + 4..8 * 1024 + 700).all(|r| bits.get(r)));
    assert!(!bits.get(8 * 1024 + 3), "deleted");
}

/// A store whose `file_size` fails once with a transient error, armed on
/// demand.
struct FlakySize {
    inner: MemStore,
    fail_next: std::cell::Cell<bool>,
}

impl ByteStore for FlakySize {
    fn write_file(&mut self, name: &str, data: &[u8]) -> std::io::Result<()> {
        self.inner.write_file(name, data)
    }
    fn read_file(&self, name: &str) -> std::io::Result<Vec<u8>> {
        self.inner.read_file(name)
    }
    fn file_size(&self, name: &str) -> std::io::Result<u64> {
        if self.fail_next.replace(false) {
            return Err(std::io::ErrorKind::PermissionDenied.into());
        }
        self.inner.file_size(name)
    }
    fn file_names(&self) -> std::io::Result<Vec<String>> {
        self.inner.file_names()
    }
    fn append_file(&mut self, name: &str, data: &[u8]) -> std::io::Result<()> {
        self.inner.append_file(name, data)
    }
    fn remove_file(&mut self, name: &str) -> std::io::Result<()> {
        self.inner.remove_file(name)
    }
}

/// Only a missing WAL is seeded with a header. A commit that cannot tell
/// whether the log exists fails and appends nothing — a second header in
/// the middle of the log would end replay there and silently drop every
/// acknowledged batch after it.
#[test]
fn a_failed_wal_size_probe_appends_nothing() {
    let base = gen::uniform(BASE_ROWS, CARDINALITY, 6);
    let built = BitmapIndex::build(&base, spec(Encoding::Equality)).unwrap();
    let inner = persist_index_v4(&built, MemStore::new(), CodecKind::None)
        .unwrap()
        .into_store();
    let flaky = FlakySize {
        inner,
        fail_next: std::cell::Cell::new(false),
    };
    let mut stored = open_stored(flaky);
    let mut ingest = session(&mut stored, Encoding::Equality).unwrap();
    let first = ingest.append(&[Some(1), Some(2)]).unwrap();
    let log = ingest.stored().store().read_file("wal.bixl").unwrap();

    ingest.stored().store().fail_next.set(true);
    let err = ingest.append(&[Some(3)]).unwrap_err();
    assert!(matches!(err, bindex::core::Error::Storage(_)), "{err}");
    assert_eq!(ingest.stored().store().read_file("wal.bixl").unwrap(), log);
    let last = ingest.append(&[Some(4), Some(5), Some(6)]).unwrap();
    assert!(first.durable && last.durable);

    drop(ingest);
    let mut reopened_stored = open_stored(stored.into_store().inner);
    let reopened = session(&mut reopened_stored, Encoding::Equality).unwrap();
    assert_eq!(
        reopened.durable_seq(),
        last.seq,
        "no acknowledged batch lost"
    );
    assert_eq!(reopened.n_rows(), BASE_ROWS + 5);
}

/// An out-of-range delete is the caller's mistake: `InvalidQuery`, the log
/// untouched and the sequence number unspent. The same record found in the
/// log at replay is damage to the store: `CorruptIndex`.
#[test]
fn an_out_of_range_delete_is_invalid_and_logs_nothing() {
    let base = gen::uniform(BASE_ROWS, CARDINALITY, 8);
    let built = BitmapIndex::build(&base, spec(Encoding::Equality)).unwrap();
    let mut stored = persist_index_v4(&built, MemStore::new(), CodecKind::None).unwrap();
    let mut ingest = session(&mut stored, Encoding::Equality).unwrap();
    let first = ingest.append(&[Some(1)]).unwrap();
    let log_len =
        |ingest: &IngestIndex<'_, MemStore>| ingest.stored().store().file_size("wal.bixl");
    let before = log_len(&ingest).unwrap();
    let past_end = WalOp::Delete {
        rows: vec![ingest.n_rows() as u64],
    };
    let err = ingest.commit(past_end.clone()).unwrap_err();
    assert!(matches!(err, bindex::core::Error::InvalidQuery(_)), "{err}");
    assert_eq!(log_len(&ingest).unwrap(), before);
    assert_eq!(ingest.delete(&[0]).unwrap().seq, first.seq + 1);
    drop(ingest);

    let mut log = wal::wal_header();
    log.extend(wal::encode_record(1, &past_end));
    let mut store = stored.into_store();
    store.write_file("wal.bixl", &log).unwrap();
    let mut replayed = open_stored(store);
    let err = session(&mut replayed, Encoding::Equality).err().unwrap();
    assert!(matches!(err, bindex::core::Error::CorruptIndex(_)), "{err}");
}
