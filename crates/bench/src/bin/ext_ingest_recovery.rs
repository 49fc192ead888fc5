//! **Extension** — Crash-consistent streaming ingest, measured end to
//! end:
//!
//! * **append throughput** down the WAL-backed delta path, fsync on
//!   every commit vs. group commit (deferred fsync inside a window);
//! * **WAL replay time** — cold reopen of a store whose delta lives
//!   entirely in the log, and again after compaction truncated it;
//! * the **crash-point recovery matrix** — a traced clean run enumerates
//!   every mutation boundary (WAL record boundaries, torn mid-record
//!   offsets, every compaction step), each point is replayed with an
//!   injected crash, and the reopened index must land on a batch-prefix
//!   snapshot with zero acknowledged-batch loss.
//!
//! Emits `BENCH_ingest_recovery.json` at the workspace root with the
//! throughput numbers, replay times, and the recovery-point coverage
//! count (recovered must equal covered). `--quick` (alias `--smoke`)
//! shrinks the workload for CI; `BINDEX_CHAOS_SEED` reseeds the data
//! and the crash matrix.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use bindex::compress::CodecKind;
use bindex::core::eval::Algorithm;
use bindex::relation::query::{Op, SelectionQuery};
use bindex::relation::{gen, Column};
use bindex::storage::wal::WalOp;
use bindex::storage::{ByteStore, FaultPlan, FaultStore, MemStore, StoredIndex};
use bindex::stored::persist_index_v4;
use bindex::{Base, BitVec, BitmapIndex, Encoding, IndexSpec, IngestIndex, IngestOptions};
use bindex_bench::{print_table, results_dir, Csv, RunProvenance};

const CARDINALITY: u32 = 64;

fn spec() -> IndexSpec {
    IndexSpec::new(Base::from_msb(&[8, 8]).unwrap(), Encoding::Range)
}

/// One append batch: uniform values with every 13th row null.
fn batch(rows: usize, seed: u64) -> Vec<Option<u32>> {
    gen::uniform(rows, CARDINALITY, seed)
        .values()
        .iter()
        .enumerate()
        .map(|(i, &v)| (i % 13 != 7).then_some(v))
        .collect()
}

fn open_session<S: ByteStore>(
    stored: &mut StoredIndex<S>,
    options: IngestOptions,
) -> IngestIndex<'_, S> {
    IngestIndex::open(stored, spec(), CARDINALITY, options).expect("open ingest session")
}

/// Appends `batches` batches of `batch_rows` rows; returns wall seconds.
/// Every batch must be applied (group commit may defer the ack); `flush`
/// closes the window so acked == batches either way.
fn append_run<S: ByteStore>(
    stored: &mut StoredIndex<S>,
    options: IngestOptions,
    batches: usize,
    batch_rows: usize,
    seed: u64,
) -> f64 {
    let mut ingest = open_session(stored, options);
    let start = Instant::now();
    for b in 0..batches {
        ingest
            .append(&batch(batch_rows, seed.wrapping_add(b as u64)))
            .expect("append batch");
    }
    let tail = ingest.flush().expect("flush");
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(ingest.durable_seq(), tail, "flush acknowledges the tail");
    assert_eq!(tail, batches as u64, "every batch logged");
    seconds
}

// ---- crash matrix (the tentpole harness, bench-sized) -----------------

/// The deterministic mutation script: appends with nulls, deletes
/// hitting base and delta rows, and a mid-script compaction so the
/// matrix covers every compaction step.
fn script(base_rows: usize, seed: u64) -> Vec<WalOp> {
    vec![
        WalOp::Append {
            values: batch(40, seed.wrapping_mul(31)),
        },
        WalOp::Delete {
            rows: vec![3, 77 + seed % 50, base_rows as u64 + 5],
        },
        WalOp::Append {
            values: batch(30, seed.wrapping_mul(31).wrapping_add(2)),
        },
        // Compaction is spliced in after this index by the driver.
        WalOp::Append {
            values: batch(25, seed.wrapping_mul(31).wrapping_add(3)),
        },
        WalOp::Delete {
            rows: vec![1, base_rows as u64 + 70 + seed % 20],
        },
    ]
}

/// The batch index after which the driver compacts.
const COMPACT_AFTER: usize = 3;

/// Drives the script (with the spliced compaction) until the first
/// error; returns the acknowledged batch count.
fn drive<S: ByteStore>(ingest: &mut IngestIndex<'_, S>, base_rows: usize, seed: u64) -> usize {
    let mut acked = 0;
    for (i, op) in script(base_rows, seed).into_iter().enumerate() {
        match ingest.commit(op) {
            Ok(ack) => {
                assert!(ack.durable, "default options fsync every commit");
                acked += 1;
            }
            Err(_) => return acked,
        }
        if i + 1 == COMPACT_AFTER && ingest.compact().is_err() {
            return acked;
        }
    }
    acked
}

/// Logical state after a prefix of batches: values plus a null mask
/// carrying both real nulls and deletes.
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

    fn answers(&self, queries: &[SelectionQuery]) -> Vec<BitVec> {
        let col = Column::new(self.values.clone(), CARDINALITY);
        let mut nulls = BitVec::zeros(self.values.len());
        for (i, &n) in self.nulls.iter().enumerate() {
            nulls.set(i, n);
        }
        let reference = BitmapIndex::build_with_nulls(&col, &nulls, spec()).unwrap();
        queries
            .iter()
            .map(|&q| {
                bindex::core::eval::evaluate(&mut reference.source(), q, Algorithm::Auto)
                    .unwrap()
                    .0
            })
            .collect()
    }
}

/// Every mutation boundary of the traced run, plus the first byte and
/// midpoint of each mutation (torn-write offsets).
fn crash_points(trace: &[(String, u64)]) -> Vec<u64> {
    let mut points = BTreeSet::new();
    let mut prev = 0u64;
    for &(_, cum) in trace {
        points.insert(cum);
        if cum > prev + 1 {
            points.insert(prev + 1);
            points.insert(prev + (cum - prev) / 2);
        }
        prev = cum;
    }
    points.insert(0);
    points.into_iter().collect()
}

struct MatrixOutcome {
    points: usize,
    recovered: usize,
    seconds: f64,
}

/// Runs the full crash matrix; panics on any acked-batch loss or
/// off-snapshot answer, so `recovered == points` on return.
fn crash_matrix(base_rows: usize, seed: u64) -> MatrixOutcome {
    let base = gen::uniform(base_rows, CARDINALITY, seed);
    let initial = persist_index_v4(
        &BitmapIndex::build(&base, spec()).unwrap(),
        MemStore::new(),
        CodecKind::None,
    )
    .expect("persist base")
    .into_store();

    // Batch-prefix reference snapshots.
    let queries: Vec<SelectionQuery> = [Op::Lt, Op::Ge, Op::Eq, Op::Ne]
        .iter()
        .flat_map(|&op| [7, CARDINALITY - 1].map(|v| SelectionQuery::new(op, v)))
        .collect();
    let mut state = Snapshot {
        values: base.values().to_vec(),
        nulls: vec![false; base.len()],
    };
    let mut answers = vec![state.answers(&queries)];
    for op in script(base_rows, seed) {
        state.apply(&op);
        answers.push(state.answers(&queries));
    }

    // Traced clean run enumerates the crash points.
    let mut traced = StoredIndex::open(FaultStore::new(
        initial.clone(),
        FaultPlan::new(seed).with_write_trace(),
    ))
    .expect("open traced");
    let mut ingest = open_session(&mut traced, IngestOptions::new());
    let clean_acked = drive(&mut ingest, base_rows, seed);
    assert_eq!(clean_acked, script(base_rows, seed).len());
    let points = crash_points(&ingest.stored().store().write_trace());
    drop(ingest);

    let start = Instant::now();
    let mut recovered = 0;
    for &budget in &points {
        let mut crashed_stored = StoredIndex::open(FaultStore::new(
            initial.clone(),
            FaultPlan::new(seed).with_crash_after_bytes(budget),
        ))
        .expect("open crash run");
        let mut crashed = open_session(&mut crashed_stored, IngestOptions::new());
        let acked = drive(&mut crashed, base_rows, seed);
        drop(crashed);

        // "Reboot" on the surviving bytes.
        let survivor = crashed_stored.into_store().into_inner();
        let mut reopened_stored = StoredIndex::open(survivor).expect("reopen survivor");
        let mut reopened = open_session(&mut reopened_stored, IngestOptions::new());
        assert!(
            reopened.durable_seq() >= acked as u64,
            "budget {budget}: acked {acked} but durable_seq {}",
            reopened.durable_seq()
        );
        let got: Vec<BitVec> = queries
            .iter()
            .map(|&q| reopened.evaluate(q, Algorithm::Auto).unwrap().0)
            .collect();
        let j = (0..answers.len())
            .find(|&j| answers[j] == got)
            .unwrap_or_else(|| panic!("budget {budget}: no batch-prefix snapshot matches"));
        assert!(j >= acked, "budget {budget}: prefix {j} loses acked batch");
        recovered += 1;
    }
    MatrixOutcome {
        points: points.len(),
        recovered,
        seconds: start.elapsed().as_secs_f64(),
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "--smoke");
    let seed: u64 = std::env::var("BINDEX_CHAOS_SEED")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(42);
    let base_rows = if quick { 10_000 } else { 100_000 };
    let batch_rows = 512;
    let batches = if quick { 32 } else { 192 };
    let provenance = RunProvenance::capture(1); // the ingest path is single-writer

    println!(
        "ingest recovery harness: {base_rows} base rows, {batches} batches x {batch_rows} rows, \
         seed {seed}\n"
    );

    let base = gen::uniform(base_rows, CARDINALITY, seed);
    let built = BitmapIndex::build(&base, spec()).unwrap();
    let appended = batches * batch_rows;

    // -- Stage 1: append throughput, fsync on every commit ---------------
    let mut fsync_stored = StoredIndex::open(
        persist_index_v4(&built, MemStore::new(), CodecKind::None)
            .expect("persist")
            .into_store(),
    )
    .expect("open for fsync-each run");
    let fsync_each_s = append_run(
        &mut fsync_stored,
        IngestOptions::new(),
        batches,
        batch_rows,
        seed,
    );
    let fsync_each_rps = appended as f64 / fsync_each_s;

    // -- Stage 2: append throughput under group commit --------------------
    let mut group_stored = StoredIndex::open(
        persist_index_v4(&built, MemStore::new(), CodecKind::None)
            .expect("persist")
            .into_store(),
    )
    .expect("open for group-commit run");
    let group_s = append_run(
        &mut group_stored,
        IngestOptions::new().with_fsync_interval(Some(Duration::from_secs(3600))),
        batches,
        batch_rows,
        seed,
    );
    let group_rps = appended as f64 / group_s;

    // -- Stage 3: WAL replay on a cold reopen -----------------------------
    // The fsync-each store never compacted: its whole delta is in the log.
    let survivor = fsync_stored.into_store();
    let replay_start = Instant::now();
    let mut replay_stored = StoredIndex::open(survivor).expect("reopen");
    let mut replayed = open_session(&mut replay_stored, IngestOptions::new());
    let replay_s = replay_start.elapsed().as_secs_f64();
    assert_eq!(replayed.durable_seq(), batches as u64, "all batches replay");
    assert_eq!(
        replayed.delta_rows(),
        appended,
        "replayed rows sit in the delta"
    );
    assert_eq!(replayed.n_rows(), base_rows + appended);

    // -- Stage 4: compaction drains the delta and truncates the WAL -------
    let compact_start = Instant::now();
    let generation = replayed.compact().expect("compact");
    let compact_s = compact_start.elapsed().as_secs_f64();
    assert!(generation > 0);
    assert_eq!(replayed.delta_rows(), 0, "delta drained");
    drop(replayed);
    let survivor = replay_stored.into_store();
    let post_start = Instant::now();
    let mut post_stored = StoredIndex::open(survivor).expect("reopen post-compaction");
    let post = open_session(&mut post_stored, IngestOptions::new());
    let post_compact_replay_s = post_start.elapsed().as_secs_f64();
    assert_eq!(post.delta_rows(), 0, "truncated WAL replays nothing");
    assert_eq!(post.n_rows(), base_rows + appended);
    drop(post);

    // -- Stage 5: crash-point recovery matrix ------------------------------
    let matrix_rows = if quick { 2_000 } else { 8_000 };
    let matrix = crash_matrix(matrix_rows, seed);
    assert_eq!(matrix.recovered, matrix.points, "every point must recover");

    let rows = vec![
        vec![
            "append fsync-each".to_string(),
            appended.to_string(),
            format!("{fsync_each_s:.4}"),
            format!("{fsync_each_rps:.0}"),
        ],
        vec![
            "append group-commit".to_string(),
            appended.to_string(),
            format!("{group_s:.4}"),
            format!("{group_rps:.0}"),
        ],
        vec![
            "wal replay (cold)".to_string(),
            appended.to_string(),
            format!("{replay_s:.4}"),
            format!("{:.0}", appended as f64 / replay_s.max(1e-9)),
        ],
        vec![
            "compaction".to_string(),
            (base_rows + appended).to_string(),
            format!("{compact_s:.4}"),
            String::from("-"),
        ],
        vec![
            "replay post-compaction".to_string(),
            "0".to_string(),
            format!("{post_compact_replay_s:.4}"),
            String::from("-"),
        ],
        vec![
            "crash matrix".to_string(),
            matrix.points.to_string(),
            format!("{:.4}", matrix.seconds),
            format!("{} recovered", matrix.recovered),
        ],
    ];
    print_table(
        &format!("streaming ingest (seed {seed}, quick {quick})"),
        &["stage", "rows/points", "seconds", "rows/s"],
        &rows,
    );

    let mut csv = Csv::create(
        "ext_ingest_recovery",
        &["stage", "rows_or_points", "seconds", "rows_per_s"],
    )
    .expect("csv");
    for r in &rows {
        csv.row(&[&r[0], &r[1], &r[2], &r[3]]).expect("row");
    }
    println!("\nCSV: {}", csv.path().display());

    // Hand-rolled JSON (no serde in the dependency set).
    let json = format!(
        "{{\n  \"experiment\": \"ingest_recovery\",\n  \"quick\": {quick},\n  \
         \"base_rows\": {base_rows},\n  \"batches\": {batches},\n  \
         \"batch_rows\": {batch_rows},\n  {prov},\n  \"seed\": {seed},\n  \
         \"append\": {{\"fsync_each_rows_per_s\": {fsync_each_rps:.1}, \
         \"fsync_each_seconds\": {fsync_each_s:.6}, \
         \"group_commit_rows_per_s\": {group_rps:.1}, \
         \"group_commit_seconds\": {group_s:.6}}},\n  \
         \"wal_replay\": {{\"seconds\": {replay_s:.6}, \
         \"replayed_batches\": {batches}, \"replayed_rows\": {appended}, \
         \"post_compaction_seconds\": {post_compact_replay_s:.6}}},\n  \
         \"compaction_seconds\": {compact_s:.6},\n  \
         \"recovery\": {{\"crash_points\": {points}, \"recovered\": {recovered}, \
         \"acked_batches_lost\": 0, \"matrix_seconds\": {matrix_s:.6}}}\n}}\n",
        prov = provenance.json_fields(),
        points = matrix.points,
        recovered = matrix.recovered,
        matrix_s = matrix.seconds,
    );
    let json_path = results_dir()
        .parent()
        .map(|p| p.join("BENCH_ingest_recovery.json"))
        .expect("results dir has a parent");
    std::fs::write(&json_path, json).expect("write json");
    println!("JSON: {}", json_path.display());
}
