//! **Extension** — What each stage of the streaming-ingest path costs
//! against a real disk (a [`DiskStore`] in a temp dir, so an fsync is an
//! fsync):
//!
//! * **append throughput** down the WAL-backed delta path, fsync on
//!   every commit vs. group commit (deferred fsync inside a window);
//! * **WAL replay time** — cold reopen of a store whose delta lives
//!   entirely in the log, and again after compaction truncated it;
//! * **compaction time** — base ⊕ delta re-encoded into a new generation,
//!   on the uniform column above (literal slots: decoded, extended and
//!   re-encoded dense) and on a clustered column whose slots are all WAH
//!   (extended in the run domain, never decoded).
//!
//! That a crash at any byte of any of these recovers a batch prefix with
//! no acknowledged batch lost is asserted by
//! `tests/integration_ingest_recovery.rs`, not here.
//!
//! Emits `BENCH_ingest_recovery.json` with the throughput numbers and
//! stage times. `--quick` (alias `--smoke`) shrinks the workload for CI;
//! `BINDEX_CHAOS_SEED` reseeds the data.

use std::time::{Duration, Instant};

use bindex::compress::CodecKind;
use bindex::relation::gen;
use bindex::storage::{ByteStore, DiskStore, StoredIndex, TempDir};
use bindex::stored::persist_index_v4;
use bindex::{Base, BitmapIndex, Encoding, IndexSpec, IngestIndex, IngestOptions};
use bindex_bench::{print_table, smoke, write_artifact, Csv, RunProvenance};

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

/// One time-ordered append batch: a single value, so every batch is one
/// cluster of the clustered column.
fn cluster_batch(rows: usize, seed: u64) -> Vec<Option<u32>> {
    vec![Some((seed % u64::from(CARDINALITY)) as u32); rows]
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

/// The base index persisted into a fresh directory under `tmp`.
fn disk_index(built: &BitmapIndex, tmp: &TempDir, name: &str) -> StoredIndex<DiskStore> {
    let store = DiskStore::open(tmp.path().join(name)).expect("open store dir");
    persist_index_v4(built, store, CodecKind::None).expect("persist")
}

fn main() {
    let quick = smoke();
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
    let tmp = TempDir::new("ingest-recovery").expect("temp dir");
    let mut fsync_stored = disk_index(&built, &tmp, "fsync_each");
    let fsync_each_s = append_run(
        &mut fsync_stored,
        IngestOptions::new(),
        batches,
        batch_rows,
        seed,
    );
    let fsync_each_rps = appended as f64 / fsync_each_s;

    // -- Stage 2: append throughput under group commit --------------------
    let mut group_stored = disk_index(&built, &tmp, "group_commit");
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

    // -- Stage 5: compaction of a clustered column, every slot WAH ---------
    let clustered = gen::clustered(base_rows, CARDINALITY, batch_rows, seed);
    let built = BitmapIndex::build(&clustered, spec()).unwrap();
    let mut wah_stored = disk_index(&built, &tmp, "clustered");
    let slots = wah_stored.meta().total_bitmaps() as usize;
    let wah_slots = (1..=spec().n_components())
        .flat_map(|c| (0..spec().stored_in_component(c) as usize).map(move |s| (c, s)))
        .filter(|&(c, s)| {
            wah_stored
                .read_repr(c, s)
                .expect("slot reads")
                .is_compressed()
        })
        .count();
    assert_eq!(wah_slots, slots, "a clustered column stores every slot WAH");
    let mut clustered_ingest = open_session(
        &mut wah_stored,
        IngestOptions::new().with_fsync_interval(Some(Duration::from_secs(3600))),
    );
    for b in 0..batches {
        clustered_ingest
            .append(&cluster_batch(batch_rows, seed.wrapping_add(b as u64)))
            .expect("append batch");
    }
    clustered_ingest.flush().expect("flush");
    let compact_start = Instant::now();
    clustered_ingest.compact().expect("compact");
    let clustered_compact_s = compact_start.elapsed().as_secs_f64();
    assert_eq!(clustered_ingest.delta_rows(), 0, "delta drained");
    assert_eq!(
        clustered_ingest.stored().stats().bytes_decompressed,
        0,
        "run-domain compaction decodes no slot"
    );
    drop(clustered_ingest);

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
            "compaction (clustered, all WAH)".to_string(),
            (base_rows + appended).to_string(),
            format!("{clustered_compact_s:.4}"),
            String::from("-"),
        ],
        vec![
            "replay post-compaction".to_string(),
            "0".to_string(),
            format!("{post_compact_replay_s:.4}"),
            String::from("-"),
        ],
    ];
    print_table(
        &format!("streaming ingest (seed {seed}, quick {quick})"),
        &["stage", "rows", "seconds", "rows/s"],
        &rows,
    );

    let mut csv = Csv::create(
        "ext_ingest_recovery",
        &["stage", "rows", "seconds", "rows_per_s"],
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
         \"clustered_compaction\": {{\"seconds\": {clustered_compact_s:.6}, \
         \"rows\": {rows}, \"slots\": {slots}, \"wah_slots\": {wah_slots}}}\n}}\n",
        rows = base_rows + appended,
        prov = provenance.json_fields(),
    );
    write_artifact("ingest_recovery", &json).expect("write json");
}
