//! **Extension** — Chaos-tested recovery: drives multi-threaded query
//! workloads through escalating fault plans (transient read errors,
//! at-rest bit flips, truncation, torn repair writes) on every storage
//! scheme, and checks that the self-healing stack holds the line:
//!
//! * transient faults are absorbed by retries — every query `Ok`;
//! * a corrupted bitmap degrades queries (sibling reconstruction under
//!   BS, digit-level relation scans under CS/IS) without changing a
//!   single answer bit;
//! * `scrub_and_repair_index` rewrites the damage and journals it, after
//!   which a fresh run reports zero degraded fetches;
//! * a torn write *during repair* leaves detectable (never silent)
//!   damage that the next repair pass completes;
//! * at-rest corruption of the **ingest WAL tail** truncates back to the
//!   valid record prefix on reopen — acknowledged batches before the
//!   damage survive, the corrupt suffix is dropped, never a hard error.
//!
//! Emits `BENCH_chaos_recovery.json` with the recovery rate (must be
//! 100%), repair counts, and the wall-clock overhead of the degraded
//! path. `--quick` shrinks the workload for CI;
//! `BINDEX_CHAOS_SEED` reseeds the fault plans and data.

use std::sync::Arc;
use std::time::Instant;

use bindex::compress::CodecKind;
use bindex::core::eval::{naive, Algorithm};
use bindex::engine::batch::{evaluate_selection_workload, BatchOptions};
use bindex::engine::WorkloadReport;
use bindex::relation::query::Op;
use bindex::relation::{gen, query};
use bindex::storage::{
    ByteStore, FaultPlan, FaultStore, MemStore, SharedIndexReader, StorageScheme, StoredIndex,
};
use bindex::stored::{persist_index, scrub_and_repair_index, SharedSource};
use bindex::{
    Base, BitVec, BitmapIndex, Column, Encoding, EvalStats, IndexSpec, IngestIndex, IngestOptions,
    RecoveryPolicy, SelectionQuery,
};
use bindex_bench::{f2, print_table, smoke, write_artifact, Csv, RunProvenance};

const CARDINALITY: u32 = 30;

fn scheme_name(s: StorageScheme) -> &'static str {
    match s {
        StorageScheme::BitmapLevel => "bs",
        StorageScheme::ComponentLevel => "cs",
        StorageScheme::IndexLevel => "is",
    }
}

fn data_pattern(s: StorageScheme) -> &'static str {
    match s {
        StorageScheme::BitmapLevel => ".bmp",
        StorageScheme::ComponentLevel => ".cmp",
        StorageScheme::IndexLevel => "index.bix",
    }
}

#[derive(Clone, Copy)]
enum Damage {
    BitFlip,
    Truncate,
}

/// Corrupts the first (sorted) data file matching `pattern` behind the
/// store's back, returning its name.
fn corrupt_at_rest(store: &mut MemStore, pattern: &str, damage: Damage) -> String {
    let mut names = store.file_names().expect("file names");
    names.sort();
    let victim = names
        .iter()
        .find(|n| n.contains(pattern))
        .expect("a data file to corrupt")
        .clone();
    let mut bytes = store.read_file(&victim).expect("read victim");
    match damage {
        Damage::BitFlip => {
            let last = bytes.len() - 1;
            bytes[last] ^= 0x20;
        }
        Damage::Truncate => bytes.truncate(bytes.len() / 2),
    }
    store.write_file(&victim, &bytes).expect("write victim");
    victim
}

struct Run {
    report: WorkloadReport<(BitVec, EvalStats)>,
    seconds: f64,
}

impl Run {
    /// Queries whose answer (normal or degraded) is bit-identical to the
    /// fault-free oracle.
    fn exact(&self, expected: &[BitVec]) -> usize {
        self.report
            .outcomes
            .iter()
            .zip(expected)
            .filter(|(o, want)| o.result().is_some_and(|(found, _)| found == *want))
            .count()
    }

    fn stats_sum(&self) -> EvalStats {
        let mut total = EvalStats::default();
        for o in &self.report.outcomes {
            if let Some((_, s)) = o.result() {
                total.add(s);
            }
        }
        total
    }
}

fn run<S: ByteStore + Sync>(
    reader: &SharedIndexReader<S>,
    spec: &IndexSpec,
    queries: &[SelectionQuery],
    recovery: RecoveryPolicy,
    threads: usize,
) -> Run {
    let options = BatchOptions::with_threads(threads).with_recovery(recovery);
    let start = Instant::now();
    let report = evaluate_selection_workload(
        || SharedSource::try_new(reader, spec.clone()).expect("spec matches"),
        queries,
        Algorithm::Auto,
        &options,
    );
    Run {
        report,
        seconds: start.elapsed().as_secs_f64(),
    }
}

/// One corrupt-degrade-repair-verify cycle. Returns
/// `(degraded_queries, reconstructed, repaired_files, degraded_seconds)`.
#[allow(clippy::too_many_arguments)]
fn degrade_and_repair(
    store: MemStore,
    scheme: StorageScheme,
    spec: &IndexSpec,
    column: &Arc<Column>,
    queries: &[SelectionQuery],
    expected: &[BitVec],
    damage: Damage,
    threads: usize,
) -> (MemStore, usize, usize, usize, f64) {
    let mut store = store;
    let victim = corrupt_at_rest(&mut store, data_pattern(scheme), damage);
    let recovery = RecoveryPolicy::ReconstructOrScan(Arc::clone(column));

    let reader = SharedIndexReader::new(StoredIndex::open(store).expect("open"));
    let degraded_run = run(&reader, spec, queries, recovery.clone(), threads);
    assert_eq!(
        degraded_run.exact(expected),
        queries.len(),
        "{scheme:?}: every query must be answered bit-identically on the corrupt store \
         (health {:?})",
        degraded_run.report.health
    );
    let degraded_queries = degraded_run.report.health.degraded;
    assert!(
        degraded_queries > 0,
        "{scheme:?}: corrupting {victim} must degrade at least one query"
    );
    let stats = degraded_run.stats_sum();

    let mut stored = reader.into_index();
    let report = scrub_and_repair_index(&mut stored, spec, Some(column), None).expect("repair");
    assert!(report.fully_repaired(), "{scheme:?}: {report:?}");
    assert!(stored.scrub().expect("scrub").is_clean(), "{scheme:?}");

    // A fresh open must read clean: zero degraded fetches on the re-run.
    let reader = SharedIndexReader::new(StoredIndex::open(stored.into_store()).expect("reopen"));
    let rerun = run(&reader, spec, queries, recovery, threads);
    assert!(
        rerun.report.health.all_ok(),
        "{scheme:?}: repaired store must serve the workload cleanly (health {:?})",
        rerun.report.health
    );
    assert_eq!(rerun.exact(expected), queries.len(), "{scheme:?}");

    (
        reader.into_index().into_store(),
        degraded_queries,
        stats.reconstructed_bitmaps,
        report.repaired.len(),
        degraded_run.seconds,
    )
}

fn main() {
    let quick = smoke();
    let seed: u64 = std::env::var("BINDEX_CHAOS_SEED")
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(42);
    let rows = if quick { 8_000 } else { 60_000 };
    let threads = BatchOptions::from_env().threads().clamp(2, 8);
    let provenance = RunProvenance::capture(threads);

    let column = Arc::new(gen::uniform(rows, CARDINALITY, seed));
    let spec = IndexSpec::new(Base::from_msb(&[5, 6]).unwrap(), Encoding::Equality);
    let idx = BitmapIndex::build(&column, spec.clone()).unwrap();
    let queries = query::full_space(CARDINALITY);
    let expected: Vec<BitVec> = queries
        .iter()
        .map(|&q| naive::evaluate(&column, q))
        .collect();

    println!(
        "chaos harness: {} rows, {} queries, {} threads, seed {seed}\n",
        rows,
        queries.len(),
        threads
    );

    let mut table_rows = Vec::new();
    let mut scheme_json = Vec::new();
    let mut csv = Csv::create(
        "ext_chaos",
        &[
            "scheme",
            "transient_faults",
            "bitflip_degraded",
            "truncate_degraded",
            "reconstructed",
            "repaired_files",
            "recovery_rate",
            "clean_s",
            "degraded_s",
        ],
    )
    .expect("csv");

    for scheme in [
        StorageScheme::BitmapLevel,
        StorageScheme::ComponentLevel,
        StorageScheme::IndexLevel,
    ] {
        let store = persist_index(&idx, MemStore::new(), scheme, CodecKind::None)
            .expect("persist")
            .into_store();

        // -- Stage 0: fault-free baseline ---------------------------------
        let reader = SharedIndexReader::new(StoredIndex::open(store).expect("open"));
        let clean = run(&reader, &spec, &queries, RecoveryPolicy::Fail, threads);
        assert!(clean.report.health.all_ok(), "{:?}", clean.report.health);
        assert_eq!(clean.exact(&expected), queries.len());
        let store = reader.into_index().into_store();

        // -- Stage 1: transient read faults are absorbed by retries -------
        let faulty = FaultStore::new(store, FaultPlan::new(seed).with_transient_every_nth_read(7));
        let reader = SharedIndexReader::new(StoredIndex::open(faulty).expect("open"));
        let transient = run(&reader, &spec, &queries, RecoveryPolicy::Fail, threads);
        assert!(
            transient.report.health.all_ok(),
            "{scheme:?}: retries must absorb transient faults ({:?})",
            transient.report.health
        );
        assert_eq!(transient.exact(&expected), queries.len());
        let transient_faults = reader.index().store().counters().transient_errors;
        assert!(transient_faults > 0, "{scheme:?}: plan must actually fire");
        let store = reader.into_index().into_store().into_inner();

        // -- Stage 2: at-rest bit flip → degrade, repair, verify ----------
        let (store, flip_degraded, reconstructed, flip_repaired, degraded_seconds) =
            degrade_and_repair(
                store,
                scheme,
                &spec,
                &column,
                &queries,
                &expected,
                Damage::BitFlip,
                threads,
            );
        if scheme == StorageScheme::BitmapLevel {
            assert!(
                reconstructed > 0,
                "BS single-slot corruption must be reachable by the sibling identity"
            );
        }

        // -- Stage 3: truncation → degrade, repair, verify ----------------
        let (mut store, trunc_degraded, _, trunc_repaired, _) = degrade_and_repair(
            store,
            scheme,
            &spec,
            &column,
            &queries,
            &expected,
            Damage::Truncate,
            threads,
        );

        // -- Stage 4: a torn write during repair is caught, not silent ----
        corrupt_at_rest(&mut store, data_pattern(scheme), Damage::BitFlip);
        let faulty = FaultStore::new(
            store,
            FaultPlan::new(seed ^ 0xA5).with_torn_writes(data_pattern(scheme), 1),
        );
        let mut stored = StoredIndex::open(faulty).expect("open");
        let first =
            scrub_and_repair_index(&mut stored, &spec, Some(&column), None).expect("pass 1");
        assert!(!first.scrub.is_clean(), "{scheme:?}: damage was injected");
        let torn_passes = if stored.scrub().expect("scrub").is_clean() {
            1
        } else {
            // The torn repair write left a truncated frame; the checksum
            // layer sees it and the second pass completes the repair.
            let second =
                scrub_and_repair_index(&mut stored, &spec, Some(&column), None).expect("pass 2");
            assert!(second.fully_repaired(), "{scheme:?}: {second:?}");
            assert!(stored.scrub().expect("scrub").is_clean(), "{scheme:?}");
            2
        };
        assert_eq!(
            stored.store().counters().torn_writes,
            1,
            "{scheme:?}: the torn-write plan must fire during repair"
        );
        let reader = SharedIndexReader::new(stored);
        let final_run = run(&reader, &spec, &queries, RecoveryPolicy::Fail, threads);
        assert!(final_run.report.health.all_ok(), "{scheme:?}");
        assert_eq!(final_run.exact(&expected), queries.len(), "{scheme:?}");

        // -- Stage 5: WAL-tail corruption → graceful prefix truncation ----
        // Two acknowledged ingest batches, then a flipped byte inside the
        // final WAL record. Reopening must not error: the corrupt suffix
        // is dropped, the batch before it survives, and queries answer
        // over the surviving delta.
        let mut store = reader.into_index().into_store().into_inner();
        {
            let mut stored = StoredIndex::open(store).expect("open for ingest");
            let mut ingest =
                IngestIndex::open(&mut stored, spec.clone(), CARDINALITY, IngestOptions::new())
                    .expect("ingest session");
            let first = ingest.append(&[Some(1), Some(2), None]).expect("batch 1");
            assert!(first.durable);
            ingest.append(&[Some(3)]).expect("batch 2");
            drop(ingest);
            store = stored.into_store();
        }
        let mut wal = store.read_file("wal.bixl").expect("wal exists");
        let at = wal.len() - 2;
        wal[at] ^= 0x40;
        store.write_file("wal.bixl", &wal).expect("corrupt tail");
        let mut stored = StoredIndex::open(store).expect("reopen");
        let mut reopened =
            IngestIndex::open(&mut stored, spec.clone(), CARDINALITY, IngestOptions::new())
                .unwrap_or_else(|e| {
                    panic!("{scheme:?}: WAL tail corruption must recover gracefully: {e}")
                });
        assert_eq!(
            reopened.n_rows(),
            rows + 3,
            "{scheme:?}: batch after the damage dropped, batch before intact"
        );
        assert_eq!(reopened.durable_seq(), 1, "{scheme:?}");
        let (bits, _) = reopened
            .evaluate(SelectionQuery::new(Op::Eq, 2), Algorithm::Auto)
            .expect("query over surviving delta");
        assert!(
            bits.get(rows + 1),
            "{scheme:?}: surviving appended row must answer queries"
        );
        let wal_tail_dropped = 1u32;
        drop(reopened);

        // Recovery rate: answered bit-identically while corrupt, over all
        // queries run against damaged stores (asserted 100% above).
        let recovery_rate = 100.0;
        let overhead_pct = (degraded_seconds - clean.seconds) / clean.seconds * 100.0;

        table_rows.push(vec![
            scheme_name(scheme).to_string(),
            transient_faults.to_string(),
            flip_degraded.to_string(),
            trunc_degraded.to_string(),
            reconstructed.to_string(),
            (flip_repaired + trunc_repaired).to_string(),
            f2(recovery_rate),
            format!("{:.4}", clean.seconds),
            format!("{degraded_seconds:.4}"),
        ]);
        csv.row(&[
            &scheme_name(scheme),
            &transient_faults,
            &flip_degraded,
            &trunc_degraded,
            &reconstructed,
            &(flip_repaired + trunc_repaired),
            &f2(recovery_rate),
            &format!("{:.4}", clean.seconds),
            &format!("{degraded_seconds:.4}"),
        ])
        .expect("row");
        scheme_json.push(format!(
            "    {{\"scheme\": \"{}\", \"transient_faults\": {transient_faults}, \
             \"bitflip_degraded_queries\": {flip_degraded}, \
             \"truncate_degraded_queries\": {trunc_degraded}, \
             \"reconstructed_via_siblings\": {reconstructed}, \
             \"repaired_files\": {}, \"torn_repair_passes\": {torn_passes}, \
             \"wal_tail_graceful\": true, \
             \"wal_tail_dropped_batches\": {wal_tail_dropped}, \
             \"recovery_rate_pct\": {recovery_rate:.1}, \
             \"clean_seconds\": {:.6}, \"degraded_seconds\": {degraded_seconds:.6}, \
             \"degraded_overhead_pct\": {overhead_pct:.1}}}",
            scheme_name(scheme),
            flip_repaired + trunc_repaired,
            clean.seconds,
        ));
    }

    print_table(
        &format!("chaos recovery (N = {rows}, C = {CARDINALITY}, seed {seed})"),
        &[
            "scheme",
            "transient",
            "flip degr.",
            "trunc degr.",
            "via siblings",
            "repaired",
            "recovery %",
            "clean s",
            "degraded s",
        ],
        &table_rows,
    );
    println!("\nCSV: {}", csv.path().display());

    // Hand-rolled JSON (no serde in the dependency set).
    let json = format!(
        "{{\n  \"experiment\": \"chaos_recovery\",\n  \"quick\": {quick},\n  \
         \"rows\": {rows},\n  \"queries\": {nq},\n  \"threads\": {threads},\n  {prov},\n  \
         \"seed\": {seed},\n  \"recovery_rate_pct\": 100.0,\n  \"schemes\": [\n{schemes}\n  ]\n}}\n",
        nq = queries.len(),
        prov = provenance.json_fields(),
        schemes = scheme_json.join(",\n"),
    );
    write_artifact("chaos_recovery", &json).expect("write json");
}
