//! **Extension** — Fault tolerance in action: retry behaviour under
//! injected transient faults and a scrub audit of a deliberately corrupted
//! store. (What the checksummed frame costs per read is measured directly
//! by the `benchmark/` probes `storage.crc_mbps` and
//! `storage.read_repr_us`.)

use bindex::compress::CodecKind;
use bindex::core::eval::{evaluate, naive, Algorithm};
use bindex::relation::{gen, query};
use bindex::storage::{ByteStore, FaultPlan, FaultStore, MemStore, StorageScheme, StoredIndex};
use bindex::stored::{persist_index, SharedSource};
use bindex::{Base, BitmapIndex, Encoding, IndexSpec};
use bindex_bench::{results_dir, RunProvenance};

const N_ROWS: usize = 100_000;
const CARDINALITY: u32 = 50;

fn main() {
    let column = gen::uniform(N_ROWS, CARDINALITY, 7);
    let spec = IndexSpec::new(Base::from_msb(&[8, 7]).unwrap(), Encoding::Range);
    let idx = BitmapIndex::build(&column, spec.clone()).unwrap();
    let queries = query::full_space(CARDINALITY);

    // -- Part 1: retry behaviour under injected transient faults ----------
    let store = persist_index(
        &idx,
        MemStore::new(),
        StorageScheme::BitmapLevel,
        CodecKind::None,
    )
    .unwrap()
    .into_store();
    let faulty = FaultStore::new(store, FaultPlan::new(42).with_transient_every_nth_read(5));
    let stored = StoredIndex::open(faulty).unwrap();
    let mut src = SharedSource::try_unpooled(&stored, spec.clone()).unwrap();
    let mut correct = 0usize;
    for &q in &queries {
        let (found, _) = evaluate(&mut src, q, Algorithm::RangeEvalOpt)
            .expect("transient faults must be retried, not surfaced");
        if found == naive::evaluate(&column, q) {
            correct += 1;
        }
    }
    let injected = stored.store().counters();
    let retries = stored.stats().retries;
    println!("== Retry under transient faults (every 5th read fails once) ==");
    println!(
        "queries: {} ({correct} correct), reads: {}, injected transient errors: {}, retries: {}",
        queries.len(),
        stored.stats().reads,
        injected.transient_errors,
        stored.stats().retries,
    );
    assert_eq!(correct, queries.len(), "every query must survive retry");

    // -- Part 2: scrub audit of a corrupted store --------------------------
    let mut store = persist_index(
        &idx,
        MemStore::new(),
        StorageScheme::BitmapLevel,
        CodecKind::None,
    )
    .unwrap()
    .into_store();
    let names = store.file_names().unwrap();
    let mut corrupted = 0;
    for name in names.iter().filter(|n| n.ends_with(".bmp")).step_by(4) {
        let mut data = store.read_file(name).unwrap();
        let mid = data.len() / 2;
        data[mid] ^= 0x10;
        store.write_file(name, &data).unwrap();
        corrupted += 1;
    }
    let mut stored = StoredIndex::open(store).unwrap();
    let report = stored.scrub().unwrap();
    println!("\n== Scrub of a store with {corrupted} silently corrupted files ==");
    println!(
        "files checked: {}, failures found: {}",
        report.files_checked,
        report.failures.len()
    );
    for f in &report.failures {
        println!("  {}: {}", f.file, f.error);
    }
    assert_eq!(
        report.failures.len(),
        corrupted,
        "scrub must find every corrupt file"
    );

    // Hand-rolled JSON (no serde in the dependency set).
    let provenance = RunProvenance::capture(1);
    let json = format!(
        "{{\n  \"experiment\": \"fault_tolerance\",\n  {prov},\n  \
         \"rows\": {N_ROWS},\n  \"queries\": {nq},\n  \
         \"transient_errors_injected\": {injected},\n  \"retries\": {retries},\n  \
         \"scrub_files_checked\": {checked},\n  \"scrub_failures_found\": {found},\n  \
         \"corrupted_files\": {corrupted}\n}}\n",
        prov = provenance.json_fields(),
        nq = queries.len(),
        injected = injected.transient_errors,
        checked = report.files_checked,
        found = report.failures.len(),
    );
    let json_path = results_dir()
        .parent()
        .map(|p| p.join("BENCH_fault_tolerance.json"))
        .expect("results dir has a parent");
    std::fs::write(&json_path, json).expect("write json");
    println!("JSON: {}", json_path.display());
}
