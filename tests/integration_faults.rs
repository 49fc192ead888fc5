//! End-to-end fault-tolerance tests: full query evaluation driven through
//! a [`FaultStore`] injecting transient errors, silent bit flips, torn
//! writes, and truncations, across all three storage schemes and multiple
//! codecs. The contract under test: every injected fault yields either the
//! correct answer (after bounded retry) or a typed error — never a panic
//! and never a silently wrong bitmap.

use bindex::compress::CodecKind;
use bindex::core::eval::{evaluate, naive, Algorithm};
use bindex::core::Error;
use bindex::relation::query::{Op, SelectionQuery};
use bindex::relation::{gen, Column};
use bindex::storage::{ByteStore, FaultPlan, FaultStore, MemStore, StorageScheme, StoredIndex};
use bindex::stored::{persist_index, SharedSource};
use bindex::{Base, BitmapIndex, Encoding, IndexSpec};

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
    IndexSpec::new(Base::from_msb(&[5, 6]).unwrap(), Encoding::Range)
}

/// Persists the index and hands back the bare byte store.
fn persisted(scheme: StorageScheme, codec: CodecKind) -> (Column, MemStore) {
    let col = column();
    let idx = BitmapIndex::build(&col, spec()).unwrap();
    let stored = persist_index(&idx, MemStore::new(), scheme, codec).unwrap();
    (col, stored.into_store())
}

/// A substring matching that scheme's payload files but not the manifest.
fn data_pattern(scheme: StorageScheme) -> &'static str {
    match scheme {
        StorageScheme::BitmapLevel => ".bmp",
        StorageScheme::ComponentLevel => ".cmp",
        StorageScheme::IndexLevel => "index.bix",
    }
}

/// Queries that certainly touch stored bitmaps (no trivial edges).
fn probing_queries() -> Vec<SelectionQuery> {
    vec![
        SelectionQuery::new(Op::Le, 13),
        SelectionQuery::new(Op::Eq, 17),
        SelectionQuery::new(Op::Gt, 4),
        SelectionQuery::new(Op::Ne, 29),
    ]
}

#[test]
fn transient_faults_are_retried_to_the_correct_answer() {
    for scheme in SCHEMES {
        for codec in CODECS {
            let (col, store) = persisted(scheme, codec);
            // Every 3rd read fails once; the immediate retry (read 3k+1)
            // succeeds, well within the default 3-attempt policy.
            let faulty = FaultStore::new(store, FaultPlan::new(9).with_transient_every_nth_read(3));
            let stored = StoredIndex::open(faulty).unwrap();
            let mut src = SharedSource::try_unpooled(&stored, spec()).unwrap();
            for q in probing_queries() {
                let (got, _) = evaluate(&mut src, q, Algorithm::Auto)
                    .unwrap_or_else(|e| panic!("{scheme:?}/{codec:?} {q}: {e}"));
                assert_eq!(got, naive::evaluate(&col, q), "{scheme:?}/{codec:?} {q}");
            }
            let injected = stored.store().counters().transient_errors;
            assert!(injected > 0, "{scheme:?}/{codec:?}: no fault ever fired");
            assert_eq!(
                stored.stats().retries,
                injected,
                "{scheme:?}/{codec:?}: every transient error must be matched by a retry"
            );
        }
    }
}

#[test]
fn transient_faults_beyond_the_policy_surface_as_storage_errors() {
    let (_, store) = persisted(StorageScheme::BitmapLevel, CodecKind::None);
    // Ten consecutive failures on one bitmap exhaust the 3-attempt policy.
    let faulty = FaultStore::new(store, FaultPlan::new(3).with_transient_reads("c1_b0", 10));
    let stored = StoredIndex::open(faulty).unwrap();
    let mut src = SharedSource::try_unpooled(&stored, spec()).unwrap();
    // Eq 0 must read c1_b0 under range encoding.
    match evaluate(&mut src, SelectionQuery::new(Op::Eq, 0), Algorithm::Auto) {
        Err(Error::Storage(msg)) => assert!(msg.contains("injected"), "{msg}"),
        other => panic!("expected Storage error, got {other:?}"),
    }
}

#[test]
fn bit_flips_yield_typed_errors_never_wrong_answers() {
    for scheme in SCHEMES {
        for codec in CODECS {
            let (col, store) = persisted(scheme, codec);
            let faulty = FaultStore::new(
                store,
                FaultPlan::new(11).with_bit_flip(data_pattern(scheme)),
            );
            let stored = StoredIndex::open(faulty).unwrap();
            let mut src = SharedSource::try_unpooled(&stored, spec()).unwrap();
            for q in probing_queries() {
                match evaluate(&mut src, q, Algorithm::Auto) {
                    // A flip in the payload is a checksum mismatch; one in
                    // the frame header is structural corruption. Both are
                    // typed, permanent errors.
                    Err(Error::ChecksumMismatch(_)) | Err(Error::Storage(_)) => {}
                    Err(other) => panic!("{scheme:?}/{codec:?} {q}: unexpected error {other}"),
                    Ok((got, _)) => panic!(
                        "{scheme:?}/{codec:?} {q}: corrupt read returned an answer \
                         (correct: {})",
                        got == naive::evaluate(&col, q)
                    ),
                }
            }
            assert!(stored.store().counters().bit_flips > 0);
        }
    }
}

#[test]
fn truncated_reads_yield_clean_errors() {
    for scheme in SCHEMES {
        for codec in CODECS {
            let (_, store) = persisted(scheme, codec);
            for keep in [0, 5, 25] {
                let faulty = FaultStore::new(
                    store.clone(),
                    FaultPlan::new(13).with_truncated_reads(data_pattern(scheme), keep),
                );
                let stored = StoredIndex::open(faulty).unwrap();
                let mut src = SharedSource::try_unpooled(&stored, spec()).unwrap();
                for q in probing_queries() {
                    match evaluate(&mut src, q, Algorithm::Auto) {
                        Err(Error::Storage(_)) | Err(Error::ChecksumMismatch(_)) => {}
                        other => panic!("{scheme:?}/{codec:?} keep={keep} {q}: {other:?}"),
                    }
                }
            }
        }
    }
}

#[test]
fn torn_manifest_write_fails_open_cleanly() {
    let col = column();
    let idx = BitmapIndex::build(&col, spec()).unwrap();
    // The torn write clips the manifest mid-file at persist time.
    let faulty = FaultStore::new(
        MemStore::new(),
        FaultPlan::new(17).with_torn_writes("manifest", 1),
    );
    let stored = persist_index(&idx, faulty, StorageScheme::BitmapLevel, CodecKind::None).unwrap();
    assert_eq!(stored.store().counters().torn_writes, 1);
    let store = stored.into_store().into_inner();
    match StoredIndex::open(store) {
        Err(e) => assert!(!e.is_transient(), "torn write must be permanent: {e}"),
        Ok(_) => panic!("torn manifest must not open"),
    }
}

#[test]
fn scrub_pinpoints_silent_corruption_in_every_scheme() {
    for scheme in SCHEMES {
        let (_, mut store) = persisted(scheme, CodecKind::Deflate);
        // Corrupt one payload byte of every data file behind the index's back.
        let mut corrupted = Vec::new();
        for name in store.file_names().unwrap() {
            if name.contains(data_pattern(scheme)) {
                let mut data = store.read_file(&name).unwrap();
                let last = data.len() - 1;
                data[last] ^= 0x40;
                store.write_file(&name, &data).unwrap();
                corrupted.push(name);
            }
        }
        corrupted.sort();
        let mut stored = StoredIndex::open(store).unwrap();
        let report = stored.scrub().unwrap();
        let mut found: Vec<String> = report.failures.iter().map(|f| f.file.clone()).collect();
        found.sort();
        assert_eq!(found, corrupted, "{scheme:?}");
        assert!(
            report.files_checked > report.failures.len(),
            "manifest is clean"
        );
    }
}

#[test]
fn clean_faultstore_changes_nothing() {
    for scheme in SCHEMES {
        let (col, store) = persisted(scheme, CodecKind::None);
        let faulty = FaultStore::new(store, FaultPlan::new(1));
        let stored = StoredIndex::open(faulty).unwrap();
        let mut src = SharedSource::try_unpooled(&stored, spec()).unwrap();
        for q in probing_queries() {
            let (got, _) = evaluate(&mut src, q, Algorithm::Auto).unwrap();
            assert_eq!(got, naive::evaluate(&col, q));
        }
        assert_eq!(stored.store().counters().total(), 0);
        assert_eq!(stored.stats().retries, 0);
    }
}
