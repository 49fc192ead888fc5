//! A batch's foundsets reuse the memory the previous batch dropped.
//!
//! Two identical 64-query selection batches run over a 2^21-row index
//! (256 KiB foundsets, above the spare list's 128 KiB floor). The first
//! writes its foundsets into fresh pages; once its answers are dropped,
//! their words sit on `bindex-bitvec`'s spare list, and the second batch
//! writes into them. The test counts the process's minor page faults
//! (`minflt`, field 10 of `/proc/self/stat`) around each batch: the second
//! must take under a tenth of the first's. No wall clock is involved.
//!
//! This file holds one test, so its binary runs nothing else whose faults
//! would be counted.

#![cfg(target_os = "linux")]

use bindex::core::eval::{naive, Algorithm};
use bindex::engine::batch::{evaluate_selection_workload, BatchOptions};
use bindex::relation::gen;
use bindex::relation::query::{Op, SelectionQuery};
use bindex::{Base, BitVec, BitmapIndex, Encoding, IndexSpec};

const ROWS: usize = 1 << 21;
const CARDINALITY: u32 = 1000;
const QUERIES: usize = 64;

/// Minor page faults taken by this process so far.
fn minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // Field 2 (the command name) is parenthesised and may hold spaces;
    // field 3 is the first after its closing parenthesis.
    let after_comm = &stat[stat.rfind(')').expect("comm field") + 1..];
    after_comm
        .split_whitespace()
        .nth(10 - 3)
        .and_then(|field| field.parse().ok())
        .expect("minflt field")
}

#[test]
fn a_second_batch_writes_its_foundsets_into_the_first_batchs_memory() {
    let column = gen::uniform(ROWS, CARDINALITY, 40);
    let spec = IndexSpec::new(Base::from_msb(&[10, 10, 10]).unwrap(), Encoding::Range);
    let index = BitmapIndex::build(&column, spec).unwrap();
    let ops = [Op::Le, Op::Lt, Op::Ge, Op::Gt, Op::Eq, Op::Ne];
    let queries: Vec<SelectionQuery> = (0..QUERIES)
        .map(|i| SelectionQuery::new(ops[i % ops.len()], (i as u32 * 337 + 11) % CARDINALITY))
        .collect();
    // The oracle's answers, computed once and held for the whole test.
    let want: Vec<BitVec> = queries
        .iter()
        .map(|q| naive::evaluate(&column, *q))
        .collect();
    let options = BatchOptions::with_threads(2);
    let batch = || {
        let before = minor_faults();
        let answers: Vec<BitVec> =
            evaluate_selection_workload(|| index.source(), &queries, Algorithm::Auto, &options)
                .into_results()
                .expect("every query succeeds")
                .into_iter()
                .map(|(found, _)| found)
                .collect();
        (minor_faults() - before, answers)
    };

    let (first_faults, first) = batch();
    assert_eq!(first, want);
    drop(first);
    let (second_faults, second) = batch();
    assert_eq!(second, want);

    // 64 fresh 256 KiB foundsets are 64 × 64 pages; the allocator may
    // place a few of them in memory the set-up freed.
    assert!(
        first_faults >= (QUERIES * 64 / 2) as u64,
        "the first batch took only {first_faults} faults"
    );
    assert!(
        second_faults * 10 < first_faults,
        "the second batch took {second_faults} faults, the first {first_faults}"
    );
}
