//! Closes the chain *closed-form formula → digit-level predictor →
//! measured implementation*: predicted scan counts must equal measured
//! scan counts for every query, and the analytic expected-scan formulas
//! must equal the workload averages.

use bindex::compress::CodecKind;
use bindex::core::cost;
use bindex::core::eval::{evaluate, evaluate_in, Algorithm};
use bindex::core::{buffer, BufferSet, ExecContext};
use bindex::relation::{gen, query};
use bindex::storage::{MemStore, ShardedPool, SharedIndexReader, StorageScheme};
use bindex::stored::{persist_index, SharedSource};
use bindex::{Base, BitmapIndex, Encoding, IndexSpec};

fn test_bases() -> Vec<Base> {
    [
        vec![9u32],
        vec![3, 3],
        vec![2, 5],
        vec![4, 3, 2],
        vec![2, 2, 2, 2],
        vec![5, 4, 3],
        vec![16],
    ]
    .into_iter()
    .map(|msb| Base::from_msb(&msb).unwrap())
    .collect()
}

#[test]
fn predicted_scans_equal_measured_scans_range_encoding() {
    for base in test_bases() {
        let c = base.product() as u32;
        let col = gen::uniform(128, c, 77);
        let idx = BitmapIndex::build(&col, IndexSpec::new(base.clone(), Encoding::Range)).unwrap();
        for q in query::full_space(c) {
            for (algo, name) in [
                (Algorithm::RangeEvalOpt, "opt"),
                (Algorithm::RangeEval, "range-eval"),
            ] {
                let (_, stats) = evaluate(&mut idx.source(), q, algo).unwrap();
                assert_eq!(
                    stats.scans,
                    cost::predicted_scans(&base, q, algo),
                    "{name} base={base} {q}"
                );
            }
        }
    }
}

#[test]
fn predicted_scans_equal_measured_scans_equality_encoding() {
    for base in test_bases() {
        let c = base.product() as u32;
        let col = gen::uniform(128, c, 78);
        let idx =
            BitmapIndex::build(&col, IndexSpec::new(base.clone(), Encoding::Equality)).unwrap();
        for q in query::full_space(c) {
            let (_, stats) = evaluate(&mut idx.source(), q, Algorithm::EqualityEval).unwrap();
            assert_eq!(
                stats.scans,
                cost::predicted_scans(&base, q, Algorithm::EqualityEval),
                "base={base} {q}"
            );
        }
    }
}

#[test]
fn expected_scans_match_measured_average() {
    for base in test_bases() {
        let c = base.product() as u32;
        let col = gen::uniform(64, c, 79);
        let queries = query::full_space(c);
        for (encoding, algo) in [
            (Encoding::Range, Algorithm::RangeEvalOpt),
            (Encoding::Equality, Algorithm::EqualityEval),
        ] {
            let idx = BitmapIndex::build(&col, IndexSpec::new(base.clone(), encoding)).unwrap();
            let mut total = 0usize;
            for &q in &queries {
                total += evaluate(&mut idx.source(), q, algo).unwrap().1.scans;
            }
            let measured = total as f64 / queries.len() as f64;
            let analytic = cost::expected_scans(&base, c, algo);
            assert!(
                (measured - analytic).abs() < 1e-9,
                "base={base} {encoding:?}: measured {measured} vs analytic {analytic}"
            );
        }
    }
}

#[test]
fn paper_closed_form_tracks_exact_expectation() {
    for base in test_bases() {
        let c = base.product() as u32;
        let exact = cost::expected_scans(&base, c, Algorithm::RangeEvalOpt);
        let paper = cost::time_range_paper(&base);
        // Exact = paper − (n−1)/(3C) (the <-shift boundary term).
        let correction = (base.n_components() as f64 - 1.0) / (3.0 * f64::from(c));
        assert!(
            (paper - correction - exact).abs() < 1e-9,
            "base={base}: paper {paper}, exact {exact}, correction {correction}"
        );
    }
}

#[test]
fn buffered_measurement_matches_buffered_predictor() {
    let base = Base::from_msb(&[4, 5, 3]).unwrap();
    let c = base.product() as u32;
    let col = gen::uniform(64, c, 80);
    let idx = BitmapIndex::build(&col, IndexSpec::new(base.clone(), Encoding::Range)).unwrap();
    for m in [0u64, 1, 3, 6] {
        let f = buffer::optimal_assignment(&base, m);
        let set: BufferSet = buffer::buffer_set(&f);
        let mut total = 0usize;
        let queries = query::full_space(c);
        for &q in &queries {
            let mut source = idx.source();
            let mut ctx = ExecContext::with_buffer(&mut source, &set);
            evaluate_in(&mut ctx, q, Algorithm::RangeEvalOpt).unwrap();
            let stats = ctx.take_stats();
            assert_eq!(
                stats.scans,
                cost::predicted_scans_range_opt_buffered(&base, &f, q),
                "m={m} {q}"
            );
            total += stats.scans;
        }
        let measured = total as f64 / queries.len() as f64;
        let analytic = cost::expected_scans_buffered(&base, &f, c);
        assert!((measured - analytic).abs() < 1e-9, "m={m}");
    }
}

/// Theorem 10.1, served: a seeded uniform stream over `Q` through a
/// reader whose 8-bitmap pool ranks keys by reference count. Once warm,
/// the pool holds the optimal keep-set, so its misses per query — the
/// store reads — match the buffered predictor for `optimal_assignment`.
/// The second base is Theorem 10.2's time-optimal index for the same
/// budget.
#[test]
fn served_pool_reads_match_theorem_10_1() {
    const C: u32 = 1000;
    const M: u64 = 8;
    const WARM: usize = 2_000;
    const MEASURED: usize = 20_000;
    let (theorem_10_2, _) = buffer::time_optimal_buffered(C, M).unwrap();
    for base in [Base::from_msb(&[10, 10, 10]).unwrap(), theorem_10_2] {
        let spec = IndexSpec::new(base.clone(), Encoding::Range);
        let idx = BitmapIndex::build(&gen::uniform(256, C, 81), spec.clone()).unwrap();
        let stored = persist_index(
            &idx,
            MemStore::new(),
            StorageScheme::BitmapLevel,
            CodecKind::None,
        )
        .unwrap();
        let reader = SharedIndexReader::with_pool(stored, ShardedPool::new(M as usize, 8));
        let mut src = SharedSource::try_new(&reader, spec).unwrap();
        let stream = query::sample(C, WARM + MEASURED, 82);
        let (warm, measured) = stream.split_at(WARM);
        for &q in warm {
            evaluate(&mut src, q, Algorithm::RangeEvalOpt).unwrap();
        }
        let before = reader.pool_stats().unwrap().misses;
        for &q in measured {
            evaluate(&mut src, q, Algorithm::RangeEvalOpt).unwrap();
        }
        let misses = reader.pool_stats().unwrap().misses - before;
        let served = misses as f64 / MEASURED as f64;
        let f = buffer::optimal_assignment(&base, M);
        let predicted = cost::expected_scans_buffered(&base, &f, C);
        assert!(
            (served / predicted - 1.0).abs() <= 0.03,
            "{base}: served {served} reads per query vs {predicted} predicted for {f:?}"
        );
    }
}

#[test]
fn buffer_hits_reduce_scans_monotonically() {
    let base = Base::from_msb(&[6, 7]).unwrap();
    let c = base.product() as u32;
    let mut prev = f64::INFINITY;
    for m in 0..=11u64 {
        let f = buffer::optimal_assignment(&base, m);
        let t = cost::expected_scans_buffered(&base, &f, c);
        assert!(t <= prev + 1e-12, "m={m}: {t} > {prev}");
        prev = t;
    }
    assert!(prev.abs() < 1e-12, "fully buffered index still scans");
}
