//! Layer probe for `bindex` (the glue crate): trace level L3,
//! `evaluate_segmented_in` over `ExecContext<SharedSource>` with the
//! server's pool size, plus the ingest path (`IngestIndex::append` and
//! `compact` on a copy of the store, through a `CountingStore`).

use std::sync::atomic::Ordering;

use bbench::adapter::bindex_probe::{self, Stored};
use bbench::adapter::{served_segment_bits, PlanStats};
use bbench::env::{copy_dir, Scratch};
use bbench::probes::{emit, main_with, replay_level, REPLAY_PASSES};
use bbench::spec::{self, Workload, INGEST_BATCH_ROWS};
use bbench::trace::INGEST_SPANS;

/// Ingest batches replayed on the scratch copy.
const INGEST_REPLAYS: usize = 8;

fn main() {
    main_with(|args, rec| {
        let Some(dir) = &args.dir else {
            return Ok(()); // batch_scan has no store.
        };
        let column = args.column();
        let oracle = args.oracle(&column);
        let ops = args.ops();
        let segment_bits = served_segment_bits();
        let stored = Stored::open(dir, args.workload.tuning().effective_pool())?;
        for q in args.warm_ops() {
            stored.eval(q, segment_bits)?;
        }
        let pool_before = stored.pool_stats();
        let mut plan = PlanStats::default();
        let l3 = replay_level(rec, 3, args, &oracle, |q| {
            let (count, stats) = stored.eval(q, segment_bits)?;
            plan.add(&stats);
            Ok(count)
        })?;
        let pool = stored.pool_stats();
        let (hits, misses) = (pool.0 - pool_before.0, pool.1 - pool_before.1);
        // The counters also saw replay_level's own warm-up and every pass.
        let n = (args.warm_ops().len() + REPLAY_PASSES * ops.len()) as f64;
        emit("bindex.source_eval_us", l3);
        emit(
            "storage.pool_hit_ratio",
            if hits + misses == 0 {
                0.0
            } else {
                hits as f64 / (hits + misses) as f64
            },
        );
        emit("storage.pool_evictions", (pool.2 - pool_before.2) as f64);
        emit(
            "core.materializations_per_query",
            plan.materializations as f64 / n,
        );
        emit(
            "core.compressed_ops_per_query",
            plan.compressed_ops as f64 / n,
        );
        emit(
            "core.segments_pruned_per_query",
            plan.segments_pruned as f64 / n,
        );
        drop(stored);

        if args.workload == Workload::IngestMixed {
            let scratch = Scratch::new("probe-ingest").map_err(|e| e.to_string())?;
            copy_dir(dir, scratch.path()).map_err(|e| e.to_string())?;
            let all = spec::append_batches(args.seed, args.acked + INGEST_REPLAYS);
            let counters = bindex_probe::replay_ingest(scratch.path(), &all[args.acked..], rec)?;
            let median_ms = |span: &str| rec.median_us(span).map_or(0.0, |us| us / 1e3);
            emit("bindex.ingest_commit_ms", median_ms(INGEST_SPANS[1]));
            emit("bindex.compact_ms", median_ms(INGEST_SPANS[2]));
            let written = counters.bytes_written.load(Ordering::Relaxed);
            let user_bytes = (INGEST_REPLAYS * INGEST_BATCH_ROWS * 4) as f64;
            emit(
                "store.writes",
                counters.writes.load(Ordering::Relaxed) as f64,
            );
            emit(
                "store.appends",
                counters.appends.load(Ordering::Relaxed) as f64,
            );
            emit("store.syncs", counters.syncs.load(Ordering::Relaxed) as f64);
            emit("store.bytes_written", written as f64);
            emit(
                "store.write_busy_ms",
                counters.write_busy_ns.load(Ordering::Relaxed) as f64 / 1e6,
            );
            emit(
                "store.bytes_written_per_user_byte",
                written as f64 / user_bytes,
            );
        }
        Ok(())
    });
}
