//! Layer probe for `core`: trace level L4, evaluation over an in-memory
//! `ExecContext` — no server, no engine, no store — in the mode and over
//! the source the workload's upper levels use, the other mode and the
//! other source beside it, and the exact scan and operation counts against
//! the paper's cost model.

use bbench::adapter::core_probe::{Bitmaps, Source};
use bbench::adapter::{served_segment_bits, MemIndex, PlanStats};
use bbench::costmodel;
use bbench::probes::{emit, main_with, median_us, replay_level, REPLAY_PASSES};
use bbench::spec::Workload;

fn main() {
    main_with(|args, rec| {
        let column = args.column();
        let oracle = args.oracle(&column);
        let ops = args.ops();
        let bitmaps = Bitmaps::new(MemIndex::build(&column)?);
        // Under the server: segmented, bitmaps shared by reference count
        // (a warm pool hands out `Arc`s). Under the batch engine: whole
        // bitmaps over `MemorySource`, which clones each one it fetches.
        let (source, other_source, segment_bits, other_bits) = if args.workload.is_served() {
            (
                Source::Shared,
                Source::Copying,
                Some(served_segment_bits()),
                None,
            )
        } else {
            (
                Source::Copying,
                Source::Shared,
                None,
                Some(served_segment_bits()),
            )
        };
        let mut plan = PlanStats::default();
        let l4 = replay_level(rec, 4, args, &oracle, |q| {
            let (count, stats) = bitmaps.eval(q, source, segment_bits)?;
            plan.add(&stats);
            Ok(count)
        })?;
        let replay = |source, bits| {
            let mut i = 0;
            median_us(ops.len(), || {
                bitmaps
                    .eval(ops[i], source, bits)
                    .expect("evaluated once already");
                i += 1;
            })
        };
        // The plan counters also saw replay_level's warm-up and every pass.
        let counted: Vec<_> = args
            .warm_ops()
            .into_iter()
            .chain((0..REPLAY_PASSES).flat_map(|_| ops.iter().copied()))
            .collect();
        let n = counted.len() as f64;
        emit("core.eval_us", l4);
        emit("core.eval_other_mode_us", replay(source, other_bits));
        emit(
            "core.eval_other_source_us",
            replay(other_source, segment_bits),
        );
        emit("core.scans_per_query", plan.scans as f64 / n);
        emit("core.ops_per_query", plan.ops as f64 / n);
        emit(
            "core.segments_skipped_per_query",
            plan.segments_skipped as f64 / n,
        );

        // A column without nulls or deletes must cost exactly what the
        // paper's model says; anything else is a plan change.
        if args.workload != Workload::IngestMixed {
            let model = counted.iter().fold((0u64, 0u64), |(s, o), &q| {
                let c = costmodel::cost(q);
                (s + u64::from(c.scans), o + u64::from(c.ops()))
            });
            if model != (plan.scans, plan.ops) {
                return Err(format!(
                    "plan differs from the paper's cost model: measured {} scans / {} ops, model {} / {}",
                    plan.scans, plan.ops, model.0, model.1
                ));
            }
        }
        Ok(())
    });
}
