//! Layer probe for `engine`: trace level L2, a one-query
//! `evaluate_selection_workload` — over a `SharedSource` on the run's
//! directory for the served workloads, over the in-memory source for
//! `batch_scan`.

use bbench::adapter::engine_probe::{self, Stored};
use bbench::adapter::MemIndex;
use bbench::probes::{emit, main_with, replay_level};

fn main() {
    main_with(|args, rec| {
        let column = args.column();
        let oracle = args.oracle(&column);
        let l2 = match &args.dir {
            Some(dir) => {
                let stored = Stored::open(dir, args.workload.tuning().effective_pool())?;
                replay_level(rec, 2, args, &oracle, |q| stored.single_query(q))?
            }
            None => {
                let index = MemIndex::build(&column)?;
                replay_level(rec, 2, args, &oracle, |q| {
                    engine_probe::single_query_mem(&index, q)
                })?
            }
        };
        emit("engine.single_query_us", l2);
        Ok(())
    });
}
