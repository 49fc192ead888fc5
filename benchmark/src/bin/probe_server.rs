//! Layer probe for `server`: trace level L1 (`ServedIndex::execute_any` on
//! a second instance over the run's directory, same tuning, reading
//! through a `CountingStore`), the wire around it, the codec and the
//! admission queue.

use std::sync::atomic::Ordering;

use bbench::adapter::server_probe::{self, BitmapResponse, Instance};
use bbench::probes::{emit, main_with, median_us, replay_level, REPLAY_PASSES};
use bbench::spec::Workload;
use bbench::stats;

fn main() {
    main_with(|args, rec| {
        let Some(dir) = &args.dir else {
            return Ok(()); // batch_scan has no server.
        };
        let column = args.column();
        let oracle = args.oracle(&column);
        let ops = args.ops();
        let instance = Instance::open(dir, args.workload.tuning())?;

        // Warm the instance the way the timed window's warm-up does, then
        // count only what the replay itself reads.
        for q in args.warm_ops() {
            instance.execute(q)?;
        }
        let c = &instance.counters;
        let before = (
            c.reads.load(Ordering::Relaxed),
            c.bytes_read.load(Ordering::Relaxed),
            c.read_busy_ns.load(Ordering::Relaxed),
        );
        let l1 = replay_level(rec, 1, args, &oracle, |q| instance.execute(q))?;
        let reads = c.reads.load(Ordering::Relaxed) - before.0;
        let bytes = c.bytes_read.load(Ordering::Relaxed) - before.1;
        let busy_ns = c.read_busy_ns.load(Ordering::Relaxed) - before.2;
        emit("server.execute_us", l1);
        emit("store.reads", reads as f64);
        emit("store.bytes_read", bytes as f64);
        emit("store.read_busy_ms", busy_ns as f64 / 1e6);
        // The counters also saw replay_level's own warm-up and every pass.
        let queries = (args.warm_ops().len() + REPLAY_PASSES * ops.len()) as f64;
        emit("storage.reads_per_query", reads as f64 / queries);
        emit("storage.bytes_read_per_query", bytes as f64 / queries);

        // The same count queries over this instance's own socket: what the
        // connection thread, the queue and the codec add to L1.
        let mut conn = instance.connect()?;
        let mut wire = Vec::with_capacity(ops.len());
        for &q in &ops {
            let start = std::time::Instant::now();
            let reply = conn.query(q, false)?;
            wire.push(start.elapsed().as_secs_f64() * 1e6);
            match reply {
                bbench::adapter::Reply::Count(got) if got == oracle.count(q) => {}
                _ => return Err(format!("wire replay: wrong answer for {q:?}")),
            }
        }
        emit("server.request_overhead_us", stats::median(&wire) - l1);
        emit(
            "server.ping_rtt_us",
            median_us(1000, || server_probe::ping(&mut conn).expect("ping")),
        );
        drop(conn);
        instance.shutdown();

        let handoffs: Vec<f64> = server_probe::queue_handoffs(2000)
            .iter()
            .map(|ns| *ns as f64 / 1e3)
            .collect();
        emit("server.queue_handoff_us", stats::median(&handoffs));
        let mut i = 0;
        emit(
            "server.codec_req_us",
            median_us(2000, || {
                server_probe::codec_request(ops[i % ops.len()]);
                i += 1;
            }),
        );
        emit(
            "server.codec_resp_count_us",
            median_us(2000, || {
                server_probe::codec_count_response(123_456);
            }),
        );
        if args.workload == Workload::ServeHot {
            let rows = column.values().len();
            let response = BitmapResponse::new(rows as u64, column.naive_words(ops[0]));
            emit(
                "server.codec_resp_bitmap_us",
                median_us(200, || {
                    response.round_trip();
                }),
            );
        }
        Ok(())
    });
}
