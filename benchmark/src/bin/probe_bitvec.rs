//! Layer probe for `bitvec`: trace level L5 — for every replayed query the
//! kernel calls the paper's cost model says its plan makes, on dense
//! bitmaps of the workload's length and nothing else — and the streaming
//! bandwidth of the fused kernels at fan-in 4.

use bbench::adapter::bitvec_probe::{self, Bits};
use bbench::adapter::served_segment_bits;
use bbench::costmodel::{self, BASE};
use bbench::probes::{emit, main_with, median_us, REPLAY_PASSES};
use bbench::query::Op;
use bbench::rng::Rng;
use bbench::trace::{parent_of, LEVELS};

/// Operands to draw from: enough that a chain never reuses one.
const OPERANDS: usize = 8;

fn main() {
    main_with(|args, rec| {
        if !args.workload.trace_levels().contains(&5) {
            return Ok(());
        }
        let rows = args.scale.rows(args.workload);
        let mut rng = Rng::new(args.seed, 0xB17);
        let operands: Vec<Bits> = (0..OPERANDS)
            .map(|_| {
                Bits::from_words(
                    (0..rows.div_ceil(64)).map(|_| rng.next_u64()).collect(),
                    rows,
                )
            })
            .collect();
        let window = if args.workload.is_served() {
            // The server evaluates in segments, the batch engine whole bitmaps.
            served_segment_bits()
        } else {
            rows
        };
        let mut sink = 0u64;
        let ops = args.ops();
        for (i, &q) in (0..REPLAY_PASSES).flat_map(|_| ops.iter().enumerate()) {
            let c = costmodel::cost(q);
            sink += rec.time(LEVELS[5].0, i as u32, parent_of(5), || match q.op {
                Op::Eq | Op::Ne => bitvec_probe::eq_chain(
                    &operands,
                    c.xors as usize,
                    (c.nots - u32::from(q.op == Op::Ne)) as usize,
                    1 + BASE.len(),
                    q.op == Op::Ne,
                    window,
                ),
                // `A < 0` / `A >= 0` read nothing: no kernel runs.
                _ if c.scans == 0 && c.ops() == 0 => 0,
                _ => bitvec_probe::le_chain(
                    &operands,
                    c.ands as usize,
                    c.ors as usize,
                    c.nots > 0,
                    window,
                ),
            });
        }
        std::hint::black_box(sink);
        emit("bitvec.kernel_us", rec.level_us(LEVELS[5].0).unwrap_or(0.0));

        // Input bytes streamed per call / time: 4 operands of rows/8 bytes.
        let input_gb = 4.0 * (rows / 8) as f64 / 1e9;
        let gbps = |f: fn(&[Bits]) -> u64| {
            let us = median_us(24, || {
                std::hint::black_box(f(std::hint::black_box(&operands)));
            });
            input_gb / (us / 1e6)
        };
        emit("bitvec.and_gbps", gbps(bitvec_probe::and4));
        emit("bitvec.or_gbps", gbps(bitvec_probe::or4));
        emit("bitvec.count_and_gbps", gbps(bitvec_probe::count_and4));
        emit(
            "bitvec.threshold_gbps",
            gbps(bitvec_probe::threshold_2_of_4),
        );
        Ok(())
    });
}
