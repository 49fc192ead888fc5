//! Layer probe for `compress`: how many stored slots are WAH-coded, how
//! well they compress, and how fast they decode and AND in the compressed
//! domain. All zero on the uniform workloads, whose slots are literal.

use bbench::adapter::compress_probe;
use bbench::probes::{emit, main_with, median_us};

fn main() {
    main_with(|args, _rec| {
        let Some(dir) = &args.dir else {
            return Ok(()); // batch_scan has no store.
        };
        let (slots, _total) = compress_probe::wah_slots(dir)?;
        emit("compress.wah_slots", slots.len() as f64);
        if slots.is_empty() {
            return Ok(());
        }
        let compressed: usize = slots.iter().map(|s| s.compressed_bytes()).sum();
        let literal: usize = slots.iter().map(|s| s.literal_bytes()).sum();
        emit(
            "compress.wah_ratio",
            literal as f64 / compressed.max(1) as f64,
        );
        let us = median_us(16, || {
            for s in &slots {
                std::hint::black_box(s.decode());
            }
        });
        emit("compress.wah_decode_mbps", literal as f64 / us);
        let mut i = 0;
        emit(
            "compress.wah_and_us",
            median_us(256, || {
                let (a, b) = (&slots[i % slots.len()], &slots[(i + 1) % slots.len()]);
                std::hint::black_box(a.and(b));
                i += 1;
            }),
        );
        Ok(())
    });
}
