//! Layer probe for `storage`: uncached `SharedIndexReader::read_repr`
//! (file read + CRC + bytes to words) over every stored slot, and the
//! checksum on its own.

use bbench::adapter::storage_probe::{self, Unpooled};
use bbench::costmodel::BASE;
use bbench::probes::{emit, main_with, median_us};
use bbench::stats;

/// Passes over the 27 slots.
const PASSES: usize = 8;

fn main() {
    main_with(|args, _rec| {
        let Some(dir) = &args.dir else {
            return Ok(()); // batch_scan has no store.
        };
        let reader = Unpooled::open(dir)?;
        let mut per_read_us = Vec::new();
        let start = std::time::Instant::now();
        for _ in 0..PASSES {
            for (c, &b) in BASE.iter().enumerate() {
                for slot in 0..(b as usize - 1) {
                    let t = std::time::Instant::now();
                    reader.read_repr(c + 1, slot)?;
                    per_read_us.push(t.elapsed().as_secs_f64() * 1e6);
                }
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        emit("storage.read_repr_us", stats::median(&per_read_us));
        emit(
            "storage.read_mbps",
            reader.bytes_read() as f64 / 1e6 / elapsed,
        );

        // One literal slot's worth of bytes, the unit the reader checksums.
        let bytes = (args.scale.rows(args.workload) / 8).max(4096);
        let data: Vec<u8> = (0..bytes).map(|i| (i * 31 + i / 7) as u8).collect();
        let us = median_us(32, || {
            std::hint::black_box(storage_probe::crc(std::hint::black_box(&data)));
        });
        emit("storage.crc_mbps", bytes as f64 / us);
        Ok(())
    });
}
