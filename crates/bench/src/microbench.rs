//! A minimal micro-benchmark harness with a Criterion-shaped API.
//!
//! The build environment has no network access to a crates registry, so
//! the `benches/` targets use this in-repo harness instead of Criterion:
//! same `benchmark_group` / `bench_function` / `iter` / `iter_batched`
//! call shapes, but a deliberately simple measurement loop (calibrate,
//! take a few samples, report the best beside their median and range)
//! printing one line per benchmark. The best alone misleads: one
//! `wah_fold_count` line read 11.7–20.0 µs over three back-to-back runs,
//! so read a difference only off lines whose ranges do not overlap.

use std::hint::black_box;
use std::time::Instant;

/// How batched inputs are grouped per measurement (API compatibility;
/// this harness times every routine call individually regardless).
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per routine call.
    PerIteration,
}

/// Declared per-iteration work, used to report a rate next to the time.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// Top-level harness handle (one per process).
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Creates a harness.
    pub fn new() -> Self {
        Self::default()
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        println!("\n== {name} ==");
        BenchmarkGroup {
            _criterion: self,
            name: name.to_string(),
            throughput: None,
            sample_size: 5,
        }
    }
}

/// A named group of benchmarks sharing throughput/sample settings.
pub struct BenchmarkGroup<'a> {
    _criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Declares per-iteration work for rate reporting.
    pub fn throughput(&mut self, t: Throughput) {
        self.throughput = Some(t);
    }

    /// Number of samples per benchmark (the best, the median and the
    /// range are reported).
    pub fn sample_size(&mut self, n: usize) {
        self.sample_size = n.max(1);
    }

    /// Runs one benchmark.
    pub fn bench_function(&mut self, id: impl AsRef<str>, mut f: impl FnMut(&mut Bencher)) {
        let mut b = Bencher {
            sample_size: self.sample_size,
            samples_ns: Vec::new(),
        };
        f(&mut b);
        let mut samples = b.samples_ns;
        samples.sort_by(f64::total_cmp);
        let sample = |i: usize| samples.get(i).copied().unwrap_or(f64::INFINITY);
        let (ns, median, max) = (
            sample(0),
            sample(samples.len() / 2),
            sample(samples.len().saturating_sub(1)),
        );
        let rate = match self.throughput {
            Some(Throughput::Bytes(bytes)) if ns > 0.0 => {
                let mib_s = bytes as f64 / (ns * 1e-9) / (1024.0 * 1024.0);
                format!("  ({mib_s:.1} MiB/s)")
            }
            Some(Throughput::Elements(elems)) if ns > 0.0 => {
                let e_s = elems as f64 / (ns * 1e-9);
                format!("  ({e_s:.0} elem/s)")
            }
            _ => String::new(),
        };
        println!(
            "{}/{}: {:.0} ns/iter (median {:.0}, range {:.0}–{:.0}){}",
            self.name,
            id.as_ref(),
            ns,
            median,
            ns,
            max,
            rate
        );
    }

    /// Ends the group (no-op; kept for API familiarity).
    pub fn finish(self) {}
}

/// Passed to the benchmark closure; runs and times the measured routine.
pub struct Bencher {
    sample_size: usize,
    /// Time per iteration of each sample.
    samples_ns: Vec<f64>,
}

impl Bencher {
    /// Times `f`, excluding nothing.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        // Calibrate the per-call cost so each sample runs ~20ms.
        let t0 = Instant::now();
        black_box(f());
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        let iters = ((0.02 / once) as usize).clamp(1, 1_000_000);
        for _ in 0..self.sample_size {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            let ns = start.elapsed().as_secs_f64() * 1e9 / iters as f64;
            self.samples_ns.push(ns);
        }
    }

    /// Times `routine` on inputs built (untimed) by `setup`.
    pub fn iter_batched<I, R>(
        &mut self,
        mut setup: impl FnMut() -> I,
        mut routine: impl FnMut(I) -> R,
        _size: BatchSize,
    ) {
        let probe = setup();
        let t0 = Instant::now();
        black_box(routine(probe));
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        let iters = ((0.02 / once) as usize).clamp(1, 100_000);
        for _ in 0..self.sample_size {
            let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
            let start = Instant::now();
            for input in inputs {
                black_box(routine(input));
            }
            let ns = start.elapsed().as_secs_f64() * 1e9 / iters as f64;
            self.samples_ns.push(ns);
        }
    }
}

/// Declares a benchmark group function, Criterion-style.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::microbench::Criterion::new();
            $( $target(&mut c); )+
        }
    };
}

/// Declares the benchmark `main`, Criterion-style.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() { $( $group(); )+ }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iter_reports_finite_time() {
        let mut c = Criterion::new();
        let mut g = c.benchmark_group("microbench_selftest");
        g.sample_size(2);
        g.throughput(Throughput::Bytes(8));
        let mut ran = 0u64;
        g.bench_function("sum", |b| b.iter(|| ran += 1));
        g.bench_function("batched", |b| {
            b.iter_batched(|| vec![1u8; 16], |v| v.len(), BatchSize::SmallInput)
        });
        g.finish();
        assert!(ran > 0);
    }
}
