//! # bindex-bench
//!
//! Experiment harness: one binary per experiment (see `src/bin/`). The
//! `fig*` / `table*` / `intro_breakeven` binaries reproduce the paper's
//! evaluation; each `ext_*` binary defends one choice the code makes (the
//! 1/16 fold rule, CSA vs run-merge thresholds, the window size, pruning
//! and the pool, interval encoding, the ingest path's stage costs). Speed
//! of the served and batch paths is measured in `benchmark/`, recovery is
//! asserted by the test suites, and neither is repeated here. Run the
//! paper's set with `cargo run --release -p bindex-bench --bin
//! all_experiments`.
//!
//! Every binary prints its rows to stdout and writes `results/<name>.csv`;
//! an `ext_*` binary also writes `BENCH_<name>.json` at the workspace root
//! ([`write_artifact`]). Under `--smoke` / `--quick` ([`smoke`]) both land
//! in `target/smoke/` instead, so a shrunken run never replaces a
//! committed artifact.
//!
//! The micro-benchmarks live in `benches/`, driven by the in-repo
//! [`microbench`] harness (the build environment has no crates-registry
//! access, so external harnesses are not available).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod microbench;

use std::fmt::Display;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use bindex::core::eval::{evaluate_in, Algorithm};
use bindex::core::{BitmapSource, ExecContext};
use bindex::relation::query::SelectionQuery;
use bindex::BitVec;

/// Deterministic ~50%-dense pseudo-random operand bitmaps, generated a
/// word at a time (xorshift64). Dense-kernel cost
/// is density-independent (every word is touched either way); ~50% keeps
/// popcounts and early-exit checks honest by defeating both all-zero and
/// all-one shortcuts.
pub fn synthetic_bitmaps(bits: usize, count: usize, seed: u64) -> Vec<BitVec> {
    (0..count as u64)
        .map(|k| {
            let mut state = seed
                .wrapping_add(k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .max(1);
            let words: Vec<u64> = (0..bindex::bitvec::words_for(bits))
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                })
                .collect();
            BitVec::from_words(words, bits)
        })
        .collect()
}

/// `true` when this process was started with `--smoke` or `--quick`:
/// everything it writes goes under `target/smoke/`, never over a committed
/// artifact, and an experiment that has a shrunken workload (CI, a local
/// check) runs it. The `fig*` / `table*` binaries and
/// `ext_interval_encoding` have none: for them the flag only redirects the
/// output of a full-size run.
pub fn smoke() -> bool {
    std::env::args().any(|a| a == "--smoke" || a == "--quick")
}

/// Where a run's output tree starts: the workspace root, or `target/smoke/`
/// below it for a smoke run.
fn output_root(smoke: bool) -> PathBuf {
    // crates/bench -> workspace root
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    if smoke {
        root.join("target/smoke")
    } else {
        root
    }
}

fn csv_path(name: &str, smoke: bool) -> PathBuf {
    output_root(smoke).join(format!("results/{name}.csv"))
}

fn artifact_path(name: &str, smoke: bool) -> PathBuf {
    output_root(smoke).join(format!("BENCH_{name}.json"))
}

/// Writes an experiment's JSON report to `BENCH_<name>.json` under the
/// output root [`smoke`] selects and prints where it went.
pub fn write_artifact(name: &str, json: &str) -> std::io::Result<()> {
    let path = artifact_path(name, smoke());
    fs::create_dir_all(path.parent().expect("artifact paths have a parent"))?;
    fs::write(&path, json)?;
    println!("JSON: {}", path.display());
    Ok(())
}

/// A minimal CSV writer for experiment output (no quoting needed for our
/// numeric/label payloads).
pub struct Csv {
    path: PathBuf,
    file: fs::File,
}

impl Csv {
    /// Creates `results/<name>.csv`, under the output root [`smoke`]
    /// selects, with the given header row.
    pub fn create(name: &str, header: &[&str]) -> std::io::Result<Self> {
        let path = csv_path(name, smoke());
        fs::create_dir_all(path.parent().expect("csv paths have a parent"))?;
        let mut file = fs::File::create(&path)?;
        writeln!(file, "{}", header.join(","))?;
        Ok(Self { path, file })
    }

    /// Appends one row.
    pub fn row(&mut self, fields: &[&dyn Display]) -> std::io::Result<()> {
        let line: Vec<String> = fields.iter().map(|f| f.to_string()).collect();
        writeln!(self.file, "{}", line.join(","))
    }

    /// Where the CSV was written.
    pub fn path(&self) -> &std::path::Path {
        &self.path
    }
}

/// Prints an aligned text table.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let line = |cells: &[String]| {
        let joined: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
            .collect();
        println!("  {}", joined.join("  "));
    };
    line(&header.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    let total = widths.iter().sum::<usize>() + 2 * (ncols - 1);
    println!("  {}", "-".repeat(total));
    for row in rows {
        line(row);
    }
}

/// Average (scans, operations) per query of `algorithm` over `queries`.
pub fn average_costs<S: BitmapSource>(
    source: &mut S,
    queries: &[SelectionQuery],
    algorithm: Algorithm,
) -> (f64, f64) {
    let mut ctx = ExecContext::new(source);
    let mut scans = 0usize;
    let mut ops = 0usize;
    for &q in queries {
        evaluate_in(&mut ctx, q, algorithm).expect("algorithm matches encoding");
        let s = ctx.take_stats();
        scans += s.scans;
        ops += s.total_ops();
    }
    let n = queries.len().max(1) as f64;
    (scans as f64 / n, ops as f64 / n)
}

/// Wall-clock average seconds per query (the Section 9 time metric:
/// read + decompress + bitmap operations).
pub fn average_wall_time<S: BitmapSource>(
    source: &mut S,
    queries: &[SelectionQuery],
    algorithm: Algorithm,
) -> f64 {
    let mut ctx = ExecContext::new(source);
    let start = Instant::now();
    for &q in queries {
        evaluate_in(&mut ctx, q, algorithm).expect("algorithm matches encoding");
        ctx.take_stats();
    }
    start.elapsed().as_secs_f64() / queries.len().max(1) as f64
}

/// Execution-environment provenance recorded by every `ext_*` BENCH
/// JSON. Results measured with more requested threads than the machine
/// has hardware threads are flagged (`oversubscribed`) and warned about,
/// so JSON consumers cannot mistake time-sliced rows for real parallel
/// speedups.
#[derive(Debug, Clone, Copy)]
pub struct RunProvenance {
    /// Hardware threads the machine exposes.
    pub hardware_threads: usize,
    /// The most threads any row of the experiment asked for.
    pub requested_threads: usize,
    /// `requested_threads > hardware_threads`.
    pub oversubscribed: bool,
}

impl RunProvenance {
    /// Captures provenance for an experiment whose widest row requests
    /// `requested_threads`, warning when the box cannot actually run
    /// them in parallel.
    pub fn capture(requested_threads: usize) -> Self {
        let hardware_threads =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let provenance = Self {
            hardware_threads,
            requested_threads,
            oversubscribed: requested_threads > hardware_threads,
        };
        if provenance.oversubscribed {
            println!(
                "warning: {requested_threads} threads requested on a \
                 {hardware_threads}-thread box; multi-thread rows are \
                 time-sliced, not parallel"
            );
        }
        if !provenance.scaling_valid() {
            println!(
                "warning: single-core box — every multi-thread measurement \
                 in this run is time-sliced; scaling_valid is false in the \
                 emitted JSON"
            );
        }
        provenance
    }

    /// `false` on a single-core box, where no measurement in the run can
    /// demonstrate parallel scaling no matter what the rows say.
    pub fn scaling_valid(&self) -> bool {
        self.hardware_threads >= 2
    }

    /// The provenance fields as a JSON fragment (no surrounding braces),
    /// ready to splice into a hand-rolled BENCH JSON object. Includes the
    /// top-level `scaling_valid` flag so a 1-core CI run can never
    /// masquerade as a scaling result.
    pub fn json_fields(&self) -> String {
        format!(
            "\"hardware_threads\": {}, \"requested_threads\": {}, \
             \"oversubscribed\": {}, \"scaling_valid\": {}",
            self.hardware_threads,
            self.requested_threads,
            self.oversubscribed,
            self.scaling_valid()
        )
    }
}

/// Formats a float with 3 decimal places (paper-style table cells).
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a float with 2 decimal places.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a percentage with 1 decimal place.
pub fn pct(x: f64) -> String {
    format!("{x:.1}%")
}

#[cfg(test)]
mod tests {
    use super::*;
    use bindex::relation::{gen, query};
    use bindex::{Base, BitmapIndex, Encoding, IndexSpec};

    #[test]
    fn average_costs_runs() {
        let col = gen::uniform(100, 10, 1);
        let spec = IndexSpec::new(Base::single(10).unwrap(), Encoding::Range);
        let idx = BitmapIndex::build(&col, spec).unwrap();
        let queries = query::full_space(10);
        let mut src = idx.source();
        let (scans, ops) = average_costs(&mut src, &queries, Algorithm::RangeEvalOpt);
        assert!(scans > 0.0 && scans < 3.0);
        assert!(ops < 3.0);
    }

    #[test]
    fn smoke_output_never_lands_on_a_committed_path() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        assert_eq!(artifact_path("x", false), root.join("BENCH_x.json"));
        assert_eq!(csv_path("ext_x", false), root.join("results/ext_x.csv"));
        let smoke_root = root.join("target/smoke");
        assert_eq!(artifact_path("x", true), smoke_root.join("BENCH_x.json"));
        assert_eq!(
            csv_path("ext_x", true),
            smoke_root.join("results/ext_x.csv")
        );
    }

    #[test]
    fn provenance_flags_oversubscription() {
        let sane = RunProvenance::capture(1);
        assert!(!sane.oversubscribed);
        assert!(sane.hardware_threads >= 1);
        let wild = RunProvenance::capture(usize::MAX);
        assert!(wild.oversubscribed);
        let fields = wild.json_fields();
        assert!(fields.contains("\"hardware_threads\""));
        assert!(fields.contains("\"requested_threads\""));
        assert!(fields.contains("\"oversubscribed\": true"));
        assert!(fields.contains("\"scaling_valid\""));
        assert_eq!(wild.scaling_valid(), wild.hardware_threads >= 2);
    }

    #[test]
    fn synthetic_bitmaps_are_deterministic_and_half_dense() {
        let a = synthetic_bitmaps(100_000, 4, 42);
        let b = synthetic_bitmaps(100_000, 4, 42);
        assert_eq!(a, b);
        for (i, bm) in a.iter().enumerate() {
            assert_eq!(bm.len(), 100_000);
            let density = bm.count_ones() as f64 / 100_000.0;
            assert!((0.45..0.55).contains(&density), "operand {i}: {density}");
        }
        // Distinct operands and distinct seeds differ.
        assert_ne!(a[0], a[1]);
        assert_ne!(a[0], synthetic_bitmaps(100_000, 1, 43)[0]);
        // Ragged lengths stay canonical.
        let odd = synthetic_bitmaps(1001, 1, 7);
        assert_eq!(odd[0].len(), 1001);
    }

    #[test]
    fn table_and_formatters() {
        print_table("demo", &["a", "bb"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(f3(1.23456), "1.235");
        assert_eq!(f2(1.23456), "1.23");
        assert_eq!(pct(97.25), "97.2%");
    }
}
