//! The seam between the driver and the layer probes.
//!
//! Each probe is its own binary behind its own Cargo feature. The driver
//! builds them (all at once; one by one if that fails, to find which
//! layer broke), runs each in its own process on the run's store
//! directory, and reads `metric <name> <value>` lines from its stdout. A
//! probe that does not build or exits non-zero turns its metrics into
//! `null` with a warning and never fails the workload.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::adapter::Dataset;
use crate::catalog::{Owner, PER_LAYER, PROBES};
use crate::env;
use crate::oracle::Oracle;
use crate::query::Query;
use crate::run::RunConfig;
use crate::spec::{self, QueryStream, Scale, Workload, CARDINALITY};
use crate::stats;
use crate::trace::{self, Recorder, LEVELS};

/// `benchmark/out/<workload>.trace.jsonl`.
pub fn trace_path(w: Workload) -> PathBuf {
    env::out_dir().join(format!("{}.trace.jsonl", w.name()))
}

fn binary_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    exe.parent()
        .map(Path::to_path_buf)
        .ok_or_else(|| "the driver binary has no parent directory".to_string())
}

/// Builds the probes named in `names` in one cargo invocation, into the
/// target directory the driver itself was built into.
fn cargo_build(names: &[&str]) -> bool {
    let Ok(bin_dir) = binary_dir() else {
        return false;
    };
    // <target-dir>/release/driver -> <target-dir>
    let Some(target_dir) = bin_dir.parent() else {
        return false;
    };
    let features: Vec<String> = names.iter().map(|n| format!("probe-{n}")).collect();
    let mut cmd = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()));
    cmd.args([
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
    ])
    .arg(env::package_dir().join("Cargo.toml"))
    .arg("--target-dir")
    .arg(target_dir)
    .arg("--features")
    .arg(features.join(","));
    for n in names {
        cmd.arg("--bin").arg(format!("probe_{n}"));
    }
    cmd.stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// The probes that are built and ready to run.
fn build_probes() -> Vec<&'static str> {
    if cargo_build(&PROBES) {
        return PROBES.to_vec();
    }
    eprintln!("warning: the probes do not build together; building them one by one");
    PROBES
        .iter()
        .copied()
        .filter(|n| {
            let ok = cargo_build(&[n]);
            if !ok {
                eprintln!("warning: probe_{n} does not build; its metrics are null");
            }
            ok
        })
        .collect()
}

/// Runs one probe; `None` if it failed.
fn run_probe(
    name: &str,
    cfg: RunConfig,
    dir: Option<&Path>,
    acked: usize,
) -> Option<Vec<(String, f64)>> {
    let bin = binary_dir().ok()?.join(format!("probe_{name}"));
    let output = Command::new(bin)
        .args(["--workload", cfg.workload.name()])
        .args(["--scale", cfg.scale.name()])
        .args(["--seed", &cfg.seed.to_string()])
        .args(["--acked", &acked.to_string()])
        .arg("--dir")
        .arg(dir.unwrap_or(Path::new("-")))
        .arg("--spans")
        .arg(trace_path(cfg.workload))
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    let mut metrics = Vec::new();
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        if parts.next() == Some("metric") {
            let name = parts.next()?.to_string();
            let value: f64 = parts.next()?.parse().ok()?;
            metrics.push((name, value));
        }
    }
    Some(metrics)
}

/// Builds and runs every probe on the run's directory. The result holds
/// every probe-owned metric of the catalogue: the measured value, 0 where
/// the probe ran but the metric does not apply to this workload, `None`
/// where the probe failed.
pub fn run_all(
    cfg: RunConfig,
    dir: Option<&Path>,
    acked: usize,
) -> BTreeMap<&'static str, Option<f64>> {
    let built = build_probes();
    let mut out = BTreeMap::new();
    for probe in PROBES {
        let measured = if built.contains(&probe) {
            let m = run_probe(probe, cfg, dir, acked);
            if m.is_none() {
                eprintln!("warning: probe_{probe} failed; its metrics are null");
            }
            m
        } else {
            None
        };
        for m in PER_LAYER.iter().filter(|m| m.owner == Owner::Probe(probe)) {
            let value = measured.as_ref().map(|found| {
                found
                    .iter()
                    .find(|(name, _)| name == m.name)
                    .map_or(0.0, |(_, v)| *v)
            });
            out.insert(m.name, value);
        }
    }
    out
}

/// What a probe process was asked to do.
#[derive(Debug, Clone)]
pub struct ProbeArgs {
    /// The workload whose run is being probed.
    pub workload: Workload,
    /// Its scale.
    pub scale: Scale,
    /// Its seed.
    pub seed: u64,
    /// Ingest batches acknowledged before the probe runs.
    pub acked: usize,
    /// The run's store directory (`None` on `batch_scan`).
    pub dir: Option<PathBuf>,
    /// Where to append spans.
    pub spans: PathBuf,
}

impl ProbeArgs {
    /// Parses the probe command line; exits with status 2 on a bad one.
    pub fn from_env() -> Self {
        let args: Vec<String> = std::env::args().skip(1).collect();
        let value = |flag: &str| {
            args.iter()
                .position(|a| a == flag)
                .and_then(|i| args.get(i + 1))
                .cloned()
        };
        let parsed = (|| {
            Some(ProbeArgs {
                workload: Workload::parse(&value("--workload")?)?,
                scale: Scale::parse(&value("--scale")?)?,
                seed: value("--seed")?.parse().ok()?,
                acked: value("--acked")?.parse().ok()?,
                dir: value("--dir").filter(|d| d != "-").map(PathBuf::from),
                spans: PathBuf::from(value("--spans")?),
            })
        })();
        parsed.unwrap_or_else(|| {
            eprintln!(
                "usage: probe_* --workload NAME --scale full|smoke --seed N --acked N --dir DIR|- --spans FILE"
            );
            std::process::exit(2)
        })
    }

    /// The column as the store holds it now: the base column plus every
    /// acknowledged ingest batch.
    pub fn column(&self) -> Dataset {
        let base = spec::base_column(self.workload, self.scale, self.seed);
        if self.acked == 0 {
            return base;
        }
        let more: Vec<u32> = spec::append_batches(self.seed, self.acked).concat();
        base.extended(&more)
    }

    /// The oracle for [`ProbeArgs::column`].
    pub fn oracle(&self, column: &Dataset) -> Oracle {
        Oracle::new(column.values(), CARDINALITY)
    }

    /// The operations the traced pass replays: the first requests of
    /// connection 0's stream. Below the socket only the predicate matters.
    pub fn ops(&self) -> Vec<Query> {
        let mut stream = QueryStream::new(self.workload, self.seed, 0);
        (0..self.scale.trace_ops(self.workload))
            .map(|_| stream.next_request().0)
            .collect()
    }

    /// Requests that touch every stored bitmap, to run before the replay
    /// so a warm cache is what gets measured (as in the timed window).
    pub fn warm_ops(&self) -> Vec<Query> {
        let mut stream = QueryStream::new(self.workload, self.seed, 2000);
        (0..self.scale.probe_warm_ops(self.workload))
            .map(|_| stream.next_request().0)
            .collect()
    }
}

/// Prints one metric for the driver.
pub fn emit(name: &str, value: f64) {
    println!("metric {name} {value}");
}

/// Passes of the traced replay over the operations, at every level.
pub const REPLAY_PASSES: usize = 2;

/// Replays the run's operations at trace level `level`: an untimed warm-up
/// (as the timed window has), then [`REPLAY_PASSES`] passes in which each
/// call is one span and each count is checked against the oracle. Returns
/// the level's time per operation (`Recorder::level_us`). A wrong answer
/// or an error is fatal to the probe (its metrics become null in the
/// driver).
pub fn replay_level(
    rec: &mut Recorder,
    level: usize,
    args: &ProbeArgs,
    oracle: &Oracle,
    mut call: impl FnMut(Query) -> Result<u64, String>,
) -> Result<f64, String> {
    for q in args.warm_ops() {
        call(q)?;
    }
    let ops = args.ops();
    for _ in 0..REPLAY_PASSES {
        for (i, &q) in ops.iter().enumerate() {
            let got = rec.time(LEVELS[level].0, i as u32, trace::parent_of(level), || {
                call(q)
            })?;
            if got != oracle.count(q) {
                return Err(format!(
                    "{}: {q:?} answered {got}, oracle says {}",
                    LEVELS[level].0,
                    oracle.count(q)
                ));
            }
        }
    }
    rec.level_us(LEVELS[level].0)
        .ok_or_else(|| "no operations replayed".to_string())
}

/// Median duration of `f` over `reps` calls, in microseconds.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&samples)
}

/// Runs a probe body and turns its outcome into the process exit status.
pub fn main_with(body: impl FnOnce(&ProbeArgs, &mut Recorder) -> Result<(), String>) {
    let args = ProbeArgs::from_env();
    if args.workload.pinned() {
        crate::affinity::pin_to_one_cpu();
    }
    let mut rec = Recorder::new();
    let outcome = body(&args, &mut rec)
        .and_then(|()| rec.append_jsonl(&args.spans).map_err(|e| e.to_string()));
    if let Err(e) = outcome {
        eprintln!("probe failed: {e}");
        std::process::exit(1);
    }
}
