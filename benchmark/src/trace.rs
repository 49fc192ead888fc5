//! The outside-in trace. The timed runs record nothing; the traced pass
//! replays the same operations at concurrency 1 through one public entry
//! point per level, each call wrapped in a span held in memory and written
//! out at exit. Spans inside the library are a later change (ROADMAP's
//! `QueryTrace`); these are taken from the benchmark's side of each call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use crate::json::Value;
use crate::stats;

/// The onion's levels, outermost first: `(span name, what the call is)`.
/// A level's parent is the level above it; operations share `op_id`
/// across levels because every level replays the same seeded stream.
pub const LEVELS: [(&str, &str); 6] = [
    ("L0.client_query", "Client::query over loopback TCP"),
    (
        "L1.served_execute",
        "ServedIndex::execute_any, same directory and tuning",
    ),
    (
        "L2.engine_single_query",
        "one-query evaluate_selection_workload over SharedSource",
    ),
    (
        "L3.eval_shared_source",
        "evaluate_segmented_in over ExecContext<SharedSource>",
    ),
    (
        "L4.eval_in_memory",
        "the same evaluation over bitmaps already in memory (no store)",
    ),
    (
        "L5.bitvec_kernels",
        "the bitvec kernel calls the plan implies, same length",
    ),
];

/// The ingest path's spans on `ingest_mixed`: the acknowledged request
/// over the socket, and under it the two library calls that do the work
/// (replayed on a copy of the store).
pub const INGEST_SPANS: [&str; 3] = ["L0.client_ingest", "ingest.append", "ingest.compact"];

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Level or step name.
    pub name: &'static str,
    /// Index of the operation in the seeded stream.
    pub op_id: u32,
    /// Name of the span that caused this one (`None` at the outermost).
    pub parent: Option<&'static str>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span store for one process.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        op_id: u32,
        parent: Option<&'static str>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = self.epoch.elapsed();
        let out = f();
        let end = self.epoch.elapsed();
        self.spans.push(Span {
            name,
            op_id,
            parent,
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Median duration in microseconds of the spans called `name`
    /// (`None` when there are none).
    pub fn median_us(&self, name: &str) -> Option<f64> {
        let d: Vec<f64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::micros)
            .collect();
        (!d.is_empty()).then(|| stats::median(&d))
    }

    /// What level `name` costs per operation: every operation is replayed
    /// more than once, its fastest span is kept (a burst of interference
    /// shorter than a pass then touches no operation twice), and the
    /// median is taken over operations.
    pub fn level_us(&self, name: &str) -> Option<f64> {
        let mut fastest: std::collections::BTreeMap<u32, f64> = std::collections::BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let us = s.micros();
            fastest
                .entry(s.op_id)
                .and_modify(|best| *best = best.min(us))
                .or_insert(us);
        }
        let per_op: Vec<f64> = fastest.into_values().collect();
        (!per_op.is_empty()).then(|| stats::median(&per_op))
    }

    /// Appends the spans to `path`, one JSON object per line.
    pub fn append_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let mut w = std::io::BufWriter::new(file);
        for s in &self.spans {
            let line = Value::obj([
                ("name", Value::str(s.name)),
                ("op_id", Value::Num(f64::from(s.op_id))),
                ("parent", s.parent.map_or(Value::Null, Value::str)),
                ("start_ns", Value::Num(s.start_ns as f64)),
                ("end_ns", Value::Num(s.end_ns as f64)),
            ]);
            writeln!(w, "{}", line.render())?;
        }
        w.flush()
    }
}

/// Parent level of `LEVELS[i]`, for span records.
pub fn parent_of(level: usize) -> Option<&'static str> {
    level.checked_sub(1).map(|p| LEVELS[p].0)
}

/// Self time per level from the levels' median durations, outermost
/// first: a level's self time is its median minus the next measured
/// level's; the innermost keeps its whole median. Levels that were not
/// measured (`None`) are skipped, so their time stays with the level
/// above them.
pub fn self_times(medians_us: &[Option<f64>]) -> Vec<Option<f64>> {
    let mut out = vec![None; medians_us.len()];
    let measured: Vec<(usize, f64)> = medians_us
        .iter()
        .enumerate()
        .filter_map(|(i, m)| m.map(|m| (i, m)))
        .collect();
    for (k, &(i, m)) in measured.iter().enumerate() {
        let inner = measured.get(k + 1).map_or(0.0, |&(_, next)| next);
        out[i] = Some(m - inner);
    }
    out
}

/// Share of the outermost level's median below which a negative self time
/// is measurement noise: each level is its own replay, and often its own
/// process, so medians of two levels that do the same work differ by a
/// few percent either way.
pub const LEVEL_NOISE_SHARE: f64 = 0.03;

/// Levels whose self time is negative by more than [`LEVEL_NOISE_SHARE`]
/// of `outer_us`: there the inner level really is slower than the outer.
pub fn negative_selfs(self_us: &[Option<f64>], outer_us: f64) -> Vec<usize> {
    self_us
        .iter()
        .enumerate()
        .filter(|(_, s)| s.is_some_and(|s| s < -LEVEL_NOISE_SHARE * outer_us))
        .map(|(i, _)| i)
        .collect()
}

/// Index of the level with the largest self time.
pub fn largest_self(self_us: &[Option<f64>]) -> Option<usize> {
    self_us
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.map(|s| (i, s)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_a_levels_median_minus_the_next_levels() {
        let medians = [
            Some(120.0),
            Some(40.0),
            Some(30.0),
            Some(28.0),
            Some(10.0),
            Some(4.0),
        ];
        let selfs = self_times(&medians);
        assert_eq!(
            selfs,
            vec![
                Some(80.0),
                Some(10.0),
                Some(2.0),
                Some(18.0),
                Some(6.0),
                Some(4.0)
            ]
        );
        // Self times add back up to the outermost level.
        assert_eq!(selfs.iter().flatten().sum::<f64>(), 120.0);
        assert_eq!(largest_self(&selfs), Some(0));
        assert!(negative_selfs(&selfs, 120.0).is_empty());
    }

    #[test]
    fn a_negative_self_time_counts_only_beyond_noise() {
        // L1 and L2 do the same work: 1 us apart in the wrong order is noise.
        let selfs = self_times(&[Some(100.0), Some(40.0), Some(41.0), Some(10.0)]);
        assert_eq!(selfs[1], Some(-1.0));
        assert!(negative_selfs(&selfs, 100.0).is_empty());
        // An inner level 10 us slower than its outer one is not.
        let selfs = self_times(&[Some(100.0), Some(40.0), Some(50.0), Some(10.0)]);
        assert_eq!(negative_selfs(&selfs, 100.0), vec![1]);
    }

    #[test]
    fn an_unmeasured_level_leaves_its_time_with_the_level_above() {
        // batch_scan starts at L2 and has no storage level.
        let medians = [None, None, Some(900.0), None, Some(850.0), Some(600.0)];
        let selfs = self_times(&medians);
        assert_eq!(
            selfs,
            vec![None, None, Some(50.0), None, Some(250.0), Some(600.0)]
        );
        assert_eq!(largest_self(&selfs), Some(5));
        assert_eq!(largest_self(&[None, None]), None);
    }

    #[test]
    fn a_levels_time_is_the_median_over_operations_of_each_ones_fastest_span() {
        let mut rec = Recorder::new();
        for (op, ns) in [(0, 500), (1, 100), (2, 300), (0, 200), (1, 900), (2, 250)] {
            rec.spans.push(Span {
                name: LEVELS[2].0,
                op_id: op,
                parent: parent_of(2),
                start_ns: 1000,
                end_ns: 1000 + ns * 1000,
            });
        }
        // Fastest per operation: 200, 100, 250 us.
        assert_eq!(rec.level_us(LEVELS[2].0), Some(200.0));
        assert_eq!(rec.median_us(LEVELS[2].0), Some(275.0));
    }

    #[test]
    fn recorder_keeps_spans_and_writes_one_json_object_per_line() {
        let mut rec = Recorder::new();
        let v = rec.time(LEVELS[1].0, 7, parent_of(1), || 41 + 1);
        assert_eq!(v, 42);
        rec.time(LEVELS[0].0, 7, parent_of(0), || ());
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[0].parent, Some(LEVELS[0].0));
        assert!(rec.spans()[0].end_ns >= rec.spans()[0].start_ns);
        assert!(rec.median_us(LEVELS[1].0).is_some());
        assert!(rec.median_us("nope").is_none());
        assert!(rec.level_us(LEVELS[1].0).is_some());
        let dir = crate::env::out_dir().join(format!("trace-test-{}", std::process::id()));
        let path = dir.join("t.jsonl");
        rec.append_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = crate::json::parse(lines[0]).unwrap();
        assert_eq!(first.get("op_id").and_then(Value::as_f64), Some(7.0));
        assert_eq!(
            first.get("parent").and_then(Value::as_str),
            Some(LEVELS[0].0)
        );
    }
}
