//! What each workload is: its size, its tuning, and the seeded streams of
//! operations it replays. The driver and every probe derive the same
//! inputs from `(workload, seed, scale)` through this file, which is why a
//! probe process can replay "the first 2,000 operations" of a run it never
//! saw.

use crate::adapter::{self, Dataset};
use crate::query::{Op, Query, Threshold};
use crate::rng::Rng;

/// Attribute cardinality of every workload (the paper's C = 1000).
pub const CARDINALITY: u32 = crate::costmodel::CARDINALITY;

/// Rows per ingest batch and cluster length of the clustered column: one
/// appended batch is one cluster, which is what time-ordered appends look
/// like to a bitmap index.
pub const INGEST_BATCH_ROWS: usize = 4096;

/// Ingest batches per second on the open-loop schedule.
pub const INGEST_RATE: f64 = 4.0;

/// Predicates per threshold query ("at least 2 of 4").
pub const THRESHOLD_PREDS: usize = 4;

/// `k` of the threshold queries.
pub const THRESHOLD_K: u32 = 2;

/// Worker threads, client connections and batch threads: `min(nproc, 4)`.
pub fn parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(4))
}

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Index fits the pool; the per-request path does the work.
    ServeHot,
    /// Index is 3.4x the pool; storage does the work.
    ServeCold,
    /// In-memory batches; kernels, executor and scheduler do the work.
    BatchScan,
    /// Open-loop appends beside closed-loop reads on a clustered column.
    IngestMixed,
}

impl Workload {
    /// All four, in reporting order.
    pub const ALL: [Workload; 4] = [
        Workload::ServeHot,
        Workload::ServeCold,
        Workload::BatchScan,
        Workload::IngestMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeHot => "serve_hot",
            Workload::ServeCold => "serve_cold",
            Workload::BatchScan => "batch_scan",
            Workload::IngestMixed => "ingest_mixed",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// `true` for the workloads that go through a server and a store.
    pub fn is_served(self) -> bool {
        self != Workload::BatchScan
    }

    /// Whether the workload's process is confined to one CPU (see
    /// `affinity.rs`): the two whose requests are short enough (~50 us and
    /// ~250 us of software) that cross-CPU wake-ups would otherwise be
    /// most of what is measured. `serve_cold` (4 ms of storage work per
    /// request) and `batch_scan` (no hand-offs) keep every CPU.
    pub fn pinned(self) -> bool {
        matches!(self, Workload::ServeHot | Workload::IngestMixed)
    }

    /// Pool and result-cache capacities (`None` = the library default).
    pub fn tuning(self) -> adapter::Tuning {
        match self {
            // Pool 8 < 27 stored bitmaps; no result cache to hide behind.
            Workload::ServeCold => adapter::Tuning {
                pool_capacity: Some(8),
                cache_capacity: Some(0),
            },
            _ => adapter::Tuning::default(),
        }
    }

    /// Trace levels (indices into `trace::LEVELS`) this workload peels.
    /// `batch_scan` has no socket, registry or store. On `ingest_mixed`
    /// the stored slots are WAH and summaries prune, so the dense
    /// in-memory evaluation (L4) and its kernels (L5) are not what the
    /// served path runs and would not nest inside L3.
    pub fn trace_levels(self) -> &'static [usize] {
        match self {
            Workload::ServeHot | Workload::ServeCold => &[0, 1, 2, 3, 4, 5],
            Workload::BatchScan => &[2, 4, 5],
            Workload::IngestMixed => &[0, 1, 2, 3],
        }
    }
}

/// Sizes of a run: the real thing, or the seconds-long smoke test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// 2^14 rows everywhere; checks plumbing, not performance.
    Smoke,
}

impl Scale {
    /// Command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }

    /// Parses the command-line spelling.
    pub fn parse(s: &str) -> Option<Self> {
        [Scale::Full, Scale::Smoke]
            .into_iter()
            .find(|x| x.name() == s)
    }

    /// Rows in the workload's column before any ingest.
    pub fn rows(self, w: Workload) -> usize {
        match (self, w) {
            (Scale::Smoke, _) => 1 << 14,
            (Scale::Full, Workload::ServeHot) => 1 << 18,
            (Scale::Full, Workload::ServeCold | Workload::IngestMixed) => 1 << 21,
            (Scale::Full, Workload::BatchScan) => 1 << 23,
        }
    }

    /// Queries per selection batch on `batch_scan`.
    pub fn batch_queries(self) -> usize {
        match self {
            Scale::Full => 400,
            Scale::Smoke => 64,
        }
    }

    /// Queries per threshold batch (each evaluates four predicates, so a
    /// quarter of the selection batch costs about the same).
    pub fn threshold_queries(self) -> usize {
        self.batch_queries() / 4
    }

    /// Warm-up requests per connection; part of `setup_s` because a
    /// restarted service pays them before it is at speed.
    pub fn warm_ops(self, w: Workload) -> usize {
        match (self, w) {
            (Scale::Smoke, _) => 64,
            (Scale::Full, Workload::ServeCold) => 256,
            (Scale::Full, _) => 2048,
        }
    }

    /// Requests a probe sends before its replay so that, as in the timed
    /// window, a warm cache is what gets measured.
    pub fn probe_warm_ops(self, w: Workload) -> usize {
        match (self, w) {
            (Scale::Smoke, _) | (Scale::Full, Workload::ServeCold) => 64,
            (Scale::Full, _) => 256,
        }
    }

    /// Operations the traced pass replays per level.
    pub fn trace_ops(self, w: Workload) -> usize {
        match (self, w) {
            // More than the result cache holds, so a second pass misses.
            (Scale::Smoke, _) => 300,
            // ~1 ms (2^23 rows) and ~4 ms (pool misses) per operation at
            // every level: fewer operations, same wall time.
            (Scale::Full, Workload::BatchScan | Workload::ServeCold) => 400,
            (Scale::Full, _) => 2000,
        }
    }
}

/// The workload's column before any ingest.
pub fn base_column(w: Workload, scale: Scale, seed: u64) -> Dataset {
    let rows = scale.rows(w);
    match w {
        Workload::IngestMixed => adapter::gen_clustered(rows, CARDINALITY, INGEST_BATCH_ROWS, seed),
        _ => adapter::gen_uniform(rows, CARDINALITY, seed),
    }
}

/// The first `n` ingest batches of the run: a continuation of the
/// clustered column under a different stream of the same seed.
pub fn append_batches(seed: u64, n: usize) -> Vec<Vec<u32>> {
    let rows = n * INGEST_BATCH_ROWS;
    let more = adapter::gen_clustered(
        rows,
        CARDINALITY,
        INGEST_BATCH_ROWS,
        seed ^ 0xA99E_17D5_0000_0001,
    );
    more.values()
        .chunks(INGEST_BATCH_ROWS)
        .map(<[u32]>::to_vec)
        .collect()
}

fn uniform_query(rng: &mut Rng) -> Query {
    Query {
        op: Op::ALL[rng.below(6) as usize],
        v: rng.below(u64::from(CARDINALITY)) as u32,
    }
}

/// One connection's request stream: queries uniform over the paper's
/// query space Q = {<, <=, >, >=, =, !=} x [0, C).
#[derive(Debug, Clone)]
pub struct QueryStream {
    rng: Rng,
    workload: Workload,
    issued: u64,
}

impl QueryStream {
    /// The stream of connection `conn` (connection 0 is the one the traced
    /// pass replays).
    pub fn new(workload: Workload, seed: u64, conn: u64) -> Self {
        Self {
            rng: Rng::new(seed, 0x51_0000 + conn),
            workload,
            issued: 0,
        }
    }

    /// The next request: the predicate, and whether the caller wants the
    /// foundset itself (`serve_hot`: every fourth request) or its count.
    pub fn next_request(&mut self) -> (Query, bool) {
        let q = uniform_query(&mut self.rng);
        let want_bitmap = self.workload == Workload::ServeHot && self.issued % 4 == 3;
        self.issued += 1;
        (q, want_bitmap)
    }
}

/// The fixed selection batch `batch_scan` repeats.
pub fn selection_batch(seed: u64, n: usize) -> Vec<Query> {
    let mut rng = Rng::new(seed, 0xBA7C);
    (0..n).map(|_| uniform_query(&mut rng)).collect()
}

/// The fixed threshold batch: "at least 2 of 4" uniform predicates.
pub fn threshold_batch(seed: u64, n: usize) -> Vec<Threshold> {
    let mut rng = Rng::new(seed, 0x0074_12E5);
    (0..n)
        .map(|_| Threshold {
            k: THRESHOLD_K,
            preds: (0..THRESHOLD_PREDS)
                .map(|_| uniform_query(&mut rng))
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_per_seed_and_differ_per_connection() {
        let take = |seed, conn| {
            let mut s = QueryStream::new(Workload::ServeHot, seed, conn);
            (0..16).map(|_| s.next_request()).collect::<Vec<_>>()
        };
        assert_eq!(take(1, 0), take(1, 0));
        assert_ne!(take(1, 0), take(1, 1));
        assert_ne!(take(1, 0), take(2, 0));
        let wants: Vec<bool> = take(1, 0).into_iter().map(|(_, w)| w).collect();
        assert_eq!(
            &wants[..8],
            &[false, false, false, true, false, false, false, true]
        );
        let mut cold = QueryStream::new(Workload::ServeCold, 1, 0);
        assert!((0..16).all(|_| !cold.next_request().1));
    }

    #[test]
    fn batches_are_fixed_by_the_seed_and_stay_in_the_query_space() {
        assert_eq!(selection_batch(3, 50), selection_batch(3, 50));
        assert!(selection_batch(3, 500).iter().all(|q| q.v < CARDINALITY));
        let t = threshold_batch(3, 20);
        assert_eq!(t, threshold_batch(3, 20));
        assert!(t.iter().all(|t| t.k == 2 && t.preds.len() == 4));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Scale::parse("smoke"), Some(Scale::Smoke));
    }
}
