//! **Extension** — Threshold ("≥ k of N") query kernels, measured three
//! ways on the same operands:
//!
//! * **`csa`** — the bit-sliced carry-save adder network: one pass over
//!   N operands, a per-bit counter held as ≤ ⌈log₂(N+1)⌉ bit-slice
//!   levels, "count ≥ k" decided by a borrow chain.
//! * **`naive`** — the textbook reduction: OR over all C(N, k) k-subset
//!   ANDs. Run only where C(N, k) ≤ [`MAX_NAIVE_TERMS`]; skipped points
//!   are reported loudly, never silently.
//! * **`scan`** — a per-row popcount scan: for every row, count the
//!   operands with the bit set and compare against k. The row-store
//!   mental model the bitmap index is supposed to beat.
//!
//! A fourth timing, **`wah`**, runs the run-domain threshold
//! (`wah::threshold_k(..).count_ones()`) on the same operands compressed,
//! so the literal-vs-compressed trade is visible at each density. Every
//! variant's answer is asserted bit-identical to the CSA kernel's before
//! anything is timed, and the counting kernel must agree with the
//! materializing one.
//!
//! Sweeps N ∈ {4, 8, 16, 32} × k ∈ {2, N/2, N−1} × density ∈
//! {1%, 10%, 50%} over uniform bits — where WAH has no runs to merge — and
//! then a **clustered** sweep: range-slot-shaped operands of
//! [`gen::clustered`] columns at cluster lengths on both sides of the
//! executor's 1/16 size rule, N ∈ {4, 8, 16} × k ∈ {2, N/2}, *decode N
//! operands + CSA* (what a served threshold over compressed slots pays
//! today) against the run-domain threshold (what it would pay if it took
//! the road selections take). Emits `BENCH_threshold.json` and the usual
//! CSV. `--smoke` (alias `--quick`) shrinks both sweeps for CI.

use std::time::Instant;

use bindex::bitvec::kernels;
use bindex::compress::wah::{self, WahBitmap};
use bindex::relation::gen;
use bindex::BitVec;
use bindex_bench::{f2, print_table, smoke, write_artifact, Csv, RunProvenance};

/// Naive OR-of-ANDs is only attempted below this many subset terms; the
/// point is to show the blow-up, not to wait it out.
const MAX_NAIVE_TERMS: u128 = 512;

struct Config {
    rows: usize,
    fan_ins: &'static [usize],
    densities: &'static [f64],
    reps: usize,
    clustered_fan_ins: &'static [usize],
    cluster_lens: &'static [usize],
}

/// The executor folds an operand compressed at no more than this share of
/// its literal size (`core::exec`'s one rule, 1/16).
const MAX_FOLDED_RATIO: f64 = 0.0625;
/// Cardinality of the clustered columns: operand `j` is the range slot
/// `A ≤ j mod 9` of its own column, so densities run 10–90 % the way a
/// base-10 component's nine stored slots do.
const CLUSTERED_CARDINALITY: u32 = 10;

/// Deterministic Bernoulli(density) bitmaps (xorshift64 per bit). The
/// density knob is what `synthetic_bitmaps`' fixed ~50% cannot give us:
/// WAH run-merge and the sparse fast paths only differentiate when fills
/// exist.
fn random_bitmaps(bits: usize, count: usize, density: f64, seed: u64) -> Vec<BitVec> {
    let cut = (density * (u64::MAX as f64)) as u64;
    (0..count as u64)
        .map(|j| {
            let mut state = seed
                .wrapping_add(j.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .max(1);
            BitVec::from_fn(bits, |_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state < cut
            })
        })
        .collect()
}

fn binomial(n: usize, k: usize) -> u128 {
    let k = k.min(n - k);
    let mut c: u128 = 1;
    for i in 0..k {
        c = c * (n - i) as u128 / (i + 1) as u128;
    }
    c
}

/// OR over all C(N, k) k-subset ANDs, subsets enumerated with Gosper's
/// hack. Each subset folds pairwise — the plan shape an engine without
/// k-ary kernels emits (every binary combine is still the same SIMD
/// kernel the CSA network uses, so the comparison is about plan shape,
/// not scalar-vs-vector). The caller guarantees the term count is sane.
fn naive_or_of_ands(operands: &[&BitVec], k: usize) -> BitVec {
    let n = operands.len();
    let mut acc = BitVec::zeros(operands[0].len());
    let mut mask: u64 = (1u64 << k) - 1;
    while mask < (1u64 << n) {
        let mut idx = (0..n).filter(|i| mask >> i & 1 == 1);
        let first = idx.next().expect("k >= 1");
        let mut term = operands[first].clone();
        for i in idx {
            term = kernels::and_all(&[&term, operands[i]]);
        }
        acc = kernels::or_all(&[&acc, &term]);
        let c = mask & mask.wrapping_neg();
        let r = mask + c;
        mask = (((r ^ mask) >> 2) / c) | r;
    }
    acc
}

/// Row-at-a-time reference: for each row, count the operands whose bit
/// is set and compare against k.
fn per_row_scan(operands: &[&BitVec], k: usize) -> BitVec {
    BitVec::from_fn(operands[0].len(), |r| {
        operands.iter().filter(|b| b.get(r)).count() >= k
    })
}

/// Best-of-`reps` wall seconds for `f`, with the result kept live.
fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps {
        let start = Instant::now();
        let out = f();
        best = best.min(start.elapsed().as_secs_f64());
        std::hint::black_box(&out);
    }
    best
}

struct Point {
    n: usize,
    k: usize,
    density: f64,
    cardinality: usize,
    csa_s: f64,
    scan_s: f64,
    naive_s: Option<f64>,
    naive_terms: u128,
    wah_s: f64,
    wah_bytes: usize,
    literal_bytes: usize,
}

impl Point {
    fn speedup_vs_scan(&self) -> f64 {
        self.scan_s / self.csa_s
    }

    fn speedup_vs_naive(&self) -> Option<f64> {
        self.naive_s.map(|s| s / self.csa_s)
    }
}

fn k_values(n: usize) -> Vec<usize> {
    let mut ks = vec![2, n / 2, n - 1];
    ks.sort_unstable();
    ks.dedup();
    ks.retain(|&k| k >= 1 && k <= n);
    ks
}

fn sweep_point(cfg: &Config, n: usize, k: usize, density: f64, seed: u64) -> Point {
    let operands = random_bitmaps(cfg.rows, n, density, seed);
    let refs: Vec<&BitVec> = operands.iter().collect();
    let compressed: Vec<WahBitmap> = operands.iter().map(WahBitmap::from_bitvec).collect();
    let wah_refs: Vec<&WahBitmap> = compressed.iter().collect();

    // Correctness first, on every variant that will be timed: the CSA
    // answer is the one under test, the scan is the reference.
    let want = per_row_scan(&refs, k);
    let csa = kernels::threshold_k(&refs, k);
    assert_eq!(csa, want, "CSA answer diverges at n={n} k={k} d={density}");
    assert_eq!(
        kernels::count_threshold_k(&refs, k),
        want.count_ones(),
        "counting kernel diverges at n={n} k={k} d={density}"
    );
    let wah_answer = wah::threshold_k(&wah_refs, k).to_bitvec();
    assert_eq!(
        wah_answer, want,
        "WAH run-merge diverges at n={n} k={k} d={density}"
    );
    let naive_terms = binomial(n, k);
    let naive_ok = naive_terms <= MAX_NAIVE_TERMS;
    if naive_ok {
        let naive = naive_or_of_ands(&refs, k);
        assert_eq!(
            naive, want,
            "naive OR-of-ANDs diverges at n={n} k={k} d={density}"
        );
    }

    let csa_s = time_best(cfg.reps, || kernels::threshold_k(&refs, k));
    let wah_s = time_best(cfg.reps, || wah::threshold_k(&wah_refs, k).count_ones());
    let scan_s = time_best(1, || per_row_scan(&refs, k));
    let naive_s = naive_ok.then(|| time_best(1, || naive_or_of_ands(&refs, k)));

    Point {
        n,
        k,
        density,
        cardinality: want.count_ones(),
        csa_s,
        scan_s,
        naive_s,
        naive_terms,
        wah_s,
        wah_bytes: compressed.iter().map(WahBitmap::compressed_bytes).sum(),
        literal_bytes: operands.iter().map(|b| b.words().len() * 8).sum(),
    }
}

/// One point of the clustered sweep: the same count two ways.
struct ClusteredPoint {
    cluster_len: usize,
    n: usize,
    k: usize,
    /// Operands' compressed ÷ literal bytes.
    compressed_ratio: f64,
    /// Decode every operand, CSA, count — the result materialized, as the
    /// executor's threshold path leaves it today.
    decode_csa_s: f64,
    /// `wah::threshold_k(..).count_ones()`: nothing decoded.
    wah_s: f64,
}

impl ClusteredPoint {
    /// > 1 = the run-domain threshold is the faster side.
    fn wah_speedup(&self) -> f64 {
        self.decode_csa_s / self.wah_s
    }
}

fn clustered_point(cfg: &Config, cluster_len: usize, n: usize, k: usize) -> ClusteredPoint {
    let operands: Vec<BitVec> = (0..n)
        .map(|j| {
            let col = gen::clustered(
                cfg.rows,
                CLUSTERED_CARDINALITY,
                cluster_len,
                0xC1 + j as u64,
            );
            let values = col.values();
            BitVec::from_fn(cfg.rows, |i| values[i] <= (j % 9) as u32)
        })
        .collect();
    let refs: Vec<&BitVec> = operands.iter().collect();
    let compressed: Vec<WahBitmap> = operands.iter().map(WahBitmap::from_bitvec).collect();
    let wah_refs: Vec<&WahBitmap> = compressed.iter().collect();
    let decode_csa = || {
        let decoded: Vec<BitVec> = compressed.iter().map(WahBitmap::to_bitvec).collect();
        let refs: Vec<&BitVec> = decoded.iter().collect();
        kernels::threshold_k(&refs, k).count_ones()
    };
    let want = kernels::threshold_k(&refs, k);
    assert_eq!(
        wah::threshold_k(&wah_refs, k),
        WahBitmap::from_bitvec(&want),
        "run-domain threshold diverges at cluster {cluster_len} n={n} k={k}"
    );
    assert_eq!(decode_csa(), want.count_ones());
    let wah_bytes: usize = compressed.iter().map(WahBitmap::compressed_bytes).sum();
    let literal_bytes: usize = operands.iter().map(|b| b.words().len() * 8).sum();
    ClusteredPoint {
        cluster_len,
        n,
        k,
        compressed_ratio: wah_bytes as f64 / literal_bytes as f64,
        decode_csa_s: time_best(cfg.reps, decode_csa),
        wah_s: time_best(cfg.reps, || wah::threshold_k(&wah_refs, k).count_ones()),
    }
}

fn main() {
    let smoke = smoke();
    let provenance = RunProvenance::capture(1);
    let cfg = if smoke {
        Config {
            rows: 1 << 16,
            fan_ins: &[4, 8],
            densities: &[0.1],
            reps: 1,
            clustered_fan_ins: &[4, 8],
            cluster_lens: &[64, 4096],
        }
    } else {
        Config {
            rows: 1 << 20,
            fan_ins: &[4, 8, 16, 32],
            densities: &[0.01, 0.1, 0.5],
            reps: 5,
            clustered_fan_ins: &[4, 8, 16],
            cluster_lens: &[64, 256, 1024, 4096, 16_384],
        }
    };

    let mut points: Vec<Point> = Vec::new();
    let mut seed = 0x7_1A5u64;
    for &n in cfg.fan_ins {
        for k in k_values(n) {
            for &density in cfg.densities {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                let p = sweep_point(&cfg, n, k, density, seed);
                if p.naive_s.is_none() {
                    println!(
                        "note: naive OR-of-ANDs skipped at n={n} k={k} \
                         ({} subset terms > cap {MAX_NAIVE_TERMS})",
                        p.naive_terms
                    );
                }
                points.push(p);
            }
        }
    }

    print_table(
        &format!("threshold kernels, {} rows, best-of-{}", cfg.rows, cfg.reps),
        &[
            "n",
            "k",
            "density",
            "csa_s",
            "scan_s",
            "naive_s",
            "wah_s",
            "x_vs_scan",
            "x_vs_naive",
            "wah/literal bytes",
        ],
        &points
            .iter()
            .map(|p| {
                vec![
                    p.n.to_string(),
                    p.k.to_string(),
                    format!("{:.2}", p.density),
                    format!("{:.6}", p.csa_s),
                    format!("{:.6}", p.scan_s),
                    p.naive_s.map_or("-".into(), |s| format!("{s:.6}")),
                    format!("{:.6}", p.wah_s),
                    f2(p.speedup_vs_scan()),
                    p.speedup_vs_naive().map_or("-".into(), f2),
                    format!("{:.3}", p.wah_bytes as f64 / p.literal_bytes as f64),
                ]
            })
            .collect::<Vec<_>>(),
    );

    // The acceptance gates: the CSA kernel beats the per-row scan at
    // every swept point, and beats the naive reduction ≥ 10× at the
    // majority-k points with fan-in ≥ 8 — where C(N, k) actually blows
    // up; at k ∈ {2, N−1} the subset count is linear-ish in N and naive
    // is legitimately competitive. Smoke keeps a ≥ 1× floor so a loaded
    // CI box cannot flake the job.
    let min_scan = points
        .iter()
        .map(Point::speedup_vs_scan)
        .fold(f64::MAX, f64::min);
    assert!(
        min_scan > 1.0,
        "CSA must beat the per-row scan everywhere (min {min_scan:.2}x)"
    );
    let min_naive_n8 = points
        .iter()
        .filter(|p| p.n >= 8 && p.k == p.n / 2)
        .filter_map(Point::speedup_vs_naive)
        .fold(f64::MAX, f64::min);
    assert!(
        min_naive_n8 < f64::MAX,
        "sweep must include an n >= 8 majority-k point where naive is feasible"
    );
    let naive_floor = if smoke { 1.0 } else { 10.0 };
    assert!(
        min_naive_n8 >= naive_floor,
        "CSA must beat naive OR-of-ANDs >= {naive_floor}x at majority k, n >= 8 \
         (min {min_naive_n8:.2}x)"
    );

    // The clustered sweep: the one regime where the run merge is expected
    // to win. No gate on who wins — the artifact records it.
    let mut clustered: Vec<ClusteredPoint> = Vec::new();
    for &cluster_len in cfg.cluster_lens {
        for &n in cfg.clustered_fan_ins {
            let mut ks = vec![2, n / 2];
            ks.dedup();
            for k in ks {
                clustered.push(clustered_point(&cfg, cluster_len, n, k));
            }
        }
    }
    print_table(
        &format!(
            "clustered range-slot operands, {} rows: decode N + CSA vs wah::threshold_k, counted",
            cfg.rows
        ),
        &[
            "cluster",
            "n",
            "k",
            "size ratio",
            "decode+csa_s",
            "wah_s",
            "wah speedup",
        ],
        &clustered
            .iter()
            .map(|p| {
                vec![
                    p.cluster_len.to_string(),
                    p.n.to_string(),
                    p.k.to_string(),
                    format!("{:.4}", p.compressed_ratio),
                    format!("{:.6}", p.decode_csa_s),
                    format!("{:.6}", p.wah_s),
                    f2(p.wah_speedup()),
                ]
            })
            .collect::<Vec<_>>(),
    );
    // Per cluster length: which side won every point, and by how much.
    let mut verdict_json: Vec<String> = Vec::new();
    for &cluster_len in cfg.cluster_lens {
        let at = || clustered.iter().filter(|p| p.cluster_len == cluster_len);
        let ratio = at().map(|p| p.compressed_ratio).sum::<f64>() / at().count() as f64;
        let min = at()
            .map(ClusteredPoint::wah_speedup)
            .fold(f64::MAX, f64::min);
        let max = at()
            .map(ClusteredPoint::wah_speedup)
            .fold(f64::MIN, f64::max);
        let winner = match (min > 1.0, max < 1.0) {
            (true, _) => "wah_threshold",
            (_, true) => "decode_csa",
            _ => "mixed",
        };
        let within = ratio <= MAX_FOLDED_RATIO;
        println!(
            "  cluster {cluster_len:>6} (ratio {ratio:.4}, within the 1/16 rule: {within}): \
                 {winner}, decode+csa / wah = {min:.2}x to {max:.2}x"
        );
        verdict_json.push(format!(
            "      {{\"cluster_len\": {cluster_len}, \"compressed_ratio\": {ratio:.4}, \
                 \"within_folded_ratio\": {within}, \"winner\": \"{winner}\", \
                 \"min_wah_speedup_vs_decode_csa\": {min:.3}, \
                 \"max_wah_speedup_vs_decode_csa\": {max:.3}}}"
        ));
    }

    let mut csv = Csv::create(
        "ext_threshold",
        &[
            "n",
            "k",
            "density",
            "cardinality",
            "csa_seconds",
            "scan_seconds",
            "naive_seconds",
            "naive_terms",
            "wah_seconds",
            "wah_bytes",
            "literal_bytes",
        ],
    )
    .expect("csv");
    for p in &points {
        csv.row(&[
            &p.n,
            &p.k,
            &format!("{:.3}", p.density),
            &p.cardinality,
            &format!("{:.6}", p.csa_s),
            &format!("{:.6}", p.scan_s),
            &p.naive_s.map_or(String::new(), |s| format!("{s:.6}")),
            &p.naive_terms,
            &format!("{:.6}", p.wah_s),
            &p.wah_bytes,
            &p.literal_bytes,
        ])
        .expect("row");
    }
    println!("\nCSV: {}", csv.path().display());
    // Hand-rolled JSON (no serde in the dependency set).
    let point_json: Vec<String> = points
        .iter()
        .map(|p| {
            format!(
                "    {{\"n\": {}, \"k\": {}, \"density\": {:.3}, \"cardinality\": {}, \
                 \"csa_seconds\": {:.6}, \"scan_seconds\": {:.6}, \"naive_seconds\": {}, \
                 \"naive_terms\": {}, \"wah_seconds\": {:.6}, \"speedup_vs_scan\": {:.3}, \
                 \"speedup_vs_naive\": {}, \"wah_bytes\": {}, \"literal_bytes\": {}}}",
                p.n,
                p.k,
                p.density,
                p.cardinality,
                p.csa_s,
                p.scan_s,
                p.naive_s.map_or("null".into(), |s| format!("{s:.6}")),
                p.naive_terms,
                p.wah_s,
                p.speedup_vs_scan(),
                p.speedup_vs_naive()
                    .map_or("null".into(), |s| format!("{s:.3}")),
                p.wah_bytes,
                p.literal_bytes,
            )
        })
        .collect();
    let clustered_json: Vec<String> = clustered
        .iter()
        .map(|p| {
            format!(
                "      {{\"cluster_len\": {}, \"n\": {}, \"k\": {}, \"compressed_ratio\": {:.4}, \
                 \"decode_csa_seconds\": {:.6}, \"wah_seconds\": {:.6}, \
                 \"wah_speedup_vs_decode_csa\": {:.3}}}",
                p.cluster_len,
                p.n,
                p.k,
                p.compressed_ratio,
                p.decode_csa_s,
                p.wah_s,
                p.wah_speedup(),
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"experiment\": \"threshold\",\n  \"smoke\": {smoke},\n  {prov},\n  \
         \"rows\": {rows},\n  \"identical_answers\": true,\n  \
         \"min_speedup_vs_scan\": {min_scan:.3},\n  \
         \"min_speedup_vs_naive_majority_n8\": {min_naive_n8:.3},\n  \
         \"points\": [\n{points}\n  ],\n  \
         \"clustered\": {{\n    \"cardinality\": {CLUSTERED_CARDINALITY}, \
         \"max_folded_ratio\": {MAX_FOLDED_RATIO},\n    \"points\": [\n{clustered}\n    ],\n    \
         \"by_cluster_len\": [\n{verdicts}\n    ]\n  }}\n}}\n",
        prov = provenance.json_fields(),
        rows = cfg.rows,
        points = point_json.join(",\n"),
        clustered = clustered_json.join(",\n"),
        verdicts = verdict_json.join(",\n"),
    );
    write_artifact("threshold", &json).expect("write json");
}
