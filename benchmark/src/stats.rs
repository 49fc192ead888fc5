//! Sample statistics: medians, the percentile rule, and the quartile
//! spread the repeatability gate uses.

/// Latency percentiles the benchmark may report, lowest first.
pub const PERCENTILES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples that must lie beyond a percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of the `p`-th percentile among `n`
/// samples, in integer per-mille arithmetic so that 99.9% of 10,000 is
/// rank 9,990 and not a rounding accident.
fn rank(n: usize, p: f64) -> usize {
    let per_mille = (p * 10.0).round() as usize;
    (per_mille * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The highest percentile of [`PERCENTILES`] that has at least
/// [`MIN_BEYOND`] of `n` samples beyond it — the only tail a run of `n`
/// samples can support. `None` when even the median has fewer.
pub fn supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .copied()
        .rfind(|&p| n >= MIN_BEYOND && n - rank(n, p) >= MIN_BEYOND)
}

/// The `p`-th percentile (nearest rank) of ascending `sorted`.
///
/// # Panics
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Sorts `values` ascending (total order; the benchmark produces no NaN).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Coefficient of variation (population standard deviation / mean).
pub fn cv(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mean = values.iter().sum::<f64>() / values.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / values.len() as f64;
    var.sqrt() / mean
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// gives them — the rule the acceptance driver applies to ten runs.
///
/// # Panics
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    sort(&mut v);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// One slice of a timed window: a fixed stretch of time on a served
/// workload, one batch on `batch_scan`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Slice {
    /// Verified operations completed in the slice.
    pub ops: u64,
    /// Length of the slice.
    pub seconds: f64,
    /// Latencies of the operations `p50_ms` is taken over.
    pub latencies_ms: Vec<f64>,
}

/// Operations the least-disturbed part of a window must hold before a
/// median is taken over it.
pub const STEADY_MIN_OPS: u64 = 2000;

/// Steady-state throughput and median latency of a window cut into
/// `slices`: the fastest slices that together hold [`STEADY_MIN_OPS`]
/// operations, pooled.
///
/// Interference on a shared box is one-sided (it only slows things) and
/// comes in bursts that last from a fraction of a second to a whole run, so
/// the whole-window mean and median wander by 30% between identical runs
/// while the least-disturbed stretch repeats within a few percent. A busy
/// workload fills the quota with its best quarter second; a slow one pools
/// many slices, so its median still rests on 2,000 samples.
///
/// Returns `(operations per second, median latency in ms)`; `None` when no
/// slice completed an operation.
pub fn steady(slices: &[Slice]) -> Option<(f64, f64)> {
    let mut order: Vec<&Slice> = slices
        .iter()
        .filter(|s| s.ops > 0 && s.seconds > 0.0)
        .collect();
    order.sort_by(|a, b| (b.ops as f64 / b.seconds).total_cmp(&(a.ops as f64 / a.seconds)));
    let (mut ops, mut seconds, mut pooled) = (0u64, 0.0, Vec::new());
    for slice in order {
        ops += slice.ops;
        seconds += slice.seconds;
        pooled.extend_from_slice(&slice.latencies_ms);
        if ops >= STEADY_MIN_OPS {
            break;
        }
    }
    (!pooled.is_empty()).then(|| (ops as f64 / seconds, median(&pooled)))
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// a metric's bound is compared with.
pub fn quartile_spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(supported_percentile(19), None);
        assert_eq!(supported_percentile(20), Some(50.0));
        assert_eq!(supported_percentile(99), Some(50.0));
        assert_eq!(supported_percentile(100), Some(90.0));
        assert_eq!(supported_percentile(999), Some(90.0));
        assert_eq!(supported_percentile(1000), Some(99.0));
        assert_eq!(supported_percentile(9_000), Some(99.0));
        assert_eq!(supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 99.9), 100.0);
        assert_eq!(percentile(&[3.0], 99.0), 3.0);
    }

    #[test]
    fn median_and_cv() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(cv(&[2.0, 2.0, 2.0]), 0.0);
        assert!((cv(&[1.0, 3.0]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn steady_state_is_the_fastest_slices_holding_the_quota() {
        let slice = |ops: u64, ms: f64| Slice {
            ops,
            seconds: 0.25,
            latencies_ms: vec![ms; ops as usize],
        };
        // A busy window: one undisturbed slice fills the quota alone.
        let busy = [slice(2500, 0.10), slice(4000, 0.06), slice(1000, 0.25)];
        assert_eq!(steady(&busy), Some((16_000.0, 0.06)));
        // A slow window pools its fastest slices until 2,000 operations:
        // 900 + 800 + 700 = 2,400 over 0.75 s; the disturbed one stays out.
        let slow = [
            slice(800, 1.1),
            slice(300, 3.0),
            slice(900, 1.0),
            slice(700, 1.2),
        ];
        let (rate, p50) = steady(&slow).unwrap();
        assert_eq!(rate, 3200.0);
        assert_eq!(p50, 1.1);
        // Fewer operations than the quota: everything is used.
        assert_eq!(steady(&[slice(10, 2.0), slice(0, 0.0)]), Some((40.0, 2.0)));
        assert_eq!(steady(&[]), None);
    }

    /// `statistics.quantiles([1..10], n=4)` is `[2.75, 5.5, 8.25]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((quartile_spread(&v) - 1.0).abs() < 1e-12);
        // quantiles([10, 20, 15], n=4) == [10.0, 15.0, 20.0]
        assert_eq!(quartiles(&[10.0, 20.0, 15.0]), (10.0, 20.0));
    }
}
