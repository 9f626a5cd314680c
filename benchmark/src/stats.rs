//! Order statistics for the reported metrics.

/// Samples a percentile needs beyond it before it is worth reporting.
pub const SAMPLES_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 100) among `n`
/// samples: the smallest rank whose share of the samples is at least
/// `p` percent.
pub fn nearest_rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "a percentile needs at least one sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Whether `n` samples support percentile `p`: at least
/// [`SAMPLES_BEYOND`] of them lie strictly beyond its rank.
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && n - nearest_rank(n, p) >= SAMPLES_BEYOND
}

/// Sorts ascending. Timings are finite by construction.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("timings are finite"));
    values
}

/// Median of any slice (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n > 0, "a median needs at least one sample");
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartile by the exclusive method, the one Python's
/// `statistics.quantiles(values, n=4)` uses — the benchmark's
/// repeatability criterion is stated in its terms.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let n = s.len();
    assert!(n >= 2, "quartiles need at least two samples");
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 5.0);
        assert_eq!(percentile(&s, 90.0), 9.0);
        assert_eq!(percentile(&s, 91.0), 10.0);
        assert_eq!(percentile(&s, 100.0), 10.0);
        assert_eq!(percentile(&s, 1.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        // 15, 20, 35, 40, 50 is the textbook nearest-rank example.
        let t = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&t, 30.0), 20.0);
        assert_eq!(percentile(&t, 40.0), 20.0);
        assert_eq!(percentile(&t, 50.0), 35.0);
    }

    #[test]
    fn sample_count_rule() {
        // p99 has ten samples beyond it from 1000 samples on, p90 from 100.
        assert!(!supported(999, 99.0));
        assert!(supported(1000, 99.0));
        assert!(!supported(99, 90.0));
        assert!(supported(100, 90.0));
        assert!(supported(20, 50.0));
        assert!(!supported(19, 50.0));
        assert!(!supported(0, 50.0));
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
