//! Order statistics for small samples.
//!
//! Quartiles use the same rule as Python's `statistics.quantiles(v, n=4)`
//! (exclusive method), because that is how the spread of this benchmark
//! is judged from outside; the numbers printed here can be checked
//! against it directly.

/// A sorted copy of `v`. Timings are never NaN, so `total_cmp` only has
/// to be a total order, not a meaningful one for NaN.
fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median; the mean of the two middle values for an even count.
///
/// # Panics
/// Panics on an empty slice: a metric with no samples has no median and
/// the caller must not invent one.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let s = sorted(v);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// First and third quartile, `statistics.quantiles(v, n=4)` style.
/// `None` below two samples (Python raises there).
pub fn quartiles(v: &[f64]) -> Option<(f64, f64)> {
    if v.len() < 2 {
        return None;
    }
    let s = sorted(v);
    let cut = |i: usize| {
        let m = s.len() + 1;
        let j = (i * m / 4).clamp(1, s.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// The percentiles a report may quote, lowest first, in per mille (so
/// "samples beyond" is integer arithmetic: `100 * (1.0 - 0.9)` is 9.99…).
const PER_MILLE: [usize; 5] = [500, 900, 950, 990, 999];

/// The highest percentile that still has at least ten samples beyond it,
/// or `None` when even the median has fewer (then the median is printed
/// with its `n` and nothing is claimed about the tail).
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PER_MILLE
        .iter()
        .rfind(|&&p| n * (1000 - p) / 1000 >= 10)
        .map(|&p| p as f64 / 1000.0)
}

/// Nearest-rank percentile `p` in `[0, 1]`.
///
/// # Panics
/// Panics on an empty slice, like [`median`].
pub fn percentile(v: &[f64], p: f64) -> f64 {
    assert!(!v.is_empty(), "percentile of no samples");
    let s = sorted(v);
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[10.0, 20.0, 30.0]), Some((10.0, 30.0)));
        // statistics.quantiles([1.5, 1.6, 1.4, 1.55, 1.45, 1.5, 1.52], n=4)
        let (q1, q3) = quartiles(&[1.5, 1.6, 1.4, 1.55, 1.45, 1.5, 1.52]).unwrap();
        assert!((q1 - 1.45).abs() < 1e-12 && (q3 - 1.55).abs() < 1e-12);
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        // At the invocation counts of the end-to-end runs nothing, not
        // even the median, has ten samples beyond it.
        for n in [1, 3, 7, 13, 19] {
            assert_eq!(highest_supported_percentile(n), None, "n={n}");
        }
        assert_eq!(highest_supported_percentile(20), Some(0.5));
        assert_eq!(highest_supported_percentile(99), Some(0.5));
        assert_eq!(highest_supported_percentile(100), Some(0.9));
        assert_eq!(highest_supported_percentile(200), Some(0.95));
        assert_eq!(highest_supported_percentile(1000), Some(0.99));
        assert_eq!(highest_supported_percentile(10_000), Some(0.999));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }
}
