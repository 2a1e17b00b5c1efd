//! Order statistics behind every reported timing.
//!
//! Latency percentiles use the nearest-rank definition on the sorted
//! samples, and a percentile is only reported when at least
//! [`MIN_BEYOND`] samples lie strictly above it; repeat-mode quartiles
//! follow Python's `statistics.quantiles(values, n=4)` so spreads read
//! the same here as in any script that checks them.

/// Samples that must lie strictly beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `percent`-th percentile among `n`
/// samples: `ceil(percent · n / 100)`, at least 1. Integer arithmetic,
/// so `p90` of 100 samples is exactly rank 90.
pub fn nearest_rank(n: usize, percent: u32) -> usize {
    (n * percent as usize).div_ceil(100).max(1)
}

/// Samples strictly above the nearest-rank `percent`-th percentile.
pub fn samples_beyond(n: usize, percent: u32) -> usize {
    n.saturating_sub(nearest_rank(n, percent))
}

/// The fewest samples for which the `percent`-th percentile has at
/// least [`MIN_BEYOND`] samples beyond it (100 for p90).
pub fn min_samples(percent: u32) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, percent) >= MIN_BEYOND)
        .expect("every percentile below 100 is eventually supported")
}

/// Nearest-rank `percent`-th percentile of ascending `sorted` samples,
/// or `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[u64], percent: u32) -> Option<u64> {
    if samples_beyond(sorted.len(), percent) < MIN_BEYOND {
        return None;
    }
    sorted.get(nearest_rank(sorted.len(), percent) - 1).copied()
}

/// Median of `values` (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted_f64(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First quartile, median and third quartile by the "exclusive" method
/// of Python's `statistics.quantiles(values, n=4)`.
///
/// # Panics
///
/// Panics with fewer than two values or on a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let data = sorted_f64(values);
    let len = data.len();
    assert!(len >= 2, "quartiles need at least two values");
    let m = len + 1;
    let mut out = [0.0; 3];
    for (i, slot) in (1..=3).zip(out.iter_mut()) {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0;
    }
    out
}

fn sorted_f64(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistics of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_definition() {
        assert_eq!(nearest_rank(100, 50), 50);
        assert_eq!(nearest_rank(100, 90), 90);
        assert_eq!(nearest_rank(101, 90), 91);
        assert_eq!(nearest_rank(10, 90), 9);
        assert_eq!(nearest_rank(1, 50), 1);
        assert_eq!(nearest_rank(3, 1), 1);
    }

    #[test]
    fn p90_needs_one_hundred_samples() {
        assert_eq!(min_samples(90), 100);
        assert_eq!(min_samples(50), 20);
        assert_eq!(samples_beyond(99, 90), 9);
        assert_eq!(samples_beyond(100, 90), 10);
        let sorted: Vec<u64> = (1..=99).collect();
        assert_eq!(percentile(&sorted, 90), None, "only 9 samples beyond");
        let sorted: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&sorted, 90), Some(90));
        assert_eq!(percentile(&sorted, 50), Some(50));
        let sorted: Vec<u64> = (1..=250).collect();
        assert_eq!(percentile(&sorted, 90), Some(225));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([5, 9], n=4) == [4.0, 7.0, 10.0]
        assert_eq!(quartiles(&[9.0, 5.0]), [4.0, 7.0, 10.0]);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[4.0, 1.0, 3.0]), 3.0);
    }
}
