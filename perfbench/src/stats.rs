//! Summary statistics of the benchmark's samples.

/// A percentile is only reported when at least this many samples lie
/// beyond it, so a single slow call cannot set the tail figure alone.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// 1-based nearest rank of the `pct`-th percentile among `n` samples:
/// `ceil(pct · n / 100)`, in integer arithmetic so that 95% of 200 is
/// exactly rank 190.
pub fn nearest_rank(n: usize, pct: usize) -> usize {
    assert!(n > 0 && (1..=100).contains(&pct), "percentile of nothing");
    (pct * n).div_ceil(100)
}

/// Samples strictly above the `pct`-th percentile's rank.
pub fn samples_beyond(n: usize, pct: usize) -> usize {
    n - nearest_rank(n, pct)
}

/// The fewest samples for which the `pct`-th percentile has
/// [`MIN_TAIL_SAMPLES`] samples beyond it (200 for p95).
pub fn min_samples_for(pct: usize) -> usize {
    (1..)
        .find(|&n| samples_beyond(n, pct) >= MIN_TAIL_SAMPLES)
        .expect("every percentile below 100 has a tail")
}

/// Nearest-rank percentile of `sorted` (ascending) samples.
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    sorted[nearest_rank(sorted.len(), pct) - 1]
}

/// Sorts samples ascending (timings are finite by construction).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
    out
}

/// The median of unsorted samples (nearest rank, like every percentile
/// reported here).
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50)
}

/// Arithmetic mean; 0 for no samples.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `numerator / denominator`, or 0 when nothing was counted.
pub fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p95_needs_two_hundred_samples_for_ten_beyond() {
        assert_eq!(nearest_rank(200, 95), 190);
        assert_eq!(samples_beyond(200, 95), 10);
        assert_eq!(samples_beyond(199, 95), 9);
        assert_eq!(min_samples_for(95), 200);
        assert_eq!(min_samples_for(50), 20);
        assert_eq!(min_samples_for(99), 1000);
    }

    #[test]
    fn percentile_uses_nearest_rank() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&samples, 95), 190.0);
        assert_eq!(percentile(&samples, 50), 100.0);
        assert_eq!(percentile(&samples, 100), 200.0);
        assert_eq!(percentile(&[7.0], 95), 7.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn mean_and_ratio_of_nothing_are_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
