//! Order statistics for the reported figures.
//!
//! Every percentile is a nearest-rank percentile: the smallest sample such
//! that at least `p`% of the samples are at or below it. A tail percentile
//! is only reported when at least ten samples lie beyond it, so a p99 needs
//! at least 1000 samples; [`tail`] refuses anything less instead of quietly
//! reporting the maximum.

/// Samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
pub fn rank(n: usize, p: f64) -> usize {
    let exact = p / 100.0 * n as f64;
    // Guard against 0.99 * 1000 = 989.999… style rounding.
    let rank = (exact - 1e-9).ceil() as usize;
    rank.clamp(1, n.max(1))
}

/// Nearest-rank percentile of already sorted samples; `None` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// Nearest-rank tail percentile that has at least [`MIN_BEYOND`] samples
/// beyond it, or an error naming the shortfall.
pub fn tail(sorted: &[f64], p: f64) -> Result<f64, String> {
    let n = sorted.len();
    let beyond = n.saturating_sub(rank(n, p));
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{p} of {n} samples has {beyond} beyond it; at least {MIN_BEYOND} are needed"
        ));
    }
    Ok(sorted[rank(n, p) - 1])
}

/// Median (nearest-rank p50) of unsorted samples; 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 50.0).unwrap_or(0.0)
}

/// Consecutive windows of `size` samples, the remainder joining the last
/// window; one window when there are fewer than `2 * size` samples.
pub fn windows(samples: &[f64], size: usize) -> Vec<Vec<f64>> {
    let count = (samples.len() / size.max(1)).max(1);
    (0..count)
        .map(|i| {
            let end = if i + 1 == count {
                samples.len()
            } else {
                (i + 1) * size
            };
            samples[i * size..end].to_vec()
        })
        .collect()
}

/// The median over windows of each window's nearest-rank `p`-th
/// percentile, every window needing ten samples beyond it. A window hit by
/// a passing stall moves one of the values, not the median.
pub fn windowed(windows: &[Vec<f64>], p: f64) -> Result<f64, String> {
    let values = windows
        .iter()
        .map(|w| tail(&sorted(w), p))
        .collect::<Result<Vec<f64>, String>>()?;
    if values.is_empty() {
        return Err("no samples".to_owned());
    }
    Ok(median(&values))
}

/// A sorted copy.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut out = samples.to_vec();
    out.sort_by(f64::total_cmp);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_known_vectors() {
        let five = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&five, 5.0), Some(15.0));
        assert_eq!(percentile(&five, 30.0), Some(20.0));
        assert_eq!(percentile(&five, 40.0), Some(20.0));
        assert_eq!(percentile(&five, 50.0), Some(35.0));
        assert_eq!(percentile(&five, 100.0), Some(50.0));
        assert_eq!(percentile(&one_to(10), 0.0), Some(1.0));
        assert_eq!(percentile(&one_to(1000), 99.0), Some(990.0));
        assert_eq!(percentile(&one_to(100), 99.0), Some(99.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windows_split_in_order_and_keep_every_sample() {
        let w = windows(&one_to(25), 10);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0], one_to(10));
        assert_eq!(w[1].len(), 15);
        assert_eq!(windows(&one_to(15), 10).len(), 1);
        assert_eq!(windows(&[], 10), vec![Vec::<f64>::new()]);
    }

    #[test]
    fn windowed_percentile_is_the_median_over_windows() {
        let calm: Vec<f64> = one_to(1000);
        let stalled: Vec<f64> = one_to(1000).iter().map(|v| v * 10.0).collect();
        let w = vec![calm.clone(), stalled, calm];
        assert_eq!(windowed(&w, 99.0), Ok(990.0));
        assert_eq!(windowed(&w, 50.0), Ok(500.0));
        assert!(windowed(&[one_to(999)], 99.0).is_err());
        assert!(windowed(&[], 50.0).is_err());
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // 1000 samples: rank 990, exactly ten beyond.
        assert_eq!(tail(&one_to(1000), 99.0), Ok(990.0));
        // 999 samples: rank 990, only nine beyond.
        assert!(tail(&one_to(999), 99.0).is_err());
        // p95 needs 200 samples, p50 needs 20.
        assert_eq!(tail(&one_to(200), 95.0), Ok(190.0));
        assert!(tail(&one_to(199), 95.0).is_err());
        assert_eq!(tail(&one_to(20), 50.0), Ok(10.0));
        assert!(tail(&one_to(19), 50.0).is_err());
        assert!(tail(&[], 50.0).is_err());
    }
}
