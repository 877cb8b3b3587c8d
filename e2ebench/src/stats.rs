//! Order statistics for latency pools.

/// Samples that must lie strictly beyond a reported percentile: a
/// percentile resting on fewer is noise, not a measurement.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 1]`) of `pool`, or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it. So p99 needs at
/// least 1000 samples, p90 at least 100 and the median at least 20.
pub fn percentile(pool: &[f64], p: f64) -> Option<f64> {
    if pool.is_empty() {
        return None;
    }
    let mut sorted = pool.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    (sorted.len() - rank >= MIN_BEYOND).then(|| sorted[rank - 1])
}

/// The smallest pool for which [`percentile`] reports `p`.
pub fn min_pool(p: f64) -> usize {
    (1..)
        .find(|&n| percentile(&vec![0.0; n], p).is_some())
        .expect("some pool size suffices")
}

/// The median of a handful of repetitions (set-up times, probe
/// repeats), where the tail rule of [`percentile`] does not apply:
/// the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_ceiling_rank() {
        let pool: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&pool, 0.5), Some(500.0));
        assert_eq!(percentile(&pool, 0.9), Some(900.0));
        assert_eq!(percentile(&pool, 0.99), Some(990.0));
        // Order of the pool does not matter.
        let reversed: Vec<f64> = pool.iter().rev().copied().collect();
        assert_eq!(percentile(&reversed, 0.99), Some(990.0));
        // 0.5 × 21 = 10.5 rounds up to rank 11.
        let odd: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(percentile(&odd, 0.5), Some(11.0));
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(min_pool(0.99), 1000);
        assert_eq!(min_pool(0.9), 100);
        assert_eq!(min_pool(0.5), 20);
        let pool: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&pool, 0.99), None);
        assert!(percentile(&pool, 0.9).is_some());
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0; 19], 0.5), None);
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
