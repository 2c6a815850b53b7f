//! Percentiles over per-query samples.

/// Ceiling nearest-rank percentile of an ascending-sorted sample: the
/// smallest value `x` with at least `p`% of samples `<= x`, i.e. index
/// `ceil(p/100 * n) - 1`. Returns `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = rank(n, p);
    Some(sorted[rank.saturating_sub(1).min(n - 1)])
}

/// Ceiling nearest-rank median of `values` (NaN when empty).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0).unwrap_or(f64::NAN)
}

/// 1-based ceiling rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0) * n as f64).ceil() as usize
}

/// Samples that lie strictly beyond the ceiling-rank percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// Whether a sample of `n` supports reporting percentile `p`: at least
/// ten samples lie beyond it, so one outlier cannot set it alone.
pub fn supports(n: usize, p: f64) -> bool {
    samples_beyond(n, p) >= 10
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceiling_rank_pins_each_percentile() {
        let mut v = vec![7.0, 1.0, 10.0, 3.0, 5.0, 9.0, 2.0, 8.0, 4.0, 6.0];
        v.sort_by(f64::total_cmp);
        // ceil(0.5 * 10) = 5th value; nearest-rank by rounding would
        // give the 6th.
        assert_eq!(percentile(&v, 50.0), Some(5.0));
        assert_eq!(percentile(&v, 90.0), Some(9.0));
        assert_eq!(percentile(&v, 91.0), Some(10.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 3.0, 2.0]), 2.0);
        assert!(median([]).is_nan());
    }

    #[test]
    fn p90_needs_a_hundred_samples_for_ten_beyond() {
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert!(supports(100, 90.0));
        // ceil(0.9 * 99) = 90, so only 9 samples lie beyond.
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert!(!supports(99, 90.0));
        assert!(supports(20, 50.0));
        assert!(!supports(19, 50.0));
        assert_eq!(samples_beyond(5, 100.0), 0);
    }
}
