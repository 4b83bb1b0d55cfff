//! Order statistics for the benchmark's reports.

/// Median of `values` (mean of the middle two for an even count); 0
/// for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Samples that must lie beyond a percentile before it is reported:
/// with fewer, the figure is one or two outliers, not a tail.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Nearest-rank `p`-th percentile of `sorted` (ascending), or `None`
/// when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    (rank <= n && n - rank >= MIN_TAIL_SAMPLES).then(|| sorted[rank - 1])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // p99 of 1000 samples is the 990th; ten lie beyond it.
        assert_eq!(percentile(&v, 99.0), Some(990.0));
        assert_eq!(percentile(&v, 50.0), Some(500.0));
        // With 999 samples p99 has only nine beyond it.
        assert_eq!(percentile(&v[..999], 99.0), None);
        assert_eq!(percentile(&v[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&v[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }
}
