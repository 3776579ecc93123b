//! Order statistics of a run's samples.

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method), which is what the driver computes across runs.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    if len == 1 {
        return [sorted[0]; 3];
    }
    [1, 2, 3].map(|i| {
        let j = (i * (len + 1) / 4).clamp(1, len - 1);
        // `delta` may leave 0..=4 at the ends, which extrapolates as Python does.
        let delta = (i * (len + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values)[1]
}

/// The highest percentile of the ladder that still has at least ten samples
/// beyond it, with its value; `None` below twenty samples, where not even
/// the median has.
pub fn tail_percentile(values: &[f64]) -> Option<(f64, f64)> {
    const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    LADDER
        .iter()
        .rev()
        .map(|&p| (p, (len as f64 * p / 100.0).ceil() as usize))
        // `rank` samples lie at or below the percentile, the rest beyond.
        .find(|&(_, rank)| len - rank >= 10)
        .map(|(p, rank)| (p, sorted[rank - 1]))
}

/// The geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[4.0]), [4.0; 3]);
        assert_eq!(median(&[5.0, 1.0, 9.0, 3.0]), 4.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let samples = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<f64>>();
        assert_eq!(tail_percentile(&samples(19)), None);
        assert_eq!(tail_percentile(&samples(20)), Some((50.0, 10.0)));
        assert_eq!(tail_percentile(&samples(39)), Some((50.0, 20.0)));
        assert_eq!(tail_percentile(&samples(40)), Some((75.0, 30.0)));
        // 170 samples: p90 leaves 17 beyond, p95 would leave 8.
        assert_eq!(tail_percentile(&samples(170)), Some((90.0, 153.0)));
        assert_eq!(tail_percentile(&samples(200)), Some((95.0, 190.0)));
        assert_eq!(tail_percentile(&samples(1000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&samples(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn geomean_of_ratios() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }
}
