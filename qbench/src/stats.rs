//! Order statistics: medians over rounds, the quartiles the bounds are
//! derived from, and tail percentiles that say how many samples back them.

/// The median of `values` (mean of the middle two for an even count).
/// Panics on an empty slice: every metric rests on at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive method)
/// computes them — the driver derives its spreads that way.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // Position i*(n+1)/4, 1-based; at the ends Python extrapolates
        // from the outermost pair, and so does this.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// Interquartile range as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// A tail percentile and what backs it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile reported, e.g. `99.0`.
    pub percentile: f64,
    /// Its value.
    pub value: f64,
    /// Samples in total.
    pub samples: usize,
}

/// The 99th percentile, or — with fewer than ten samples beyond it — the
/// highest of p90 and p50 that has them.
pub fn tail(samples: &mut [f64]) -> Option<Tail> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    for p in [99.0, 90.0, 50.0] {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let rank = rank.clamp(1, n);
        if n - rank >= 10 || p == 50.0 {
            return Some(Tail {
                percentile: p,
                value: samples[rank - 1],
                samples: n,
            });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let (q1, q3) = quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert!((q1 - 1.5).abs() < 1e-12 && (q3 - 12.0).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (q1, q3) = quartiles(&[1.0, 2.0]);
        assert!((q1 - 0.75).abs() < 1e-12 && (q3 - 2.25).abs() < 1e-12);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_the_percentile() {
        let mut few: Vec<f64> = (0..50).map(f64::from).collect();
        assert_eq!(tail(&mut few).unwrap().percentile, 50.0);
        let mut some: Vec<f64> = (0..200).map(f64::from).collect();
        assert_eq!(tail(&mut some).unwrap().percentile, 90.0);
        let mut many: Vec<f64> = (0..2000).map(f64::from).collect();
        let t = tail(&mut many).unwrap();
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 1979.0, 2000));
    }
}
