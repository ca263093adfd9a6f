//! Order statistics over a run's repetitions.

/// Median of `xs` (mean of the middle pair for an even count).
pub fn median(xs: &[f64]) -> f64 {
    quartiles(xs).1
}

/// The `parts - 1` cut points dividing `xs` into `parts` equal groups, by
/// the same rule as Python's `statistics.quantiles(xs, n=parts)` (the
/// default "exclusive" method), so numbers printed here match ones
/// computed from the recorded values. A single value is every cut point.
/// Panics on an empty slice.
pub fn quantiles(xs: &[f64], parts: usize) -> Vec<f64> {
    assert!(!xs.is_empty(), "quantiles of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return vec![v[0]; parts - 1];
    }
    let m = n + 1;
    (1..parts)
        .map(|i| {
            let j = (i * m / parts).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * parts) as f64;
            (v[j - 1] * (parts as f64 - delta) + v[j] * delta) / parts as f64
        })
        .collect()
}

/// `(q1, median, q3)`: [`quantiles`] with four parts.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    let q = quantiles(xs, 4);
    (q[0], q[1], q[2])
}

/// Interquartile range as a share of the median: the run-to-run spread
/// `check` compares with a metric's bound. Zero when the median is zero.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(xs);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([1..10], n=10)[8] == 9.9 (the p90)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((quantiles(&xs, 10)[8] - 9.9).abs() < 1e-12);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(spread(&[0.0, 0.0]), 0.0);
    }
}
