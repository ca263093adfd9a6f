//! Weighted empirical CDF / CCDF.

/// A weighted empirical cumulative distribution function.
///
/// Built once from (value, weight) samples; queries are O(log n).
/// This is the exact object plotted in Figures 1, 2 and 4 of the paper
/// ("Cum. Fraction of Traffic" / "CDF of Weighted /24s" on the y-axis).
///
/// ```
/// use bb_stats::Cdf;
/// let cdf = Cdf::from_weighted(&[(1.0, 3.0), (5.0, 1.0)]).unwrap();
/// assert_eq!(cdf.fraction_leq(1.0), 0.75); // 3 of 4 units of weight
/// assert_eq!(cdf.median(), 1.0);
/// assert_eq!(cdf.value_at(0.9), 5.0);
/// ```
#[derive(Debug, Clone)]
pub struct Cdf {
    /// Sorted distinct sample values.
    values: Vec<f64>,
    /// Cumulative weight fraction at each value (last element is 1.0).
    cum_frac: Vec<f64>,
}

impl Cdf {
    /// Build from weighted samples. Non-positive weights are dropped.
    /// Returns `None` if no positive-weight samples remain.
    pub fn from_weighted(samples: &[(f64, f64)]) -> Option<Cdf> {
        let mut pairs: Vec<(f64, f64)> = samples.iter().copied().filter(|&(_, w)| w > 0.0).collect();
        if pairs.is_empty() {
            return None;
        }
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        let total: f64 = pairs.iter().map(|&(_, w)| w).sum();

        let mut values = Vec::with_capacity(pairs.len());
        let mut cum_frac = Vec::with_capacity(pairs.len());
        let mut cum = 0.0;
        let mut prev = 0.0;
        for &(v, w) in &pairs {
            cum += w;
            // Clamp every entry (not just the last) against floating-point
            // drift: a partial sum landing above `total` would otherwise
            // yield an intermediate fraction > 1.0, which turns
            // `Ccdf::fraction_gt` negative. Also enforce
            // monotonicity so queries binary-searching `cum_frac` stay
            // well-defined under any summation order.
            let frac = (cum / total).min(1.0).max(prev);
            prev = frac;
            if values.last() == Some(&v) {
                *cum_frac.last_mut().unwrap() = frac;
            } else {
                values.push(v);
                cum_frac.push(frac);
            }
        }
        *cum_frac.last_mut().unwrap() = 1.0;
        Some(Cdf { values, cum_frac })
    }

    /// Build from unweighted samples.
    pub fn from_values(values: &[f64]) -> Option<Cdf> {
        let weighted: Vec<(f64, f64)> = values.iter().map(|&v| (v, 1.0)).collect();
        Cdf::from_weighted(&weighted)
    }

    /// P(X ≤ x): fraction of weight at or below `x`.
    pub fn fraction_leq(&self, x: f64) -> f64 {
        match self.values.partition_point(|&v| v <= x) {
            0 => 0.0,
            i => self.cum_frac[i - 1],
        }
    }

    /// Smallest value v with P(X ≤ v) ≥ p (the p-quantile).
    pub fn value_at(&self, p: f64) -> f64 {
        let p = p.clamp(0.0, 1.0);
        let i = self.cum_frac.partition_point(|&c| c < p);
        self.values[i.min(self.values.len() - 1)]
    }

    /// Median.
    pub fn median(&self) -> f64 {
        self.value_at(0.5)
    }

    /// The step points (value, cumulative fraction) for plotting.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.values.iter().copied().zip(self.cum_frac.iter().copied())
    }

    /// Number of distinct values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Min / max sample values.
    pub fn min(&self) -> f64 {
        self.values[0]
    }
    pub fn max(&self) -> f64 {
        *self.values.last().unwrap()
    }
}

/// A weighted empirical CCDF, P(X > x) — the form of Figure 3
/// ("CCDF of Requests").
#[derive(Debug, Clone)]
pub struct Ccdf {
    cdf: Cdf,
}

impl Ccdf {
    pub fn from_weighted(samples: &[(f64, f64)]) -> Option<Ccdf> {
        Cdf::from_weighted(samples).map(|cdf| Ccdf { cdf })
    }

    pub fn from_values(values: &[f64]) -> Option<Ccdf> {
        Cdf::from_values(values).map(|cdf| Ccdf { cdf })
    }

    /// P(X > x).
    pub fn fraction_gt(&self, x: f64) -> f64 {
        1.0 - self.cdf.fraction_leq(x)
    }

    /// The underlying CDF.
    pub fn cdf(&self) -> &Cdf {
        &self.cdf
    }

    /// Step points (value, 1 - cumulative fraction) for plotting.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.cdf.points().map(|(v, c)| (v, 1.0 - c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_returns_none() {
        assert!(Cdf::from_values(&[]).is_none());
        assert!(Cdf::from_weighted(&[(1.0, 0.0)]).is_none());
    }

    #[test]
    fn simple_unweighted_cdf() {
        let cdf = Cdf::from_values(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(cdf.fraction_leq(0.5), 0.0);
        assert_eq!(cdf.fraction_leq(1.0), 0.25);
        assert_eq!(cdf.fraction_leq(2.5), 0.5);
        assert_eq!(cdf.fraction_leq(4.0), 1.0);
        assert_eq!(cdf.fraction_leq(99.0), 1.0);
    }

    #[test]
    fn duplicate_values_merge() {
        let cdf = Cdf::from_values(&[1.0, 1.0, 2.0]).unwrap();
        assert_eq!(cdf.len(), 2);
        assert!((cdf.fraction_leq(1.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn weights_shift_mass() {
        let cdf = Cdf::from_weighted(&[(0.0, 9.0), (10.0, 1.0)]).unwrap();
        assert!((cdf.fraction_leq(0.0) - 0.9).abs() < 1e-12);
        assert_eq!(cdf.median(), 0.0);
    }

    #[test]
    fn value_at_is_inverse_of_fraction_leq() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64).sin() * 50.0).collect();
        let cdf = Cdf::from_values(&data).unwrap();
        for p in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99] {
            let v = cdf.value_at(p);
            assert!(cdf.fraction_leq(v) >= p - 1e-12);
        }
    }

    #[test]
    fn cdf_is_monotone() {
        let data: Vec<f64> = (0..500).map(|i| ((i * 37) % 100) as f64).collect();
        let cdf = Cdf::from_values(&data).unwrap();
        let mut prev = 0.0;
        for (_, c) in cdf.points() {
            assert!(c >= prev);
            prev = c;
        }
        assert!((prev - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ccdf_complements_cdf() {
        let data = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ccdf = Ccdf::from_values(&data).unwrap();
        assert!((ccdf.fraction_gt(3.0) - 0.4).abs() < 1e-12);
        assert_eq!(ccdf.fraction_gt(5.0), 0.0);
        assert_eq!(ccdf.fraction_gt(0.0), 1.0);
    }

    #[test]
    fn fraction_leq_counts_equal_values() {
        let cdf = Cdf::from_values(&[1.0, 2.0, 2.0, 3.0]).unwrap();
        assert!((cdf.fraction_leq(2.0) - 0.75).abs() < 1e-12);
        assert!((cdf.fraction_leq(1.9) - 0.25).abs() < 1e-12);
        assert_eq!(cdf.fraction_leq(3.0), 1.0);
    }

    #[test]
    fn min_max() {
        let cdf = Cdf::from_values(&[5.0, -2.0, 8.0]).unwrap();
        assert_eq!(cdf.min(), -2.0);
        assert_eq!(cdf.max(), 8.0);
    }
}
