//! Fixed-bin weighted histogram.

/// A histogram over `[lo, hi)` with uniform bins plus underflow/overflow.
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<f64>,
    underflow: f64,
    overflow: f64,
    total: f64,
}

impl Histogram {
    /// Create a histogram. Panics if `lo >= hi` or `bins == 0`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(lo < hi, "lo must be < hi");
        assert!(bins > 0, "need at least one bin");
        Self {
            lo,
            hi,
            bins: vec![0.0; bins],
            underflow: 0.0,
            overflow: 0.0,
            total: 0.0,
        }
    }

    /// Add a weighted observation.
    pub fn add(&mut self, value: f64, weight: f64) {
        if weight <= 0.0 {
            return;
        }
        self.total += weight;
        if value < self.lo {
            self.underflow += weight;
        } else if value >= self.hi {
            self.overflow += weight;
        } else {
            let frac = (value - self.lo) / (self.hi - self.lo);
            let idx = ((frac * self.bins.len() as f64) as usize).min(self.bins.len() - 1);
            self.bins[idx] += weight;
        }
    }

    /// Weight in bin `i`.
    pub fn bin_weight(&self, i: usize) -> f64 {
        self.bins[i]
    }

    /// Center value of bin `i`.
    pub fn bin_center(&self, i: usize) -> f64 {
        let w = (self.hi - self.lo) / self.bins.len() as f64;
        self.lo + (i as f64 + 0.5) * w
    }

    pub fn underflow(&self) -> f64 {
        self.underflow
    }

    pub fn overflow(&self) -> f64 {
        self.overflow
    }

    pub fn total_weight(&self) -> f64 {
        self.total
    }

    /// Fraction of total weight in bin `i`.
    pub fn bin_fraction(&self, i: usize) -> f64 {
        if self.total == 0.0 {
            0.0
        } else {
            self.bins[i] / self.total
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_binning() {
        let mut h = Histogram::new(0.0, 10.0, 10);
        h.add(0.5, 1.0);
        h.add(5.5, 2.0);
        h.add(9.99, 1.0);
        assert_eq!(h.bin_weight(0), 1.0);
        assert_eq!(h.bin_weight(5), 2.0);
        assert_eq!(h.bin_weight(9), 1.0);
        assert_eq!(h.total_weight(), 4.0);
    }

    #[test]
    fn under_and_overflow() {
        let mut h = Histogram::new(0.0, 1.0, 2);
        h.add(-1.0, 1.0);
        h.add(1.0, 2.0); // hi is exclusive
        h.add(2.0, 3.0);
        assert_eq!(h.underflow(), 1.0);
        assert_eq!(h.overflow(), 5.0);
    }

    #[test]
    fn zero_weight_ignored() {
        let mut h = Histogram::new(0.0, 1.0, 1);
        h.add(0.5, 0.0);
        h.add(0.5, -2.0);
        assert_eq!(h.total_weight(), 0.0);
        assert_eq!(h.bin_fraction(0), 0.0);
    }

    #[test]
    fn bin_centers() {
        let h = Histogram::new(0.0, 10.0, 5);
        assert!((h.bin_center(0) - 1.0).abs() < 1e-12);
        assert!((h.bin_center(4) - 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn invalid_range_panics() {
        let _ = Histogram::new(1.0, 1.0, 4);
    }
}
