//! Streaming summary statistics (Welford's online algorithm).

/// Incremental count/mean/variance/min/max, mergeable across shards.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        Self::new()
    }
}

impl Summary {
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Merge another summary into this one (Chan's parallel update).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let n1 = self.count as f64;
        let n2 = other.count as f64;
        let delta = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += delta * n2 / n;
        self.m2 += other.m2 + delta * delta * n1 * n2 / n;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then_some(self.mean)
    }

    /// Sample variance (n−1 denominator).
    pub fn variance(&self) -> Option<f64> {
        (self.count > 1).then(|| self.m2 / (self.count - 1) as f64)
    }

    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }
}

impl FromIterator<f64> for Summary {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = Summary::new();
        for x in iter {
            s.push(x);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert!(s.mean().is_none());
        assert!(s.variance().is_none());
        assert!(s.min().is_none());
    }

    #[test]
    fn known_values() {
        let s: Summary = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0].into_iter().collect();
        assert_eq!(s.count(), 8);
        assert!((s.mean().unwrap() - 5.0).abs() < 1e-12);
        // Population variance 4.0 → sample variance 32/7.
        assert!((s.variance().unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn merge_equals_combined_stream() {
        let data: Vec<f64> = (0..100).map(|i| ((i * 17) % 31) as f64 * 0.5).collect();
        let (a, b) = data.split_at(37);
        let mut s1: Summary = a.iter().copied().collect();
        let s2: Summary = b.iter().copied().collect();
        s1.merge(&s2);
        let full: Summary = data.iter().copied().collect();
        assert_eq!(s1.count(), full.count());
        assert!((s1.mean().unwrap() - full.mean().unwrap()).abs() < 1e-9);
        assert!((s1.variance().unwrap() - full.variance().unwrap()).abs() < 1e-9);
        assert_eq!(s1.min(), full.min());
        assert_eq!(s1.max(), full.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut s: Summary = [1.0, 2.0].into_iter().collect();
        let before = s;
        s.merge(&Summary::new());
        assert_eq!(s.count(), before.count());
        assert_eq!(s.mean(), before.mean());

        let mut e = Summary::new();
        e.merge(&before);
        assert_eq!(e.count(), 2);
        assert_eq!(e.mean(), before.mean());
    }

    #[test]
    fn single_value_has_no_variance() {
        let s: Summary = [3.0].into_iter().collect();
        assert!(s.variance().is_none());
        assert_eq!(s.mean(), Some(3.0));
    }
}
