//! Bootstrap confidence intervals.
//!
//! Figure 1's shaded region is "the distribution of the lower and upper
//! bounds of the confidence intervals around the performance difference".
//! We compute per-group CIs for the median by the percentile bootstrap,
//! with an explicit seed so the whole figure is reproducible.

use crate::quantile::quantile_sorted;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// Division-free `n % d` for a loop-invariant divisor (Lemire's fastmod):
/// `c = ⌊2¹²⁸/d⌋ + 1`, then `n % d = ⌊(c·n mod 2¹²⁸) · d / 2¹²⁸⌋`. Exact
/// for every `n` and `d > 0`, so the result matches the hardware remainder
/// bit-for-bit at a fraction of the latency.
struct FastRem {
    d: u64,
    c: u128,
}

impl FastRem {
    fn new(d: u64) -> Self {
        assert!(d > 0);
        // For d = 1 the +1 wraps c to 0, which still yields rem ≡ 0: correct.
        Self {
            d,
            c: (u128::MAX / d as u128).wrapping_add(1),
        }
    }

    #[inline]
    fn rem(&self, n: u64) -> u64 {
        let low = self.c.wrapping_mul(n as u128);
        // High 64 bits of the 192-bit product `low · d`, i.e.
        // ⌊low · d / 2¹²⁸⌋ (d < 2⁶⁴ keeps every partial sum in u128).
        let hi = low >> 64;
        let lo = low & u64::MAX as u128;
        let d = self.d as u128;
        ((hi * d + ((lo * d) >> 64)) >> 64) as u64
    }
}

/// A two-sided confidence interval around a point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    pub lower: f64,
    pub point: f64,
    pub upper: f64,
    /// Nominal coverage, e.g. 0.95.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Whether the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        (self.lower..=self.upper).contains(&x)
    }
}

/// Percentile-bootstrap CI for the median of `values`.
///
/// `resamples` controls the bootstrap replication count (the paper's scale
/// would use thousands; 200 is plenty for figure shape). Returns `None` on
/// empty input or zero resamples (no replicate medians, so no interval).
/// For a single sample the interval is degenerate.
///
/// A resample is a multiset of input indices, so it is never
/// materialized: the input is argsorted once by `total_cmp`, each draw
/// bumps its index's count, and the replicate median is read off the
/// counts accumulated in value order. The order statistics, and so the
/// interpolated median, are bit-identical to copying the resample and
/// running [`quantile_select`](crate::quantile_select) on the copy.
pub fn bootstrap_median_ci(
    values: &[f64],
    level: f64,
    resamples: usize,
    seed: u64,
) -> Option<ConfidenceInterval> {
    if values.is_empty() || resamples == 0 {
        return None;
    }
    debug_assert!(values.iter().all(|v| !v.is_nan()), "NaN in bootstrap input");
    SCRATCH.with_borrow_mut(|scratch| {
        let BootstrapScratch {
            order,
            sorted,
            counts,
            medians,
        } = scratch;
        let n = values.len();
        order.clear();
        order.extend(0..n as u32);
        order.sort_unstable_by(|&a, &b| values[a as usize].total_cmp(&values[b as usize]));
        sorted.clear();
        sorted.extend(order.iter().map(|&i| values[i as usize]));
        counts.clear();
        counts.resize(n, 0);
        // The point estimate: the median of this same `total_cmp` order.
        let point = quantile_sorted(sorted, 0.5);
        if n == 1 {
            return Some(ConfidenceInterval {
                lower: point,
                point,
                upper: point,
                level,
            });
        }

        // `quantile_select`'s bracketing order statistics for q = 0.5.
        let pos = 0.5 * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;

        let mut rng = StdRng::seed_from_u64(seed);
        // `gen_range(0..len)` is `next_u64() % len`; the divisor is loop-
        // invariant, so hoist the division out of the ~len × resamples
        // draws.
        let index = FastRem::new(n as u64);
        medians.clear();
        medians.reserve(resamples);
        for _ in 0..resamples {
            for _ in 0..n {
                counts[index.rem(rng.next_u64()) as usize] += 1;
            }
            // Walking the counts in value order, the `lo`-th smallest draw
            // (0-based) sits at the first rank whose cumulative count
            // passes `lo`; likewise `hi`.
            let mut k = 0;
            let mut cum = counts[order[0] as usize] as usize;
            while cum <= lo {
                k += 1;
                cum += counts[order[k] as usize] as usize;
            }
            let lo_v = sorted[k];
            let median = if lo == hi {
                lo_v
            } else {
                while cum <= hi {
                    k += 1;
                    cum += counts[order[k] as usize] as usize;
                }
                lo_v * (1.0 - frac) + sorted[k] * frac
            };
            medians.push(median);
            counts.fill(0);
        }
        medians.sort_by(|a, b| a.total_cmp(b));

        let alpha = (1.0 - level.clamp(0.0, 1.0)) / 2.0;
        Some(ConfidenceInterval {
            lower: quantile_sorted(medians, alpha),
            point,
            upper: quantile_sorted(medians, 1.0 - alpha),
            level,
        })
    })
}

/// Reused bootstrap buffers, one set per thread: the egress study runs one
/// `bootstrap_median_ci` per ⟨PoP, prefix⟩ group (hundreds to thousands per
/// campaign), and the buffers would otherwise be reallocated per group.
#[derive(Default)]
struct BootstrapScratch {
    /// Input indices in `total_cmp` order of their values.
    order: Vec<u32>,
    /// The input in that order: `sorted[k] == values[order[k]]`.
    sorted: Vec<f64>,
    /// Per input index, how often the current resample drew it.
    counts: Vec<u32>,
    /// The bootstrap replicate medians.
    medians: Vec<f64>,
}

thread_local! {
    static SCRATCH: std::cell::RefCell<BootstrapScratch> = Default::default();
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn width(ci: &ConfidenceInterval) -> f64 {
        ci.upper - ci.lower
    }

    /// The copy-and-quickselect bootstrap the rank-count loop replaced:
    /// every resample copied into a buffer, its median by
    /// `quantile_select`.
    fn reference_ci(
        values: &[f64],
        level: f64,
        resamples: usize,
        seed: u64,
    ) -> Option<ConfidenceInterval> {
        let point = crate::median_unsorted(values)?;
        if resamples == 0 {
            return None;
        }
        if values.len() == 1 {
            return Some(ConfidenceInterval {
                lower: point,
                point,
                upper: point,
                level,
            });
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let index = FastRem::new(values.len() as u64);
        let mut buf = vec![0.0; values.len()];
        let mut medians: Vec<f64> = (0..resamples)
            .map(|_| {
                for slot in buf.iter_mut() {
                    *slot = values[index.rem(rng.next_u64()) as usize];
                }
                crate::quantile_select(&mut buf, 0.5)
            })
            .collect();
        medians.sort_by(|a, b| a.total_cmp(b));
        let alpha = (1.0 - level.clamp(0.0, 1.0)) / 2.0;
        Some(ConfidenceInterval {
            lower: quantile_sorted(&medians, alpha),
            point,
            upper: quantile_sorted(&medians, 1.0 - alpha),
            level,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// Rank-count and copy-and-select agree bit for bit, including on
        /// heavy ties, signed zeros and negative values.
        #[test]
        fn rank_count_matches_copy_and_select(
            n in 2usize..301,
            tied in 0u8..2,
            resample_idx in 0usize..2,
            level_idx in 0usize..3,
            seed in 0u64..u64::MAX,
        ) {
            let resamples = [1, 120][resample_idx];
            let level = [0.90, 0.95, 0.99][level_idx];
            let mut state = seed;
            let values: Vec<f64> = (0..n)
                .map(|_| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                    if tied == 1 {
                        [-0.0, 0.0, -3.5][(state >> 40) as usize % 3]
                    } else {
                        (u - 0.4) * 50.0
                    }
                })
                .collect();
            let got = bootstrap_median_ci(&values, level, resamples, seed).unwrap();
            let want = reference_ci(&values, level, resamples, seed).unwrap();
            for (g, w) in [
                (got.lower, want.lower),
                (got.point, want.point),
                (got.upper, want.upper),
            ] {
                prop_assert_eq!(g.to_bits(), w.to_bits(), "n={} got {:?} want {:?}", n, got, want);
            }
        }
    }

    #[test]
    fn zero_resamples_returns_none() {
        assert!(bootstrap_median_ci(&[1.0, 2.0], 0.95, 0, 1).is_none());
        assert!(bootstrap_median_ci(&[7.0], 0.95, 0, 1).is_none());
    }

    #[test]
    fn fast_rem_matches_hardware_remainder() {
        let divisors = [1u64, 2, 3, 7, 240, 241, 1000, u32::MAX as u64, u64::MAX];
        let mut probes: Vec<u64> = vec![0, 1, 2, 239, 240, 241, u64::MAX, u64::MAX - 1];
        // Deterministic pseudo-random probes (splitmix64 walk).
        let mut x = 0x9e3779b97f4a7c15u64;
        for _ in 0..10_000 {
            x = x.wrapping_mul(0xbf58476d1ce4e5b9).rotate_left(31);
            probes.push(x);
        }
        for &d in &divisors {
            let f = FastRem::new(d);
            for &n in &probes {
                assert_eq!(f.rem(n), n % d, "n={n} d={d}");
            }
        }
    }

    #[test]
    fn empty_returns_none() {
        assert!(bootstrap_median_ci(&[], 0.95, 100, 1).is_none());
    }

    #[test]
    fn single_sample_is_degenerate() {
        let ci = bootstrap_median_ci(&[7.0], 0.95, 100, 1).unwrap();
        assert_eq!(ci.lower, 7.0);
        assert_eq!(ci.upper, 7.0);
        assert_eq!(width(&ci), 0.0);
    }

    #[test]
    fn interval_brackets_point_estimate() {
        let data: Vec<f64> = (0..50).map(|i| (i as f64) * 0.1).collect();
        let ci = bootstrap_median_ci(&data, 0.95, 300, 42).unwrap();
        assert!(ci.lower <= ci.point);
        assert!(ci.point <= ci.upper);
        assert!(ci.contains(ci.point));
    }

    #[test]
    fn deterministic_for_same_seed() {
        let data: Vec<f64> = (0..30).map(|i| ((i * 13) % 17) as f64).collect();
        let a = bootstrap_median_ci(&data, 0.95, 200, 7).unwrap();
        let b = bootstrap_median_ci(&data, 0.95, 200, 7).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn more_data_tighter_interval() {
        // Same underlying distribution; 10x the samples should shrink the CI.
        let small: Vec<f64> = (0..20).map(|i| ((i * 7919) % 100) as f64).collect();
        let large: Vec<f64> = (0..2000).map(|i| ((i * 7919) % 100) as f64).collect();
        let ci_s = bootstrap_median_ci(&small, 0.95, 300, 3).unwrap();
        let ci_l = bootstrap_median_ci(&large, 0.95, 300, 3).unwrap();
        assert!(
            width(&ci_l) < width(&ci_s),
            "large {} vs small {}",
            width(&ci_l),
            width(&ci_s)
        );
    }

    #[test]
    fn wider_level_wider_interval() {
        let data: Vec<f64> = (0..40).map(|i| ((i * 31) % 23) as f64).collect();
        let ci_90 = bootstrap_median_ci(&data, 0.90, 400, 5).unwrap();
        let ci_99 = bootstrap_median_ci(&data, 0.99, 400, 5).unwrap();
        assert!(width(&ci_99) >= width(&ci_90));
    }
}
