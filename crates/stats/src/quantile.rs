//! Quantiles, weighted and unweighted.
//!
//! The weighted variants implement the "fraction of traffic" semantics the
//! paper uses throughout §3.1: a sample's weight is its traffic volume, and
//! the q-quantile is the smallest value v such that samples ≤ v carry at
//! least a q-fraction of total weight.

/// Unweighted quantile of an already-sorted slice (ascending), with linear
/// interpolation between order statistics: the reference the selection
/// forms below match. `q` is clamped to [0, 1]. Panics on empty input.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

std::thread_local! {
    static SCRATCH: std::cell::RefCell<Vec<f64>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Quantile of an unsorted slice without the clone-and-full-sort pattern:
/// the input is copied into a reusable thread-local scratch buffer and the
/// order statistics bracketing the quantile position are found with O(n)
/// selection. Returns exactly what `quantile_sorted` returns over a sorted
/// copy, and `None` on empty input. NaNs are rejected with a panic in debug
/// builds and ordered by `total_cmp` in release builds.
pub fn quantile_unsorted(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    debug_assert!(values.iter().all(|v| !v.is_nan()), "NaN in quantile input");
    SCRATCH.with(|cell| {
        let mut buf = cell.borrow_mut();
        buf.clear();
        buf.extend_from_slice(values);
        Some(quantile_select(&mut buf, q))
    })
}

/// Median shortcut for `quantile_unsorted`.
pub fn median_unsorted(values: &[f64]) -> Option<f64> {
    quantile_unsorted(values, 0.5)
}

/// In-place selection quantile for callers that own a scratch buffer. The
/// slice is partially reordered. Panics on empty input.
///
/// Interpolation matches `quantile_sorted` bit-for-bit: `total_cmp` order,
/// linear interpolation at position `q * (n - 1)`.
pub fn quantile_select(buf: &mut [f64], q: f64) -> f64 {
    assert!(!buf.is_empty());
    let q = q.clamp(0.0, 1.0);
    let pos = q * (buf.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let (_, &mut lo_v, rest) = buf.select_nth_unstable_by(lo, |a, b| a.total_cmp(b));
    if lo == hi {
        return lo_v;
    }
    // hi == lo + 1, so sorted[hi] is the total_cmp-minimum of the right
    // partition left behind by the selection.
    let hi_v = rest
        .iter()
        .copied()
        .min_by(|a, b| a.total_cmp(b))
        .expect("hi < len implies a non-empty right partition");
    let frac = pos - lo as f64;
    lo_v * (1.0 - frac) + hi_v * frac
}

/// Weighted quantile: smallest value v such that the cumulative weight of
/// samples ≤ v reaches `q` of the total weight.
///
/// Items with non-positive weight are ignored. Returns `None` if no item has
/// positive weight.
///
/// ```
/// use bb_stats::weighted_quantile;
/// // One heavy sample dominates: the median follows the weight.
/// let samples = [(10.0, 1.0), (20.0, 8.0), (30.0, 1.0)];
/// assert_eq!(weighted_quantile(&samples, 0.5), Some(20.0));
/// assert_eq!(weighted_quantile(&[], 0.5), None);
/// ```
pub fn weighted_quantile(items: &[(f64, f64)], q: f64) -> Option<f64> {
    let mut pairs: Vec<(f64, f64)> = items.iter().copied().filter(|&(_, w)| w > 0.0).collect();
    if pairs.is_empty() {
        return None;
    }
    debug_assert!(
        pairs.iter().all(|(v, _)| !v.is_nan()),
        "NaN in weighted_quantile input"
    );
    pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
    let q = q.clamp(0.0, 1.0);
    let target = q * total;
    let mut cum = 0.0;
    for &(v, w) in &pairs {
        cum += w;
        if cum >= target {
            return Some(v);
        }
    }
    Some(pairs.last().unwrap().0)
}

/// Weighted median shortcut.
pub fn weighted_median(items: &[(f64, f64)]) -> Option<f64> {
    weighted_quantile(items, 0.5)
}

/// Minimum of the finite entries; `NaN` when none are finite.
///
/// The figure-feeding NaN policy in one place: degraded samples (`NaN`)
/// and sentinel infinities never make it into an aggregate. Callers fold
/// candidate RTTs through this and gate on `is_finite()` — the result is
/// either a real measured value or `NaN`, never `±inf`.
pub fn min_finite(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().filter(|v| v.is_finite()).fold(
        f64::NAN,
        |acc, v| if acc.is_finite() && acc <= v { acc } else { v },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_inputs_return_none() {
        assert!(quantile_unsorted(&[], 0.5).is_none());
        assert!(weighted_quantile(&[], 0.5).is_none());
        assert!(weighted_quantile(&[(1.0, 0.0)], 0.5).is_none());
    }

    #[test]
    fn single_value() {
        assert_eq!(quantile_unsorted(&[42.0], 0.0), Some(42.0));
        assert_eq!(quantile_unsorted(&[42.0], 0.5), Some(42.0));
        assert_eq!(quantile_unsorted(&[42.0], 1.0), Some(42.0));
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median_unsorted(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median_unsorted(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn interpolation_between_order_statistics() {
        // 0.25 quantile of [0, 10]: position 0.25 -> 2.5
        let v = quantile_unsorted(&[0.0, 10.0], 0.25).unwrap();
        assert!((v - 2.5).abs() < 1e-12);
    }

    #[test]
    fn quantile_extremes_are_min_max() {
        let data = [5.0, -3.0, 7.0, 1.0];
        assert_eq!(quantile_unsorted(&data, 0.0), Some(-3.0));
        assert_eq!(quantile_unsorted(&data, 1.0), Some(7.0));
    }

    #[test]
    fn q_is_clamped() {
        let data = [1.0, 2.0];
        assert_eq!(quantile_unsorted(&data, -3.0), Some(1.0));
        assert_eq!(quantile_unsorted(&data, 42.0), Some(2.0));
    }

    #[test]
    fn weighted_median_follows_weight_not_count() {
        // One heavy sample dominates many light ones.
        let items = [(100.0, 10.0), (1.0, 0.1), (2.0, 0.1), (3.0, 0.1)];
        assert_eq!(weighted_median(&items), Some(100.0));
    }

    #[test]
    fn weighted_matches_unweighted_for_equal_weights() {
        let values = [9.0, 1.0, 5.0, 3.0, 7.0];
        let items: Vec<(f64, f64)> = values.iter().map(|&v| (v, 1.0)).collect();
        // With step-function semantics the weighted median of 5 equal
        // weights is the 3rd order statistic.
        assert_eq!(weighted_median(&items), Some(5.0));
        assert_eq!(median_unsorted(&values), Some(5.0));
    }

    #[test]
    fn weighted_quantile_is_monotone_in_q() {
        let items: Vec<(f64, f64)> = (0..100).map(|i| (i as f64, 1.0 + (i % 7) as f64)).collect();
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let v = weighted_quantile(&items, q).unwrap();
            assert!(v >= prev, "q={q}: {v} < {prev}");
            prev = v;
        }
    }

    #[test]
    fn selection_matches_sort_based_quantile() {
        // Deterministic pseudo-random data with duplicates and negatives.
        let mut x = 0x_dead_beef_u64;
        let mut values = Vec::new();
        for _ in 0..257 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            values.push(((x >> 33) % 1000) as f64 / 7.0 - 50.0);
        }
        let sorted = |v: &[f64]| {
            let mut v = v.to_vec();
            v.sort_by(|a, b| a.total_cmp(b));
            v
        };
        let all = sorted(&values);
        for i in 0..=40 {
            let q = i as f64 / 40.0;
            assert_eq!(
                quantile_unsorted(&values, q),
                Some(quantile_sorted(&all, q)),
                "q={q}"
            );
        }
        // Tiny inputs and edge quantiles.
        for n in 1..6 {
            let small = &values[..n];
            for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
                assert_eq!(
                    quantile_unsorted(small, q),
                    Some(quantile_sorted(&sorted(small), q))
                );
            }
        }
        assert_eq!(median_unsorted(&values), Some(quantile_sorted(&all, 0.5)));
        assert!(quantile_unsorted(&[], 0.5).is_none());
    }

    #[test]
    fn quantile_select_reuses_buffer_correctly() {
        let mut buf = vec![5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(quantile_select(&mut buf, 0.5), 3.0);
        // Buffer is reordered but still usable for another call.
        assert_eq!(quantile_select(&mut buf, 1.0), 5.0);
    }

    #[test]
    fn negative_weights_ignored() {
        let items = [(1.0, -5.0), (2.0, 1.0)];
        assert_eq!(weighted_median(&items), Some(2.0));
    }
}
