//! RTT assembly: propagation + queueing + last mile + measurement noise.
//!
//! An RTT sample over a realized path at time `t` is
//!
//! ```text
//! rtt(t) = 2·propagation + Σ_links queue(link, t) + queue(metro(dst), t)
//!          + queue(lastmile, t) + per-hop router cost + access delay + noise
//! ```
//!
//! Queueing terms are counted once per entity (bottleneck queues form in the
//! congested direction; we don't model direction asymmetry). TCP's MinRTT
//! over a session takes the minimum of several samples, which strips most of
//! the noise but none of the standing queueing — matching how the §3.1
//! dataset (TCP MinRTT) still sees congestion.

use crate::path::RealizedPath;
use bb_topology::Topology;
use rand::Rng;
use std::ops::Range;

/// Fixed per-AS-boundary router/processing cost, ms (both directions).
pub const PER_HOP_MS: f64 = 0.25;

/// Client access (DSL/cable/wireless serialization) baseline RTT cost, ms.
pub const ACCESS_BASE_MS: f64 = 2.0;

/// Knobs for RTT sampling.
#[derive(Debug, Clone)]
pub struct RttModel {
    /// Log-normal jitter sigma (per sample).
    pub jitter_sigma: f64,
    /// Median of the jitter distribution, ms.
    pub jitter_median_ms: f64,
}

impl Default for RttModel {
    fn default() -> Self {
        Self {
            jitter_sigma: 0.8,
            jitter_median_ms: 1.0,
        }
    }
}

/// Congestion-free floor of a path's RTT: propagation + hop costs + access.
pub fn path_base_rtt_ms(topo: &Topology, path: &RealizedPath) -> f64 {
    2.0 * path.propagation_ms(topo) + PER_HOP_MS * path.hop_count() as f64 + ACCESS_BASE_MS
}

/// The Box-Muller deviate of one uniform pair, through libm. Every deviate
/// the sampling paths report is this expression, evaluated the same way.
#[inline]
pub(crate) fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Bound on `|approx_z(u1, u2) − box_muller(u1, u2)|` over `u1 ∈ [ε, 1)`,
/// `u2 ∈ [0, 1)`.
///
/// The truncation errors are `2·|s|¹⁵/(15·(1 − s²)) ≤ 4.6e-13` for the ln
/// series (`|s| ≤ 3 − 2√2`) and `(π/2)¹⁷/17! ≤ 6.1e-12` for the sine series.
/// With the radius `≤ √(2·ln 2⁵²) < 8.5` and a few ulps of rounding per
/// operation, `|z̃ − z|` stays below 1e-10; the observed maximum is about
/// 5e-11. The bound leaves four orders of magnitude of slack above that.
pub const APPROX_Z_ERR: f64 = 1e-6;

/// Branch-free `ln u` for positive normal `u`: split `u = m·2^k` with
/// `m ∈ [√½, √2)`, then `ln m = 2·atanh(s)`, `s = (m − 1)/(m + 1)`, by its
/// odd series through `s¹³`. Near `u = 1` the error is relative, because
/// `m − 1` is exact there.
#[inline(always)]
fn approx_ln(u: f64) -> f64 {
    const SQRT_HALF_BITS: u64 = 0x3fe6_a09e_667f_3bcd;
    // 2^52 as bits: `from_bits(TWO_52 | n) = 2^52 + n` converts the
    // exponent to f64 without an int-to-float instruction SSE2 lacks.
    const TWO_52: u64 = 0x4330_0000_0000_0000;
    let bits = u.to_bits();
    let tmp = bits.wrapping_sub(SQRT_HALF_BITS);
    // tmp = k·2^52 + (m's offset from √½), and k ≥ −1022 for normal u:
    // biasing by 1024 keeps the logically shifted exponent non-negative.
    let biased_k = tmp.wrapping_add(1024 << 52) >> 52;
    let k = f64::from_bits(TWO_52 | biased_k) - (4_503_599_627_370_496.0 + 1024.0);
    let m = f64::from_bits(bits.wrapping_sub(tmp & (0xfff << 52)));
    let s = (m - 1.0) / (m + 1.0);
    let s2 = s * s;
    let p = 1.0 / 11.0 + s2 * (1.0 / 13.0);
    let p = 1.0 / 9.0 + s2 * p;
    let p = 1.0 / 7.0 + s2 * p;
    let p = 1.0 / 5.0 + s2 * p;
    let p = 1.0 / 3.0 + s2 * p;
    let p = 1.0 + s2 * p;
    k * std::f64::consts::LN_2 + 2.0 * s * p
}

/// Branch-free `cos(τ·u)` for `u ∈ [0, 1)`: `cos x = sin(|x − π| − π/2)`
/// with the argument in `[−π/2, π/2]`, then the sine's odd Taylor series
/// through `t¹⁵`.
#[inline(always)]
fn approx_cos_tau(u: f64) -> f64 {
    use std::f64::consts::{FRAC_PI_2, PI, TAU};
    let t = (TAU * u - PI).abs() - FRAC_PI_2;
    let t2 = t * t;
    let p = 1.0 / 1_307_674_368_000.0;
    let p = 1.0 / 6_227_020_800.0 - t2 * p;
    let p = 1.0 / 39_916_800.0 - t2 * p;
    let p = 1.0 / 362_880.0 - t2 * p;
    let p = 1.0 / 5_040.0 - t2 * p;
    let p = 1.0 / 120.0 - t2 * p;
    let p = 1.0 / 6.0 - t2 * p;
    let p = 1.0 - t2 * p;
    t * p
}

/// The ranking deviate `z̃ = √(−2·ln~ u1)·cos~(τ·u2)`, within
/// [`APPROX_Z_ERR`] of [`box_muller`]. Plain `*` and `+` only:
/// `f64::mul_add` is a libm call on targets without FMA.
#[inline(always)]
fn approx_z(u1: f64, u2: f64) -> f64 {
    (-2.0 * approx_ln(u1)).sqrt() * approx_cos_tau(u2)
}

/// Reused buffers for [`batch_session_min_z`] and
/// [`batch_session_median_z`]: the uniforms and ranking deviates of one
/// batch, plus the per-session lanes of the median path. Hoisted out of
/// the window loop by callers so the hot path allocates nothing.
#[derive(Debug, Default)]
pub struct JitterScratch {
    u1: Vec<f64>,
    u2: Vec<f64>,
    /// `approx_z` of every draw.
    approx: Vec<f64>,
    /// Each session's minimum ranking deviate.
    session_approx: Vec<f64>,
    /// Exact minima of the sessions inside the median band.
    exact: Vec<f64>,
}

impl JitterScratch {
    /// Draw `n` Box-Muller uniform pairs in the scalar path's stream order.
    fn draw(&mut self, rng: &mut impl Rng, n: usize) {
        self.u1.clear();
        self.u2.clear();
        self.u1.reserve(n);
        self.u2.reserve(n);
        for _ in 0..n {
            self.u1.push(rng.gen_range(f64::EPSILON..1.0));
            self.u2.push(rng.gen::<f64>());
        }
    }

    /// Rank every drawn pair with [`approx_z`].
    fn rank(&mut self) {
        self.approx.resize(self.u1.len(), 0.0);
        for ((a, &u1), &u2) in self.approx.iter_mut().zip(&self.u1).zip(&self.u2) {
            *a = approx_z(u1, u2);
        }
    }

    /// Minimum ranking deviate of draws `range`. Ranking deviates are
    /// never NaN, so a plain compare replaces `f64::min`'s NaN handling.
    fn approx_min(&self, range: Range<usize>) -> f64 {
        self.approx[range].iter().fold(f64::INFINITY, |m, &a| if a < m { a } else { m })
    }

    /// Exact minimum deviate of draws `range`, whose ranking minimum is
    /// `approx_min`, and the number of libm evaluations it took. Only a
    /// draw with `z̃ ≤ approx_min + 2·APPROX_Z_ERR` can be the argmin: the
    /// argmin `i*` has `z̃ᵢ* ≤ zᵢ* + E ≤ zⱼ + E ≤ z̃ⱼ + 2E` for every `j`.
    /// `f64::min` returns one of its inputs, so folding those draws yields
    /// the exact minimum's bits.
    fn resolve(&self, range: Range<usize>, approx_min: f64) -> (f64, usize) {
        let cut = approx_min + 2.0 * APPROX_Z_ERR;
        let mut min_z = f64::INFINITY;
        let mut evals = 0;
        for i in range {
            if self.approx[i] <= cut {
                evals += 1;
                min_z = min_z.min(box_muller(self.u1[i], self.u2[i]));
            }
        }
        (min_z, evals)
    }

    /// Per-session exact minima of the drawn pairs; see
    /// [`batch_session_min_z`].
    fn session_minima(&mut self, sessions: usize, per: usize, out_min_z: &mut Vec<f64>) -> usize {
        self.rank();
        let mut evals = 0;
        out_min_z.clear();
        out_min_z.reserve(sessions);
        for s in 0..sessions {
            let range = s * per..(s + 1) * per;
            let (min_z, n) = self.resolve(range.clone(), self.approx_min(range));
            evals += n;
            out_min_z.push(min_z);
        }
        evals
    }

    /// Median of the per-session exact minima of the drawn pairs; see
    /// [`batch_session_median_z`].
    fn session_median(&mut self, sessions: usize, per: usize) -> (f64, usize) {
        assert!(sessions % 2 == 1, "median entry point needs an odd session count");
        self.rank();
        self.session_approx.clear();
        for s in 0..sessions {
            let m = self.approx_min(s * per..(s + 1) * per);
            self.session_approx.push(m);
        }
        let mid = sessions / 2;
        // The ranking median by counting: the value with at most `mid`
        // values below it and more than `mid` at or below it. Quadratic,
        // but cheaper than a selection at single-digit session counts.
        let ranks = &self.session_approx;
        let approx_median = *ranks
            .iter()
            .find(|&&v| {
                let (lt, le) = ranks.iter().fold((0, 0), |(lt, le), &w| {
                    (lt + (w < v) as usize, le + (w <= v) as usize)
                });
                lt <= mid && mid < le
            })
            .expect("an odd, non-empty session set has a median");
        let lo = approx_median - 2.0 * APPROX_Z_ERR;
        let hi = approx_median + 2.0 * APPROX_Z_ERR;
        let mut below = 0;
        let mut evals = 0;
        self.exact.clear();
        for s in 0..sessions {
            let m = self.session_approx[s];
            if m < lo {
                below += 1;
            } else if m <= hi {
                let (min_z, n) = self.resolve(s * per..(s + 1) * per, m);
                evals += n;
                self.exact.push(min_z);
            }
        }
        let (_, &mut median, _) =
            self.exact.select_nth_unstable_by(mid - below, |a, b| a.total_cmp(b));
        (median, evals)
    }
}

/// Batched session sampling: draw `sessions × samples_per_session` standard
/// normals from `rng` — in exactly the stream order of `sessions` calls of
/// the scalar session walk in [`reference`](crate::reference) — and write
/// each session's minimum deviate into `out_min_z`. Returns the number of
/// deviates evaluated through libm.
///
/// Rank then resolve: every draw gets a branch-free polynomial deviate
/// [`approx_z`], and only the draws that can be their session's argmin
/// (see `JitterScratch::resolve`) are evaluated exactly, by the scalar
/// path's own expression. The approximations only choose which draws skip
/// libm, so every value is bit-identical to the scalar walk.
pub fn batch_session_min_z(
    rng: &mut impl Rng,
    sessions: usize,
    samples_per_session: usize,
    scratch: &mut JitterScratch,
    out_min_z: &mut Vec<f64>,
) -> usize {
    scratch.draw(rng, sessions * samples_per_session);
    scratch.session_minima(sessions, samples_per_session, out_min_z)
}

/// The median of the `sessions` per-session minimum deviates that
/// [`batch_session_min_z`] would produce — the value
/// `quantile_select(min_z, 0.5)` selects — and the number of deviates
/// evaluated through libm. Draws exactly the same stream. `sessions` must
/// be odd, so the median is one session's value.
///
/// Each session's ranking minimum `m̃ₛ` is within `E = APPROX_Z_ERR` of its
/// exact minimum `mₛ`, and so is the ranking median `M̃` of the exact
/// median `M`. The median session therefore lies in the band
/// `|m̃ₛ − M̃| ≤ 2E`, and a session below the band has `mₛ < M`. Only the
/// band is resolved: `M` is its `(mid − below)`-th exact value.
pub fn batch_session_median_z(
    rng: &mut impl Rng,
    sessions: usize,
    samples_per_session: usize,
    scratch: &mut JitterScratch,
) -> (f64, usize) {
    scratch.draw(rng, sessions * samples_per_session);
    scratch.session_median(sessions, samples_per_session)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::{CongestionConfig, CongestionKey, CongestionModel};
    use crate::path::{realize_path, RealizeSpec};
    use crate::reference::{path_rtt_ms, sample_min_rtt};
    use crate::time::SimTime;
    use bb_bgp::{compute_routes, Announcement};
    use bb_topology::{generate, AsClass, TopologyConfig, Topology};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn world() -> (Topology, RealizedPath) {
        let topo = generate(&TopologyConfig::small(17));
        let eye = topo.ases_of_class(AsClass::Eyeball).next().unwrap();
        let origin = eye.id;
        let dst_city = eye.footprint[0];
        let table = compute_routes(&topo, &Announcement::full(&topo, origin));
        let src = topo
            .ases()
            .iter()
            .find(|a| a.id != origin && table.as_path(a.id).is_some_and(|p| p.len() >= 3))
            .expect("some multi-hop source");
        let path = table.as_path(src.id).unwrap();
        let spec = RealizeSpec {
            as_path: &path,
            src_city: src.footprint[0],
            dst_city: Some(dst_city),
            first_link: None,
            final_entry_links: None,
        };
        let p = realize_path(&topo, &spec);
        (topo, p)
    }

    #[test]
    fn base_rtt_includes_floor_terms() {
        let (topo, p) = world();
        let base = path_base_rtt_ms(&topo, &p);
        assert!(base >= ACCESS_BASE_MS + PER_HOP_MS * p.hop_count() as f64);
        assert!(base >= 2.0 * p.propagation_ms(&topo));
    }

    #[test]
    fn congestion_only_adds() {
        let (topo, p) = world();
        let model = CongestionModel::new(1, CongestionConfig::default());
        let base = path_base_rtt_ms(&topo, &p);
        for h in [0.0, 6.0, 12.0, 20.0] {
            let rtt = path_rtt_ms(&topo, &model, &p, Some(CongestionKey::LastMile(9)), SimTime::from_hours(h));
            assert!(rtt >= base, "rtt {rtt} < base {base}");
        }
    }

    #[test]
    fn lastmile_key_shifts_rtt() {
        let (topo, p) = world();
        let model = CongestionModel::new(1, CongestionConfig::default());
        let t = SimTime::from_hours(20.0);
        let a = path_rtt_ms(&topo, &model, &p, Some(CongestionKey::LastMile(1)), t);
        let b = path_rtt_ms(&topo, &model, &p, None, t);
        assert!(a > b);
    }

    #[test]
    fn min_rtt_decreases_with_more_samples() {
        let rm = RttModel::default();
        let mut rng = StdRng::seed_from_u64(5);
        let avg = |n: usize, rng: &mut StdRng| {
            (0..200)
                .map(|_| sample_min_rtt(10.0, &rm, n, rng))
                .sum::<f64>()
                / 200.0
        };
        let one = avg(1, &mut rng);
        let ten = avg(10, &mut rng);
        assert!(ten < one, "min of 10 samples {ten} must beat 1 sample {one}");
        assert!(ten >= 10.0, "jitter is non-negative");
    }

    #[test]
    fn min_rtt_never_below_deterministic() {
        let rm = RttModel::default();
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..100 {
            assert!(sample_min_rtt(42.0, &rm, 5, &mut rng) >= 42.0);
        }
    }

    #[test]
    fn batch_min_z_matches_scalar_sample_min_rtt() {
        let rm = RttModel::default();
        let mut scratch = JitterScratch::default();
        let mut min_z = Vec::new();
        for (sessions, samples) in [(1, 1), (3, 5), (7, 5), (8, 4), (5, 1)] {
            for seed in 0..50u64 {
                let mut scalar_rng = StdRng::seed_from_u64(seed);
                let scalar: Vec<f64> = (0..sessions)
                    .map(|_| sample_min_rtt(10.0, &rm, samples, &mut scalar_rng))
                    .collect();
                let mut batch_rng = StdRng::seed_from_u64(seed);
                batch_session_min_z(&mut batch_rng, sessions, samples, &mut scratch, &mut min_z);
                assert_eq!(min_z.len(), sessions);
                for (s, &z) in scalar.iter().zip(&min_z) {
                    let batch_v = 10.0 + rm.jitter_median_ms * (rm.jitter_sigma * z).exp();
                    assert_eq!(s.to_bits(), batch_v.to_bits(), "seed {seed}");
                }
                // Same stream position afterwards: the batch consumed
                // exactly the scalar path's draws.
                use crate::rtt::tests::next_of;
                assert_eq!(next_of(&mut scalar_rng), next_of(&mut batch_rng));
            }
        }
    }

    /// Median of an odd-length slice under `total_cmp`.
    fn median_of(values: &[f64]) -> f64 {
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    }

    /// Scratch holding crafted uniform pairs, as if drawn.
    fn crafted(pairs: &[(f64, f64)]) -> JitterScratch {
        JitterScratch {
            u1: pairs.iter().map(|p| p.0).collect(),
            u2: pairs.iter().map(|p| p.1).collect(),
            ..JitterScratch::default()
        }
    }

    fn exact_min(pairs: &[(f64, f64)]) -> f64 {
        pairs.iter().fold(f64::INFINITY, |m, &(u1, u2)| m.min(box_muller(u1, u2)))
    }

    /// Both entry points on crafted equal-length sessions must equal the
    /// exact fold (and, for an odd count, its median) bit for bit. Returns
    /// the median path's libm evaluation count.
    fn check_resolve(sessions: &[Vec<(f64, f64)>]) -> usize {
        let per = sessions[0].len();
        let pairs = sessions.concat();
        let want: Vec<f64> = sessions.iter().map(|s| exact_min(s)).collect();
        let mut got = Vec::new();
        crafted(&pairs).session_minima(sessions.len(), per, &mut got);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got), bits(&want), "{sessions:?}");
        if sessions.len() % 2 == 0 {
            return 0;
        }
        let (median, evals) = crafted(&pairs).session_median(sessions.len(), per);
        assert_eq!(median.to_bits(), median_of(&want).to_bits(), "{sessions:?}");
        evals
    }

    /// A draw whose exact deviate is within ulps of `a`'s but which comes
    /// from a different radius `u1`, so its ranking error differs.
    fn near_twin(a: (f64, f64), u1: f64) -> (f64, f64) {
        let z = box_muller(a.0, a.1);
        let r = (-2.0 * u1.ln()).sqrt();
        let u2 = (z / r).acos() / std::f64::consts::TAU;
        (-8i64..=8)
            .map(|k| (u1, f64::from_bits((u2.to_bits() as i64 + k) as u64)))
            .min_by(|p, q| {
                let dp = (box_muller(p.0, p.1) - z).abs();
                let dq = (box_muller(q.0, q.1) - z).abs();
                dp.total_cmp(&dq)
            })
            .unwrap()
    }

    const ANCHOR: (f64, f64) = (0.3, 0.45);
    /// A draw far above every anchor-like deviate (`u2 = 0`: `z = +r`).
    const FILLER: (f64, f64) = (0.5, 0.0);

    /// Near twins of `ANCHOR` with exact deviates distinct from it but
    /// closer than 1e-12.
    fn twins() -> Vec<(f64, f64)> {
        let za = box_muller(ANCHOR.0, ANCHOR.1);
        let twins: Vec<(f64, f64)> = (0..40)
            .map(|i| near_twin(ANCHOR, 0.05 + 0.005 * i as f64))
            .filter(|&b| {
                let zb = box_muller(b.0, b.1);
                zb != za && (zb - za).abs() < 1e-12
            })
            .collect();
        assert!(twins.len() >= 20, "only {} near twins", twins.len());
        twins
    }

    #[test]
    fn resolve_near_tie_draws() {
        for b in twins() {
            check_resolve(&[vec![ANCHOR, b, FILLER]]);
            check_resolve(&[vec![b, FILLER, ANCHOR]]);
            check_resolve(&[vec![ANCHOR], vec![b], vec![FILLER]]);
            check_resolve(&[vec![FILLER], vec![b], vec![ANCHOR]]);
        }
    }

    #[test]
    fn resolve_identical_draws() {
        check_resolve(&[vec![ANCHOR, ANCHOR, FILLER]]);
        check_resolve(&[vec![FILLER, ANCHOR, ANCHOR]]);
        check_resolve(&[vec![ANCHOR, ANCHOR], vec![ANCHOR, FILLER], vec![FILLER, ANCHOR]]);
    }

    #[test]
    fn resolve_sessions_tied_at_median() {
        let low = (0.01, 0.5);
        let high = (0.01, 0.0);
        let twin = twins()[0];
        for tied in [ANCHOR, twin] {
            check_resolve(&[
                vec![high, FILLER],
                vec![ANCHOR, FILLER],
                vec![low, FILLER],
                vec![FILLER, tied],
                vec![low, high],
            ]);
        }
    }

    #[test]
    fn resolve_band_holding_every_session() {
        let twins = twins();
        for start in 0..twins.len() - 7 {
            let sessions: Vec<Vec<(f64, f64)>> = twins[start..start + 7]
                .iter()
                .map(|&b| vec![FILLER, b])
                .collect();
            assert!(check_resolve(&sessions) >= 7, "every session is in the band");
        }
    }

    /// Largest `|approx_z − box_muller|` over the pairs of `u1s × u2s`.
    fn max_approx_err(u1s: &[f64], u2s: &[f64]) -> f64 {
        let mut worst = 0.0_f64;
        for &u1 in u1s {
            for &u2 in u2s {
                worst = worst.max((approx_z(u1, u2) - box_muller(u1, u2)).abs());
            }
        }
        worst
    }

    #[test]
    fn approx_z_error_within_bound_on_edges_and_grid() {
        let ulp_up = |x: f64| f64::from_bits(x.to_bits() + 1);
        let ulp_down = |x: f64| f64::from_bits(x.to_bits() - 1);
        let half_sqrt = std::f64::consts::FRAC_1_SQRT_2;
        let mut u1s = vec![
            f64::EPSILON,
            ulp_up(f64::EPSILON),
            half_sqrt,
            ulp_down(half_sqrt),
            ulp_up(half_sqrt),
            half_sqrt / 2.0,
            0.5,
            1.0 - f64::EPSILON,
            1.0 - f64::EPSILON / 2.0,
        ];
        // Every binade of the u1 range, and a dense uniform grid.
        u1s.extend((1..=52).flat_map(|k| {
            let p = 2f64.powi(-k);
            [p, p * 1.2, p * 1.5, p * 1.9]
        }));
        u1s.extend((0..600).map(|i| f64::EPSILON + (1.0 - f64::EPSILON) * i as f64 / 600.0));
        let mut u2s = vec![
            0.0,
            0.25 - 1e-12,
            0.25,
            0.25 + 1e-12,
            0.5 - 1e-12,
            0.5,
            0.5 + 1e-12,
            0.75 - 1e-12,
            0.75,
            0.75 + 1e-12,
            1.0 - f64::EPSILON / 2.0,
        ];
        u2s.extend((0..1000).map(|j| j as f64 / 1000.0 + 1e-4));
        let worst = max_approx_err(&u1s, &u2s);
        assert!(worst <= APPROX_Z_ERR / 1000.0, "max |z~ - z| = {worst:e}");
    }

    /// Release-only sweep: `cargo test --release -p bb-netsim -- --ignored`.
    #[test]
    #[ignore]
    fn approx_z_bound_and_kernel_identity_at_scale() {
        let mut rng = StdRng::seed_from_u64(0x5eed_b0d);
        let mut worst = 0.0_f64;
        for _ in 0..50_000_000 {
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen::<f64>();
            worst = worst.max((approx_z(u1, u2) - box_muller(u1, u2)).abs());
        }
        assert!(worst <= APPROX_Z_ERR / 1000.0, "max |z~ - z| = {worst:e}");

        let rm = RttModel::default();
        let mut scratch = JitterScratch::default();
        let mut min_z = Vec::new();
        for cell in 0..1_000_000u64 {
            let sessions = 1 + 2 * (cell % 5) as usize;
            let samples = 1 + (cell % 8) as usize;
            let mut scalar_rng = StdRng::seed_from_u64(cell);
            let scalar: Vec<f64> = (0..sessions)
                .map(|_| sample_min_rtt(10.0, &rm, samples, &mut scalar_rng))
                .collect();
            let mut batch_rng = StdRng::seed_from_u64(cell);
            batch_session_min_z(&mut batch_rng, sessions, samples, &mut scratch, &mut min_z);
            for (s, &z) in scalar.iter().zip(&min_z) {
                let batch_v = 10.0 + rm.jitter_median_ms * (rm.jitter_sigma * z).exp();
                assert_eq!(s.to_bits(), batch_v.to_bits(), "cell {cell}");
            }
            let mut median_rng = StdRng::seed_from_u64(cell);
            let (z, _) = batch_session_median_z(&mut median_rng, sessions, samples, &mut scratch);
            assert_eq!(z.to_bits(), median_of(&min_z).to_bits(), "cell {cell}");
            let next = next_of(&mut scalar_rng);
            assert_eq!(next, next_of(&mut batch_rng));
            assert_eq!(next, next_of(&mut median_rng));
        }
    }

    pub(crate) fn next_of(rng: &mut StdRng) -> u64 {
        use rand::RngCore;
        rng.next_u64()
    }

    #[test]
    fn deterministic_rtt_same_inputs_same_output() {
        let (topo, p) = world();
        let m1 = CongestionModel::new(3, CongestionConfig::default());
        let m2 = CongestionModel::new(3, CongestionConfig::default());
        let t = SimTime::from_hours(13.0);
        let k = Some(CongestionKey::LastMile(2));
        assert_eq!(
            path_rtt_ms(&topo, &m1, &p, k, t),
            path_rtt_ms(&topo, &m2, &p, k, t)
        );
    }
}
