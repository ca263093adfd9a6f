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

/// Reused buffers for [`batch_session_min_z`] and [`MedianLanes`]: the
/// uniforms and ranking deviates of one batch or one lane group, plus the
/// exact minima of a median band. Hoisted out of the window loop by callers
/// so the hot path allocates nothing.
#[derive(Debug, Default)]
pub struct JitterScratch {
    u1: Vec<f64>,
    u2: Vec<f64>,
    /// `approx_z` of every draw.
    approx: Vec<f64>,
    /// Exact minima of the sessions inside the median band.
    exact: Vec<f64>,
    /// One lane group's draws and ranking deviates, draw-major.
    lane_u1: Vec<Lane<f64>>,
    lane_u2: Vec<Lane<f64>>,
    lane_approx: Vec<Lane<f64>>,
    /// Each session's minimum ranking deviate, per lane.
    lane_session: Vec<Lane<f64>>,
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
    #[cfg(test)]
    fn session_median(&mut self, sessions: usize, per: usize) -> (f64, usize) {
        assert!(sessions % 2 == 1, "median entry point needs an odd session count");
        self.rank();
        let ranks: Vec<f64> = (0..sessions)
            .map(|s| self.approx_min(s * per..(s + 1) * per))
            .collect();
        let mid = sessions / 2;
        // The ranking median by counting: the value with at most `mid`
        // values below it and more than `mid` at or below it. Quadratic,
        // but cheaper than a selection at single-digit session counts.
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
        for (s, &m) in ranks.iter().enumerate() {
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

/// Cells per lane group of [`MedianLanes`].
pub const LANES: usize = 8;

/// One value per lane of a lane group.
type Lane<T> = [T; LANES];

/// [`LANES`] xoshiro256++ streams stepped in lockstep, structure of
/// arrays. Each lane is seeded and stepped exactly as the vendored
/// `StdRng` (xoshiro256++ seeded through SplitMix64), so lane `l` draws
/// the stream of `StdRng::seed_from_u64(seeds[l])`.
struct LaneRng {
    s0: Lane<u64>,
    s1: Lane<u64>,
    s2: Lane<u64>,
    s3: Lane<u64>,
}

impl LaneRng {
    /// Seed one lane per entry of `seeds` (at most [`LANES`]); missing
    /// lanes repeat the first seed and are never read.
    #[inline(always)]
    fn new(seeds: &[u64]) -> Self {
        let mut s = [[0u64; LANES]; 4];
        for l in 0..LANES {
            let mut sm = seeds.get(l).copied().unwrap_or(seeds[0]);
            for word in &mut s {
                sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                word[l] = z ^ (z >> 31);
            }
        }
        let [s0, s1, s2, s3] = s;
        LaneRng { s0, s1, s2, s3 }
    }

    /// One xoshiro256++ step of every lane. The new state is built in
    /// fresh arrays so each word stays one vector register.
    #[inline(always)]
    fn next_u64(&mut self) -> Lane<u64> {
        let (mut out, mut n0, mut n1, mut n2, mut n3) =
            ([0u64; LANES], [0u64; LANES], [0u64; LANES], [0u64; LANES], [0u64; LANES]);
        for l in 0..LANES {
            let (s0, s1, s2, s3) = (self.s0[l], self.s1[l], self.s2[l], self.s3[l]);
            out[l] = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
            let s2 = s2 ^ s0;
            let s3 = s3 ^ s1;
            n1[l] = s1 ^ s2;
            n0[l] = s0 ^ s3;
            n2[l] = s2 ^ (s1 << 17);
            n3[l] = s3.rotate_left(45);
        }
        *self = LaneRng { s0: n0, s1: n1, s2: n2, s3: n3 };
        out
    }
}

/// The uniform `rng.gen::<f64>()` makes of the word `bits`.
#[inline(always)]
fn unit_f64(bits: u64) -> f64 {
    (bits >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

/// Where a lane group's uniform pairs come from: the cell seeds in
/// production, crafted pairs in tests.
trait LaneDraws {
    /// Start lane group `g` (cells `g·LANES ..`).
    fn start(&mut self, g: usize);
    /// The next `(u1, u2)` pair of every lane of the current group.
    fn pair(&mut self) -> (Lane<f64>, Lane<f64>);
}

/// Every cell draws the stream of `StdRng::seed_from_u64(seed)`, as the
/// scalar walk's `normal_draw` does: `u1 = gen_range(ε..1)`, `u2 = gen()`.
struct SeedDraws<'a> {
    seeds: &'a [u64],
    rng: LaneRng,
}

impl LaneDraws for SeedDraws<'_> {
    #[inline(always)]
    fn start(&mut self, g: usize) {
        self.rng = LaneRng::new(&self.seeds[g * LANES..]);
    }

    #[inline(always)]
    fn pair(&mut self) -> (Lane<f64>, Lane<f64>) {
        let a = self.rng.next_u64();
        let b = self.rng.next_u64();
        let (mut u1, mut u2) = ([0.0; LANES], [0.0; LANES]);
        for l in 0..LANES {
            u1[l] = f64::EPSILON + (1.0 - f64::EPSILON) * unit_f64(a[l]);
            u2[l] = unit_f64(b[l]);
        }
        (u1, u2)
    }
}

/// The lane kernel's body, instantiated by [`MedianLanes`] for the
/// compilation target's baseline and for AVX-512. For each group of [`LANES`] cells it draws every
/// lane's uniform pairs in lockstep, ranks them with [`approx_z`], keeps
/// each session's ranking minimum and counts ranks across lanes without
/// branches; then, lane by lane, it resolves the median band through
/// libm exactly as [`JitterScratch`]'s scalar resolve does.
#[inline(always)]
fn median_lanes(
    cells: usize,
    draws: &mut impl LaneDraws,
    sessions: usize,
    per: usize,
    scratch: &mut JitterScratch,
    out: &mut Vec<f64>,
) -> usize {
    assert!(sessions % 2 == 1, "median entry point needs an odd session count");
    assert!(per >= 1, "a session draws at least one sample");
    let mid = sessions / 2;
    let n = sessions * per;
    let JitterScratch {
        exact,
        lane_u1,
        lane_u2,
        lane_approx,
        lane_session,
        ..
    } = scratch;
    lane_u1.resize(n, [0.0; LANES]);
    lane_u2.resize(n, [0.0; LANES]);
    lane_approx.resize(n, [0.0; LANES]);
    lane_session.resize(sessions, [0.0; LANES]);
    out.clear();
    out.reserve(cells);
    let mut evals = 0;
    for g in 0..cells.div_ceil(LANES) {
        let live = (cells - g * LANES).min(LANES);
        // Draw and rank, keeping each session's ranking minimum. Same
        // compare-and-select as `approx_min`, so ties keep the same draw.
        draws.start(g);
        for (s, session_min) in lane_session.iter_mut().enumerate() {
            let mut m = [f64::INFINITY; LANES];
            for d in s * per..(s + 1) * per {
                let (u1, u2) = draws.pair();
                let mut z = [0.0; LANES];
                for l in 0..LANES {
                    z[l] = approx_z(u1[l], u2[l]);
                    m[l] = if z[l] < m[l] { z[l] } else { m[l] };
                }
                lane_u1[d] = u1;
                lane_u2[d] = u2;
                lane_approx[d] = z;
            }
            *session_min = m;
        }
        // The ranking median by counting: the first session value with at
        // most `mid` values below it and more than `mid` at or below it.
        // Walking backwards, the last overwrite is the first match.
        let mut median = [f64::NAN; LANES];
        for v in lane_session.iter().rev() {
            let (mut lt, mut le) = ([0usize; LANES], [0usize; LANES]);
            for w in lane_session.iter() {
                for l in 0..LANES {
                    lt[l] += (w[l] < v[l]) as usize;
                    le[l] += (w[l] <= v[l]) as usize;
                }
            }
            for l in 0..LANES {
                median[l] = if lt[l] <= mid && mid < le[l] { v[l] } else { median[l] };
            }
        }
        // The band `|m̃ₛ − M̃| ≤ 2E` around the ranking median, and how
        // many sessions lie below it.
        let mut lo = [0.0; LANES];
        let mut hi = [0.0; LANES];
        for l in 0..LANES {
            lo[l] = median[l] - 2.0 * APPROX_Z_ERR;
            hi[l] = median[l] + 2.0 * APPROX_Z_ERR;
        }
        let (mut below, mut band) = ([0usize; LANES], [0usize; LANES]);
        for m in lane_session.iter() {
            for l in 0..LANES {
                below[l] += (m[l] < lo[l]) as usize;
                band[l] += (m[l] >= lo[l] && m[l] <= hi[l]) as usize;
            }
        }
        for l in 0..live {
            let in_band = |s: &usize| {
                let m = lane_session[*s][l];
                m >= lo[l] && m <= hi[l]
            };
            // Only draws with `z̃ ≤ m̃ₛ + 2E` can be session `s`'s argmin
            // (see `JitterScratch::resolve`).
            let mut resolve = |s: usize| {
                let cut = lane_session[s][l] + 2.0 * APPROX_Z_ERR;
                let mut min_z = f64::INFINITY;
                for d in s * per..(s + 1) * per {
                    if lane_approx[d][l] <= cut {
                        evals += 1;
                        min_z = min_z.min(box_muller(lane_u1[d][l], lane_u2[d][l]));
                    }
                }
                min_z
            };
            let z = if band[l] == 1 {
                // The common case: the band is the median session alone.
                let s = (0..sessions).find(in_band).expect("the band holds the median");
                resolve(s)
            } else {
                exact.clear();
                for s in (0..sessions).filter(in_band) {
                    exact.push(resolve(s));
                }
                let (_, &mut z, _) =
                    exact.select_nth_unstable_by(mid - below[l], |a, b| a.total_cmp(b));
                z
            };
            out.push(z);
        }
    }
    evals
}

/// [`median_lanes`] compiled for x86-64-v4's AVX-512 F/DQ/VL: one lane
/// group fills one 512-bit register per value.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn median_lanes_avx512(
    cells: usize,
    draws: &mut impl LaneDraws,
    sessions: usize,
    per: usize,
    scratch: &mut JitterScratch,
    out: &mut Vec<f64>,
) -> usize {
    median_lanes(cells, draws, sessions, per, scratch, out)
}

/// The lane-batched median kernel: for each cell seed, the median of the
/// per-session minimum deviates that [`batch_session_min_z`] would draw
/// from `StdRng::seed_from_u64(seed)`, cells handled [`LANES`] at a time.
///
/// Each session's ranking minimum `m̃ₛ` is within `E = APPROX_Z_ERR` of its
/// exact minimum `mₛ`, and so is the ranking median `M̃` of the exact
/// median `M`. The median session therefore lies in the band
/// `|m̃ₛ − M̃| ≤ 2E`, and a session below the band has `mₛ < M`. Only the
/// band is resolved through libm: `M` is its `(mid − below)`-th exact
/// value. Ranking uses plain `*` and `+` only, so every instance ranks to
/// the same bits, and every value is bit-identical to the scalar walk.
///
/// One body has two instances: a portable one and an AVX-512 one.
/// [`detect`](Self::detect) picks the widest the host runs; pick it once
/// per pass and hand it to every call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MedianLanes {
    wide: bool,
}

impl MedianLanes {
    /// The instance built for the compilation target's baseline.
    pub fn portable() -> Self {
        MedianLanes { wide: false }
    }

    /// The AVX-512 instance, if the host supports it.
    pub fn wide() -> Option<Self> {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
            && std::arch::is_x86_feature_detected!("avx512vl")
        {
            return Some(MedianLanes { wide: true });
        }
        None
    }

    /// The widest instance the host runs.
    pub fn detect() -> Self {
        Self::wide().unwrap_or_else(Self::portable)
    }

    /// Write the median deviate of each cell of `seeds` into `out` (cleared
    /// first), in order, and return the number of deviates evaluated
    /// through libm. `sessions` must be odd.
    pub fn median_z(
        &self,
        seeds: &[u64],
        sessions: usize,
        samples_per_session: usize,
        scratch: &mut JitterScratch,
        out: &mut Vec<f64>,
    ) -> usize {
        let mut draws = SeedDraws { seeds, rng: LaneRng::new(&[0]) };
        self.run(seeds.len(), &mut draws, sessions, samples_per_session, scratch, out)
    }

    fn run(
        &self,
        cells: usize,
        draws: &mut impl LaneDraws,
        sessions: usize,
        per: usize,
        scratch: &mut JitterScratch,
        out: &mut Vec<f64>,
    ) -> usize {
        #[cfg(target_arch = "x86_64")]
        if self.wide {
            // SAFETY: `wide` is set only by `MedianLanes::wide`, which
            // checked that the host has every feature the instance enables.
            return unsafe { median_lanes_avx512(cells, draws, sessions, per, scratch, out) };
        }
        median_lanes(cells, draws, sessions, per, scratch, out)
    }
}

/// The median of the `sessions` per-session minimum deviates that
/// [`batch_session_min_z`] would produce — the value
/// `quantile_select(min_z, 0.5)` selects — and the number of deviates
/// evaluated through libm, one cell at a time. The test reference for
/// [`MedianLanes`], which computes the same thing eight cells at a time.
/// `sessions` must be odd, so the median is one session's value.
#[cfg(test)]
pub(crate) fn batch_session_median_z(
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

    /// Every instance of the lane kernel this host runs.
    fn instances() -> Vec<MedianLanes> {
        std::iter::once(MedianLanes::portable()).chain(MedianLanes::wide()).collect()
    }

    /// Cells of crafted uniform pairs (`cells[c][draw]`), as lane draws.
    /// Lanes past the last cell repeat cell 0.
    struct Crafted<'a> {
        cells: &'a [Vec<(f64, f64)>],
        group: usize,
        draw: usize,
    }

    impl LaneDraws for Crafted<'_> {
        fn start(&mut self, g: usize) {
            self.group = g;
            self.draw = 0;
        }

        fn pair(&mut self) -> (Lane<f64>, Lane<f64>) {
            let (mut u1, mut u2) = ([0.0; LANES], [0.0; LANES]);
            for l in 0..LANES {
                let cell = self.cells.get(self.group * LANES + l).unwrap_or(&self.cells[0]);
                (u1[l], u2[l]) = cell[self.draw];
            }
            self.draw += 1;
            (u1, u2)
        }
    }

    /// The lane kernel on crafted cells of `sessions` sessions each must
    /// give the per-cell reference's median bits and its libm count, on
    /// every instance.
    fn check_lanes(cells: &[Vec<(f64, f64)>], sessions: usize) {
        let per = cells[0].len() / sessions;
        let mut want = Vec::new();
        let mut want_evals = 0;
        for cell in cells {
            let (z, evals) = crafted(cell).session_median(sessions, per);
            want.push(z.to_bits());
            want_evals += evals;
        }
        for lanes in instances() {
            let mut out = Vec::new();
            let mut draws = Crafted { cells, group: 0, draw: 0 };
            let evals = lanes.run(
                cells.len(),
                &mut draws,
                sessions,
                per,
                &mut JitterScratch::default(),
                &mut out,
            );
            let got: Vec<u64> = out.iter().map(|z| z.to_bits()).collect();
            assert_eq!(got, want, "{lanes:?} on {cells:?}");
            assert_eq!(evals, want_evals, "{lanes:?} on {cells:?}");
        }
    }

    /// `case` (a list of equal-length sessions) in every lane position of
    /// two full groups and a remainder, alternating with the same sessions
    /// in reverse order.
    fn check_lanes_case(case: &[Vec<(f64, f64)>]) {
        let flat = case.concat();
        let reversed: Vec<(f64, f64)> = case.iter().rev().flatten().copied().collect();
        let cells: Vec<Vec<(f64, f64)>> = (0..2 * LANES + 1)
            .map(|c| if c % 2 == 0 { flat.clone() } else { reversed.clone() })
            .collect();
        check_lanes(&cells, case.len());
    }

    #[test]
    fn lane_kernel_resolves_near_ties_and_identical_draws() {
        for b in twins() {
            check_lanes_case(&[vec![ANCHOR, b, FILLER]]);
            check_lanes_case(&[vec![ANCHOR], vec![b], vec![FILLER]]);
            check_lanes_case(&[vec![FILLER], vec![b], vec![ANCHOR]]);
        }
        check_lanes_case(&[vec![ANCHOR, ANCHOR, FILLER]]);
        check_lanes_case(&[vec![ANCHOR, ANCHOR], vec![ANCHOR, FILLER], vec![FILLER, ANCHOR]]);
        let (low, high) = ((0.01, 0.5), (0.01, 0.0));
        for tied in [ANCHOR, twins()[0]] {
            check_lanes_case(&[
                vec![high, FILLER],
                vec![ANCHOR, FILLER],
                vec![low, FILLER],
                vec![FILLER, tied],
                vec![low, high],
            ]);
        }
        // Bands holding every session: the general path, not the
        // one-session fast path.
        let twins = twins();
        for start in 0..twins.len() - 7 {
            let sessions: Vec<Vec<(f64, f64)>> =
                twins[start..start + 7].iter().map(|&b| vec![FILLER, b]).collect();
            check_lanes_case(&sessions);
        }
    }

    /// Seeded cells: the lane kernel equals the per-cell reference (bits
    /// and libm count) and the scalar walk's median, for session counts
    /// 1–9, 1–6 draws per session, and 1 to `2·LANES + 1` cells.
    #[test]
    fn lane_kernel_matches_reference_and_scalar_walk() {
        let rm = RttModel::default();
        let mut scratch = JitterScratch::default();
        let mut out = Vec::new();
        for sessions in [1, 3, 5, 7, 9] {
            for samples in 1..=6 {
                for cells in 1..=2 * LANES + 1 {
                    let seeds: Vec<u64> = (0..cells as u64)
                        .map(|c| (sessions * 100 + samples * 10) as u64 ^ (c << 32))
                        .collect();
                    let mut want_evals = 0;
                    let want: Vec<u64> = seeds
                        .iter()
                        .map(|&seed| {
                            let mut rng = StdRng::seed_from_u64(seed);
                            let scalar: Vec<f64> = (0..sessions)
                                .map(|_| sample_min_rtt(10.0, &rm, samples, &mut rng))
                                .collect();
                            let (z, evals) = batch_session_median_z(
                                &mut StdRng::seed_from_u64(seed),
                                sessions,
                                samples,
                                &mut scratch,
                            );
                            want_evals += evals;
                            let v = 10.0 + rm.jitter_median_ms * (rm.jitter_sigma * z).exp();
                            assert_eq!(v.to_bits(), median_of(&scalar).to_bits(), "seed {seed}");
                            z.to_bits()
                        })
                        .collect();
                    for lanes in instances() {
                        let evals = lanes.median_z(&seeds, sessions, samples, &mut scratch, &mut out);
                        let got: Vec<u64> = out.iter().map(|z| z.to_bits()).collect();
                        let shape = (lanes, sessions, samples, cells);
                        assert_eq!(got, want, "{shape:?}");
                        assert_eq!(evals, want_evals, "{shape:?}");
                    }
                }
            }
        }
    }

    /// Each lane steps the vendored `StdRng` stream of its seed, and
    /// `unit_f64` is `gen::<f64>()` of the same word.
    #[test]
    fn lane_rng_draws_the_std_rng_stream() {
        use rand::Standard01;
        let seeds: Vec<u64> = (0..LANES as u64).map(|l| l * 0x1234_5678_9abc).collect();
        let mut lanes = LaneRng::new(&seeds);
        let mut rngs: Vec<StdRng> = seeds.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
        for _ in 0..1000 {
            let words = lanes.next_u64();
            for (l, rng) in rngs.iter_mut().enumerate() {
                let want = next_of(rng);
                assert_eq!(words[l], want);
                assert_eq!(unit_f64(want).to_bits(), f64::from_u64(want).to_bits());
            }
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
    /// The ranking bound over 50M draws, then 1M cells through both batch
    /// entry points, the per-cell median reference and every instance of
    /// the lane kernel, against the scalar session walk.
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
        // Per (sessions, samples) shape: the cells of that shape, the
        // per-cell reference's median bits, and its libm count.
        let mut shapes: std::collections::BTreeMap<(usize, usize), (Vec<u64>, Vec<u64>, usize)> =
            Default::default();
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
            let (z, evals) =
                batch_session_median_z(&mut median_rng, sessions, samples, &mut scratch);
            assert_eq!(z.to_bits(), median_of(&min_z).to_bits(), "cell {cell}");
            let next = next_of(&mut scalar_rng);
            assert_eq!(next, next_of(&mut batch_rng));
            assert_eq!(next, next_of(&mut median_rng));
            let shape = shapes.entry((sessions, samples)).or_default();
            shape.0.push(cell);
            shape.1.push(z.to_bits());
            shape.2 += evals;
        }
        // The lane kernel over the same million cells, on every instance.
        let mut out = Vec::new();
        for lanes in instances() {
            for (&(sessions, samples), (seeds, want, want_evals)) in &shapes {
                let evals = lanes.median_z(seeds, sessions, samples, &mut scratch, &mut out);
                let got: Vec<u64> = out.iter().map(|z| z.to_bits()).collect();
                assert!(got == *want, "{lanes:?} at {sessions}x{samples}");
                assert_eq!(evals, *want_evals, "{lanes:?} at {sessions}x{samples}");
            }
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
