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

use crate::fault::{FaultPlane, FaultTally, ProbeLoss};
use crate::keyed::derive_seed;
use crate::path::RealizedPath;
use bb_topology::Topology;

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

impl RttModel {
    /// The log-normal jitter of a standard-normal deviate `z`. Every jitter
    /// the measurement pipelines report is this expression.
    #[inline]
    pub fn jitter(&self, z: f64) -> f64 {
        self.jitter_median_ms * (self.jitter_sigma * z).exp()
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

/// Bound on `|z̃ − box_muller(u1, u2)|`, `z̃ = key_z(approx_key(u1, u2))`
/// the ranking deviate, over `u1 ∈ [ε, 1)`, `u2 ∈ [0, 1)`.
///
/// The truncation errors are `2·|s|¹⁵/(15·(1 − s²)) ≤ 4.6e-13` for the ln
/// series (`|s| ≤ 3 − 2√2`) and `(π/2)¹⁷/17! ≤ 6.1e-12` for the sine series.
/// With the radius `≤ √(2·ln 2⁵²) < 8.5` and a few ulps of rounding per
/// operation (the ranking key's square root among them), `|z̃ − z|` stays
/// below 1e-10; the observed maximum is about 5e-11. The bound leaves four
/// orders of magnitude of slack above that.
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

/// The ranking key `z̃·|z̃| = −2·ln~ u1 · c·|c|`, `c = cos~(τ·u2)`: monotone
/// in the ranking deviate, so a minimum over keys needs no square root
/// per draw. Plain `*` and `+` only: `f64::mul_add` is a libm call on
/// targets without FMA.
#[inline(always)]
fn approx_key(u1: f64, u2: f64) -> f64 {
    let c = approx_cos_tau(u2);
    -2.0 * approx_ln(u1) * c * c.abs()
}

/// The ranking deviate of a ranking key: `z̃ = sgn(c)·√(−2·ln~ u1 · c²)`,
/// within [`APPROX_Z_ERR`] of [`box_muller`]. Monotone non-decreasing, so
/// the deviate of the minimum key is the minimum deviate, bit for bit.
#[inline(always)]
fn key_z(key: f64) -> f64 {
    key.abs().sqrt().copysign(key)
}

/// Largest jitter sigma the faulted kernel accepts. Deviates stay within
/// `|z| < 8.6`, so every exponent it evaluates is below 350 in magnitude.
const MAX_SIGMA: f64 = 40.0;

/// Relative slack of the faulted kernel's jitter interval beyond the
/// deviate error: it covers [`approx_exp`]'s error (below 5e-14 for
/// `|x| ≤ 350`, dominated by the reduction `x − k·ln 2`), libm `exp`'s
/// sub-ulp error, and the roundings of `σ·z` (amplified up to 350× by the
/// exponential) and of the products, 2e-13 in all.
const APPROX_EXP_ERR: f64 = 1e-12;

/// Branch-free `eˣ` for `|x| ≤ 700`: `x = k·ln 2 + r` with `k` the nearest
/// integer to `x·log₂e` and `|r| ≤ ln 2 / 2`, then `eʳ` by its Taylor
/// series through `r¹³`, scaled by `2ᵏ` through the exponent bits.
#[inline(always)]
fn approx_exp(x: f64) -> f64 {
    use std::f64::consts::{LN_2, LOG2_E};
    // 1.5·2^52: adding it rounds to an integer, left in the low mantissa
    // bits as `2^51 + k`; no float-to-int instruction SSE2 lacks.
    const SHIFT: f64 = 6_755_399_441_055_744.0;
    let t = x * LOG2_E + SHIFT;
    let k = t - SHIFT;
    let r = x - k * LN_2;
    let p = 1.0 / 6_227_020_800.0;
    let p = 1.0 / 479_001_600.0 + r * p;
    let p = 1.0 / 39_916_800.0 + r * p;
    let p = 1.0 / 3_628_800.0 + r * p;
    let p = 1.0 / 362_880.0 + r * p;
    let p = 1.0 / 40_320.0 + r * p;
    let p = 1.0 / 5_040.0 + r * p;
    let p = 1.0 / 720.0 + r * p;
    let p = 1.0 / 120.0 + r * p;
    let p = 1.0 / 24.0 + r * p;
    let p = 1.0 / 6.0 + r * p;
    let p = 0.5 + r * p;
    let p = 1.0 + r * p;
    let p = 1.0 + r * p;
    // The low 12 bits of `2^51 + k + 1023` are the biased exponent of 2^k.
    p * f64::from_bits(t.to_bits().wrapping_add(1023) << 52)
}

/// Reused buffers for [`MedianLanes`]: the lane groups' uniforms, ranking
/// keys and session minima, the faulted kernel's per-stream state, and the
/// exact values of a median band. Hoisted out of the window loop by callers
/// so the hot path allocates nothing.
#[derive(Debug, Default)]
pub struct JitterScratch {
    /// Exact values inside the median band.
    exact: Vec<f64>,
    /// The lane groups' draws and ranking keys, draw-major.
    lane_u1: Vec<Lane<f64>>,
    lane_u2: Vec<Lane<f64>>,
    lane_key: Vec<Lane<f64>>,
    /// Each session's minimum ranking deviate, per lane.
    lane_session: Vec<Lane<f64>>,
    /// The faulted kernel's per-stream state.
    streams: Streams,
}

/// The `(session, attempt)` streams of one faulted window, in draw order.
/// Stream `i` sits in lane `i % LANES` of lane group `i / LANES`; each
/// round of retries starts a fresh group.
#[derive(Debug, Default)]
struct Streams {
    /// Per stream: its probe (`u32::MAX` for padding), attempt and seed.
    probe: Vec<u32>,
    attempt: Vec<u32>,
    seed: Vec<u64>,
    /// Per group: the streams' deterministic RTTs, minimum ranking
    /// deviates, and bounds on their exact RTTs (equal once resolved).
    det: Vec<Lane<f64>>,
    rank: Vec<Lane<f64>>,
    lo: Vec<Lane<f64>>,
    hi: Vec<Lane<f64>>,
    resolved: Vec<Lane<bool>>,
    /// Per group: the bounds of the streams whose session reported, and
    /// +∞ in every other lane.
    kept_lo: Vec<Lane<f64>>,
    kept_hi: Vec<Lane<f64>>,
    /// Each attempt's deterministic RTT, on first use.
    det_of: Vec<Option<f64>>,
}

impl Streams {
    fn clear(&mut self, attempts: usize) {
        self.probe.clear();
        self.attempt.clear();
        self.seed.clear();
        for v in [&mut self.det, &mut self.rank, &mut self.lo, &mut self.hi] {
            v.clear();
        }
        self.resolved.clear();
        self.kept_lo.clear();
        self.kept_hi.clear();
        self.det_of.clear();
        self.det_of.resize(attempts, None);
    }

    fn push(&mut self, probe: usize, attempt: u32, seed: u64) {
        self.probe.push(probe as u32);
        self.attempt.push(attempt);
        self.seed.push(seed);
    }

    /// Pad to whole lane groups, so the next stream starts a group.
    fn pad(&mut self) {
        while self.seed.len() % LANES != 0 {
            self.push(u32::MAX as usize, 0, 0);
        }
    }

    fn len(&self) -> usize {
        self.seed.len()
    }

    /// Lower and upper bound on stream `i`'s exact RTT.
    fn bounds(&self, i: usize) -> (f64, f64) {
        let (g, l) = (i / LANES, i % LANES);
        (self.lo[g][l], self.hi[g][l])
    }

    /// Resolve stream `i`'s RTT through libm from its group's draws
    /// (`per` per stream); its bounds become the exact value. Returns the
    /// libm count.
    fn resolve(
        &mut self,
        i: usize,
        model: &RttModel,
        per: usize,
        [u1, u2, keys]: [&[Lane<f64>]; 3],
    ) -> usize {
        let (g, l) = (i / LANES, i % LANES);
        if self.resolved[g][l] {
            return 0;
        }
        let d = g * per..(g + 1) * per;
        let (z, evals) = resolve_lane(&u1[d.clone()], &u2[d.clone()], &keys[d], l, self.rank[g][l]);
        let rtt = self.det[g][l] + model.jitter(z);
        self.lo[g][l] = rtt;
        self.hi[g][l] = rtt;
        self.resolved[g][l] = true;
        evals
    }
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
    /// lanes repeat the first seed and are never read. Lane-inner, so each
    /// SplitMix64 step is one vector operation.
    #[inline(always)]
    fn new(seeds: &[u64]) -> Self {
        let mut sm = [seeds[0]; LANES];
        sm[..seeds.len()].copy_from_slice(seeds);
        let mut s = [[0u64; LANES]; 4];
        for word in &mut s {
            for l in 0..LANES {
                sm[l] = sm[l].wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = sm[l];
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

/// Where a lane group's uniform pairs come from: the stream seeds in
/// production, crafted pairs in tests.
trait LaneDraws {
    /// Start a lane group drawing the streams `seeds` (at most [`LANES`];
    /// missing lanes repeat the first and are never read).
    fn start(&mut self, seeds: &[u64]);
    /// The next `(u1, u2)` pair of every lane of the current group.
    fn pair(&mut self) -> (Lane<f64>, Lane<f64>);
}

/// Every stream draws the stream of `StdRng::seed_from_u64(seed)`, as the
/// scalar walk's `normal_draw` does: `u1 = gen_range(ε..1)`, `u2 = gen()`.
struct SeedDraws {
    rng: LaneRng,
}

impl LaneDraws for SeedDraws {
    #[inline(always)]
    fn start(&mut self, seeds: &[u64]) {
        self.rng = LaneRng::new(seeds);
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

/// Draw the next `u1.len()` pairs of every lane of the current group into
/// `u1` and `u2`, their ranking keys into `keys`, and return each lane's
/// minimum ranking deviate.
#[inline(always)]
fn rank_draws(
    draws: &mut impl LaneDraws,
    u1: &mut [Lane<f64>],
    u2: &mut [Lane<f64>],
    keys: &mut [Lane<f64>],
) -> Lane<f64> {
    let mut m = [f64::INFINITY; LANES];
    for ((u1, u2), keys) in u1.iter_mut().zip(u2.iter_mut()).zip(keys.iter_mut()) {
        let (a, b) = draws.pair();
        let mut key = [0.0; LANES];
        for l in 0..LANES {
            key[l] = approx_key(a[l], b[l]);
            m[l] = if key[l] < m[l] { key[l] } else { m[l] };
        }
        *u1 = a;
        *u2 = b;
        *keys = key;
    }
    m.map(key_z)
}

/// The exact minimum deviate of lane `l`'s draws, whose ranking minimum is
/// `rank`, and the number of libm evaluations it took. Only a draw with
/// `z̃ ≤ rank + 2E` (`E = APPROX_Z_ERR`) can be the argmin: the argmin `i*`
/// has `z̃ᵢ* ≤ zᵢ* + E ≤ zⱼ + E ≤ z̃ⱼ + 2E` for every `j`. `f64::min`
/// returns one of its inputs, so folding those draws yields the exact
/// minimum's bits.
#[inline(always)]
fn resolve_lane(
    u1: &[Lane<f64>],
    u2: &[Lane<f64>],
    keys: &[Lane<f64>],
    l: usize,
    rank: f64,
) -> (f64, usize) {
    let cut = rank + 2.0 * APPROX_Z_ERR;
    let mut min_z = f64::INFINITY;
    let mut evals = 0;
    for ((u1, u2), key) in u1.iter().zip(u2).zip(keys) {
        if key_z(key[l]) <= cut {
            evals += 1;
            min_z = min_z.min(box_muller(u1[l], u2[l]));
        }
    }
    (min_z, evals)
}

/// The session kernels' body, instantiated by [`MedianLanes`] for the
/// compilation target's baseline and for AVX-512. For each group of
/// [`LANES`] cells it draws every lane's uniform pairs in lockstep, ranks
/// them with [`approx_key`] and keeps each session's ranking minimum. For
/// session minima (`MEDIAN` false) it then resolves every session of every
/// lane through libm with [`resolve_lane`]. For the median it counts ranks
/// across lanes without branches, then, lane by lane, resolves only the
/// median band.
#[inline(always)]
fn session_lanes<const MEDIAN: bool>(
    seeds: &[u64],
    draws: &mut impl LaneDraws,
    sessions: usize,
    per: usize,
    scratch: &mut JitterScratch,
    out: &mut Vec<f64>,
) -> usize {
    assert!(!MEDIAN || sessions % 2 == 1, "median entry point needs an odd session count");
    assert!(per >= 1, "a session draws at least one sample");
    let mid = sessions / 2;
    let n = sessions * per;
    let JitterScratch {
        exact,
        lane_u1,
        lane_u2,
        lane_key,
        lane_session,
        ..
    } = scratch;
    lane_u1.resize(n, [0.0; LANES]);
    lane_u2.resize(n, [0.0; LANES]);
    lane_key.resize(n, [0.0; LANES]);
    lane_session.resize(sessions, [0.0; LANES]);
    out.clear();
    out.reserve(if MEDIAN { seeds.len() } else { seeds.len() * sessions });
    let mut evals = 0;
    for group in seeds.chunks(LANES) {
        // Draw and rank, keeping each session's ranking minimum.
        draws.start(group);
        for (s, session_min) in lane_session.iter_mut().enumerate() {
            let d = s * per..(s + 1) * per;
            *session_min = rank_draws(
                draws,
                &mut lane_u1[d.clone()],
                &mut lane_u2[d.clone()],
                &mut lane_key[d],
            );
        }
        if !MEDIAN {
            for l in 0..group.len() {
                for (s, session_min) in lane_session.iter().enumerate() {
                    let d = s * per..(s + 1) * per;
                    let (z, k) = resolve_lane(
                        &lane_u1[d.clone()],
                        &lane_u2[d.clone()],
                        &lane_key[d],
                        l,
                        session_min[l],
                    );
                    evals += k;
                    out.push(z);
                }
            }
            continue;
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
        for l in 0..group.len() {
            let in_band = |s: &usize| {
                let m = lane_session[*s][l];
                m >= lo[l] && m <= hi[l]
            };
            let mut resolve = |s: usize| {
                let d = s * per..(s + 1) * per;
                let (z, n) = resolve_lane(
                    &lane_u1[d.clone()],
                    &lane_u2[d.clone()],
                    &lane_key[d],
                    l,
                    lane_session[s][l],
                );
                evals += n;
                z
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

/// [`session_lanes`] compiled for x86-64-v4's AVX-512 F/DQ/VL: one lane
/// group fills one 512-bit register per value.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn session_lanes_avx512<const MEDIAN: bool>(
    seeds: &[u64],
    draws: &mut impl LaneDraws,
    sessions: usize,
    per: usize,
    scratch: &mut JitterScratch,
    out: &mut Vec<f64>,
) -> usize {
    session_lanes::<MEDIAN>(seeds, draws, sessions, per, scratch, out)
}

/// One faulted measurement call: probes of one route at one instant, each
/// run through a fault plane's loss, timeout and retry, summarized by the
/// median RTT of the sessions that report.
pub struct FaultedWindow<'a> {
    pub plane: &'a FaultPlane,
    pub model: &'a RttModel,
    /// Draws per session.
    pub samples: usize,
    /// Fewest reporting sessions that make a median.
    pub min_kept: usize,
    /// Per probe: its loss stream key and its session seed. Attempt `a`
    /// of a probe with session seed `s` draws its session from
    /// `derive_seed(s, a)`.
    pub probes: &'a [(u64, u64)],
}

/// What [`MedianLanes::faulted_median`] measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultedMedian {
    /// The median reporting RTT; `None` when fewer than `min_kept`
    /// sessions, or none, report.
    pub median: Option<f64>,
    /// Sessions that reported.
    pub kept: usize,
    /// Deviates evaluated through libm.
    pub exact_evals: usize,
}

/// The first attempt from `from` through `max_retries` that `loss` does not
/// lose in flight, tallying the attempts before it as the scalar retry walk
/// `faulted_attempts` does.
fn next_attempt(
    loss: ProbeLoss,
    max_retries: u32,
    from: u32,
    tally: &mut FaultTally,
) -> Option<u32> {
    for attempt in from..=max_retries {
        if attempt > 0 {
            tally.retries += 1;
        }
        if !loss.lost(attempt) {
            return Some(attempt);
        }
        tally.lost += 1;
    }
    None
}

/// The faulted window kernel's body, instantiated by [`MedianLanes`] like
/// [`session_lanes`]; see [`MedianLanes::faulted_median`].
#[inline(always)]
fn faulted_lanes(
    w: &FaultedWindow,
    draws: &mut impl LaneDraws,
    det: &mut impl FnMut(u32) -> f64,
    tally: &mut FaultTally,
    scratch: &mut JitterScratch,
) -> FaultedMedian {
    let per = w.samples;
    assert!(per >= 1, "a session draws at least one sample");
    let (model, plane) = (w.model, w.plane);
    let (sigma, scale) = (model.jitter_sigma, model.jitter_median_ms);
    assert!(
        (0.0..=MAX_SIGMA).contains(&sigma) && (0.0..f64::INFINITY).contains(&scale),
        "the faulted kernel needs a monotone jitter map with sigma <= {MAX_SIGMA}"
    );
    // The exact jitter is within a factor e^(±ρ/2) of the ranking jitter,
    // ρ/2 = σ·E + APPROX_EXP_ERR; 1 ± ρ covers that factor with room for
    // the rounding of the bounds themselves.
    let rho = 2.0 * (sigma * APPROX_Z_ERR + APPROX_EXP_ERR);
    let max_retries = plane.config().max_retries;
    let JitterScratch {
        exact,
        lane_u1,
        lane_u2,
        lane_key,
        streams: st,
        ..
    } = scratch;
    st.clear(max_retries as usize + 1);
    let (mut evals, mut n) = (0, 0);
    // Loss: each probe's first attempt not lost in flight, from the loss
    // hashes alone.
    for (p, &(key, seed)) in w.probes.iter().enumerate() {
        if let Some(a) = next_attempt(plane.probe_loss(key), max_retries, 0, tally) {
            st.push(p, a, derive_seed(seed, a as u64));
        }
    }
    // Rounds: this round's streams are drawn and ranked, then a stream
    // that times out queues its probe's next attempt for the next round.
    let mut start = 0;
    while start < st.len() {
        let end = st.len();
        for c in (start..end).step_by(LANES) {
            let g = c / LANES;
            let d = g * per..(g + 1) * per;
            lane_u1.resize(d.end, [0.0; LANES]);
            lane_u2.resize(d.end, [0.0; LANES]);
            lane_key.resize(d.end, [0.0; LANES]);
            let live = (end - c).min(LANES);
            draws.start(&st.seed[c..c + live]);
            let rank = rank_draws(
                draws,
                &mut lane_u1[d.clone()],
                &mut lane_u2[d.clone()],
                &mut lane_key[d],
            );
            let mut base = [0.0; LANES];
            for l in 0..live {
                let a = st.attempt[c + l];
                base[l] = *st.det_of[a as usize].get_or_insert_with(|| det(a));
            }
            // RTT bounds `det + J̃·(1 ± ρ)`: rounding `det + J` is monotone
            // in `J`, so bounds on the jitter bound the sum.
            let (mut lo, mut hi) = ([0.0; LANES], [0.0; LANES]);
            for l in 0..LANES {
                let jitter = scale * approx_exp(sigma * rank[l]);
                lo[l] = base[l] + jitter * (1.0 - rho);
                hi[l] = base[l] + jitter * (1.0 + rho);
            }
            st.det.push(base);
            st.rank.push(rank);
            st.lo.push(lo);
            st.hi.push(hi);
            st.resolved.push([false; LANES]);
        }
        st.pad();
        let next = st.len();
        let drawn = [&lane_u1[..], &lane_u2[..], &lane_key[..]];
        // Timeouts, from the bounds unless they straddle `timeout_ms`.
        for g in start / LANES..next / LANES {
            let live = (end - g * LANES).min(LANES);
            let mut kept = [false; LANES];
            if (0..live).all(|l| !plane.timed_out(st.hi[g][l])) {
                kept[..live].fill(true);
            } else {
                for (l, kept) in kept.iter_mut().enumerate().take(live) {
                    let i = g * LANES + l;
                    let (lo, hi) = st.bounds(i);
                    if plane.timed_out(hi) && !plane.timed_out(lo) {
                        evals += st.resolve(i, model, per, drawn);
                    }
                    *kept = !plane.timed_out(st.bounds(i).1);
                    if *kept {
                        continue;
                    }
                    tally.lost += 1;
                    tally.timeouts += 1;
                    let (p, attempt) = (st.probe[i] as usize, st.attempt[i]);
                    let (key, seed) = w.probes[p];
                    let loss = plane.probe_loss(key);
                    if let Some(a) = next_attempt(loss, max_retries, attempt + 1, tally) {
                        st.push(p, a, derive_seed(seed, a as u64));
                    }
                }
            }
            let (mut lo, mut hi) = ([f64::INFINITY; LANES], [f64::INFINITY; LANES]);
            for l in 0..LANES {
                lo[l] = if kept[l] { st.lo[g][l] } else { lo[l] };
                hi[l] = if kept[l] { st.hi[g][l] } else { hi[l] };
                n += kept[l] as usize;
            }
            st.kept_lo.push(lo);
            st.kept_hi.push(hi);
        }
        start = next;
    }

    if n == 0 || n < w.min_kept {
        return FaultedMedian { median: None, kept: n, exact_evals: evals };
    }
    // The order statistics `quantile_select(kept, 0.5)` interpolates.
    let pos = 0.5 * (n - 1) as f64;
    let (k_lo, k_hi) = (pos.floor() as usize, pos.ceil() as usize);
    // A session with at least `n − k_lo` lower bounds above its upper
    // bound is below both statistics; one with more than `k_hi` upper
    // bounds below its lower bound is above both. Only the sessions
    // between are resolved. Counted across lanes without branches; the
    // +∞ of each unkept lane counts as a lower bound above everything.
    let unkept = st.kept_lo.len() * LANES - n;
    let drawn = [&lane_u1[..], &lane_u2[..], &lane_key[..]];
    exact.clear();
    let mut below = 0;
    let groups = st.kept_lo.len();
    for g in 0..groups {
        let (lo, hi) = (st.kept_lo[g], st.kept_hi[g]);
        let (mut over, mut under) = ([0usize; LANES], [0usize; LANES]);
        for h in 0..groups {
            let (x_lo, x_hi) = (st.kept_lo[h], st.kept_hi[h]);
            for j in 0..LANES {
                for l in 0..LANES {
                    over[l] += (x_lo[j] > hi[l]) as usize;
                    under[l] += (x_hi[j] < lo[l]) as usize;
                }
            }
        }
        let mut between = 0u32;
        for l in 0..LANES {
            let is_below = over[l] >= n - k_lo + unkept;
            below += is_below as usize;
            between |= u32::from(!is_below && under[l] <= k_hi) << l;
        }
        while between != 0 {
            let i = g * LANES + between.trailing_zeros() as usize;
            between &= between - 1;
            evals += st.resolve(i, model, per, drawn);
            exact.push(st.bounds(i).0);
        }
    }
    let (_, &mut lo_v, rest) = exact.select_nth_unstable_by(k_lo - below, f64::total_cmp);
    let median = if k_lo == k_hi {
        lo_v
    } else {
        // `quantile_select`'s interpolation, term for term.
        let hi_v = rest
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .expect("the band holds both order statistics");
        let frac = pos - k_lo as f64;
        lo_v * (1.0 - frac) + hi_v * frac
    };
    FaultedMedian { median: Some(median), kept: n, exact_evals: evals }
}

/// [`faulted_lanes`] compiled for AVX-512, as [`session_lanes_avx512`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn faulted_lanes_avx512(
    w: &FaultedWindow,
    draws: &mut impl LaneDraws,
    det: &mut impl FnMut(u32) -> f64,
    tally: &mut FaultTally,
    scratch: &mut JitterScratch,
) -> FaultedMedian {
    faulted_lanes(w, draws, det, tally, scratch)
}

/// The lane-batched kernels, one per measurement shape. A cell seed draws
/// its sessions' uniform pairs from `StdRng::seed_from_u64(seed)` in the
/// scalar session walk's stream order (`sessions × samples` Box-Muller
/// pairs, session-major), and cells are handled [`LANES`] at a time:
/// - [`min_z`](Self::min_z): every session's minimum deviate;
/// - [`median_z`](Self::median_z): the median of those minima;
/// - [`faulted_median`](Self::faulted_median): the median RTT of one
///   faulted window, its `(session, attempt)` streams handled [`LANES`]
///   at a time.
///
/// Rank then resolve: every draw gets a branch-free polynomial deviate
/// ([`key_z`]) within `E = APPROX_Z_ERR` of its exact deviate, and only
/// the draws that can decide a result are evaluated through libm, by the
/// scalar walk's own expression; the approximations only choose which
/// draws skip libm. A session minimum resolves the draws within `2E` of
/// its ranking minimum (see [`resolve_lane`]). For the median, each
/// session's ranking minimum `m̃ₛ` is within `E` of its exact minimum `mₛ`,
/// and so is the ranking median `M̃` of the exact median `M`. The median
/// session therefore lies in the band `|m̃ₛ − M̃| ≤ 2E`, and a session
/// below the band has `mₛ < M`. Only the band is resolved: `M` is its
/// `(mid − below)`-th exact value. The faulted kernel carries the same
/// bound to RTT bounds, see [`faulted_median`](Self::faulted_median).
/// Ranking uses plain `*`, `+` and correctly rounded `√` only, so every
/// instance ranks to the same bits, and every value is bit-identical to
/// the scalar walk.
///
/// One body per kernel has two instances: a portable one and an AVX-512
/// one. [`detect`](Self::detect) picks the widest the host runs; pick it
/// once per pass and hand it to every call.
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
        let mut draws = SeedDraws { rng: LaneRng::new(&[0]) };
        self.run::<true>(seeds, &mut draws, sessions, samples_per_session, scratch, out)
    }

    fn run<const MEDIAN: bool>(
        &self,
        seeds: &[u64],
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
            return unsafe {
                session_lanes_avx512::<MEDIAN>(seeds, draws, sessions, per, scratch, out)
            };
        }
        session_lanes::<MEDIAN>(seeds, draws, sessions, per, scratch, out)
    }

    /// Write the minimum deviate of every session of each cell of `seeds`
    /// into `out` (cleared first), cell-major (`out[c · sessions + s]`),
    /// and return the number of deviates evaluated through libm.
    pub fn min_z(
        &self,
        seeds: &[u64],
        sessions: usize,
        samples_per_session: usize,
        scratch: &mut JitterScratch,
        out: &mut Vec<f64>,
    ) -> usize {
        let mut draws = SeedDraws { rng: LaneRng::new(&[0]) };
        self.run::<false>(seeds, &mut draws, sessions, samples_per_session, scratch, out)
    }

    /// The median RTT of the probes of `window` that report, as the scalar
    /// retry walk `faulted_attempts` per probe (attempt `a` drawing one
    /// session of `samples` draws from `derive_seed(seed, a)` over
    /// `det(a)`), then `quantile_select(kept, 0.5)` would give it, bit for
    /// bit; `tally` absorbs losses, timeouts and retries the same way.
    ///
    /// Rank then resolve, at window level:
    /// - **Loss** comes from the plane's hashes alone, before any draw: it
    ///   never depends on the RTT.
    /// - **Draw and rank.** The needed streams are drawn [`LANES`] at a
    ///   time. Each gets its ranking minimum `z̃` (within `E` of the exact
    ///   `z`) and the RTT bounds `det + J̃·(1 ± ρ)`, where
    ///   `J̃ = median·approx_exp(σ·z̃)` and `ρ = 2(σE + APPROX_EXP_ERR)`
    ///   covers `e^(±σE)`, the exponential's approximation and the
    ///   rounding of `exp` and `+`. No libm call so far.
    /// - **Timeouts** are decided from the bounds; a stream is resolved
    ///   exactly only when its bounds straddle `timeout_ms`. A timed-out
    ///   stream queues its probe's next surviving attempt.
    /// - **Median.** With `n ≥ min_kept` kept sessions, the statistics
    ///   `⌊(n−1)/2⌋` and `⌈(n−1)/2⌉` lie between the same-rank lower and
    ///   upper bounds. Only the sessions whose bounds reach into that band
    ///   are resolved through libm; an even `n` interpolates two of them
    ///   with `quantile_select`'s expression. Below `min_kept` nothing is
    ///   resolved.
    pub fn faulted_median(
        &self,
        window: &FaultedWindow,
        mut det: impl FnMut(u32) -> f64,
        tally: &mut FaultTally,
        scratch: &mut JitterScratch,
    ) -> FaultedMedian {
        let mut draws = SeedDraws { rng: LaneRng::new(&[0]) };
        self.run_faulted(window, &mut draws, &mut det, tally, scratch)
    }

    fn run_faulted(
        &self,
        window: &FaultedWindow,
        draws: &mut impl LaneDraws,
        det: &mut impl FnMut(u32) -> f64,
        tally: &mut FaultTally,
        scratch: &mut JitterScratch,
    ) -> FaultedMedian {
        #[cfg(target_arch = "x86_64")]
        if self.wide {
            // SAFETY: as in `run`.
            return unsafe { faulted_lanes_avx512(window, draws, det, tally, scratch) };
        }
        faulted_lanes(window, draws, det, tally, scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::{CongestionConfig, CongestionKey, CongestionModel};
    use crate::path::{realize_path, RealizeSpec};
    use crate::fault::FaultConfig;
    use crate::reference::{faulted_attempts, path_rtt_ms, sample_min_rtt};
    use crate::time::SimTime;
    use bb_bgp::{compute_routes, Announcement};
    use bb_topology::{generate, AsClass, TopologyConfig, Topology};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashMap;
    use std::ops::Range;

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

    /// The ranking deviate of a pair.
    fn approx_z(u1: f64, u2: f64) -> f64 {
        key_z(approx_key(u1, u2))
    }

    /// The per-cell scalar kernel the lane kernels are checked against, bit
    /// for bit and libm count for libm count: one cell's uniform pairs,
    /// drawn or crafted, ranked with `approx_z` one draw at a time, each
    /// session resolved from its ranking minimum as [`resolve_lane`] does.
    #[derive(Default)]
    struct Cell {
        u1: Vec<f64>,
        u2: Vec<f64>,
        /// `approx_z` of every draw.
        approx: Vec<f64>,
        /// Exact values inside the median band.
        exact: Vec<f64>,
    }

    impl Cell {
        /// `n` Box-Muller uniform pairs in the scalar walk's stream order.
        fn drawn(rng: &mut impl Rng, n: usize) -> Self {
            let (mut u1, mut u2) = (Vec::with_capacity(n), Vec::with_capacity(n));
            for _ in 0..n {
                u1.push(rng.gen_range(f64::EPSILON..1.0));
                u2.push(rng.gen::<f64>());
            }
            Cell { u1, u2, ..Cell::default() }
        }

        /// Crafted uniform pairs, as if drawn.
        fn crafted(pairs: &[(f64, f64)]) -> Self {
            Cell {
                u1: pairs.iter().map(|p| p.0).collect(),
                u2: pairs.iter().map(|p| p.1).collect(),
                ..Cell::default()
            }
        }

        /// Rank every pair with `approx_z`.
        fn rank(&mut self) {
            self.approx = self.u1.iter().zip(&self.u2).map(|(&u1, &u2)| approx_z(u1, u2)).collect();
        }

        /// Minimum ranking deviate of draws `range`.
        fn approx_min(&self, range: Range<usize>) -> f64 {
            self.approx[range].iter().fold(f64::INFINITY, |m, &a| if a < m { a } else { m })
        }

        /// Exact minimum deviate of draws `range`, whose ranking minimum is
        /// `approx_min`, and its libm count; see [`resolve_lane`].
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

        /// Every session's exact minimum, and the libm count.
        fn session_minima(&mut self, sessions: usize, per: usize) -> (Vec<f64>, usize) {
            self.rank();
            let mut evals = 0;
            let minima = (0..sessions)
                .map(|s| {
                    let range = s * per..(s + 1) * per;
                    let (min_z, n) = self.resolve(range.clone(), self.approx_min(range));
                    evals += n;
                    min_z
                })
                .collect();
            (minima, evals)
        }

        /// The median of the session minima (odd `sessions`), resolving
        /// only the band around the ranking median, and the libm count.
        fn session_median(&mut self, sessions: usize, per: usize) -> (f64, usize) {
            assert!(sessions % 2 == 1, "median entry point needs an odd session count");
            self.rank();
            let ranks: Vec<f64> = (0..sessions)
                .map(|s| self.approx_min(s * per..(s + 1) * per))
                .collect();
            let mid = sessions / 2;
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

    /// The per-cell reference of [`MedianLanes::min_z`]: the session minima
    /// of `sessions × per` draws from `rng`, and the libm count.
    fn batch_session_min_z(rng: &mut StdRng, sessions: usize, per: usize) -> (Vec<f64>, usize) {
        Cell::drawn(rng, sessions * per).session_minima(sessions, per)
    }

    /// The per-cell reference of [`MedianLanes::median_z`] (odd `sessions`).
    fn batch_session_median_z(rng: &mut StdRng, sessions: usize, per: usize) -> (f64, usize) {
        Cell::drawn(rng, sessions * per).session_median(sessions, per)
    }

    /// Median of an odd-length slice under `total_cmp`.
    fn median_of(values: &[f64]) -> f64 {
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    }

    fn exact_min(pairs: &[(f64, f64)]) -> f64 {
        pairs.iter().fold(f64::INFINITY, |m, &(u1, u2)| m.min(box_muller(u1, u2)))
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
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

    /// Every instance of the lane kernel this host runs.
    fn instances() -> Vec<MedianLanes> {
        std::iter::once(MedianLanes::portable()).chain(MedianLanes::wide()).collect()
    }

    /// Streams of crafted uniform pairs, as lane draws: seed `s` draws
    /// `cells[s]`, or `cells[index[s]]` with a lookup table, pair by pair.
    struct Crafted<'a> {
        cells: &'a [Vec<(f64, f64)>],
        index: Option<&'a HashMap<u64, usize>>,
        lanes: [usize; LANES],
        draw: usize,
    }

    impl<'a> Crafted<'a> {
        fn new(cells: &'a [Vec<(f64, f64)>]) -> Self {
            Crafted { cells, index: None, lanes: [0; LANES], draw: 0 }
        }

        fn keyed(cells: &'a [Vec<(f64, f64)>], index: &'a HashMap<u64, usize>) -> Self {
            Crafted { index: Some(index), ..Self::new(cells) }
        }
    }

    impl LaneDraws for Crafted<'_> {
        fn start(&mut self, seeds: &[u64]) {
            for l in 0..LANES {
                let seed = seeds.get(l).copied().unwrap_or(seeds[0]);
                self.lanes[l] = self.index.map_or(seed as usize, |index| index[&seed]);
            }
            self.draw = 0;
        }

        fn pair(&mut self) -> (Lane<f64>, Lane<f64>) {
            let (mut u1, mut u2) = ([0.0; LANES], [0.0; LANES]);
            for l in 0..LANES {
                (u1[l], u2[l]) = self.cells[self.lanes[l]][self.draw];
            }
            self.draw += 1;
            (u1, u2)
        }
    }

    /// The lane kernels on crafted cells of `sessions` sessions each, on
    /// every instance: `min_z` must give every session's exact minimum
    /// (the fold of `box_muller` over its draws) and `median_z` (odd
    /// `sessions`) their median, both with the per-cell reference's libm
    /// count. Returns the median reference's libm count.
    fn check_lanes(cells: &[Vec<(f64, f64)>], sessions: usize) -> usize {
        let per = cells[0].len() / sessions;
        let minima: Vec<Vec<f64>> =
            cells.iter().map(|cell| cell.chunks(per).map(exact_min).collect()).collect();
        let (mut min_evals, mut median_evals, mut medians) = (0, 0, Vec::new());
        for (cell, want) in cells.iter().zip(&minima) {
            let (got, evals) = Cell::crafted(cell).session_minima(sessions, per);
            assert_eq!(bits(&got), bits(want), "{cell:?}");
            min_evals += evals;
            if sessions % 2 == 1 {
                let (median, evals) = Cell::crafted(cell).session_median(sessions, per);
                assert_eq!(median.to_bits(), median_of(want).to_bits(), "{cell:?}");
                medians.push(median);
                median_evals += evals;
            }
        }
        let seeds: Vec<u64> = (0..cells.len() as u64).collect();
        let (mut scratch, mut out) = (JitterScratch::default(), Vec::new());
        for lanes in instances() {
            let draws = &mut Crafted::new(cells);
            let evals = lanes.run::<false>(&seeds, draws, sessions, per, &mut scratch, &mut out);
            assert_eq!(bits(&out), bits(&minima.concat()), "{lanes:?} on {cells:?}");
            assert_eq!(evals, min_evals, "{lanes:?} on {cells:?}");
            if sessions % 2 == 1 {
                let draws = &mut Crafted::new(cells);
                let evals = lanes.run::<true>(&seeds, draws, sessions, per, &mut scratch, &mut out);
                assert_eq!(bits(&out), bits(&medians), "{lanes:?} on {cells:?}");
                assert_eq!(evals, median_evals, "{lanes:?} on {cells:?}");
            }
        }
        median_evals
    }

    /// `case` (a list of equal-length sessions) in every lane position of
    /// two full groups and a remainder, alternating with the same sessions
    /// in reverse order. Returns the median reference's libm count.
    fn check_lanes_case(case: &[Vec<(f64, f64)>]) -> usize {
        let flat = case.concat();
        let reversed: Vec<(f64, f64)> = case.iter().rev().flatten().copied().collect();
        let cells: Vec<Vec<(f64, f64)>> = (0..2 * LANES + 1)
            .map(|c| if c % 2 == 0 { flat.clone() } else { reversed.clone() })
            .collect();
        check_lanes(&cells, case.len())
    }

    /// Near-tie and identical draws within and across sessions, sessions
    /// tied at the median, and bands holding every session: both lane
    /// kernels resolve them to the exact fold's bits in every lane
    /// position, with the per-cell reference's libm count.
    #[test]
    fn lane_kernel_resolves_near_ties_and_identical_draws() {
        for b in twins() {
            check_lanes_case(&[vec![ANCHOR, b, FILLER]]);
            check_lanes_case(&[vec![b, FILLER, ANCHOR]]);
            check_lanes_case(&[vec![ANCHOR], vec![b], vec![FILLER]]);
            check_lanes_case(&[vec![FILLER], vec![b], vec![ANCHOR]]);
            check_lanes_case(&[vec![ANCHOR, FILLER], vec![b, ANCHOR]]);
        }
        check_lanes_case(&[vec![ANCHOR, ANCHOR, FILLER]]);
        check_lanes_case(&[vec![FILLER, ANCHOR, ANCHOR]]);
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
            let evals = check_lanes_case(&sessions);
            assert!(evals >= 7 * (2 * LANES + 1), "every session is in the band");
        }
    }

    /// Seeded cells: both lane kernels equal the per-cell reference (bits
    /// and libm count) and the scalar walk, for session counts 1–9 (the
    /// median for odd counts), 1–6 draws per session, and 1 to
    /// `2·LANES + 1` cells. The reference draws exactly the scalar walk's
    /// stream.
    #[test]
    fn lane_kernel_matches_reference_and_scalar_walk() {
        let rm = RttModel::default();
        let rtt = |z: f64| 10.0 + rm.jitter_median_ms * (rm.jitter_sigma * z).exp();
        let mut scratch = JitterScratch::default();
        let mut out = Vec::new();
        for sessions in 1..=9 {
            for samples in 1..=6 {
                for cells in 1..=2 * LANES + 1 {
                    let seeds: Vec<u64> = (0..cells as u64)
                        .map(|c| (sessions * 100 + samples * 10) as u64 ^ (c << 32))
                        .collect();
                    let (mut minima, mut min_evals) = (Vec::new(), 0);
                    let (mut medians, mut median_evals) = (Vec::new(), 0);
                    for &seed in &seeds {
                        let mut rng = StdRng::seed_from_u64(seed);
                        let scalar: Vec<f64> = (0..sessions)
                            .map(|_| sample_min_rtt(10.0, &rm, samples, &mut rng))
                            .collect();
                        let mut batch_rng = StdRng::seed_from_u64(seed);
                        let (min_z, evals) = batch_session_min_z(&mut batch_rng, sessions, samples);
                        let want: Vec<f64> = min_z.iter().map(|&z| rtt(z)).collect();
                        assert_eq!(bits(&want), bits(&scalar), "seed {seed}");
                        assert_eq!(next_of(&mut rng), next_of(&mut batch_rng), "seed {seed}");
                        minima.extend(min_z);
                        min_evals += evals;
                        if sessions % 2 == 1 {
                            let mut rng = StdRng::seed_from_u64(seed);
                            let (z, evals) = batch_session_median_z(&mut rng, sessions, samples);
                            assert_eq!(rtt(z).to_bits(), median_of(&scalar).to_bits());
                            medians.push(z);
                            median_evals += evals;
                        }
                    }
                    for lanes in instances() {
                        let shape = (lanes, sessions, samples, cells);
                        let evals = lanes.min_z(&seeds, sessions, samples, &mut scratch, &mut out);
                        assert_eq!(bits(&out), bits(&minima), "{shape:?}");
                        assert_eq!(evals, min_evals, "{shape:?}");
                        if sessions % 2 == 1 {
                            let evals =
                                lanes.median_z(&seeds, sessions, samples, &mut scratch, &mut out);
                            assert_eq!(bits(&out), bits(&medians), "{shape:?}");
                            assert_eq!(evals, median_evals, "{shape:?}");
                        }
                    }
                }
            }
        }
    }

    /// The faulted kernel's reference: `faulted_attempts` per probe, each
    /// attempt's RTT `attempt_rtt(a, stream seed)`, then `quantile_select`
    /// over the kept RTTs. Returns the median bits (when at least
    /// `min_kept`, and one, report), the kept count and the tally.
    fn faulted_reference(
        w: &FaultedWindow,
        mut attempt_rtt: impl FnMut(u32, u64) -> f64,
    ) -> (Option<u64>, usize, FaultTally) {
        let mut tally = FaultTally::default();
        let mut kept = Vec::new();
        for &(key, seed) in w.probes {
            kept.extend(faulted_attempts(w.plane, key, &mut tally, |a| {
                attempt_rtt(a, bb_exec::derive_seed(seed, a as u64))
            }));
        }
        let n = kept.len();
        let median = (n > 0 && n >= w.min_kept)
            .then(|| bb_stats::quantile_select(&mut kept, 0.5).to_bits());
        (median, n, tally)
    }

    /// The faulted kernel on instance `lanes`, drawing crafted draws or,
    /// with none, the seeded streams: the median bits, kept count, tally
    /// and libm count.
    fn faulted_on(
        lanes: MedianLanes,
        w: &FaultedWindow,
        det: &dyn Fn(u32) -> f64,
        crafted: Option<Crafted>,
    ) -> (Option<u64>, usize, FaultTally, usize) {
        let mut tally = FaultTally::default();
        let mut scratch = JitterScratch::default();
        let mut det = |a| det(a);
        let got = match crafted {
            Some(mut draws) => lanes.run_faulted(w, &mut draws, &mut det, &mut tally, &mut scratch),
            None => lanes.faulted_median(w, det, &mut tally, &mut scratch),
        };
        (got.median.map(f64::to_bits), got.kept, tally, got.exact_evals)
    }

    /// Streams per crafted probe: attempt `a` of the probe with seed `s`
    /// draws `cells[s · ATTEMPTS + a]`.
    const ATTEMPTS: u64 = 4;

    /// A draw far below every anchor-like deviate (`z = −r`).
    const LOW: (f64, f64) = (0.01, 0.5);
    /// A draw far above them (`z = +r`).
    const HIGH: (f64, f64) = (0.01, 0.0);

    /// Per-attempt deterministic RTTs of the crafted windows.
    fn crafted_det(attempt: u32) -> f64 {
        10.0 + 0.5 * attempt as f64
    }

    /// A crafted faulted window (per probe, per attempt, that stream's
    /// draws) must match the reference on every instance with each probe
    /// in every lane position: the window is padded with far-low and
    /// far-high probes in pairs until it spans two lane groups, then
    /// rotated through every position. `min_kept` maps the padded probe
    /// count to the window's minimum. Returns the largest libm count seen.
    fn check_faulted_case(
        case: &[Vec<Vec<(f64, f64)>>],
        cfg: &FaultConfig,
        min_kept: impl Fn(usize) -> usize,
    ) -> usize {
        let per = case[0][0].len();
        let attempts = cfg.max_retries as usize + 1;
        assert!(attempts as u64 <= ATTEMPTS && case.iter().all(|p| p.len() == attempts));
        let mut window = case.to_vec();
        while window.len() <= LANES {
            window.push(vec![vec![LOW; per]; attempts]);
            window.push(vec![vec![HIGH; per]; attempts]);
        }
        // Each stream's cell, found from its production stream seed.
        let mut cells = vec![vec![LOW; per]; window.len() * ATTEMPTS as usize];
        let mut index = HashMap::new();
        for s in 0..window.len() as u64 {
            for a in 0..ATTEMPTS {
                let cell = (s * ATTEMPTS + a) as usize;
                if let Some(draws) = window[s as usize].get(a as usize) {
                    cells[cell] = draws.clone();
                }
                let seed = bb_exec::derive_seed(s, a);
                assert!(index.insert(seed, cell).is_none(), "stream seeds collide");
            }
        }
        let plane = FaultPlane::new(1, cfg.clone());
        let model = RttModel::default();
        let n = window.len();
        let mut max_evals = 0;
        for r in 0..n {
            let probes: Vec<(u64, u64)> =
                (0..n).map(|i| ((i + r) % n) as u64).map(|s| (s, s)).collect();
            let w = FaultedWindow {
                plane: &plane,
                model: &model,
                samples: per,
                min_kept: min_kept(n),
                probes: &probes,
            };
            let want = faulted_reference(&w, |a, seed| {
                crafted_det(a) + model.jitter(exact_min(&cells[index[&seed]]))
            });
            for lanes in instances() {
                let draws = Crafted::keyed(&cells, &index);
                let (median, kept, tally, evals) =
                    faulted_on(lanes, &w, &crafted_det, Some(draws));
                assert_eq!((median, kept, tally), want, "{lanes:?}, rotation {r} of {case:?}");
                max_evals = max_evals.max(evals);
            }
        }
        max_evals
    }

    /// No loss, no timeout, one retry.
    fn calm() -> FaultConfig {
        FaultConfig { probe_loss: 0.0, timeout_ms: 1e9, max_retries: 1, ..FaultConfig::light() }
    }

    /// A probe drawing `draws` on every attempt.
    fn steady(draws: Vec<(f64, f64)>) -> Vec<Vec<(f64, f64)>> {
        vec![draws.clone(), draws]
    }

    #[test]
    fn faulted_kernel_resolves_near_ties_and_identical_minima() {
        let (low, high) = ((0.01, 0.5), (0.01, 0.0));
        for tied in [ANCHOR, twins()[0]] {
            let case: Vec<_> = [
                vec![high, FILLER],
                vec![ANCHOR, FILLER],
                vec![low, FILLER],
                vec![FILLER, tied],
                vec![low, high],
            ]
            .into_iter()
            .map(steady)
            .collect();
            check_faulted_case(&case, &calm(), |_| 1);
        }
        for b in twins() {
            let case: Vec<_> =
                [vec![ANCHOR], vec![b], vec![FILLER]].into_iter().map(steady).collect();
            check_faulted_case(&case, &calm(), |_| 1);
        }
        // Every session at the median band: near twins of one anchor.
        let twins = twins();
        for start in 0..twins.len() - 7 {
            let case: Vec<_> =
                twins[start..start + 7].iter().map(|&b| steady(vec![FILLER, b])).collect();
            check_faulted_case(&case, &calm(), |_| 1);
        }
        let case: Vec<_> = [vec![ANCHOR, ANCHOR], vec![ANCHOR, FILLER], vec![FILLER, ANCHOR]]
            .into_iter()
            .map(steady)
            .collect();
        check_faulted_case(&case, &calm(), |_| 1);
    }

    #[test]
    fn faulted_kernel_interpolates_an_even_kept_count() {
        for b in twins() {
            let case: Vec<_> = [vec![ANCHOR], vec![b], vec![LOW], vec![FILLER]]
                .into_iter()
                .map(steady)
                .collect();
            check_faulted_case(&case, &calm(), |_| 1);
        }
        let case: Vec<_> = [vec![ANCHOR], vec![ANCHOR]].into_iter().map(steady).collect();
        check_faulted_case(&case, &calm(), |_| 1);
    }

    #[test]
    fn faulted_kernel_resolves_nothing_below_the_minimum() {
        let case: Vec<_> =
            [vec![ANCHOR], vec![twins()[0]], vec![FILLER]].into_iter().map(steady).collect();
        assert_eq!(check_faulted_case(&case, &calm(), |n| n + 1), 0);
    }

    /// `timeout_ms` at a session's exact RTT and one ulp either side: the
    /// bounds straddle it, so the kernel resolves the session and decides
    /// exactly as the reference, and a timed-out session falls back to its
    /// next attempt.
    #[test]
    fn faulted_kernel_decides_timeouts_at_the_edge() {
        for b in twins() {
            let edge = crafted_det(0) + RttModel::default().jitter(box_muller(b.0, b.1));
            let (below, above) = (edge.to_bits() - 1, edge.to_bits() + 1);
            for timeout_ms in [f64::from_bits(below), edge, f64::from_bits(above)] {
                let cfg = FaultConfig { timeout_ms, ..calm() };
                let case = vec![
                    vec![vec![b], vec![LOW]],
                    steady(vec![LOW]),
                    vec![vec![HIGH], vec![ANCHOR]],
                    steady(vec![ANCHOR]),
                ];
                check_faulted_case(&case, &cfg, |_| 1);
            }
        }
    }

    /// A seeded faulted window, its shape and fault plane drawn from `i`.
    fn seeded_window(i: u64) -> (FaultConfig, Vec<(u64, u64)>, usize, usize) {
        let mut state = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5eed;
        let mut next = move |n: u64| {
            state = crate::keyed::splitmix64(state);
            state % n
        };
        let cfg = FaultConfig {
            probe_loss: [0.0, 0.15, 0.5, 0.9][next(4) as usize],
            // Around the RTTs `seeded_det` and the jitter make.
            timeout_ms: 10.0 + next(4000) as f64 / 1000.0,
            max_retries: next(4) as u32,
            ..FaultConfig::heavy()
        };
        let sessions = 1 + next(9) as usize;
        let probes = (0..sessions as u64).map(|_| (next(u64::MAX), next(u64::MAX))).collect();
        let samples = 1 + next(6) as usize;
        let min_kept = next(sessions as u64 + 2) as usize;
        (cfg, probes, samples, min_kept)
    }

    fn seeded_det(attempt: u32) -> f64 {
        10.0 + 0.37 * attempt as f64
    }

    /// `windows` seeded faulted windows through every instance, against the
    /// reference drawing each attempt's session through `sample_min_rtt`.
    /// The windows must include timeouts, even kept counts and dropped
    /// windows.
    fn check_seeded_windows(windows: Range<u64>) {
        let model = RttModel::default();
        let lanes = instances();
        let (mut timeouts, mut even, mut dropped) = (0, 0, 0);
        for i in windows {
            let (cfg, probes, samples, min_kept) = seeded_window(i);
            let plane = FaultPlane::new(i, cfg);
            let w = FaultedWindow {
                plane: &plane,
                model: &model,
                samples,
                min_kept,
                probes: &probes,
            };
            let want = faulted_reference(&w, |a, seed| {
                let mut rng = StdRng::seed_from_u64(seed);
                sample_min_rtt(seeded_det(a), &model, samples, &mut rng)
            });
            for &lanes in &lanes {
                let (median, kept, tally, _) = faulted_on(lanes, &w, &seeded_det, None);
                assert_eq!((median, kept, tally), want, "{lanes:?}, window {i}");
            }
            timeouts += want.2.timeouts;
            even += usize::from(want.0.is_some() && want.1 % 2 == 0);
            dropped += usize::from(want.0.is_none());
        }
        assert!(timeouts > 0 && even > 0 && dropped > 0, "{timeouts} {even} {dropped}");
    }

    #[test]
    fn faulted_kernel_matches_reference_on_seeded_windows() {
        check_seeded_windows(0..3000);
    }

    /// Release-only sweep: 1M seeded faulted windows through every
    /// instance of the faulted kernel, bit for bit against the reference.
    #[test]
    #[ignore]
    fn faulted_kernel_identity_at_scale() {
        check_seeded_windows(0..1_000_000);
    }

    /// The faulted kernel seeds its streams as the executor does.
    #[test]
    fn derive_seed_is_the_executors() {
        for (seed, index) in [(0, 0), (42, 3), (u64::MAX, u64::MAX), (0x5eed, 1 << 40)] {
            assert_eq!(derive_seed(seed, index), bb_exec::derive_seed(seed, index));
        }
    }

    /// `approx_exp` stays within a relative 5e-14 of libm over the
    /// exponents the faulted kernel evaluates.
    #[test]
    fn approx_exp_error_within_bound() {
        let mut worst = 0.0_f64;
        let xs = (-35_000..=35_000)
            .map(|i| i as f64 / 100.0)
            .chain((-1000..=1000).map(|i| i as f64 / 997.0));
        for x in xs {
            worst = worst.max((approx_exp(x) / x.exp() - 1.0).abs());
        }
        assert!(worst <= 5e-14, "max relative error {worst:e}");
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
    /// The ranking bound over 50M draws, then 1M cells through the per-cell
    /// references and every instance of both lane kernels, against the
    /// scalar session walk.
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
        /// The cells of one `(sessions, samples)` shape, and the per-cell
        /// references' bits and libm counts: session minima, then medians.
        #[derive(Default)]
        struct Shape {
            seeds: Vec<u64>,
            minima: Vec<u64>,
            min_evals: usize,
            medians: Vec<u64>,
            median_evals: usize,
        }
        let mut shapes: std::collections::BTreeMap<(usize, usize), Shape> = Default::default();
        for cell in 0..1_000_000u64 {
            let sessions = 1 + 2 * (cell % 5) as usize;
            let samples = 1 + (cell % 8) as usize;
            let mut scalar_rng = StdRng::seed_from_u64(cell);
            let scalar: Vec<f64> = (0..sessions)
                .map(|_| sample_min_rtt(10.0, &rm, samples, &mut scalar_rng))
                .collect();
            let mut batch_rng = StdRng::seed_from_u64(cell);
            let (min_z, min_evals) = batch_session_min_z(&mut batch_rng, sessions, samples);
            for (s, &z) in scalar.iter().zip(&min_z) {
                let batch_v = 10.0 + rm.jitter_median_ms * (rm.jitter_sigma * z).exp();
                assert_eq!(s.to_bits(), batch_v.to_bits(), "cell {cell}");
            }
            let mut median_rng = StdRng::seed_from_u64(cell);
            let (z, median_evals) = batch_session_median_z(&mut median_rng, sessions, samples);
            assert_eq!(z.to_bits(), median_of(&min_z).to_bits(), "cell {cell}");
            let next = next_of(&mut scalar_rng);
            assert_eq!(next, next_of(&mut batch_rng));
            assert_eq!(next, next_of(&mut median_rng));
            let shape = shapes.entry((sessions, samples)).or_default();
            shape.seeds.push(cell);
            shape.minima.extend(bits(&min_z));
            shape.min_evals += min_evals;
            shape.medians.push(z.to_bits());
            shape.median_evals += median_evals;
        }
        // Both lane kernels over the same million cells, on every instance.
        let mut scratch = JitterScratch::default();
        let mut out = Vec::new();
        for lanes in instances() {
            for (&(sessions, samples), want) in &shapes {
                let at = format!("{lanes:?} at {sessions}x{samples}");
                let evals = lanes.min_z(&want.seeds, sessions, samples, &mut scratch, &mut out);
                assert!(bits(&out) == want.minima, "{at}");
                assert_eq!(evals, want.min_evals, "{at}");
                let evals = lanes.median_z(&want.seeds, sessions, samples, &mut scratch, &mut out);
                assert!(bits(&out) == want.medians, "{at}");
                assert_eq!(evals, want.median_evals, "{at}");
            }
        }
    }

    fn next_of(rng: &mut StdRng) -> u64 {
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
