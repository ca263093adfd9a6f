//! Scalar reference walks for the oracles.
//!
//! No production code calls this module. Every campaign compiles its paths
//! into a [`PathPlanBatch`](crate::PathPlanBatch) and draws its jitter
//! through the lane kernels of [`MedianLanes`](crate::MedianLanes): session
//! minima, window medians and faulted windows. The functions here compute
//! the same quantities the obvious way, one sample (or one retry) at a
//! time, so tests can check the compiled paths against them bit for bit
//! without sharing code with them.

use crate::congestion::{CongestionKey, CongestionModel};
use crate::fault::{FaultPlane, FaultTally};
use crate::path::RealizedPath;
use crate::rtt::{box_muller, path_base_rtt_ms, RttModel};
use crate::time::SimTime;
use bb_topology::Topology;
use rand::Rng;

/// Deterministic part of a path's RTT at time `t` (no jitter), given the
/// client's last-mile congestion key.
pub fn path_rtt_ms(
    topo: &Topology,
    model: &CongestionModel,
    path: &RealizedPath,
    lastmile: Option<CongestionKey>,
    t: SimTime,
) -> f64 {
    let mut rtt = path_base_rtt_ms(topo, path);

    // Interconnect queueing.
    for &l in &path.links {
        let city = topo.link(l).city;
        let offset = topo.atlas.city(city).region.utc_offset_hours();
        rtt += model.queueing_delay_ms(CongestionKey::Link(l), offset, t);
    }
    // Destination metro queueing (shared by all routes ending there).
    let final_city = path.final_city();
    let offset = topo.atlas.city(final_city).region.utc_offset_hours();
    rtt += model.queueing_delay_ms(CongestionKey::Metro(final_city), offset, t);
    // Last mile (shared by all routes to this client prefix).
    if let Some(lm) = lastmile {
        rtt += model.queueing_delay_ms(lm, offset, t);
    }
    rtt
}

/// TCP MinRTT over `samples` probes: deterministic RTT plus the minimum of
/// `samples` log-normal jitter draws.
pub fn sample_min_rtt(
    deterministic_rtt_ms: f64,
    rtt_model: &RttModel,
    samples: usize,
    rng: &mut impl Rng,
) -> f64 {
    assert!(samples >= 1);
    if rtt_model.jitter_sigma >= 0.0 && rtt_model.jitter_median_ms >= 0.0 {
        // x ↦ median · exp(sigma · x) is monotone for sigma, median ≥ 0, so
        // the minimum jitter is the jitter of the minimum normal draw: one
        // exp per session instead of one per sample, same bits.
        let mut min_z = f64::INFINITY;
        for _ in 0..samples {
            min_z = min_z.min(normal_draw(rng));
        }
        let min_jitter = rtt_model.jitter_median_ms * (rtt_model.jitter_sigma * min_z).exp();
        return deterministic_rtt_ms + min_jitter;
    }
    let mut min_jitter = f64::INFINITY;
    for _ in 0..samples {
        let z = normal_draw(rng);
        let jitter = rtt_model.jitter_median_ms * (rtt_model.jitter_sigma * z).exp();
        min_jitter = min_jitter.min(jitter);
    }
    deterministic_rtt_ms + min_jitter
}

/// One faulted measurement: run up to `1 + max_retries` attempts of
/// `attempt -> rtt`, skipping attempts lost in flight and discarding RTTs
/// above the measurement timeout. Returns the first surviving RTT; `tally`
/// absorbs losses, timeouts and retries.
pub fn faulted_attempts(
    fp: &FaultPlane,
    probe_key: u64,
    tally: &mut FaultTally,
    mut attempt_rtt: impl FnMut(u32) -> f64,
) -> Option<f64> {
    for attempt in 0..=fp.config().max_retries {
        if attempt > 0 {
            tally.retries += 1;
        }
        if fp.lost(probe_key, attempt) {
            tally.lost += 1;
            continue;
        }
        let rtt = attempt_rtt(attempt);
        if fp.timed_out(rtt) {
            tally.lost += 1;
            tally.timeouts += 1;
            continue;
        }
        return Some(rtt);
    }
    None
}

/// One standard-normal draw; Box-Muller from two uniforms keeps us off
/// rand_distr.
#[inline]
pub fn normal_draw(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    box_muller(u1, u2)
}
