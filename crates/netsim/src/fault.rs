//! Measurement-plane fault injection: probe loss, measurement timeouts,
//! and BGP route churn.
//!
//! [`failure`](crate::failure) models outages of the *world* (sites and
//! links). This module models failures of the *measurement pipelines
//! themselves* — the messy-telemetry reality behind the paper's datasets:
//! sprayed sessions at "low rates" (§2.3.1) lose probes, client beacons
//! only sometimes fire (§2.3.2), and §4 puts availability first among the
//! "other factors at play". A route can also be withdrawn or flap
//! mid-window, invalidating the `RealizedPath` a campaign pre-realized.
//!
//! Everything is deterministic and order-independent:
//!
//! * **Probe loss** is a pure hash of `(plane seed, stream key, attempt)` —
//!   two queries for the same probe always agree, no matter which worker
//!   asks first, so faulted runs stay byte-identical across `--jobs`.
//! * **Route churn** is a per-route-key Poisson withdrawal process with
//!   exponential hold times, materialized lazily in the same keyed cache as
//!   the congestion processes.
//! * **Timeouts** are a deterministic threshold on the sampled RTT: a probe
//!   whose MinRTT exceeds the timeout never reports.
//!
//! The measurement loops (bb-measure) consume this plane with bounded
//! retry-with-backoff; windows that degrade below their minimum-sample
//! threshold are flagged (NaN medians) rather than silently averaged.

use crate::failure::Outage;
use crate::keyed::{splitmix64, KeyedCache};
use crate::time::SimTime;
use std::sync::Arc;

/// Fault-injection intensity selected by `repro --faults`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLevel {
    /// No fault plane at all: byte-identical to the pre-fault baseline.
    Off,
    /// Production-plausible telemetry loss: a few percent of probes lost,
    /// generous timeouts, occasional route withdrawals.
    Light,
    /// Chaos-drill intensity: heavy loss, tight timeouts, frequent churn.
    Heavy,
}

impl FaultLevel {
    pub fn as_str(&self) -> &'static str {
        match self {
            FaultLevel::Off => "off",
            FaultLevel::Light => "light",
            FaultLevel::Heavy => "heavy",
        }
    }

    /// The config this level stands for; `None` for `Off`.
    pub fn config(&self) -> Option<FaultConfig> {
        match self {
            FaultLevel::Off => None,
            FaultLevel::Light => Some(FaultConfig::light()),
            FaultLevel::Heavy => Some(FaultConfig::heavy()),
        }
    }
}

impl std::str::FromStr for FaultLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(FaultLevel::Off),
            "light" => Ok(FaultLevel::Light),
            "heavy" => Ok(FaultLevel::Heavy),
            other => Err(format!("unknown fault level {other:?}; use off|light|heavy")),
        }
    }
}

/// Tuning knobs for the fault plane.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Per-attempt probe loss probability.
    pub probe_loss: f64,
    /// Measurement timeout: samples above this RTT never report, ms.
    pub timeout_ms: f64,
    /// Retries after a lost/timed-out attempt (bounded retry).
    pub max_retries: u32,
    /// Simulated backoff between attempts, minutes (retries re-observe the
    /// path at a slightly later time).
    pub retry_backoff_min: f64,
    /// Route withdrawal/flap rate per route per day.
    pub churn_events_per_day: f64,
    /// Mean withdrawal hold time, minutes (exponential).
    pub churn_duration_mean_min: f64,
    /// Horizon over which churn events are materialized, minutes.
    pub horizon_min: f64,
    /// Minimum surviving samples for a window to count; below this the
    /// window is flagged as degraded (NaN) instead of averaged.
    pub min_samples_per_window: usize,
}

impl FaultConfig {
    /// Production-plausible loss (the `--faults light` preset).
    pub fn light() -> Self {
        Self {
            probe_loss: 0.03,
            timeout_ms: 800.0,
            max_retries: 2,
            retry_backoff_min: 1.0,
            churn_events_per_day: 0.4,
            churn_duration_mean_min: 30.0,
            horizon_min: 30.0 * 24.0 * 60.0,
            min_samples_per_window: 3,
        }
    }

    /// Chaos-drill intensity (the `--faults heavy` preset).
    ///
    /// The timeout is tight but sits above `MAX_BASE_RTT_MS`, the worst
    /// intercontinental *base* RTT the topologies produce (circuitous
    /// hot-potato paths at Large scale reach ~513 ms before congestion).
    /// A timeout below that ceiling would silently censor legitimate
    /// long-haul paths — geography, not faults — biasing the Fig 3/5
    /// tails; 300 ms did exactly that until this was derived from the
    /// bound. Heavy timeouts therefore censor congestion spikes only.
    pub fn heavy() -> Self {
        Self {
            probe_loss: 0.15,
            timeout_ms: MAX_BASE_RTT_MS + 50.0,
            max_retries: 1,
            retry_backoff_min: 2.0,
            churn_events_per_day: 2.0,
            churn_duration_mean_min: 90.0,
            horizon_min: 30.0 * 24.0 * 60.0,
            min_samples_per_window: 4,
        }
    }
}

/// The measurement fault plane. Cheap to share by reference; churn
/// processes are cached behind a lock as shared slices.
pub struct FaultPlane {
    seed: u64,
    cfg: FaultConfig,
    churn_cache: KeyedCache<[Outage]>,
}

impl FaultPlane {
    pub fn new(seed: u64, cfg: FaultConfig) -> Self {
        Self {
            seed,
            cfg,
            churn_cache: KeyedCache::new(),
        }
    }

    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Stable key for a route (or any measured stream) from its identifying
    /// parts — chained SplitMix64, so adjacent part tuples land far apart.
    pub fn stream_key(parts: &[u64]) -> u64 {
        Self::stream_key_extend(0x_bb_fa, parts)
    }

    /// Continue the fold of `key` (a [`FaultPlane::stream_key`] result)
    /// over more parts: `stream_key_extend(stream_key(&[a, b]), &[c])`
    /// equals `stream_key(&[a, b, c])`, so a shared prefix hashes once.
    pub fn stream_key_extend(key: u64, parts: &[u64]) -> u64 {
        parts.iter().fold(key, |k, &p| {
            splitmix64(k ^ p.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        })
    }

    /// Whether attempt `attempt` of the probe identified by `stream` is
    /// lost in flight. Pure function of `(plane seed, stream, attempt)`.
    ///
    /// The attempt runs through its own full SplitMix64 round (tagged to
    /// stay disjoint from churn draws) chained with the stream's, rather
    /// than being packed into the top key bits — packing meant a stream
    /// differing only in bits 48.. replayed another stream's retry draws,
    /// the same aliasing class 5cc3617 fixed in spray's session RNG.
    pub fn lost(&self, stream: u64, attempt: u32) -> bool {
        self.probe_loss(stream).lost(attempt)
    }

    /// The loss draws of the probe identified by `stream`, with the
    /// stream's hash computed once for all its attempts.
    pub(crate) fn probe_loss(&self, stream: u64) -> ProbeLoss {
        ProbeLoss {
            per_stream: splitmix64(self.seed ^ splitmix64(stream)),
            probe_loss: self.cfg.probe_loss,
        }
    }

    /// Whether a sampled RTT exceeds the measurement timeout.
    pub fn timed_out(&self, rtt_ms: f64) -> bool {
        rtt_ms > self.cfg.timeout_ms
    }

    /// The withdrawal process of one route, resolved once: the cache
    /// lookup happens here, and every later query is lock-free.
    pub fn route_churn(&self, route_key: u64) -> RouteChurn {
        RouteChurn {
            events: self.churn_events(route_key),
        }
    }

    /// All withdrawal intervals of a route across the horizon, start-sorted
    /// and disjoint. Shared handle; materialized once per key.
    pub fn churn_events(&self, route_key: u64) -> Arc<[Outage]> {
        self.churn_cache
            .get_or_make(route_key, || self.materialize_churn(route_key).into())
    }

    fn materialize_churn(&self, route_key: u64) -> Vec<Outage> {
        let mut state = splitmix64(self.seed ^ splitmix64(route_key ^ CHURN_TAG));
        let mut next_u01 = move || {
            state = splitmix64(state.wrapping_add(0x9E37_79B9_7F4A_7C15));
            u01(state)
        };
        let mut events = Vec::new();
        if self.cfg.churn_events_per_day <= 0.0 {
            return events;
        }
        let mean_gap_min = 24.0 * 60.0 / self.cfg.churn_events_per_day;
        let exp = |u: f64, mean: f64| -mean * u.max(f64::EPSILON).ln();
        let mut t = exp(next_u01(), mean_gap_min);
        while t < self.cfg.horizon_min {
            let dur = exp(next_u01(), self.cfg.churn_duration_mean_min).max(1.0);
            events.push(Outage {
                start_min: t,
                end_min: t + dur,
            });
            t += dur + exp(next_u01(), mean_gap_min);
        }
        events
    }
}

/// One probe's loss draws (see [`FaultPlane::probe_loss`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct ProbeLoss {
    per_stream: u64,
    probe_loss: f64,
}

impl ProbeLoss {
    /// Whether attempt `attempt` is lost in flight.
    pub(crate) fn lost(&self, attempt: u32) -> bool {
        u01(splitmix64(self.per_stream ^ splitmix64(LOSS_TAG ^ attempt as u64))) < self.probe_loss
    }
}

/// One route's withdrawal intervals (see [`FaultPlane::route_churn`]).
#[derive(Debug, Clone)]
pub struct RouteChurn {
    events: Arc<[Outage]>,
}

impl RouteChurn {
    /// Whether the route is withdrawn at `t`.
    pub fn withdrawn_at(&self, t: SimTime) -> bool {
        let m = t.minutes();
        // First event with start_min > m; the only candidate is the one
        // before it (starts are strictly increasing).
        let i = self.events.partition_point(|e| e.start_min <= m);
        i.checked_sub(1)
            .and_then(|i| self.events.get(i))
            .is_some_and(|e| m < e.end_min)
    }
}

/// Fault bookkeeping of a campaign, accumulated per task and merged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultTally {
    /// Probe attempts that never reported (lost in flight or timed out).
    pub lost: usize,
    /// Of `lost`, attempts censored by the measurement timeout — split out
    /// so a timeout preset eating legitimate long-haul RTTs shows up in
    /// the telemetry rather than hiding inside generic loss.
    pub timeouts: usize,
    /// Retry attempts issued after a lost/timed-out probe.
    pub retries: usize,
    /// Aggregation windows flagged degraded (below min-sample threshold or
    /// route withdrawn).
    pub dropped: usize,
}

impl FaultTally {
    pub fn merge(&mut self, other: FaultTally) {
        self.lost += other.lost;
        self.timeouts += other.timeouts;
        self.retries += other.retries;
        self.dropped += other.dropped;
    }
}

/// Map a u64 to [0, 1) using the top 53 bits.
fn u01(x: u64) -> f64 {
    (x >> 11) as f64 / (1u64 << 53) as f64
}

/// Domain-separation tag keeping churn draws disjoint from loss draws.
const CHURN_TAG: u64 = 0x_c4ac_0de5;

/// Domain-separation tag for per-attempt loss draws.
const LOSS_TAG: u64 = 0x_10_55;

/// Worst-case *base* (uncongested) path RTT any built topology produces,
/// ms: an antipodal great-circle (~20,000 km) at fiber speed gives a
/// ~200 ms RTT, and hot-potato exit policies inflate the realized
/// waypoint walk well past the geodesic (§2.1's "circuitous routes") —
/// an empirical sweep of spray routes across scales and seeds tops out
/// at ~513 ms (Large scale), so 600 ms leaves margin for unlucky seeds.
/// Fault presets must keep `timeout_ms` above this so timeouts censor
/// congestion, never geography. `bb-audit`'s `rtt.censoring` rule checks
/// the realized paths against the active timeout at run time.
pub const MAX_BASE_RTT_MS: f64 = 600.0;

#[cfg(test)]
mod tests {
    use super::*;

    fn plane() -> FaultPlane {
        FaultPlane::new(42, FaultConfig::light())
    }

    #[test]
    fn levels_parse_and_roundtrip() {
        for (s, lvl) in [
            ("off", FaultLevel::Off),
            ("light", FaultLevel::Light),
            ("heavy", FaultLevel::Heavy),
        ] {
            assert_eq!(s.parse::<FaultLevel>().unwrap(), lvl);
            assert_eq!(lvl.as_str(), s);
        }
        assert!("chaos".parse::<FaultLevel>().is_err());
        assert!(FaultLevel::Off.config().is_none());
        assert!(FaultLevel::Heavy.config().unwrap().probe_loss > FaultLevel::Light.config().unwrap().probe_loss);
    }

    #[test]
    fn loss_is_deterministic_and_order_independent() {
        let a = plane();
        let b = plane();
        // Query b in reverse order: pure hashing means order cannot matter.
        let keys: Vec<u64> = (0..200).map(|i| FaultPlane::stream_key(&[i, 7])).collect();
        let from_a: Vec<bool> = keys.iter().map(|&k| a.lost(k, 0)).collect();
        let from_b: Vec<bool> = {
            let mut v: Vec<bool> = keys.iter().rev().map(|&k| b.lost(k, 0)).collect();
            v.reverse();
            v
        };
        assert_eq!(from_a, from_b);
    }

    #[test]
    fn loss_rate_tracks_config() {
        let p = FaultPlane::new(9, FaultConfig { probe_loss: 0.10, ..FaultConfig::light() });
        let n = 20_000;
        let lost = (0..n)
            .filter(|&i| p.lost(FaultPlane::stream_key(&[i]), 0))
            .count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.10).abs() < 0.01, "observed loss rate {rate}");
    }

    #[test]
    fn attempts_are_independent_streams() {
        let p = plane();
        // Some stream lost on attempt 0 must survive on a later attempt
        // (otherwise retry would be pointless).
        let recovered = (0..5000u64)
            .map(|i| FaultPlane::stream_key(&[i]))
            .filter(|&k| p.lost(k, 0))
            .any(|k| !p.lost(k, 1));
        assert!(recovered, "no stream ever recovers on retry");
    }

    #[test]
    fn high_key_bits_do_not_alias_attempts() {
        let p = plane();
        // Pre-fix, the attempt was packed as `stream ^ (attempt << 48)`,
        // so lost(s ^ 1<<48, 0) was *literally* lost(s, 1): streams
        // differing only in the top 16 key bits replayed another stream's
        // retry draws. The two families must now disagree somewhere.
        let aliased = (0..4096u64).all(|s| p.lost(s ^ (1 << 48), 0) == p.lost(s, 1));
        assert!(!aliased, "attempt draws still alias the top key bits");
    }

    #[test]
    fn presets_do_not_censor_base_rtts() {
        // Timeouts must only ever censor congestion, never geography: both
        // presets sit above the worst uncongested path RTT the topologies
        // can produce.
        for cfg in [FaultConfig::light(), FaultConfig::heavy()] {
            assert!(
                cfg.timeout_ms > MAX_BASE_RTT_MS,
                "timeout {} censors legitimate base RTTs (max {})",
                cfg.timeout_ms,
                MAX_BASE_RTT_MS
            );
        }
    }

    #[test]
    fn churn_events_sorted_disjoint_and_deterministic() {
        let a = plane();
        let b = plane();
        for rk in 0..50u64 {
            let ea = a.churn_events(rk);
            let eb = b.churn_events(rk);
            assert_eq!(&*ea, &*eb);
            for w in ea.windows(2) {
                assert!(w[0].end_min <= w[1].start_min, "overlap at key {rk}");
            }
            for e in ea.iter() {
                assert!(e.duration_min() >= 1.0);
                assert!(e.start_min < a.config().horizon_min);
            }
        }
    }

    #[test]
    fn churn_rate_roughly_matches_config() {
        let p = plane();
        let days = p.config().horizon_min / (24.0 * 60.0);
        let n_keys = 300u64;
        let total: usize = (0..n_keys).map(|k| p.churn_events(k).len()).sum();
        let rate = total as f64 / (n_keys as f64 * days);
        let expect = p.config().churn_events_per_day;
        assert!(
            (rate - expect).abs() < expect * 0.3,
            "rate {rate} vs configured {expect}"
        );
    }

    #[test]
    fn withdrawn_tracks_intervals() {
        let p = plane();
        let rk = (0..200)
            .find(|&k| !p.churn_events(k).is_empty())
            .expect("some route churns at light rates");
        let e = p.churn_events(rk)[0];
        let mid = SimTime::from_minutes((e.start_min + e.end_min) / 2.0);
        let before = SimTime::from_minutes((e.start_min - 1.0).max(0.0));
        let churn = p.route_churn(rk);
        assert!(churn.withdrawn_at(mid));
        assert!(!churn.withdrawn_at(before));
        // Intervals are half-open: withdrawn from the start, back at the end.
        assert!(churn.withdrawn_at(SimTime::from_minutes(e.start_min)));
        assert!(!churn.withdrawn_at(SimTime::from_minutes(e.end_min)));
    }

    #[test]
    fn cache_hands_out_shared_slices() {
        let p = plane();
        let a = p.churn_events(3);
        let b = p.churn_events(3);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn stream_key_decorrelates_parts() {
        assert_ne!(
            FaultPlane::stream_key(&[1, 2, 3]),
            FaultPlane::stream_key(&[3, 2, 1])
        );
        assert_ne!(FaultPlane::stream_key(&[0]), FaultPlane::stream_key(&[0, 0]));
    }

    #[test]
    fn stream_key_extend_continues_the_fold() {
        let parts = [7u64, 0, u64::MAX, 42, 1 << 63];
        for split in 0..=parts.len() {
            let (head, tail) = parts.split_at(split);
            assert_eq!(
                FaultPlane::stream_key_extend(FaultPlane::stream_key(head), tail),
                FaultPlane::stream_key(&parts),
                "split at {split}"
            );
        }
        assert_eq!(FaultPlane::stream_key_extend(9, &[]), 9);
    }
}
