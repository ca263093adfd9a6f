//! Deterministic congestion processes.
//!
//! Every congestible entity — an interconnect, a destination metro's shared
//! infrastructure, a client prefix's last mile — gets a utilization process
//!
//! ```text
//! util(t) = base + diurnal_amplitude · D(local_hour(t)) + Σ active events
//! ```
//!
//! where `D` peaks in the local evening and events arrive as a Poisson
//! process with exponential durations. Everything about a key's process is
//! derived from `(model seed, key)`, so two queries at the same time always
//! agree, no matter the order of evaluation.
//!
//! The key structure encodes the paper's §3.1.1 observation mechanically:
//! *metro and last-mile keys sit on every route to a client*, so when they
//! degrade, all route options degrade together and performance-aware routing
//! has nothing to exploit. Only link-keyed events (e.g. a congested PNI,
//! §2.1/§2.2) are route-specific and steerable-around.

use crate::keyed::{splitmix64, KeyedCache};
use crate::time::SimTime;
use bb_geo::CityId;
use bb_topology::InterconnectId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// What a congestion process is attached to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CongestionKey {
    /// One interconnect between two ASes.
    Link(InterconnectId),
    /// Shared infrastructure of a destination metro (affects every route
    /// that terminates in this city).
    Metro(CityId),
    /// A client prefix's access network (affects every route to the prefix).
    LastMile(u64),
}

impl CongestionKey {
    /// Stable 64-bit encoding used for seeding.
    fn encode(&self) -> u64 {
        match *self {
            CongestionKey::Link(l) => 0x1000_0000_0000 | l.0 as u64,
            CongestionKey::Metro(c) => 0x2000_0000_0000 | c.0 as u64,
            CongestionKey::LastMile(p) => 0x3000_0000_0000 ^ p,
        }
    }
}

/// Tuning knobs for the congestion plane.
#[derive(Debug, Clone)]
pub struct CongestionConfig {
    /// Simulated horizon; events are materialized across it.
    pub horizon_min: f64,
    /// Base utilization is drawn uniformly from this range per key.
    pub base_util: (f64, f64),
    /// Diurnal amplitude range per key.
    pub diurnal_amp: (f64, f64),
    /// Transient event rate per day for link keys.
    pub link_events_per_day: f64,
    /// Transient event rate per day for metro keys.
    pub metro_events_per_day: f64,
    /// Transient event rate per day for last-mile keys.
    pub lastmile_events_per_day: f64,
    /// Mean event duration, minutes (exponential).
    pub event_duration_mean_min: f64,
    /// Event severity (added utilization) range.
    pub event_severity: (f64, f64),
    /// Queueing-delay scale: delay = d0 · ρ² / (1 − ρ).
    pub queue_d0_ms: f64,
    /// Utilization cap (keeps the queueing curve finite).
    pub max_util: f64,
}

impl Default for CongestionConfig {
    fn default() -> Self {
        Self {
            horizon_min: 10.0 * 24.0 * 60.0,
            base_util: (0.15, 0.55),
            diurnal_amp: (0.05, 0.25),
            link_events_per_day: 0.25,
            metro_events_per_day: 0.10,
            lastmile_events_per_day: 0.35,
            event_duration_mean_min: 45.0,
            event_severity: (0.25, 0.55),
            queue_d0_ms: 1.0,
            max_util: 0.97,
        }
    }
}

impl CongestionConfig {
    /// The early literature's independent-paths world, the X-ABLATE
    /// counterpart of the default: no shared metro or last-mile events,
    /// only frequent, long, severe episodes on individual links.
    pub fn independent() -> Self {
        Self {
            link_events_per_day: 2.0,
            metro_events_per_day: 0.0,
            lastmile_events_per_day: 0.0,
            event_duration_mean_min: 90.0,
            event_severity: (0.35, 0.7),
            ..Self::default()
        }
    }
}

/// One transient congestion event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CongestionEvent {
    pub start_min: f64,
    pub end_min: f64,
    pub severity: f64,
}

/// Diurnal demand factor at a local hour-of-day: peaks at 20:00 local,
/// troughs at 08:00, in [0, 1].
///
/// Factored out of [`KeyProcess::utilization`] so the SoA batch tables
/// ([`crate::plan::DiurnalTable`]) evaluate the exact same expression —
/// bit-identity between the batched and scalar paths hinges on both sides
/// running this one function.
#[inline]
pub fn diurnal_factor(local_h: f64) -> f64 {
    0.5 * (1.0 + ((local_h - 14.0) / 24.0 * std::f64::consts::TAU).sin())
}

/// The materialized utilization process of one key: base + diurnal
/// amplitude plus a start-sorted, non-overlapping event list (generation
/// spaces events by `duration + gap` with `gap > 0`, so at most one event
/// is active at any instant and a binary search finds it).
///
/// Handles to a `KeyProcess` ([`Arc`]) are what plan compilation hands out:
/// querying through a handle touches no lock and hashes no key.
#[derive(Debug, Clone)]
pub struct KeyProcess {
    base: f64,
    amp: f64,
    events: Vec<CongestionEvent>,
}

impl KeyProcess {
    /// Utilization at `t` with the diurnal term phased to
    /// `utc_offset_hours`, capped at `max_util`.
    ///
    /// Bit-identical to the historical linear-scan evaluation: the sum is
    /// `base + amp·D + severity` in that order, and non-overlap means the
    /// single active event contributes exactly the same term the scan's
    /// `+=` loop did.
    #[inline]
    pub fn utilization(&self, utc_offset_hours: f64, t: SimTime, max_util: f64) -> f64 {
        let diurnal = diurnal_factor(t.local_hour(utc_offset_hours));
        let mut util = self.base + self.amp * diurnal;
        if let Some(sev) = self.active_severity(t) {
            util += sev;
        }
        util.min(max_util)
    }

    /// Base utilization of this process (SoA batch compilation).
    pub fn base(&self) -> f64 {
        self.base
    }

    /// Diurnal amplitude of this process (SoA batch compilation).
    pub fn amp(&self) -> f64 {
        self.amp
    }

    /// Severity of the event active at `t`, if any.
    #[inline]
    pub fn active_severity(&self, t: SimTime) -> Option<f64> {
        let m = t.minutes();
        // First event with start_min > m; the only candidate is the one
        // before it (starts are strictly increasing).
        let i = self.events.partition_point(|e| e.start_min <= m);
        let e = self.events.get(i.checked_sub(1)?)?;
        (m < e.end_min).then_some(e.severity)
    }

    /// The event list, start-sorted and non-overlapping.
    pub fn events(&self) -> &[CongestionEvent] {
        &self.events
    }
}

/// Times the read→write upgrade in [`CongestionModel::process`] found the
/// key already inserted by a racing worker — i.e. double materializations
/// that the write-lock double-check prevented. Reported under `--timing`.
static MATERIALIZE_RACES_CLOSED: AtomicUsize = AtomicUsize::new(0);

/// Process-wide count of closed materialization races (see
/// [`MATERIALIZE_RACES_CLOSED`]).
pub fn materialize_races_closed() -> usize {
    MATERIALIZE_RACES_CLOSED.load(Ordering::Relaxed)
}

/// The congestion plane. Cheap to share by reference; processes are cached
/// behind a lock as shared handles.
pub struct CongestionModel {
    seed: u64,
    cfg: CongestionConfig,
    cache: KeyedCache<KeyProcess>,
}

impl CongestionModel {
    pub fn new(seed: u64, cfg: CongestionConfig) -> Self {
        Self {
            seed,
            cfg,
            cache: KeyedCache::counting_races(&MATERIALIZE_RACES_CLOSED),
        }
    }

    pub fn config(&self) -> &CongestionConfig {
        &self.cfg
    }

    /// Utilization of `key` at time `t`, with the diurnal term phased to
    /// `utc_offset_hours` local time.
    pub fn utilization(&self, key: CongestionKey, utc_offset_hours: f64, t: SimTime) -> f64 {
        self.process(key)
            .utilization(utc_offset_hours, t, self.cfg.max_util)
    }

    /// Queueing delay implied by utilization at `t` (one direction, ms).
    pub fn queueing_delay_ms(&self, key: CongestionKey, utc_offset_hours: f64, t: SimTime) -> f64 {
        let rho = self.utilization(key, utc_offset_hours, t);
        self.delay_for_util(rho)
    }

    /// The convex utilization→delay curve.
    pub fn delay_for_util(&self, rho: f64) -> f64 {
        let rho = rho.clamp(0.0, self.cfg.max_util);
        self.cfg.queue_d0_ms * rho * rho / (1.0 - rho)
    }

    /// All events of a key (for analysis / tests).
    pub fn events(&self, key: CongestionKey) -> Vec<CongestionEvent> {
        self.process(key).events.clone()
    }

    /// Shared handle to `key`'s materialized process. This is the lookup
    /// plan compilation performs once per key; queries then go through the
    /// handle with no lock and no hash.
    pub fn process(&self, key: CongestionKey) -> Arc<KeyProcess> {
        self.cache
            .get_or_make(key.encode(), || Arc::new(self.materialize(key)))
    }

    fn materialize(&self, key: CongestionKey) -> KeyProcess {
        let code = key.encode();
        let mut rng = StdRng::seed_from_u64(splitmix64(self.seed ^ code));
        let base = rng.gen_range(self.cfg.base_util.0..self.cfg.base_util.1);
        let amp = rng.gen_range(self.cfg.diurnal_amp.0..self.cfg.diurnal_amp.1);
        let rate_per_day = match key {
            CongestionKey::Link(_) => self.cfg.link_events_per_day,
            CongestionKey::Metro(_) => self.cfg.metro_events_per_day,
            CongestionKey::LastMile(_) => self.cfg.lastmile_events_per_day,
        };
        let mut events = Vec::new();
        if rate_per_day > 0.0 {
            let mean_gap_min = 24.0 * 60.0 / rate_per_day;
            let mut t = exp_sample(&mut rng, mean_gap_min);
            while t < self.cfg.horizon_min {
                let dur = exp_sample(&mut rng, self.cfg.event_duration_mean_min).max(1.0);
                let sev = rng.gen_range(self.cfg.event_severity.0..self.cfg.event_severity.1);
                events.push(CongestionEvent {
                    start_min: t,
                    end_min: t + dur,
                    severity: sev,
                });
                t += dur + exp_sample(&mut rng, mean_gap_min);
            }
        }
        debug_assert!(
            events.windows(2).all(|w| w[0].end_min < w[1].start_min),
            "events must be start-sorted and non-overlapping for binary search"
        );
        KeyProcess { base, amp, events }
    }
}

fn exp_sample(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> CongestionModel {
        CongestionModel::new(42, CongestionConfig::default())
    }

    #[test]
    fn deterministic_across_instances_and_query_order() {
        let a = model();
        let b = model();
        let k1 = CongestionKey::Link(InterconnectId(7));
        let k2 = CongestionKey::Metro(CityId(3));
        let t = SimTime::from_hours(30.0);
        // Query in different orders.
        let a2 = a.utilization(k2, 1.0, t);
        let a1 = a.utilization(k1, 1.0, t);
        let b1 = b.utilization(k1, 1.0, t);
        let b2 = b.utilization(k2, 1.0, t);
        assert_eq!(a1, b1);
        assert_eq!(a2, b2);
    }

    #[test]
    fn different_keys_differ() {
        let m = model();
        let t = SimTime::from_hours(5.0);
        let u1 = m.utilization(CongestionKey::Link(InterconnectId(1)), 0.0, t);
        let u2 = m.utilization(CongestionKey::Link(InterconnectId(2)), 0.0, t);
        assert_ne!(u1, u2);
    }

    #[test]
    fn utilization_bounded() {
        let m = model();
        for i in 0..50 {
            for h in 0..48 {
                let u = m.utilization(
                    CongestionKey::LastMile(i),
                    5.5,
                    SimTime::from_hours(h as f64),
                );
                assert!((0.0..=0.97).contains(&u), "got {u}");
            }
        }
    }

    #[test]
    fn diurnal_peaks_in_local_evening() {
        // With events disabled, 20:00 local must beat 08:00 local.
        let cfg = CongestionConfig {
            link_events_per_day: 0.0,
            metro_events_per_day: 0.0,
            lastmile_events_per_day: 0.0,
            ..Default::default()
        };
        let m = CongestionModel::new(7, cfg);
        let k = CongestionKey::Metro(CityId(0));
        let evening = m.utilization(k, 0.0, SimTime::from_hours(20.0));
        let morning = m.utilization(k, 0.0, SimTime::from_hours(8.0));
        assert!(evening > morning, "evening {evening} vs morning {morning}");
    }

    #[test]
    fn events_raise_utilization() {
        let m = model();
        // Find a key with at least one event.
        let key = (0..200)
            .map(CongestionKey::LastMile)
            .find(|&k| !m.events(k).is_empty())
            .expect("some key must have events at default rates");
        let e = m.events(key)[0];
        let during = SimTime::from_minutes((e.start_min + e.end_min) / 2.0);
        let before = SimTime::from_minutes((e.start_min - 1.0).max(0.0));
        assert!(m.process(key).active_severity(during).is_some());
        // Compare at the same local hour modulo small diurnal drift: severity
        // (≥0.25) dwarfs any diurnal delta over one minute.
        assert!(
            m.utilization(key, 0.0, during) > m.utilization(key, 0.0, before),
            "event must raise utilization"
        );
    }

    #[test]
    fn queueing_curve_is_monotone_and_convex() {
        let m = model();
        let mut prev = -1.0;
        let mut prev_slope = 0.0;
        for i in 0..=90 {
            let rho = i as f64 / 100.0;
            let d = m.delay_for_util(rho);
            assert!(d >= prev);
            if i > 0 {
                let slope = d - prev;
                assert!(slope >= prev_slope - 1e-9, "convexity at rho={rho}");
                prev_slope = slope;
            }
            prev = d;
        }
    }

    #[test]
    fn delay_magnitudes_are_sane() {
        let m = model();
        assert!(m.delay_for_util(0.3) < 0.2);
        assert!(m.delay_for_util(0.5) < 1.0);
        assert!(m.delay_for_util(0.95) > 10.0);
    }

    #[test]
    fn events_respect_horizon() {
        let m = model();
        for i in 0..50 {
            for e in m.events(CongestionKey::LastMile(i)) {
                assert!(e.start_min < m.config().horizon_min);
                assert!(e.end_min > e.start_min);
            }
        }
    }

    #[test]
    fn event_rate_roughly_matches_config() {
        let m = model();
        let days = m.config().horizon_min / (24.0 * 60.0);
        let n_keys = 300;
        let total: usize = (0..n_keys)
            .map(|i| m.events(CongestionKey::LastMile(i)).len())
            .sum();
        let rate = total as f64 / (n_keys as f64 * days);
        let expect = m.config().lastmile_events_per_day;
        assert!(
            (rate - expect).abs() < expect * 0.3,
            "rate {rate} vs configured {expect}"
        );
    }
}
