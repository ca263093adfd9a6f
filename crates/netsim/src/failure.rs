//! Failure injection: deterministic outage schedules for sites and
//! interconnects.
//!
//! §4 of the paper puts availability first among the "other factors at
//! play": anycast's resilience to site outages, DNS caching's induced
//! downtime, route diversity's protection against link failures, and small
//! peers failing more often. This module provides the outage processes
//! those experiments run on: per-entity Poisson failures with exponential
//! repair times, materialized lazily and deterministically exactly like
//! the congestion processes.

use crate::keyed::{splitmix64, KeyedCache};
use crate::time::SimTime;
use bb_geo::CityId;
use bb_topology::InterconnectId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// What can fail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureKey {
    /// A whole site/PoP (power, fabric, maintenance gone wrong).
    Site(CityId),
    /// One interconnect (fiber cut, port flap, mis-provisioned LAG).
    Link(InterconnectId),
}

impl FailureKey {
    fn encode(&self) -> u64 {
        match *self {
            FailureKey::Site(c) => 0x_6000_0000_0000 | c.0 as u64,
            FailureKey::Link(l) => 0x_7000_0000_0000 | l.0 as u64,
        }
    }
}

/// Outage process parameters.
#[derive(Debug, Clone)]
pub struct FailureConfig {
    /// Horizon over which outages are materialized, minutes.
    pub horizon_min: f64,
    /// Mean time between failures for a site, days.
    pub site_mtbf_days: f64,
    /// Mean time between failures for a link, days.
    pub link_mtbf_days: f64,
    /// Mean repair time, minutes (exponential).
    pub repair_mean_min: f64,
    /// MTBF multiplier for links whose capacity is below
    /// `small_link_gbps` — §4: "small peers may be less reliable and cause
    /// more issues". <1.0 means they fail more often.
    pub small_link_mtbf_factor: f64,
    pub small_link_gbps: f64,
}

impl Default for FailureConfig {
    fn default() -> Self {
        Self {
            horizon_min: 365.0 * 24.0 * 60.0,
            site_mtbf_days: 60.0,
            link_mtbf_days: 90.0,
            repair_mean_min: 45.0,
            small_link_mtbf_factor: 0.35,
            small_link_gbps: 100.0,
        }
    }
}

/// One outage interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Outage {
    pub start_min: f64,
    pub end_min: f64,
}

impl Outage {
    pub fn duration_min(&self) -> f64 {
        self.end_min - self.start_min
    }

    pub fn contains(&self, t: SimTime) -> bool {
        t.minutes() >= self.start_min && t.minutes() < self.end_min
    }
}

/// The failure plane.
pub struct FailureModel {
    seed: u64,
    cfg: FailureConfig,
    cache: KeyedCache<[Outage]>,
}

impl FailureModel {
    pub fn new(seed: u64, cfg: FailureConfig) -> Self {
        Self {
            seed,
            cfg,
            cache: KeyedCache::new(),
        }
    }

    pub fn config(&self) -> &FailureConfig {
        &self.cfg
    }

    /// All outages of an entity across the horizon, as a shared slice —
    /// queries after the first hand out the cached `Arc` without copying.
    /// `capacity_gbps` applies the small-link reliability penalty for
    /// `FailureKey::Link`s.
    pub fn outages(&self, key: FailureKey, capacity_gbps: f64) -> Arc<[Outage]> {
        // The schedule depends on the capacity class as well as the key, so
        // both name the cache entry.
        let small = matches!(key, FailureKey::Link(_)) && capacity_gbps < self.cfg.small_link_gbps;
        let slot = key.encode() | u64::from(small) << 63;
        self.cache.get_or_make(slot, || self.materialize(key, small).into())
    }

    /// `small_link` marks a link below `small_link_gbps`.
    fn materialize(&self, key: FailureKey, small_link: bool) -> Vec<Outage> {
        let mut rng = StdRng::seed_from_u64(splitmix64(self.seed ^ key.encode()));
        let mtbf_days = match key {
            FailureKey::Site(_) => self.cfg.site_mtbf_days,
            FailureKey::Link(_) if small_link => {
                self.cfg.link_mtbf_days * self.cfg.small_link_mtbf_factor
            }
            FailureKey::Link(_) => self.cfg.link_mtbf_days,
        };
        let mean_gap_min = mtbf_days * 24.0 * 60.0;
        let mut outages = Vec::new();
        let mut t = exp(&mut rng, mean_gap_min);
        while t < self.cfg.horizon_min {
            let dur = exp(&mut rng, self.cfg.repair_mean_min).max(1.0);
            outages.push(Outage {
                start_min: t,
                end_min: t + dur,
            });
            t += dur + exp(&mut rng, mean_gap_min);
        }
        outages
    }
}

fn exp(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    -mean * u.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> FailureModel {
        FailureModel::new(5, FailureConfig::default())
    }

    #[test]
    fn deterministic() {
        let a = model();
        let b = model();
        let k = FailureKey::Site(CityId(3));
        assert_eq!(&*a.outages(k, 0.0), &*b.outages(k, 0.0));
    }

    #[test]
    fn cache_hands_out_shared_slices() {
        let m = model();
        let k = FailureKey::Site(CityId(9));
        let a = m.outages(k, 0.0);
        let b = m.outages(k, 0.0);
        assert!(Arc::ptr_eq(&a, &b), "repeat queries must not re-clone");
    }

    #[test]
    fn cache_keys_on_capacity_class() {
        let k = FailureKey::Link(InterconnectId(3));
        let m = model();
        let small = m.outages(k, 10.0);
        let large = m.outages(k, 1000.0);
        assert_eq!(&*large, &*model().outages(k, 1000.0));
        assert_eq!(&*small, &*model().outages(k, 10.0));
        assert!(small.len() > large.len(), "{} vs {}", small.len(), large.len());
    }

    #[test]
    fn outages_ordered_and_disjoint() {
        let m = model();
        for i in 0..30 {
            let v = m.outages(FailureKey::Link(InterconnectId(i)), 500.0);
            for w in v.windows(2) {
                assert!(w[0].end_min <= w[1].start_min);
            }
            for o in v.iter() {
                assert!(o.duration_min() >= 1.0);
                assert!(o.start_min < m.config().horizon_min);
            }
        }
    }

    #[test]
    fn outage_rate_matches_mtbf() {
        let m = model();
        let years = m.config().horizon_min / (365.0 * 24.0 * 60.0);
        let n_keys = 200;
        let total: usize = (0..n_keys)
            .map(|i| m.outages(FailureKey::Site(CityId(i)), 0.0).len())
            .sum();
        let per_year = total as f64 / (n_keys as f64 * years);
        let expect = 365.0 / m.config().site_mtbf_days;
        assert!(
            (per_year - expect).abs() < expect * 0.25,
            "{per_year} vs {expect}"
        );
    }

    #[test]
    fn small_links_fail_more() {
        let m = model();
        let n = 300;
        let small: usize = (0..n)
            .map(|i| m.outages(FailureKey::Link(InterconnectId(i)), 10.0).len())
            .sum();
        // Different key range so the processes are independent draws.
        let big: usize = (n..2 * n)
            .map(|i| m.outages(FailureKey::Link(InterconnectId(i)), 1000.0).len())
            .sum();
        assert!(
            small as f64 > big as f64 * 1.5,
            "small links must fail materially more often: {small} vs {big}"
        );
    }

    #[test]
    fn outages_track_intervals() {
        let m = model();
        let k = FailureKey::Site(CityId(1));
        let v = m.outages(k, 0.0);
        let down = |t| v.iter().any(|o| o.contains(t));
        if let Some(o) = v.first() {
            let mid = SimTime::from_minutes((o.start_min + o.end_min) / 2.0);
            assert!(down(mid));
            let before = SimTime::from_minutes((o.start_min - 1.0).max(0.0));
            assert!(!down(before));
        }
    }
}
