//! §4 — availability, "the primary concern of content and cloud
//! providers".
//!
//! Three of the paper's availability claims, made quantitative:
//!
//! 1. "Anycast provides resilience against site outages": when a site
//!    fails, BGP withdraws its announcements and clients re-converge onto
//!    the next site within routing-convergence time.
//! 2. "… and avoids availability problems that can be induced by DNS
//!    caching": a client pinned by DNS to a failed unicast front-end stays
//!    black-holed until health-checking notices and the cached answer's
//!    TTL expires.
//! 3. Route diversity at the egress (§3.1.3/§4): traffic whose serving
//!    PoP holds ≥2 routes rides out single-link failures at BGP failover
//!    speed; single-routed traffic waits for repair. Small peering links
//!    fail more often, concentrating this risk.

use crate::world::Scenario;
use bb_cdn::AnycastDeployment;
use bb_measure::spray::build_targets;
use bb_netsim::{FailureConfig, FailureKey, FailureModel};

/// Recovery-time parameters.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// BGP withdrawal + reconvergence after a site/link failure, seconds.
    pub bgp_convergence_s: f64,
    /// Health-check detection delay for DNS-based redirection, seconds.
    pub dns_detection_s: f64,
    /// DNS answer TTL, seconds (cached answers keep sending clients to the
    /// dead front-end until expiry).
    pub dns_ttl_s: f64,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        Self {
            bgp_convergence_s: 45.0,
            dns_detection_s: 120.0,
            dns_ttl_s: 300.0,
        }
    }
}

/// Study output: expected downtime per client per year, traffic-weighted.
#[derive(Debug, Clone)]
pub struct AvailabilityResult {
    /// Site outages simulated across the horizon.
    pub site_outages: usize,
    /// Expected client downtime under anycast, minutes/client/year.
    pub anycast_downtime_min_y: f64,
    /// Same under DNS-pinned unicast serving.
    pub dns_downtime_min_y: f64,
    /// Fraction of traffic whose serving PoP has ≥2 routes (protected from
    /// single-link failures at failover speed).
    pub diversity_protected: f64,
    /// Counterfactual: downtime if egress-link outages had to be waited
    /// out (no alternate route), minutes/client/year.
    pub without_diversity_downtime_min_y: f64,
    /// Actual downtime with route diversity (failover time per event for
    /// diverse traffic, full outages for the single-routed rest),
    /// minutes/client/year.
    pub with_diversity_downtime_min_y: f64,
}

impl AvailabilityResult {
    pub fn render(&self) -> String {
        format!(
            "X-AVAIL (§4): availability under failures ({} site outages/yr simulated)\n  \
             site outages  — anycast: {:.2} min/client/yr   DNS-pinned unicast: {:.2} min/client/yr ({:.0}x worse)\n  \
             egress links  — with diversity ({:.0}% diverse): {:.2} min/client/yr   without: {:.2} min/client/yr\n",
            self.site_outages,
            self.anycast_downtime_min_y,
            self.dns_downtime_min_y,
            self.dns_downtime_min_y / self.anycast_downtime_min_y.max(1e-9),
            self.diversity_protected * 100.0,
            self.with_diversity_downtime_min_y,
            self.without_diversity_downtime_min_y
        )
    }
}

/// Run the availability study on a scenario.
pub fn run(scenario: &Scenario, seed: u64, recovery: &RecoveryConfig) -> AvailabilityResult {
    let topo = &scenario.topo;
    let provider = &scenario.provider;
    let failures = FailureModel::new(seed, FailureConfig::default());
    let horizon_years =
        failures.config().horizon_min / (365.0 * 24.0 * 60.0);

    // --- Site outages: who is affected, for how long, per scheme. ---
    // Catchment weight per site under the full anycast deployment.
    let dep = AnycastDeployment::deploy(topo, provider, &provider.pops.clone());
    let mut site_weight: std::collections::BTreeMap<bb_geo::CityId, f64> = Default::default();
    let mut total_weight = 0.0;
    for p in &scenario.workload.prefixes {
        if let Some(svc) = dep.serve(topo, provider, p.asn, p.city) {
            *site_weight.entry(svc.front_end).or_insert(0.0) += p.weight;
            total_weight += p.weight;
        }
    }

    let mut site_outages = 0;
    let mut anycast_down_weighted_min = 0.0;
    let mut dns_down_weighted_min = 0.0;
    for (&site, &w) in &site_weight {
        let frac = w / total_weight.max(1e-12);
        for outage in failures.outages(FailureKey::Site(site), 0.0).iter() {
            site_outages += 1;
            // Anycast: affected clients lose service for the convergence
            // time (or the whole outage if it is shorter).
            let any_down = (recovery.bgp_convergence_s / 60.0).min(outage.duration_min());
            anycast_down_weighted_min += frac * any_down;
            // DNS-pinned unicast: detection + TTL drain, capped by the
            // outage itself (if the site comes back first, the stale
            // answer becomes valid again).
            let dns_down = ((recovery.dns_detection_s + recovery.dns_ttl_s) / 60.0)
                .min(outage.duration_min());
            dns_down_weighted_min += frac * dns_down;
        }
    }

    // --- Egress-link failures vs route diversity (Study A serving model). ---
    let targets = build_targets(topo, provider, &scenario.workload, 3);
    let mut protected_w = 0.0;
    let mut target_total = 0.0;
    let mut actual_down_min = 0.0;
    let mut counterfactual_down_min = 0.0;
    for t in &targets {
        let w = scenario.workload.prefix(t.prefix).weight;
        target_total += w;
        let preferred = &t.routes[0];
        let link = topo.link(preferred.egress_link);
        let outages = failures.outages(FailureKey::Link(preferred.egress_link), link.capacity_gbps);
        let outage_min: f64 = outages.iter().map(|o| o.duration_min()).sum();
        // Counterfactual: every outage must be waited out.
        counterfactual_down_min += w * outage_min;
        if t.routes.len() >= 2 {
            protected_w += w;
            // Failover at BGP speed per outage event (capped by the outage
            // itself for very short blips).
            let failover: f64 = outages
                .iter()
                .map(|o| (recovery.bgp_convergence_s / 60.0).min(o.duration_min()))
                .sum();
            actual_down_min += w * failover;
        } else {
            actual_down_min += w * outage_min;
        }
    }

    AvailabilityResult {
        site_outages: (site_outages as f64 / horizon_years).round() as usize,
        anycast_downtime_min_y: anycast_down_weighted_min / horizon_years,
        dns_downtime_min_y: dns_down_weighted_min / horizon_years,
        diversity_protected: protected_w / target_total.max(1e-12),
        without_diversity_downtime_min_y: counterfactual_down_min
            / (target_total.max(1e-12) * horizon_years),
        with_diversity_downtime_min_y: actual_down_min
            / (target_total.max(1e-12) * horizon_years),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Scale, ScenarioConfig};

    fn result() -> AvailabilityResult {
        let s = Scenario::build(ScenarioConfig::microsoft(23, Scale::Test));
        run(&s, 7, &RecoveryConfig::default())
    }

    #[test]
    fn anycast_recovers_faster_than_dns() {
        let r = result();
        assert!(
            r.dns_downtime_min_y > r.anycast_downtime_min_y,
            "DNS caching must cost availability: {} vs {}",
            r.dns_downtime_min_y,
            r.anycast_downtime_min_y
        );
        // The ratio should be roughly (detection+TTL)/convergence, capped
        // by short outages: somewhere between 2x and 10x.
        let ratio = r.dns_downtime_min_y / r.anycast_downtime_min_y;
        assert!((2.0..=10.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn route_diversity_protects() {
        let r = result();
        assert!(r.diversity_protected > 0.5, "{}", r.diversity_protected);
        assert!(
            r.without_diversity_downtime_min_y > r.with_diversity_downtime_min_y * 2.0,
            "diversity must cut downtime substantially: {} vs {}",
            r.without_diversity_downtime_min_y,
            r.with_diversity_downtime_min_y
        );
    }

    #[test]
    fn outage_counts_are_plausible() {
        let r = result();
        // A few dozen sites at 60-day MTBF → hundreds of outages per year.
        assert!(r.site_outages > 20, "{}", r.site_outages);
        assert!(r.site_outages < 5000);
    }

    #[test]
    fn render_contains_headline() {
        let r = result();
        let s = r.render();
        assert!(s.contains("X-AVAIL"));
        assert!(s.contains("min/client/yr"));
    }

    #[test]
    fn deterministic() {
        let s = Scenario::build(ScenarioConfig::microsoft(23, Scale::Test));
        let a = run(&s, 7, &RecoveryConfig::default());
        let b = run(&s, 7, &RecoveryConfig::default());
        assert_eq!(a.anycast_downtime_min_y, b.anycast_downtime_min_y);
        assert_eq!(a.dns_downtime_min_y, b.dns_downtime_min_y);
    }
}
