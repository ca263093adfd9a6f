//! §3.1.3 — "What is the impact of a reduced peering footprint?"
//!
//! "If less preferred paths often perform as well as more preferred ones, a
//! content provider may be able to drastically reduce its number of peers
//! without impacting latency. … A study in emulation would need to properly
//! account for the reduced peering capacity and accompanying increased
//! likelihood of congestion as the number of route options is reduced."
//!
//! The sweep raises the PNI eligibility threshold step by step (fewer and
//! fewer eyeballs keep their private interconnects) and, per step, reports
//! latency impact *and* the capacity concentration the paper warns about:
//! the traffic that used to ride many PNIs now converges on fewer egress
//! links.

use crate::world::{Scenario, ScenarioConfig};
use bb_measure::spray::build_targets;
use bb_netsim::path_base_rtt_ms;
use bb_stats::weighted_quantile;
use std::collections::HashMap;

/// Assumed provider-wide egress volume for capacity accounting, Gbps.
pub const TOTAL_EGRESS_GBPS: f64 = 2000.0;

/// One step of the sweep.
#[derive(Debug, Clone)]
pub struct PeeringStep {
    /// PNI threshold applied (eyeball national share required for a PNI).
    pub pni_min_share: f64,
    /// Number of private interconnects that exist at this step.
    pub pni_links: usize,
    /// Weighted median of preferred-route base RTT across prefixes, ms.
    pub median_rtt_ms: f64,
    /// Weighted 90th percentile.
    pub p90_rtt_ms: f64,
    /// Fraction of traffic whose preferred route egresses a PNI.
    pub traffic_on_pni: f64,
    /// Fraction whose preferred route egresses public peering.
    pub traffic_on_public: f64,
    /// Fraction whose preferred route egresses paid transit.
    pub traffic_on_transit: f64,
    /// Egress links whose implied demand exceeds capacity (overload risk).
    pub overloaded_links: usize,
    /// Peak utilization implied by the demand model.
    pub peak_link_utilization: f64,
}

impl PeeringStep {
    pub fn render_row(&self) -> String {
        format!(
            "  pni>={:<4.2} links={:<4} medRTT={:>6.1}ms p90={:>6.1}ms pni/public/transit={:>4.1}/{:>4.1}/{:>4.1}% overloaded={:<3} peak={:.2}",
            self.pni_min_share,
            self.pni_links,
            self.median_rtt_ms,
            self.p90_rtt_ms,
            self.traffic_on_pni * 100.0,
            self.traffic_on_public * 100.0,
            self.traffic_on_transit * 100.0,
            self.overloaded_links,
            self.peak_link_utilization
        )
    }
}

/// Run the sweep. `thresholds` are applied as `pni_min_share` (1.1 ⇒ no
/// PNIs at all). Each step builds an independent world, so the steps run
/// concurrently on the shared worker pool; results come back in threshold
/// order regardless of worker count.
pub fn run(base: &ScenarioConfig, thresholds: &[f64]) -> Vec<PeeringStep> {
    bb_exec::par_map(thresholds, |_, &th| {
        let mut cfg = base.clone();
        cfg.provider.pni_min_share = th;
        let scenario = Scenario::build(cfg);
        evaluate(&scenario, th)
    })
}

fn evaluate(scenario: &Scenario, threshold: f64) -> PeeringStep {
    let topo = &scenario.topo;
    let provider = &scenario.provider;
    let targets = build_targets(topo, provider, &scenario.workload, 3);

    let mut rtt_points = Vec::new();
    let mut pni_weight = 0.0;
    let mut public_weight = 0.0;
    let mut transit_weight = 0.0;
    let mut total_weight = 0.0;
    let mut link_demand: HashMap<bb_topology::InterconnectId, f64> = HashMap::new();

    for t in &targets {
        let p = scenario.workload.prefix(t.prefix);
        let preferred = &t.routes[0];
        let rtt = path_base_rtt_ms(topo, &preferred.path);
        rtt_points.push((rtt, p.weight));
        total_weight += p.weight;
        match preferred.class {
            bb_bgp::ProviderRouteClass::PrivatePeer => pni_weight += p.weight,
            bb_bgp::ProviderRouteClass::PublicPeer => public_weight += p.weight,
            bb_bgp::ProviderRouteClass::Transit => transit_weight += p.weight,
        }
        *link_demand.entry(preferred.egress_link).or_insert(0.0) +=
            p.weight * TOTAL_EGRESS_GBPS;
    }

    let mut overloaded = 0;
    let mut peak_util: f64 = 0.0;
    for (&link, &demand) in &link_demand {
        let cap = topo.link(link).capacity_gbps;
        let util = demand / cap;
        peak_util = peak_util.max(util);
        if util > 1.0 {
            overloaded += 1;
        }
    }

    let pni_links = topo
        .links()
        .iter()
        .filter(|l| {
            (l.a == provider.asn || l.b == provider.asn)
                && l.kind == bb_topology::LinkKind::PrivatePeering
        })
        .count();

    PeeringStep {
        pni_min_share: threshold,
        pni_links,
        median_rtt_ms: weighted_quantile(&rtt_points, 0.5).unwrap_or(f64::NAN),
        p90_rtt_ms: weighted_quantile(&rtt_points, 0.9).unwrap_or(f64::NAN),
        traffic_on_pni: pni_weight / total_weight.max(1e-12),
        traffic_on_public: public_weight / total_weight.max(1e-12),
        traffic_on_transit: transit_weight / total_weight.max(1e-12),
        overloaded_links: overloaded,
        peak_link_utilization: peak_util,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::Scale;

    #[test]
    fn fewer_pnis_more_transit_similar_latency() {
        let base = ScenarioConfig::facebook(11, Scale::Test);
        let steps = run(&base, &[0.1, 0.5, 1.1]);
        assert_eq!(steps.len(), 3);
        // PNI count decreases with the threshold.
        assert!(steps[0].pni_links > steps[2].pni_links);
        assert_eq!(steps[2].pni_links, 0, "threshold 1.1 removes all PNIs");
        // Traffic shifts off PNIs onto the remaining classes.
        assert!(steps[0].traffic_on_pni > 0.2, "PNIs must matter at baseline");
        assert_eq!(steps[2].traffic_on_pni, 0.0);
        assert!(
            steps[2].traffic_on_public + steps[2].traffic_on_transit
                > steps[0].traffic_on_public + steps[0].traffic_on_transit
        );
        // The paper's §3.1.2 conjecture: latency changes little.
        let delta = steps[2].median_rtt_ms - steps[0].median_rtt_ms;
        assert!(
            delta.abs() < 15.0,
            "median RTT moved {delta}ms when removing all PNIs"
        );
    }

    #[test]
    fn capacity_concentration_grows() {
        let base = ScenarioConfig::facebook(11, Scale::Test);
        let steps = run(&base, &[0.1, 1.1]);
        assert!(
            steps[1].peak_link_utilization >= steps[0].peak_link_utilization * 0.8,
            "peak util {:.2} -> {:.2}",
            steps[0].peak_link_utilization,
            steps[1].peak_link_utilization
        );
    }

    #[test]
    fn render_row_formats() {
        let base = ScenarioConfig::facebook(11, Scale::Test);
        let steps = run(&base, &[0.1]);
        assert!(steps[0].render_row().contains("medRTT"));
    }
}
