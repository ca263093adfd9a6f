//! §3.2.2 — "How quickly does benefit diminish when adding PoPs?"
//!
//! The anycast-site-count sweep (in the spirit of the paper's citation of
//! "Anycast latency: How many sites are enough?"): deploy anycast from the
//! top-k sites for growing k and measure client latency. Also reports the
//! misdirection rate — "As PoPs are added, the chance of anycast picking a
//! suboptimal one increases, but the number of reasonably performing ones
//! increases."

use crate::world::Scenario;
use bb_cdn::AnycastDeployment;
use bb_geo::CityId;
use bb_netsim::path_base_rtt_ms;
use bb_stats::weighted_quantile;

/// One point of the sweep.
#[derive(Debug, Clone)]
pub struct SiteCountPoint {
    pub sites: usize,
    /// Weighted median client RTT, ms.
    pub median_rtt_ms: f64,
    /// Weighted 90th percentile client RTT.
    pub p90_rtt_ms: f64,
    /// Traffic fraction not served by its nearest deployed site.
    pub misdirected: f64,
}

impl SiteCountPoint {
    pub fn render_row(&self) -> String {
        format!(
            "  sites={:<3} medRTT={:>6.1}ms p90={:>6.1}ms misdirected={:>4.1}%",
            self.sites,
            self.median_rtt_ms,
            self.p90_rtt_ms,
            self.misdirected * 100.0
        )
    }
}

/// Pick the top-k sites by covered users (greedy by country size).
pub fn top_sites(scenario: &Scenario, k: usize) -> Vec<CityId> {
    let mut pops: Vec<(CityId, f64)> = scenario
        .provider
        .pops
        .iter()
        .map(|&c| (c, scenario.topo.atlas.city_users_m(c)))
        .collect();
    pops.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    pops.into_iter().take(k).map(|(c, _)| c).collect()
}

/// Run the sweep over the given site counts (counts beyond the PoP total
/// are clamped).
pub fn run(scenario: &Scenario, counts: &[usize]) -> Vec<SiteCountPoint> {
    counts
        .iter()
        .map(|&k| {
            let k = k.min(scenario.provider.pops.len()).max(1);
            let sites = top_sites(scenario, k);
            evaluate(scenario, &sites)
        })
        .collect()
}

fn evaluate(scenario: &Scenario, sites: &[CityId]) -> SiteCountPoint {
    let topo = &scenario.topo;
    let provider = &scenario.provider;
    let dep = AnycastDeployment::deploy(topo, provider, sites);

    let mut rtt_points = Vec::new();
    let mut misdirected = 0.0;
    let mut total = 0.0;
    for p in &scenario.workload.prefixes {
        let Some(svc) = dep.serve(topo, provider, p.asn, p.city) else {
            continue;
        };
        let rtt = path_base_rtt_ms(topo, &svc.path) + 2.0 * svc.wan_extra_ms;
        rtt_points.push((rtt, p.weight));
        total += p.weight;

        let client = topo.atlas.city(p.city).location;
        let nearest = sites
            .iter()
            .min_by(|&&a, &&b| {
                topo.atlas
                    .city(a)
                    .location
                    .distance_km(&client)
                    .total_cmp(&topo.atlas.city(b).location.distance_km(&client))
            })
            .copied()
            .unwrap();
        if svc.front_end != nearest {
            misdirected += p.weight;
        }
    }

    SiteCountPoint {
        sites: sites.len(),
        median_rtt_ms: weighted_quantile(&rtt_points, 0.5).unwrap_or(f64::NAN),
        p90_rtt_ms: weighted_quantile(&rtt_points, 0.9).unwrap_or(f64::NAN),
        misdirected: misdirected / total.max(1e-12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Scale, ScenarioConfig};

    #[test]
    fn more_sites_lower_latency_with_diminishing_returns() {
        let s = Scenario::build(ScenarioConfig::microsoft(15, Scale::Test));
        let pts = run(&s, &[1, 4, 100]);
        assert_eq!(pts.len(), 3);
        // Latency improves from 1 site to 4.
        assert!(
            pts[1].median_rtt_ms < pts[0].median_rtt_ms,
            "{} -> {}",
            pts[0].median_rtt_ms,
            pts[1].median_rtt_ms
        );
        // Diminishing returns: the 4→all improvement is smaller than the
        // 1→4 improvement.
        let first_gain = pts[0].median_rtt_ms - pts[1].median_rtt_ms;
        let later_gain = pts[1].median_rtt_ms - pts[2].median_rtt_ms;
        assert!(
            later_gain <= first_gain + 1.0,
            "gains {first_gain} then {later_gain}"
        );
    }

    #[test]
    fn single_site_has_zero_misdirection() {
        let s = Scenario::build(ScenarioConfig::microsoft(15, Scale::Test));
        let pts = run(&s, &[1]);
        assert_eq!(pts[0].misdirected, 0.0);
    }

    #[test]
    fn site_counts_clamped_to_pops() {
        let s = Scenario::build(ScenarioConfig::microsoft(15, Scale::Test));
        let pts = run(&s, &[10_000]);
        assert_eq!(pts[0].sites, s.provider.pops.len());
    }
}
