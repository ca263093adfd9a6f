//! §3.3.2 — "Do Internet paths perform best when they spend a larger
//! fraction of their journey on a single network?"
//!
//! For every Standard-tier vantage-point path we compute the fraction of
//! the wire distance carried by the single biggest AS on the path, and the
//! path's latency inflation over the great-circle floor. The paper's
//! hypothesis predicts inflation falls as the single-network fraction
//! rises — "BGP may perform best when it selects routes that spend much of
//! their journey on a single large provider".

use crate::study_tiers::default_datacenter;
use crate::world::Scenario;
use bb_cdn::{Tier, TierDeployment};
use bb_geo::CityId;
use bb_measure::select_vantage_points;
use bb_netsim::path_base_rtt_ms;
use bb_stats::weighted_quantile;

/// One bucket of the analysis.
#[derive(Debug, Clone)]
pub struct SingleNetworkBucket {
    /// Single-network distance share range covered by this bucket.
    pub share_lo: f64,
    pub share_hi: f64,
    /// Vantage points falling in the bucket.
    pub vantage_points: usize,
    /// Weighted median latency inflation (path RTT / great-circle floor).
    pub median_inflation: f64,
}

impl SingleNetworkBucket {
    pub fn render_row(&self) -> String {
        format!(
            "  single-AS share {:.2}-{:.2}: n={:<4} median inflation {:.2}x",
            self.share_lo, self.share_hi, self.vantage_points, self.median_inflation
        )
    }
}

/// Run the analysis for the Standard tier toward `datacenter` (defaults to
/// the US main metro, or the provider's first PoP, when `None`).
pub fn run(scenario: &Scenario, datacenter: Option<CityId>) -> Vec<SingleNetworkBucket> {
    let topo = &scenario.topo;
    let provider = &scenario.provider;
    let dc = datacenter.unwrap_or_else(|| default_datacenter(scenario));
    let standard = TierDeployment::deploy(topo, provider, dc, Tier::Standard);
    let vps = select_vantage_points(topo, scenario.config.seed ^ 0x_99);

    // (share, inflation, weight) per VP.
    let mut samples = Vec::new();
    for vp in &vps {
        let Some(tp) = standard.reach(topo, provider, vp.asn, vp.city) else {
            continue;
        };
        let total_km = tp.path.distance_km(topo);
        if total_km < 500.0 {
            continue; // local paths have noisy inflation ratios
        }
        let (_, max_as_km) = tp.path.max_single_as_km(topo);
        let share = (max_as_km / total_km).clamp(0.0, 1.0);

        let gc = topo
            .atlas
            .city(vp.city)
            .location
            .distance_km(&topo.atlas.city(dc).location);
        if gc < 500.0 {
            continue;
        }
        let rtt = path_base_rtt_ms(topo, &tp.path) + 2.0 * tp.wan_ms;
        let floor = bb_geo::min_rtt_ms(gc);
        samples.push((share, rtt / floor, vp.users_m.max(1e-6)));
    }

    const EDGES: [(f64, f64); 4] = [(0.0, 0.5), (0.5, 0.75), (0.75, 0.9), (0.9, 1.01)];
    EDGES
        .iter()
        .map(|&(lo, hi)| {
            let pts: Vec<(f64, f64)> = samples
                .iter()
                .filter(|&&(s, _, _)| s >= lo && s < hi)
                .map(|&(_, infl, w)| (infl, w))
                .collect();
            SingleNetworkBucket {
                share_lo: lo,
                share_hi: hi.min(1.0),
                vantage_points: pts.len(),
                median_inflation: weighted_quantile(&pts, 0.5).unwrap_or(f64::NAN),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Scale, ScenarioConfig};

    #[test]
    fn buckets_cover_vps_and_trend_holds() {
        let s = Scenario::build(ScenarioConfig::google(17, Scale::Test));
        let buckets = run(&s, None);
        assert_eq!(buckets.len(), 4);
        let populated: Vec<&SingleNetworkBucket> =
            buckets.iter().filter(|b| b.vantage_points > 5).collect();
        assert!(populated.len() >= 2, "need at least two populated buckets");
        // Hypothesis: the most single-network bucket has lower inflation
        // than the least.
        let lo = populated.first().unwrap();
        let hi = populated.last().unwrap();
        assert!(
            hi.median_inflation <= lo.median_inflation + 0.5,
            "inflation {:.2} (share {:.2}+) vs {:.2} (share {:.2}+)",
            hi.median_inflation,
            hi.share_lo,
            lo.median_inflation,
            lo.share_lo
        );
    }

    #[test]
    fn inflations_are_at_least_one() {
        let s = Scenario::build(ScenarioConfig::google(17, Scale::Test));
        for b in run(&s, None) {
            if b.vantage_points > 0 {
                assert!(b.median_inflation >= 1.0, "{}", b.median_inflation);
            }
        }
    }
}
