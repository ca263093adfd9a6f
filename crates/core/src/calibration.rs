//! Calibration checks (S23x): the in-text distance statistics the paper
//! uses to characterize its settings.
//!
//! * §2.3.1: "half of all traffic is to clients within 500km of the serving
//!   PoP … and 90% is to clients within 2500km and on the same continent";
//! * §2.3.2: "the median distance of the nearest front-end is 280 km, of
//!   the second nearest is 700 km, and of fourth nearest is 1300 km".
//!
//! These anchor the synthetic world to the paper's setting; EXPERIMENTS.md
//! records how closely we land.

use crate::world::Scenario;
use bb_measure::spray::build_targets;
use bb_stats::weighted_quantile;

/// The calibration report.
#[derive(Debug, Clone)]
pub struct Calibration {
    /// Traffic fraction served from a PoP within 500 km (paper: 0.5).
    pub traffic_within_500km: f64,
    /// Traffic fraction within 2500 km (paper: 0.9).
    pub traffic_within_2500km: f64,
    /// Traffic fraction served from the same region.
    pub traffic_same_region: f64,
    /// Weighted median distance to the k-th nearest front-end, km, for
    /// k = 1, 2, 4 (paper: 280 / 700 / 1300).
    pub median_nearest_km: f64,
    pub median_second_km: f64,
    pub median_fourth_km: f64,
}

impl Calibration {
    pub fn render(&self) -> String {
        format!(
            "Calibration (paper targets in parentheses):\n  \
             traffic within 500km of serving PoP:  {:.0}%  (50%)\n  \
             traffic within 2500km:                {:.0}%  (90%)\n  \
             traffic served in-region:             {:.0}%  (~90%)\n  \
             median distance to nearest front-end: {:.0} km  (280 km)\n  \
             median distance to 2nd nearest:       {:.0} km  (700 km)\n  \
             median distance to 4th nearest:       {:.0} km  (1300 km)\n",
            self.traffic_within_500km * 100.0,
            self.traffic_within_2500km * 100.0,
            self.traffic_same_region * 100.0,
            self.median_nearest_km,
            self.median_second_km,
            self.median_fourth_km
        )
    }
}

/// Compute the calibration stats for a scenario.
pub fn run(scenario: &Scenario) -> Calibration {
    let topo = &scenario.topo;
    let provider = &scenario.provider;
    let workload = &scenario.workload;

    // Serving-PoP distances use the same serving assignment as Study A.
    let targets = build_targets(topo, provider, workload, 1);
    let mut within_500 = 0.0;
    let mut within_2500 = 0.0;
    let mut same_region = 0.0;
    let mut total = 0.0;
    for t in &targets {
        let p = workload.prefix(t.prefix);
        let d = topo
            .atlas
            .city(t.pop)
            .location
            .distance_km(&topo.atlas.city(p.city).location);
        total += p.weight;
        if d <= 500.0 {
            within_500 += p.weight;
        }
        if d <= 2500.0 {
            within_2500 += p.weight;
        }
        if topo.atlas.city(t.pop).region == topo.atlas.city(p.city).region {
            same_region += p.weight;
        }
    }

    // k-th nearest front-end distances, weighted by prefix traffic.
    let kth = |k: usize| -> f64 {
        let pts: Vec<(f64, f64)> = workload
            .prefixes
            .iter()
            .filter_map(|p| {
                let by_dist = provider.pops_by_distance(topo, p.city);
                by_dist.get(k).map(|&(_, d)| (d, p.weight))
            })
            .collect();
        weighted_quantile(&pts, 0.5).unwrap_or(f64::NAN)
    };

    Calibration {
        traffic_within_500km: within_500 / total.max(1e-12),
        traffic_within_2500km: within_2500 / total.max(1e-12),
        traffic_same_region: same_region / total.max(1e-12),
        median_nearest_km: kth(0),
        median_second_km: kth(1),
        median_fourth_km: kth(3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Scale, ScenarioConfig};

    #[test]
    fn calibration_is_in_the_papers_ballpark() {
        let scenario = Scenario::build(ScenarioConfig::facebook(2, Scale::Test));
        let c = run(&scenario);
        // Loose bounds: the small test world is coarser than Full scale.
        assert!(c.traffic_within_2500km > 0.5, "{c:?}");
        assert!(c.traffic_same_region > 0.5, "{c:?}");
        assert!(c.median_nearest_km < 2000.0, "{c:?}");
        assert!(c.median_nearest_km <= c.median_second_km);
        assert!(c.median_second_km <= c.median_fourth_km);
    }

    #[test]
    fn render_shows_targets() {
        let scenario = Scenario::build(ScenarioConfig::facebook(2, Scale::Test));
        let c = run(&scenario);
        let s = c.render();
        assert!(s.contains("280 km"));
        assert!(s.contains("(90%)"));
    }
}
