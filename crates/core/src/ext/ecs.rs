//! §3.2.1 — what would EDNS Client Subnet adoption buy?
//!
//! "EDNS Client Subnet was designed to overcome this limitation, but its
//! adoption by ISPs is virtually non-existent (< 0.1% of ASes) outside of
//! public resolvers." This sweep raises ISP-resolver ECS adoption from
//! today's ~0 to 100 % and re-runs the Fig 4 protocol at each level: with
//! ECS the redirector decides per client prefix instead of per resolver,
//! trading the aggregation *bias* for per-prefix estimation *variance*:
//! the improved fraction should grow toward the oracle, while the "worse"
//! tail changes little (it loses the aggregation-error cases but gains
//! overfitting-to-noise cases — per-prefix training data is thinner).

use crate::error::BbResult;
use crate::study_anycast;
use crate::world::Scenario;
use bb_measure::{BeaconConfig, BeaconMeasurement};
use bb_workload::generate_workload;

/// One adoption level's Fig-4 statistics.
#[derive(Debug, Clone)]
pub struct EcsPoint {
    /// ISP-resolver ECS adoption fraction.
    pub adoption: f64,
    /// Fraction of (weighted) queries improved at the median.
    pub improved: f64,
    /// Fraction made worse.
    pub worse: f64,
    /// Weighted median improvement, ms.
    pub median_gain_ms: f64,
}

impl EcsPoint {
    pub fn render_row(&self) -> String {
        format!(
            "  ecs={:>5.1}%  improved={:>5.1}%  worse={:>5.1}%  median gain={:>5.2} ms",
            self.adoption * 100.0,
            self.improved * 100.0,
            self.worse * 100.0,
            self.median_gain_ms
        )
    }
}

/// Sweep ECS adoption over a fresh beacon campaign
/// ([`study_anycast::collect`]); [`sweep`] does the rest.
pub fn run(
    scenario: &Scenario,
    beacon_cfg: &BeaconConfig,
    adoptions: &[f64],
) -> BbResult<Vec<EcsPoint>> {
    sweep(
        scenario,
        &study_anycast::collect(scenario, beacon_cfg),
        adoptions,
    )
}

/// Sweep ECS adoption over an already-collected beacon campaign. The
/// campaign does not depend on resolvers, so one serves every level: only
/// the workload's resolver flags and the redirector retraining vary per
/// step.
pub fn sweep(
    scenario: &Scenario,
    measurements: &[BeaconMeasurement],
    adoptions: &[f64],
) -> BbResult<Vec<EcsPoint>> {
    adoptions
        .iter()
        .map(|&adoption| {
            // Rebuild only the workload with the new adoption level; the
            // prefix set and weights are identical by construction (ECS
            // flags come from a dedicated RNG stream).
            let mut wl_cfg = scenario.config.workload.clone();
            wl_cfg.isp_ecs_fraction = adoption;
            let workload = generate_workload(&scenario.topo, &wl_cfg);
            debug_assert_eq!(workload.prefixes.len(), scenario.workload.prefixes.len());

            // Re-run the Fig 4 analysis against the modified workload. The
            // measurements already carry any fault effects; the
            // re-analysis itself draws nothing new.
            let (fig4, _) = study_anycast::fig4(&scenario.topo, &workload, measurements)?;
            Ok(EcsPoint {
                adoption,
                improved: fig4.frac_improved,
                worse: fig4.frac_worse,
                median_gain_ms: fig4.median_improvement.median(),
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Scale, ScenarioConfig};

    #[test]
    fn full_ecs_does_not_hurt_more_than_no_ecs() {
        let s = Scenario::build(ScenarioConfig::microsoft(37, Scale::Test));
        let pts = run(
            &s,
            &BeaconConfig {
                // Enough rounds that per-prefix training noise (the
                // variance half of the bias-for-variance trade) does not
                // dominate the comparison at Scale::Test.
                rounds: 10,
                ..Default::default()
            },
            &[0.0, 1.0],
        )
        .expect("fault-free sweep succeeds");
        assert_eq!(pts.len(), 2);
        // Bias-for-variance trade: the worse tail must not blow up…
        assert!(
            pts[1].worse <= pts[0].worse + 0.05,
            "ECS exploded the worse tail: {} -> {}",
            pts[0].worse,
            pts[1].worse
        );
        // …and improvements must not shrink materially.
        assert!(
            pts[1].improved >= pts[0].improved - 0.02,
            "ECS should keep or grow improvements: {} -> {}",
            pts[0].improved,
            pts[1].improved
        );
        // The net median gain must not regress.
        assert!(pts[1].median_gain_ms >= pts[0].median_gain_ms - 0.1);
    }

    #[test]
    fn sweep_is_monotone_in_worse_tail() {
        let s = Scenario::build(ScenarioConfig::microsoft(37, Scale::Test));
        let pts = run(
            &s,
            &BeaconConfig {
                rounds: 4,
                ..Default::default()
            },
            &[0.0, 0.5, 1.0],
        )
        .expect("fault-free sweep succeeds");
        for w in pts.windows(2) {
            assert!(
                w[1].worse <= w[0].worse + 0.05,
                "worse tail should stay roughly stable with adoption: {:?}",
                pts
            );
        }
    }

    #[test]
    fn render_row() {
        let p = EcsPoint {
            adoption: 0.5,
            improved: 0.3,
            worse: 0.1,
            median_gain_ms: 1.5,
        };
        assert!(p.render_row().contains("ecs= 50.0%"));
    }
}
