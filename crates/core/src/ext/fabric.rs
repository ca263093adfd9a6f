//! What can a *realizable* controller actually claim of Figure 1's
//! opportunity?
//!
//! Figure 1 compares BGP to an **omniscient** controller. §4 then asks the
//! business question: "whether this benefit is worth the cost of building
//! and maintaining a performance-aware system". This study quantifies the
//! middle ground: an Edge-Fabric-style controller that reacts to the
//! previous window's measurements (no oracle), with a detour threshold and
//! an overload guard — how much of the omniscient gain does it capture,
//! and how often does a stale decision *hurt*?

use crate::world::Scenario;
use bb_cdn::egress::RouteWindowStats;
use bb_cdn::EgressController;
use bb_measure::{spray, SprayConfig, SprayDataset};
use bb_stats::weighted_quantile;
use std::collections::BTreeMap;

/// Study output.
#[derive(Debug, Clone)]
pub struct FabricResult {
    /// Traffic-weighted mean MinRTT under plain BGP, ms.
    pub bgp_mean_ms: f64,
    /// Under the reactive controller (decides from the previous window).
    pub fabric_mean_ms: f64,
    /// Under the omniscient controller (per-window best route).
    pub oracle_mean_ms: f64,
    /// Share of the omniscient improvement the reactive controller
    /// captured (0..1; can go negative if staleness hurts).
    pub captured_fraction: f64,
    /// Fraction of windows where the controller detoured.
    pub detour_rate: f64,
    /// Fraction of detoured windows where the detour was *worse* than BGP
    /// would have been (stale decision).
    pub regret_rate: f64,
    /// Weighted median per-window gain of fabric over BGP, ms.
    pub median_gain_ms: f64,
}

impl FabricResult {
    pub fn render(&self) -> String {
        format!(
            "X-FABRIC: reactive egress controller vs BGP vs oracle\n  \
             mean MinRTT — bgp {:.2} ms, fabric {:.2} ms, oracle {:.2} ms\n  \
             captured {:.0}% of the omniscient gain; detoured in {:.1}% of windows, \
             {:.0}% of detours regretted\n",
            self.bgp_mean_ms,
            self.fabric_mean_ms,
            self.oracle_mean_ms,
            self.captured_fraction * 100.0,
            self.detour_rate * 100.0,
            self.regret_rate * 100.0
        )
    }
}

/// Run on a fresh spray campaign.
pub fn run(scenario: &Scenario, spray_cfg: &SprayConfig, controller: &EgressController) -> FabricResult {
    let spray_cfg = SprayConfig {
        targets_memo: Some(scenario.config.world_key()),
        ..spray_cfg.clone()
    };
    let dataset = spray(
        &scenario.topo,
        &scenario.provider,
        &scenario.workload,
        &scenario.congestion,
        scenario.fault_plane(),
        &spray_cfg,
    );
    evaluate(&dataset, controller)
}

/// Evaluate the controller over an existing dataset.
pub fn evaluate(dataset: &SprayDataset, controller: &EgressController) -> FabricResult {
    // Group rows per target in window order. BTreeMap: iteration feeds the
    // float accumulators, so order must not depend on hash state.
    let mut per_target: BTreeMap<(bb_geo::CityId, bb_workload::PrefixId), Vec<&bb_measure::spray::WindowRow>> =
        BTreeMap::new();
    for row in &dataset.rows {
        per_target.entry((row.pop, row.prefix)).or_default().push(row);
    }

    let mut bgp_acc = 0.0;
    let mut fabric_acc = 0.0;
    let mut oracle_acc = 0.0;
    let mut w_acc = 0.0;
    let mut windows = 0usize;
    let mut detours = 0usize;
    let mut regrets = 0usize;
    let mut gains: Vec<(f64, f64)> = Vec::new();

    for rows in per_target.values_mut() {
        rows.sort_by_key(|r| r.window);
        // The controller decides window t from window t−1's stats; the
        // first window runs on BGP.
        let mut current_route = 0usize;
        for (i, row) in rows.iter().enumerate() {
            if row.route_median_ms.len() < 2 {
                continue;
            }
            // Fault-injected campaigns mark lost windows with NaN medians:
            // a window whose BGP route was not measured cannot be scored,
            // and a detour onto an unmeasured route falls back to BGP (a
            // real controller cannot act on a route it has no data for).
            let bgp = row.route_median_ms[0];
            if !bgp.is_finite() {
                continue;
            }
            windows += 1;
            let oracle = row
                .route_median_ms
                .iter()
                .copied()
                .filter(|m| m.is_finite())
                .fold(f64::INFINITY, f64::min);
            let raw = row.route_median_ms[current_route.min(row.route_median_ms.len() - 1)];
            let fabric = if raw.is_finite() { raw } else { bgp };

            bgp_acc += bgp * row.volume;
            fabric_acc += fabric * row.volume;
            oracle_acc += oracle * row.volume;
            w_acc += row.volume;
            gains.push((bgp - fabric, row.volume));
            if current_route != 0 {
                detours += 1;
                if fabric > bgp + 1e-9 {
                    regrets += 1;
                }
            }

            // Decide for the next window from this one's stats.
            let stats: Vec<RouteWindowStats> = row
                .route_median_ms
                .iter()
                .zip(&row.route_util)
                .map(|(&m, &u)| RouteWindowStats {
                    // Unmeasured routes look infinitely slow to the
                    // controller, so it never detours onto one blindly.
                    median_minrtt_ms: if m.is_finite() { m } else { f64::INFINITY },
                    egress_utilization: u,
                })
                .collect();
            current_route = controller.decide(&stats).route_index();
            let _ = i;
        }
    }

    let bgp_mean = bgp_acc / w_acc.max(1e-12);
    let fabric_mean = fabric_acc / w_acc.max(1e-12);
    let oracle_mean = oracle_acc / w_acc.max(1e-12);
    let captured = if bgp_mean - oracle_mean > 1e-12 {
        (bgp_mean - fabric_mean) / (bgp_mean - oracle_mean)
    } else {
        0.0
    };

    FabricResult {
        bgp_mean_ms: bgp_mean,
        fabric_mean_ms: fabric_mean,
        oracle_mean_ms: oracle_mean,
        captured_fraction: captured,
        detour_rate: detours as f64 / windows.max(1) as f64,
        regret_rate: if detours > 0 {
            regrets as f64 / detours as f64
        } else {
            0.0
        },
        median_gain_ms: weighted_quantile(&gains, 0.5).unwrap_or(0.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::{Scale, ScenarioConfig};

    fn result() -> FabricResult {
        let s = Scenario::build(ScenarioConfig::facebook(31, Scale::Test));
        run(
            &s,
            &SprayConfig {
                days: 1.0,
                window_stride: 2,
                ..Default::default()
            },
            &EgressController::default(),
        )
    }

    #[test]
    fn ordering_bgp_fabric_oracle() {
        let r = result();
        assert!(r.oracle_mean_ms <= r.fabric_mean_ms + 1e-9);
        // A sane reactive controller should not do *worse* than BGP overall.
        assert!(
            r.fabric_mean_ms <= r.bgp_mean_ms + 0.5,
            "fabric {} vs bgp {}",
            r.fabric_mean_ms,
            r.bgp_mean_ms
        );
    }

    #[test]
    fn gain_is_small_in_absolute_terms() {
        // The paper's thesis: even the oracle's gain is small.
        let r = result();
        assert!(
            r.bgp_mean_ms - r.oracle_mean_ms < 5.0,
            "oracle gain {:.2}ms suspiciously large",
            r.bgp_mean_ms - r.oracle_mean_ms
        );
        assert!(r.median_gain_ms.abs() < 1.0, "median gain {:.2}", r.median_gain_ms);
    }

    #[test]
    fn detours_are_rare_and_mostly_justified() {
        let r = result();
        assert!(r.detour_rate < 0.3, "detour rate {:.2}", r.detour_rate);
        assert!(r.regret_rate < 0.6, "regret rate {:.2}", r.regret_rate);
    }

    #[test]
    fn capacity_only_controller_captures_less() {
        let s = Scenario::build(ScenarioConfig::facebook(31, Scale::Test));
        let cfg = SprayConfig {
            days: 1.0,
            window_stride: 2,
            ..Default::default()
        };
        let perf = run(&s, &cfg, &EgressController::default());
        let cap_only = run(
            &s,
            &cfg,
            &EgressController {
                performance_aware: false,
                ..Default::default()
            },
        );
        assert!(cap_only.captured_fraction <= perf.captured_fraction + 1e-9);
    }

    #[test]
    fn render_works() {
        assert!(result().render().contains("X-FABRIC"));
    }
}
