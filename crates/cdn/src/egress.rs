//! Edge-Fabric-style egress control at a PoP (§2.3.1).
//!
//! Every window, for each ⟨PoP, prefix⟩, the controller looks at the
//! measured performance of BGP's top-k routes and at the egress links'
//! utilization, and decides which route carries the traffic: BGP's
//! preferred route by default, an alternate when the preferred egress is
//! overloaded (the original Edge Fabric motivation) or when an alternate is
//! measurably faster (performance-aware mode).

/// Per-route observations for one ⟨PoP, prefix⟩ in one window.
#[derive(Debug, Clone, Copy)]
pub struct RouteWindowStats {
    /// Median TCP MinRTT measured over this route in the window, ms.
    pub median_minrtt_ms: f64,
    /// Utilization of the route's egress interconnect.
    pub egress_utilization: f64,
}

/// Why the controller moved off BGP's preferred route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetourReason {
    /// Preferred egress interconnect near saturation.
    Overload,
    /// An alternate route measured faster by at least the threshold.
    Performance,
}

/// The controller's decision for one window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EgressDecision {
    /// Keep BGP's preferred route (index 0).
    KeepBgp,
    /// Shift traffic to `route` (index into the policy-ranked RIB).
    Detour { route: usize, reason: DetourReason },
}

impl EgressDecision {
    /// Index of the route that carries traffic under this decision.
    pub fn route_index(&self) -> usize {
        match self {
            EgressDecision::KeepBgp => 0,
            EgressDecision::Detour { route, .. } => *route,
        }
    }
}

/// The controller configuration.
#[derive(Debug, Clone)]
pub struct EgressController {
    /// An alternate must beat the preferred route's median by this much to
    /// justify a performance detour, ms.
    pub min_improvement_ms: f64,
    /// Egress utilization above which the preferred route is considered
    /// overloaded.
    pub overload_threshold: f64,
    /// Whether performance detours are enabled (capacity-only mode is the
    /// baseline Edge Fabric deployment).
    pub performance_aware: bool,
}

impl Default for EgressController {
    fn default() -> Self {
        Self {
            min_improvement_ms: 3.0,
            overload_threshold: 0.92,
            performance_aware: true,
        }
    }
}

impl EgressController {
    /// Decide for one ⟨PoP, prefix⟩ window. `routes[0]` is BGP's preferred.
    pub fn decide(&self, routes: &[RouteWindowStats]) -> EgressDecision {
        assert!(!routes.is_empty());
        let preferred = routes[0];

        // 1. Overload protection: shift to the first non-overloaded route
        //    in policy order.
        if preferred.egress_utilization >= self.overload_threshold {
            if let Some((i, _)) = routes
                .iter()
                .enumerate()
                .skip(1)
                .find(|(_, r)| r.egress_utilization < self.overload_threshold)
            {
                return EgressDecision::Detour {
                    route: i,
                    reason: DetourReason::Overload,
                };
            }
        }

        // 2. Performance override: the fastest alternate, if it clears the
        //    threshold.
        if self.performance_aware {
            let best_alt = routes
                .iter()
                .enumerate()
                .skip(1)
                .min_by(|a, b| a.1.median_minrtt_ms.total_cmp(&b.1.median_minrtt_ms));
            if let Some((i, alt)) = best_alt {
                if alt.median_minrtt_ms + self.min_improvement_ms <= preferred.median_minrtt_ms
                    && alt.egress_utilization < self.overload_threshold
                {
                    return EgressDecision::Detour {
                        route: i,
                        reason: DetourReason::Performance,
                    };
                }
            }
        }

        EgressDecision::KeepBgp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(rtt: f64, util: f64) -> RouteWindowStats {
        RouteWindowStats {
            median_minrtt_ms: rtt,
            egress_utilization: util,
        }
    }

    #[test]
    fn keeps_bgp_when_fine() {
        let c = EgressController::default();
        let d = c.decide(&[stats(20.0, 0.5), stats(21.0, 0.3), stats(25.0, 0.3)]);
        assert_eq!(d, EgressDecision::KeepBgp);
        assert_eq!(d.route_index(), 0);
    }

    #[test]
    fn detours_on_overload() {
        let c = EgressController::default();
        let d = c.decide(&[stats(20.0, 0.95), stats(22.0, 0.4)]);
        assert_eq!(
            d,
            EgressDecision::Detour {
                route: 1,
                reason: DetourReason::Overload
            }
        );
    }

    #[test]
    fn overload_with_no_spare_capacity_keeps_bgp() {
        let c = EgressController {
            performance_aware: false,
            ..Default::default()
        };
        let d = c.decide(&[stats(20.0, 0.95), stats(22.0, 0.96)]);
        assert_eq!(d, EgressDecision::KeepBgp);
    }

    #[test]
    fn detours_on_clear_performance_win() {
        let c = EgressController::default();
        let d = c.decide(&[stats(30.0, 0.5), stats(24.0, 0.4), stats(26.0, 0.2)]);
        assert_eq!(
            d,
            EgressDecision::Detour {
                route: 1,
                reason: DetourReason::Performance
            }
        );
    }

    #[test]
    fn small_improvement_below_threshold_ignored() {
        let c = EgressController::default();
        let d = c.decide(&[stats(25.0, 0.5), stats(23.5, 0.4)]);
        assert_eq!(d, EgressDecision::KeepBgp);
    }

    #[test]
    fn capacity_only_mode_never_performance_detours() {
        let c = EgressController {
            performance_aware: false,
            ..Default::default()
        };
        let d = c.decide(&[stats(50.0, 0.5), stats(10.0, 0.1)]);
        assert_eq!(d, EgressDecision::KeepBgp);
    }

    #[test]
    fn performance_detour_avoids_overloaded_alternate() {
        let c = EgressController::default();
        // Fastest alternate is itself overloaded → keep BGP.
        let d = c.decide(&[stats(30.0, 0.5), stats(10.0, 0.98)]);
        assert_eq!(d, EgressDecision::KeepBgp);
    }

    #[test]
    #[should_panic]
    fn empty_routes_panics() {
        EgressController::default().decide(&[]);
    }
}
