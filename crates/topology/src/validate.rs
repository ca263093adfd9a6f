//! Structural validation of a topology.

use crate::asys::AsClass;
use crate::graph::Topology;
use crate::ids::AsId;
use std::collections::VecDeque;

/// A structural problem found by [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// An AS cannot reach the tier-1 clique following provider links.
    Unreachable(AsId),
    /// An eyeball AS has no providers.
    NoProviders(AsId),
    /// The provider hierarchy contains a customer-provider cycle.
    ProviderCycle(AsId),
    /// There are no tier-1 ASes at all.
    NoTier1,
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::Unreachable(a) => write!(f, "{a} cannot reach the tier-1 clique"),
            TopologyError::NoProviders(a) => write!(f, "{a} has no providers"),
            TopologyError::ProviderCycle(a) => write!(f, "provider cycle through {a}"),
            TopologyError::NoTier1 => write!(f, "no tier-1 ASes"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// Check structural invariants that routing correctness depends on:
///
/// 1. at least one tier-1 exists;
/// 2. every non-tier-1 AS reaches a tier-1 by walking provider links
///    (guarantees global reachability under valley-free routing);
/// 3. no customer→provider cycles;
/// 4. every eyeball has at least one provider.
pub fn validate(topo: &Topology) -> Result<(), Vec<TopologyError>> {
    let mut errors = Vec::new();

    let tier1s: Vec<AsId> = topo.ases_of_class(AsClass::Tier1).map(|a| a.id).collect();
    if tier1s.is_empty() {
        return Err(vec![TopologyError::NoTier1]);
    }

    // Reachability: BFS downward from tier-1s along provider→customer edges;
    // every AS must be visited.
    let mut reached = vec![false; topo.as_count()];
    let mut queue: VecDeque<AsId> = tier1s.iter().copied().collect();
    for &t in &tier1s {
        reached[t.index()] = true;
    }
    while let Some(asn) = queue.pop_front() {
        for cust in topo.customers_of(asn) {
            if !reached[cust.index()] {
                reached[cust.index()] = true;
                queue.push_back(cust);
            }
        }
    }
    for node in topo.ases() {
        if !reached[node.id.index()] {
            errors.push(TopologyError::Unreachable(node.id));
        }
    }

    // Eyeballs need providers.
    for eye in topo.ases_of_class(AsClass::Eyeball) {
        if topo.providers_of(eye.id).is_empty() {
            errors.push(TopologyError::NoProviders(eye.id));
        }
    }

    // A customer→provider cycle leaves no provider-first order.
    if let Err(at) = topo.provider_order() {
        errors.push(TopologyError::ProviderCycle(at));
    }

    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asys::ExitPolicy;
    use crate::link::{BusinessRel, LinkKind};
    use bb_geo::atlas::AtlasConfig;
    use bb_geo::Atlas;

    fn atlas() -> Atlas {
        Atlas::generate(&AtlasConfig {
            seed: 1,
            city_density: 0.3,
        })
    }

    #[test]
    fn empty_topology_fails_no_tier1() {
        let topo = Topology::new(atlas());
        assert_eq!(validate(&topo), Err(vec![TopologyError::NoTier1]));
    }

    #[test]
    fn isolated_eyeball_reported() {
        let a = atlas();
        let c0 = a.cities[0].id;
        let mut topo = Topology::new(a);
        topo.add_as(AsClass::Tier1, "t", vec![c0], ExitPolicy::EarlyExit, 1.1, None, 0.0);
        topo.add_as(AsClass::Eyeball, "e", vec![c0], ExitPolicy::EarlyExit, 1.4, Some(0), 1.0);
        let errs = validate(&topo).unwrap_err();
        assert!(errs.contains(&TopologyError::Unreachable(AsId(1))));
        assert!(errs.contains(&TopologyError::NoProviders(AsId(1))));
    }

    #[test]
    fn connected_hierarchy_passes() {
        let a = atlas();
        let c0 = a.cities[0].id;
        let mut topo = Topology::new(a);
        let t1 = topo.add_as(AsClass::Tier1, "t", vec![c0], ExitPolicy::EarlyExit, 1.1, None, 0.0);
        let tr = topo.add_as(AsClass::Transit, "tr", vec![c0], ExitPolicy::EarlyExit, 1.2, None, 0.0);
        let ey = topo.add_as(AsClass::Eyeball, "e", vec![c0], ExitPolicy::EarlyExit, 1.4, Some(0), 1.0);
        topo.add_interconnect(tr, t1, BusinessRel::CustomerOf, LinkKind::Transit, c0, 100.0);
        topo.add_interconnect(ey, tr, BusinessRel::CustomerOf, LinkKind::Transit, c0, 10.0);
        assert!(validate(&topo).is_ok());
    }

    #[test]
    fn provider_cycle_detected() {
        // A 2-cycle is impossible (one relationship per pair), but a 3-cycle
        // x→y→z→x of customer-of edges is constructible and must be flagged.
        let a = atlas();
        let c0 = a.cities[0].id;
        let mut topo = Topology::new(a);
        let t1 = topo.add_as(AsClass::Tier1, "t", vec![c0], ExitPolicy::EarlyExit, 1.1, None, 0.0);
        let x = topo.add_as(AsClass::Transit, "x", vec![c0], ExitPolicy::EarlyExit, 1.2, None, 0.0);
        let y = topo.add_as(AsClass::Transit, "y", vec![c0], ExitPolicy::EarlyExit, 1.2, None, 0.0);
        let z = topo.add_as(AsClass::Transit, "z", vec![c0], ExitPolicy::EarlyExit, 1.2, None, 0.0);
        // Keep everything reachable from the tier-1 so only the cycle fires.
        topo.add_interconnect(x, t1, BusinessRel::CustomerOf, LinkKind::Transit, c0, 10.0);
        topo.add_interconnect(x, y, BusinessRel::CustomerOf, LinkKind::Transit, c0, 10.0);
        topo.add_interconnect(y, z, BusinessRel::CustomerOf, LinkKind::Transit, c0, 10.0);
        topo.add_interconnect(z, x, BusinessRel::CustomerOf, LinkKind::Transit, c0, 10.0);
        let errs = validate(&topo).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, TopologyError::ProviderCycle(at) if [x, y, z].contains(at))));
    }

    #[test]
    #[should_panic(expected = "conflicting relationship")]
    fn conflicting_cycle_edges_panic_at_construction() {
        let a = atlas();
        let c0 = a.cities[0].id;
        let mut topo = Topology::new(a);
        let x = topo.add_as(AsClass::Transit, "x", vec![c0], ExitPolicy::EarlyExit, 1.2, None, 0.0);
        let y = topo.add_as(AsClass::Transit, "y", vec![c0], ExitPolicy::EarlyExit, 1.2, None, 0.0);
        topo.add_interconnect(x, y, BusinessRel::CustomerOf, LinkKind::Transit, c0, 10.0);
        topo.add_interconnect(y, x, BusinessRel::CustomerOf, LinkKind::Transit, c0, 10.0);
    }
}
