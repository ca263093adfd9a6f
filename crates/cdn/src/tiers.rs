//! Premium vs Standard networking tiers (§2.3.3).
//!
//! "Premium Tier, in which [the provider] uses its WAN to ingress/egress
//! traffic near to the client, and Standard Tier, in which it forces
//! traffic to ingress/egress near the cloud data center and use the public
//! Internet the rest of the way."
//!
//! Implementation: both tiers are just announcement policies. Premium
//! announces the VM prefix at *every* provider interconnect (traffic enters
//! at the edge PoP near the client and rides the WAN to the data center);
//! Standard announces only at interconnects in the data-center city
//! (traffic rides the public Internet all the way there).

use crate::anycast::route_into_provider;
use crate::provider::Provider;
use bb_bgp::{Announcement, RoutingTable};
use bb_geo::CityId;
use bb_netsim::RealizedPath;
use bb_topology::{AsId, Topology};

/// The two cloud networking tiers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Private WAN from an edge PoP near the client.
    Premium,
    /// Public Internet to an ingress near the data center.
    Standard,
}

impl Tier {
    pub fn name(&self) -> &'static str {
        match self {
            Tier::Premium => "premium",
            Tier::Standard => "standard",
        }
    }
}

/// A VM prefix deployed on one tier from one data center.
#[derive(Debug, Clone)]
pub struct TierDeployment {
    pub tier: Tier,
    pub datacenter: CityId,
    pub announcement: Announcement,
    /// Shared through the process-wide route cache.
    pub table: std::sync::Arc<RoutingTable>,
}

/// How a vantage point reaches the VM over a tier.
#[derive(Debug, Clone)]
pub struct TierPath {
    /// Public-Internet part (client → provider ingress).
    pub path: RealizedPath,
    pub entry_city: CityId,
    /// One-way WAN carriage from ingress to the data center, ms.
    pub wan_ms: f64,
    /// Number of ASes between the client AS and the provider (0 = direct).
    pub intermediate_ases: usize,
}

impl TierDeployment {
    /// Deploy a VM prefix on `tier` from `datacenter` (must be a PoP).
    pub fn deploy(
        topo: &Topology,
        provider: &Provider,
        datacenter: CityId,
        tier: Tier,
    ) -> TierDeployment {
        assert!(provider.has_pop(datacenter), "datacenter must be a PoP");
        let announcement = match tier {
            Tier::Premium => Announcement::full(topo, provider.asn),
            Tier::Standard => {
                let mut ann = Announcement::empty(provider.asn);
                for &(_, link) in topo.adjacency(provider.asn) {
                    if topo.link(link).city == datacenter {
                        ann.offer(link, 0);
                    }
                }
                ann
            }
        };
        let table = bb_exec::cached_routes(topo, &announcement);
        TierDeployment {
            tier,
            datacenter,
            announcement,
            table,
        }
    }

    /// Path from a vantage point to the VM. `None` if the VP has no route
    /// on this tier.
    pub fn reach(
        &self,
        topo: &Topology,
        provider: &Provider,
        client_as: AsId,
        client_city: CityId,
    ) -> Option<TierPath> {
        let (path, entry_city) =
            route_into_provider(topo, &self.table, provider.asn, client_as, client_city)?;
        let wan_ms = provider.wan.path_ms(entry_city, self.datacenter)?;
        let intermediate_ases = path.as_path.len().saturating_sub(2);
        Some(TierPath {
            path,
            entry_city,
            wan_ms,
            intermediate_ases,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::{build_provider, ProviderConfig};
    use bb_topology::{generate, AsClass, TopologyConfig};

    fn world() -> (Topology, Provider, CityId) {
        let mut topo = generate(&TopologyConfig::small(71));
        let p = build_provider(&mut topo, &ProviderConfig::google_like(3));
        // Use the US main metro as "US-Central" if it is a PoP, else the
        // first PoP.
        let (us, _) = bb_geo::country::by_code("US").unwrap();
        let us_metro = topo.atlas.main_metro(us).id;
        let dc = if p.has_pop(us_metro) { us_metro } else { p.pops[0] };
        (topo, p, dc)
    }

    #[test]
    fn standard_ingresses_at_datacenter() {
        let (topo, p, dc) = world();
        let std_dep = TierDeployment::deploy(&topo, &p, dc, Tier::Standard);
        for eye in topo.ases_of_class(AsClass::Eyeball).take(20) {
            if let Some(tp) = std_dep.reach(&topo, &p, eye.id, eye.footprint[0]) {
                assert_eq!(tp.entry_city, dc, "standard must enter at the DC");
                assert_eq!(tp.wan_ms, 0.0);
            }
        }
    }

    #[test]
    fn premium_ingresses_near_client() {
        let (topo, p, dc) = world();
        let prem = TierDeployment::deploy(&topo, &p, dc, Tier::Premium);
        let mut nearer = 0;
        let mut total = 0;
        for eye in topo.ases_of_class(AsClass::Eyeball) {
            let city = eye.footprint[0];
            let Some(tp) = prem.reach(&topo, &p, eye.id, city) else { continue };
            let d_entry = topo
                .atlas
                .city(tp.entry_city)
                .location
                .distance_km(&topo.atlas.city(city).location);
            let d_dc = topo
                .atlas
                .city(dc)
                .location
                .distance_km(&topo.atlas.city(city).location);
            total += 1;
            if d_entry <= d_dc + 1.0 {
                nearer += 1;
            }
        }
        assert!(
            nearer * 10 >= total * 7,
            "premium ingress near client for most VPs: {nearer}/{total}"
        );
    }

    #[test]
    fn premium_path_shorter_as_level() {
        let (topo, p, dc) = world();
        let prem = TierDeployment::deploy(&topo, &p, dc, Tier::Premium);
        let std_dep = TierDeployment::deploy(&topo, &p, dc, Tier::Standard);
        let mut checked = 0;
        for eye in topo.ases_of_class(AsClass::Eyeball) {
            let city = eye.footprint[0];
            let (Some(tp), Some(ts)) = (
                prem.reach(&topo, &p, eye.id, city),
                std_dep.reach(&topo, &p, eye.id, city),
            ) else {
                continue;
            };
            assert!(tp.intermediate_ases <= ts.intermediate_ases);
            checked += 1;
        }
        assert!(checked > 10);
    }

    #[test]
    fn paper_vp_criteria_is_expressible() {
        // §3.3: VPs whose Standard route has ≥1 intermediate AS but whose
        // Premium route is direct.
        let (topo, p, dc) = world();
        let prem = TierDeployment::deploy(&topo, &p, dc, Tier::Premium);
        let std_dep = TierDeployment::deploy(&topo, &p, dc, Tier::Standard);
        let qualifying = topo
            .ases_of_class(AsClass::Eyeball)
            .filter(|eye| {
                let city = eye.footprint[0];
                match (
                    prem.reach(&topo, &p, eye.id, city),
                    std_dep.reach(&topo, &p, eye.id, city),
                ) {
                    (Some(tp), Some(ts)) => {
                        tp.intermediate_ases == 0 && ts.intermediate_ases >= 1
                    }
                    _ => false,
                }
            })
            .count();
        assert!(qualifying > 0, "some VPs must satisfy the paper's filter");
    }

    #[test]
    fn tier_names() {
        assert_eq!(Tier::Premium.name(), "premium");
        assert_eq!(Tier::Standard.name(), "standard");
    }

    #[test]
    #[should_panic(expected = "datacenter must be a PoP")]
    fn non_pop_datacenter_rejected() {
        let (topo, p, _) = world();
        let non_pop = topo
            .atlas
            .cities
            .iter()
            .map(|c| c.id)
            .find(|c| !p.pops.contains(c))
            .unwrap();
        TierDeployment::deploy(&topo, &p, non_pop, Tier::Premium);
    }
}
