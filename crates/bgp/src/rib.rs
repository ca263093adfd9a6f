//! The content provider's Adj-RIB-in, grouped by PoP.
//!
//! §2.3.1: "For most clients, the PoP serving the client has at least three
//! routes to the client's prefix: routes announced by one or more peers, and
//! routes announced by two or more transit providers." This module
//! reconstructs that RIB from the routing table of a client-prefix
//! announcement and ranks it by the Facebook-style policy of §3.1: "prefers
//! private peers with dedicated capacity first, then public peers, and
//! finally transit providers; and chooses shorter paths over longer ones."

use crate::decision::RouteClass;
use crate::propagation::RoutingTable;
use bb_geo::CityId;
use bb_topology::{AsId, BusinessRel, InterconnectId, LinkKind, Topology};
use std::collections::BTreeMap;

/// Route class from the provider's egress-policy perspective
/// (lower = more preferred under the standard policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProviderRouteClass {
    /// Private network interconnect with a (settlement-free) peer.
    PrivatePeer = 0,
    /// Peering across a public exchange.
    PublicPeer = 1,
    /// Route via a paid transit provider.
    Transit = 2,
}

impl ProviderRouteClass {
    pub fn name(&self) -> &'static str {
        match self {
            ProviderRouteClass::PrivatePeer => "private-peer",
            ProviderRouteClass::PublicPeer => "public-peer",
            ProviderRouteClass::Transit => "transit",
        }
    }
}

/// One route available at a provider PoP toward the client prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CandidateRoute {
    /// The provider-side interconnect the route egresses over.
    pub link: InterconnectId,
    /// City of that interconnect (identifies the PoP).
    pub pop_city: CityId,
    /// Next-hop AS.
    pub neighbor: AsId,
    /// Policy class at the provider.
    pub class: ProviderRouteClass,
    /// Total AS-path length (neighbor's path + 1).
    pub total_len: u32,
    /// How the neighbor itself learned the route.
    pub neighbor_class: RouteClass,
}

/// Ranked routes at one PoP toward one client prefix.
#[derive(Debug, Clone)]
pub struct PopRib {
    pub pop_city: CityId,
    /// Routes in policy order: index 0 is BGP's most preferred.
    pub routes: Vec<CandidateRoute>,
}

impl PopRib {
    /// BGP's preferred route at this PoP.
    pub fn preferred(&self) -> &CandidateRoute {
        &self.routes[0]
    }

    /// The top `k` routes (preferred + alternates), fewer if unavailable.
    pub fn top_k(&self, k: usize) -> &[CandidateRoute] {
        &self.routes[..self.routes.len().min(k)]
    }
}

/// Build the provider's per-PoP RIB toward `table.origin` (a client
/// prefix's AS). Returns one entry per PoP city where at least one route is
/// available, sorted by city id.
pub fn provider_rib(topo: &Topology, provider: AsId, table: &RoutingTable) -> Vec<PopRib> {
    let mut per_pop: BTreeMap<CityId, Vec<CandidateRoute>> = BTreeMap::new();

    for &(neighbor, link_id) in topo.adjacency(provider) {
        let link = topo.link(link_id);
        // What the neighbor would export to the provider.
        let (neighbor_len, neighbor_class) = if neighbor == table.origin {
            (0, RouteClass::Customer) // its own prefix
        } else {
            match table.route(neighbor) {
                None => continue,
                Some(r) => {
                    // Never hand traffic back through the provider itself.
                    if r.via == Some(provider) {
                        continue;
                    }
                    let rel_nb_to_provider = topo
                        .relationship(neighbor, provider)
                        .expect("link implies relationship");
                    if !r.class.exportable_to(rel_nb_to_provider) {
                        continue;
                    }
                    (r.path_len, r.class)
                }
            }
        };

        let class = classify(topo, provider, neighbor, link.kind);
        per_pop.entry(link.city).or_default().push(CandidateRoute {
            link: link_id,
            pop_city: link.city,
            neighbor,
            class,
            total_len: neighbor_len + 1,
            neighbor_class,
        });
    }

    per_pop
        .into_iter()
        .map(|(pop_city, mut routes)| {
            routes.sort_by_key(|r| (r.class, r.total_len, r.neighbor, r.link));
            PopRib { pop_city, routes }
        })
        .collect()
}

/// Provider policy class of a route via `neighbor` over a link of `kind`.
fn classify(
    topo: &Topology,
    provider: AsId,
    neighbor: AsId,
    kind: LinkKind,
) -> ProviderRouteClass {
    match topo.relationship(provider, neighbor) {
        Some(BusinessRel::CustomerOf) => ProviderRouteClass::Transit,
        _ => match kind {
            LinkKind::PrivatePeering => ProviderRouteClass::PrivatePeer,
            LinkKind::PublicPeering => ProviderRouteClass::PublicPeer,
            // A transit-kind link where the provider is not the customer
            // (i.e., the neighbor pays us) still egresses like a private
            // interconnect.
            LinkKind::Transit => ProviderRouteClass::PrivatePeer,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::announcement::Announcement;
    use crate::propagation::compute_routes;
    use bb_geo::atlas::AtlasConfig;
    use bb_geo::Atlas;
    use bb_topology::{AsClass, ExitPolicy, Topology};

    /// Hand-built scenario: provider P with one PoP city, connected to
    /// eyeball E by PNI, to transit T by public peering, and buying transit
    /// from tier-1 G. E is customer of T; T customer of G.
    fn scenario() -> (Topology, AsId, AsId) {
        let atlas = Atlas::generate(&AtlasConfig {
            seed: 3,
            city_density: 0.3,
        });
        let c0 = atlas.cities[0].id;
        let mut t = Topology::new(atlas);
        let g = t.add_as(AsClass::Tier1, "G", vec![c0], ExitPolicy::EarlyExit, 1.1, None, 0.0);
        let tr = t.add_as(AsClass::Transit, "T", vec![c0], ExitPolicy::EarlyExit, 1.2, None, 0.0);
        let e = t.add_as(AsClass::Eyeball, "E", vec![c0], ExitPolicy::EarlyExit, 1.4, Some(0), 1.0);
        let p = t.add_as(AsClass::Content, "P", vec![c0], ExitPolicy::LateExit, 1.1, None, 0.0);
        t.add_interconnect(tr, g, BusinessRel::CustomerOf, LinkKind::Transit, c0, 1000.0);
        t.add_interconnect(e, tr, BusinessRel::CustomerOf, LinkKind::Transit, c0, 100.0);
        t.add_interconnect(p, e, BusinessRel::Peer, LinkKind::PrivatePeering, c0, 100.0);
        t.add_interconnect(p, tr, BusinessRel::Peer, LinkKind::PublicPeering, c0, 100.0);
        t.add_interconnect(p, g, BusinessRel::CustomerOf, LinkKind::Transit, c0, 1000.0);
        (t, p, e)
    }

    #[test]
    fn rib_has_three_route_classes_ranked() {
        let (t, p, e) = scenario();
        let table = compute_routes(&t, &Announcement::full(&t, e));
        let ribs = provider_rib(&t, p, &table);
        assert_eq!(ribs.len(), 1, "single PoP city");
        let rib = &ribs[0];
        assert_eq!(rib.routes.len(), 3);
        assert_eq!(rib.routes[0].class, ProviderRouteClass::PrivatePeer);
        assert_eq!(rib.routes[0].neighbor, e);
        assert_eq!(rib.routes[0].total_len, 1);
        assert_eq!(rib.routes[1].class, ProviderRouteClass::PublicPeer);
        assert_eq!(rib.routes[1].total_len, 2);
        assert_eq!(rib.routes[2].class, ProviderRouteClass::Transit);
        assert_eq!(rib.routes[2].total_len, 3);
    }

    #[test]
    fn top_k_truncates() {
        let (t, p, e) = scenario();
        let table = compute_routes(&t, &Announcement::full(&t, e));
        let ribs = provider_rib(&t, p, &table);
        assert_eq!(ribs[0].top_k(2).len(), 2);
        assert_eq!(ribs[0].top_k(10).len(), 3);
        assert_eq!(ribs[0].preferred().neighbor, e);
    }

    #[test]
    fn peer_does_not_export_peer_routes() {
        // If we cut E–T (so T's route to E is via its *peer* — impossible
        // here; instead make T a peer of E): T would then refuse to export
        // E's prefix to P.
        let atlas = Atlas::generate(&AtlasConfig {
            seed: 4,
            city_density: 0.3,
        });
        let c0 = atlas.cities[0].id;
        let mut t = Topology::new(atlas);
        let tr = t.add_as(AsClass::Transit, "T", vec![c0], ExitPolicy::EarlyExit, 1.2, None, 0.0);
        let e = t.add_as(AsClass::Eyeball, "E", vec![c0], ExitPolicy::EarlyExit, 1.4, Some(0), 1.0);
        let p = t.add_as(AsClass::Content, "P", vec![c0], ExitPolicy::LateExit, 1.1, None, 0.0);
        // E peers with T; P peers with T. T must not re-export E's routes.
        t.add_interconnect(e, tr, BusinessRel::Peer, LinkKind::PublicPeering, c0, 100.0);
        t.add_interconnect(p, tr, BusinessRel::Peer, LinkKind::PublicPeering, c0, 100.0);

        let table = compute_routes(&t, &Announcement::full(&t, e));
        let ribs = provider_rib(&t, p, &table);
        assert!(
            ribs.is_empty(),
            "P must have no route: T cannot export a peer route to a peer"
        );
    }

    #[test]
    fn transit_neighbor_exports_everything() {
        let (t, p, e) = scenario();
        let table = compute_routes(&t, &Announcement::full(&t, e));
        let ribs = provider_rib(&t, p, &table);
        // G (P's transit) learned E's route via its customer T and exports
        // it to P; class at P is Transit.
        assert!(ribs[0]
            .routes
            .iter()
            .any(|r| r.class == ProviderRouteClass::Transit));
    }

    #[test]
    fn generated_topology_pops_have_route_diversity() {
        use bb_topology::{generate, TopologyConfig};
        // Attach a provider to a generated topology by hand.
        let mut topo = generate(&TopologyConfig::small(31));
        let hubs: Vec<CityId> = topo.atlas.colo_hubs().map(|c| c.id).collect();
        let p = topo.add_as(
            AsClass::Content,
            "provider",
            hubs.clone(),
            ExitPolicy::LateExit,
            1.1,
            None,
            0.0,
        );
        // Peer with transits at hubs; buy from two tier-1s.
        let transits: Vec<AsId> = topo.ases_of_class(AsClass::Transit).map(|a| a.id).collect();
        for tr in transits {
            let shared: Vec<CityId> = topo
                .asys(tr)
                .footprint
                .iter()
                .copied()
                .filter(|c| hubs.contains(c))
                .collect();
            if let Some(&city) = shared.first() {
                topo.add_interconnect(p, tr, BusinessRel::Peer, LinkKind::PublicPeering, city, 200.0);
            }
        }
        let tier1s: Vec<AsId> = topo.ases_of_class(AsClass::Tier1).map(|a| a.id).collect();
        for &t1 in tier1s.iter().take(2) {
            for &city in hubs.iter().take(4) {
                if topo.asys(t1).present_in(city) {
                    topo.add_interconnect(p, t1, BusinessRel::CustomerOf, LinkKind::Transit, city, 2000.0);
                }
            }
        }

        let eye = topo.ases_of_class(AsClass::Eyeball).next().unwrap().id;
        let table = compute_routes(&topo, &Announcement::full(&topo, eye));
        let ribs = provider_rib(&topo, p, &table);
        assert!(!ribs.is_empty());
        // Every ranked list must be sorted by (class, len).
        for rib in &ribs {
            for w in rib.routes.windows(2) {
                assert!(
                    (w[0].class, w[0].total_len) <= (w[1].class, w[1].total_len),
                    "RIB must be policy-sorted"
                );
            }
        }
    }
}
