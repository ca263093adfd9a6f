//! Provider construction: PoPs and peering fabric.
//!
//! §2: providers "host servers at locations worldwide", "build out their own
//! private WANs", and "at each location, they interconnect with many
//! networks". §3.1.2: they "peer widely with ASes hosting many of their
//! clients, allowing them to route much of their traffic over private
//! network interconnects (PNIs) with dedicated capacity directly into these
//! 'eyeball' ASes".

use crate::wan::Wan;
use bb_geo::CityId;
use bb_topology::{AsClass, AsId, BusinessRel, ExitPolicy, LinkKind, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Provider build-out knobs.
#[derive(Debug, Clone)]
pub struct ProviderConfig {
    pub seed: u64,
    pub name: String,
    /// Minimum country user count (millions) for the provider to place a
    /// PoP at the country's main metro (colo hubs always get one).
    pub pop_country_min_users_m: f64,
    /// Cap on total PoPs (largest markets first).
    pub max_pops: usize,
    /// Eyeballs with national user share ≥ this get a PNI.
    pub pni_min_share: f64,
    /// Eyeballs with share ≥ this (but < PNI threshold) peer publicly.
    pub public_peer_min_share: f64,
    /// Number of tier-1 transits bought at each PoP.
    pub transit_tier1s: usize,
    /// PNI capacity is provisioned at this multiple of the expected demand
    /// proxy (eyeball users). <1.0 under-provisions, creating the congested
    /// PNIs Edge Fabric exists to detour around.
    pub pni_capacity_factor: f64,
    /// Probability a transit AS meets the provider at only its single
    /// biggest shared metro rather than several spread-out ones ("remote
    /// peering"). For multi-region carriers this single point can be on
    /// another continent — a real source of anycast misdirection and the
    /// Fig 3 tail.
    pub remote_peering_prob: f64,
}

impl ProviderConfig {
    /// Facebook-like: dozens of PoPs, very wide PNI deployment (§2.3.1).
    pub fn facebook_like(seed: u64) -> Self {
        Self {
            seed,
            name: "cp-facebook-like".into(),
            pop_country_min_users_m: 40.0,
            max_pops: 28,
            pni_min_share: 0.12,
            public_peer_min_share: 0.03,
            transit_tier1s: 2,
            pni_capacity_factor: 1.0,
            remote_peering_prob: 0.3,
        }
    }

    /// Microsoft-2015-like: a few dozen front-end locations, and a far
    /// thinner direct-peering fabric than the 2019-era Facebook build-out —
    /// most client traffic reaches the CDN via transit, which is where
    /// anycast misdirection (the Fig 3 tail) comes from.
    pub fn microsoft_like(seed: u64) -> Self {
        Self {
            seed,
            name: "cp-microsoft-like".into(),
            pop_country_min_users_m: 50.0,
            max_pops: 36,
            pni_min_share: 2.0, // no PNIs: 2015-era edge, not a hypergiant's
            public_peer_min_share: 0.45,
            transit_tier1s: 2,
            pni_capacity_factor: 1.2,
            remote_peering_prob: 0.5,
        }
    }

    /// Google-like: very wide edge for the cloud-tiers study (§2.3.3).
    pub fn google_like(seed: u64) -> Self {
        Self {
            seed,
            name: "cp-google-like".into(),
            pop_country_min_users_m: 8.0,
            max_pops: 48,
            pni_min_share: 0.10,
            public_peer_min_share: 0.02,
            transit_tier1s: 3,
            pni_capacity_factor: 1.2,
            remote_peering_prob: 0.25,
        }
    }
}

/// The built provider: its AS, PoP cities, and WAN.
#[derive(Debug, Clone)]
pub struct Provider {
    pub asn: AsId,
    pub name: String,
    /// PoP cities, sorted.
    pub pops: Vec<CityId>,
    pub wan: Wan,
}

impl Provider {
    pub fn has_pop(&self, city: CityId) -> bool {
        self.pops.binary_search(&city).is_ok()
    }

    /// The PoP nearest to a city (great-circle).
    pub fn nearest_pop(&self, topo: &Topology, city: CityId) -> CityId {
        let loc = topo.atlas.city(city).location;
        *self
            .pops
            .iter()
            .min_by(|&&a, &&b| {
                let da = topo.atlas.city(a).location.distance_km(&loc);
                let db = topo.atlas.city(b).location.distance_km(&loc);
                da.total_cmp(&db)
            })
            .expect("provider has PoPs")
    }

    /// PoPs sorted by distance from a city.
    pub fn pops_by_distance(&self, topo: &Topology, city: CityId) -> Vec<(CityId, f64)> {
        let loc = topo.atlas.city(city).location;
        let mut v: Vec<(CityId, f64)> = self
            .pops
            .iter()
            .map(|&p| (p, topo.atlas.city(p).location.distance_km(&loc)))
            .collect();
        v.sort_by(|a, b| a.1.total_cmp(&b.1));
        v
    }
}

/// Attach a provider to the topology.
pub fn build_provider(topo: &mut Topology, cfg: &ProviderConfig) -> Provider {
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // --- PoP placement: colo hubs first, then metros by covered users;
    // large countries get several PoPs (real CDNs run many front-ends in
    // the US alone — the §2.3.2 study's front-end spacing implies it). ---
    let mut pops: Vec<(CityId, f64)> = Vec::new();
    for ci in 0..topo.atlas.countries.len() {
        let country = &topo.atlas.countries[ci];
        if !topo.atlas.main_metro(ci).colo_hub && country.users_m < cfg.pop_country_min_users_m {
            continue;
        }
        let per_country = 1
            + usize::from(country.users_m >= 25.0)
            + usize::from(country.users_m >= 60.0)
            + usize::from(country.users_m >= 150.0);
        let cities = topo.atlas.cities_of(ci);
        for city in cities.iter().take(per_country) {
            let covered = country.users_m * city.user_share;
            let hub_bonus = if city.colo_hub { 1e6 } else { 0.0 };
            pops.push((city.id, covered + hub_bonus));
        }
    }
    pops.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    pops.truncate(cfg.max_pops);
    let mut pop_cities: Vec<CityId> = pops.into_iter().map(|(c, _)| c).collect();
    pop_cities.sort();

    let asn = topo.add_as(
        AsClass::Content,
        cfg.name.clone(),
        pop_cities.clone(),
        ExitPolicy::LateExit,
        1.12,
        None,
        0.0,
    );

    // --- Tier-1 transit at every PoP. ---
    let tier1s: Vec<AsId> = topo.ases_of_class(AsClass::Tier1).map(|a| a.id).collect();
    for &t1 in tier1s.iter().take(cfg.transit_tier1s) {
        for &city in &pop_cities {
            if topo.asys(t1).present_in(city) {
                topo.add_interconnect(asn, t1, BusinessRel::CustomerOf, LinkKind::Transit, city, 4000.0);
            }
        }
    }

    // --- Public peering with transit ASes at shared PoPs. ---
    let transits: Vec<AsId> = topo.ases_of_class(AsClass::Transit).map(|a| a.id).collect();
    for tr in transits {
        let shared: Vec<CityId> = shared_cities(topo, tr, &pop_cities);
        // Remote peering: meet at the single biggest shared metro only —
        // which for a multi-region carrier may be far from many of its
        // customers. Multi-region wholesale carriers interconnect that way
        // structurally (they haul to a handful of exchange points); regional
        // transits only with some probability.
        let regions: std::collections::HashSet<_> = topo
            .asys(tr)
            .footprint
            .iter()
            .map(|&c| topo.atlas.city(c).region)
            .collect();
        let take = if regions.len() > 1 || rng.gen_bool(cfg.remote_peering_prob) {
            1
        } else {
            2
        };
        for &city in shared.iter().take(take) {
            topo.add_interconnect(asn, tr, BusinessRel::Peer, LinkKind::PublicPeering, city, 400.0);
        }
    }

    // --- Eyeball peering: PNIs for the big ones, IXP for the middle. ---
    let eyeballs: Vec<(AsId, f64, f64)> = topo
        .ases_of_class(AsClass::Eyeball)
        .map(|a| {
            let users = a
                .home_country
                .map(|c| topo.atlas.countries[c].users_m * a.user_share)
                .unwrap_or(0.0);
            (a.id, a.user_share, users)
        })
        .collect();
    for (eye, share, users_m) in eyeballs {
        let shared = shared_cities(topo, eye, &pop_cities);
        if shared.is_empty() {
            continue;
        }
        if share >= cfg.pni_min_share {
            let capacity = (users_m * 8.0 * cfg.pni_capacity_factor).max(40.0);
            for &city in shared.iter().take(3) {
                topo.add_interconnect(asn, eye, BusinessRel::Peer, LinkKind::PrivatePeering, city, capacity);
            }
        } else if share >= cfg.public_peer_min_share {
            // Middle-size eyeballs meet the provider at the biggest shared
            // exchange only.
            let city = shared[0];
            topo.add_interconnect(asn, eye, BusinessRel::Peer, LinkKind::PublicPeering, city, 80.0);
        }
    }

    let wan = Wan::generate(topo, &pop_cities);
    Provider {
        asn,
        name: cfg.name.clone(),
        pops: pop_cities,
        wan,
    }
}

fn shared_cities(topo: &Topology, asn: AsId, pops: &[CityId]) -> Vec<CityId> {
    let mut v: Vec<CityId> = topo
        .asys(asn)
        .footprint
        .iter()
        .copied()
        .filter(|c| pops.contains(c))
        .collect();
    // Biggest metros first (more users → more valuable interconnect).
    v.sort_by(|&a, &b| {
        topo.atlas
            .city_users_m(b)
            .total_cmp(&topo.atlas.city_users_m(a))
            .then(a.cmp(&b))
    });
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_topology::{generate, TopologyConfig};

    fn built() -> (Topology, Provider) {
        let mut topo = generate(&TopologyConfig::small(41));
        let p = build_provider(&mut topo, &ProviderConfig::facebook_like(1));
        (topo, p)
    }

    #[test]
    fn provider_has_pops_and_validates() {
        let (topo, p) = built();
        assert!(p.pops.len() >= 10, "got {}", p.pops.len());
        assert!(p.pops.len() <= 28);
        bb_topology::validate::validate(&topo).expect("topology still valid");
        assert_eq!(topo.asys(p.asn).class, AsClass::Content);
    }

    #[test]
    fn provider_buys_transit_at_pops() {
        let (topo, p) = built();
        let providers = topo.providers_of(p.asn);
        assert!(!providers.is_empty());
        for up in providers {
            assert_eq!(topo.asys(up).class, AsClass::Tier1);
        }
    }

    #[test]
    fn big_eyeballs_get_pnis() {
        let (topo, p) = built();
        let pni_count = topo
            .links()
            .iter()
            .filter(|l| {
                (l.a == p.asn || l.b == p.asn) && l.kind == LinkKind::PrivatePeering
            })
            .count();
        assert!(pni_count >= 10, "got {pni_count} PNIs");
    }

    #[test]
    fn peering_diversity_at_major_pops() {
        // §2.3.1: most PoPs should see ≥3 distinct neighbors.
        let (topo, p) = built();
        use std::collections::HashMap;
        let mut per_pop: HashMap<CityId, usize> = HashMap::new();
        for &(_, l) in topo.adjacency(p.asn) {
            *per_pop.entry(topo.link(l).city).or_insert(0) += 1;
        }
        let rich = per_pop.values().filter(|&&n| n >= 3).count();
        assert!(
            rich * 2 >= per_pop.len(),
            "at least half the PoPs need ≥3 interconnects ({rich}/{})",
            per_pop.len()
        );
    }

    #[test]
    fn nearest_pop_is_nearest() {
        let (topo, p) = built();
        let city = topo.atlas.cities.last().unwrap().id;
        let np = p.nearest_pop(&topo, city);
        let d_np = topo
            .atlas
            .city(np)
            .location
            .distance_km(&topo.atlas.city(city).location);
        for &pop in &p.pops {
            let d = topo
                .atlas
                .city(pop)
                .location
                .distance_km(&topo.atlas.city(city).location);
            assert!(d >= d_np - 1e-9);
        }
        let by_dist = p.pops_by_distance(&topo, city);
        assert_eq!(by_dist[0].0, np);
    }

    #[test]
    fn google_like_has_wider_edge_than_microsoft_like() {
        let mut t1 = generate(&TopologyConfig::small(41));
        let g = build_provider(&mut t1, &ProviderConfig::google_like(1));
        let mut t2 = generate(&TopologyConfig::small(41));
        let m = build_provider(&mut t2, &ProviderConfig::microsoft_like(1));
        assert!(g.pops.len() > m.pops.len());
    }

    #[test]
    fn wan_spans_all_pops() {
        let (_, p) = built();
        for &a in &p.pops {
            for &b in &p.pops {
                assert!(
                    p.wan.path_ms(a, b).is_some(),
                    "WAN must connect {a} to {b}"
                );
            }
        }
    }
}
