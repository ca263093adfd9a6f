//! Topology generator: tier-1 clique, regional transits, per-country
//! eyeballs.
//!
//! The generated graph is the substrate for all three studies. Content
//! provider ASes are *not* generated here — `bb-cdn` attaches them with the
//! peering policy each study calls for (PNIs into eyeballs for the Facebook
//! study, anycast announcement control for the Microsoft study, tier
//! selection for the Google study).

use crate::asys::{AsClass, ExitPolicy};
use crate::graph::Topology;
use crate::ids::AsId;
use crate::link::{BusinessRel, LinkKind};
use bb_geo::atlas::AtlasConfig;
use bb_geo::{Atlas, CityId, Region};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Knobs for topology generation. Defaults give a ~400-AS Internet that
/// runs Study A end-to-end in seconds; tests shrink it further.
#[derive(Debug, Clone)]
pub struct TopologyConfig {
    pub seed: u64,
    pub atlas: AtlasConfig,
    /// Number of global tier-1 backbones (real Internet: ~15).
    pub n_tier1: usize,
    /// Regional transit providers per region.
    pub transits_per_region: usize,
    /// Multi-region wholesale carriers (Cogent/HE-style: not tier-1s, but
    /// footprints spanning two regions). Their odd interconnection
    /// geography is a real-world source of anycast misdirection (§3.2.1's
    /// "it is known to not always pick nearby servers").
    pub global_transits: usize,
    /// One eyeball AS per this many million users in a country.
    pub eyeball_users_per_as_m: f64,
    /// Cap on eyeball ASes per country.
    pub max_eyeballs_per_country: usize,
    /// Tier-1 exit policy (see `AsClass` docs; §3.3.2 discusses late exit).
    pub tier1_exit: ExitPolicy,
}

impl Default for TopologyConfig {
    fn default() -> Self {
        Self {
            seed: 0x_beef_cafe,
            atlas: AtlasConfig::default(),
            n_tier1: 12,
            transits_per_region: 5,
            global_transits: 6,
            eyeball_users_per_as_m: 25.0,
            max_eyeballs_per_country: 12,
            tier1_exit: ExitPolicy::EarlyExit,
        }
    }
}

impl TopologyConfig {
    /// A small topology for fast tests (~100 ASes).
    pub fn small(seed: u64) -> Self {
        Self {
            seed,
            atlas: AtlasConfig {
                seed: seed ^ 0x5a5a,
                city_density: 0.4,
            },
            n_tier1: 6,
            transits_per_region: 3,
            global_transits: 3,
            eyeball_users_per_as_m: 120.0,
            max_eyeballs_per_country: 3,
            tier1_exit: ExitPolicy::EarlyExit,
        }
    }
}

/// Generate the Internet.
pub fn generate(cfg: &TopologyConfig) -> Topology {
    let atlas = Atlas::generate(&cfg.atlas);
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut topo = Topology::new(atlas);

    let tier1s = make_tier1s(&mut topo, &mut rng, cfg);
    mesh_tier1s(&mut topo, &mut rng, &tier1s);
    let (regional, global) = make_transits(&mut topo, &mut rng, cfg, &tier1s);
    let all_transits: Vec<AsId> = regional.iter().chain(&global).copied().collect();
    peer_transits(&mut topo, &mut rng, &all_transits);
    make_eyeballs(&mut topo, &mut rng, cfg, &regional, &global, &tier1s);

    topo
}

/// Tier-1 footprint: every colo hub plus main metros of large markets.
fn tier1_footprint(atlas: &Atlas) -> Vec<CityId> {
    let mut cities: Vec<CityId> = atlas.colo_hubs().map(|c| c.id).collect();
    for (ci, country) in atlas.countries.iter().enumerate() {
        if country.users_m >= 30.0 {
            cities.push(atlas.main_metro(ci).id);
        }
    }
    cities.sort();
    cities.dedup();
    cities
}

fn make_tier1s(topo: &mut Topology, rng: &mut StdRng, cfg: &TopologyConfig) -> Vec<AsId> {
    let footprint = tier1_footprint(&topo.atlas);
    (0..cfg.n_tier1)
        .map(|i| {
            let inflation = rng.gen_range(1.08..1.22);
            topo.add_as(
                AsClass::Tier1,
                format!("tier1-{i}"),
                footprint.clone(),
                cfg.tier1_exit,
                inflation,
                None,
                0.0,
            )
        })
        .collect()
}

/// Tier-1s peer pairwise at several shared hubs spread around the world.
fn mesh_tier1s(topo: &mut Topology, rng: &mut StdRng, tier1s: &[AsId]) {
    for (i, &a) in tier1s.iter().enumerate() {
        for &b in &tier1s[i + 1..] {
            let shared: Vec<CityId> = topo.asys(a).footprint.clone();
            let mut cities = shared;
            cities.shuffle(rng);
            for city in cities.into_iter().take(6) {
                topo.add_interconnect(a, b, BusinessRel::Peer, LinkKind::PrivatePeering, city, 10_000.0);
            }
        }
    }
}

/// Regional transit ASes: footprint covers most metros of the region,
/// customers of 2–3 tier-1s, inflation worse than tier-1s.
fn make_transits(
    topo: &mut Topology,
    rng: &mut StdRng,
    cfg: &TopologyConfig,
    tier1s: &[AsId],
) -> (Vec<AsId>, Vec<AsId>) {
    let mut transits = Vec::new();
    for region in Region::ALL {
        // Candidate cities: main metros + hubs of this region.
        let metros: Vec<CityId> = {
            let atlas = &topo.atlas;
            let mut v: Vec<CityId> = (0..atlas.countries.len())
                .filter(|&ci| atlas.countries[ci].region == region)
                .map(|ci| atlas.main_metro(ci).id)
                .collect();
            v.extend(
                atlas
                    .cities_in_region(region)
                    .filter(|c| c.colo_hub)
                    .map(|c| c.id),
            );
            v.sort();
            v.dedup();
            v
        };
        if metros.is_empty() {
            continue;
        }
        for t in 0..cfg.transits_per_region {
            // Each transit covers 60–100% of the region's metros.
            let mut cover = metros.clone();
            cover.shuffle(rng);
            let keep = ((cover.len() as f64) * rng.gen_range(0.6..1.0)).ceil() as usize;
            let mut footprint: Vec<CityId> = cover.into_iter().take(keep.max(1)).collect();
            footprint.sort();

            let inflation = rng.gen_range(1.15..1.38);
            let id = topo.add_as(
                AsClass::Transit,
                format!("transit-{}-{}", region.name().replace(' ', ""), t),
                footprint.clone(),
                ExitPolicy::EarlyExit,
                inflation,
                None,
                0.0,
            );

            // Buy transit from 2–3 tier-1s at up to two shared cities.
            let mut upstreams = tier1s.to_vec();
            upstreams.shuffle(rng);
            for &up in upstreams.iter().take(rng.gen_range(2..=3)) {
                let shared: Vec<CityId> = footprint
                    .iter()
                    .copied()
                    .filter(|&c| topo.asys(up).present_in(c))
                    .collect();
                for &city in shared.iter().take(2) {
                    topo.add_interconnect(
                        id,
                        up,
                        BusinessRel::CustomerOf,
                        LinkKind::Transit,
                        city,
                        rng.gen_range(500.0..2000.0),
                    );
                }
            }
            transits.push(id);
        }
    }

    // Multi-region wholesale carriers: big metros of two regions.
    let mut globals = Vec::new();
    for g in 0..cfg.global_transits {
        let mut regions = Region::ALL.to_vec();
        regions.shuffle(rng);
        let span = &regions[..2];
        let mut footprint: Vec<CityId> = Vec::new();
        for (ci, country) in topo.atlas.countries.iter().enumerate() {
            if span.contains(&country.region)
                && (country.users_m >= 30.0 || topo.atlas.main_metro(ci).colo_hub)
            {
                footprint.push(topo.atlas.main_metro(ci).id);
            }
        }
        footprint.sort();
        footprint.dedup();
        if footprint.len() < 2 {
            continue;
        }
        let inflation = rng.gen_range(1.18..1.4);
        let id = topo.add_as(
            AsClass::Transit,
            format!("gtransit-{g}"),
            footprint.clone(),
            ExitPolicy::EarlyExit,
            inflation,
            None,
            0.0,
        );
        let mut upstreams = tier1s.to_vec();
        upstreams.shuffle(rng);
        for &up in upstreams.iter().take(rng.gen_range(2..=3)) {
            let shared: Vec<CityId> = footprint
                .iter()
                .copied()
                .filter(|&c| topo.asys(up).present_in(c))
                .collect();
            for &city in shared.iter().take(3) {
                topo.add_interconnect(
                    id,
                    up,
                    BusinessRel::CustomerOf,
                    LinkKind::Transit,
                    city,
                    rng.gen_range(500.0..2000.0),
                );
            }
        }
        globals.push(id);
    }
    (transits, globals)
}

/// Transits peer with the other transits of their region at shared cities
/// (public exchanges), and occasionally across regions.
fn peer_transits(topo: &mut Topology, rng: &mut StdRng, transits: &[AsId]) {
    for (i, &a) in transits.iter().enumerate() {
        for &b in &transits[i + 1..] {
            let shared: Vec<CityId> = {
                let fa = &topo.asys(a).footprint;
                let fb = &topo.asys(b).footprint;
                fa.iter().copied().filter(|c| fb.contains(c)).collect()
            };
            if shared.is_empty() {
                continue;
            }
            let same_region =
                topo.atlas.city(shared[0]).region == topo.atlas.city(*topo.asys(a).footprint.first().unwrap()).region;
            let p = if same_region { 0.7 } else { 0.15 };
            if rng.gen_bool(p) {
                for &city in shared.iter().take(2) {
                    topo.add_interconnect(
                        a,
                        b,
                        BusinessRel::Peer,
                        LinkKind::PublicPeering,
                        city,
                        rng.gen_range(100.0..600.0),
                    );
                }
            }
        }
    }
}

/// Eyeball ASes: per-country access networks with Zipf user shares.
fn make_eyeballs(
    topo: &mut Topology,
    rng: &mut StdRng,
    cfg: &TopologyConfig,
    transits: &[AsId],
    global_transits: &[AsId],
    tier1s: &[AsId],
) {
    for ci in 0..topo.atlas.countries.len() {
        let country = topo.atlas.countries[ci].clone();
        let n = ((country.users_m / cfg.eyeball_users_per_as_m).ceil() as usize)
            .clamp(1, cfg.max_eyeballs_per_country);
        let shares = zipf_shares(n);
        let cities: Vec<CityId> = topo.atlas.cities_of(ci).iter().map(|c| c.id).collect();
        let main = cities[0];

        for (k, &share) in shares.iter().enumerate() {
            // The biggest eyeball covers the whole country; smaller ones a
            // shrinking subset (always including the main metro where their
            // transit interconnects live).
            let mut footprint: Vec<CityId> = if k == 0 {
                cities.clone()
            } else {
                let take = (cities.len() as f64 * (1.0 / (k as f64 + 1.0))).ceil() as usize;
                let mut rest: Vec<CityId> = cities[1..].to_vec();
                rest.shuffle(rng);
                let mut f = vec![main];
                f.extend(rest.into_iter().take(take.max(1)));
                f
            };
            footprint.sort();
            footprint.dedup();

            let inflation = rng.gen_range(1.25..1.6);
            let id = topo.add_as(
                AsClass::Eyeball,
                format!("eyeball-{}-{}", country.code, k),
                footprint,
                ExitPolicy::EarlyExit,
                inflation,
                Some(ci),
                share,
            );

            // Buy transit from 2–3 regional transits present at the main
            // metro (fall back to any transit sharing a city, then tier-1s).
            let mut candidates: Vec<AsId> = transits
                .iter()
                .copied()
                .filter(|&t| topo.asys(t).present_in(main))
                .collect();
            candidates.shuffle(rng);
            let mut chosen: Vec<AsId> = candidates.into_iter().take(rng.gen_range(2..=3)).collect();
            // Wholesale carriers are cheap: many access networks buy from
            // one in addition to (or instead of) regional transit.
            if rng.gen_bool(0.45) {
                let mut gl: Vec<AsId> = global_transits
                    .iter()
                    .copied()
                    .filter(|&g| topo.asys(g).present_in(main) && !chosen.contains(&g))
                    .collect();
                gl.shuffle(rng);
                if let Some(g) = gl.first() {
                    if chosen.len() >= 2 {
                        chosen.pop();
                    }
                    chosen.push(*g);
                }
            }
            if chosen.is_empty() {
                // Tiny markets: fall back to any tier-1 present in-country.
                chosen = tier1s
                    .iter()
                    .copied()
                    .filter(|&t| topo.asys(t).present_in(main))
                    .take(1)
                    .collect();
            }
            if chosen.is_empty() {
                // Still nothing local: the nearest same-region transit
                // builds out a PoP in this metro to win the customer.
                let metro_loc = topo.atlas.city(main).location;
                let nearest = transits
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        let da = nearest_footprint_km(topo, a, metro_loc);
                        let db = nearest_footprint_km(topo, b, metro_loc);
                        da.total_cmp(&db)
                    })
                    .expect("at least one transit exists");
                topo.extend_footprint(nearest, main);
                chosen = vec![nearest];
            }
            let capacity = 20.0 + country.users_m * share * 10.0;
            for up in chosen {
                topo.add_interconnect(id, up, BusinessRel::CustomerOf, LinkKind::Transit, main, capacity);
            }

            // Large national eyeballs also buy from one tier-1 directly if
            // one is present locally.
            if share >= 0.3 {
                if let Some(&t1) = tier1s.iter().find(|&&t| topo.asys(t).present_in(main)) {
                    if topo.relationship(id, t1).is_none() {
                        topo.add_interconnect(id, t1, BusinessRel::CustomerOf, LinkKind::Transit, main, capacity);
                    }
                }
            }
        }
    }
}

/// Distance from `loc` to the closest footprint city of `asn`.
fn nearest_footprint_km(topo: &Topology, asn: AsId, loc: bb_geo::GeoPoint) -> f64 {
    topo.asys(asn)
        .footprint
        .iter()
        .map(|&c| topo.atlas.city(c).location.distance_km(&loc))
        .fold(f64::INFINITY, f64::min)
}

fn zipf_shares(n: usize) -> Vec<f64> {
    let raw: Vec<f64> = (1..=n).map(|k| 1.0 / k as f64).collect();
    let total: f64 = raw.iter().sum();
    raw.into_iter().map(|x| x / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;

    #[test]
    fn default_topology_validates() {
        let topo = generate(&TopologyConfig::default());
        validate(&topo).expect("default topology must validate");
        assert!(topo.as_count() > 200, "got {}", topo.as_count());
        assert!(topo.link_count() > 500, "got {}", topo.link_count());
    }

    #[test]
    fn small_topology_validates() {
        let topo = generate(&TopologyConfig::small(3));
        validate(&topo).expect("small topology must validate");
        assert!(topo.as_count() >= 50);
    }

    #[test]
    fn deterministic() {
        let a = generate(&TopologyConfig::small(9));
        let b = generate(&TopologyConfig::small(9));
        assert_eq!(a.as_count(), b.as_count());
        assert_eq!(a.link_count(), b.link_count());
        for (x, y) in a.links().iter().zip(b.links()) {
            assert_eq!(x.a, y.a);
            assert_eq!(x.b, y.b);
            assert_eq!(x.city, y.city);
        }
    }

    #[test]
    fn tier1s_form_full_peer_mesh() {
        let topo = generate(&TopologyConfig::small(5));
        let tier1s: Vec<AsId> = topo.ases_of_class(AsClass::Tier1).map(|a| a.id).collect();
        for (i, &a) in tier1s.iter().enumerate() {
            for &b in &tier1s[i + 1..] {
                assert_eq!(
                    topo.relationship(a, b),
                    Some(BusinessRel::Peer),
                    "{a} and {b} must peer"
                );
            }
        }
    }

    #[test]
    fn every_eyeball_has_a_provider() {
        let topo = generate(&TopologyConfig::default());
        for eye in topo.ases_of_class(AsClass::Eyeball) {
            assert!(
                !topo.providers_of(eye.id).is_empty(),
                "{} lacks providers",
                eye.name
            );
        }
    }

    #[test]
    fn eyeball_user_shares_sum_to_one_per_country() {
        let topo = generate(&TopologyConfig::default());
        for ci in 0..topo.atlas.countries.len() {
            let s: f64 = topo
                .ases_of_class(AsClass::Eyeball)
                .filter(|a| a.home_country == Some(ci))
                .map(|a| a.user_share)
                .sum();
            assert!((s - 1.0).abs() < 1e-9, "country {ci}: {s}");
        }
    }

    #[test]
    fn transits_have_tier1_upstreams() {
        let topo = generate(&TopologyConfig::default());
        for t in topo.ases_of_class(AsClass::Transit) {
            let ups = topo.providers_of(t.id);
            assert!(!ups.is_empty(), "{} lacks upstreams", t.name);
            for up in ups {
                assert_eq!(topo.asys(up).class, AsClass::Tier1);
            }
        }
    }

    #[test]
    fn links_respect_footprints() {
        let topo = generate(&TopologyConfig::default());
        for l in topo.links() {
            assert!(topo.asys(l.a).present_in(l.city));
            assert!(topo.asys(l.b).present_in(l.city));
        }
    }

    #[test]
    fn no_content_ases_generated() {
        let topo = generate(&TopologyConfig::default());
        assert_eq!(topo.ases_of_class(AsClass::Content).count(), 0);
    }
}
