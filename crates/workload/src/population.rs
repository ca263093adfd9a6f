//! Workload generation: prefixes, weights, resolver assignment.

use crate::ldns::{Ldns, LdnsId, LdnsKind};
use crate::prefix::{ClientPrefix, PrefixId};
use bb_geo::CityId;
use bb_topology::{AsClass, AsId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Workload generation knobs.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    pub seed: u64,
    /// Log-normal sigma of per-prefix activity (spread of traffic weights
    /// beyond raw user counts).
    pub activity_sigma: f64,
    /// Fraction of clients using the public resolver instead of their ISP's.
    pub public_resolver_fraction: f64,
    /// Fraction of ISP resolvers that send EDNS Client Subnet. §3.2.1:
    /// "its adoption by ISPs is virtually non-existent (< 0.1% of ASes)" —
    /// hence the default; the X-ECS sweep raises it.
    pub isp_ecs_fraction: f64,
    /// Access-rate range, Mbps.
    pub access_mbps: (f64, f64),
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        Self {
            seed: 0x_90ad_5eed,
            activity_sigma: 0.6,
            public_resolver_fraction: 0.15,
            isp_ecs_fraction: 0.001,
            access_mbps: (20.0, 200.0),
        }
    }
}

/// Prefixes, resolvers, and the client→resolver split.
#[derive(Debug, Clone)]
pub struct Workload {
    pub prefixes: Vec<ClientPrefix>,
    pub ldns: Vec<Ldns>,
    /// Per prefix: (resolver, fraction of that prefix's clients) pairs;
    /// fractions sum to 1.
    pub prefix_ldns: Vec<Vec<(LdnsId, f64)>>,
}

impl Workload {
    pub fn prefix(&self, id: PrefixId) -> &ClientPrefix {
        &self.prefixes[id.index()]
    }

    /// Total traffic weight (≈ 1.0).
    pub fn total_weight(&self) -> f64 {
        self.prefixes.iter().map(|p| p.weight).sum()
    }

    /// The resolvers of one prefix.
    pub fn resolvers_of(&self, id: PrefixId) -> &[(LdnsId, f64)] {
        &self.prefix_ldns[id.index()]
    }

    /// All prefixes using a resolver, with the client fraction each
    /// contributes (the resolver's catchment — what per-LDNS prediction
    /// aggregates over).
    pub fn clients_of_ldns(&self, ldns: LdnsId) -> Vec<(PrefixId, f64)> {
        let mut v = Vec::new();
        for (i, assignments) in self.prefix_ldns.iter().enumerate() {
            for &(l, frac) in assignments {
                if l == ldns {
                    let pid = PrefixId(i as u32);
                    v.push((pid, frac * self.prefixes[i].weight));
                }
            }
        }
        v
    }
}

/// Generate the workload from a topology's eyeball ASes.
///
/// Each ⟨eyeball AS, footprint city⟩ pair becomes one prefix. City user
/// mass is split among the eyeballs present in the city proportionally to
/// their national user share; traffic weight additionally gets a log-normal
/// activity factor and is normalized to sum to 1.
pub fn generate_workload(topo: &Topology, cfg: &WorkloadConfig) -> Workload {
    let mut rng = StdRng::seed_from_u64(cfg.seed);

    // Share of each city's users claimed by each eyeball present there.
    let mut city_total_share: HashMap<CityId, f64> = HashMap::new();
    for eye in topo.ases_of_class(AsClass::Eyeball) {
        for &city in &eye.footprint {
            *city_total_share.entry(city).or_insert(0.0) += eye.user_share;
        }
    }

    let mut prefixes = Vec::new();
    for eye in topo.ases_of_class(AsClass::Eyeball) {
        for &city in &eye.footprint {
            let city_users = topo.atlas.city_users_m(city);
            let denom = city_total_share[&city];
            let users_m = city_users * eye.user_share / denom;
            if users_m <= 0.0 {
                continue;
            }
            // Log-normal activity factor.
            let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
            let u2: f64 = rng.gen::<f64>();
            let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
            let activity = (cfg.activity_sigma * z).exp();
            let access = rng.gen_range(cfg.access_mbps.0..cfg.access_mbps.1);
            prefixes.push(ClientPrefix {
                id: PrefixId(prefixes.len() as u32),
                asn: eye.id,
                city,
                weight: users_m * activity, // normalized below
                users_m,
                access_mbps: access,
            });
        }
    }
    let total: f64 = prefixes.iter().map(|p| p.weight).sum();
    for p in &mut prefixes {
        p.weight /= total;
    }

    // Resolvers: one per eyeball AS + one public. ECS adoption is drawn
    // from a dedicated RNG stream so changing the fraction does not
    // perturb prefix generation.
    let mut ecs_rng = StdRng::seed_from_u64(cfg.seed ^ 0x_ec5);
    let mut ldns = Vec::new();
    let mut isp_ldns: HashMap<AsId, LdnsId> = HashMap::new();
    for eye in topo.ases_of_class(AsClass::Eyeball) {
        let id = LdnsId(ldns.len() as u32);
        ldns.push(Ldns {
            id,
            kind: LdnsKind::Isp(eye.id),
            sends_ecs: cfg.isp_ecs_fraction > 0.0 && ecs_rng.gen_bool(cfg.isp_ecs_fraction),
        });
        isp_ldns.insert(eye.id, id);
    }
    let public_id = LdnsId(ldns.len() as u32);
    ldns.push(Ldns {
        id: public_id,
        kind: LdnsKind::Public,
        sends_ecs: true,
    });

    let prefix_ldns = prefixes
        .iter()
        .map(|p| {
            let isp = isp_ldns[&p.asn];
            let pf = cfg.public_resolver_fraction;
            if pf > 0.0 {
                vec![(isp, 1.0 - pf), (public_id, pf)]
            } else {
                vec![(isp, 1.0)]
            }
        })
        .collect();

    Workload {
        prefixes,
        ldns,
        prefix_ldns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_topology::{generate, TopologyConfig};

    fn workload() -> (Topology, Workload) {
        let topo = generate(&TopologyConfig::small(23));
        let w = generate_workload(&topo, &WorkloadConfig::default());
        (topo, w)
    }

    #[test]
    fn weights_normalized() {
        let (_, w) = workload();
        assert!((w.total_weight() - 1.0).abs() < 1e-9);
        assert!(w.prefixes.iter().all(|p| p.weight > 0.0));
    }

    #[test]
    fn every_eyeball_has_prefixes() {
        let (topo, w) = workload();
        for eye in topo.ases_of_class(AsClass::Eyeball) {
            assert!(
                w.prefixes.iter().any(|p| p.asn == eye.id),
                "{} must have prefixes",
                eye.name
            );
        }
    }

    #[test]
    fn prefix_cities_are_in_as_footprint() {
        let (topo, w) = workload();
        for p in &w.prefixes {
            assert!(topo.asys(p.asn).present_in(p.city));
        }
    }

    #[test]
    fn user_mass_conserved_per_city() {
        let (topo, w) = workload();
        // Users across prefixes of one city must equal city users (when any
        // eyeball covers the city).
        let mut per_city: HashMap<CityId, f64> = HashMap::new();
        for p in &w.prefixes {
            *per_city.entry(p.city).or_insert(0.0) += p.users_m;
        }
        for (&city, &users) in &per_city {
            let expect = topo.atlas.city_users_m(city);
            assert!(
                (users - expect).abs() < 1e-9,
                "city {city}: {users} vs {expect}"
            );
        }
    }

    #[test]
    fn resolver_fractions_sum_to_one() {
        let (_, w) = workload();
        for (i, a) in w.prefix_ldns.iter().enumerate() {
            let s: f64 = a.iter().map(|&(_, f)| f).sum();
            assert!((s - 1.0).abs() < 1e-12, "prefix {i}");
        }
    }

    #[test]
    fn isp_resolver_serves_only_its_as() {
        let (_, w) = workload();
        for l in &w.ldns {
            if let LdnsKind::Isp(asn) = l.kind {
                for (pid, _) in w.clients_of_ldns(l.id) {
                    assert_eq!(w.prefix(pid).asn, asn);
                }
            }
        }
    }

    #[test]
    fn public_resolver_serves_many_ases() {
        let (_, w) = workload();
        let public = w.ldns.iter().find(|l| l.kind == LdnsKind::Public).unwrap();
        let clients = w.clients_of_ldns(public.id);
        let ases: std::collections::HashSet<AsId> =
            clients.iter().map(|&(p, _)| w.prefix(p).asn).collect();
        assert!(ases.len() > 10, "public resolver must be widely used");
    }

    #[test]
    fn deterministic() {
        let topo = generate(&TopologyConfig::small(23));
        let a = generate_workload(&topo, &WorkloadConfig::default());
        let b = generate_workload(&topo, &WorkloadConfig::default());
        assert_eq!(a.prefixes.len(), b.prefixes.len());
        for (x, y) in a.prefixes.iter().zip(&b.prefixes) {
            assert_eq!(x.weight, y.weight);
        }
    }

    #[test]
    fn zero_public_fraction_gives_single_resolver() {
        let topo = generate(&TopologyConfig::small(23));
        let w = generate_workload(
            &topo,
            &WorkloadConfig {
                public_resolver_fraction: 0.0,
                ..Default::default()
            },
        );
        for a in &w.prefix_ldns {
            assert_eq!(a.len(), 1);
        }
    }
}
