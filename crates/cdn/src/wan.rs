//! The provider's private WAN.
//!
//! An explicit link graph over the PoP cities, not a distance oracle: WAN
//! routes follow the cable build-out, which is exactly why §3.3.2's India
//! finding happens — "Google's WAN carries traffic from India east across
//! the Pacific Ocean to reach North America", while the public path rides
//! one Tier-1 west via Europe. We therefore wire South Asia to the WAN via
//! Singapore only (as the real build-out of the time did), and leave the
//! Europe↔South-Asia segment to the public Internet.

use bb_geo::CityId;
use bb_topology::Topology;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// WAN fiber path inflation over great circle (well-engineered backbone).
pub const WAN_INFLATION: f64 = 1.08;

/// Inter-region backbone segments, by country code pairs. Both endpoints
/// must be PoPs for a segment to materialize. Note the deliberate absence
/// of any Europe/Middle-East ↔ South-Asia segment (see module docs).
const BACKBONE: &[(&str, &str)] = &[
    ("US", "GB"), // transatlantic
    ("US", "JP"), // transpacific north
    ("US", "BR"), // Americas
    ("US", "AU"), // transpacific south
    ("GB", "FR"),
    ("GB", "DE"),
    ("FR", "ZA"), // west-Africa cable
    ("ES", "MA"), // Gibraltar crossing
    ("IT", "EG"), // Mediterranean cable
    ("DE", "TR"), // Europe–Anatolia terrestrial
    ("DE", "AE"), // Europe–Gulf
    ("US", "MX"),
    ("US", "CO"), // Caribbean cables
    ("SG", "IN"), // South Asia hangs off Singapore
    ("SG", "JP"),
    ("SG", "AU"),
    ("SG", "HK"),
    ("HK", "JP"),
    ("AE", "SG"), // Gulf eastwards
];

/// One WAN link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanLink {
    pub a: CityId,
    pub b: CityId,
    pub km: f64,
}

/// The WAN graph, compiled when it is built into an all-pairs table of
/// one-way latencies and best-path predecessors.
#[derive(Debug, Clone)]
pub struct Wan {
    nodes: Vec<CityId>,
    links: Vec<WanLink>,
    /// node index → (neighbor index, link index)
    adj: Vec<Vec<(usize, usize)>>,
    /// `CityId` index → node index; [`NOT_A_POP`] for a city without a PoP.
    slot: Vec<u32>,
    /// Row-major n×n one-way latency, ms: source row × destination column.
    dist: Vec<f64>,
    /// Row-major n×n predecessor of each destination on the source row's
    /// best path ([`NOT_A_POP`] on the diagonal and when unreachable).
    prev: Vec<u32>,
}

const NOT_A_POP: u32 = u32::MAX;

impl Wan {
    /// Build the WAN over `pops`: intra-region nearest-neighbor links plus
    /// the fixed inter-region backbone, patched to connectivity, then
    /// compiled into its all-pairs table.
    pub fn generate(topo: &Topology, pops: &[CityId]) -> Wan {
        let nodes: Vec<CityId> = pops.to_vec();
        let slot = slots(&nodes);
        let mut links: Vec<WanLink> = Vec::new();
        let mut have: std::collections::HashSet<(usize, usize)> = Default::default();

        let add = |links: &mut Vec<WanLink>,
                       have: &mut std::collections::HashSet<(usize, usize)>,
                       i: usize,
                       j: usize| {
            if i == j {
                return;
            }
            let key = (i.min(j), i.max(j));
            if !have.insert(key) {
                return;
            }
            let km = topo
                .atlas
                .city(nodes[i])
                .location
                .distance_km(&topo.atlas.city(nodes[j]).location);
            links.push(WanLink {
                a: nodes[key.0],
                b: nodes[key.1],
                km,
            });
        };

        // Intra-region: connect each PoP to its 2 nearest same-region PoPs.
        for (i, &ci) in nodes.iter().enumerate() {
            let region = topo.atlas.city(ci).region;
            let mut same: Vec<(usize, f64)> = nodes
                .iter()
                .enumerate()
                .filter(|&(j, &cj)| j != i && topo.atlas.city(cj).region == region)
                .map(|(j, &cj)| {
                    (
                        j,
                        topo.atlas
                            .city(ci)
                            .location
                            .distance_km(&topo.atlas.city(cj).location),
                    )
                })
                .collect();
            same.sort_by(|a, b| a.1.total_cmp(&b.1));
            for &(j, _) in same.iter().take(2) {
                add(&mut links, &mut have, i, j);
            }
        }

        // Inter-region backbone.
        for &(ca, cb) in BACKBONE {
            let pa = bb_geo::country::by_code(ca)
                .and_then(|(ci, _)| slot_of(&slot, topo.atlas.main_metro(ci).id));
            let pb = bb_geo::country::by_code(cb)
                .and_then(|(ci, _)| slot_of(&slot, topo.atlas.main_metro(ci).id));
            if let (Some(a), Some(b)) = (pa, pb) {
                add(&mut links, &mut have, a, b);
            }
        }

        let mut wan = Wan::from_parts(nodes, slot, links);
        wan.patch_connectivity(topo);
        wan.compile();
        wan
    }

    fn from_parts(nodes: Vec<CityId>, slot: Vec<u32>, links: Vec<WanLink>) -> Wan {
        let mut adj = vec![Vec::new(); nodes.len()];
        for (li, l) in links.iter().enumerate() {
            let (i, j) = (slot[l.a.index()] as usize, slot[l.b.index()] as usize);
            adj[i].push((j, li));
            adj[j].push((i, li));
        }
        Wan {
            nodes,
            links,
            adj,
            slot,
            dist: Vec::new(),
            prev: Vec::new(),
        }
    }

    /// Join disconnected components with the shortest cross-component link.
    fn patch_connectivity(&mut self, topo: &Topology) {
        loop {
            let comp = self.components();
            let n_comp = *comp.iter().max().unwrap_or(&0) + 1;
            if n_comp <= 1 {
                return;
            }
            // Find the closest pair across component 0 and any other.
            let mut best: Option<(usize, usize, f64)> = None;
            for i in 0..self.nodes.len() {
                for j in 0..self.nodes.len() {
                    if comp[i] == 0 && comp[j] != 0 {
                        let km = topo
                            .atlas
                            .city(self.nodes[i])
                            .location
                            .distance_km(&topo.atlas.city(self.nodes[j]).location);
                        if best.is_none_or(|(_, _, b)| km < b) {
                            best = Some((i, j, km));
                        }
                    }
                }
            }
            let (i, j, km) = best.expect("multiple components imply a cross pair");
            let li = self.links.len();
            self.links.push(WanLink {
                a: self.nodes[i],
                b: self.nodes[j],
                km,
            });
            self.adj[i].push((j, li));
            self.adj[j].push((i, li));
        }
    }

    fn components(&self) -> Vec<usize> {
        let mut comp = vec![usize::MAX; self.nodes.len()];
        let mut next = 0;
        for start in 0..self.nodes.len() {
            if comp[start] != usize::MAX {
                continue;
            }
            let mut stack = vec![start];
            comp[start] = next;
            while let Some(u) = stack.pop() {
                for &(v, _) in &self.adj[u] {
                    if comp[v] == usize::MAX {
                        comp[v] = next;
                        stack.push(v);
                    }
                }
            }
            next += 1;
        }
        comp
    }

    pub fn nodes(&self) -> &[CityId] {
        &self.nodes
    }

    pub fn links(&self) -> &[WanLink] {
        &self.links
    }

    fn node_index(&self, c: CityId) -> Option<usize> {
        slot_of(&self.slot, c)
    }

    /// One-way WAN latency between two PoPs, ms (shortest path over link
    /// latencies). `None` if either city is not a PoP.
    pub fn path_ms(&self, from: CityId, to: CityId) -> Option<f64> {
        let (src, dst) = (self.node_index(from)?, self.node_index(to)?);
        let ms = self.dist[src * self.nodes.len() + dst];
        (!ms.is_infinite()).then_some(ms)
    }

    /// The city waypoints of the best WAN path.
    pub fn path(&self, from: CityId, to: CityId) -> Option<Vec<CityId>> {
        let (src, dst) = (self.node_index(from)?, self.node_index(to)?);
        let n = self.nodes.len();
        if self.dist[src * n + dst].is_infinite() {
            return None;
        }
        let prev = &self.prev[src * n..(src + 1) * n];
        let mut path = vec![self.nodes[dst]];
        let mut cur = dst;
        while cur != src {
            cur = prev[cur] as usize;
            path.push(self.nodes[cur]);
        }
        path.reverse();
        Some(path)
    }

    /// Fill the all-pairs table: one full single-source Dijkstra per PoP.
    /// A destination's distance is final when it is popped, and later
    /// relaxations only replace on a strictly shorter sum, so each entry
    /// (and its predecessor chain) has the bits an early-exit search for
    /// that one pair would return. a→b and b→a are searched separately:
    /// their sums run in opposite orders and may differ in the last bit.
    fn compile(&mut self) {
        let n = self.nodes.len();
        let weight: Vec<f64> = self
            .links
            .iter()
            .map(|l| bb_geo::propagation_delay_ms(l.km, WAN_INFLATION))
            .collect();
        self.dist = vec![f64::INFINITY; n * n];
        self.prev = vec![NOT_A_POP; n * n];
        // Min-heap on (dist, node) via the ordered bits of non-negative floats.
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for src in 0..n {
            let dist = &mut self.dist[src * n..(src + 1) * n];
            let prev = &mut self.prev[src * n..(src + 1) * n];
            dist[src] = 0.0;
            heap.push(Reverse((0, src)));
            while let Some(Reverse((dbits, u))) = heap.pop() {
                let d = f64::from_bits(dbits);
                if d > dist[u] {
                    continue;
                }
                for &(v, li) in &self.adj[u] {
                    let nd = d + weight[li];
                    if nd < dist[v] {
                        dist[v] = nd;
                        prev[v] = u as u32;
                        heap.push(Reverse((nd.to_bits(), v)));
                    }
                }
            }
        }
        bb_exec::timing::add_count("wan:dijkstra", n);
    }
}

/// `CityId` index → position in `nodes`, [`NOT_A_POP`] elsewhere.
fn slots(nodes: &[CityId]) -> Vec<u32> {
    let len = nodes.iter().map(|c| c.index() + 1).max().unwrap_or(0);
    let mut slot = vec![NOT_A_POP; len];
    for (i, c) in nodes.iter().enumerate() {
        slot[c.index()] = i as u32;
    }
    slot
}

fn slot_of(slot: &[u32], c: CityId) -> Option<usize> {
    match slot.get(c.index()) {
        Some(&i) if i != NOT_A_POP => Some(i as usize),
        _ => None,
    }
}

#[cfg(test)]
impl Wan {
    /// The reference search the all-pairs table replaced: one early-exit
    /// Dijkstra per query, link weights recomputed on every relaxation,
    /// endpoints found by a scan of `nodes` rather than the slot table.
    fn early_exit_dijkstra(&self, from: CityId, to: CityId) -> Option<(Vec<CityId>, f64)> {
        let src = self.nodes.iter().position(|&n| n == from)?;
        let dst = self.nodes.iter().position(|&n| n == to)?;
        let n = self.nodes.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev = vec![usize::MAX; n];
        dist[src] = 0.0;
        // Max-heap on Reverse-ordered (dist, node) via ordered float bits.
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = BinaryHeap::new();
        heap.push(std::cmp::Reverse((0, src)));
        while let Some(std::cmp::Reverse((dbits, u))) = heap.pop() {
            let d = f64::from_bits(dbits);
            if d > dist[u] {
                continue;
            }
            if u == dst {
                break;
            }
            for &(v, li) in &self.adj[u] {
                let w = bb_geo::propagation_delay_ms(self.links[li].km, WAN_INFLATION);
                let nd = d + w;
                if nd < dist[v] {
                    dist[v] = nd;
                    prev[v] = u;
                    heap.push(std::cmp::Reverse((nd.to_bits(), v)));
                }
            }
        }
        if dist[dst].is_infinite() {
            return None;
        }
        let mut path = vec![self.nodes[dst]];
        let mut cur = dst;
        while cur != src {
            cur = prev[cur];
            path.push(self.nodes[cur]);
        }
        path.reverse();
        Some((path, dist[dst]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::provider::{build_provider, ProviderConfig};
    use bb_topology::{generate, TopologyConfig};

    fn world() -> (Topology, crate::provider::Provider) {
        let mut topo = generate(&TopologyConfig::small(43));
        let p = build_provider(&mut topo, &ProviderConfig::google_like(2));
        (topo, p)
    }

    #[test]
    fn wan_is_connected() {
        let (_, p) = world();
        let pops = p.pops.clone();
        for &a in &pops {
            assert!(p.wan.path_ms(pops[0], a).is_some());
        }
    }

    #[test]
    fn zero_length_path_to_self() {
        let (_, p) = world();
        let a = p.pops[0];
        assert_eq!(p.wan.path_ms(a, a), Some(0.0));
        assert_eq!(p.wan.path(a, a).unwrap(), vec![a]);
    }

    #[test]
    fn non_pop_city_has_no_wan_path() {
        let (topo, p) = world();
        let non_pop = topo
            .atlas
            .cities
            .iter()
            .map(|c| c.id)
            .find(|c| !p.pops.contains(c))
            .unwrap();
        assert!(p.wan.path_ms(non_pop, p.pops[0]).is_none());
    }

    #[test]
    fn wan_latency_at_least_great_circle() {
        let (topo, p) = world();
        for &a in p.pops.iter().take(8) {
            for &b in p.pops.iter().take(8) {
                if a == b {
                    continue;
                }
                let wan_ms = p.wan.path_ms(a, b).unwrap();
                let gc = topo
                    .atlas
                    .city(a)
                    .location
                    .distance_km(&topo.atlas.city(b).location);
                let floor = bb_geo::propagation_delay_ms(gc, 1.0);
                assert!(
                    wan_ms >= floor - 1e-9,
                    "WAN {wan_ms} ms < great-circle floor {floor} ms"
                );
            }
        }
    }

    #[test]
    fn triangle_inequality_via_intermediate() {
        let (_, p) = world();
        let pops = &p.pops;
        let (a, b, c) = (pops[0], pops[1], pops[2]);
        let ab = p.wan.path_ms(a, b).unwrap();
        let bc = p.wan.path_ms(b, c).unwrap();
        let ac = p.wan.path_ms(a, c).unwrap();
        assert!(ac <= ab + bc + 1e-9);
    }

    /// The compiled table answers every ordered pair, a→a and cities
    /// without a PoP included, with the bits and waypoints of the
    /// early-exit search it replaced, for all three provider shapes at
    /// small and full topology.
    #[test]
    fn table_matches_early_exit_search_bit_for_bit() {
        let shapes: [fn(u64) -> ProviderConfig; 3] = [
            ProviderConfig::facebook_like,
            ProviderConfig::microsoft_like,
            ProviderConfig::google_like,
        ];
        let full = TopologyConfig {
            seed: 7,
            ..Default::default()
        };
        for topo_cfg in [TopologyConfig::small(43), full] {
            for shape in shapes {
                let mut topo = generate(&topo_cfg);
                let p = build_provider(&mut topo, &shape(topo_cfg.seed));
                let mut cities = p.pops.clone();
                cities.extend(
                    topo.atlas
                        .cities
                        .iter()
                        .map(|c| c.id)
                        .filter(|&c| !p.has_pop(c))
                        .take(8),
                );
                assert!(cities.len() > p.pops.len(), "{}: no non-PoP city", p.name);
                cities.push(CityId(u32::MAX));
                for &a in &cities {
                    for &b in &cities {
                        let want = p.wan.early_exit_dijkstra(a, b);
                        assert_eq!(
                            p.wan.path_ms(a, b).map(f64::to_bits),
                            want.as_ref().map(|(_, ms)| ms.to_bits()),
                            "{}: {a}->{b}",
                            p.name
                        );
                        assert_eq!(p.wan.path(a, b), want.map(|(path, _)| path));
                    }
                }
            }
        }
    }

    #[test]
    fn india_routes_east_when_pops_exist() {
        // With the full atlas (not the small test one), India's WAN path to
        // the US must run via Singapore, not Europe.
        let mut topo = generate(&TopologyConfig {
            seed: 7,
            ..Default::default()
        });
        let p = build_provider(&mut topo, &ProviderConfig::google_like(7));
        let (in_idx, _) = bb_geo::country::by_code("IN").unwrap();
        let (us_idx, _) = bb_geo::country::by_code("US").unwrap();
        let (sg_idx, _) = bb_geo::country::by_code("SG").unwrap();
        let inn = topo.atlas.main_metro(in_idx).id;
        let us = topo.atlas.main_metro(us_idx).id;
        let sg = topo.atlas.main_metro(sg_idx).id;
        if p.has_pop(inn) && p.has_pop(us) && p.has_pop(sg) {
            let path = p.wan.path(inn, us).unwrap();
            assert!(
                path.contains(&sg),
                "India→US WAN path should transit Singapore: {path:?}"
            );
            // And it must be substantially longer than great-circle.
            let km: f64 = path
                .windows(2)
                .map(|w| {
                    let link = p.wan.links().iter().find(|l| {
                        (l.a, l.b) == (w[0], w[1]) || (l.a, l.b) == (w[1], w[0])
                    });
                    link.expect("consecutive waypoints linked").km
                })
                .sum();
            let gc = topo
                .atlas
                .city(inn)
                .location
                .distance_km(&topo.atlas.city(us).location);
            assert!(km > gc * 1.3, "detour {km} km vs gc {gc} km");
        } else {
            panic!("google-like provider must have PoPs in IN, US, SG");
        }
    }
}

#[cfg(test)]
mod optimality_tests {
    use super::*;
    use crate::provider::{build_provider, ProviderConfig};
    use bb_topology::{generate, TopologyConfig};

    /// Dijkstra results must match a Floyd-Warshall reference on the same
    /// graph.
    #[test]
    fn dijkstra_matches_floyd_warshall() {
        let mut topo = generate(&TopologyConfig::small(47));
        let p = build_provider(&mut topo, &ProviderConfig::google_like(4));
        let nodes = p.wan.nodes().to_vec();
        let n = nodes.len();
        let idx = |c: CityId| nodes.iter().position(|&x| x == c).unwrap();

        let mut dist = vec![vec![f64::INFINITY; n]; n];
        for (i, row) in dist.iter_mut().enumerate() {
            row[i] = 0.0;
        }
        for l in p.wan.links() {
            let w = bb_geo::propagation_delay_ms(l.km, WAN_INFLATION);
            let (i, j) = (idx(l.a), idx(l.b));
            if w < dist[i][j] {
                dist[i][j] = w;
                dist[j][i] = w;
            }
        }
        for k in 0..n {
            for i in 0..n {
                for j in 0..n {
                    let via = dist[i][k] + dist[k][j];
                    if via < dist[i][j] {
                        dist[i][j] = via;
                    }
                }
            }
        }
        for (i, &a) in nodes.iter().enumerate() {
            for (j, &b) in nodes.iter().enumerate() {
                let d = p.wan.path_ms(a, b).unwrap();
                assert!(
                    (d - dist[i][j]).abs() < 1e-6,
                    "{a}->{b}: dijkstra {d} vs fw {}",
                    dist[i][j]
                );
            }
        }
    }

    /// At full scale every backbone pair whose endpoints are PoPs must
    /// materialize as a WAN link.
    #[test]
    fn backbone_pairs_materialize_at_full_scale() {
        let mut topo = generate(&TopologyConfig {
            seed: 9,
            ..Default::default()
        });
        let p = build_provider(&mut topo, &ProviderConfig::google_like(9));
        let mut materialized = 0;
        for &(ca, cb) in BACKBONE {
            let a = bb_geo::country::by_code(ca).map(|(ci, _)| topo.atlas.main_metro(ci).id);
            let b = bb_geo::country::by_code(cb).map(|(ci, _)| topo.atlas.main_metro(ci).id);
            if let (Some(a), Some(b)) = (a, b) {
                if p.has_pop(a) && p.has_pop(b) {
                    let linked = p
                        .wan
                        .links()
                        .iter()
                        .any(|l| (l.a == a && l.b == b) || (l.a == b && l.b == a));
                    assert!(linked, "backbone {ca}-{cb} missing");
                    materialized += 1;
                }
            }
        }
        assert!(materialized >= 10, "only {materialized} backbone links");
    }

    /// The deliberate absence: no direct WAN link from Europe/Middle East
    /// into South Asia (the §3.3.2 India mechanism).
    #[test]
    fn no_europe_to_south_asia_wan_link() {
        let mut topo = generate(&TopologyConfig {
            seed: 9,
            ..Default::default()
        });
        let p = build_provider(&mut topo, &ProviderConfig::google_like(9));
        use bb_geo::Region;
        for l in p.wan.links() {
            let (ra, rb) = (topo.atlas.city(l.a).region, topo.atlas.city(l.b).region);
            let west = |r: Region| matches!(r, Region::Europe | Region::MiddleEast);
            let south_asia = |r: Region| r == Region::SouthAsia;
            assert!(
                !(west(ra) && south_asia(rb) || west(rb) && south_asia(ra)),
                "unexpected WAN link {} - {}",
                topo.atlas.city(l.a).name,
                topo.atlas.city(l.b).name
            );
        }
    }
}
