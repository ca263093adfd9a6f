//! Property-based tests of the routing core on randomized topologies, and
//! a differential test of `compute_routes` against an independent oracle.

use beating_bgp::bgp::decision::better_at;
use beating_bgp::bgp::propagation::valley_free;
use beating_bgp::bgp::{
    compute_routes, provider_rib, Announcement, RouteClass, RoutingTable, Scope,
};
use beating_bgp::topology::{
    generate, AsClass, AsId, BusinessRel, InterconnectId, Topology, TopologyConfig,
};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn world(seed: u64) -> Topology {
    generate(&TopologyConfig::small(seed))
}

/// One AS's best route as the oracle computes it.
#[derive(Debug, Clone)]
struct OracleRoute {
    class: RouteClass,
    path_len: u32,
    via: Option<AsId>,
    no_export: bool,
    entry_links: Vec<InterconnectId>,
}

/// The oracle's table: routes per AS, plus the work it took in
/// `RoutingTable::work` terms (candidates considered, installed).
struct Oracle {
    routes: Vec<Option<OracleRoute>>,
    work: (u64, u64),
}

/// Gao-Rexford propagation written from the public API alone:
/// `adjacency`, `relationship`, `offers_by_neighbor` and `better_at`. It
/// shares no adjacency rows, queue or visiting order with
/// `compute_routes`. Each phase is a `(len, via, asn)` min-heap
/// relaxation, and the exports between phases sweep every routed AS in
/// the order it first received a route: the arrival order the work
/// counters are defined over.
fn oracle(topo: &Topology, ann: &Announcement) -> Oracle {
    struct State {
        best: Vec<Option<OracleRoute>>,
        /// Routed ASes in first-installation order.
        routed: Vec<AsId>,
        considered: u64,
        installed: u64,
    }
    impl State {
        fn consider(&mut self, asn: AsId, cand: OracleRoute) -> bool {
            let key = |r: &OracleRoute| (r.class, r.path_len, r.via.unwrap_or(AsId(u32::MAX)));
            self.considered += 1;
            let wins = match &self.best[asn.index()] {
                None => {
                    self.routed.push(asn);
                    true
                }
                Some(inc) => better_at(asn, key(&cand), key(inc)),
            };
            if wins {
                self.best[asn.index()] = Some(cand);
                self.installed += 1;
            }
            wins
        }
    }

    let n = topo.as_count();
    let origin = ann.origin;
    let mut st = State {
        best: vec![None; n],
        routed: vec![origin],
        considered: 0,
        installed: 0,
    };
    st.best[origin.index()] = Some(OracleRoute {
        class: RouteClass::Customer,
        path_len: 0,
        via: None,
        no_export: false,
        entry_links: Vec::new(),
    });
    // Neighbors toward which `asn` has relationship `rel`, once per link.
    let toward = |asn: AsId, rel: BusinessRel| -> Vec<AsId> {
        topo.adjacency(asn)
            .iter()
            .filter(|&&(nb, _)| topo.relationship(asn, nb) == Some(rel))
            .map(|&(nb, _)| nb)
            .collect()
    };
    let hop = |class: RouteClass, from: AsId, len: u32| OracleRoute {
        class,
        path_len: len + 1,
        via: Some(from),
        no_export: false,
        entry_links: Vec::new(),
    };
    let relax = |st: &mut State, seeds: Vec<(AsId, OracleRoute)>, class: RouteClass, rel: BusinessRel| {
        let mut heap = BinaryHeap::new();
        for (asn, route) in seeds {
            let k = (route.path_len, route.via.map_or(u32::MAX, |v| v.0), asn.0);
            if st.consider(asn, route) {
                heap.push(Reverse(k));
            }
        }
        while let Some(Reverse((len, via, asn))) = heap.pop() {
            let asn = AsId(asn);
            let cur = st.best[asn.index()].as_ref().expect("queued ASes hold routes");
            let stale = cur.class != class
                || cur.path_len != len
                || cur.via.map_or(u32::MAX, |v| v.0) != via;
            if stale || cur.no_export {
                continue;
            }
            for nxt in toward(asn, rel) {
                if st.consider(nxt, hop(class, asn, len)) {
                    heap.push(Reverse((len + 1, asn.0, nxt.0)));
                }
            }
        }
    };
    // Every exporting AS (not the origin, not NO_EXPORT, optionally only
    // customer routes) offers its route one hop further toward `rel`.
    let sweep = |st: &State, class: RouteClass, rel: BusinessRel, customer_only: bool| {
        let mut out = Vec::new();
        for &asn in &st.routed {
            let route = st.best[asn.index()].as_ref().expect("routed ASes hold routes");
            if asn == origin || route.no_export {
                continue;
            }
            if customer_only && route.class != RouteClass::Customer {
                continue;
            }
            for nxt in toward(asn, rel) {
                out.push((nxt, hop(class, asn, route.path_len)));
            }
        }
        out
    };

    let mut seeds: [Vec<(AsId, OracleRoute)>; 3] = Default::default();
    for offer in ann.offers_by_neighbor(topo) {
        let rel = topo
            .relationship(origin, offer.neighbor)
            .expect("offered links are adjacent");
        let class = RouteClass::from_neighbor_rel(rel);
        seeds[class as usize].push((
            offer.neighbor,
            OracleRoute {
                class,
                path_len: 1 + offer.prepend,
                via: Some(origin),
                no_export: offer.scope == Scope::NoExport,
                entry_links: offer.entry_links,
            },
        ));
    }
    let [customer_seeds, mut peer_cands, mut provider_cands] = seeds;
    relax(
        &mut st,
        customer_seeds,
        RouteClass::Customer,
        BusinessRel::CustomerOf,
    );
    peer_cands.extend(sweep(&st, RouteClass::Peer, BusinessRel::Peer, true));
    for (asn, cand) in peer_cands {
        st.consider(asn, cand);
    }
    provider_cands.extend(sweep(
        &st,
        RouteClass::Provider,
        BusinessRel::ProviderOf,
        false,
    ));
    relax(
        &mut st,
        provider_cands,
        RouteClass::Provider,
        BusinessRel::ProviderOf,
    );
    Oracle {
        routes: st.best,
        work: (st.considered, st.installed),
    }
}

/// The oracle's AS path from `asn` to the origin, following `via`.
fn oracle_path(routes: &[Option<OracleRoute>], asn: AsId) -> Option<Vec<AsId>> {
    let mut path = vec![asn];
    let mut cur = routes[asn.index()].as_ref()?;
    while let Some(v) = cur.via {
        if path.len() > routes.len() {
            return None; // a via cycle
        }
        path.push(v);
        cur = routes[v.index()].as_ref()?;
    }
    Some(path)
}

/// Assert `table` equals the oracle on every observable: route class,
/// path length, via, NO_EXPORT marking, entry links, the materialized
/// AS path, and the work counters.
fn assert_matches_oracle(
    topo: &Topology,
    table: &RoutingTable,
    ann: &Announcement,
) -> Result<(), TestCaseError> {
    let Oracle {
        routes: expected,
        work,
    } = oracle(topo, ann);
    prop_assert_eq!(table.work(), work, "work counters diverged");
    prop_assert_eq!(
        table.reachable_count(),
        expected.iter().filter(|r| r.is_some()).count()
    );
    for node in topo.ases() {
        match (table.route(node.id), &expected[node.id.index()]) {
            (None, None) => {}
            (Some(f), Some(r)) => {
                prop_assert_eq!(f.class, r.class, "class diverged at {:?}", node.id);
                prop_assert_eq!(f.path_len, r.path_len, "path_len diverged at {:?}", node.id);
                prop_assert_eq!(f.via, r.via, "via diverged at {:?}", node.id);
                prop_assert_eq!(
                    f.no_export,
                    r.no_export,
                    "no_export diverged at {:?}",
                    node.id
                );
                prop_assert_eq!(
                    table.entry_links(node.id),
                    &r.entry_links[..],
                    "entry links diverged at {:?}",
                    node.id
                );
                prop_assert_eq!(
                    table.as_path(node.id),
                    oracle_path(&expected, node.id),
                    "as_path diverged at {:?}",
                    node.id
                );
            }
            (f, r) => prop_assert!(
                false,
                "reachability diverged at {:?}: {f:?} vs {r:?}",
                node.id
            ),
        }
    }
    Ok(())
}

/// A randomized mix of withheld, plain, prepended and NO_EXPORT offers:
/// two knob bits per origin link.
fn engineered(topo: &Topology, origin: AsId, knobs: u64, prepend: u32) -> Announcement {
    let mut ann = Announcement::empty(origin);
    for (i, &(_, link)) in topo.adjacency(origin).iter().enumerate() {
        match (knobs >> ((2 * i) % 64)) & 0b11 {
            0b00 => {}
            0b01 => {
                ann.offer(link, 0);
            }
            0b10 => {
                ann.offer(link, prepend);
            }
            _ => {
                ann.offer_scoped(link, 0, Scope::NoExport);
            }
        }
    }
    ann
}

/// `topo` rebuilt with its ASes inserted in a seeded shuffle of their
/// old ids: the same graph, attributes and links, under new ids.
/// Generated worlds number every provider below its customers; a shuffled
/// copy does not, so propagation has to take the general provider-first
/// order.
fn shuffled(topo: &Topology, seed: u64) -> Topology {
    let rank = |a: AsId| {
        let mut z = seed ^ (a.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31), a)
    };
    let mut old: Vec<AsId> = topo.ases().iter().map(|a| a.id).collect();
    old.sort_by_key(|&a| rank(a));
    let mut out = Topology::new(topo.atlas.clone());
    let mut new_id = vec![AsId(u32::MAX); topo.as_count()];
    for &a in &old {
        let node = topo.asys(a);
        let id = out.add_as(
            node.class,
            node.name.clone(),
            node.footprint.clone(),
            node.exit_policy,
            node.intra_inflation,
            node.home_country,
            node.user_share,
        );
        out.set_exit_fidelity(id, node.exit_fidelity);
        new_id[a.index()] = id;
    }
    for l in topo.links() {
        out.add_interconnect(
            new_id[l.a.index()],
            new_id[l.b.index()],
            l.rel,
            l.kind,
            l.city,
            l.capacity_gbps,
        );
    }
    out
}

#[test]
fn frontier_matches_reference_sweep() {
    let topo = world(21);
    for origin in topo.ases_of_class(AsClass::Eyeball).take(5) {
        let ann = Announcement::full(&topo, origin.id);
        assert_matches_oracle(&topo, &compute_routes(&topo, &ann), &ann).unwrap();
    }
}

#[test]
fn snapshot_backed_world_propagates_valley_free() {
    // The CAIDA ingestion backend feeds the same propagation pipeline: a
    // full announcement from a snapshot eyeball reaches the whole
    // hierarchy with valley-free paths that match the oracle.
    let snapshot = "\
1|2|-1\n1|3|-1\n2|3|0\n2|4|-1\n3|5|-1\n4|5|0\n3|6|-1\n4|6|0\n";
    let cfg = beating_bgp::topology::SnapshotConfig {
        seed: 9,
        atlas: beating_bgp::geo::atlas::AtlasConfig {
            seed: 9,
            city_density: 0.3,
        },
        max_ases: None,
    };
    let topo = beating_bgp::topology::build_from_snapshot(snapshot, &cfg).unwrap();
    let origin = topo
        .ases_of_class(AsClass::Eyeball)
        .next()
        .expect("snapshot has eyeballs")
        .id;
    let ann = Announcement::full(&topo, origin);
    let table = compute_routes(&topo, &ann);
    assert_eq!(table.reachable_count(), topo.as_count());
    for node in topo.ases() {
        let path = table.as_path(node.id).expect("reachable");
        assert!(valley_free(&topo, &path), "path {path:?} has a valley");
    }
    assert_matches_oracle(&topo, &table, &ann).unwrap();
}

/// The seed-42 planet world `repro propagate` builds: for 4 origins picked
/// the way `repro propagate --origins 4` picks them, `compute_routes`
/// matches the oracle on the full announcement and on an engineered one
/// (withheld, prepended and NO_EXPORT offers). Slow in a debug build; run
/// with `cargo test --release --test proptest_routing -- --ignored`.
#[test]
#[ignore]
fn planet_world_matches_oracle() {
    use beating_bgp::core::{Scale, Scenario, ScenarioConfig};
    let scenario = Scenario::build(ScenarioConfig::facebook(42, Scale::Planet));
    let topo = &scenario.topo;
    let eyeballs: Vec<AsId> = topo.ases_of_class(AsClass::Eyeball).map(|n| n.id).collect();
    let k = 4;
    for i in 0..k {
        let origin = eyeballs[i * eyeballs.len() / k];
        let full = Announcement::full(topo, origin);
        assert_matches_oracle(topo, &compute_routes(topo, &full), &full).unwrap();
        // Fixed knobs: the engineered mix must keep at least one offer.
        let mut knobs = 0x9e37_79b9_7f4a_7c15u64.rotate_left(i as u32 * 7);
        let mut ann = engineered(topo, origin, knobs, 3);
        while ann.is_empty() {
            knobs = knobs.rotate_left(1) | 1;
            ann = engineered(topo, origin, knobs, 3);
        }
        assert_matches_oracle(topo, &compute_routes(topo, &ann), &ann).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every best path computed for any origin on any topology is
    /// valley-free and terminates at the origin.
    #[test]
    fn paths_are_valley_free(seed in 0u64..5000, origin_pick in 0usize..40) {
        let topo = world(seed);
        let eyeballs: Vec<_> = topo.ases_of_class(AsClass::Eyeball).collect();
        let origin = eyeballs[origin_pick % eyeballs.len()].id;
        let table = compute_routes(&topo, &Announcement::full(&topo, origin));
        for node in topo.ases() {
            if let Some(path) = table.as_path(node.id) {
                prop_assert!(valley_free(&topo, &path), "path {path:?}");
                prop_assert_eq!(*path.last().unwrap(), origin);
                prop_assert_eq!(path[0], node.id);
            }
        }
    }

    /// Full announcements reach every AS (the generator guarantees a
    /// connected provider hierarchy).
    #[test]
    fn full_announcement_reaches_all(seed in 0u64..5000) {
        let topo = world(seed);
        let origin = topo.ases_of_class(AsClass::Eyeball).next().unwrap().id;
        let table = compute_routes(&topo, &Announcement::full(&topo, origin));
        prop_assert_eq!(table.reachable_count(), topo.as_count());
    }

    /// Withholding part of the announcement never improves any AS's route
    /// (class can only worsen, path length only grow).
    #[test]
    fn withholding_is_monotone(seed in 0u64..5000, keep_every in 2usize..4) {
        let topo = world(seed);
        let origin = topo.ases_of_class(AsClass::Eyeball).next().unwrap().id;
        let full = compute_routes(&topo, &Announcement::full(&topo, origin));

        let mut partial_ann = Announcement::full(&topo, origin);
        for (i, &(_, link)) in topo.adjacency(origin).iter().enumerate() {
            if i % keep_every != 0 {
                partial_ann.withhold_link(link);
            }
        }
        if partial_ann.is_empty() {
            return Ok(());
        }
        let partial = compute_routes(&topo, &partial_ann);
        for (asn, route) in partial.routes() {
            if asn == origin {
                continue;
            }
            let f = full.route(asn).expect("full reaches everyone");
            prop_assert!(
                route.class > f.class
                    || (route.class == f.class && route.path_len >= f.path_len),
                "withholding improved {asn}: {:?} vs {:?}",
                route,
                f
            );
        }
    }

    /// Prepending everywhere by a constant shifts every first-hop length
    /// but preserves reachability.
    #[test]
    fn uniform_prepend_preserves_reachability(seed in 0u64..5000, prepend in 1u32..5) {
        let topo = world(seed);
        let origin = topo.ases_of_class(AsClass::Eyeball).next().unwrap().id;
        let mut ann = Announcement::full(&topo, origin);
        let links: Vec<_> = ann.offers().map(|(l, _)| l).collect();
        for l in links {
            ann.prepend_link(l, prepend);
        }
        let table = compute_routes(&topo, &ann);
        prop_assert_eq!(table.reachable_count(), topo.as_count());
        // Direct neighbors carry the prepended length.
        for nb in topo.neighbors(origin) {
            let r = table.route(nb).unwrap();
            if r.via == Some(origin) {
                prop_assert_eq!(r.path_len, 1 + prepend);
            }
        }
    }

    /// Differential oracle: `compute_routes` must equal the independent
    /// heap-and-sweep oracle on a plain full announcement.
    #[test]
    fn frontier_equals_reference_full(seed in 0u64..5000, origin_pick in 0usize..40) {
        let topo = world(seed);
        let eyeballs: Vec<_> = topo.ases_of_class(AsClass::Eyeball).collect();
        let origin = eyeballs[origin_pick % eyeballs.len()].id;
        let ann = Announcement::full(&topo, origin);
        assert_matches_oracle(&topo, &compute_routes(&topo, &ann), &ann)?;
    }

    /// Differential oracle under traffic engineering: a randomized mix of
    /// withheld, prepended, and NO_EXPORT-scoped offers must still produce
    /// the oracle's table.
    #[test]
    fn frontier_equals_reference_engineered(
        seed in 0u64..5000,
        knobs in 0u64..u64::MAX,
        prepend in 1u32..5,
    ) {
        let topo = world(seed);
        let origin = topo.ases_of_class(AsClass::Eyeball).next().unwrap().id;
        let ann = engineered(&topo, origin, knobs, prepend);
        // Everything withheld still has to agree: only the origin routes.
        assert_matches_oracle(&topo, &compute_routes(&topo, &ann), &ann)?;
    }

    /// Differential oracle on a shuffled-id world, whose provider-first
    /// order is not id order: routes, paths and work counters still match.
    #[test]
    fn shuffled_ids_equal_reference(
        seed in 0u64..5000,
        shuffle in 0u64..u64::MAX,
        knobs in 0u64..u64::MAX,
    ) {
        let topo = shuffled(&world(seed), shuffle);
        prop_assert!(!topo.provider_order().unwrap().is_identity());
        let origin = topo.ases_of_class(AsClass::Eyeball).next().unwrap().id;
        let full = Announcement::full(&topo, origin);
        assert_matches_oracle(&topo, &compute_routes(&topo, &full), &full)?;
        let ann = engineered(&topo, origin, knobs, 2);
        assert_matches_oracle(&topo, &compute_routes(&topo, &ann), &ann)?;
    }

    /// The provider RIB is policy-sorted and only contains export-legal
    /// routes.
    #[test]
    fn rib_is_sorted_and_legal(seed in 0u64..5000) {
        let mut topo = world(seed);
        let provider = beating_bgp::cdn::build_provider(
            &mut topo,
            &beating_bgp::cdn::ProviderConfig::facebook_like(seed),
        );
        let origin = topo.ases_of_class(AsClass::Eyeball).next().unwrap().id;
        let table = compute_routes(&topo, &Announcement::full(&topo, origin));
        for rib in provider_rib(&topo, provider.asn, &table) {
            for w in rib.routes.windows(2) {
                prop_assert!(
                    (w[0].class, w[0].total_len) <= (w[1].class, w[1].total_len)
                );
            }
            for route in &rib.routes {
                // The neighbor must genuinely reach the origin.
                prop_assert!(
                    route.neighbor == origin || table.route(route.neighbor).is_some()
                );
                prop_assert!(route.total_len >= 1);
            }
        }
    }
}
