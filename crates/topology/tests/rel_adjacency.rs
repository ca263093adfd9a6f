//! The cached per-relationship adjacency rows (`Topology::rel_adjacency`)
//! must always equal the relationship-filtered `adjacency()`, survive
//! mutation of the topology, and stay private to each clone; the cached
//! provider-first order (`Topology::provider_order`) must follow mutation
//! the same way.

use bb_geo::atlas::AtlasConfig;
use bb_topology::{
    build_from_snapshot, generate, AsClass, AsId, BusinessRel, ExitPolicy, LinkKind,
    SnapshotConfig, Topology, TopologyConfig,
};

const RELS: [BusinessRel; 3] = [
    BusinessRel::CustomerOf,
    BusinessRel::Peer,
    BusinessRel::ProviderOf,
];

fn generated() -> Topology {
    generate(&TopologyConfig::small(21))
}

fn snapshot() -> Topology {
    let text = "1|2|-1\n1|3|-1\n2|3|0\n2|4|-1\n3|5|-1\n4|5|0\n3|6|-1\n4|6|0\n";
    let cfg = SnapshotConfig {
        seed: 9,
        atlas: AtlasConfig {
            seed: 9,
            city_density: 0.3,
        },
        max_ases: None,
    };
    build_from_snapshot(text, &cfg).unwrap()
}

/// The row `rel_adjacency` must hold: `adjacency(asn)` filtered by the
/// pair relationship, in order, one entry per interconnect.
fn filtered(topo: &Topology, asn: AsId, rel: BusinessRel) -> Vec<AsId> {
    topo.adjacency(asn)
        .iter()
        .filter(|&&(nb, _)| topo.relationship(asn, nb) == Some(rel))
        .map(|&(nb, _)| nb)
        .collect()
}

fn assert_rows_match(topo: &Topology) {
    let adj = topo.rel_adjacency();
    for node in topo.ases() {
        let mut total = 0;
        for rel in RELS {
            let row = adj.row(node.id, rel);
            assert_eq!(
                row,
                &filtered(topo, node.id, rel)[..],
                "{} {rel:?}",
                node.id
            );
            total += row.len();
        }
        assert_eq!(
            total,
            topo.adjacency(node.id).len(),
            "{} loses entries",
            node.id
        );
    }
}

#[test]
fn rows_equal_filtered_adjacency() {
    for topo in [generated(), snapshot()] {
        assert_rows_match(&topo);
    }
    // The generated world interconnects some pairs in several cities; those
    // parallel links must repeat the neighbor, not collapse into one entry.
    let topo = generated();
    let adj = topo.rel_adjacency();
    let repeats = topo.ases().iter().any(|node| {
        RELS.iter().any(|&rel| {
            let row = adj.row(node.id, rel);
            let mut distinct = row.to_vec();
            distinct.sort();
            distinct.dedup();
            distinct.len() < row.len()
        })
    });
    assert!(repeats, "expected parallel links in the generated world");
}

#[test]
fn mutation_refreshes_rows() {
    for mut topo in [generated(), snapshot()] {
        let before = topo
            .rel_adjacency()
            .row(AsId(0), BusinessRel::ProviderOf)
            .len();
        let city = topo.asys(AsId(0)).footprint[0];
        let x = topo.add_as(
            AsClass::Eyeball,
            "x",
            vec![city],
            ExitPolicy::EarlyExit,
            1.4,
            Some(0),
            1.0,
        );
        // A stale cache has no row for the new AS at all.
        for rel in RELS {
            assert!(topo.rel_adjacency().row(x, rel).is_empty());
        }
        topo.add_interconnect(
            x,
            AsId(0),
            BusinessRel::CustomerOf,
            LinkKind::Transit,
            city,
            10.0,
        );
        let adj = topo.rel_adjacency();
        assert_eq!(adj.row(x, BusinessRel::CustomerOf), &[AsId(0)]);
        assert_eq!(adj.row(AsId(0), BusinessRel::ProviderOf).len(), before + 1);
        assert_eq!(adj.row(AsId(0), BusinessRel::ProviderOf).last(), Some(&x));
        assert_rows_match(&topo);
    }
}

#[test]
fn clone_mutation_leaves_original_rows() {
    for topo in [generated(), snapshot()] {
        let original: Vec<Vec<AsId>> = RELS
            .iter()
            .map(|&rel| topo.rel_adjacency().row(AsId(0), rel).to_vec())
            .collect();
        let mut copy = topo.clone();
        let city = copy.asys(AsId(0)).footprint[0];
        let x = copy.add_as(
            AsClass::Eyeball,
            "x",
            vec![city],
            ExitPolicy::EarlyExit,
            1.4,
            Some(0),
            1.0,
        );
        copy.add_interconnect(
            x,
            AsId(0),
            BusinessRel::CustomerOf,
            LinkKind::Transit,
            city,
            10.0,
        );
        assert_eq!(
            copy.rel_adjacency()
                .row(AsId(0), BusinessRel::ProviderOf)
                .last(),
            Some(&x)
        );
        for (rel, row) in RELS.iter().zip(&original) {
            assert_eq!(topo.rel_adjacency().row(AsId(0), *rel), &row[..]);
        }
        assert_rows_match(&topo);
        assert_rows_match(&copy);
    }
}

/// Every AS comes after all of its providers in `order`.
fn assert_provider_first(topo: &Topology) {
    let order = topo.provider_order().expect("no provider cycle");
    let ids: Vec<AsId> = match order.permutation() {
        Some(perm) => perm.to_vec(),
        None => topo.ases().iter().map(|a| a.id).collect(),
    };
    assert_eq!(ids.len(), topo.as_count());
    let mut pos = vec![usize::MAX; topo.as_count()];
    for (i, asn) in ids.iter().enumerate() {
        assert_eq!(pos[asn.index()], usize::MAX, "{asn} listed twice");
        pos[asn.index()] = i;
    }
    for node in topo.ases() {
        for p in topo.providers_of(node.id) {
            assert!(pos[p.index()] < pos[node.id.index()], "{p} after its customer {}", node.id);
        }
    }
}

#[test]
fn add_interconnect_drops_provider_order() {
    let mut cycles = 0;
    for mut topo in [generated(), snapshot()] {
        assert_provider_first(&topo);
        // A new AS (the highest id) becomes AS0's provider: id order is no
        // longer provider-first, and a stale cached order would say it is.
        let city = topo.asys(AsId(0)).footprint[0];
        let top = topo.add_as(
            AsClass::Tier1,
            "top",
            vec![city],
            ExitPolicy::LateExit,
            1.1,
            None,
            0.0,
        );
        assert_provider_first(&topo);
        let before = topo.provider_order().unwrap().permutation().map(<[AsId]>::to_vec);
        topo.add_interconnect(
            AsId(0),
            top,
            BusinessRel::CustomerOf,
            LinkKind::Transit,
            city,
            10.0,
        );
        let order = topo.provider_order().unwrap();
        assert!(!order.is_identity());
        assert_ne!(order.permutation().map(<[AsId]>::to_vec), before);
        assert_provider_first(&topo);
        // Closing a cycle through `top` leaves no order at all.
        let below = topo.customers_of(AsId(0));
        if let Some(&c) = below.first() {
            let c_city = topo.asys(c).footprint[0];
            topo.extend_footprint(top, c_city);
            topo.add_interconnect(top, c, BusinessRel::CustomerOf, LinkKind::Transit, c_city, 1.0);
            let at = topo.provider_order().unwrap_err();
            assert!([top, AsId(0), c].contains(&at), "{at} is not on the cycle");
            cycles += 1;
        }
    }
    assert!(cycles > 0, "no world closed a cycle");
}
