//! The cached per-relationship adjacency rows (`Topology::rel_adjacency`)
//! must always equal the relationship-filtered `adjacency()`, survive
//! mutation of the topology, and stay private to each clone.

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
