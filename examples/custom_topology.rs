//! Using the substrate directly: hand-build a tiny Internet, run BGP over
//! it, realize paths, and measure RTTs — no study harness involved.
//!
//! ```sh
//! cargo run --release --example custom_topology
//! ```
//!
//! Builds the textbook scenario from §2.3.1 by hand: a content provider
//! with one PoP that reaches an eyeball AS via (a) a private interconnect,
//! (b) a public exchange through a regional transit, and (c) a tier-1
//! transit route, then compares the three routes' latencies under the
//! congestion model.

use beating_bgp::bgp::{compute_routes, provider_rib, Announcement};
use beating_bgp::geo::atlas::AtlasConfig;
use beating_bgp::geo::Atlas;
use beating_bgp::netsim::reference::path_rtt_ms;
use beating_bgp::netsim::{
    realize_path, CongestionConfig, CongestionKey, CongestionModel, RealizeSpec, SimTime,
};
use beating_bgp::topology::{AsClass, BusinessRel, ExitPolicy, LinkKind, Topology};

fn main() {
    // A real atlas for geography, but a hand-made AS graph.
    let atlas = Atlas::generate(&AtlasConfig::default());
    let frankfurt = atlas.nearest_city(beating_bgp::geo::GeoPoint::new(50.1, 8.7)).id;
    let warsaw = atlas.nearest_city(beating_bgp::geo::GeoPoint::new(52.2, 21.0)).id;
    let mut topo = Topology::new(atlas);

    let tier1 = topo.add_as(
        AsClass::Tier1,
        "tier1-backbone",
        vec![frankfurt, warsaw],
        ExitPolicy::EarlyExit,
        1.1,
        None,
        0.0,
    );
    let transit = topo.add_as(
        AsClass::Transit,
        "regional-transit",
        vec![frankfurt, warsaw],
        ExitPolicy::EarlyExit,
        1.25,
        None,
        0.0,
    );
    let eyeball = topo.add_as(
        AsClass::Eyeball,
        "eyeball-isp",
        vec![frankfurt, warsaw],
        ExitPolicy::EarlyExit,
        1.35,
        Some(0),
        1.0,
    );
    let provider = topo.add_as(
        AsClass::Content,
        "content-provider",
        vec![frankfurt],
        ExitPolicy::LateExit,
        1.1,
        None,
        0.0,
    );

    // Business fabric.
    topo.add_interconnect(transit, tier1, BusinessRel::CustomerOf, LinkKind::Transit, frankfurt, 1000.0);
    topo.add_interconnect(eyeball, transit, BusinessRel::CustomerOf, LinkKind::Transit, warsaw, 100.0);
    topo.add_interconnect(eyeball, tier1, BusinessRel::CustomerOf, LinkKind::Transit, frankfurt, 100.0);
    // The provider's three options at its Frankfurt PoP.
    topo.add_interconnect(provider, eyeball, BusinessRel::Peer, LinkKind::PrivatePeering, frankfurt, 80.0);
    topo.add_interconnect(provider, transit, BusinessRel::Peer, LinkKind::PublicPeering, frankfurt, 200.0);
    topo.add_interconnect(provider, tier1, BusinessRel::CustomerOf, LinkKind::Transit, frankfurt, 2000.0);

    // BGP: the eyeball announces a client prefix; what does the provider see?
    let table = compute_routes(&topo, &Announcement::full(&topo, eyeball));
    let ribs = provider_rib(&topo, provider, &table);
    let rib = &ribs[0];
    println!("provider RIB toward the client prefix (policy order):");
    for (i, route) in rib.routes.iter().enumerate() {
        println!(
            "  #{i} via {} [{}], AS-path length {}",
            topo.asys(route.neighbor).name,
            route.class.name(),
            route.total_len
        );
    }

    // Realize each route to a client in Warsaw and measure at two times.
    let congestion = CongestionModel::new(1, CongestionConfig::default());
    let client_city = warsaw;
    println!("\nroute RTTs to a Warsaw client (ms):");
    println!("{:<28}{:>10}{:>10}", "route", "03:00", "20:00");
    for route in &rib.routes {
        let mut as_path = vec![provider];
        if route.neighbor == eyeball {
            as_path.push(eyeball);
        } else {
            as_path.extend(table.as_path(route.neighbor).unwrap());
        }
        let spec = RealizeSpec {
            as_path: &as_path,
            src_city: rib.pop_city,
            dst_city: Some(client_city),
            first_link: Some(route.link),
            final_entry_links: None,
        };
        let path = realize_path(&topo, &spec);
        let lastmile = Some(CongestionKey::LastMile(1));
        let night = path_rtt_ms(&topo, &congestion, &path, lastmile, SimTime::from_hours(3.0));
        let evening = path_rtt_ms(&topo, &congestion, &path, lastmile, SimTime::from_hours(20.0));
        println!(
            "{:<28}{:>10.2}{:>10.2}",
            format!("via {}", topo.asys(route.neighbor).name),
            night,
            evening
        );
    }
    println!(
        "\nNote how all three options share the client's last mile: when that\n\
         congests in the evening, every route degrades together (§3.1.1)."
    );
}
