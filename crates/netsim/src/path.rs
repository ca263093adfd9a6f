//! City-level realization of AS-level paths.
//!
//! BGP hands us a sequence of ASes; the wire path depends on *where* each
//! AS hands traffic to the next. Each AS picks among the available
//! interconnects per its exit policy:
//!
//! * **early exit / hot potato** — hand off at the interconnect nearest to
//!   where the traffic currently is (minimize own carriage);
//! * **late exit** — carry the traffic on the own backbone to the
//!   interconnect nearest the destination (only possible when the
//!   destination is known; cold-potato behaviour of well-run backbones).
//!
//! The realization records every intra-AS segment (with that AS's path
//! inflation) and every crossed interconnect (whose congestion process then
//! applies), which is all `rtt` needs.

use crate::keyed::splitmix64;
use bb_geo::CityId;
use bb_topology::{AsId, ExitPolicy, InterconnectId, Topology};

/// One intra-AS carriage segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Segment {
    pub from: CityId,
    pub to: CityId,
    /// AS carrying this segment.
    pub owner: AsId,
    /// That AS's path inflation over great-circle distance.
    pub inflation: f64,
}

/// A fully realized path: waypoints, carried segments, crossed links.
#[derive(Debug, Clone, PartialEq)]
pub struct RealizedPath {
    /// AS-level path in traffic direction.
    pub as_path: Vec<AsId>,
    /// Intra-AS segments in order (zero-length segments are kept so each
    /// AS's presence is visible).
    pub segments: Vec<Segment>,
    /// Interconnects crossed, in order.
    pub links: Vec<InterconnectId>,
    /// The link used to enter the final AS (catchment information when the
    /// final AS is an anycast provider).
    pub entry_link: Option<InterconnectId>,
}

impl RealizedPath {
    /// Total carried great-circle distance (un-inflated), km.
    pub fn distance_km(&self, topo: &Topology) -> f64 {
        self.segments
            .iter()
            .map(|s| {
                topo.atlas
                    .city(s.from)
                    .location
                    .distance_km(&topo.atlas.city(s.to).location)
            })
            .sum()
    }

    /// One-way propagation delay, ms: inflated distance over fiber speed.
    pub fn propagation_ms(&self, topo: &Topology) -> f64 {
        self.segments
            .iter()
            .map(|s| {
                let d = topo
                    .atlas
                    .city(s.from)
                    .location
                    .distance_km(&topo.atlas.city(s.to).location);
                bb_geo::propagation_delay_ms(d, s.inflation)
            })
            .sum()
    }

    /// Number of AS-boundary crossings.
    pub fn hop_count(&self) -> usize {
        self.links.len()
    }

    /// City where the path ends.
    pub fn final_city(&self) -> CityId {
        self.segments
            .last()
            .map(|s| s.to)
            .expect("realized path has segments")
    }

    /// Traceroute view of the path: one hop per router the probe would see
    /// (each segment endpoint), with cumulative one-way latency. This is
    /// what the §3.3 methodology parses to locate the provider ingress
    /// ("We locate the ingress if we can find a RIPE Atlas probe with a
    /// ping RTT of at most 1ms to the border router").
    pub fn traceroute(&self, topo: &Topology) -> Vec<TracerouteHop> {
        let mut hops = Vec::with_capacity(self.segments.len() + 1);
        let mut cum_ms = 0.0;
        for (i, s) in self.segments.iter().enumerate() {
            if i == 0 {
                hops.push(TracerouteHop {
                    city: s.from,
                    owner: s.owner,
                    one_way_ms: 0.0,
                });
            }
            let d = topo
                .atlas
                .city(s.from)
                .location
                .distance_km(&topo.atlas.city(s.to).location);
            cum_ms += bb_geo::propagation_delay_ms(d, s.inflation);
            // The router at the segment end belongs to the *next* segment's
            // owner when this segment ends at an interconnect (the hand-off
            // router), else to the current owner.
            let owner = self
                .segments
                .get(i + 1)
                .map(|n| n.owner)
                .unwrap_or(s.owner);
            hops.push(TracerouteHop {
                city: s.to,
                owner,
                one_way_ms: cum_ms,
            });
        }
        hops
    }

    /// The longest distance carried inside a single AS, and that AS
    /// (§3.3.2's "fraction of the journey on a single network").
    pub fn max_single_as_km(&self, topo: &Topology) -> (AsId, f64) {
        // BTreeMap so exact-tie winners don't depend on hasher state.
        let mut per_as: std::collections::BTreeMap<AsId, f64> = std::collections::BTreeMap::new();
        for s in &self.segments {
            let d = topo
                .atlas
                .city(s.from)
                .location
                .distance_km(&topo.atlas.city(s.to).location);
            *per_as.entry(s.owner).or_insert(0.0) += d;
        }
        per_as
            .into_iter()
            .max_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty path")
    }
}

/// One hop of a [`RealizedPath::traceroute`] view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracerouteHop {
    pub city: CityId,
    /// AS owning the responding router.
    pub owner: AsId,
    /// Cumulative one-way propagation latency to this hop, ms.
    pub one_way_ms: f64,
}

/// Inputs to [`realize_path`].
#[derive(Debug, Clone)]
pub struct RealizeSpec<'a> {
    /// AS-level path in traffic direction (≥ 2 ASes, consecutive pairs must
    /// interconnect).
    pub as_path: &'a [AsId],
    /// City where traffic starts (must be in the first AS's footprint
    /// conceptually; not enforced — clients sit in eyeball cities).
    pub src_city: CityId,
    /// Final destination city inside the last AS, if known. Late-exit ASes
    /// aim for it; when present, a final intra-AS segment to it is emitted.
    pub dst_city: Option<CityId>,
    /// Force the first AS boundary to use this interconnect (the egress
    /// choice of a provider's route, Fig 1's unit of comparison).
    pub first_link: Option<InterconnectId>,
    /// Restrict the last AS boundary to these interconnects (an anycast
    /// origin's announced entry points).
    pub final_entry_links: Option<&'a [InterconnectId]>,
}

/// Realize an AS path into segments and crossed links.
///
/// Panics if consecutive ASes share no eligible interconnect — callers must
/// only pass BGP-valid paths.
pub fn realize_path(topo: &Topology, spec: &RealizeSpec<'_>) -> RealizedPath {
    assert!(spec.as_path.len() >= 2, "need at least two ASes");
    let mut segments = Vec::new();
    let mut links = Vec::new();
    let mut current_city = spec.src_city;

    let n = spec.as_path.len();
    for i in 0..n - 1 {
        let here = spec.as_path[i];
        let next = spec.as_path[i + 1];
        let is_first = i == 0;
        let is_last = i == n - 2;

        // Candidate interconnects for this boundary.
        let candidates: Vec<&bb_topology::Interconnect> = match (
            is_first.then_some(spec.first_link).flatten(),
            if is_last { spec.final_entry_links } else { None },
        ) {
            (Some(forced), _) => vec![topo.link(forced)],
            (None, Some(entries)) => entries.iter().map(|&l| topo.link(l)).collect(),
            _ => topo.links_between(here, next),
        };
        assert!(
            !candidates.is_empty(),
            "no interconnect between {here} and {next}"
        );

        let chosen = choose_link(topo, &candidates, here, current_city, spec.dst_city);

        // Intra-AS carriage to the handoff city.
        let node = topo.asys(here);
        segments.push(Segment {
            from: current_city,
            to: chosen.city,
            owner: here,
            inflation: node.intra_inflation,
        });
        links.push(chosen.id);
        current_city = chosen.city;
    }

    // Final carriage inside the last AS.
    let last = *spec.as_path.last().unwrap();
    if let Some(dst) = spec.dst_city {
        segments.push(Segment {
            from: current_city,
            to: dst,
            owner: last,
            inflation: topo.asys(last).intra_inflation,
        });
    } else {
        // Zero-length marker so the last AS appears in the segment list.
        segments.push(Segment {
            from: current_city,
            to: current_city,
            owner: last,
            inflation: 1.0,
        });
    }

    RealizedPath {
        as_path: spec.as_path.to_vec(),
        segments,
        links: links.clone(),
        entry_link: links.last().copied(),
    }
}

/// Pick an interconnect per the sending AS's exit policy.
///
/// With probability `1 - exit_fidelity` the sender's internal tie-breaking
/// (IGP metrics, route-reflector visibility) does not follow geography and
/// a hash-selected exit is used instead — deterministic per
/// (sender, current city), so a given client's catchment is stable across
/// time but arbitrary across clients, as observed in anycast measurement
/// studies.
fn choose_link<'a>(
    topo: &Topology,
    candidates: &[&'a bb_topology::Interconnect],
    sender: AsId,
    current_city: CityId,
    dst_city: Option<CityId>,
) -> &'a bb_topology::Interconnect {
    let node = topo.asys(sender);
    if candidates.len() > 1 && node.exit_fidelity < 1.0 {
        let h = splitmix64(((sender.0 as u64) << 32) ^ current_city.0 as u64);
        let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
        if frac >= node.exit_fidelity {
            let pick = (splitmix64(h) % candidates.len() as u64) as usize;
            return candidates[pick];
        }
    }
    let aim_city = match (node.exit_policy, dst_city) {
        (ExitPolicy::LateExit, Some(dst)) => dst,
        _ => current_city,
    };
    let aim = topo.atlas.city(aim_city).location;
    candidates
        .iter()
        .min_by(|a, b| {
            let da = topo.atlas.city(a.city).location.distance_km(&aim);
            let db = topo.atlas.city(b.city).location.distance_km(&aim);
            da.total_cmp(&db).then(a.id.cmp(&b.id))
        })
        .unwrap()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_geo::atlas::AtlasConfig;
    use bb_geo::Atlas;
    use bb_topology::{AsClass, BusinessRel, ExitPolicy, LinkKind, Topology};

    /// Two-AS world with interconnects in two cities for exit-policy tests.
    fn two_as_world() -> (Topology, AsId, AsId, CityId, CityId) {
        let atlas = Atlas::generate(&AtlasConfig {
            seed: 5,
            city_density: 1.0,
        });
        // Pick two far-apart hub cities.
        let hubs: Vec<CityId> = atlas.colo_hubs().map(|c| c.id).collect();
        let (ca, cb) = (hubs[0], hubs[5]);
        let mut t = Topology::new(atlas);
        let a = t.add_as(AsClass::Tier1, "A", vec![ca, cb], ExitPolicy::EarlyExit, 1.1, None, 0.0);
        let b = t.add_as(AsClass::Tier1, "B", vec![ca, cb], ExitPolicy::EarlyExit, 1.1, None, 0.0);
        // Perfectly geographic exits: these tests check the policy itself.
        t.set_exit_fidelity(a, 1.0);
        t.set_exit_fidelity(b, 1.0);
        t.add_interconnect(a, b, BusinessRel::Peer, LinkKind::PrivatePeering, ca, 100.0);
        t.add_interconnect(a, b, BusinessRel::Peer, LinkKind::PrivatePeering, cb, 100.0);
        (t, a, b, ca, cb)
    }

    #[test]
    fn early_exit_hands_off_near_source() {
        let (t, a, b, ca, cb) = two_as_world();
        let spec = RealizeSpec {
            as_path: &[a, b],
            src_city: ca,
            dst_city: Some(cb),
            first_link: None,
            final_entry_links: None,
        };
        let p = realize_path(&t, &spec);
        // Early exit: hand off at ca (distance 0 from source), B carries the
        // long haul.
        assert_eq!(t.link(p.links[0]).city, ca);
        let (owner, _) = p.max_single_as_km(&t);
        assert_eq!(owner, b);
    }

    #[test]
    fn late_exit_carries_to_destination() {
        let (mut t, a, b, ca, cb) = two_as_world();
        // Flip A to late exit.
        {
            // Rebuild A as late-exit by mutating via add? Topology doesn't
            // expose mutation of exit policy; construct a fresh topology.
            let atlas = t.atlas.clone();
            let mut t2 = Topology::new(atlas);
            let a2 = t2.add_as(AsClass::Tier1, "A", vec![ca, cb], ExitPolicy::LateExit, 1.1, None, 0.0);
            let b2 = t2.add_as(AsClass::Tier1, "B", vec![ca, cb], ExitPolicy::EarlyExit, 1.1, None, 0.0);
            t2.set_exit_fidelity(a2, 1.0);
            t2.set_exit_fidelity(b2, 1.0);
            t2.add_interconnect(a2, b2, BusinessRel::Peer, LinkKind::PrivatePeering, ca, 100.0);
            t2.add_interconnect(a2, b2, BusinessRel::Peer, LinkKind::PrivatePeering, cb, 100.0);
            t = t2;
        }
        let (a, b) = (a, b);
        let spec = RealizeSpec {
            as_path: &[a, b],
            src_city: ca,
            dst_city: Some(cb),
            first_link: None,
            final_entry_links: None,
        };
        let p = realize_path(&t, &spec);
        // Late exit: A carries to cb and hands off there.
        assert_eq!(t.link(p.links[0]).city, cb);
        let (owner, _) = p.max_single_as_km(&t);
        assert_eq!(owner, a);
    }

    #[test]
    fn forced_first_link_is_respected() {
        let (t, a, b, ca, cb) = two_as_world();
        let far_link = t
            .links_between(a, b)
            .into_iter()
            .find(|l| l.city == cb)
            .unwrap()
            .id;
        let spec = RealizeSpec {
            as_path: &[a, b],
            src_city: ca,
            dst_city: Some(cb),
            first_link: Some(far_link),
            final_entry_links: None,
        };
        let p = realize_path(&t, &spec);
        assert_eq!(p.links[0], far_link);
        assert_eq!(t.link(p.links[0]).city, cb);
    }

    #[test]
    fn final_entry_links_restrict_choice() {
        let (t, a, b, ca, cb) = two_as_world();
        let far_link = t
            .links_between(a, b)
            .into_iter()
            .find(|l| l.city == cb)
            .unwrap()
            .id;
        let spec = RealizeSpec {
            as_path: &[a, b],
            src_city: ca,
            dst_city: None,
            first_link: None,
            final_entry_links: Some(&[far_link]),
        };
        let p = realize_path(&t, &spec);
        assert_eq!(p.entry_link, Some(far_link));
        // Without a dst, the path ends at the entry city.
        assert_eq!(p.final_city(), cb);
    }

    #[test]
    fn propagation_tracks_distance_and_inflation() {
        let (t, a, b, ca, cb) = two_as_world();
        let spec = RealizeSpec {
            as_path: &[a, b],
            src_city: ca,
            dst_city: Some(cb),
            first_link: None,
            final_entry_links: None,
        };
        let p = realize_path(&t, &spec);
        let d = t
            .atlas
            .city(ca)
            .location
            .distance_km(&t.atlas.city(cb).location);
        assert!((p.distance_km(&t) - d).abs() < 1e-9);
        let expect_ms = bb_geo::propagation_delay_ms(d, 1.1);
        assert!((p.propagation_ms(&t) - expect_ms).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least two ASes")]
    fn single_as_path_panics() {
        let (t, a, _, ca, _) = two_as_world();
        let spec = RealizeSpec {
            as_path: &[a],
            src_city: ca,
            dst_city: None,
            first_link: None,
            final_entry_links: None,
        };
        realize_path(&t, &spec);
    }

    #[test]
    fn traceroute_hops_are_cumulative_and_cover_all_ases() {
        let (t, a, b, ca, cb) = two_as_world();
        let spec = RealizeSpec {
            as_path: &[a, b],
            src_city: ca,
            dst_city: Some(cb),
            first_link: None,
            final_entry_links: None,
        };
        let p = realize_path(&t, &spec);
        let hops = p.traceroute(&t);
        assert!(hops.len() >= 2);
        assert_eq!(hops[0].city, ca);
        assert_eq!(hops[0].one_way_ms, 0.0);
        assert_eq!(hops.last().unwrap().city, cb);
        for w in hops.windows(2) {
            assert!(w[1].one_way_ms >= w[0].one_way_ms);
        }
        // Final hop latency equals the path's one-way propagation.
        assert!((hops.last().unwrap().one_way_ms - p.propagation_ms(&t)).abs() < 1e-9);
        // Both ASes appear as owners.
        let owners: std::collections::HashSet<_> = hops.iter().map(|h| h.owner).collect();
        assert!(owners.contains(&a) && owners.contains(&b));
    }

    #[test]
    fn multi_hop_realization_over_generated_topology() {
        use bb_bgp::{compute_routes, Announcement};
        use bb_topology::{generate, TopologyConfig};
        let topo = generate(&TopologyConfig::small(13));
        let eye = topo.ases_of_class(AsClass::Eyeball).next().unwrap();
        let origin = eye.id;
        let dst_city = eye.footprint[0];
        let table = compute_routes(&topo, &Announcement::full(&topo, origin));
        // Realize from a handful of far-away ASes.
        let mut realized = 0;
        for node in topo.ases().iter().take(20) {
            if node.id == origin {
                continue;
            }
            let path = table.as_path(node.id).unwrap();
            let src_city = node.footprint[0];
            let spec = RealizeSpec {
                as_path: &path,
                src_city,
                dst_city: Some(dst_city),
                first_link: None,
                final_entry_links: None,
            };
            let p = realize_path(&topo, &spec);
            assert_eq!(p.hop_count(), path.len() - 1);
            assert_eq!(p.final_city(), dst_city);
            // Crossed links must each connect the right AS pair.
            for (w, &l) in path.windows(2).zip(&p.links) {
                let link = topo.link(l);
                assert!(
                    (link.a == w[0] && link.b == w[1]) || (link.a == w[1] && link.b == w[0]),
                    "link endpoints must match path hop"
                );
            }
            realized += 1;
        }
        assert!(realized > 10);
    }
}
