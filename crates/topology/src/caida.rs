//! CAIDA-style AS-relationship snapshot ingestion.
//!
//! Second topology backend: instead of generating a synthetic Internet,
//! build a [`Topology`] from a CAIDA `as-rel` serial-1 snapshot. Each
//! non-comment line is `<a>|<b>|<rel>` where `rel` is `-1` (a is b's
//! provider) or `0` (a and b are peers). The builder runs through the same
//! `Topology::add_as` / `add_interconnect` construction path as the
//! generator, so downstream code (propagation, caching, realization,
//! audits) sees no difference between generated and ingested worlds — and
//! the content fingerprint keys the route cache identically for two loads
//! of the same snapshot.
//!
//! Geography is not part of the snapshot, so the builder synthesizes it
//! deterministically from `(seed, asn)`: every AS gets a home city from the
//! atlas, links are placed in the customer-side home city (peer links in
//! the lower-ASN side's), and footprints are extended on demand.

use crate::asys::{AsClass, ExitPolicy};
use crate::graph::Topology;
use crate::ids::AsId;
use crate::link::{BusinessRel, LinkKind};
use crate::validate::validate;
use bb_geo::atlas::AtlasConfig;
use bb_geo::Atlas;

/// Relationship encoded on one snapshot line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaidaRel {
    /// `a|b|-1`: `a` is the provider of `b`.
    ProviderCustomer,
    /// `a|b|0`: `a` and `b` peer (stored with `a < b`).
    PeerPeer,
}

/// One parsed relationship edge. For [`CaidaRel::ProviderCustomer`], `a` is
/// the provider and `b` the customer; for [`CaidaRel::PeerPeer`], `a < b`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaidaEdge {
    pub a: u32,
    pub b: u32,
    pub rel: CaidaRel,
}

/// Parsed snapshot: the ASN universe plus deduplicated edges in first-seen
/// order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaidaGraph {
    /// All ASNs mentioned, sorted ascending.
    pub asns: Vec<u32>,
    /// Deduplicated edges in the order first seen.
    pub edges: Vec<CaidaEdge>,
}

/// Why a snapshot was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaidaError {
    /// A line failed to parse; `line` is 1-based.
    Syntax { line: usize, msg: String },
    /// The same AS pair appears with two different relationships.
    Conflict { line: usize, a: u32, b: u32 },
    /// The snapshot contains no edges at all.
    Empty,
    /// No provider-free AS exists to anchor the hierarchy (every AS buys
    /// transit from someone — a provider cycle, or a peers-only graph).
    NoCore,
    /// Reading the snapshot file failed.
    Io(String),
    /// The built topology failed structural validation.
    Invalid(String),
}

impl std::fmt::Display for CaidaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaidaError::Syntax { line, msg } => write!(f, "snapshot line {line}: {msg}"),
            CaidaError::Conflict { line, a, b } => write!(
                f,
                "snapshot line {line}: conflicting relationship for pair {a}|{b}"
            ),
            CaidaError::Empty => write!(f, "snapshot has no relationship lines"),
            CaidaError::NoCore => write!(
                f,
                "snapshot has no provider-free core AS to anchor the hierarchy"
            ),
            CaidaError::Io(e) => write!(f, "cannot read snapshot: {e}"),
            CaidaError::Invalid(e) => write!(f, "snapshot topology failed validation: {e}"),
        }
    }
}

impl std::error::Error for CaidaError {}

/// Parse a CAIDA `as-rel` snapshot. Rejects malformed lines (wrong field
/// count, non-numeric ASNs, unknown relationship codes, self-loops) and
/// conflicting duplicate pairs; identical duplicates are dropped.
pub fn parse_caida(text: &str) -> Result<CaidaGraph, CaidaError> {
    use std::collections::BTreeMap;
    let mut asns: Vec<u32> = Vec::new();
    let mut edges: Vec<CaidaEdge> = Vec::new();
    // Unordered pair -> canonical edge, for duplicate/conflict detection.
    let mut seen: BTreeMap<(u32, u32), CaidaEdge> = BTreeMap::new();

    for (idx, raw) in text.lines().enumerate() {
        let line = idx + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = trimmed.split('|').collect();
        if fields.len() != 3 {
            return Err(CaidaError::Syntax {
                line,
                msg: format!("expected 3 '|'-separated fields, got {}", fields.len()),
            });
        }
        let a: u32 = fields[0].trim().parse().map_err(|_| CaidaError::Syntax {
            line,
            msg: format!("bad ASN {:?}", fields[0]),
        })?;
        let b: u32 = fields[1].trim().parse().map_err(|_| CaidaError::Syntax {
            line,
            msg: format!("bad ASN {:?}", fields[1]),
        })?;
        if a == b {
            return Err(CaidaError::Syntax {
                line,
                msg: format!("self-loop on AS{a}"),
            });
        }
        let edge = match fields[2].trim() {
            "-1" => CaidaEdge {
                a,
                b,
                rel: CaidaRel::ProviderCustomer,
            },
            "0" => CaidaEdge {
                a: a.min(b),
                b: a.max(b),
                rel: CaidaRel::PeerPeer,
            },
            other => {
                return Err(CaidaError::Syntax {
                    line,
                    msg: format!("unknown relationship code {other:?} (want -1 or 0)"),
                })
            }
        };
        let key = (a.min(b), a.max(b));
        match seen.get(&key) {
            Some(prev) if *prev == edge => continue, // identical duplicate
            Some(_) => return Err(CaidaError::Conflict { line, a, b }),
            None => {
                seen.insert(key, edge);
                asns.push(a);
                asns.push(b);
                edges.push(edge);
            }
        }
    }

    if edges.is_empty() {
        return Err(CaidaError::Empty);
    }
    asns.sort_unstable();
    asns.dedup();
    Ok(CaidaGraph { asns, edges })
}

/// Knobs for building a [`Topology`] from a snapshot.
#[derive(Debug, Clone)]
pub struct SnapshotConfig {
    /// Seeds the synthetic geography (home cities, inflation factors).
    pub seed: u64,
    /// Atlas the ASes are placed into.
    pub atlas: AtlasConfig,
    /// Keep only the `max_ases` highest-degree ASes (ties broken by lower
    /// ASN) — a deterministic core-graph cut for fast tests.
    pub max_ases: Option<usize>,
}

impl Default for SnapshotConfig {
    fn default() -> Self {
        Self {
            seed: 0x_ca1d_a5ee,
            atlas: AtlasConfig::default(),
            max_ases: None,
        }
    }
}

/// SplitMix64: deterministic per-AS attribute derivation from `(seed, x)`.
fn mix(seed: u64, x: u64) -> u64 {
    let mut z = seed
        .wrapping_add(x.wrapping_mul(0x_9e37_79b9_7f4a_7c15))
        .wrapping_add(0x_9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0x_bf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x_94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Map a hash to a fraction in `[lo, hi)`.
fn frac(h: u64, lo: f64, hi: f64) -> f64 {
    lo + (hi - lo) * ((h >> 11) as f64 / (1u64 << 53) as f64)
}

/// Build a topology from snapshot text through the standard construction
/// path. Classification follows CAIDA convention: a provider-free AS with
/// customers is tier-1, any other AS with customers is transit, the rest
/// are eyeballs. Eyeballs with no provider at all (peer-only or isolated
/// after a `max_ases` cut) are repaired by attaching them to a
/// deterministically chosen tier-1.
pub fn build_from_snapshot(text: &str, cfg: &SnapshotConfig) -> Result<Topology, CaidaError> {
    let graph = parse_caida(text)?;

    // Degree per ASN (transit + peer edges alike).
    use std::collections::BTreeMap;
    let mut degree: BTreeMap<u32, usize> = BTreeMap::new();
    for e in &graph.edges {
        *degree.entry(e.a).or_default() += 1;
        *degree.entry(e.b).or_default() += 1;
    }

    // Optional deterministic core cut: highest degree first, lower ASN wins
    // ties, then restore ascending-ASN order for dense id assignment.
    let mut kept: Vec<u32> = graph.asns.clone();
    if let Some(max) = cfg.max_ases {
        if max < kept.len() {
            kept.sort_by_key(|&a| (std::cmp::Reverse(degree[&a]), a));
            kept.truncate(max.max(1));
            kept.sort_unstable();
        }
    }
    let index: BTreeMap<u32, usize> = kept.iter().enumerate().map(|(i, &a)| (a, i)).collect();
    let edges: Vec<CaidaEdge> = graph
        .edges
        .iter()
        .copied()
        .filter(|e| index.contains_key(&e.a) && index.contains_key(&e.b))
        .collect();

    // Provider/customer counts over the kept subgraph drive classification.
    let n = kept.len();
    let mut providers = vec![0usize; n];
    let mut customers = vec![0usize; n];
    for e in &edges {
        if e.rel == CaidaRel::ProviderCustomer {
            customers[index[&e.a]] += 1;
            providers[index[&e.b]] += 1;
        }
    }
    let class: Vec<AsClass> = (0..n)
        .map(|i| {
            if providers[i] == 0 && customers[i] > 0 {
                AsClass::Tier1
            } else if customers[i] > 0 {
                AsClass::Transit
            } else {
                AsClass::Eyeball
            }
        })
        .collect();
    if !class.contains(&AsClass::Tier1) {
        return Err(CaidaError::NoCore);
    }

    let atlas = Atlas::generate(&cfg.atlas);
    let n_cities = atlas.cities.len();
    // Home city per AS, deterministic in (seed, asn).
    let home: Vec<usize> = kept
        .iter()
        .map(|&asn| (mix(cfg.seed, asn as u64) % n_cities as u64) as usize)
        .collect();

    // Per-country Zipf user shares over that country's eyeballs, largest
    // share to the highest-degree (then lowest-ASN) network.
    let mut by_country: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..n {
        if class[i] == AsClass::Eyeball {
            by_country
                .entry(atlas.cities[home[i]].country)
                .or_default()
                .push(i);
        }
    }
    let mut share = vec![0.0f64; n];
    for members in by_country.values_mut() {
        members.sort_by_key(|&i| (std::cmp::Reverse(degree[&kept[i]]), kept[i]));
        let total: f64 = (1..=members.len()).map(|k| 1.0 / k as f64).sum();
        for (k, &i) in members.iter().enumerate() {
            share[i] = (1.0 / (k + 1) as f64) / total;
        }
    }

    let mut topo = Topology::new(atlas);
    let ids: Vec<AsId> = (0..n)
        .map(|i| {
            let asn = kept[i];
            let city = topo.atlas.cities[home[i]].id;
            let (lo, hi) = match class[i] {
                AsClass::Tier1 => (1.08, 1.22),
                AsClass::Transit => (1.15, 1.38),
                _ => (1.25, 1.6),
            };
            let inflation = frac(mix(cfg.seed ^ 0x1f1a, asn as u64), lo, hi);
            let home_country = (class[i] == AsClass::Eyeball).then(|| topo.atlas.city(city).country);
            topo.add_as(
                class[i],
                format!("as{asn}"),
                vec![city],
                ExitPolicy::EarlyExit,
                inflation,
                home_country,
                share[i],
            )
        })
        .collect();

    // Links: placed in the customer side's home city (peers: lower dense
    // id's), with the other endpoint's footprint extended to match.
    for e in &edges {
        let (ia, ib) = (index[&e.a], index[&e.b]);
        let (rel, kind, host) = match e.rel {
            CaidaRel::ProviderCustomer => (BusinessRel::ProviderOf, LinkKind::Transit, ib),
            CaidaRel::PeerPeer => (BusinessRel::Peer, LinkKind::PublicPeering, ia.min(ib)),
        };
        let city = topo.atlas.cities[home[host]].id;
        topo.extend_footprint(ids[ia], city);
        topo.extend_footprint(ids[ib], city);
        let capacity = match e.rel {
            CaidaRel::ProviderCustomer => 200.0,
            CaidaRel::PeerPeer => 100.0,
        };
        topo.add_interconnect(ids[ia], ids[ib], rel, kind, city, capacity);
    }

    // Repair pass: peer-only / isolated ASes buy transit from a
    // deterministically chosen tier-1 so the hierarchy stays connected.
    let tier1s: Vec<usize> = (0..n).filter(|&i| class[i] == AsClass::Tier1).collect();
    for i in 0..n {
        if class[i] == AsClass::Tier1 || providers[i] > 0 {
            continue;
        }
        let start = (mix(cfg.seed ^ 0x9e37, kept[i] as u64) % tier1s.len() as u64) as usize;
        let chosen = (0..tier1s.len())
            .map(|k| tier1s[(start + k) % tier1s.len()])
            .find(|&t| topo.relationship(ids[i], ids[t]).is_none());
        if let Some(t) = chosen {
            let city = topo.atlas.cities[home[i]].id;
            topo.extend_footprint(ids[t], city);
            topo.add_interconnect(
                ids[i],
                ids[t],
                BusinessRel::CustomerOf,
                LinkKind::Transit,
                city,
                50.0,
            );
        }
    }

    validate(&topo).map_err(|errs| {
        let msgs: Vec<String> = errs.iter().take(5).map(|e| e.to_string()).collect();
        CaidaError::Invalid(format!("{} error(s): {}", errs.len(), msgs.join("; ")))
    })?;
    Ok(topo)
}

/// Read and build a snapshot from a file on disk.
pub fn load_snapshot_file(
    path: &std::path::Path,
    cfg: &SnapshotConfig,
) -> Result<Topology, CaidaError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CaidaError::Io(format!("{}: {e}", path.display())))?;
    build_from_snapshot(&text, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SNAPSHOT: &str = "\
# source: test fixture
# format: <provider-as>|<customer-as>|-1  /  <peer-as>|<peer-as>|0
1|2|-1
1|3|-1
2|3|0

2|4|-1
3|5|-1
4|5|0
";

    fn cfg(seed: u64) -> SnapshotConfig {
        SnapshotConfig {
            seed,
            atlas: AtlasConfig {
                seed: seed ^ 0x77,
                city_density: 0.3,
            },
            max_ases: None,
        }
    }

    #[test]
    fn parses_fixture_round_trip() {
        let g = parse_caida(SNAPSHOT).unwrap();
        assert_eq!(g.asns, vec![1, 2, 3, 4, 5]);
        assert_eq!(g.edges.len(), 6);
        assert_eq!(
            g.edges[0],
            CaidaEdge {
                a: 1,
                b: 2,
                rel: CaidaRel::ProviderCustomer
            }
        );
        // Peer edges are canonicalized a < b.
        assert!(g
            .edges
            .iter()
            .filter(|e| e.rel == CaidaRel::PeerPeer)
            .all(|e| e.a < e.b));
    }

    #[test]
    fn identical_duplicates_dropped_reversed_peer_too() {
        let g = parse_caida("1|2|-1\n1|2|-1\n2|3|0\n3|2|0\n").unwrap();
        assert_eq!(g.edges.len(), 2);
    }

    #[test]
    fn malformed_lines_rejected_with_line_numbers() {
        let cases: &[(&str, usize, &str)] = &[
            ("1|2|-1\n1|2\n", 2, "expected 3"),
            ("x|2|-1\n", 1, "bad ASN"),
            ("1|y|-1\n", 1, "bad ASN"),
            ("1|2|7\n", 1, "unknown relationship"),
            ("1|1|0\n", 1, "self-loop"),
        ];
        for (text, want_line, want_msg) in cases {
            match parse_caida(text) {
                Err(CaidaError::Syntax { line, msg }) => {
                    assert_eq!(line, *want_line, "{text:?}");
                    assert!(msg.contains(want_msg), "{text:?} gave {msg:?}");
                }
                other => panic!("{text:?} gave {other:?}"),
            }
        }
        assert_eq!(
            parse_caida("1|2|-1\n2|1|-1\n"),
            Err(CaidaError::Conflict { line: 2, a: 2, b: 1 })
        );
        assert_eq!(parse_caida("# only comments\n"), Err(CaidaError::Empty));
    }

    #[test]
    fn builds_and_classifies_fixture() {
        let topo = build_from_snapshot(SNAPSHOT, &cfg(11)).unwrap();
        assert_eq!(topo.as_count(), 5);
        // Dense ids follow sorted ASNs: AS1 -> AsId(0), ...
        assert_eq!(topo.asys(AsId(0)).class, AsClass::Tier1);
        assert_eq!(topo.asys(AsId(1)).class, AsClass::Transit);
        assert_eq!(topo.asys(AsId(2)).class, AsClass::Transit);
        assert_eq!(topo.asys(AsId(3)).class, AsClass::Eyeball);
        assert_eq!(topo.asys(AsId(4)).class, AsClass::Eyeball);
        assert_eq!(topo.asys(AsId(0)).name, "as1");
        assert_eq!(topo.relationship(AsId(1), AsId(0)), Some(BusinessRel::CustomerOf));
        assert_eq!(topo.relationship(AsId(1), AsId(2)), Some(BusinessRel::Peer));
        // Eyeballs carry per-country Zipf user shares.
        assert!(topo.asys(AsId(3)).user_share > 0.0);
        assert!(topo.asys(AsId(3)).home_country.is_some());
    }

    #[test]
    fn same_snapshot_same_fingerprint() {
        let a = build_from_snapshot(SNAPSHOT, &cfg(11)).unwrap();
        let b = build_from_snapshot(SNAPSHOT, &cfg(11)).unwrap();
        assert_ne!(a.uid(), b.uid());
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = build_from_snapshot(SNAPSHOT, &cfg(12)).unwrap();
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn peer_only_as_gets_repaired_with_transit() {
        // AS6 only peers with AS4 — the repair pass must attach it to the
        // tier-1 so validation passes.
        let text = format!("{SNAPSHOT}4|6|0\n");
        let topo = build_from_snapshot(&text, &cfg(3)).unwrap();
        assert_eq!(topo.as_count(), 6);
        let as6 = AsId(5);
        assert_eq!(topo.asys(as6).class, AsClass::Eyeball);
        assert!(!topo.providers_of(as6).is_empty());
    }

    #[test]
    fn max_ases_keeps_highest_degree_core() {
        let cfg = SnapshotConfig {
            max_ases: Some(3),
            ..cfg(5)
        };
        let topo = build_from_snapshot(SNAPSHOT, &cfg).unwrap();
        // Degrees: AS1:2 AS2:3 AS3:3 AS4:2 AS5:2 — keep 2,3 and tie-broken 1.
        assert_eq!(topo.as_count(), 3);
        assert_eq!(topo.asys(AsId(0)).name, "as1");
        assert_eq!(topo.asys(AsId(1)).name, "as2");
        assert_eq!(topo.asys(AsId(2)).name, "as3");
    }

    #[test]
    fn peers_only_snapshot_has_no_core() {
        assert_eq!(
            build_from_snapshot("1|2|0\n2|3|0\n", &cfg(1)).unwrap_err(),
            CaidaError::NoCore
        );
    }

    #[test]
    fn links_respect_footprints() {
        let topo = build_from_snapshot(SNAPSHOT, &cfg(21)).unwrap();
        for l in topo.links() {
            assert!(topo.asys(l.a).present_in(l.city));
            assert!(topo.asys(l.b).present_in(l.city));
        }
    }
}
