//! Announcement control: which interconnects a prefix is announced over,
//! with optional AS-path prepending — the "grooming" levers of §3.2.2.
//!
//! Plain BGP announces everywhere with no prepending
//! ([`Announcement::full`]). Grooming withholds the announcement at chosen
//! interconnects/cities, prepends there, or attaches a NO_EXPORT community
//! ("adding a BGP community to control propagation", §3.2.2) so the
//! neighbor keeps the route to itself — all of which shift neighbors' path
//! choices and therefore anycast catchments.

use bb_topology::{AsId, InterconnectId, Topology};
use std::collections::BTreeMap;

/// Largest prepend an offer may carry. Real routers cap AS-path
/// prepending far lower; the cap keeps `1 + prepend` and every path length
/// built on it from overflowing, and bounds the propagation bucket queue.
pub const MAX_PREPEND: u32 = 255;

/// An announcement that cannot be propagated over a topology: built
/// against a different world (easy once CAIDA snapshots load at runtime)
/// or against a since-mutated one, or offered over a hierarchy that has no
/// provider-first order. Surfaced as a usage error instead of a panic so a
/// planet-scale campaign fails closed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnnouncementError {
    /// The origin AS id is out of range for this topology.
    UnknownOrigin { origin: AsId, as_count: usize },
    /// An offered interconnect id is out of range for this topology.
    UnknownLink {
        origin: AsId,
        link: InterconnectId,
        link_count: usize,
    },
    /// An offered interconnect exists but does not touch the origin.
    ForeignLink {
        origin: AsId,
        link: InterconnectId,
        a: AsId,
        b: AsId,
    },
    /// An offered link implies no business relationship in this topology.
    MissingRelationship { origin: AsId, neighbor: AsId },
    /// An offer prepends more than [`MAX_PREPEND`].
    PrependTooLong {
        origin: AsId,
        link: InterconnectId,
        prepend: u32,
    },
    /// The topology's customer→provider edges form a cycle through `at`,
    /// so provider routes have no order to descend in. `validate` and the
    /// CAIDA ingest reject such topologies; hand-built ones reach here.
    ProviderCycle { origin: AsId, at: AsId },
}

impl std::fmt::Display for AnnouncementError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AnnouncementError::UnknownOrigin { origin, as_count } => write!(
                f,
                "announcement origin {origin} is not in this topology ({as_count} ASes) — \
                 was it built against a different world?"
            ),
            AnnouncementError::UnknownLink {
                origin,
                link,
                link_count,
            } => write!(
                f,
                "announcement from {origin} offers {link:?} but this topology has only \
                 {link_count} interconnects — was it built against a different world?"
            ),
            AnnouncementError::ForeignLink { origin, link, a, b } => write!(
                f,
                "announcement from {origin} offers {link:?}, which connects {a}–{b}, \
                 not the origin — it cannot announce over another AS's interconnect"
            ),
            AnnouncementError::MissingRelationship { origin, neighbor } => write!(
                f,
                "announcement from {origin} offers a link to {neighbor} but the topology \
                 records no business relationship between them"
            ),
            AnnouncementError::PrependTooLong {
                origin,
                link,
                prepend,
            } => write!(
                f,
                "announcement from {origin} prepends {prepend} on {link:?}, above the \
                 limit of {MAX_PREPEND}"
            ),
            AnnouncementError::ProviderCycle { origin, at } => write!(
                f,
                "cannot propagate the announcement from {origin}: the topology's provider \
                 hierarchy has a customer→provider cycle through {at}"
            ),
        }
    }
}

impl std::error::Error for AnnouncementError {}

/// Propagation scope attached to one offer (the community, in BGP terms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Scope {
    /// Normal propagation: the neighbor re-exports per Gao-Rexford rules.
    Global,
    /// NO_EXPORT: the neighbor installs the route but must not re-export
    /// it — the announcement's reach ends one AS away. Used to scope an
    /// anycast site to its directly-connected networks.
    NoExport,
}

/// One announced interconnect: prepend count plus community scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Offer {
    pub prepend: u32,
    pub scope: Scope,
}

impl Offer {
    fn plain() -> Offer {
        Offer {
            prepend: 0,
            scope: Scope::Global,
        }
    }
}

/// An origin AS's announcement configuration for one prefix.
#[derive(Debug, Clone)]
pub struct Announcement {
    pub origin: AsId,
    /// Announced interconnects → offer. Interconnects of the origin absent
    /// from this map are withheld.
    offers: BTreeMap<InterconnectId, Offer>,
}

impl Announcement {
    /// Announce on every interconnect of `origin`, no prepending.
    pub fn full(topo: &Topology, origin: AsId) -> Announcement {
        let offers = topo
            .adjacency(origin)
            .iter()
            .map(|&(_, link)| (link, Offer::plain()))
            .collect();
        Announcement { origin, offers }
    }

    /// Announce nowhere (useful as a base for selective announcement).
    pub fn empty(origin: AsId) -> Announcement {
        Announcement {
            origin,
            offers: BTreeMap::new(),
        }
    }

    /// Add or update a single interconnect offer (global scope).
    pub fn offer(&mut self, link: InterconnectId, prepend: u32) -> &mut Self {
        self.offers.insert(
            link,
            Offer {
                prepend,
                scope: Scope::Global,
            },
        );
        self
    }

    /// Add or update an offer with an explicit community scope.
    pub fn offer_scoped(&mut self, link: InterconnectId, prepend: u32, scope: Scope) -> &mut Self {
        self.offers.insert(link, Offer { prepend, scope });
        self
    }

    /// Attach NO_EXPORT to every offer in `city` (scope the site's
    /// announcement to directly-connected networks).
    pub fn no_export_city(&mut self, topo: &Topology, city: bb_geo::CityId) -> &mut Self {
        for (&l, offer) in self.offers.iter_mut() {
            if topo.link(l).city == city {
                offer.scope = Scope::NoExport;
            }
        }
        self
    }

    /// Withdraw the announcement on one interconnect.
    pub fn withhold_link(&mut self, link: InterconnectId) -> &mut Self {
        self.offers.remove(&link);
        self
    }

    /// Withdraw the announcement on every interconnect in `city`.
    pub fn withhold_city(&mut self, topo: &Topology, city: bb_geo::CityId) -> &mut Self {
        self.offers.retain(|&l, _| topo.link(l).city != city);
        self
    }

    /// Prepend `n` at every interconnect in `city`.
    pub fn prepend_city(&mut self, topo: &Topology, city: bb_geo::CityId, n: u32) -> &mut Self {
        for (&l, offer) in self.offers.iter_mut() {
            if topo.link(l).city == city {
                offer.prepend = n;
            }
        }
        self
    }

    /// Prepend `n` on a single interconnect.
    pub fn prepend_link(&mut self, link: InterconnectId, n: u32) -> &mut Self {
        if let Some(offer) = self.offers.get_mut(&link) {
            offer.prepend = n;
        }
        self
    }

    /// All offers as (link, prepend) pairs.
    pub fn offers(&self) -> impl Iterator<Item = (InterconnectId, u32)> + '_ {
        self.offers.iter().map(|(&l, &o)| (l, o.prepend))
    }

    /// All offers with their full (prepend, scope) detail.
    pub fn offers_detailed(&self) -> impl Iterator<Item = (InterconnectId, Offer)> + '_ {
        self.offers.iter().map(|(&l, &o)| (l, o))
    }

    /// Offers grouped by the neighbor AS on the other side, with the
    /// effective (minimum) prepend and the tied-best entry links.
    ///
    /// The effective scope is `Global` if *any* tied-best link is global
    /// (the neighbor is free to re-export the untagged copy).
    pub fn offers_by_neighbor(&self, topo: &Topology) -> Vec<NeighborOffer> {
        let mut by_nb: BTreeMap<AsId, (u32, Vec<InterconnectId>, Scope)> = BTreeMap::new();
        for (link, offer) in self.offers_detailed() {
            let nb = topo.link(link).other(self.origin);
            let entry = by_nb.entry(nb).or_insert((u32::MAX, Vec::new(), Scope::NoExport));
            match offer.prepend.cmp(&entry.0) {
                std::cmp::Ordering::Less => {
                    *entry = (offer.prepend, vec![link], offer.scope)
                }
                std::cmp::Ordering::Equal => {
                    entry.1.push(link);
                    if offer.scope == Scope::Global {
                        entry.2 = Scope::Global;
                    }
                }
                std::cmp::Ordering::Greater => {}
            }
        }
        by_nb
            .into_iter()
            .map(|(neighbor, (prepend, entry_links, scope))| NeighborOffer {
                neighbor,
                prepend,
                entry_links,
                scope,
            })
            .collect()
    }

    /// Check that this announcement belongs to `topo`: the origin exists,
    /// every offered link exists, touches the origin, and implies a
    /// relationship, and no offer prepends more than [`MAX_PREPEND`].
    /// Propagation calls this before seeding so mismatched or oversized
    /// announcements fail closed rather than panicking mid-campaign.
    pub fn validate(&self, topo: &Topology) -> Result<(), AnnouncementError> {
        if self.origin.index() >= topo.as_count() {
            return Err(AnnouncementError::UnknownOrigin {
                origin: self.origin,
                as_count: topo.as_count(),
            });
        }
        for (&link, offer) in &self.offers {
            if link.index() >= topo.link_count() {
                return Err(AnnouncementError::UnknownLink {
                    origin: self.origin,
                    link,
                    link_count: topo.link_count(),
                });
            }
            let l = topo.link(link);
            if l.a != self.origin && l.b != self.origin {
                return Err(AnnouncementError::ForeignLink {
                    origin: self.origin,
                    link,
                    a: l.a,
                    b: l.b,
                });
            }
            let neighbor = l.other(self.origin);
            if topo.relationship(self.origin, neighbor).is_none() {
                return Err(AnnouncementError::MissingRelationship {
                    origin: self.origin,
                    neighbor,
                });
            }
            if offer.prepend > MAX_PREPEND {
                return Err(AnnouncementError::PrependTooLong {
                    origin: self.origin,
                    link,
                    prepend: offer.prepend,
                });
            }
        }
        Ok(())
    }

    /// Number of announced interconnects.
    pub fn len(&self) -> usize {
        self.offers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.offers.is_empty()
    }
}

/// The effective announcement one neighbor AS hears.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NeighborOffer {
    pub neighbor: AsId,
    /// Minimum prepend across that neighbor's announced interconnects.
    pub prepend: u32,
    /// The interconnects achieving that minimum (BGP-tied; geography picks).
    pub entry_links: Vec<InterconnectId>,
    /// Effective community scope of the best offer.
    pub scope: Scope,
}

#[cfg(test)]
mod tests {
    use super::*;
    use bb_topology::{generate, TopologyConfig};

    fn topo() -> Topology {
        generate(&TopologyConfig::small(11))
    }

    fn some_multi_link_origin(topo: &Topology) -> AsId {
        topo.ases()
            .iter()
            .find(|a| topo.adjacency(a.id).len() >= 3)
            .unwrap()
            .id
    }

    #[test]
    fn full_covers_all_interconnects() {
        let t = topo();
        let o = some_multi_link_origin(&t);
        let ann = Announcement::full(&t, o);
        assert_eq!(ann.len(), t.adjacency(o).len());
    }

    #[test]
    fn withhold_link_removes_offer() {
        let t = topo();
        let o = some_multi_link_origin(&t);
        let mut ann = Announcement::full(&t, o);
        let first = t.adjacency(o)[0].1;
        ann.withhold_link(first);
        assert_eq!(ann.len(), t.adjacency(o).len() - 1);
        assert!(ann.offers().all(|(l, _)| l != first));
    }

    #[test]
    fn withhold_city_removes_all_offers_there() {
        let t = topo();
        let o = some_multi_link_origin(&t);
        let mut ann = Announcement::full(&t, o);
        let city = t.link(t.adjacency(o)[0].1).city;
        ann.withhold_city(&t, city);
        assert!(ann.offers().all(|(l, _)| t.link(l).city != city));
    }

    #[test]
    fn prepend_changes_effective_offer() {
        let t = topo();
        let o = some_multi_link_origin(&t);
        let mut ann = Announcement::full(&t, o);
        // Prepend on all but one of a neighbor's links: the neighbor's
        // effective prepend stays 0 and the entry set shrinks.
        let nb = t.adjacency(o)[0].0;
        let links: Vec<InterconnectId> =
            ann.offers().map(|(l, _)| l).filter(|&l| t.link(l).other(o) == nb).collect();
        for &l in &links[1..] {
            ann.prepend_link(l, 3);
        }
        let offers = ann.offers_by_neighbor(&t);
        let off = offers.iter().find(|x| x.neighbor == nb).unwrap();
        assert_eq!(off.prepend, 0);
        assert_eq!(off.entry_links, vec![links[0]]);
    }

    #[test]
    fn empty_announcement_has_no_neighbors() {
        let t = topo();
        let o = some_multi_link_origin(&t);
        let ann = Announcement::empty(o);
        assert!(ann.is_empty());
        assert!(ann.offers_by_neighbor(&t).is_empty());
    }
}
