//! Interconnections between ASes: business relationship + physical links.

use crate::ids::{AsId, InterconnectId};
use bb_geo::CityId;

/// The business relationship between an ordered pair of ASes.
///
/// Stored once per AS pair; individual [`Interconnect`]s inherit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BusinessRel {
    /// The first AS is a customer of the second (pays for transit).
    CustomerOf,
    /// The first AS is a provider of the second.
    ProviderOf,
    /// Settlement-free peers.
    Peer,
}

impl BusinessRel {
    /// The same relationship viewed from the other side.
    pub fn reversed(self) -> BusinessRel {
        match self {
            BusinessRel::CustomerOf => BusinessRel::ProviderOf,
            BusinessRel::ProviderOf => BusinessRel::CustomerOf,
            BusinessRel::Peer => BusinessRel::Peer,
        }
    }
}

/// Physical flavor of an interconnection. The paper's Figure 2 compares
/// routes by exactly these classes (peer vs transit; private vs public
/// exchange).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LinkKind {
    /// Paid transit link (customer side pays).
    Transit,
    /// Private network interconnect (PNI) with dedicated capacity.
    PrivatePeering,
    /// Port on a public Internet exchange.
    PublicPeering,
}

impl LinkKind {
    pub fn name(&self) -> &'static str {
        match self {
            LinkKind::Transit => "transit",
            LinkKind::PrivatePeering => "private-peering",
            LinkKind::PublicPeering => "public-peering",
        }
    }
}

/// One physical interconnection between two ASes in one city.
///
/// An AS pair may interconnect in many cities; each such point is a separate
/// `Interconnect` (that multiplicity is what makes hot-potato vs late-exit
/// choices meaningful).
#[derive(Debug, Clone)]
pub struct Interconnect {
    pub id: InterconnectId,
    pub a: AsId,
    pub b: AsId,
    /// Relationship of `a` towards `b`.
    pub rel: BusinessRel,
    pub kind: LinkKind,
    pub city: CityId,
    /// Provisioned capacity, Gbps. Used by the congestion model and by the
    /// Edge-Fabric-style egress controller's overload checks.
    pub capacity_gbps: f64,
}

impl Interconnect {
    /// The other endpoint, given one endpoint.
    pub fn other(&self, asn: AsId) -> AsId {
        if asn == self.a {
            self.b
        } else {
            debug_assert_eq!(asn, self.b);
            self.a
        }
    }

    /// Relationship of `asn` towards the other endpoint.
    pub fn rel_of(&self, asn: AsId) -> BusinessRel {
        if asn == self.a {
            self.rel
        } else {
            debug_assert_eq!(asn, self.b);
            self.rel.reversed()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> Interconnect {
        Interconnect {
            id: InterconnectId(0),
            a: AsId(1),
            b: AsId(2),
            rel: BusinessRel::CustomerOf,
            kind: LinkKind::Transit,
            city: CityId(0),
            capacity_gbps: 100.0,
        }
    }

    #[test]
    fn reversed_involution() {
        for r in [BusinessRel::CustomerOf, BusinessRel::ProviderOf, BusinessRel::Peer] {
            assert_eq!(r.reversed().reversed(), r);
        }
    }

    #[test]
    fn other_endpoint() {
        let l = link();
        assert_eq!(l.other(AsId(1)), AsId(2));
        assert_eq!(l.other(AsId(2)), AsId(1));
    }

    #[test]
    fn rel_of_each_side() {
        let l = link();
        assert_eq!(l.rel_of(AsId(1)), BusinessRel::CustomerOf);
        assert_eq!(l.rel_of(AsId(2)), BusinessRel::ProviderOf);
    }
}
