//! The BGP decision process (the AS-level part of it).
//!
//! "None of the criteria BGP uses for selecting among paths (e.g., prefer
//! peering over transit, prefer paths with fewer AS-level hops, do hot
//! potato routing, etc.) directly correlate with performance" (§1). This
//! module implements exactly those performance-oblivious criteria:
//!
//! 1. **Local preference** by business class: customer > peer > provider
//!    (route through whoever pays you, else settlement-free, else whoever
//!    you pay).
//! 2. **Shorter AS path** (including prepending).
//! 3. Deterministic tie-break on the next-hop AS id (standing in for
//!    router-id tie-breaking).
//!
//! Hot-potato tie-breaking among equal interconnects is geographic and is
//! applied during path realization in `bb-netsim`.

use bb_topology::{AsId, BusinessRel};

/// How a route was learned, in local-preference order (lower = preferred).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouteClass {
    /// Learned from a customer (or self-originated).
    Customer = 0,
    /// Learned from a settlement-free peer.
    Peer = 1,
    /// Learned from a transit provider.
    Provider = 2,
}

impl RouteClass {
    /// The class a route has at an AS that learned it from `neighbor_rel`,
    /// where `neighbor_rel` is the *neighbor's* relationship towards the
    /// deciding AS.
    pub fn from_neighbor_rel(neighbor_rel: BusinessRel) -> RouteClass {
        match neighbor_rel {
            // Neighbor is our customer.
            BusinessRel::CustomerOf => RouteClass::Customer,
            BusinessRel::Peer => RouteClass::Peer,
            // Neighbor is our provider.
            BusinessRel::ProviderOf => RouteClass::Provider,
        }
    }

    /// Gao-Rexford export rule: may an AS holding a route of this class
    /// advertise it to a neighbor of the given relationship?
    /// (`to_rel` is the deciding AS's relationship towards the neighbor.)
    pub fn exportable_to(self, to_rel: BusinessRel) -> bool {
        match to_rel {
            // We always export to our customers.
            BusinessRel::ProviderOf => true,
            // To peers and providers: only customer routes (and our own
            // prefixes, which have class Customer here).
            BusinessRel::Peer | BusinessRel::CustomerOf => self == RouteClass::Customer,
        }
    }
}

/// Compare two candidate routes `(class, path_len, via)`; returns `true`
/// if the first strictly wins the decision process.
pub fn better(a: (RouteClass, u32, AsId), b: (RouteClass, u32, AsId)) -> bool {
    (a.0, a.1, a.2) < (b.0, b.1, b.2)
}

/// Deterministic stand-in for BGP's arbitrary final tie-breaking
/// (oldest-route / router-id): a hash of (deciding AS, next hop). Using a
/// hash instead of the raw AS id avoids a global bias toward low-numbered
/// neighbors — in reality, which of two equally-good upstreams a network
/// prefers is essentially idiosyncratic per network.
pub fn tie_break(decider: AsId, via: AsId) -> u32 {
    let mut z = ((decider.0 as u64) << 32) ^ via.0 as u64;
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) as u32
}

/// Full decision comparison at a specific AS, applying the hashed
/// tie-break. Returns `true` if candidate `a` strictly beats `b`.
pub fn better_at(decider: AsId, a: (RouteClass, u32, AsId), b: (RouteClass, u32, AsId)) -> bool {
    let ka = (a.0, a.1, tie_break(decider, a.2), a.2);
    let kb = (b.0, b.1, tie_break(decider, b.2), b.2);
    ka < kb
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_ordering_is_localpref() {
        assert!(RouteClass::Customer < RouteClass::Peer);
        assert!(RouteClass::Peer < RouteClass::Provider);
    }

    #[test]
    fn class_from_neighbor_relationship() {
        assert_eq!(
            RouteClass::from_neighbor_rel(BusinessRel::CustomerOf),
            RouteClass::Customer
        );
        assert_eq!(RouteClass::from_neighbor_rel(BusinessRel::Peer), RouteClass::Peer);
        assert_eq!(
            RouteClass::from_neighbor_rel(BusinessRel::ProviderOf),
            RouteClass::Provider
        );
    }

    #[test]
    fn export_rules_are_gao_rexford() {
        // Customer routes go everywhere.
        assert!(RouteClass::Customer.exportable_to(BusinessRel::ProviderOf));
        assert!(RouteClass::Customer.exportable_to(BusinessRel::Peer));
        assert!(RouteClass::Customer.exportable_to(BusinessRel::CustomerOf));
        // Peer/provider routes go only to customers.
        for class in [RouteClass::Peer, RouteClass::Provider] {
            assert!(class.exportable_to(BusinessRel::ProviderOf));
            assert!(!class.exportable_to(BusinessRel::Peer));
            assert!(!class.exportable_to(BusinessRel::CustomerOf));
        }
    }

    #[test]
    fn decision_prefers_class_then_length_then_id() {
        let c = RouteClass::Customer;
        let p = RouteClass::Peer;
        // Class dominates length.
        assert!(better((c, 9, AsId(5)), (p, 1, AsId(1))));
        // Length decides within class.
        assert!(better((p, 1, AsId(9)), (p, 2, AsId(1))));
        // Id breaks full ties.
        assert!(better((p, 2, AsId(1)), (p, 2, AsId(9))));
        // Irreflexive.
        assert!(!better((p, 2, AsId(1)), (p, 2, AsId(1))));
    }

    #[test]
    fn hashed_tiebreak_is_antisymmetric_and_varies_by_decider() {
        let p = RouteClass::Peer;
        let (a, b) = ((p, 2, AsId(3)), (p, 2, AsId(9)));
        for decider in [AsId(0), AsId(1), AsId(2), AsId(100)] {
            // Exactly one of the two wins.
            assert_ne!(better_at(decider, a, b), better_at(decider, b, a));
            // Irreflexive.
            assert!(!better_at(decider, a, a));
        }
        // Different deciders disagree for some pair (no global bias): scan a
        // few deciders until both orders have been seen.
        let mut saw_a = false;
        let mut saw_b = false;
        for d in 0..64 {
            if better_at(AsId(d), a, b) {
                saw_a = true;
            } else {
                saw_b = true;
            }
        }
        assert!(saw_a && saw_b, "tie-break must not be globally biased");
    }

    #[test]
    fn hashed_tiebreak_never_overrides_class_or_length() {
        let c = RouteClass::Customer;
        let p = RouteClass::Peer;
        for d in 0..32 {
            assert!(better_at(AsId(d), (c, 9, AsId(7)), (p, 1, AsId(1))));
            assert!(better_at(AsId(d), (p, 1, AsId(7)), (p, 2, AsId(1))));
        }
    }
}
