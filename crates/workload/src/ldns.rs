//! LDNS resolvers and the client→resolver sharing model.
//!
//! §3.2.1: "DNS redirection systems cannot see the IP address of the
//! requesting client, only of client's local resolver (LDNS), limiting
//! decisions to a per-LDNS granularity. EDNS Client Subnet was designed to
//! overcome this limitation, but its adoption by ISPs is virtually
//! non-existent (< 0.1% of ASes) outside of public resolvers."
//!
//! We model two resolver kinds: each eyeball AS runs its own resolver
//! (aggregating that AS's clients across *cities*), and one global public
//! resolver used by a configurable fraction of clients everywhere
//! (aggregating clients across the *world* — unless ECS is enabled for it,
//! which public resolvers do support).

use bb_topology::AsId;

/// Dense identifier of a resolver.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LdnsId(pub u32);

impl LdnsId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What kind of resolver this is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LdnsKind {
    /// The ISP resolver of one eyeball AS.
    Isp(AsId),
    /// A global public resolver (8.8.8.8-style).
    Public,
}

/// One LDNS resolver.
#[derive(Debug, Clone)]
pub struct Ldns {
    pub id: LdnsId,
    pub kind: LdnsKind,
    /// Whether this resolver sends EDNS Client Subnet. Public resolvers do;
    /// ISP resolvers essentially never do (§3.2.1).
    pub sends_ecs: bool,
}
