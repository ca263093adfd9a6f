//! Client prefixes: the unit of routing (BGP announces per prefix) and of
//! measurement aggregation (⟨PoP, prefix, route⟩ in §3.1).

use bb_geo::CityId;
use bb_topology::AsId;

/// Dense identifier of a client prefix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PrefixId(pub u32);

impl PrefixId {
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Stable code for keying the last-mile congestion process.
    pub fn lastmile_code(self) -> u64 {
        0x_5a5a_0000_0000 | self.0 as u64
    }
}

impl std::fmt::Display for PrefixId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pfx#{}", self.0)
    }
}

/// One client prefix: users of one eyeball AS in one metro.
#[derive(Debug, Clone)]
pub struct ClientPrefix {
    pub id: PrefixId,
    /// The eyeball AS announcing this prefix.
    pub asn: AsId,
    /// Metro where these clients sit.
    pub city: CityId,
    /// Share of global traffic volume (all prefixes sum to 1.0).
    pub weight: f64,
    /// Users represented, millions.
    pub users_m: f64,
    /// Modeled access line rate, Mbps (for goodput experiments).
    pub access_mbps: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lastmile_codes_are_distinct() {
        assert_ne!(PrefixId(1).lastmile_code(), PrefixId(2).lastmile_code());
    }

    #[test]
    fn display() {
        assert_eq!(PrefixId(4).to_string(), "pfx#4");
    }
}
