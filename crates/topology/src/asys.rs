//! Autonomous systems: class, footprint, and intra-domain routing quality.

use crate::ids::AsId;
use bb_geo::{CityId, CountryIdx};

/// Business class of an AS. Drives relationship generation and default
/// routing quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsClass {
    /// Global backbone; peers with all other tier-1s, sells to everyone.
    Tier1,
    /// Regional transit provider.
    Transit,
    /// Access/eyeball network hosting end users.
    Eyeball,
    /// Content/cloud provider (attached by `bb-cdn`).
    Content,
}

impl AsClass {
    pub fn name(&self) -> &'static str {
        match self {
            AsClass::Tier1 => "tier1",
            AsClass::Transit => "transit",
            AsClass::Eyeball => "eyeball",
            AsClass::Content => "content",
        }
    }
}

/// Where an AS hands traffic to the next AS when it has several
/// interconnections to choose from.
///
/// Hot-potato ("early exit") is the default economic behaviour BGP induces;
/// late exit means the AS carries traffic on its own backbone as far as
/// possible — the behaviour §3.3.2 attributes to tier-1s carrying
/// Google-bound traffic "the whole way" (possibly because Google pays for
/// high-end service).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitPolicy {
    /// Hand off at the interconnect nearest where traffic entered this AS.
    EarlyExit,
    /// Carry traffic internally to the interconnect nearest the destination.
    LateExit,
}

/// One autonomous system.
#[derive(Debug, Clone)]
pub struct AsNode {
    pub id: AsId,
    pub class: AsClass,
    pub name: String,
    /// Cities where this AS has routers (interconnects can only be placed
    /// in cities both endpoints have in their footprint).
    pub footprint: Vec<CityId>,
    /// Intra-domain handoff behaviour.
    pub exit_policy: ExitPolicy,
    /// Multiplier over great-circle distance for segments carried inside
    /// this AS (backbone quality: tier-1s ≈ 1.1–1.3, small eyeballs worse).
    pub intra_inflation: f64,
    /// For eyeballs: the country whose users this AS serves.
    pub home_country: Option<CountryIdx>,
    /// For eyeballs: share of the home country's users on this network.
    pub user_share: f64,
    /// Probability that this AS's hand-off choice actually follows its exit
    /// policy's geographic intent. Real networks pick exits by IGP metrics,
    /// route-reflector visibility, and configuration accidents that only
    /// loosely track geography — the documented driver of anycast
    /// misdirection (Li et al., SIGCOMM '18). 1.0 = perfectly geographic.
    pub exit_fidelity: f64,
}

impl AsNode {
    /// Whether the AS has presence in `city`.
    pub fn present_in(&self, city: CityId) -> bool {
        self.footprint.contains(&city)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_names() {
        assert_eq!(AsClass::Tier1.name(), "tier1");
        assert_eq!(AsClass::Content.name(), "content");
    }

    #[test]
    fn present_in_checks_footprint() {
        let node = AsNode {
            id: AsId(1),
            class: AsClass::Eyeball,
            name: "eye".into(),
            footprint: vec![CityId(3), CityId(5)],
            exit_policy: ExitPolicy::EarlyExit,
            intra_inflation: 1.4,
            home_country: Some(0),
            user_share: 1.0,
            exit_fidelity: 1.0,
        };
        assert!(node.present_in(CityId(3)));
        assert!(!node.present_in(CityId(4)));
    }
}
