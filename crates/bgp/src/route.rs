//! Route records stored per AS by propagation.

use crate::arena::{EntryHandle, PathHandle};
use crate::decision::RouteClass;
use bb_topology::AsId;

/// The best route an AS holds toward the origin of one routing computation.
///
/// `Copy`, 24 bytes: the AS path and the entry-link set live in the owning
/// `RoutingTable`'s arena/pool and are referenced by 4-byte handles, so a
/// planet-scale table is one flat `Vec` plus two shared side arrays instead
/// of ~10⁵ owned vectors. Resolve the handles through the table
/// (`RoutingTable::as_path`, `RoutingTable::entry_links`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BestRoute {
    /// How this AS learned the route (drives local-pref and export rules).
    pub class: RouteClass,
    /// AS-path length including prepending (origin's own route has length 0).
    pub path_len: u32,
    /// Next hop toward the origin; `None` at the origin itself.
    pub via: Option<AsId>,
    /// Interned AS path back to the origin, filled in when the routing
    /// table is finalized. `PathHandle::CYCLE` marks a poisoned via chain.
    pub path: PathHandle,
    /// For ASes adjacent to the origin: the interconnects into the origin
    /// that are tied-best under BGP (same effective path length). The
    /// realization layer picks one by exit policy; this is where anycast
    /// catchment geography comes from. `EntryHandle::NONE` elsewhere.
    pub entry: EntryHandle,
    /// The route carries NO_EXPORT: its holder must not re-advertise it.
    pub no_export: bool,
}

impl BestRoute {
    /// The origin's trivial route to itself.
    pub fn origin() -> Self {
        BestRoute {
            class: RouteClass::Customer,
            path_len: 0,
            via: None,
            path: PathHandle::NONE,
            entry: EntryHandle::NONE,
            no_export: false,
        }
    }

    /// Whether this is the origin's own route.
    pub fn is_origin(&self) -> bool {
        self.via.is_none() && self.path_len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn origin_route_shape() {
        let r = BestRoute::origin();
        assert!(r.is_origin());
        assert_eq!(r.path_len, 0);
        assert!(r.entry.is_none());
    }

    #[test]
    fn non_origin_route() {
        let r = BestRoute {
            class: RouteClass::Peer,
            path_len: 2,
            via: Some(AsId(5)),
            path: PathHandle::NONE,
            entry: EntryHandle::NONE,
            no_export: false,
        };
        assert!(!r.is_origin());
    }

    #[test]
    fn best_route_is_small() {
        // The whole point of interning: a route record is flat and small.
        assert!(std::mem::size_of::<BestRoute>() <= 24);
        assert!(std::mem::size_of::<Option<BestRoute>>() <= 28);
    }
}
