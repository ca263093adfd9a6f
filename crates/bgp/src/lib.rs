//! # bb-bgp — BGP route computation over the AS topology
//!
//! Implements the inter-domain routing model the paper's analysis is framed
//! against:
//!
//! * **Gao-Rexford propagation** ([`propagation`]): routes flow customer →
//!   provider, across one peer edge, then provider → customer; export rules
//!   are enforced (peer/provider-learned routes are only exported to
//!   customers). The resulting paths are valley-free by construction, a
//!   property the test-suite checks exhaustively and property-based tests
//!   re-check on random topologies.
//! * **The BGP decision process** ([`decision`]): prefer customer routes over
//!   peer routes over provider routes (local-pref), then shorter AS paths,
//!   with deterministic tie-breaking. Geographic (hot-potato) tie-breaking
//!   happens at path *realization* time in `bb-netsim`, where city
//!   coordinates are known.
//! * **Announcement control** ([`announcement`]): per-interconnect
//!   announcement with AS-path prepending and withholding — the "grooming"
//!   primitives §3.2.2 describes operators using to fix poor anycast routes.
//! * **The provider's Adj-RIB-in** ([`rib`]): for each provider PoP, the
//!   ranked set of routes toward a client prefix, ordered by the
//!   Facebook-style policy of §3.1 (private peers, then public peers, then
//!   transit; shorter paths first). Figure 1/2's "most preferred, second,
//!   third" routes come straight from this ranking.

pub mod announcement;
pub mod arena;
pub mod decision;
pub mod propagation;
pub mod rib;
pub mod route;

pub use announcement::{Announcement, AnnouncementError, Offer, Scope, MAX_PREPEND};
pub use arena::{EntryHandle, EntryPool, PathArena, PathHandle};
pub use decision::{better, RouteClass};
pub use propagation::{compute_routes, try_compute_routes, valley_free, PathError, RoutingTable};
pub use rib::{provider_rib, CandidateRoute, PopRib, ProviderRouteClass};
pub use route::BestRoute;
