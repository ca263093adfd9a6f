//! # bb-topology — synthetic AS-level Internet topology
//!
//! Builds the world the paper's measurements happen in: autonomous systems
//! with business relationships (customer/provider, peer), typed
//! interconnections placed in specific cities (transit, private peering /
//! PNI, public peering at IXPs), and geographic footprints per AS.
//!
//! The generator produces the class structure the paper's arguments rest on:
//!
//! * a clique of **tier-1** backbones present at every major colo hub
//!   (late-exit capable, well-run WANs — §3.3.2's "single large provider"),
//! * regional **transit** ASes that buy from tier-1s and peer regionally,
//! * **eyeball** ASes per country that buy regional transit and host the
//!   client populations,
//! * room for **content provider** ASes to be attached afterwards by
//!   `bb-cdn` (PoPs, PNIs into eyeballs, IXP peering, transit).
//!
//! The topology is static over a simulation run; performance dynamics live
//! in `bb-netsim`.

pub mod asys;
pub mod caida;
pub mod generator;
pub mod graph;
pub mod ids;
pub mod link;
pub mod validate;

pub use asys::{AsClass, AsNode, ExitPolicy};
pub use caida::{
    build_from_snapshot, load_snapshot_file, parse_caida, CaidaError, CaidaGraph, SnapshotConfig,
};
pub use generator::{generate, TopologyConfig};
pub use graph::{fnv1a_fold, ProviderOrder, RelAdjacency, Topology, FNV_OFFSET};
pub use ids::{AsId, InterconnectId};
pub use link::{BusinessRel, Interconnect, LinkKind};
