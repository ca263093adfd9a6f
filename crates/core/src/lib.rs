//! # bb-core — the studies of "Beating BGP is Harder than we Thought"
//!
//! Assembles the substrate crates into the paper's three measurement
//! studies plus the extension studies its open questions call for:
//!
//! | module | paper artifact |
//! |---|---|
//! | [`study_egress`] | §3.1, Figures 1–2, §3.1.1 episode analysis |
//! | [`study_anycast`] | §3.2, Figures 3–4 |
//! | [`study_tiers`] | §3.3, Figure 5, ingress stats, §4 fn.3 goodput |
//! | [`calibration`] | the in-text distance statistics (S23x) |
//! | [`ext::peering_reduction`] | §3.1.3 reduced-peering emulation |
//! | [`ext::grooming`] | §3.2.2 nature-vs-nurture grooming loop |
//! | [`ext::site_count`] | §3.2.2 how-many-sites-are-enough sweep |
//! | [`ext::single_network`] | §3.3.2 single-large-network analysis |
//! | [`ext::split_tcp`] | §4 split-TCP over WAN vs public backend |
//! | [`ext::availability`] | §4 availability: anycast vs DNS caching, route diversity |
//! | [`ext::hybrid`] | §4 hybrid anycast+DNS scheme |
//! | [`ext::fabric`] | §4 realizable egress controller vs omniscient |
//! | [`ext::ecs`] | §3.2.1 EDNS-Client-Subnet adoption sweep |
//!
//! [`world`] builds the scenario (topology + provider + workload +
//! congestion) each study runs on; [`figures`] holds the figure data types
//! and their ASCII rendering; [`export`] writes figure data as CSV.
//! [`serve`] and [`snapshot`] are the streaming plane: bounded-memory
//! campaign state and the crash-safe `bbsn/v2` / `bbjn/v2` epoch flushes
//! behind `repro serve`. [`framed`] is the one codec under campaign
//! checkpoints, snapshots, journals and heartbeats, with the one torn-tail
//! rule of the append-only ones. [`inject`] is the one registry of deliberate
//! faults (`BB_INJECT`) that proves each recovery path.

pub mod calibration;
pub mod checkpoint;
pub mod error;
pub mod export;
pub mod ext;
pub mod figures;
pub mod framed;
pub mod inject;
pub mod serve;
pub mod snapshot;
pub mod study_anycast;
pub mod study_egress;
pub mod study_tiers;
pub mod world;

pub use error::{BbError, BbResult};
pub use figures::Coverage;
pub use world::{Scale, Scenario, ScenarioConfig};
