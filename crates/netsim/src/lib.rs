//! # bb-netsim — the performance plane
//!
//! Where `bb-bgp` decides *which* AS-level routes exist, this crate decides
//! *how they perform*:
//!
//! * [`path`] realizes an AS-level path into a city-level waypoint sequence,
//!   applying each AS's exit policy (hot-potato early exit vs late exit) at
//!   every interconnection choice — the mechanism behind §2.1's "circuitous
//!   routes" and §3.3.2's single-large-network effect;
//! * [`congestion`] drives deterministic utilization processes per
//!   interconnect, per destination metro, and per last-mile, with diurnal
//!   swings and transient events. Destination-side keys are shared by *all*
//!   routes to a client, producing §3.1.1's correlated degradation;
//! * [`rtt`] holds the RTT floor of a realized path and the batched TCP
//!   MinRTT jitter kernels;
//! * [`plan`] compiles the window-invariant part of a measurement —
//!   topology lookups and congestion-key resolution — once per realized
//!   path, so the per-window query is a branch-free fold over flat term
//!   lanes (bit-identical to the reference walk);
//! * [`reference`] holds the scalar walks the oracles check the compiled
//!   paths against; no production code calls it;
//! * [`goodput`] is a Mathis-style throughput model for the paper's
//!   footnote-3 goodput comparison;
//! * [`failure`] and [`fault`] inject failures: the former takes down
//!   sites and links of the simulated world, the latter degrades the
//!   *measurement* plane itself (probe loss, timeouts, route churn);
//! * [`time`] holds the simulation clock (minutes) and the 15-minute
//!   aggregation windows of §3.1.
//!
//! Everything is deterministic given the model seed; congestion processes
//! are lazily materialized per key and cached.

pub mod congestion;
pub mod failure;
pub mod fault;
pub mod goodput;
mod keyed;
pub mod path;
pub mod plan;
pub mod reference;
pub mod rtt;
pub mod time;

pub use congestion::{
    diurnal_factor, materialize_races_closed, CongestionConfig, CongestionKey, CongestionModel,
    KeyProcess,
};
pub use plan::{DiurnalTable, PathPlanBatch};
pub use failure::{FailureConfig, FailureKey, FailureModel, Outage};
pub use fault::{FaultConfig, FaultLevel, FaultPlane, FaultTally, RouteChurn, MAX_BASE_RTT_MS};
pub use goodput::goodput_mbps;
pub use path::{realize_path, RealizeSpec, RealizedPath, Segment, TracerouteHop};
pub use rtt::{
    path_base_rtt_ms, FaultedMedian, FaultedWindow, JitterScratch, MedianLanes, RttModel,
    APPROX_Z_ERR,
};
pub use time::{SimTime, Window, WINDOW_MINUTES};
