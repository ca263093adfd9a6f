//! # bb-stats — statistics substrate
//!
//! The paper's figures are all distributional: traffic-weighted CDFs
//! (Figs 1, 2, 4), a CCDF (Fig 3), per-group medians with confidence bands
//! (Figs 1, 5). This crate provides exactly those primitives:
//!
//! * weighted and unweighted quantiles ([`quantile`]),
//! * weighted CDF/CCDF construction ([`cdf`]),
//! * bootstrap confidence intervals ([`bootstrap`]) for the Fig 1 band,
//! * mergeable bounded-memory quantile sketches ([`sketch`]) for
//!   `repro serve`'s unbounded campaigns,
//! * ASCII rendering of figures ([`render`]) for the `repro` binary.
//!
//! Everything is deterministic: bootstrap takes an explicit seed.

pub mod bootstrap;
pub mod cdf;
pub mod quantile;
pub mod render;
pub mod sketch;

pub use bootstrap::{bootstrap_median_ci, ConfidenceInterval};
pub use cdf::{Ccdf, Cdf};
pub use quantile::{
    median_unsorted, min_finite, quantile_select, quantile_unsorted,
    weighted_median, weighted_quantile,
};
pub use sketch::QuantileSketch;
