//! # vdx-trace — trace substrate for VDX
//!
//! The paper's analysis (§3) and evaluation (§5, §7) are driven by two
//! proprietary data sets: an hour-long broker session trace (33.4 K requests
//! for a music-video content provider) and a major CDN's Internet mapping
//! data (client-block→cluster performance scores). Neither is public, so
//! this crate synthesizes both with the *published* statistical properties
//! and provides the estimators needed to verify those properties hold:
//!
//! * [`broker`] — session records and the trace generator. Reproduced
//!   properties (§3.1): Zipf video popularity, power-law client-city sizes,
//!   ~78 % immediate abandonment, bimodal bitrates (peaks at the lowest and
//!   highest rungs), three named CDNs (A distributed, B and C centralized)
//!   plus "other", mid-stream CDN switching averaging ~40 % of active
//!   sessions and varying roughly between 20 % and 60 % (Fig 4), CDN A
//!   favoured in small cities while B and C are size-insensitive (Fig 5),
//!   and strong per-country usage variation (Fig 7).
//! * [`cost`] — per-country delivery-cost views (the paper's Fig 3).
//! * [`stats`] — Zipf/power-law samplers and estimators, histograms,
//!   medians; used both by generators and by the tests that hold the
//!   generators to the published statistics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod cost;
pub mod stats;

pub use broker::{BrokerTrace, BrokerTraceConfig, CdnLabel, SessionId, SessionRecord};
