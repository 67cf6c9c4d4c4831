//! # VDX — Video Delivery eXchange
//!
//! A full reproduction of *"Redesigning CDN-Broker Interactions for
//! Improved Content Delivery"* (Mukerjee et al., CoNEXT 2017): the design
//! space of CDN–broker decision interfaces, the VDX marketplace, and the
//! data-driven simulation that evaluates them — plus every substrate the
//! paper depends on, built from scratch.
//!
//! This crate is a facade: it re-exports the workspace's crates under one
//! roof so applications can depend on `vdx` alone.
//!
//! | Module | Crate | What it is |
//! |---|---|---|
//! | [`geo`] | `vdx-geo` | World model: countries, cities, great-circle geometry |
//! | [`netsim`] | `vdx-netsim` | Latency/loss models, performance scores, regression |
//! | [`trace`] | `vdx-trace` | Broker session traces, country cost views, statistics |
//! | [`solver`] | `vdx-solver` | Assignment heuristics (what every round runs) and the Lagrangian dual bound that scores them (`repro gap`) |
//! | [`cdn`] | `vdx-cdn` | CDN actor: deployments, costs, contracts, capacity, matching, bidding |
//! | [`broker`] | `vdx-broker` | Broker actor: gathering, CP policy, the Fig 9 optimizer, circuit breakers |
//! | [`proto`] | `vdx-proto` | Wire protocol: frames, messages, lossy links, reliable channels |
//! | [`core`] | `vdx-core` | The designs, the Decision Protocol, the marketplace, accounting, the round WAL |
//! | [`sim`] | `vdx-sim` | Scenario builder, metrics, one experiment per paper table/figure, periodic-round trace replay |
//! | [`audit`] | `vdx-audit` | Cross-run journal analytics: journals folded into typed rows, queries, regression gate |
//!
//! ## Quickstart
//!
//! ```
//! use vdx::prelude::*;
//!
//! // A small but complete ecosystem: world, network, trace, 7 CDNs.
//! let scenario = Scenario::build(ScenarioConfig::small());
//!
//! // Run one Decision Protocol round for today's world and for VDX.
//! let brokered = scenario.run(Design::Brokered, CpPolicy::balanced());
//! let vdx = scenario.run(Design::Marketplace, CpPolicy::balanced());
//!
//! // Settle the books: who served, who profited.
//! let settled = settle(&vdx, &scenario.world, &scenario.fleet);
//! assert_eq!(settled.losing_cdns(), 0, "everyone profits under VDX");
//! let _ = brokered;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use vdx_audit as audit;
pub use vdx_broker as broker;
pub use vdx_cdn as cdn;
pub use vdx_core as core;
pub use vdx_geo as geo;
pub use vdx_netsim as netsim;
pub use vdx_proto as proto;
pub use vdx_sim as sim;
pub use vdx_solver as solver;
pub use vdx_trace as trace;

/// The most common imports in one place.
pub mod prelude {
    pub use vdx_broker::{CpPolicy, OptimizeMode};
    pub use vdx_cdn::{CdnId, ClusterId, DeploymentModel, Fleet};
    pub use vdx_core::{settle, Design, RoundOutcome};
    pub use vdx_geo::{CityId, CountryId, World, WorldConfig};
    pub use vdx_netsim::{NetModel, NetModelConfig, Score};
    pub use vdx_sim::{Scenario, ScenarioConfig};
    pub use vdx_trace::{BrokerTrace, BrokerTraceConfig, CdnLabel};
}
