//! # vdx-cdn — the CDN actor model for VDX
//!
//! Everything a CDN *is* in the paper's simulation (§5.1) and marketplace
//! (§6): a deployment of clusters with per-cluster costs and capacities, a
//! flat-rate contract with the content provider, a matching algorithm that
//! proposes candidate clusters for clients, and the per-cluster margins it
//! learns to bid at.
//!
//! Modules, mirroring §5.1's simulation inventory:
//!
//! * [`cluster`] — clusters and ids; cost-per-bit accounting.
//! * [`deploy`] — deployment models (distributed / regional / centralized /
//!   city-centric) and the 14-CDN fleet builder ("one highly distributed
//!   CDN" plus 13 PeeringDB-style inferences), plus the 200 city-centric
//!   CDNs of §7.2.
//! * [`cost`] — bandwidth cost drawn from the country mean with the
//!   US-top-8-ISP spread; co-location cost decreasing with the logarithm of
//!   the number of co-located CDNs.
//! * [`capacity`] — the solo-workload provisioning rule: run the whole
//!   client population against one CDN alone, give each cluster 2× the
//!   traffic it attracted, and let empty clusters draw from their nearest
//!   stocked neighbour.
//! * [`contract`] — flat-rate contract price (average cost per bit over the
//!   solo workload) and the 1.2× markup used in the profit figures.
//! * [`matching`] — the candidate-cluster rule: all clusters within 2× of
//!   the best score (else the second best), sorted cheapest-first.
//! * [`bidding`] — the accept-feedback price-shading loop ("CDNs learn
//!   risk-averse bidding strategies", §6.3).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bidding;
pub mod capacity;
pub mod cluster;
pub mod contract;
pub mod cost;
pub mod deploy;
pub mod matching;

pub use bidding::BidShading;
pub use capacity::{median_capacity, plan_capacities, total_capacity, Demand, PROVISION_FACTOR};
pub use cluster::{CdnId, Cluster, ClusterId};
pub use contract::{negotiate_contract, Contract, DEFAULT_MARKUP};
pub use deploy::{build_fleet, city_centric_cdns, Cdn, DeploymentModel, Fleet, FleetConfig};
pub use matching::{
    candidate_clusters, candidate_clusters_into, CityMatcher, Matching, MatchingConfig,
};
