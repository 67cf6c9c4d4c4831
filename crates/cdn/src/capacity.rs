//! Capacity planning: the paper's solo-workload provisioning rule (§5.1):
//!
//! > "Cluster capacity is assigned similarly; all clients are sent to each
//! > CDN individually and clusters are assigned 2× received traffic as
//! > their capacity. We assume that in steady-state, clusters are
//! > provisioned with ample capacity. Clusters that did not see any clients
//! > take capacity from their closest neighbor with capacity. Designs that
//! > do not share cluster capacity information with brokers use the median
//! > cluster capacity (per-CDN) as an estimate."
//!
//! "Take capacity from" is implemented as an even split with the nearest
//! stocked neighbour (the donor halves); total CDN capacity is conserved,
//! which the tests assert.
//!
//! The solo run sends each client to the CDN's *matching-preferred* cluster
//! (cheapest within 2× of the best score) — the same rule the Decision
//! Protocol uses — so provisioned capacity sits where single-matching
//! designs actually put traffic.

use crate::cluster::{CdnId, ClusterId};
use crate::deploy::Fleet;
use crate::matching::{CityMatcher, MatchingConfig};
use vdx_geo::{CityId, World};
use vdx_netsim::Score;
use vdx_units::Kbps;

/// A demand point: a client city and its steady-state bitrate.
pub type Demand = (CityId, Kbps);

/// Provisioning multiple over attracted traffic (paper: 2×).
pub const PROVISION_FACTOR: f64 = 2.0;

/// Runs the solo-workload rule for every CDN and writes capacities into the
/// fleet. `score_of(client, site)` estimates path scores. Returns the
/// per-cluster attracted traffic (kbit/s) for inspection.
pub fn plan_capacities(
    world: &World,
    fleet: &mut Fleet,
    demand: &[Demand],
    score_of: impl Fn(CityId, CityId) -> Score,
) -> Vec<Kbps> {
    let mut attracted = vec![Kbps::ZERO; fleet.clusters.len()];
    // The preferred-cluster rule (cheapest within 2× of the best score),
    // cdns × demand-points times; demand points of one city are adjacent.
    let preferred = MatchingConfig {
        score_ratio: 2.0,
        max_candidates: 1,
    };
    let mut matcher = CityMatcher::new(fleet, &preferred, &score_of);
    for cdn_idx in 0..fleet.cdns.len() {
        let cdn = CdnId(cdn_idx as u32);
        for &(client, kbps) in demand {
            if let Some(m) = matcher.candidates_for(cdn, client).first() {
                attracted[m.cluster.index()] += kbps;
            }
        }
        // Conservation: in its solo run a CDN with any clusters at all
        // attracts the entire workload — every demand point lands somewhere.
        #[cfg(debug_assertions)]
        if !fleet.cdns[cdn_idx].clusters.is_empty() {
            let placed: f64 = fleet.cdns[cdn_idx]
                .clusters
                .iter()
                .map(|c| attracted[c.index()].as_f64())
                .sum();
            let offered: f64 = demand.iter().map(|d| d.1.as_f64()).sum();
            debug_assert!(
                (placed - offered).abs() <= 1e-6 * offered.abs().max(1.0),
                "{cdn}: solo run attracted {placed} of {offered}"
            );
        }
    }
    for (i, cl) in fleet.clusters.iter_mut().enumerate() {
        cl.capacity_kbps = attracted[i] * PROVISION_FACTOR;
    }
    // Empty clusters draw from their nearest stocked sibling.
    for cdn_idx in 0..fleet.cdns.len() {
        let cdn = CdnId(cdn_idx as u32);
        #[cfg(debug_assertions)]
        let before = total_capacity(fleet, cdn).as_f64();
        redistribute_empty(world, fleet, cdn);
        // Conservation: redistribution moves capacity between siblings but
        // must never create or destroy it.
        #[cfg(debug_assertions)]
        {
            let after = total_capacity(fleet, cdn).as_f64();
            debug_assert!(
                (before - after).abs() <= 1e-6 * before.abs().max(1.0),
                "{cdn}: redistribution changed total capacity {before} -> {after}"
            );
        }
    }
    attracted
}

/// Splits capacity between each empty cluster and its nearest same-CDN
/// neighbour that has capacity. Processes empty clusters in id order.
fn redistribute_empty(world: &World, fleet: &mut Fleet, cdn: CdnId) {
    let ids: Vec<ClusterId> = fleet.cdns[cdn.index()].clusters.clone();
    for &empty in &ids {
        if fleet.clusters[empty.index()].capacity_kbps > Kbps::ZERO {
            continue;
        }
        let empty_city = fleet.clusters[empty.index()].city;
        let donor = ids
            .iter()
            .copied()
            .filter(|&c| c != empty && fleet.clusters[c.index()].capacity_kbps > Kbps::ZERO)
            .min_by(|&a, &b| {
                let da = world.distance_km(empty_city, fleet.clusters[a.index()].city);
                let db = world.distance_km(empty_city, fleet.clusters[b.index()].city);
                da.total_cmp(&db).then(a.cmp(&b))
            });
        if let Some(donor) = donor {
            let half = fleet.clusters[donor.index()].capacity_kbps / 2.0;
            fleet.clusters[donor.index()].capacity_kbps = half;
            fleet.clusters[empty.index()].capacity_kbps = half;
        }
    }
}

/// Per-CDN median cluster capacity — the estimate used by designs that do
/// not announce capacities. Returns 0 for cluster-less CDNs.
pub fn median_capacity(fleet: &Fleet, cdn: CdnId) -> Kbps {
    let mut caps: Vec<Kbps> = fleet.clusters_of(cdn).map(|c| c.capacity_kbps).collect();
    if caps.is_empty() {
        return Kbps::ZERO;
    }
    caps.sort_by(Kbps::total_cmp);
    let n = caps.len();
    if n % 2 == 1 {
        caps[n / 2]
    } else {
        caps[n / 2 - 1].midpoint(caps[n / 2])
    }
}

/// Total provisioned capacity of a CDN.
pub fn total_capacity(fleet: &Fleet, cdn: CdnId) -> Kbps {
    fleet.clusters_of(cdn).map(|c| c.capacity_kbps).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::{build_fleet, FleetConfig};
    use vdx_geo::{World, WorldConfig};
    use vdx_netsim::{NetModel, NetModelConfig};

    fn setup() -> (World, Fleet, Vec<Demand>, NetModel) {
        let world = World::generate(
            &WorldConfig {
                countries: 20,
                cities: 120,
                ..Default::default()
            },
            4,
        );
        let fleet = build_fleet(
            &world,
            &FleetConfig {
                distributed_sites: 40,
                medium: (2, 10..15),
                centralized: (2, 3..5),
                regional: (2, 4..8),
                ..Default::default()
            },
            4,
        );
        let net = NetModel::new(NetModelConfig::default(), 4);
        let demand: Vec<Demand> = world
            .cities()
            .iter()
            .map(|c| (c.id, Kbps::new(1_000.0 * c.population_weight.min(50.0))))
            .collect();
        (world, fleet, demand, net)
    }

    #[test]
    fn capacity_is_twice_attracted_traffic_plus_conservation() {
        let (world, mut fleet, demand, net) = setup();
        let attracted =
            plan_capacities(&world, &mut fleet, &demand, |a, b| net.score(&world, a, b));
        let total_demand: f64 = demand.iter().map(|d| d.1.as_f64()).sum();
        for cdn in &fleet.cdns {
            // Each CDN attracted the whole workload in its solo run.
            let cdn_attracted: f64 = cdn
                .clusters
                .iter()
                .map(|c| attracted[c.index()].as_f64())
                .sum();
            assert!(
                (cdn_attracted - total_demand).abs() < 1e-6,
                "{}: attracted {} of {}",
                cdn.id,
                cdn_attracted,
                total_demand
            );
            // Redistribution conserves the 2x total.
            let cap = total_capacity(&fleet, cdn.id).as_f64();
            assert!(
                (cap - PROVISION_FACTOR * total_demand).abs() < 1e-6,
                "{}: capacity {} vs {}",
                cdn.id,
                cap,
                PROVISION_FACTOR * total_demand
            );
        }
    }

    #[test]
    fn no_cluster_left_empty_when_cdn_saw_traffic() {
        let (world, mut fleet, demand, net) = setup();
        plan_capacities(&world, &mut fleet, &demand, |a, b| net.score(&world, a, b));
        for cl in &fleet.clusters {
            assert!(cl.capacity_kbps > Kbps::ZERO, "{} empty", cl.id);
        }
    }

    #[test]
    fn median_capacity_matches_manual() {
        let (world, mut fleet, demand, net) = setup();
        plan_capacities(&world, &mut fleet, &demand, |a, b| net.score(&world, a, b));
        let cdn = fleet.cdns[1].id;
        let mut caps: Vec<Kbps> = fleet.clusters_of(cdn).map(|c| c.capacity_kbps).collect();
        caps.sort_by(Kbps::total_cmp);
        let expect = if caps.len() % 2 == 1 {
            caps[caps.len() / 2]
        } else {
            caps[caps.len() / 2 - 1].midpoint(caps[caps.len() / 2])
        };
        assert_eq!(median_capacity(&fleet, cdn), expect);
    }

    #[test]
    fn capacity_planning_is_deterministic() {
        let (world, mut f1, demand, net) = setup();
        let (_, mut f2, _, _) = setup();
        plan_capacities(&world, &mut f1, &demand, |a, b| net.score(&world, a, b));
        plan_capacities(&world, &mut f2, &demand, |a, b| net.score(&world, a, b));
        for (a, b) in f1.clusters.iter().zip(&f2.clusters) {
            assert_eq!(a.capacity_kbps, b.capacity_kbps);
        }
    }
}
