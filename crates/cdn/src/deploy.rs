//! Deployment models and the fleet builder.
//!
//! The paper simulates "14 world-wide CDNs" (§5.1): cluster locations for
//! one highly distributed CDN came from that CDN itself, and for 13 more
//! from PeeringDB. §2.1 describes the deployment spectrum — many regions
//! (Akamai-like), few strategic regions (Level 3 / CloudFront-like), and
//! extremely local ISP CDNs; §7.2 adds 200 single-cluster "city-centric"
//! CDNs. [`build_fleet`] reproduces that spectrum over a synthetic world,
//! and [`city_centric_cdns`] implements the §7.2 scenario, including the
//! co-location-cost reduction the newcomers cause.

use crate::cluster::{CdnId, Cluster, ClusterId};
use crate::cost::{bandwidth_cost, colo_cost, CostConfig};
use std::collections::HashMap;
use vdx_geo::{CityId, Region, World};
use vdx_rand::StdRng;
use vdx_units::Kbps;

/// How a CDN deploys its clusters.
#[derive(Debug, Clone, PartialEq)]
pub enum DeploymentModel {
    /// Many clusters across every region (Akamai-like). The trace's "CDN A".
    Distributed {
        /// Number of cluster sites.
        sites: usize,
    },
    /// A moderate number of clusters across several regions.
    Medium {
        /// Number of cluster sites.
        sites: usize,
    },
    /// Large capacity in a few strategic sites (Level 3 / CloudFront-like).
    /// The trace's "CDN B" and "CDN C".
    Centralized {
        /// Number of cluster sites.
        sites: usize,
    },
    /// Clusters only within one region (regional / ISP CDN).
    Regional {
        /// The home region.
        region: Region,
        /// Number of cluster sites.
        sites: usize,
    },
    /// A single cluster in a single city (§7.2's city-centric CDNs).
    CityCentric {
        /// The home city.
        city: CityId,
    },
}

impl DeploymentModel {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            DeploymentModel::Distributed { .. } => "distributed",
            DeploymentModel::Medium { .. } => "medium",
            DeploymentModel::Centralized { .. } => "centralized",
            DeploymentModel::Regional { .. } => "regional",
            DeploymentModel::CityCentric { .. } => "city-centric",
        }
    }
}

/// A CDN: a deployment model plus the clusters it owns.
#[derive(Debug, Clone)]
pub struct Cdn {
    /// The CDN's id.
    pub id: CdnId,
    /// Its deployment model.
    pub model: DeploymentModel,
    /// Its clusters (ids into the fleet's flat cluster list).
    pub clusters: Vec<ClusterId>,
}

/// The whole multi-CDN ecosystem for one simulation.
#[derive(Debug, Clone)]
pub struct Fleet {
    /// All CDNs, indexed by [`CdnId`].
    pub cdns: Vec<Cdn>,
    /// All clusters (across all CDNs), indexed by [`ClusterId`].
    pub clusters: Vec<Cluster>,
}

impl Fleet {
    /// Clusters of a given CDN.
    pub fn clusters_of(&self, cdn: CdnId) -> impl Iterator<Item = &Cluster> + '_ {
        self.cdns[cdn.index()]
            .clusters
            .iter()
            .map(move |&c| &self.clusters[c.index()])
    }

    /// The CDN owning a cluster.
    pub fn owner(&self, cluster: ClusterId) -> CdnId {
        self.clusters[cluster.index()].cdn
    }
}

/// Fleet-builder configuration. The default reproduces the paper's mix:
/// 14 CDNs — one highly distributed, four medium, four centralized, five
/// regional.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Sites of the highly distributed CDN (paper's real-CDN location set).
    pub distributed_sites: usize,
    /// How many of the biggest metros get a *second* cluster of the
    /// distributed CDN. Large CDNs run several clusters per major metro —
    /// this is what makes "alternative clusters with similar performance"
    /// (the paper's Table 1) common.
    pub distributed_metro_dupes: usize,
    /// Number of medium CDNs and their site count range.
    pub medium: (usize, std::ops::Range<usize>),
    /// Number of centralized CDNs and their site count range.
    pub centralized: (usize, std::ops::Range<usize>),
    /// Number of regional CDNs and their site count range.
    pub regional: (usize, std::ops::Range<usize>),
    /// Cost model parameters.
    pub cost: CostConfig,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            distributed_sites: 120,
            distributed_metro_dupes: 30,
            medium: (4, 25..45),
            centralized: (4, 3..7),
            regional: (5, 6..16),
            cost: CostConfig::default(),
        }
    }
}

impl FleetConfig {
    /// Total number of CDNs this configuration produces.
    pub fn num_cdns(&self) -> usize {
        1 + self.medium.0 + self.centralized.0 + self.regional.0
    }
}

/// Builds the multi-CDN fleet over a world. Deterministic in `seed`.
pub fn build_fleet(world: &World, config: &FleetConfig, seed: u64) -> Fleet {
    let mut rng = StdRng::seed_from_u64(seed);
    let by_pop = world.cities_by_population();

    // Site selection per CDN.
    let mut site_sets: Vec<(DeploymentModel, Vec<CityId>)> = Vec::new();

    // CDN 1: highly distributed — the biggest markets everywhere, plus a
    // random tail of smaller cities (Akamai reaches deep), plus second
    // clusters in the biggest metros.
    let n_dist = config.distributed_sites.min(by_pop.len());
    let head = (n_dist * 2 / 3).min(by_pop.len());
    let mut dist_sites: Vec<CityId> = by_pop[..head].to_vec();
    let mut tail: Vec<CityId> = by_pop[head..].to_vec();
    rng.shuffle(&mut tail);
    dist_sites.extend(tail.into_iter().take(n_dist - head));
    let dupes = config.distributed_metro_dupes.min(head);
    dist_sites.extend(by_pop[..dupes].iter().copied());
    site_sets.push((
        DeploymentModel::Distributed {
            sites: dist_sites.len(),
        },
        dist_sites,
    ));

    // Medium CDNs: a random slice of the top markets.
    for _ in 0..config.medium.0 {
        let n = rng.gen_range(config.medium.1.clone()).min(by_pop.len());
        let pool = &by_pop[..(by_pop.len() / 2).max(n)];
        let sites = sample_without_replacement(pool, n, &mut rng);
        site_sets.push((DeploymentModel::Medium { sites: n }, sites));
    }

    // Centralized CDNs: few sites, drawn from the very biggest markets.
    for _ in 0..config.centralized.0 {
        let n = rng
            .gen_range(config.centralized.1.clone())
            .min(by_pop.len());
        let pool = &by_pop[..(by_pop.len() / 8).max(n)];
        let sites = sample_without_replacement(pool, n, &mut rng);
        site_sets.push((DeploymentModel::Centralized { sites: n }, sites));
    }

    // Regional CDNs: one region each, cycling through regions.
    for i in 0..config.regional.0 {
        let region = Region::ALL[i % Region::ALL.len()];
        let pool: Vec<CityId> = by_pop
            .iter()
            .copied()
            .filter(|&c| world.country_of(c).region == region)
            .collect();
        let n = rng
            .gen_range(config.regional.1.clone())
            .min(pool.len().max(1));
        let sites = sample_without_replacement(&pool, n, &mut rng);
        site_sets.push((DeploymentModel::Regional { region, sites: n }, sites));
    }

    assemble(world, &config.cost, seed, site_sets)
}

/// Implements §7.2: appends `n` single-cluster city-centric CDNs, each at a
/// site drawn from the existing fleet's location pool, and **recomputes
/// every cluster's co-location cost** — the newcomers drive down co-lo
/// prices at shared sites.
pub fn city_centric_cdns(
    world: &World,
    fleet: &Fleet,
    config: &FleetConfig,
    n: usize,
    seed: u64,
) -> Fleet {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC17C_C17C);
    let pool: Vec<CityId> = {
        let mut cities: Vec<CityId> = fleet.clusters.iter().map(|c| c.city).collect();
        cities.sort();
        cities.dedup();
        cities
    };
    let mut site_sets: Vec<(DeploymentModel, Vec<CityId>)> = fleet
        .cdns
        .iter()
        .map(|cdn| {
            (
                cdn.model.clone(),
                cdn.clusters
                    .iter()
                    .map(|&c| fleet.clusters[c.index()].city)
                    .collect(),
            )
        })
        .collect();
    for _ in 0..n {
        let city = pool[rng.gen_range(0..pool.len())];
        site_sets.push((DeploymentModel::CityCentric { city }, vec![city]));
    }
    assemble(world, &config.cost, seed, site_sets)
}

/// Turns per-CDN site lists into a costed fleet. Two-phase: co-location
/// counts need the full placement before any cost can be computed.
fn assemble(
    world: &World,
    cost: &CostConfig,
    seed: u64,
    site_sets: Vec<(DeploymentModel, Vec<CityId>)>,
) -> Fleet {
    let mut colocation: HashMap<CityId, usize> = HashMap::new();
    for (_, sites) in &site_sets {
        let mut seen: Vec<CityId> = sites.clone();
        seen.sort();
        seen.dedup();
        for city in seen {
            *colocation.entry(city).or_insert(0) += 1;
        }
    }

    let mut cdns = Vec::with_capacity(site_sets.len());
    let mut clusters = Vec::new();
    for (cdn_idx, (model, sites)) in site_sets.into_iter().enumerate() {
        let cdn_id = CdnId(cdn_idx as u32);
        let mut cluster_ids = Vec::with_capacity(sites.len());
        for city in sites {
            let id = ClusterId(clusters.len() as u32);
            let n_colo = colocation[&city];
            clusters.push(Cluster {
                id,
                cdn: cdn_id,
                city,
                // Salted by the global cluster id so co-located clusters —
                // including a CDN's second metro cluster — draw distinct
                // transit deals.
                bandwidth_cost: bandwidth_cost(world, city, cost, seed, id.0 as u64),
                colo_cost: colo_cost(world, city, cost, n_colo),
                capacity_kbps: Kbps::ZERO,
            });
            cluster_ids.push(id);
        }
        cdns.push(Cdn {
            id: cdn_id,
            model,
            clusters: cluster_ids,
        });
    }
    Fleet { cdns, clusters }
}

fn sample_without_replacement(pool: &[CityId], n: usize, rng: &mut StdRng) -> Vec<CityId> {
    let mut v: Vec<CityId> = pool.to_vec();
    rng.shuffle(&mut v);
    v.truncate(n.min(v.len()));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdx_geo::WorldConfig;

    fn setup() -> (World, Fleet) {
        let world = World::generate(&WorldConfig::default(), 6);
        let fleet = build_fleet(&world, &FleetConfig::default(), 6);
        (world, fleet)
    }

    #[test]
    fn fleet_has_fourteen_cdns() {
        let (_, fleet) = setup();
        assert_eq!(fleet.cdns.len(), 14);
        assert_eq!(FleetConfig::default().num_cdns(), 14);
    }

    #[test]
    fn fleet_is_deterministic() {
        let world = World::generate(&WorldConfig::default(), 6);
        let a = build_fleet(&world, &FleetConfig::default(), 9);
        let b = build_fleet(&world, &FleetConfig::default(), 9);
        assert_eq!(a.clusters, b.clusters);
    }

    #[test]
    fn cdn_one_is_most_distributed() {
        let (_, fleet) = setup();
        let sizes: Vec<usize> = fleet.cdns.iter().map(|c| c.clusters.len()).collect();
        assert_eq!(sizes[0], 120 + 30);
        assert!(sizes[1..].iter().all(|&s| s < sizes[0]));
    }

    #[test]
    fn big_metros_get_duplicate_distributed_clusters() {
        let (world, fleet) = setup();
        let top = world.cities_by_population()[0];
        let in_top: Vec<_> = fleet
            .clusters_of(CdnId(0))
            .filter(|cl| cl.city == top)
            .collect();
        assert_eq!(in_top.len(), 2, "biggest metro has two clusters");
        assert_ne!(
            in_top[0].bandwidth_cost, in_top[1].bandwidth_cost,
            "the two metro clusters have distinct transit deals"
        );
    }

    #[test]
    fn cluster_ids_are_flat_indices() {
        let (_, fleet) = setup();
        for (i, cl) in fleet.clusters.iter().enumerate() {
            assert_eq!(cl.id.index(), i);
        }
        for cdn in &fleet.cdns {
            for &cl in &cdn.clusters {
                assert_eq!(fleet.owner(cl), cdn.id);
            }
        }
    }

    #[test]
    fn regional_cdns_stay_in_region() {
        let (world, fleet) = setup();
        for cdn in &fleet.cdns {
            if let DeploymentModel::Regional { region, .. } = cdn.model {
                for cl in fleet.clusters_of(cdn.id) {
                    assert_eq!(world.country_of(cl.city).region, region);
                }
            }
        }
    }

    #[test]
    fn distributed_cdn_has_wider_cost_spread_than_centralized() {
        let (_, fleet) = setup();
        // §7.1: "More distributed CDNs … have more variability in cluster
        // cost as they are in many more remote regions."
        let spread = |cdn: &Cdn| -> f64 {
            let costs: Vec<f64> = fleet
                .clusters_of(cdn.id)
                .map(|c| c.cost_per_mb().as_per_megabit())
                .collect();
            let max = costs.iter().copied().fold(f64::MIN, f64::max);
            let min = costs.iter().copied().fold(f64::MAX, f64::min);
            max / min
        };
        let dist_spread = spread(&fleet.cdns[0]);
        let centralized: Vec<&Cdn> = fleet
            .cdns
            .iter()
            .filter(|c| matches!(c.model, DeploymentModel::Centralized { .. }))
            .collect();
        let avg_central: f64 =
            centralized.iter().map(|c| spread(c)).sum::<f64>() / centralized.len() as f64;
        assert!(
            dist_spread > avg_central,
            "distributed spread {dist_spread:.1} vs centralized {avg_central:.1}"
        );
    }

    #[test]
    fn city_centric_expansion() {
        let (world, fleet) = setup();
        let cfg = FleetConfig::default();
        let expanded = city_centric_cdns(&world, &fleet, &cfg, 200, 6);
        assert_eq!(expanded.cdns.len(), 14 + 200);
        // The newcomers are single-cluster.
        for cdn in &expanded.cdns[14..] {
            assert_eq!(cdn.clusters.len(), 1);
            assert!(matches!(cdn.model, DeploymentModel::CityCentric { .. }));
        }
        // Co-location costs at shared sites went down (or stayed equal
        // where no newcomer landed): compare total colo cost of the first
        // 14 CDNs' clusters.
        let before: f64 = fleet
            .clusters
            .iter()
            .map(|c| c.colo_cost.as_per_megabit())
            .sum();
        let after: f64 = expanded.clusters[..fleet.clusters.len()]
            .iter()
            .map(|c| c.colo_cost.as_per_megabit())
            .sum();
        assert!(after < before, "colo before {before}, after {after}");
    }
}
