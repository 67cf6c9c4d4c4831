//! The CDN matching algorithm (§5.1 of the paper):
//!
//! > "For each client, a CDN selects a set of candidate clusters with
//! > scores at most 2× worse than the best score. If there is no other
//! > cluster with a score within 2× the best, the second best scoring
//! > cluster is selected. Candidate clusters are sorted from lowest to
//! > highest cost, with the matchings prioritized in that order."
//!
//! The same routine, truncated to one candidate, is also the CDN's
//! traditional single-cluster server selection ("Brokered" design), and its
//! length is the bid count swept in the paper's Fig 18.

use crate::cluster::{CdnId, ClusterId};
use crate::deploy::Fleet;
use vdx_geo::CityId;
use vdx_netsim::Score;
use vdx_units::{Kbps, UsdPerGb};

/// Matching-rule parameters.
#[derive(Debug, Clone)]
pub struct MatchingConfig {
    /// Candidate cutoff: clusters scoring within `score_ratio ×` the best
    /// are candidates (paper: 2.0).
    pub score_ratio: f64,
    /// Maximum number of candidates returned (the "bid count"; paper
    /// default for Marketplace is 100).
    pub max_candidates: usize,
}

impl MatchingConfig {
    /// The matching rule `design.max_candidates()` dictates: the paper's
    /// 2× score cutoff, truncated to at most `max_candidates` bids.
    pub fn with_max_candidates(mut self, max_candidates: usize) -> MatchingConfig {
        self.max_candidates = max_candidates;
        self
    }

    /// No cutoff and no truncation — every cluster is a candidate. This is
    /// the Omniscient design's matching (the broker sees everything).
    pub fn unrestricted() -> MatchingConfig {
        MatchingConfig {
            score_ratio: f64::INFINITY,
            max_candidates: usize::MAX,
        }
    }
}

impl Default for MatchingConfig {
    fn default() -> Self {
        MatchingConfig {
            score_ratio: 2.0,
            max_candidates: 100,
        }
    }
}

/// One candidate cluster for one client group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Matching {
    /// The candidate cluster.
    pub cluster: ClusterId,
    /// Estimated performance score for this client (lower is better).
    pub score: Score,
    /// The cluster's internal cost per unit of traffic.
    pub cost_per_mb: UsdPerGb,
    /// The cluster's provisioned capacity.
    pub capacity_kbps: Kbps,
}

/// Computes a CDN's candidate clusters for a client city, per the rule in
/// the module docs. `score_of(site_city)` estimates the client→site score.
/// Returns an empty vector only if the CDN has no clusters.
pub fn candidate_clusters(
    fleet: &Fleet,
    cdn: CdnId,
    score_of: impl Fn(CityId) -> Score,
    config: &MatchingConfig,
) -> Vec<Matching> {
    let mut out = Vec::new();
    candidate_clusters_into(fleet, cdn, score_of, config, &mut out);
    out
}

/// [`candidate_clusters`] into a caller-owned buffer (cleared first), so
/// hot loops — one call per (group, CDN) pair per decision round — reuse
/// one allocation instead of building and dropping three vectors per call.
pub fn candidate_clusters_into(
    fleet: &Fleet,
    cdn: CdnId,
    score_of: impl Fn(CityId) -> Score,
    config: &MatchingConfig,
    out: &mut Vec<Matching>,
) {
    out.clear();
    out.extend(fleet.clusters_of(cdn).map(|cl| Matching {
        cluster: cl.id,
        score: score_of(cl.city),
        cost_per_mb: cl.cost_per_mb(),
        capacity_kbps: cl.capacity_kbps,
    }));
    if out.is_empty() {
        return;
    }
    out.sort_unstable_by(|a, b| a.score.total_cmp(&b.score).then(a.cluster.cmp(&b.cluster)));
    let best = out[0].score;

    // The list is score-ascending, so the within-ratio candidates are
    // exactly the prefix up to the cutoff.
    let cutoff = best.value() * config.score_ratio;
    let mut within = out.partition_point(|m| m.score.value() <= cutoff);
    // "If there is no other cluster with a score within 2× the best, the
    // second best scoring cluster is selected."
    if within == 1 && out.len() >= 2 {
        within = 2;
    }
    out.truncate(within);

    // Cheapest first; ties broken by score then id for determinism.
    out.sort_unstable_by(|a, b| {
        a.cost_per_mb
            .total_cmp(&b.cost_per_mb)
            .then(a.score.total_cmp(&b.score))
            .then(a.cluster.cmp(&b.cluster))
    });
    out.truncate(config.max_candidates.max(1));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::deploy::{Cdn, DeploymentModel, Fleet};

    /// Builds a single-CDN fleet with the given (cost, capacity) clusters;
    /// cluster index == city index so tests can score by city id.
    fn fleet(specs: &[(f64, f64)]) -> Fleet {
        let clusters: Vec<Cluster> = specs
            .iter()
            .enumerate()
            .map(|(i, &(cost, cap))| Cluster {
                id: ClusterId(i as u32),
                cdn: CdnId(0),
                city: CityId(i as u32),
                bandwidth_cost: UsdPerGb::per_megabit(cost),
                colo_cost: UsdPerGb::ZERO,
                capacity_kbps: Kbps::new(cap),
            })
            .collect();
        Fleet {
            cdns: vec![Cdn {
                id: CdnId(0),
                model: DeploymentModel::Centralized { sites: specs.len() },
                clusters: clusters.iter().map(|c| c.id).collect(),
            }],
            clusters,
        }
    }

    /// Score table keyed by city index.
    fn scorer(scores: &'static [f64]) -> impl Fn(CityId) -> Score {
        move |city| Score(scores[city.0 as usize])
    }

    #[test]
    fn within_ratio_clusters_are_candidates() {
        let f = fleet(&[(3.0, 1.0), (1.0, 1.0), (2.0, 1.0)]);
        // Scores: 100 (best), 150, 250. Ratio 2 => 100, 150 qualify.
        let m = candidate_clusters(
            &f,
            CdnId(0),
            scorer(&[100.0, 150.0, 250.0]),
            &MatchingConfig::default(),
        );
        assert_eq!(m.len(), 2);
        // Sorted by cost: cluster 1 (cost 1) before cluster 0 (cost 3).
        assert_eq!(m[0].cluster, ClusterId(1));
        assert_eq!(m[1].cluster, ClusterId(0));
    }

    #[test]
    fn second_best_added_when_no_alternatives() {
        let f = fleet(&[(3.0, 1.0), (1.0, 1.0)]);
        // Scores: 100, 900 — nothing within 2x, so second best is added.
        let m = candidate_clusters(
            &f,
            CdnId(0),
            scorer(&[100.0, 900.0]),
            &MatchingConfig::default(),
        );
        assert_eq!(m.len(), 2);
        assert!(m.iter().any(|x| x.cluster == ClusterId(1)));
    }

    #[test]
    fn single_cluster_cdn_returns_one() {
        let f = fleet(&[(1.0, 1.0)]);
        let m = candidate_clusters(&f, CdnId(0), scorer(&[42.0]), &MatchingConfig::default());
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].score, Score(42.0));
    }

    #[test]
    fn truncation_keeps_cheapest() {
        let f = fleet(&[(5.0, 1.0), (1.0, 1.0), (3.0, 1.0), (2.0, 1.0)]);
        let cfg = MatchingConfig {
            score_ratio: 10.0,
            max_candidates: 2,
        };
        let m = candidate_clusters(&f, CdnId(0), scorer(&[100.0, 110.0, 120.0, 130.0]), &cfg);
        assert_eq!(m.len(), 2);
        assert_eq!(m[0].cluster, ClusterId(1)); // cost 1
        assert_eq!(m[1].cluster, ClusterId(3)); // cost 2
    }

    #[test]
    fn matchings_carry_cost_and_capacity() {
        let f = fleet(&[(2.5, 777.0)]);
        let m = candidate_clusters(&f, CdnId(0), scorer(&[10.0]), &MatchingConfig::default());
        assert_eq!(m[0].cost_per_mb, UsdPerGb::per_megabit(2.5));
        assert_eq!(m[0].capacity_kbps, Kbps::new(777.0));
    }

    #[test]
    fn preferred_cluster_is_cheapest_within_ratio() {
        let f = fleet(&[(3.0, 1.0), (1.0, 1.0), (2.0, 1.0)]);
        // Scores 100/150/900: candidates are clusters 0 and 1; cheapest is 1,
        // and that is the one a single-matching design serves from.
        let single = MatchingConfig::default().with_max_candidates(1);
        let m = candidate_clusters(&f, CdnId(0), scorer(&[100.0, 150.0, 900.0]), &single);
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].cluster, ClusterId(1));
    }

    #[test]
    fn config_builders_adjust_the_rule() {
        let narrowed = MatchingConfig::default().with_max_candidates(1);
        assert_eq!(narrowed.max_candidates, 1);
        assert_eq!(narrowed.score_ratio, 2.0, "cutoff untouched");
        let f = fleet(&[(3.0, 1.0), (1.0, 1.0), (2.0, 1.0)]);
        // Unrestricted keeps even the 250-score cluster default() drops.
        let all = candidate_clusters(
            &f,
            CdnId(0),
            scorer(&[100.0, 150.0, 250.0]),
            &MatchingConfig::unrestricted(),
        );
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn empty_cdn_yields_nothing() {
        let f = Fleet {
            cdns: vec![Cdn {
                id: CdnId(0),
                model: DeploymentModel::Centralized { sites: 0 },
                clusters: vec![],
            }],
            clusters: vec![],
        };
        assert!(
            candidate_clusters(&f, CdnId(0), |_| Score(1.0), &MatchingConfig::default()).is_empty()
        );
    }
}
