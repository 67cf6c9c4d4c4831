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

use crate::cluster::{CdnId, Cluster, ClusterId};
use crate::deploy::Fleet;
use std::cmp::Ordering;
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

/// [`candidate_clusters`] into a caller-owned buffer (cleared first).
/// Per-client loops go through [`CityMatcher`], which owns the buffer and
/// keeps each CDN's cost order; here the order is computed per call, over
/// the candidates only.
pub fn candidate_clusters_into(
    fleet: &Fleet,
    cdn: CdnId,
    score_of: impl Fn(CityId) -> Score,
    config: &MatchingConfig,
    out: &mut Vec<Matching>,
) {
    out.clear();
    out.extend(
        fleet
            .clusters_of(cdn)
            .map(|cl| matching(cl, score_of(cl.city))),
    );
    keep_candidates(out, config.score_ratio);
    out.sort_unstable_by(by_cost);
    cheapest_first(out, config.max_candidates);
}

fn matching(cl: &Cluster, score: Score) -> Matching {
    Matching {
        cluster: cl.id,
        score,
        cost_per_mb: cl.cost_per_mb(),
        capacity_kbps: cl.capacity_kbps,
    }
}

/// Best first: lowest score, ties by id.
fn by_score(a: &Matching, b: &Matching) -> Ordering {
    a.score.total_cmp(&b.score).then(a.cluster.cmp(&b.cluster))
}

/// Cheapest first, ties by id.
fn by_cost(a: &Matching, b: &Matching) -> Ordering {
    a.cost_per_mb
        .total_cmp(&b.cost_per_mb)
        .then(a.cluster.cmp(&b.cluster))
}

/// Keeps the candidates among one CDN's matchings, in the order given: the
/// clusters scoring within `score_ratio ×` the best, or the best two when
/// no other is. The rule needs the best, the clusters within the ratio of
/// it and at most the runner-up: two scans, not a sort of every cluster.
fn keep_candidates(out: &mut Vec<Matching>, score_ratio: f64) {
    let Some(best) = out.iter().copied().min_by(by_score) else {
        return;
    };
    let cutoff = best.score.value() * score_ratio;
    let within = out.iter().filter(|m| m.score.value() <= cutoff).count();
    // "If there is no other cluster with a score within 2× the best, the
    // second best scoring cluster is selected."
    let runner_up = if within == 1 {
        let others = out.iter().copied().filter(|m| m.cluster != best.cluster);
        others.min_by(by_score).map(|m| m.cluster)
    } else {
        None
    };
    out.retain(|m| m.score.value() <= cutoff || Some(m.cluster) == runner_up);
}

/// Candidates listed [`by_cost`] into the rule's order — cheapest first,
/// equal costs by score then id — truncated to `max_candidates`. Cluster
/// ids are unique, so only runs of equal cost need sorting, and only the
/// runs the truncation keeps a part of.
fn cheapest_first(out: &mut Vec<Matching>, max_candidates: usize) {
    let keep = max_candidates.max(1);
    let mut start = 0;
    while start < keep.min(out.len()) {
        let cost = out[start].cost_per_mb;
        let run = out[start..]
            .iter()
            .take_while(|m| m.cost_per_mb.total_cmp(&cost).is_eq())
            .count();
        out[start..start + run].sort_unstable_by(by_score);
        start += run;
    }
    out.truncate(keep);
}

/// The matching rule of one fleet under one configuration and one score
/// estimate, for a loop over clients. It keeps two things for its own
/// life and nothing longer:
///
/// * each CDN's clusters sorted by (cost, id), on the CDN's first use. A
///   cluster's cost is the CDN's business, not the client's, so a matching
///   scores the clusters in that order, filters them and sorts only runs
///   of equal cost — the order [`candidate_clusters`] gets by sorting;
/// * the last (CDN, client city) it matched. §5.1's rule is a function of
///   the client's *location* and the CDN, and clients come grouped by city
///   (`gather_groups` orders them so), so most calls repeat the one before
///   and get the list already in hand. An interleaved sequence recomputes
///   every time and answers the same.
///
/// **Contract:** `score_of(client, site)` is a pure function of the two
/// cities for as long as the matcher lives, and the fleet and configuration
/// are borrowed, so they cannot change under it.
pub struct CityMatcher<'a, F> {
    fleet: &'a Fleet,
    config: &'a MatchingConfig,
    score_of: F,
    by_cost: Vec<Option<Vec<&'a Cluster>>>,
    last: Option<(CdnId, CityId)>,
    matchings: Vec<Matching>,
}

impl<'a, F: Fn(CityId, CityId) -> Score> CityMatcher<'a, F> {
    /// A matcher that has matched nothing yet.
    pub fn new(fleet: &'a Fleet, config: &'a MatchingConfig, score_of: F) -> Self {
        CityMatcher {
            fleet,
            config,
            score_of,
            by_cost: vec![None; fleet.cdns.len()],
            last: None,
            matchings: Vec::new(),
        }
    }

    /// [`candidate_clusters`] of `cdn` for a client in `client`; valid
    /// until the next call.
    pub fn candidates_for(&mut self, cdn: CdnId, client: CityId) -> &[Matching] {
        if self.last != Some((cdn, client)) {
            let fleet = self.fleet;
            let clusters = self.by_cost[cdn.index()].get_or_insert_with(|| {
                let mut clusters: Vec<&Cluster> = fleet.clusters_of(cdn).collect();
                clusters.sort_unstable_by(|a, b| {
                    let cost = a.cost_per_mb().total_cmp(&b.cost_per_mb());
                    cost.then(a.id.cmp(&b.id))
                });
                clusters
            });
            let out = &mut self.matchings;
            out.clear();
            let score_of = &self.score_of;
            out.extend(
                clusters
                    .iter()
                    .map(|cl| matching(cl, score_of(client, cl.city))),
            );
            keep_candidates(out, self.config.score_ratio);
            cheapest_first(out, self.config.max_candidates);
            self.last = Some((cdn, client));
        }
        &self.matchings
    }
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
    fn matcher_reuses_the_call_before_and_nothing_older() {
        let f = fleet(&[(3.0, 1.0), (1.0, 1.0), (2.0, 1.0)]);
        let config = MatchingConfig::default();
        // Client city c sees site s at 100 + 60·((c + s) mod 3).
        let score =
            |client: CityId, site: CityId| Score(100.0 + 60.0 * ((client.0 + site.0) % 3) as f64);
        let asked = std::cell::Cell::new(0u32);
        let mut matcher = CityMatcher::new(&f, &config, |client, site| {
            asked.set(asked.get() + 1);
            score(client, site)
        });
        // Cities interleaved, then repeated: every answer is the direct one.
        for client in [0, 1, 0, 1, 1, 1, 2].map(CityId) {
            let direct = candidate_clusters(&f, CdnId(0), |site| score(client, site), &config);
            assert_eq!(matcher.candidates_for(CdnId(0), client), direct);
        }
        // Seven calls, two of them repeats of the one before: five matchings
        // of three clusters each.
        assert_eq!(asked.get(), 15);
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
