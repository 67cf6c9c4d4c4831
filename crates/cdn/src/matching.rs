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
/// This is the rule's reference form: the order is computed per call,
/// over the candidates only. Loops over clients read a [`MatchTable`].
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

/// Marks a (CDN, client city) slot the table has no row for.
const NO_ROW: u32 = u32::MAX;

/// Client city ids from here on get no row. A world has far fewer cities;
/// the bound keeps a city id decoded off the wire from sizing the index.
const CITY_IDS: usize = 1 << 20;

/// The §5.1 Matching rule evaluated once for every (CDN, client city) of a
/// fleet under one score estimate and one score ratio: each pair's
/// candidate cluster ids in the rule's (cost, score, id) order,
/// untruncated. A bid count is a prefix of that list (truncating after
/// the sort is what [`candidate_clusters`] does), so one table serves
/// every design sharing the ratio, whatever its `max_candidates`.
///
/// The rule's inputs — the pair, the fleet's costs and the scores — are
/// fixed for as long as the table is used; a round's groups are not among
/// them, so the table holds whichever groups a round carries. Capacities
/// are not inputs either: a table built before capacity planning stays
/// valid after it.
#[derive(Debug, Clone)]
pub struct MatchTable {
    score_ratio: f64,
    /// Slot of each CDN, by [`CdnId`] index; [`NO_ROW`] for a CDN the
    /// table was not built for.
    cdn_slot: Vec<u32>,
    /// Slot of each client city, by [`CityId`] index, likewise.
    city_slot: Vec<u32>,
    /// Client cities per CDN slot.
    cities: usize,
    /// Row `cdn slot × cities + city slot` lists
    /// `clusters[starts[row]..starts[row + 1]]`.
    starts: Vec<u32>,
    clusters: Vec<ClusterId>,
}

impl MatchTable {
    /// Matches every CDN of `cdns` against every city of `cities`
    /// (repeats are matched once, ids past 2^20 not at all) under
    /// `score_ratio`.
    /// `score_of(client, site)` is the Estimate step's score; it is asked
    /// once per (CDN, client city, cluster).
    pub fn build(
        fleet: &Fleet,
        cdns: impl IntoIterator<Item = CdnId>,
        cities: impl IntoIterator<Item = CityId>,
        score_ratio: f64,
        score_of: impl Fn(CityId, CityId) -> Score,
    ) -> MatchTable {
        let mut city_slot: Vec<u32> = Vec::new();
        let mut clients: Vec<CityId> = Vec::new();
        for city in cities.into_iter().filter(|c| c.index() < CITY_IDS) {
            if city.index() >= city_slot.len() {
                city_slot.resize(city.index() + 1, NO_ROW);
            }
            if city_slot[city.index()] == NO_ROW {
                city_slot[city.index()] = clients.len() as u32;
                clients.push(city);
            }
        }
        let mut cdn_slot = vec![NO_ROW; fleet.cdns.len()];
        let mut slots = 0;
        let mut starts = vec![0];
        let mut clusters = Vec::new();
        let mut scratch: Vec<Matching> = Vec::new();
        for cdn in cdns {
            match cdn_slot.get_mut(cdn.index()) {
                Some(slot) if *slot == NO_ROW => *slot = slots,
                _ => continue,
            }
            slots += 1;
            // A cluster's cost is the CDN's business, not the client's:
            // scored in (cost, id) order, a matching needs only its runs
            // of equal cost sorted.
            let mut by_cost: Vec<&Cluster> = fleet.clusters_of(cdn).collect();
            by_cost.sort_unstable_by(|a, b| {
                let cost = a.cost_per_mb().total_cmp(&b.cost_per_mb());
                cost.then(a.id.cmp(&b.id))
            });
            for &client in &clients {
                scratch.clear();
                scratch.extend((by_cost.iter()).map(|cl| matching(cl, score_of(client, cl.city))));
                keep_candidates(&mut scratch, score_ratio);
                cheapest_first(&mut scratch, usize::MAX);
                clusters.extend(scratch.iter().map(|m| m.cluster));
                starts.push(clusters.len() as u32);
            }
        }
        MatchTable {
            score_ratio,
            cdn_slot,
            city_slot,
            cities: clients.len(),
            starts,
            clusters,
        }
    }

    /// The score ratio the table was built under.
    pub fn score_ratio(&self) -> f64 {
        self.score_ratio
    }

    /// The ids [`candidate_clusters`] returns for `cdn` and a client in
    /// `client` under this table's ratio and `max_candidates`; empty for
    /// a pair the table was not built for.
    pub fn candidates(&self, cdn: CdnId, client: CityId, max_candidates: usize) -> &[ClusterId] {
        let slot = |slots: &[u32], i: usize| slots.get(i).copied().filter(|&s| s != NO_ROW);
        let (Some(c), Some(k)) = (
            slot(&self.cdn_slot, cdn.index()),
            slot(&self.city_slot, client.index()),
        ) else {
            return &[];
        };
        let row = c as usize * self.cities + k as usize;
        let list = &self.clusters[self.starts[row] as usize..self.starts[row + 1] as usize];
        &list[..list.len().min(max_candidates.max(1))]
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
    fn table_scores_each_city_once_and_every_prefix_is_the_direct_list() {
        let f = fleet(&[(3.0, 1.0), (1.0, 1.0), (2.0, 1.0)]);
        // Client city c sees site s at 100 + 60·((c + s) mod 3).
        let score =
            |client: CityId, site: CityId| Score(100.0 + 60.0 * ((client.0 + site.0) % 3) as f64);
        let asked = std::cell::Cell::new(0u32);
        // Cities interleaved and repeated: each is matched once.
        let cities = [0, 1, 0, 1, 1, 1, 2].map(CityId);
        for score_ratio in [2.0, f64::INFINITY] {
            asked.set(0);
            let table = MatchTable::build(&f, [CdnId(0)], cities, score_ratio, |client, site| {
                asked.set(asked.get() + 1);
                score(client, site)
            });
            // Three cities of three clusters each.
            assert_eq!(asked.get(), 9);
            for client in cities {
                for max_candidates in 1..=4 {
                    let config = MatchingConfig {
                        score_ratio,
                        max_candidates,
                    };
                    let direct =
                        candidate_clusters(&f, CdnId(0), |site| score(client, site), &config);
                    let ids: Vec<ClusterId> = direct.iter().map(|m| m.cluster).collect();
                    assert_eq!(table.candidates(CdnId(0), client, max_candidates), ids);
                }
            }
            // A city it was not built for has no candidates.
            assert!(table.candidates(CdnId(0), CityId(3), 100).is_empty());
        }
        // Nor has a city id no world has (one decoded off the wire), and
        // it does not size the index.
        let far = CityId(u32::MAX);
        let table = MatchTable::build(&f, [CdnId(0)], [far], 2.0, score);
        assert!(table.candidates(CdnId(0), far, 100).is_empty());
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
