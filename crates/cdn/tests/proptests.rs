//! Property tests for the CDN-side decision machinery: the matching rule
//! must honour the paper's §5.1 candidate-selection contract on arbitrary
//! fleets, and capacity planning must conserve demand and capacity. A
//! debug build (plain `cargo test`) also runs the `debug_assert!`
//! conservation guards inside `plan_capacities` on every case.

use vdx_cdn::capacity::{plan_capacities, total_capacity, Demand, PROVISION_FACTOR};
use vdx_cdn::cluster::{CdnId, Cluster, ClusterId};
use vdx_cdn::deploy::{Cdn, DeploymentModel, Fleet};
use vdx_cdn::matching::{candidate_clusters, MatchTable, Matching, MatchingConfig};
use vdx_geo::{CityId, World, WorldConfig};
use vdx_netsim::Score;
use vdx_rand::prop::{check, vec_of};
use vdx_rand::StdRng;
use vdx_units::{Kbps, UsdPerGb};

/// Builds a single-CDN fleet from `(cost, capacity)` specs; cluster index
/// doubles as city index so scorers can key off `CityId`.
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

const CASES: u64 = 64;

/// Per-cluster costs for a fleet of 1..8 clusters and a score for each of
/// the eight cities one could sit in.
fn costs_and_scores(rng: &mut StdRng) -> (Vec<f64>, Vec<f64>) {
    let costs = vec_of(rng, 1..8, |r| r.gen_range(0.1..5.0));
    let scores = (0..8).map(|_| rng.gen_range(1.0..1000.0)).collect();
    (costs, scores)
}

/// §5.1 candidate selection on arbitrary fleets: every candidate is
/// within `score_ratio ×` the best score except for at most one forced
/// second-best, there are no duplicates, the list is cost-ascending,
/// and a CDN with ≥ 2 clusters never bids fewer than 2 candidates
/// (before truncation to `max_candidates`).
#[test]
fn matching_honours_the_candidate_contract() {
    check(
        CASES,
        |rng| {
            let (costs, scores) = costs_and_scores(rng);
            let cfg = MatchingConfig {
                score_ratio: rng.gen_range(1.1..4.0),
                max_candidates: rng.gen_range(1usize..6),
            };
            (costs, scores, cfg)
        },
        |(costs, scores, cfg)| {
            let (ratio, max_candidates) = (cfg.score_ratio, cfg.max_candidates);
            let specs: Vec<(f64, f64)> = costs.iter().map(|&c| (c, 100.0)).collect();
            let f = fleet(&specs);
            let score_of = |city: CityId| Score(scores[city.0 as usize]);
            let m = candidate_clusters(&f, CdnId(0), score_of, cfg);

            assert!(!m.is_empty(), "a CDN with clusters always bids");
            assert!(m.len() <= max_candidates.max(1));
            if max_candidates >= 2 {
                assert!(
                    m.len() >= costs.len().min(2),
                    "second-best rule guarantees >= 2 bids when possible"
                );
            }
            let best = m
                .iter()
                .map(|x| x.score.value())
                .fold(f64::INFINITY, f64::min);
            let over = m.iter().filter(|x| x.score.value() > best * ratio).count();
            assert!(over <= 1, "{over} candidates beyond the {ratio}x cutoff");
            for w in m.windows(2) {
                assert!(
                    w[0].cost_per_mb.total_cmp(&w[1].cost_per_mb).is_le(),
                    "candidates must be cost-ascending"
                );
            }
            let mut ids: Vec<ClusterId> = m.iter().map(|x| x.cluster).collect();
            ids.sort();
            ids.dedup();
            assert_eq!(ids.len(), m.len(), "no duplicate clusters");
        },
    );
}

/// The single-matching rule is the truncation of the full rule: the
/// cluster a one-candidate design serves from is exactly the first
/// candidate under the default 2x cutoff.
#[test]
fn preferred_cluster_is_head_of_candidate_list() {
    check(CASES, costs_and_scores, |(costs, scores)| {
        let specs: Vec<(f64, f64)> = costs.iter().map(|&c| (c, 100.0)).collect();
        let f = fleet(&specs);
        let score_of = |city: CityId| Score(scores[city.0 as usize]);
        let full = candidate_clusters(&f, CdnId(0), score_of, &MatchingConfig::default());
        let single = MatchingConfig::default().with_max_candidates(1);
        let preferred = candidate_clusters(&f, CdnId(0), score_of, &single);
        assert_eq!(preferred.len(), full.len().min(1));
        assert_eq!(preferred.first(), full.first());
    });
}

/// Solo-workload capacity planning conserves demand (every CDN attracts
/// the full workload in its solo run) and conserves capacity through
/// empty-cluster redistribution (per-CDN total stays 2x demand), while
/// never provisioning a negative capacity. Deterministic across runs.
#[test]
fn capacity_planning_conserves_demand_and_capacity() {
    check(
        CASES,
        |rng| {
            (
                rng.gen_range(1usize..7),
                vec_of(rng, 1..12, |r| r.gen_range(1.0..100.0)),
                rng.next_u32(),
            )
        },
        |(n_clusters, demands, seed)| {
            let seed = *seed;
            let config = WorldConfig {
                countries: 4,
                cities: 16,
                ..Default::default()
            };
            let world = World::generate(&config, 7);
            let specs: Vec<(f64, f64)> = (0..*n_clusters).map(|i| (1.0 + i as f64, 0.0)).collect();
            let mut f = fleet(&specs);
            // Spread cluster cities over the generated world (fleet() numbers
            // them 0..n, all of which exist for n_clusters < 7 < 16).
            let demand: Vec<Demand> = demands
                .iter()
                .enumerate()
                .map(|(i, &kbps)| (CityId((i % 16) as u32), Kbps::new(kbps)))
                .collect();
            let score_of = |a: CityId, b: CityId| {
                Score(1.0 + ((a.0 as u64 * 31 + b.0 as u64 * 17 + seed as u64) % 97) as f64)
            };

            let attracted = plan_capacities(&world, &mut f, &demand, score_of);
            let offered: f64 = demand.iter().map(|d| d.1.as_f64()).sum();
            let landed: f64 = attracted.iter().map(|k| k.as_f64()).sum();
            assert!(
                (landed - offered).abs() <= 1e-6 * offered.max(1.0),
                "solo run attracted {landed} of {offered}"
            );

            let total = total_capacity(&f, CdnId(0)).as_f64();
            assert!(
                (total - PROVISION_FACTOR * offered).abs() <= 1e-6 * offered.max(1.0),
                "redistribution changed total capacity: {total} vs {}",
                PROVISION_FACTOR * offered
            );
            for cl in &f.clusters {
                assert!(cl.capacity_kbps >= Kbps::ZERO);
            }

            let mut f2 = fleet(&specs);
            plan_capacities(&world, &mut f2, &demand, score_of);
            for (a, b) in f.clusters.iter().zip(&f2.clusters) {
                assert_eq!(a.capacity_kbps, b.capacity_kbps);
            }
        },
    );
}

/// The parent's matching rule: sort every cluster by (score, id), take the
/// prefix within the cutoff (or the best two), sort that by (cost, score,
/// id). The reference the scan-and-retain version must reproduce.
fn candidates_by_full_sort(
    f: &Fleet,
    cdn: CdnId,
    score_of: impl Fn(CityId) -> Score,
    config: &MatchingConfig,
) -> Vec<Matching> {
    let mut out: Vec<Matching> = f
        .clusters_of(cdn)
        .map(|cl| Matching {
            cluster: cl.id,
            score: score_of(cl.city),
            cost_per_mb: cl.cost_per_mb(),
            capacity_kbps: cl.capacity_kbps,
        })
        .collect();
    out.sort_by(|a, b| a.score.total_cmp(&b.score).then(a.cluster.cmp(&b.cluster)));
    let cutoff = out[0].score.value() * config.score_ratio;
    let mut within = out.partition_point(|m| m.score.value() <= cutoff);
    if within == 1 && out.len() >= 2 {
        within = 2;
    }
    out.truncate(within);
    out.sort_by(|a, b| {
        a.cost_per_mb
            .total_cmp(&b.cost_per_mb)
            .then(a.score.total_cmp(&b.score))
            .then(a.cluster.cmp(&b.cluster))
    });
    out.truncate(config.max_candidates.max(1));
    out
}

/// Finding the best by scan and sorting only the survivors gives the list
/// the full score sort gave — at the paper's cutoff and at Omniscient's,
/// truncated to one candidate and not at all, with scores and costs drawn
/// from palettes small enough that ties are the rule.
#[test]
fn matching_without_the_full_score_sort_equals_the_full_sort() {
    check(
        4 * CASES,
        |rng| {
            let (mut costs, mut scores) = costs_and_scores(rng);
            if rng.gen_bool(0.5) {
                costs = costs
                    .iter()
                    .map(|_| [0.5, 1.0, 2.0][rng.gen_range(0..3)])
                    .collect();
                scores = scores
                    .iter()
                    .map(|_| [10.0, 19.0, 20.0, 21.0, 400.0][rng.gen_range(0..5)])
                    .collect();
            }
            let cfg = MatchingConfig {
                score_ratio: [2.0, f64::INFINITY, rng.gen_range(1.0..4.0)][rng.gen_range(0..3)],
                max_candidates: [1, 2, 100, usize::MAX][rng.gen_range(0..4)],
            };
            (costs, scores, cfg)
        },
        |(costs, scores, cfg)| {
            let specs: Vec<(f64, f64)> = costs.iter().map(|&c| (c, 100.0)).collect();
            let f = fleet(&specs);
            let score_of = |city: CityId| Score(scores[city.0 as usize]);
            assert_eq!(
                candidate_clusters(&f, CdnId(0), score_of, cfg),
                candidates_by_full_sort(&f, CdnId(0), score_of, cfg)
            );
        },
    );
}

/// Client cities a table is built for, and sites clusters sit in.
const CLIENTS: u32 = 4;
const SITES: u32 = 8;

/// A NaN cost (`UsdPerGb::per_megabit` refuses one under debug
/// assertions): ∞ + (−∞).
fn nan_cost() -> UsdPerGb {
    let inf = UsdPerGb::per_megabit(f64::MAX) + UsdPerGb::per_megabit(f64::MAX);
    inf + (UsdPerGb::ZERO - inf)
}

/// A fleet of 1..4 CDNs, each of 1..8 clusters at random sites with
/// random costs; cluster ids run across CDNs in fleet order.
fn multi_cdn_fleet(rng: &mut StdRng, tie_heavy: bool, nan_cost_at: Option<usize>) -> Fleet {
    let mut clusters: Vec<Cluster> = Vec::new();
    let mut cdns = Vec::new();
    for c in 0..rng.gen_range(1u32..4) {
        let first = clusters.len();
        for _ in 0..rng.gen_range(1usize..8) {
            let cost = if tie_heavy {
                [0.5, 1.0, 2.0][rng.gen_range(0..3)]
            } else {
                rng.gen_range(0.1..5.0)
            };
            clusters.push(Cluster {
                id: ClusterId(clusters.len() as u32),
                cdn: CdnId(c),
                city: CityId(rng.gen_range(0..SITES)),
                bandwidth_cost: UsdPerGb::per_megabit(cost),
                colo_cost: UsdPerGb::ZERO,
                capacity_kbps: Kbps::new(100.0),
            });
        }
        cdns.push(Cdn {
            id: CdnId(c),
            model: DeploymentModel::Centralized {
                sites: clusters.len() - first,
            },
            clusters: clusters[first..].iter().map(|cl| cl.id).collect(),
        });
    }
    if let Some(i) = nan_cost_at {
        let n = clusters.len();
        clusters[i % n].bandwidth_cost = nan_cost();
    }
    Fleet { cdns, clusters }
}

/// A `MatchTable` built over an interleaved, repeating city order and
/// several CDNs answers every (CDN, city) at every bid count from 1 to
/// one past the CDN's cluster count with the list [`candidate_clusters`]
/// gives for that (CDN, city) alone: at the paper's cutoff and at
/// Omniscient's, with tie-heavy palettes half the time, and with a NaN
/// cost and a NaN score a third of the time.
#[test]
fn match_table_over_cdns_and_interleaved_cities_equals_candidate_clusters() {
    check(
        4 * CASES,
        |rng| {
            let tie_heavy = rng.gen_bool(0.5);
            let with_nan = rng.gen_bool(0.33);
            let nan_cost_at = rng.gen_range(0..8);
            let fleet = multi_cdn_fleet(rng, tie_heavy, with_nan.then_some(nan_cost_at));
            let mut scores: Vec<f64> = (0..CLIENTS * SITES)
                .map(|_| {
                    if tie_heavy {
                        [10.0, 19.0, 20.0, 21.0, 400.0][rng.gen_range(0..5)]
                    } else {
                        rng.gen_range(1.0..1000.0)
                    }
                })
                .collect();
            if with_nan {
                let at = rng.gen_range(0..scores.len());
                scores[at] = f64::NAN;
            }
            // Short runs from a small alphabet: repeats and interleavings.
            let cities: Vec<CityId> = vec_of(rng, 1..24, |r| CityId(r.gen_range(0..CLIENTS)));
            (fleet, scores, cities)
        },
        |(fleet, scores, cities)| {
            let score =
                |client: CityId, site: CityId| Score(scores[(client.0 * SITES + site.0) as usize]);
            for score_ratio in [2.0, f64::INFINITY] {
                let cdns = fleet.cdns.iter().map(|c| c.id);
                let table =
                    MatchTable::build(fleet, cdns, cities.iter().copied(), score_ratio, score);
                for cdn in &fleet.cdns {
                    for &client in cities {
                        for max_candidates in 1..=cdn.clusters.len() + 1 {
                            let config = MatchingConfig {
                                score_ratio,
                                max_candidates,
                            };
                            let reference = candidate_clusters(
                                fleet,
                                cdn.id,
                                |site| score(client, site),
                                &config,
                            );
                            let ids: Vec<ClusterId> = reference.iter().map(|m| m.cluster).collect();
                            assert_eq!(
                                table.candidates(cdn.id, client, max_candidates),
                                ids,
                                "{} at {client:?}, {config:?}",
                                cdn.id
                            );
                        }
                    }
                    // A city the table was not built for has no row.
                    let absent = (0..CLIENTS).map(CityId).find(|c| !cities.contains(c));
                    if let Some(absent) = absent {
                        assert!(table.candidates(cdn.id, absent, usize::MAX).is_empty());
                    }
                }
            }
        },
    );
}
