//! The seven-step Decision Protocol (§4.1) as a pure function.
//!
//! One call to [`run_decision_round`] executes Estimate → Gather → Share →
//! Matching → Announce → Optimize → Accept for a given [`Design`] over an
//! ecosystem snapshot, producing the client-group→cluster assignment the
//! Delivery Protocol then serves from. "Time dynamics are less important as
//! the Decision Protocol runs periodically over all clients" (§5.1) — the
//! paper's evaluation, and ours, is exactly one round per design.
//!
//! Where the designs differ (Table 2) lives on [`Design`], and this round
//! only feeds it:
//!
//! * **Matching width** — [`Design::matching`]: how many candidate
//!   clusters a CDN may offer.
//! * **Announce** — [`Design::announced_price`] and
//!   [`Design::believed_capacity`], the one copy of the rule, applied by
//!   each CDN's [`BidEngine`] ([`RoundInputs::engines`]) at its learned
//!   margins, contract price, committed load and §5.1 median: the round
//!   asks every engine for a city's offers, in CDN order, the same engine
//!   that builds a daemon agent's wire bids.

use crate::design::Design;
use crate::exchange::BidEngine;
use std::collections::HashMap;
use vdx_broker::{
    optimize_probed, optimize_probed_ctx, BrokerAssignment, BrokerProblem, ClientGroup, CpPolicy,
    OptimizeContext, OptimizeMode, OptionLists,
};
use vdx_cdn::{total_capacity, CdnId, Fleet, MatchTable};
use vdx_geo::{CityId, World};
use vdx_netsim::Score;
use vdx_obs::{Event, NoopProbe, Probe, Stopwatch};
use vdx_rand::StdRng;
use vdx_units::Kbps;

/// Everything a Decision Protocol round needs to see.
pub struct RoundInputs<'a> {
    /// The CDN fleet (clusters must have planned capacities).
    pub fleet: &'a Fleet,
    /// The broker's client groups (the Gather output).
    pub groups: &'a [ClientGroup],
    /// True background load per cluster (from [`assign_background`]).
    pub background_load_kbps: &'a [Kbps],
    /// The content provider's goals.
    pub policy: CpPolicy,
    /// Override for the marketplace bid count (Fig 18); `None` uses the
    /// design's default.
    pub bid_count: Option<usize>,
    /// Every CDN's bid engine, in CDN order, each bidding by the round's
    /// design: the Announce step. Fresh engines bid at
    /// [`vdx_cdn::DEFAULT_MARKUP`]; taught ones at their learned margins.
    pub engines: &'a [BidEngine],
    /// The §5.1 candidate table of `fleet` under the round's score
    /// estimate at the design's score ratio, built for every group city
    /// (a scenario keeps one per ratio).
    pub matches: &'a MatchTable,
}

/// Caller-assigned identifier for one Decision Protocol round, journaled
/// in every round event.
///
/// Round ids used to come from a per-scenario atomic counter, which hands
/// out ids in completion order — nondeterministic the moment rounds run
/// concurrently. The experiment driver now assigns ids explicitly, so a
/// journaled `round` field is a pure function of the experiment, not of
/// the schedule (and serial journals are robust to future reordering).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RoundId(pub u64);

/// The result of one Decision Protocol round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// The design that ran.
    pub design: Design,
    /// The full option sets announced to the broker.
    pub problem: BrokerProblem,
    /// The broker's Optimize output.
    pub assignment: BrokerAssignment,
}

/// Runs one round of the Decision Protocol for `design`.
///
/// `score_of(client_city, site_city)` provides the Estimate step's
/// performance scores (both parties are assumed to estimate consistently;
/// see DESIGN.md on this simplification, which the paper shares).
///
/// **Contract** (this function and its `_probed` / `_probed_ctx` forms):
/// within one call `score_of` is a pure function of the two cities, and
/// [`RoundInputs::matches`] was built from the same estimate. The round
/// reads each (CDN, city)'s candidates off the table once and gives every
/// group of a city one shared option list (DESIGN.md §8).
pub fn run_decision_round(
    design: Design,
    inputs: &RoundInputs<'_>,
    score_of: impl Fn(CityId, CityId) -> Score,
) -> RoundOutcome {
    run_decision_round_probed(design, inputs, score_of, RoundId(0), &NoopProbe)
}

/// [`run_decision_round`] with the round's protocol steps reported through
/// `probe`, tagged with `round`: [`Event::RoundStarted`],
/// [`Event::SharePublished`] (Share-step designs only), one
/// [`Event::BidReceived`] per CDN, [`Event::SolverStats`] from the
/// Optimize step, [`Event::AcceptIssued`], [`Event::ClusterCongested`] for
/// every cluster driven past its *true* capacity, and
/// [`Event::RoundCompleted`]. The outcome is identical to the unprobed
/// function — event construction is skipped entirely when
/// `probe.enabled()` is false, preserving pure-function semantics and
/// cost for existing callers.
pub fn run_decision_round_probed(
    design: Design,
    inputs: &RoundInputs<'_>,
    score_of: impl Fn(CityId, CityId) -> Score,
    round: RoundId,
    probe: &dyn Probe,
) -> RoundOutcome {
    round_impl(design, inputs, score_of, round, probe, None)
}

/// [`run_decision_round_probed`] with a warm-start [`OptimizeContext`]
/// carried across rounds.
///
/// The Optimize step goes through [`optimize_probed_ctx`], which replays
/// the previous round's decision when the round's problem repeats it
/// (journaled as `warm_hit: true` in [`Event::SolverStats`]). The outcome
/// is bit-identical to [`run_decision_round_probed`]'s; the context only
/// changes how much work the round does.
///
/// One context serves one sequential round stream: hand each concurrent
/// shard its own.
pub fn run_decision_round_probed_ctx(
    design: Design,
    inputs: &RoundInputs<'_>,
    score_of: impl Fn(CityId, CityId) -> Score,
    round: RoundId,
    probe: &dyn Probe,
    ctx: &mut OptimizeContext,
) -> RoundOutcome {
    round_impl(design, inputs, score_of, round, probe, Some(ctx))
}

fn round_impl(
    design: Design,
    inputs: &RoundInputs<'_>,
    score_of: impl Fn(CityId, CityId) -> Score,
    round: RoundId,
    probe: &dyn Probe,
    ctx: Option<&mut OptimizeContext>,
) -> RoundOutcome {
    let round = round.0;
    // Instrumented runs only: `round_completed` carries the round's wall
    // time, and unprobed callers never read the clock.
    let clock = probe.enabled().then(Stopwatch::start);
    let fleet = inputs.fleet;
    let share = design.shares_clients();
    journal_open(probe, round, design, inputs.groups, fleet.cdns.len(), share);
    let matching = design.matching();
    let max_candidates = inputs.bid_count.unwrap_or(matching.max_candidates);
    let (engines, table) = (inputs.engines, inputs.matches);
    debug_assert_eq!(table.score_ratio(), matching.score_ratio);
    debug_assert!(
        engines.len() == fleet.cdns.len() && engines.iter().all(|e| e.design() == design),
        "one engine per CDN, each bidding by {design}"
    );

    // A group's options depend on it through its city alone (price and
    // believed capacity are the design's, the CDN's and the cluster's), so
    // a city's list is built at its first group and shared by the rest, in
    // whatever order the groups come. Consecutive groups of one city, the
    // usual order, find their list in `last` without a map probe.
    let mut options = OptionLists::default();
    let mut list_of_city: HashMap<CityId, usize> = HashMap::new();
    let mut last: Option<(CityId, usize)> = None;
    let mut offers = Vec::new();
    for group in inputs.groups {
        let known = match last {
            Some((city, list)) if city == group.city => Some(list),
            _ => list_of_city.get(&group.city).copied(),
        };
        let list = match known {
            Some(list) => {
                options.push_shared(list);
                list
            }
            None => {
                // Steps 3–5: Share (implicit — the matchings are per city,
                // which for Marketplace-class designs is licensed by the
                // Share step), then each CDN's engine matches and
                // announces. The list is gathered in one reused buffer and
                // kept as a copy of exactly its length.
                offers.clear();
                for engine in engines {
                    offers.extend(engine.offers(
                        group.city,
                        fleet,
                        table,
                        max_candidates,
                        &score_of,
                    ));
                }
                let list = options.push(offers.clone());
                list_of_city.insert(group.city, list);
                list
            }
        };
        last = Some((group.city, list));
    }

    if probe.enabled() {
        // One Announce batch per CDN: its bids across all groups.
        let mut bids_per_cdn = vec![0u64; fleet.cdns.len()];
        for o in options.iter().flatten() {
            bids_per_cdn[o.cdn.index()] += 1;
        }
        for (cdn, &bids) in bids_per_cdn.iter().enumerate() {
            probe.emit(Event::BidReceived {
                round,
                cdn: cdn as u32,
                bids,
            });
        }
    }

    let problem = BrokerProblem {
        groups: inputs.groups.to_vec(),
        options,
    };
    let (policy, mode) = (&inputs.policy, &OptimizeMode::Heuristic);
    let assignment = match ctx {
        Some(ctx) => optimize_probed_ctx(&problem, policy, mode, round, probe, ctx),
        None => optimize_probed(&problem, policy, mode, round, probe),
    };

    let truth = Some((fleet, inputs.background_load_kbps));
    journal_close(probe, round, &problem, &assignment, truth, clock);

    RoundOutcome {
        design,
        problem,
        assignment,
    }
}

/// Journals a round's opening, for the pure round and the spine alike:
/// `round_started`, then `share_published` if the round publishes a
/// Share. Nothing when `probe` is disabled.
pub(crate) fn journal_open(
    probe: &dyn Probe,
    round: u64,
    design: Design,
    groups: &[ClientGroup],
    cdns: usize,
    share: bool,
) {
    if !probe.enabled() {
        return;
    }
    probe.emit(Event::RoundStarted {
        round,
        design: design.name(),
        groups: groups.len() as u64,
        cdns: cdns as u64,
    });
    if share {
        probe.emit(Event::SharePublished {
            round,
            shares: groups.len() as u64,
            demand_kbps: groups.iter().map(|g| g.demand_kbps.as_f64()).sum(),
        });
    }
}

/// Journals a round's close, for the pure round and the spine alike:
/// `accept_issued` (one accepted option per group, the rest rejected);
/// `cluster_congested` for every cluster whose assigned load plus true
/// background exceeds its true capacity, if `truth` gives the fleet and
/// the per-cluster background; `round_completed`, timed since `clock`.
/// Nothing without a clock, which is started only for an enabled probe.
pub(crate) fn journal_close(
    probe: &dyn Probe,
    round: u64,
    problem: &BrokerProblem,
    assignment: &BrokerAssignment,
    truth: Option<(&Fleet, &[Kbps])>,
    clock: Option<Stopwatch>,
) {
    let Some(clock) = clock else { return };
    let total_bids: u64 = problem.options.iter().map(|o| o.len() as u64).sum();
    let accepted = problem.groups.len() as u64;
    probe.emit(Event::AcceptIssued {
        round,
        accepted,
        rejected: total_bids.saturating_sub(accepted),
    });
    if let Some((fleet, background)) = truth {
        for (&cluster, &load) in &assignment.cluster_load_kbps {
            let i = cluster.index();
            let (Some(site), Some(&extra)) = (fleet.clusters.get(i), background.get(i)) else {
                continue; // a cluster the fleet does not know
            };
            let with_background = load + extra;
            if with_background > site.capacity_kbps {
                probe.emit(Event::ClusterCongested {
                    round,
                    cluster: i as u32,
                    load_kbps: with_background.as_f64(),
                    capacity_kbps: site.capacity_kbps.as_f64(),
                });
            }
        }
    }
    probe.emit(Event::RoundCompleted {
        round,
        objective: assignment.objective,
        options: total_bids,
        wall_us: clock.elapsed_us(),
    });
}

/// Places the §5.1 background traffic (non-broker / other-broker clients):
/// each group's background demand is split across two CDNs drawn with
/// probability proportional to total CDN capacity, then served from each
/// CDN's preferred cluster (the cheapest within 2× of the best score) —
/// i.e. traditional delivery, no broker optimization. Returns per-cluster
/// load in kbit/s.
pub fn assign_background(
    world: &World,
    fleet: &Fleet,
    groups: &[ClientGroup],
    background_kbps: &[Kbps],
    seed: u64,
    score_of: impl Fn(CityId, CityId) -> Score,
) -> Vec<Kbps> {
    let _ = world;
    let cdns = fleet.cdns.iter().map(|c| c.id);
    let table = MatchTable::build(fleet, cdns, groups.iter().map(|g| g.city), 2.0, score_of);
    assign_background_with(fleet, groups, background_kbps, seed, &table)
}

/// [`assign_background`] reading each preferred cluster (the first
/// candidate) off `table`, which must hold the paper's 2× rule for
/// `fleet` and every group city.
pub fn assign_background_with(
    fleet: &Fleet,
    groups: &[ClientGroup],
    background_kbps: &[Kbps],
    seed: u64,
    table: &MatchTable,
) -> Vec<Kbps> {
    debug_assert_eq!(table.score_ratio(), 2.0, "the preferred-cluster rule");
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB6_0000);
    let weights: Vec<f64> = fleet
        .cdns
        .iter()
        .map(|c| total_capacity(fleet, c.id).as_f64().max(1e-9))
        .collect();
    let total_w: f64 = weights.iter().sum();
    let mut load = vec![Kbps::ZERO; fleet.clusters.len()];
    for (i, group) in groups.iter().enumerate() {
        let demand = background_kbps.get(i).copied().unwrap_or(Kbps::ZERO);
        if demand <= Kbps::ZERO {
            continue;
        }
        for _half in 0..2 {
            let mut pick: f64 = rng.gen_range(0.0..total_w);
            let mut cdn = fleet.cdns.len() - 1;
            for (j, w) in weights.iter().enumerate() {
                if pick < *w {
                    cdn = j;
                    break;
                }
                pick -= w;
            }
            let cdn = CdnId(cdn as u32);
            if let Some(cluster) = table.candidates(cdn, group.city, 1).first() {
                load[cluster.index()] += demand / 2.0;
            }
        }
    }
    load
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::exchange::{accept_entries, shares_of};
    use vdx_broker::{gather_groups, synth_background, GroupOption};
    use vdx_cdn::{
        build_fleet, candidate_clusters, median_capacity, negotiate_contract, plan_capacities,
        Contract, FleetConfig, MatchingConfig, DEFAULT_MARKUP,
    };
    use vdx_geo::WorldConfig;
    use vdx_netsim::{NetModel, NetModelConfig};
    use vdx_proto::AcceptEntry;
    use vdx_trace::{BrokerTrace, BrokerTraceConfig};

    /// A small but complete ecosystem for decision-round tests.
    pub(crate) struct TestEco {
        pub world: World,
        pub fleet: Fleet,
        pub contracts: Vec<Contract>,
        pub groups: Vec<ClientGroup>,
        pub background: Vec<Kbps>,
        pub net: NetModel,
        /// The §5.1 tables of `fleet` for every city, at the paper's 2×
        /// ratio and Omniscient's unrestricted one.
        pub matches: [MatchTable; 2],
    }

    impl TestEco {
        /// Every CDN's fresh engine under `design`, in CDN order.
        pub(crate) fn engines(&self, design: Design) -> Vec<BidEngine> {
            (self.fleet.cdns.iter())
                .map(|c| {
                    BidEngine::new(c.id, design, &self.fleet, &self.contracts, &self.background)
                })
                .collect()
        }

        /// A balanced round over every group, announced by `engines`
        /// (all bidding by one design), matching by the network model.
        pub(crate) fn inputs<'a>(&'a self, engines: &'a [BidEngine]) -> RoundInputs<'a> {
            let ratio = engines[0].design().matching().score_ratio;
            RoundInputs {
                fleet: &self.fleet,
                groups: &self.groups,
                background_load_kbps: &self.background,
                policy: CpPolicy::balanced(),
                bid_count: None,
                engines,
                matches: (self.matches.iter())
                    .find(|t| t.score_ratio() == ratio)
                    .expect("a table per design ratio"),
            }
        }
    }

    fn eco_fleet_config() -> FleetConfig {
        FleetConfig {
            distributed_sites: 30,
            medium: (2, 8..12),
            centralized: (2, 3..5),
            regional: (2, 4..7),
            ..Default::default()
        }
    }

    pub(crate) fn build_eco(seed: u64) -> TestEco {
        let world = World::generate(
            &WorldConfig {
                countries: 15,
                cities: 80,
                ..Default::default()
            },
            seed,
        );
        let net = NetModel::new(NetModelConfig::default(), seed);
        let trace = BrokerTrace::generate(
            &world,
            &BrokerTraceConfig {
                sessions: 1_500,
                videos: 200,
                ..Default::default()
            },
            seed,
        );
        let groups = gather_groups(trace.sessions());
        let bg = synth_background(&groups, 3.0, seed);
        let demand = vdx_broker::gather::demand_points(&groups, &bg);
        let mut fleet = build_fleet(&world, &eco_fleet_config(), seed);
        plan_capacities(&world, &mut fleet, &demand, |a, b| net.score(&world, a, b));
        let contracts: Vec<Contract> = fleet
            .cdns
            .iter()
            .map(|c| negotiate_contract(&fleet, c.id, DEFAULT_MARKUP))
            .collect();
        let background = assign_background(&world, &fleet, &groups, &bg, seed, |a, b| {
            net.score(&world, a, b)
        });
        let matches = [MatchingConfig::default(), MatchingConfig::unrestricted()].map(|m| {
            let cdns = fleet.cdns.iter().map(|c| c.id);
            let cities = world.cities().iter().map(|c| c.id);
            MatchTable::build(&fleet, cdns, cities, m.score_ratio, |a, b| {
                net.score(&world, a, b)
            })
        });
        TestEco {
            world,
            fleet,
            contracts,
            groups,
            background,
            net,
            matches,
        }
    }

    fn run(eco: &TestEco, design: Design) -> RoundOutcome {
        let engines = eco.engines(design);
        run_decision_round(design, &eco.inputs(&engines), |a, b| {
            eco.net.score(&eco.world, a, b)
        })
    }

    #[test]
    fn every_group_is_assigned_in_every_design() {
        let eco = build_eco(11);
        for design in Design::TABLE3 {
            let out = run(&eco, design);
            assert_eq!(out.assignment.choice.len(), eco.groups.len(), "{design}");
            let placed: f64 = out
                .assignment
                .cluster_load_kbps
                .values()
                .map(|k| k.as_f64())
                .sum();
            let demand: f64 = eco.groups.iter().map(|g| g.demand_kbps.as_f64()).sum();
            assert!(
                (placed - demand).abs() < 1e-6,
                "{design}: {placed} vs {demand}"
            );
        }
    }

    #[test]
    fn brokered_offers_one_option_per_cdn() {
        let eco = build_eco(11);
        let out = run(&eco, Design::Brokered);
        for opts in &out.problem.options {
            assert_eq!(opts.len(), eco.fleet.cdns.len());
            // All options of one CDN share the flat contract price.
            for o in opts {
                let expect = eco.contracts[o.cdn.index()].billed_price_per_mb();
                assert_eq!(o.price_per_mb, expect);
            }
        }
    }

    #[test]
    fn multicluster_offers_more_options_than_brokered() {
        let eco = build_eco(11);
        let brokered = run(&eco, Design::Brokered);
        let multi = run(&eco, Design::Multicluster(100));
        let count = |o: &RoundOutcome| -> usize { o.problem.options.iter().map(Vec::len).sum() };
        assert!(count(&multi) > count(&brokered));
    }

    #[test]
    fn dynamic_designs_announce_per_cluster_prices() {
        let eco = build_eco(11);
        let out = run(&eco, Design::Marketplace);
        for opts in &out.problem.options {
            for o in opts {
                let cost = eco.fleet.clusters[o.cluster.index()].cost_per_mb();
                let expect = (cost * DEFAULT_MARKUP).as_per_megabit();
                assert!((o.price_per_mb.as_per_megabit() - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn omniscient_prices_like_marketplace_but_sees_everything() {
        let eco = build_eco(11);
        let out = run(&eco, Design::Omniscient);
        let market = run(&eco, Design::Marketplace);
        for opts in &out.problem.options {
            for o in opts {
                let cost = eco.fleet.clusters[o.cluster.index()].cost_per_mb();
                let expect = (cost * DEFAULT_MARKUP).as_per_megabit();
                assert!((o.price_per_mb.as_per_megabit() - expect).abs() < 1e-9);
            }
        }
        // Strictly more options than any restricted design.
        let count = |o: &RoundOutcome| -> usize { o.problem.options.iter().map(Vec::len).sum() };
        assert!(count(&out) >= count(&market));
    }

    #[test]
    fn capacity_beliefs_follow_the_design() {
        let eco = build_eco(11);
        let blind = run(&eco, Design::DynamicMulticluster);
        for opts in &blind.problem.options {
            for o in opts {
                assert_eq!(
                    o.believed_capacity_kbps,
                    median_capacity(&eco.fleet, o.cdn),
                    "blind designs use the per-CDN median"
                );
            }
        }
        let bestlookup = run(&eco, Design::BestLookup);
        for opts in &bestlookup.problem.options {
            for o in opts {
                assert_eq!(
                    o.believed_capacity_kbps,
                    eco.fleet.clusters[o.cluster.index()].capacity_kbps,
                    "BestLookup sees gross capacity"
                );
            }
        }
        let marketplace = run(&eco, Design::Marketplace);
        for opts in &marketplace.problem.options {
            for o in opts {
                let gross = eco.fleet.clusters[o.cluster.index()].capacity_kbps;
                let residual = gross.saturating_sub(eco.background[o.cluster.index()]);
                assert_eq!(
                    o.believed_capacity_kbps, residual,
                    "Marketplace sees residual"
                );
            }
        }
    }

    #[test]
    fn bid_count_override_limits_options() {
        let eco = build_eco(11);
        let engines = eco.engines(Design::Marketplace);
        let inputs = RoundInputs {
            bid_count: Some(1),
            ..eco.inputs(&engines)
        };
        let out = run_decision_round(Design::Marketplace, &inputs, |a, b| {
            eco.net.score(&eco.world, a, b)
        });
        for opts in &out.problem.options {
            assert_eq!(opts.len(), eco.fleet.cdns.len(), "one bid per CDN");
        }
    }

    #[test]
    fn accept_entries_cover_all_bids_with_one_winner_per_group() {
        let eco = build_eco(11);
        let out = run(&eco, Design::Marketplace);
        let shares = shares_of(&eco.groups);
        let scores = |a, b| eco.net.score(&eco.world, a, b);
        let engines = eco.engines(Design::Marketplace);
        let entries: Vec<AcceptEntry> = (engines.iter().enumerate())
            .flat_map(|(cdn, engine)| {
                let bids = engine.build_bids(&shares, &eco.fleet, &scores);
                accept_entries(&out.problem, &out.assignment, cdn, &bids)
            })
            .collect();
        let total_bids: usize = out.problem.options.iter().map(Vec::len).sum();
        assert_eq!(entries.len(), total_bids);
        for g in 0..eco.groups.len() {
            let winners = entries
                .iter()
                .filter(|e| e.bid.share_id == g as u64 && e.accepted)
                .count();
            assert_eq!(winners, 1, "exactly one accepted bid per group");
        }
    }

    #[test]
    fn background_assignment_conserves_demand() {
        let eco = build_eco(13);
        let bg_kbps: Vec<Kbps> = eco.groups.iter().map(|g| g.demand_kbps * 3.0).collect();
        let load = assign_background(&eco.world, &eco.fleet, &eco.groups, &bg_kbps, 5, |a, b| {
            eco.net.score(&eco.world, a, b)
        });
        let placed: f64 = load.iter().map(|k| k.as_f64()).sum();
        let expect: f64 = bg_kbps.iter().map(|k| k.as_f64()).sum();
        assert!((placed - expect).abs() < 1e-6);
        // Deterministic.
        let load2 = assign_background(&eco.world, &eco.fleet, &eco.groups, &bg_kbps, 5, |a, b| {
            eco.net.score(&eco.world, a, b)
        });
        assert_eq!(load, load2);
    }

    /// The option lists of a round built the plain way: one
    /// `candidate_clusters` call per (group, CDN), nothing carried over.
    fn options_per_group_and_cdn(
        eco: &TestEco,
        design: Design,
        inputs: &RoundInputs<'_>,
    ) -> Vec<Vec<GroupOption>> {
        let config = design.matching();
        let medians: Vec<Kbps> = (eco.fleet.cdns.iter())
            .map(|cdn| median_capacity(&eco.fleet, cdn.id))
            .collect();
        let per_group = inputs.groups.iter().map(|group| {
            let per_cdn = eco.fleet.cdns.iter().flat_map(|cdn| {
                let score = |site| eco.net.score(&eco.world, group.city, site);
                let contract_price = eco.contracts[cdn.id.index()].billed_price_per_mb();
                let medians = &medians;
                candidate_clusters(&eco.fleet, cdn.id, score, &config)
                    .into_iter()
                    .map(move |m| GroupOption {
                        cdn: cdn.id,
                        cluster: m.cluster,
                        score: m.score,
                        price_per_mb: design.announced_price(
                            m.cost_per_mb,
                            DEFAULT_MARKUP,
                            contract_price,
                        ),
                        believed_capacity_kbps: design.believed_capacity(
                            eco.fleet.clusters[m.cluster.index()].capacity_kbps,
                            inputs.background_load_kbps[m.cluster.index()],
                            medians[cdn.id.index()],
                        ),
                    })
            });
            per_cdn.collect()
        });
        per_group.collect()
    }

    /// `groups`' two halves dealt alternately: from Gather's order (a
    /// city's groups adjacent), neighbours are then almost never one city.
    fn interleaved(groups: &[ClientGroup]) -> Vec<ClientGroup> {
        let (front, back) = groups.split_at(groups.len().div_ceil(2));
        let mut interleaved: Vec<ClientGroup> = Vec::new();
        for (i, group) in front.iter().enumerate() {
            interleaved.push(group.clone());
            interleaved.extend(back.get(i).cloned());
        }
        interleaved
    }

    /// Pairs of neighbours that are groups of one city.
    fn adjacent(groups: &[ClientGroup]) -> usize {
        (groups.windows(2))
            .filter(|w| w[0].city == w[1].city)
            .count()
    }

    #[test]
    fn same_city_reuse_equals_the_per_group_loop_sorted_or_interleaved() {
        let eco = build_eco(11);
        let interleaved = interleaved(&eco.groups);
        assert!(
            adjacent(&eco.groups) > eco.groups.len() / 4,
            "the reuse path runs"
        );
        assert!(adjacent(&interleaved) <= 1);

        for groups in [&eco.groups, &interleaved] {
            for design in Design::TABLE3 {
                let engines = eco.engines(design);
                let inputs = RoundInputs {
                    groups,
                    ..eco.inputs(&engines)
                };
                let out =
                    run_decision_round(design, &inputs, |a, b| eco.net.score(&eco.world, a, b));
                assert_eq!(
                    out.problem.options,
                    options_per_group_and_cdn(&eco, design, &inputs),
                    "{design}"
                );
                let cities: std::collections::BTreeSet<CityId> =
                    groups.iter().map(|g| g.city).collect();
                assert_eq!(out.problem.options.lists().len(), cities.len(), "{design}");
            }
        }
    }

    /// An option list as bits, field by field.
    fn list_bits(list: &[GroupOption]) -> Vec<[u64; 5]> {
        (list.iter())
            .map(|o| {
                [
                    o.cdn.index() as u64,
                    u64::from(o.cluster.0),
                    o.score.value().to_bits(),
                    o.price_per_mb.as_per_megabit().to_bits(),
                    o.believed_capacity_kbps.as_f64().to_bits(),
                ]
            })
            .collect()
    }

    /// The round's last-city memo never hands a group another city's
    /// list: in reversed order (a city's groups still adjacent, so the
    /// memo answers) and interleaved (neighbours of other cities, so the
    /// map does), every group gets the list the city-ordered round gives
    /// it, bit for bit.
    #[test]
    fn any_group_order_gives_every_group_its_city_ordered_list_bit_for_bit() {
        let eco = build_eco(11);
        let reversed: Vec<ClientGroup> = eco.groups.iter().rev().cloned().collect();
        let interleaved = interleaved(&eco.groups);
        assert!(adjacent(&reversed) > eco.groups.len() / 4);
        assert!(adjacent(&interleaved) <= 1);
        for design in Design::TABLE3 {
            let engines = eco.engines(design);
            let round = |groups: &[ClientGroup]| {
                let inputs = RoundInputs {
                    groups,
                    ..eco.inputs(&engines)
                };
                run_decision_round(design, &inputs, |a, b| eco.net.score(&eco.world, a, b))
            };
            let ordered = round(&eco.groups);
            let expected: std::collections::BTreeMap<_, _> = (eco.groups.iter())
                .zip(ordered.problem.options.iter())
                .map(|(group, list)| (group.id, list_bits(list)))
                .collect();
            for groups in [&reversed, &interleaved] {
                let out = round(groups);
                assert_eq!(out.problem.options.len(), groups.len());
                for (group, list) in groups.iter().zip(out.problem.options.iter()) {
                    assert_eq!(
                        list_bits(list),
                        expected[&group.id],
                        "{design}: {:?}",
                        group.id
                    );
                }
            }
        }
    }

    #[test]
    fn setup_loops_equal_their_per_client_references_bit_for_bit() {
        let eco = build_eco(13);
        let score = |a, b| eco.net.score(&eco.world, a, b);
        let preferred = MatchingConfig::default().with_max_candidates(1);
        let bg = synth_background(&eco.groups, 3.0, 13);

        // plan_capacities: the solo run, on the fleet as build_fleet left it.
        let demand = vdx_broker::gather::demand_points(&eco.groups, &bg);
        let mut fleet = build_fleet(&eco.world, &eco_fleet_config(), 13);
        let mut expect = vec![Kbps::ZERO; fleet.clusters.len()];
        for cdn in &fleet.cdns {
            for &(client, kbps) in &demand {
                let m = candidate_clusters(&fleet, cdn.id, |site| score(client, site), &preferred);
                expect[m[0].cluster.index()] += kbps;
            }
        }
        let attracted = plan_capacities(&eco.world, &mut fleet, &demand, score);
        assert_eq!(attracted, expect);

        // assign_background: the same draws in the same order.
        let mut rng = StdRng::seed_from_u64(13 ^ 0xB6_0000);
        let weights: Vec<f64> = (eco.fleet.cdns.iter())
            .map(|c| total_capacity(&eco.fleet, c.id).as_f64().max(1e-9))
            .collect();
        let total_w: f64 = weights.iter().sum();
        let mut expect = vec![Kbps::ZERO; eco.fleet.clusters.len()];
        for (group, &demand) in eco.groups.iter().zip(&bg) {
            for _half in 0..2 {
                let mut pick: f64 = rng.gen_range(0.0..total_w);
                let cdn = weights.iter().position(|w| {
                    let hit = pick < *w;
                    pick -= w;
                    hit
                });
                let cdn = CdnId(cdn.unwrap_or(weights.len() - 1) as u32);
                let m =
                    candidate_clusters(&eco.fleet, cdn, |site| score(group.city, site), &preferred);
                expect[m[0].cluster.index()] += demand / 2.0;
            }
        }
        let load = assign_background(&eco.world, &eco.fleet, &eco.groups, &bg, 13, score);
        assert_eq!(load, expect);
        assert_eq!(load, eco.background, "and it is what build_eco computed");
    }

    #[test]
    fn marketplace_congests_less_than_blind_multicluster() {
        // The Table 3 headline mechanism: accurate (residual) capacity info
        // avoids overloading clusters.
        let eco = build_eco(17);
        let congested = |out: &RoundOutcome| -> f64 {
            let mut overloaded_sessions = 0u64;
            let mut total_sessions = 0u64;
            for (g, &choice) in out.assignment.choice.iter().enumerate() {
                let o = &out.problem.options[g][choice];
                let cl = &eco.fleet.clusters[o.cluster.index()];
                let load = out.assignment.cluster_load_kbps[&o.cluster]
                    + eco.background[o.cluster.index()];
                total_sessions += out.problem.groups[g].sessions as u64;
                if load > cl.capacity_kbps {
                    overloaded_sessions += out.problem.groups[g].sessions as u64;
                }
            }
            overloaded_sessions as f64 / total_sessions.max(1) as f64
        };
        let multi = congested(&run(&eco, Design::Multicluster(100)));
        let market = congested(&run(&eco, Design::Marketplace));
        assert!(
            market <= multi + 1e-9,
            "marketplace congestion {market} should not exceed blind multicluster {multi}"
        );
    }

    #[test]
    fn probed_round_emits_the_protocol_event_sequence() {
        use vdx_obs::{Event, MemoryProbe};
        let eco = build_eco(11);
        let engines = eco.engines(Design::Marketplace);
        let inputs = eco.inputs(&engines);
        let (probe, rx) = MemoryProbe::channel();
        let probed = run_decision_round_probed(
            Design::Marketplace,
            &inputs,
            |a, b| eco.net.score(&eco.world, a, b),
            RoundId(3),
            &probe,
        );
        let plain = run_decision_round(Design::Marketplace, &inputs, |a, b| {
            eco.net.score(&eco.world, a, b)
        });
        assert_eq!(
            probed.assignment.choice, plain.assignment.choice,
            "probe is inert"
        );

        let events: Vec<Event> = rx.try_iter().collect();
        assert!(matches!(
            events.first(),
            Some(Event::RoundStarted { round: 3, .. })
        ));
        assert!(
            matches!(events.get(1), Some(Event::SharePublished { .. })),
            "Marketplace shares clients"
        );
        let bids = events
            .iter()
            .filter(|e| matches!(e, Event::BidReceived { .. }))
            .count();
        assert_eq!(bids, eco.fleet.cdns.len(), "one Announce per CDN");
        assert_eq!(
            events
                .iter()
                .filter(|e| matches!(e, Event::SolverStats { .. }))
                .count(),
            1
        );
        match events
            .iter()
            .find(|e| matches!(e, Event::AcceptIssued { .. }))
        {
            Some(Event::AcceptIssued {
                accepted, rejected, ..
            }) => {
                assert_eq!(*accepted, eco.groups.len() as u64);
                let total: u64 = probed.problem.options.iter().map(|o| o.len() as u64).sum();
                assert_eq!(accepted + rejected, total);
            }
            _ => panic!("AcceptIssued missing"),
        }
        assert!(matches!(
            events.last(),
            Some(Event::RoundCompleted { round: 3, .. })
        ));
    }

    #[test]
    fn brokered_designs_do_not_share_clients_in_the_journal() {
        use vdx_obs::{Event, MemoryProbe};
        let eco = build_eco(11);
        let engines = eco.engines(Design::Brokered);
        let inputs = eco.inputs(&engines);
        let (probe, rx) = MemoryProbe::channel();
        run_decision_round_probed(
            Design::Brokered,
            &inputs,
            |a, b| eco.net.score(&eco.world, a, b),
            RoundId(0),
            &probe,
        );
        assert!(
            !rx.try_iter()
                .any(|e| matches!(e, Event::SharePublished { .. })),
            "Brokered has no Share step"
        );
    }
}
