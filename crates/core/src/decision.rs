//! The seven-step Decision Protocol (§4.1) as a pure function.
//!
//! One call to [`run_decision_round`] executes Estimate → Gather → Share →
//! Matching → Announce → Optimize → Accept for a given [`Design`] over an
//! ecosystem snapshot, producing the client-group→cluster assignment the
//! Delivery Protocol then serves from. "Time dynamics are less important as
//! the Decision Protocol runs periodically over all clients" (§5.1) — the
//! paper's evaluation, and ours, is exactly one round per design.
//!
//! Where the designs differ (Table 2) is encoded declaratively on
//! [`Design`] and applied here:
//!
//! * **Matching width** — how many candidate clusters a CDN may offer.
//! * **Price** — flat contract price vs. per-cluster dynamic price
//!   (`margin × internal cost`; the margin comes from bid shading and
//!   defaults to the paper's 1.2 markup). Omniscient sees raw cost.
//! * **Capacity belief** — per-CDN median estimate (§5.1) for blind
//!   designs; gross true capacity for BestLookup (which cannot see other
//!   traffic sources, hence overbooking); residual capacity (net of
//!   background commitments) for Marketplace-class designs.

use crate::design::Design;
use vdx_broker::{
    optimize_probed, optimize_probed_ctx, BrokerAssignment, BrokerProblem, ClientGroup, CpPolicy,
    GroupOption, OptimizeContext, OptimizeMode,
};
use vdx_cdn::{
    median_capacity, total_capacity, CdnId, CityMatcher, ClusterId, Contract, Fleet, MatchingConfig,
};
use vdx_geo::{CityId, World};
use vdx_netsim::Score;
use vdx_obs::{Event, NoopProbe, Probe, ScopedTimer};
use vdx_rand::StdRng;
use vdx_units::{Kbps, Margin, UsdPerGb};

/// Everything a Decision Protocol round needs to see.
pub struct RoundInputs<'a> {
    /// The world geometry.
    pub world: &'a World,
    /// The CDN fleet (clusters must have planned capacities).
    pub fleet: &'a Fleet,
    /// Flat-rate contracts, indexed by [`CdnId`].
    pub contracts: &'a [Contract],
    /// The broker's client groups (the Gather output).
    pub groups: &'a [ClientGroup],
    /// True background load per cluster (from [`assign_background`]).
    pub background_load_kbps: &'a [Kbps],
    /// The content provider's goals.
    pub policy: CpPolicy,
    /// Override for the marketplace bid count (Fig 18); `None` uses the
    /// design's default.
    pub bid_count: Option<usize>,
    /// Per-cluster price margins from bid shading; `None` means the flat
    /// 1.2 markup everywhere.
    pub margins: Option<&'a [Margin]>,
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

impl RoundOutcome {
    /// The Accept step's content: every announced option with whether the
    /// broker used it — including losing bids, so CDNs can learn (§6.1).
    pub fn accept_entries(&self) -> Vec<(usize, GroupOption, bool)> {
        let mut entries = Vec::new();
        for (g, opts) in self.problem.options.iter().enumerate() {
            for (i, o) in opts.iter().enumerate() {
                entries.push((g, *o, self.assignment.choice[g] == i));
            }
        }
        entries
    }

    /// The chosen option for each group.
    pub fn chosen(&self) -> Vec<&GroupOption> {
        (0..self.problem.groups.len())
            .map(|g| self.assignment.chosen(&self.problem, g))
            .collect()
    }
}

/// Runs one round of the Decision Protocol for `design`.
///
/// `score_of(client_city, site_city)` provides the Estimate step's
/// performance scores (both parties are assumed to estimate consistently;
/// see DESIGN.md on this simplification, which the paper shares).
///
/// **Contract** (this function and its `_probed` / `_probed_ctx` forms):
/// within one call `score_of` is a pure function of the two cities. The
/// round matches each (CDN, city) once and gives a group in the city of
/// the group before it that group's option list (DESIGN.md §8).
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
/// The Optimize step goes through
/// [`optimize_probed_ctx`], which emits
/// one extra [`Event::SolverResolve`] line per round (how the round's
/// problem differs from the previous one — a pure function of the round
/// sequence) and skips recomputing decisions that determinism pins down.
/// The outcome and every journaled line are bit-identical to threading a
/// reuse-disabled context; the context only changes how much work the
/// round does.
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
    // Feed the process-wide latency histogram only on instrumented runs,
    // so unprobed callers keep pure-function semantics.
    let _round_timer = probe
        .enabled()
        .then(|| ScopedTimer::global("core.decision_round"));
    let fleet = inputs.fleet;
    if probe.enabled() {
        probe.emit(Event::RoundStarted {
            round,
            design: design.name(),
            groups: inputs.groups.len() as u64,
            cdns: fleet.cdns.len() as u64,
        });
        if design.shares_clients() {
            probe.emit(Event::SharePublished {
                round,
                shares: inputs.groups.len() as u64,
                demand_kbps: inputs.groups.iter().map(|g| g.demand_kbps.as_f64()).sum(),
            });
        }
    }
    let matching_config = match inputs.bid_count {
        Some(bids) => design.matching().with_max_candidates(bids),
        None => design.matching(),
    };

    // Per-CDN median capacity estimates for capacity-blind designs.
    let medians: Vec<Kbps> = fleet
        .cdns
        .iter()
        .map(|cdn| median_capacity(fleet, cdn.id))
        .collect();

    let mut options: Vec<Vec<GroupOption>> = Vec::with_capacity(inputs.groups.len());
    let mut matcher = CityMatcher::new(fleet, &matching_config, &score_of);
    for (g, group) in inputs.groups.iter().enumerate() {
        // A group's options depend on it through its city alone (price and
        // believed capacity are the design's, the CDN's and the cluster's),
        // and Gather emits a city's groups side by side: the second takes a
        // copy of the first one's list. Only neighbours are compared, so an
        // unsorted input costs time, never correctness.
        if g > 0 && inputs.groups[g - 1].city == group.city {
            options.push(options[g - 1].clone());
            continue;
        }
        let mut group_options = Vec::new();
        for cdn in &fleet.cdns {
            // Steps 3–5: Share (implicit — the matchings below are built
            // per city, which for Marketplace-class designs is licensed by
            // the Share step), Matching, Announce.
            for m in matcher.candidates_for(cdn.id, group.city) {
                let price_per_mb =
                    announced_price(design, inputs, cdn.id, m.cluster, m.cost_per_mb);
                let believed_capacity_kbps =
                    believed_capacity(design, inputs, cdn.id, m.cluster, &medians);
                group_options.push(GroupOption {
                    cdn: cdn.id,
                    cluster: m.cluster,
                    score: m.score,
                    price_per_mb,
                    believed_capacity_kbps,
                });
            }
        }
        options.push(group_options);
    }

    if probe.enabled() {
        // One Announce batch per CDN: its bids across all groups.
        let mut bids_per_cdn = vec![0u64; fleet.cdns.len()];
        for opts in &options {
            for o in opts {
                bids_per_cdn[o.cdn.index()] += 1;
            }
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
    let assignment = match ctx {
        Some(ctx) => optimize_probed_ctx(
            &problem,
            &inputs.policy,
            &OptimizeMode::Heuristic,
            round,
            probe,
            ctx,
        ),
        None => optimize_probed(
            &problem,
            &inputs.policy,
            &OptimizeMode::Heuristic,
            round,
            probe,
        ),
    };

    if probe.enabled() {
        let total_bids: u64 = problem.options.iter().map(|o| o.len() as u64).sum();
        let accepted = problem.groups.len() as u64;
        probe.emit(Event::AcceptIssued {
            round,
            accepted,
            rejected: total_bids - accepted,
        });
        for (&cluster, &load) in &assignment.cluster_load_kbps {
            let capacity_kbps = fleet.clusters[cluster.index()].capacity_kbps;
            let with_background = load + inputs.background_load_kbps[cluster.index()];
            if with_background > capacity_kbps {
                probe.emit(Event::ClusterCongested {
                    round,
                    cluster: cluster.index() as u32,
                    load_kbps: with_background.as_f64(),
                    capacity_kbps: capacity_kbps.as_f64(),
                });
            }
        }
        probe.emit(Event::RoundCompleted {
            round,
            objective: assignment.objective,
            options: total_bids,
        });
    }

    RoundOutcome {
        design,
        problem,
        assignment,
    }
}

fn announced_price(
    design: Design,
    inputs: &RoundInputs<'_>,
    cdn: CdnId,
    cluster: ClusterId,
    cost_per_mb: UsdPerGb,
) -> UsdPerGb {
    if design == Design::Omniscient {
        // The upper bound differs from Marketplace only in its unrestricted
        // candidate set; prices keep the same markup so the optimization is
        // comparable (otherwise the wc scale would silently change).
        return cost_per_mb * vdx_cdn::DEFAULT_MARKUP;
    }
    if design.announces_cost() {
        let margin = inputs
            .margins
            .map(|m| m[cluster.index()])
            .unwrap_or(vdx_cdn::DEFAULT_MARKUP);
        cost_per_mb * margin
    } else {
        inputs.contracts[cdn.index()].billed_price_per_mb()
    }
}

fn believed_capacity(
    design: Design,
    inputs: &RoundInputs<'_>,
    cdn: CdnId,
    cluster: ClusterId,
    medians: &[Kbps],
) -> Kbps {
    if !design.announces_capacity() {
        return medians[cdn.index()];
    }
    let gross = inputs.fleet.clusters[cluster.index()].capacity_kbps;
    if design.capacity_is_residual() {
        gross.saturating_sub(inputs.background_load_kbps[cluster.index()])
    } else {
        gross
    }
}

/// Places the §5.1 background traffic (non-broker / other-broker clients):
/// each group's background demand is split across two CDNs drawn with
/// probability proportional to total CDN capacity, then served from each
/// CDN's best-scoring cluster — i.e. traditional delivery, no broker
/// optimization. Returns per-cluster load in kbit/s.
pub fn assign_background(
    world: &World,
    fleet: &Fleet,
    groups: &[ClientGroup],
    background_kbps: &[Kbps],
    seed: u64,
    score_of: impl Fn(CityId, CityId) -> Score,
) -> Vec<Kbps> {
    let _ = world;
    let mut rng = StdRng::seed_from_u64(seed ^ 0xB6_0000);
    let weights: Vec<f64> = fleet
        .cdns
        .iter()
        .map(|c| total_capacity(fleet, c.id).as_f64().max(1e-9))
        .collect();
    let total_w: f64 = weights.iter().sum();
    let mut load = vec![Kbps::ZERO; fleet.clusters.len()];
    let preferred_config = MatchingConfig {
        score_ratio: 2.0,
        max_candidates: 1,
    };
    let mut matcher = CityMatcher::new(fleet, &preferred_config, &score_of);
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
            if let Some(m) = matcher.candidates_for(cdn, group.city).first() {
                load[m.cluster.index()] += demand / 2.0;
            }
        }
    }
    load
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vdx_broker::{gather_groups, synth_background};
    use vdx_cdn::{
        build_fleet, candidate_clusters, negotiate_contract, plan_capacities, FleetConfig,
        DEFAULT_MARKUP,
    };
    use vdx_geo::WorldConfig;
    use vdx_netsim::{NetModel, NetModelConfig};
    use vdx_trace::{BrokerTrace, BrokerTraceConfig};

    /// A small but complete ecosystem for decision-round tests.
    pub(crate) struct TestEco {
        pub world: World,
        pub fleet: Fleet,
        pub contracts: Vec<Contract>,
        pub groups: Vec<ClientGroup>,
        pub background: Vec<Kbps>,
        pub net: NetModel,
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
        TestEco {
            world,
            fleet,
            contracts,
            groups,
            background,
            net,
        }
    }

    fn run(eco: &TestEco, design: Design) -> RoundOutcome {
        let inputs = RoundInputs {
            world: &eco.world,
            fleet: &eco.fleet,
            contracts: &eco.contracts,
            groups: &eco.groups,
            background_load_kbps: &eco.background,
            policy: CpPolicy::balanced(),
            bid_count: None,
            margins: None,
        };
        run_decision_round(design, &inputs, |a, b| eco.net.score(&eco.world, a, b))
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
        let inputs = RoundInputs {
            world: &eco.world,
            fleet: &eco.fleet,
            contracts: &eco.contracts,
            groups: &eco.groups,
            background_load_kbps: &eco.background,
            policy: CpPolicy::balanced(),
            bid_count: Some(1),
            margins: None,
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
        let entries = out.accept_entries();
        let total_bids: usize = out.problem.options.iter().map(Vec::len).sum();
        assert_eq!(entries.len(), total_bids);
        for g in 0..eco.groups.len() {
            let winners = entries
                .iter()
                .filter(|(gg, _, won)| *gg == g && *won)
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
                candidate_clusters(&eco.fleet, cdn.id, score, &config)
                    .into_iter()
                    .map(|m| GroupOption {
                        cdn: cdn.id,
                        cluster: m.cluster,
                        score: m.score,
                        price_per_mb: announced_price(
                            design,
                            inputs,
                            cdn.id,
                            m.cluster,
                            m.cost_per_mb,
                        ),
                        believed_capacity_kbps: believed_capacity(
                            design, inputs, cdn.id, m.cluster, &medians,
                        ),
                    })
            });
            per_cdn.collect()
        });
        per_group.collect()
    }

    #[test]
    fn same_city_reuse_equals_the_per_group_loop_sorted_or_interleaved() {
        let eco = build_eco(11);
        // Gather's order (a city's groups adjacent), and the two halves of
        // it dealt alternately, so neighbours are almost never one city.
        let (front, back) = eco.groups.split_at(eco.groups.len().div_ceil(2));
        let mut interleaved: Vec<ClientGroup> = Vec::new();
        for (i, group) in front.iter().enumerate() {
            interleaved.push(group.clone());
            interleaved.extend(back.get(i).cloned());
        }
        let adjacent =
            |gs: &[ClientGroup]| gs.windows(2).filter(|w| w[0].city == w[1].city).count();
        assert!(
            adjacent(&eco.groups) > eco.groups.len() / 4,
            "the reuse path runs"
        );
        assert!(adjacent(&interleaved) <= 1);

        for groups in [&eco.groups, &interleaved] {
            let inputs = RoundInputs {
                world: &eco.world,
                fleet: &eco.fleet,
                contracts: &eco.contracts,
                groups,
                background_load_kbps: &eco.background,
                policy: CpPolicy::balanced(),
                bid_count: None,
                margins: None,
            };
            for design in Design::TABLE3 {
                let out =
                    run_decision_round(design, &inputs, |a, b| eco.net.score(&eco.world, a, b));
                assert_eq!(
                    out.problem.options,
                    options_per_group_and_cdn(&eco, design, &inputs),
                    "{design}"
                );
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
        let inputs = RoundInputs {
            world: &eco.world,
            fleet: &eco.fleet,
            contracts: &eco.contracts,
            groups: &eco.groups,
            background_load_kbps: &eco.background,
            policy: CpPolicy::balanced(),
            bid_count: None,
            margins: None,
        };
        let probe = MemoryProbe::new();
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

        let events = probe.take();
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
        let inputs = RoundInputs {
            world: &eco.world,
            fleet: &eco.fleet,
            contracts: &eco.contracts,
            groups: &eco.groups,
            background_load_kbps: &eco.background,
            policy: CpPolicy::balanced(),
            bid_count: None,
            margins: None,
        };
        let probe = MemoryProbe::new();
        run_decision_round_probed(
            Design::Brokered,
            &inputs,
            |a, b| eco.net.score(&eco.world, a, b),
            RoundId(0),
            &probe,
        );
        assert!(
            !probe
                .take()
                .iter()
                .any(|e| matches!(e, Event::SharePublished { .. })),
            "Brokered has no Share step"
        );
    }
}
