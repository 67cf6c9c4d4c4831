//! Scenario: one coherent simulated ecosystem, wired per §5.1.
//!
//! Building a scenario performs, in order:
//!
//! 1. world generation (countries, cities, costs) — `vdx-geo`;
//! 2. network model instantiation — `vdx-netsim`;
//! 3. broker trace synthesis (33.4 K sessions by default) — `vdx-trace`;
//! 4. Gather: sessions → per-city client groups, plus 3× background
//!    traffic — `vdx-broker`;
//! 5. fleet construction (14 CDNs) — `vdx-cdn`;
//! 6. the score matrix, and the §5.1 candidate tables read off it (the
//!    paper's 2× rule and Omniscient's unrestricted one);
//! 7. capacity planning (solo-workload 2× rule over the *full* demand,
//!    brokered + background) and flat-rate contract negotiation;
//! 8. background placement onto concrete clusters.
//!
//! The resulting [`Scenario`] can then run any [`Design`]'s Decision
//! Protocol round via [`Scenario::run`].

use std::sync::Arc;
use vdx_broker::{gather::demand_points, gather_groups, synth_background, ClientGroup, CpPolicy};
use vdx_cdn::{
    build_fleet, city_centric_cdns, negotiate_contract, plan_capacities_with, CdnId, Contract,
    Fleet, FleetConfig, MatchTable, MatchingConfig, DEFAULT_MARKUP,
};
use vdx_core::{
    assign_background_with, run_decision_round_probed, BidEngine, Design, RoundId, RoundInputs,
    RoundOutcome,
};
use vdx_geo::{CityId, World, WorldConfig};
use vdx_netsim::{NetModel, NetModelConfig, Score, ScoreMatrix};
use vdx_obs::Probe;
use vdx_proto::{Bid, Share};
use vdx_trace::{BrokerTrace, BrokerTraceConfig};
use vdx_units::Kbps;

/// Scenario scale and seeds.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// World parameters.
    pub world: WorldConfig,
    /// Network model parameters.
    pub net: NetModelConfig,
    /// Broker trace parameters.
    pub trace: BrokerTraceConfig,
    /// Fleet parameters.
    pub fleet: FleetConfig,
    /// Background traffic multiple (paper: 3×).
    pub background_multiple: f64,
    /// Master seed; every sub-generator derives from it.
    pub seed: u64,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        ScenarioConfig {
            world: WorldConfig::default(),
            net: NetModelConfig::default(),
            trace: BrokerTraceConfig::default(),
            fleet: FleetConfig::default(),
            background_multiple: 3.0,
            seed: 2017, // CoNEXT '17
        }
    }
}

impl ScenarioConfig {
    /// What `--small` and `--seed N` select: the reduced or the default
    /// configuration, under `seed` when one is given.
    pub fn at_scale(small: bool, seed: Option<u64>) -> ScenarioConfig {
        let config = if small {
            ScenarioConfig::small()
        } else {
            ScenarioConfig::default()
        };
        ScenarioConfig {
            seed: seed.unwrap_or(config.seed),
            ..config
        }
    }

    /// A reduced-scale configuration for fast tests and benches.
    pub fn small() -> ScenarioConfig {
        ScenarioConfig {
            world: WorldConfig {
                countries: 15,
                cities: 80,
                ..Default::default()
            },
            trace: BrokerTraceConfig {
                sessions: 2_000,
                videos: 300,
                ..Default::default()
            },
            fleet: FleetConfig {
                distributed_sites: 30,
                medium: (2, 8..12),
                centralized: (2, 3..5),
                regional: (2, 4..7),
                ..Default::default()
            },
            ..Default::default()
        }
    }
}

/// A fully built ecosystem, ready to run decision rounds.
pub struct Scenario {
    /// The configuration it was built from.
    pub config: ScenarioConfig,
    /// The world.
    pub world: World,
    /// The network model.
    pub net: NetModel,
    /// The broker trace.
    pub trace: BrokerTrace,
    /// The CDN fleet with planned capacities.
    pub fleet: Fleet,
    /// Flat-rate contracts per CDN.
    pub contracts: Vec<Contract>,
    /// The broker's client groups.
    pub groups: Vec<ClientGroup>,
    /// Per-group background demand.
    pub background_kbps: Vec<Kbps>,
    /// Per-cluster background load.
    pub background_load: Vec<Kbps>,
    /// Observability probe; the default no-op keeps rounds pure.
    probe: Arc<dyn Probe>,
    /// Threads the experiment engine fans independent rounds out over.
    threads: usize,
    /// Precomputed (client city × cluster city) scores; every score the
    /// ecosystem asks for — capacity planning, background placement,
    /// decision rounds — is an O(1) lookup here.
    scores: ScoreMatrix,
    /// The §5.1 Matching rule read off `scores` for every (CDN, city) of
    /// the world, once: the paper's 2× cutoff (every design but
    /// Omniscient, and the preferred cluster capacity planning and
    /// background placement use) and Omniscient's unrestricted rule.
    /// Valid for as long as `fleet`'s costs and `scores` are; a new
    /// fleet gets new tables.
    matches: MatchTables,
}

/// The rounds of one scenario are the ones whose option lists fit each
/// other's: dropping the scenario frees the spare lists its rounds left
/// to this thread (DESIGN.md §8), so the next scenario is not built
/// around them.
impl Drop for Scenario {
    fn drop(&mut self) {
        vdx_broker::OptionLists::free_spare();
    }
}

/// A scenario's two candidate tables, one per score ratio a design uses.
struct MatchTables {
    paper: MatchTable,
    unrestricted: MatchTable,
}

impl MatchTables {
    fn build(world: &World, fleet: &Fleet, scores: &ScoreMatrix) -> MatchTables {
        let table = |score_ratio| {
            let cdns = fleet.cdns.iter().map(|c| c.id);
            let cities = world.cities().iter().map(|c| c.id);
            MatchTable::build(fleet, cdns, cities, score_ratio, |a, b| {
                scores.score_of(a, b)
            })
        };
        MatchTables {
            paper: table(MatchingConfig::default().score_ratio),
            unrestricted: table(MatchingConfig::unrestricted().score_ratio),
        }
    }
}

impl Scenario {
    /// Builds the ecosystem deterministically from `config`.
    pub fn build(config: ScenarioConfig) -> Scenario {
        let world = World::generate(&config.world, config.seed);
        let net = NetModel::new(config.net.clone(), config.seed);
        let trace = BrokerTrace::generate(&world, &config.trace, config.seed);
        let groups = gather_groups(trace.sessions());
        let background_kbps = synth_background(&groups, config.background_multiple, config.seed);
        let demand = demand_points(&groups, &background_kbps);

        let mut fleet = build_fleet(&world, &config.fleet, config.seed);
        // Precompute every (client, cluster city) score once, and the
        // Matching rule over it: capacity planning, background placement
        // and every decision round read candidates off the tables.
        let scores = score_matrix(&net, &world, &fleet);
        let matches = MatchTables::build(&world, &fleet, &scores);
        plan_capacities_with(&world, &mut fleet, &demand, &matches.paper);
        let contracts = negotiate_all(&fleet);
        let background_load = assign_background_with(
            &fleet,
            &groups,
            &background_kbps,
            config.seed,
            &matches.paper,
        );
        Scenario {
            config,
            world,
            net,
            trace,
            fleet,
            contracts,
            groups,
            background_kbps,
            background_load,
            probe: vdx_obs::probe::noop(),
            threads: 1,
            scores,
            matches,
        }
    }

    /// Routes every subsequent round's journal events to `probe`. The
    /// default no-op probe leaves rounds observationally pure; attaching a
    /// real probe never changes an assignment.
    pub fn set_probe(&mut self, probe: Arc<dyn Probe>) {
        self.probe = probe;
    }

    /// The probe rounds currently report to (shared with, e.g., [`replay`]).
    ///
    /// [`replay`]: crate::replay
    pub fn probe(&self) -> Arc<dyn Probe> {
        self.probe.clone()
    }

    /// Sets how many threads [`crate::engine`] fans independent rounds
    /// out over (at least one). A freshly built scenario has one: rounds
    /// run on the calling thread. Results and journals are identical for
    /// any count; only wall-clock time and peak memory change.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The engine's thread count; see [`Scenario::set_threads`].
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The §7.2 scenario: this ecosystem plus `n` city-centric CDNs, with
    /// capacities, contracts and background re-derived for the expanded
    /// fleet (the newcomers lower co-location costs at shared sites).
    pub fn with_city_centric(&self, n: usize) -> Scenario {
        let demand = demand_points(&self.groups, &self.background_kbps);
        let mut fleet = city_centric_cdns(
            &self.world,
            &self.fleet,
            &self.config.fleet,
            n,
            self.config.seed,
        );
        // The expanded fleet adds cluster cities and lowers co-location
        // costs: rebuild the score matrix and both candidate tables.
        let scores = score_matrix(&self.net, &self.world, &fleet);
        let matches = MatchTables::build(&self.world, &fleet, &scores);
        plan_capacities_with(&self.world, &mut fleet, &demand, &matches.paper);
        let contracts = negotiate_all(&fleet);
        let background_load = assign_background_with(
            &fleet,
            &self.groups,
            &self.background_kbps,
            self.config.seed,
            &matches.paper,
        );
        Scenario {
            config: self.config.clone(),
            world: self.world.clone(),
            net: self.net.clone(),
            trace: self.trace.clone(),
            fleet,
            contracts,
            groups: self.groups.clone(),
            background_kbps: self.background_kbps.clone(),
            background_load,
            probe: self.probe.clone(),
            threads: self.threads,
            scores,
            matches,
        }
    }

    /// The candidate table `design`'s Matching rule reads: its score
    /// ratio's, for this fleet and every city of the world.
    pub fn match_table(&self, design: Design) -> &MatchTable {
        if design.matching().score_ratio == self.matches.paper.score_ratio() {
            &self.matches.paper
        } else {
            &self.matches.unrestricted
        }
    }

    /// CDN `cdn`'s fresh bid engine under `design`, bidding from this
    /// scenario's contracts and background load: every engine a round
    /// asks, pure or over a transport, comes from here.
    pub fn engine(&self, design: Design, cdn: CdnId) -> BidEngine {
        BidEngine::new(
            cdn,
            design,
            &self.fleet,
            &self.contracts,
            &self.background_load,
        )
    }

    /// Every CDN's fresh engine under `design`, in CDN order: a pure
    /// round's [`RoundInputs::engines`].
    pub fn engines(&self, design: Design) -> Vec<BidEngine> {
        (self.fleet.cdns.iter())
            .map(|c| self.engine(design, c.id))
            .collect()
    }

    /// `engine`'s Announce for `shares`, its candidates read off this
    /// scenario's table: [`BidEngine::build_bids`] without rematching.
    pub fn announce(&self, engine: &BidEngine, shares: &[Share]) -> Vec<Bid> {
        engine.build_bids_with(
            shares,
            &self.fleet,
            self.match_table(engine.design()),
            &|a: CityId, b: CityId| self.score_of(a, b),
        )
    }

    /// The ground-truth score between a client city and a site city: an
    /// O(1) matrix lookup for cluster cities (every pair the Decision
    /// Protocol asks for), falling back to the network model for pairs
    /// outside the precomputed table.
    pub fn score_of(&self, client: CityId, site: CityId) -> Score {
        self.scores
            .get(client, site)
            .unwrap_or_else(|| self.net.score(&self.world, client, site))
    }

    /// Runs one Decision Protocol round for `design` under `policy`.
    ///
    /// Convenience wrapper over [`Scenario::run_round`] with round id 0;
    /// callers journaling several rounds assign distinct ids instead.
    pub fn run(&self, design: Design, policy: CpPolicy) -> RoundOutcome {
        self.run_round(RoundId(0), design, policy)
    }

    /// Runs one Decision Protocol round under a caller-assigned round id.
    ///
    /// Rounds are pure functions of `(self, round, design, policy)`, so
    /// independent rounds may run concurrently — the id (journaled in
    /// every round event) is assigned by the experiment driver rather
    /// than a shared counter, keeping journals schedule-independent.
    pub fn run_round(&self, round: RoundId, design: Design, policy: CpPolicy) -> RoundOutcome {
        self.run_round_probed(round, design, policy, None, self.probe.as_ref())
    }

    /// [`Scenario::run_round`] with a marketplace bid-count override,
    /// reporting to an explicit probe instead of the scenario's own — the
    /// experiment engine uses this to buffer per-round events and emit
    /// them in round order.
    pub fn run_round_probed(
        &self,
        round: RoundId,
        design: Design,
        policy: CpPolicy,
        bid_count: Option<usize>,
        probe: &dyn Probe,
    ) -> RoundOutcome {
        let score = |a, b| self.score_of(a, b);
        self.decide(design, policy, bid_count, |inputs| {
            run_decision_round_probed(design, inputs, score, round, probe)
        })
    }

    /// [`Scenario::run_round_probed`] with a warm-start context carried
    /// across rounds: the Optimize step replays the previous round's
    /// decision when the round's problem repeats it. The outcome is
    /// [`Scenario::run_round_probed`]'s either way.
    pub fn run_round_probed_ctx(
        &self,
        round: RoundId,
        design: Design,
        policy: CpPolicy,
        bid_count: Option<usize>,
        probe: &dyn Probe,
        ctx: &mut vdx_broker::OptimizeContext,
    ) -> RoundOutcome {
        let score = |a, b| self.score_of(a, b);
        self.decide(design, policy, bid_count, |inputs| {
            vdx_core::run_decision_round_probed_ctx(design, inputs, score, round, probe, ctx)
        })
    }

    /// `run` over this scenario's round under `design`: its groups,
    /// background and table, and every CDN's fresh engine.
    fn decide(
        &self,
        design: Design,
        policy: CpPolicy,
        bid_count: Option<usize>,
        run: impl FnOnce(&RoundInputs<'_>) -> RoundOutcome,
    ) -> RoundOutcome {
        run(&RoundInputs {
            fleet: &self.fleet,
            groups: &self.groups,
            background_load_kbps: &self.background_load,
            policy,
            bid_count,
            engines: &self.engines(design),
            matches: self.match_table(design),
        })
    }
}

fn negotiate_all(fleet: &Fleet) -> Vec<Contract> {
    fleet
        .cdns
        .iter()
        .map(|c| negotiate_contract(fleet, c.id, DEFAULT_MARKUP))
        .collect()
}

/// Builds the dense (every city × cluster city) score table for a fleet.
fn score_matrix(net: &NetModel, world: &World, fleet: &Fleet) -> ScoreMatrix {
    let sites: Vec<CityId> = fleet.clusters.iter().map(|c| c.city).collect();
    ScoreMatrix::build(net, world, &sites)
}

/// A lazily built, process-wide small scenario for tests — building one
/// takes seconds, and every experiment test needs the same one.
#[cfg(test)]
pub(crate) fn shared_small() -> &'static Scenario {
    static SCENARIO: std::sync::OnceLock<Scenario> = std::sync::OnceLock::new();
    SCENARIO.get_or_init(|| Scenario::build(ScenarioConfig::small()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_scenario_builds_consistently() {
        let s = shared_small();
        assert_eq!(s.fleet.cdns.len(), 7);
        assert_eq!(s.groups.len(), s.background_kbps.len());
        assert_eq!(s.background_load.len(), s.fleet.clusters.len());
        assert!(s.groups.iter().all(|g| g.demand_kbps > Kbps::ZERO));
        // Capacities planned and contracts negotiated for every CDN.
        for cl in &s.fleet.clusters {
            assert!(cl.capacity_kbps > Kbps::ZERO);
        }
        for c in &s.contracts {
            assert!(c.base_price_per_mb > vdx_core::units::UsdPerGb::ZERO);
        }
    }

    #[test]
    fn all_designs_run_on_small_scenario() {
        let s = shared_small();
        for design in Design::TABLE3 {
            let out = s.run(design, CpPolicy::balanced());
            assert_eq!(out.assignment.choice.len(), s.groups.len(), "{design}");
        }
    }

    /// A round reads its candidates off the scenario's tables, and on the
    /// expanded fleet of [`Scenario::with_city_centric`] — new CDNs, new
    /// co-location costs — off tables rebuilt for it: every group is
    /// offered what `candidate_clusters` gives it alone, in Gather's order
    /// and interleaved.
    #[test]
    fn a_round_matches_each_group_as_if_alone_in_gather_order_or_interleaved() {
        use std::collections::BTreeMap;
        use vdx_cdn::candidate_clusters;
        let small = shared_small();
        let expanded = small.with_city_centric(20);
        for s in [small, &expanded] {
            // The two halves of Gather's order dealt alternately:
            // neighbours are no longer one city.
            let (front, back) = s.groups.split_at(s.groups.len().div_ceil(2));
            let mut interleaved = Vec::new();
            for (i, g) in front.iter().enumerate() {
                interleaved.push(g.clone());
                interleaved.extend(back.get(i).cloned());
            }
            for groups in [&s.groups, &interleaved] {
                for design in Design::TABLE3 {
                    let engines = s.engines(design);
                    let inputs = RoundInputs {
                        fleet: &s.fleet,
                        groups,
                        background_load_kbps: &s.background_load,
                        policy: CpPolicy::balanced(),
                        bid_count: None,
                        engines: &engines,
                        matches: s.match_table(design),
                    };
                    let out =
                        vdx_core::run_decision_round(design, &inputs, |a, b| s.score_of(a, b));
                    let config = design.matching();
                    // What a group is offered at is the design's, the
                    // CDN's and the cluster's business: one price and one
                    // believed capacity per cluster across the whole round.
                    let mut terms = BTreeMap::new();
                    for (group, opts) in groups.iter().zip(&out.problem.options) {
                        let alone: Vec<_> = (s.fleet.cdns.iter())
                            .flat_map(|cdn| {
                                let score = |site| s.score_of(group.city, site);
                                candidate_clusters(&s.fleet, cdn.id, score, &config)
                                    .into_iter()
                                    .map(|m| (cdn.id, m.cluster, m.score))
                            })
                            .collect();
                        let got: Vec<_> =
                            opts.iter().map(|o| (o.cdn, o.cluster, o.score)).collect();
                        assert_eq!(got, alone, "{design}, {:?}", group.id);
                        for o in opts {
                            let offered = (o.price_per_mb, o.believed_capacity_kbps);
                            assert_eq!(*terms.entry(o.cluster).or_insert(offered), offered);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn city_centric_expansion_keeps_ecosystem_consistent() {
        let s = shared_small();
        let big = s.with_city_centric(20);
        assert_eq!(big.fleet.cdns.len(), s.fleet.cdns.len() + 20);
        assert_eq!(big.background_load.len(), big.fleet.clusters.len());
        let out = big.run(Design::Marketplace, CpPolicy::balanced());
        assert_eq!(out.assignment.choice.len(), big.groups.len());
    }

    #[test]
    fn probed_runs_journal_caller_assigned_round_ids() {
        use vdx_obs::{Event, MemoryProbe};
        let mut s = Scenario::build(ScenarioConfig::small());
        let plain = s.run(Design::Marketplace, CpPolicy::balanced());
        let (probe, rx) = MemoryProbe::channel();
        s.set_probe(Arc::new(probe));
        let probed = s.run_round(RoundId(7), Design::Marketplace, CpPolicy::balanced());
        assert_eq!(plain.assignment.choice, probed.assignment.choice);
        let events: Vec<Event> = rx.try_iter().collect();
        let started: Vec<u64> = events
            .iter()
            .filter_map(|e| match e {
                Event::RoundStarted { round, .. } => Some(*round),
                _ => None,
            })
            .collect();
        // Journaled under exactly the id the caller assigned.
        assert_eq!(started, vec![7]);
        s.run_round(RoundId(2), Design::Brokered, CpPolicy::balanced());
        assert!(rx
            .try_iter()
            .any(|e| matches!(e, Event::RoundStarted { round: 2, .. })));
    }

    #[test]
    fn score_matrix_agrees_with_the_net_model_for_every_round_pair() {
        // Scenario::score_of answers from the precomputed matrix; every
        // (group city, cluster city) pair a decision round can ask for
        // must match the ground-truth network model exactly.
        let s = shared_small();
        for group in &s.groups {
            for cl in &s.fleet.clusters {
                assert_eq!(
                    s.score_of(group.city, cl.city),
                    s.net.score(&s.world, group.city, cl.city),
                    "({:?}, {:?})",
                    group.city,
                    cl.city
                );
            }
        }
    }

    #[test]
    fn scenario_is_deterministic() {
        let a = shared_small();
        let b = Scenario::build(ScenarioConfig::small());
        let out_a = a.run(Design::Marketplace, CpPolicy::balanced());
        let out_b = b.run(Design::Marketplace, CpPolicy::balanced());
        assert_eq!(out_a.assignment.choice, out_b.assignment.choice);
    }
}
