//! The simulation workloads (`sim-cold`, `sim-warm`), the scenario
//! configurations and instance seeds all four workloads share, and the
//! layer replays of scenario set-up and of one decision round.

use std::collections::{HashMap, HashSet};

use vdx_broker::gather::demand_points;
use vdx_broker::{
    gather_groups, optimize, optimize_probed_ctx, synth_background, BrokerProblem, CpPolicy,
    OptimizeContext, OptimizeMode,
};
use vdx_cdn::{
    build_fleet, candidate_clusters_into, negotiate_contract, plan_capacities, ClusterId,
    FleetConfig, Matching, MatchingConfig, DEFAULT_MARKUP,
};
use vdx_core::{assign_background, Design, RoundId, RoundOutcome};
use vdx_geo::{CityId, World};
use vdx_netsim::{NetModel, ScoreMatrix};
use vdx_obs::{MemoryProbe, NoopProbe, Stopwatch};
use vdx_sim::experiment::table3;
use vdx_sim::metrics::{compute, DesignMetrics, MetricsInput};
use vdx_sim::{Scenario, ScenarioConfig};
use vdx_solver::{AssignmentProblem, CandidateOption};
use vdx_units::Kbps;

use crate::run::{Instance, Live};
use crate::spans::{Layers, SpanLog};

/// The seed of the paper's scenario; instance sizes are pinned to it.
pub const PAPER_SEED: u64 = 2017;

/// Which ecosystem a workload runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// `ScenarioConfig::default()`: 400 cities, 33.4 K sessions, 14 CDNs.
    Full,
    /// The small world and trace with a two-CDN fleet, so a daemon workload
    /// needs two agent threads — as many as the reference box has cores.
    TwoCdn,
}

/// The scenario configuration of `scale` at `seed`.
pub fn config(scale: Scale, seed: u64) -> ScenarioConfig {
    let mut config = match scale {
        Scale::Full => ScenarioConfig::default(),
        Scale::TwoCdn => {
            let mut small = ScenarioConfig::small();
            small.fleet = FleetConfig {
                distributed_sites: 30,
                medium: (1, 8..12),
                centralized: (0, 3..5),
                regional: (0, 4..7),
                ..Default::default()
            };
            small
        }
    };
    config.seed = seed;
    config
}

/// The scenario seeds instances are drawn from, per scale.
///
/// The world generator is heavy-tailed: over six hundred seeds the full
/// scenario had anywhere from 900 to 2 900 client groups, and the time of a
/// Table-3 pass follows the size. Runs at different `--seed`s only compare
/// when their instances are the same size, so these are seeds (found once,
/// by scanning) whose size — client groups × clusters, the extent of the
/// matching loop every round runs — is within 2 % of the paper seed's. The
/// daemon workloads follow the bids a round carries (wire bytes, WAL
/// bytes, recovery time: at one size they still ranged over ±15 %), so the
/// two-CDN seeds (from 1..=40 000) are also within 2 % of the paper seed's
/// bid count. `selftest` re-checks both.
const FULL_SEEDS: [u64; 12] = [15, PAPER_SEED, 16, 44, 48, 63, 64, 67, 71, 76, 102, 157];
const TWO_CDN_SEEDS: [u64; 12] = [
    146, PAPER_SEED, 3093, 3797, 6317, 11680, 19190, 19299, 20725, 22010, 32457, 32782,
];

fn seed_list(scale: Scale) -> &'static [u64; 12] {
    match scale {
        Scale::Full => &FULL_SEEDS,
        Scale::TwoCdn => &TWO_CDN_SEEDS,
    }
}

/// The scenario seed of a run's `i`-th instance: the list entry `--seed`
/// points at, then the ones after it. `--seed 2017` opens on the paper's
/// scenario.
pub fn scenario_seed(scale: Scale, seed: u64, i: usize) -> u64 {
    let list = seed_list(scale);
    list[((seed % list.len() as u64) as usize + i) % list.len()]
}

/// Client groups × clusters of the scenario `config` builds. Builds only
/// what fixes the two counts (world, trace, groups, fleet sites).
fn pairs(config: &ScenarioConfig) -> u64 {
    let world = World::generate(&config.world, config.seed);
    let trace = vdx_trace::BrokerTrace::generate(&world, &config.trace, config.seed);
    let groups = gather_groups(trace.sessions());
    let fleet = build_fleet(&world, &config.fleet, config.seed);
    groups.len() as u64 * fleet.clusters.len() as u64
}

/// Checks the seed lists: distinct seeds, the paper's where `--seed 2017`
/// opens, every size (and every two-CDN bid count) within 2 % of the paper
/// seed's.
pub fn check_seed_lists() -> Result<(), String> {
    let bids = |seed: u64| crate::daemon::bids_per_round(&config(Scale::TwoCdn, seed)) as f64;
    let reference_bids = bids(PAPER_SEED);
    for &seed in seed_list(Scale::TwoCdn) {
        let count = bids(seed);
        if (count / reference_bids - 1.0).abs() > 0.02 {
            return Err(format!(
                "TwoCdn: seed {seed} announces {count} bids a round, the paper seed {reference_bids}"
            ));
        }
    }
    for scale in [Scale::Full, Scale::TwoCdn] {
        let list = seed_list(scale);
        if scenario_seed(scale, PAPER_SEED, 0) != PAPER_SEED {
            return Err(format!(
                "{scale:?}: --seed {PAPER_SEED} does not open on it"
            ));
        }
        let reference = pairs(&config(scale, PAPER_SEED)) as f64;
        for (i, &seed) in list.iter().enumerate() {
            if list[..i].contains(&seed) {
                return Err(format!("{scale:?}: seed {seed} is listed twice"));
            }
            let size = pairs(&config(scale, seed)) as f64;
            if (size / reference - 1.0).abs() > 0.02 {
                return Err(format!(
                    "{scale:?}: seed {seed} builds {size} group-cluster pairs, the paper seed {reference}"
                ));
            }
        }
    }
    Ok(())
}

fn ms(us: f64) -> f64 {
    us / 1_000.0
}

/// Replays `Scenario::build` step by step through the public functions it
/// calls, timing each layer, then times the real build for the remainder.
pub fn replay_setup(config: &ScenarioConfig, round: u64, log: &mut SpanLog, layers: &mut Layers) {
    let seed = config.seed;
    let mut step_us = 0.0;
    let mut step = |layers: &mut Layers, name: &'static str, us: f64| {
        layers.push(name, ms(us));
        step_us += us;
    };
    let (world, us) = log.time("geo.world_generate", "setup", round, || {
        World::generate(&config.world, seed)
    });
    step(layers, "geo.world_generate_ms", us);
    let net = NetModel::new(config.net.clone(), seed);
    let (trace, us) = log.time("trace.broker_generate", "setup", round, || {
        vdx_trace::BrokerTrace::generate(&world, &config.trace, seed)
    });
    step(layers, "trace.broker_generate_ms", us);
    let ((groups, background, demand), us) = log.time("broker.gather", "setup", round, || {
        let groups = gather_groups(trace.sessions());
        let background = synth_background(&groups, config.background_multiple, seed);
        let demand = demand_points(&groups, &background);
        (groups, background, demand)
    });
    step(layers, "broker.gather_ms", us);
    let (mut fleet, us) = log.time("cdn.build_fleet", "setup", round, || {
        build_fleet(&world, &config.fleet, seed)
    });
    step(layers, "cdn.build_fleet_ms", us);
    let (scores, us) = log.time("netsim.score_matrix_build", "setup", round, || {
        let sites: Vec<CityId> = fleet.clusters.iter().map(|c| c.city).collect();
        ScoreMatrix::build(&net, &world, &sites)
    });
    step(layers, "netsim.score_matrix_build_ms", us);
    let (_, us) = log.time("cdn.plan_capacities", "setup", round, || {
        plan_capacities(&world, &mut fleet, &demand, |a, b| scores.score_of(a, b))
    });
    step(layers, "cdn.plan_capacities_ms", us);
    let (_, us) = log.time("cdn.negotiate_contracts", "setup", round, || {
        fleet
            .cdns
            .iter()
            .map(|c| negotiate_contract(&fleet, c.id, DEFAULT_MARKUP))
            .collect::<Vec<_>>()
    });
    step(layers, "cdn.negotiate_contracts_ms", us);
    let (_, us) = log.time("core.assign_background", "setup", round, || {
        assign_background(&world, &fleet, &groups, &background, seed, |a, b| {
            scores.score_of(a, b)
        })
    });
    step(layers, "core.assign_background_ms", us);

    let (_, build_us) = log.time("sim.scenario_build", "setup", round, || {
        Scenario::build(config.clone())
    });
    layers.push("sim.scenario_build_ms", ms(build_us));
    layers.push(
        "sim.scenario_build_unattributed_pct",
        100.0 * (build_us - step_us) / build_us,
    );
}

/// The layer-metric suffix of a Table-3 design.
fn design_key(design: Design) -> &'static str {
    match design {
        Design::Brokered => "core.round_ms.brokered",
        Design::Multicluster(2) => "core.round_ms.multicluster2",
        Design::Multicluster(_) => "core.round_ms.multicluster100",
        Design::DynamicPricing => "core.round_ms.dynamic_pricing",
        Design::DynamicMulticluster => "core.round_ms.dynamic_multicluster",
        Design::BestLookup => "core.round_ms.best_lookup",
        Design::Marketplace | Design::Transactions => "core.round_ms.marketplace",
        Design::Omniscient => "core.round_ms.omniscient",
    }
}

/// The bucketized GAP instance `vdx_broker::optimize` builds from a
/// problem, rebuilt through the solver's public constructor (the broker's
/// own builder is private). Buckets are numbered in first-mention order
/// and disagreeing capacities clamp to the minimum, as there.
pub fn build_gap(problem: &BrokerProblem, policy: &CpPolicy) -> AssignmentProblem {
    let mut bucket_of: HashMap<ClusterId, usize> = HashMap::new();
    let mut capacities: Vec<Kbps> = Vec::new();
    for o in problem.options.iter().flatten() {
        match bucket_of.get(&o.cluster) {
            Some(&b) => capacities[b] = capacities[b].min(o.believed_capacity_kbps),
            None => {
                bucket_of.insert(o.cluster, capacities.len());
                capacities.push(o.believed_capacity_kbps);
            }
        }
    }
    let mut gap = AssignmentProblem::new(capacities);
    for (group, opts) in problem.groups.iter().zip(&problem.options) {
        gap.add_client(
            opts.iter()
                .map(|o| CandidateOption {
                    bucket: bucket_of[&o.cluster],
                    value: policy.value(o.score, o.price_per_mb, group.demand_kbps, group.sessions),
                    load: group.demand_kbps,
                })
                .collect(),
        );
    }
    gap
}

/// Replays the matching loop of one Marketplace round — every client
/// group against every CDN — and returns the microseconds it took.
fn replay_matching(
    scenario: &Scenario,
    outcome: &RoundOutcome,
    round: u64,
    log: &mut SpanLog,
    inst: &mut Instance,
) -> f64 {
    let matching = MatchingConfig {
        score_ratio: 2.0,
        max_candidates: Design::Marketplace.max_candidates(),
    };
    let (matched, matching_us) = log.time("cdn.matching", "replay", round, || {
        let mut scratch: Vec<Matching> = Vec::new();
        let mut matched = 0usize;
        for group in &scenario.groups {
            for cdn in &scenario.fleet.cdns {
                candidate_clusters_into(
                    &scenario.fleet,
                    cdn.id,
                    |site| scenario.score_of(group.city, site),
                    &matching,
                    &mut scratch,
                );
                matched += scratch.len();
            }
        }
        matched
    });
    inst.layers.push("cdn.matching_ms", ms(matching_us));
    let options: usize = outcome.problem.options.iter().map(Vec::len).sum();
    inst.layers.push("core.options_total", options as f64);
    if matched != options {
        inst.checks.push(format!(
            "matching replay found {matched} candidates, the round announced {options}"
        ));
    }
    matching_us
}

/// Replays the cold Optimize step of one round on its own problem, then
/// the solver's two phases on a rebuilt GAP. Returns the microseconds the
/// Optimize step took.
fn replay_cold_optimize(
    outcome: &RoundOutcome,
    round: u64,
    log: &mut SpanLog,
    inst: &mut Instance,
) -> f64 {
    let policy = CpPolicy::balanced();
    let (cold, optimize_us) = log.time("broker.optimize_cold", "replay", round, || {
        optimize(&outcome.problem, &policy, &OptimizeMode::Heuristic)
    });
    inst.layers.push("broker.optimize_cold_ms", ms(optimize_us));
    if cold != outcome.assignment {
        inst.checks
            .push("cold optimize replay differs from the round's assignment".into());
    }

    let (gap, us) = log.time("broker.build_gap", "replay", round, || {
        build_gap(&outcome.problem, &policy)
    });
    inst.layers.push("broker.build_gap_ms", ms(us));
    let (greedy, us) = log.time("solver.greedy", "replay", round, || gap.solve_greedy());
    inst.layers.push("solver.greedy_ms", ms(us));
    let (solved, us) = log.time("solver.local_search", "replay", round, || {
        gap.improve_local(greedy, 8)
    });
    inst.layers.push("solver.local_search_ms", ms(us));
    // The rebuilt GAP is the broker's only if it solves to the same value.
    if solved.objective.to_bits() != outcome.assignment.objective.to_bits() {
        inst.checks.push(format!(
            "rebuilt GAP solves to {}, the round to {}",
            solved.objective, outcome.assignment.objective
        ));
    }
    let options = outcome.problem.options.iter().flatten();
    inst.layers
        .push("solver.gap_clients", gap.num_clients() as f64);
    inst.layers
        .push("solver.gap_options", options.clone().count() as f64);
    let buckets: HashSet<ClusterId> = options.map(|o| o.cluster).collect();
    inst.layers.push("solver.gap_buckets", buckets.len() as f64);
    optimize_us
}

/// Checks one set of Table-3 rows: eight designs in the paper's order,
/// finite metrics, and no congestion under Marketplace.
fn check_rows(rows: &[(String, DesignMetrics)], checks: &mut Vec<String>) {
    let names: Vec<String> = Design::TABLE3.iter().map(Design::name).collect();
    if rows.iter().map(|(n, _)| n).ne(names.iter()) {
        checks.push("Table 3 rows are not the eight designs in paper order".into());
    }
    for (name, m) in rows {
        if ![
            m.cost,
            m.score,
            m.distance_miles,
            m.load_pct,
            m.congested_pct,
        ]
        .iter()
        .all(|v| v.is_finite())
        {
            checks.push(format!("{name}: a Table-3 metric is not finite"));
        }
        if name == "Marketplace" && m.congested_pct != 0.0 {
            checks.push(format!(
                "Marketplace congested {}%, expected 0",
                m.congested_pct
            ));
        }
    }
}

/// At the paper seed, the rows must pass the audit gate against the
/// committed baseline.
fn check_against_baseline(rows: &[(String, DesignMetrics)], checks: &mut Vec<String>) {
    let path = std::path::Path::new("results/BENCH_experiments.json");
    let baseline = match vdx_audit::BaselineReport::read(path) {
        Ok(b) => b,
        Err(e) => return checks.push(format!("cannot read the Table-3 baseline: {e}")),
    };
    let current: Vec<vdx_audit::Table3Row> = rows
        .iter()
        .map(|(design, m)| vdx_audit::Table3Row {
            design: design.clone(),
            cost: m.cost,
            score: m.score,
            distance_miles: m.distance_miles,
            load_pct: m.load_pct,
            congested_pct: m.congested_pct,
        })
        .collect();
    let gate =
        vdx_audit::gate::compare(&baseline, &current, &[], &vdx_audit::GateConfig::default());
    for failure in gate.failures() {
        checks.push(format!(
            "Table-3 gate: {} is {} against baseline {}",
            failure.name, failure.current, failure.baseline
        ));
    }
}

/// Every group assigned to one of its options in all eight designs, and
/// the metrics computed from those rounds equal to the timed pass's rows.
fn verify_assignments(
    scenario: &Scenario,
    rows: &[(String, DesignMetrics)],
    checks: &mut Vec<String>,
) {
    for (design, (name, timed)) in Design::TABLE3.iter().zip(rows) {
        let outcome = scenario.run(*design, CpPolicy::balanced());
        let choice = &outcome.assignment.choice;
        let placed = choice.len() == scenario.groups.len()
            && choice
                .iter()
                .zip(&outcome.problem.options)
                .all(|(&c, opts)| c < opts.len());
        if !placed {
            checks.push(format!(
                "{name}: not every group is assigned to one of its options"
            ));
            continue;
        }
        let metrics = compute(&MetricsInput {
            scenario,
            outcome: &outcome,
        });
        if metrics != *timed {
            checks.push(format!("{name}: a separate round gives different metrics"));
        }
    }
}

/// One `sim-cold` instance: a full scenario and the Table-3 passes over it.
pub struct ColdInstance {
    scenario: Scenario,
    /// The first instance of a run also verifies every assignment.
    first: bool,
    trace: bool,
    first_rows: Option<Vec<(String, DesignMetrics)>>,
    passes: u64,
    inst: Instance,
}

impl ColdInstance {
    /// Builds the scenario, timed as the instance's set-up.
    pub fn setup(scenario_seed: u64, first: bool, trace: bool, log: &mut SpanLog) -> ColdInstance {
        let config = config(Scale::Full, scenario_seed);
        let mut inst = Instance::default();
        if trace {
            replay_setup(&config, 0, log, &mut inst.layers);
        }
        let setup = Stopwatch::start();
        let scenario = Scenario::build(config);
        inst.setup_s = setup.elapsed_us() as f64 / 1e6;
        ColdInstance {
            scenario,
            first,
            trace,
            first_rows: None,
            passes: 0,
            inst,
        }
    }
}

impl Live for ColdInstance {
    /// One Table-3 pass.
    fn op(&mut self, log: &mut SpanLog) {
        let pass = self.passes;
        let rows = if self.trace {
            traced_pass(&self.scenario, pass, log, &mut self.inst)
        } else {
            let (result, us) =
                log.time("sim.table3_pass", "", pass, || table3::run(&self.scenario));
            self.inst.op_ms.push(ms(us));
            result.rows
        };
        match &self.first_rows {
            None => {
                check_rows(&rows, &mut self.inst.checks);
                self.first_rows = Some(rows);
            }
            Some(expected) if *expected != rows => {
                self.inst.failed += 1;
                self.inst
                    .checks
                    .push(format!("pass {pass} differs from pass 0"));
            }
            Some(_) => {}
        }
        self.passes += 1;
    }

    fn finish(mut self: Box<Self>, _log: &mut SpanLog) -> Instance {
        let rows = self.first_rows.take().expect("at least one pass ran");
        if self.scenario.config.seed == PAPER_SEED {
            check_against_baseline(&rows, &mut self.inst.checks);
        }
        if self.first {
            verify_assignments(&self.scenario, &rows, &mut self.inst.checks);
        }
        self.inst
    }
}

/// One Table-3 pass run design by design under spans, then the layer
/// replays on its Marketplace round.
fn traced_pass(
    scenario: &Scenario,
    pass: u64,
    log: &mut SpanLog,
    inst: &mut Instance,
) -> Vec<(String, DesignMetrics)> {
    let policy = CpPolicy::balanced();
    let op_start = log.now_us();
    let mut rows = Vec::with_capacity(Design::TABLE3.len());
    let mut compute_us = 0.0;
    let mut marketplace: Option<(RoundOutcome, f64)> = None;
    for (i, &design) in Design::TABLE3.iter().enumerate() {
        let (outcome, round_us) = log.time(design_key(design), "op", pass, || {
            scenario.run_round(RoundId(i as u64), design, policy)
        });
        inst.layers.push(design_key(design), ms(round_us));
        let (metrics, us) = log.time("sim.metrics_compute", "op", pass, || {
            compute(&MetricsInput {
                scenario,
                outcome: &outcome,
            })
        });
        compute_us += us;
        rows.push((design.name(), metrics));
        if design == Design::Marketplace {
            marketplace = Some((outcome, round_us));
        }
    }
    let op_end = log.now_us();
    log.record("sim.table3_pass", "", pass, op_start, op_end);
    inst.op_ms.push(ms((op_end - op_start) as f64));
    inst.layers.push("sim.metrics_compute_ms", ms(compute_us));

    let (outcome, round_us) = marketplace.expect("Table 3 includes Marketplace");
    let matching_us = replay_matching(scenario, &outcome, pass, log, inst);
    let optimize_us = replay_cold_optimize(&outcome, pass, log, inst);
    inst.layers.push(
        "sim.round_unattributed_pct.marketplace",
        100.0 * (round_us - matching_us - optimize_us) / round_us,
    );

    // The same round with every journal event kept in memory.
    let probe = MemoryProbe::new();
    let (_, probed_us) = log.time("obs.journaled_round", "replay", pass, || {
        scenario.run_round_probed(RoundId(0), Design::Marketplace, policy, None, &probe)
    });
    inst.layers.push(
        "obs.journal_overhead_pct",
        100.0 * (probed_us - round_us) / round_us,
    );
    rows
}

/// One `sim-warm` instance: a full scenario, a context warmed by round 0,
/// and the Marketplace rounds run through it.
pub struct WarmInstance {
    scenario: Scenario,
    trace: bool,
    ctx: OptimizeContext,
    /// A second context on the same problem: it times the warm Optimize
    /// step alone (its first call solved, every later one is a hit).
    replay_ctx: OptimizeContext,
    round0: RoundOutcome,
    last: Option<RoundOutcome>,
    rounds: u64,
    inst: Instance,
}

impl WarmInstance {
    /// Builds the scenario and runs round 0 cold, timed as the set-up.
    pub fn setup(scenario_seed: u64, trace: bool, log: &mut SpanLog) -> WarmInstance {
        let config = config(Scale::Full, scenario_seed);
        let mut inst = Instance::default();
        if trace {
            replay_setup(&config, 0, log, &mut inst.layers);
        }
        let policy = CpPolicy::balanced();
        let mut ctx = OptimizeContext::new();
        let setup = Stopwatch::start();
        let scenario = Scenario::build(config);
        let round0 = scenario.run_round_probed_ctx(
            RoundId(0),
            Design::Marketplace,
            policy,
            None,
            &NoopProbe,
            &mut ctx,
        );
        inst.setup_s = setup.elapsed_us() as f64 / 1e6;
        let mut replay_ctx = OptimizeContext::new();
        if trace {
            optimize_probed_ctx(
                &round0.problem,
                &policy,
                &OptimizeMode::Heuristic,
                0,
                &NoopProbe,
                &mut replay_ctx,
            );
        }
        WarmInstance {
            scenario,
            trace,
            ctx,
            replay_ctx,
            round0,
            last: None,
            rounds: 1,
            inst,
        }
    }
}

impl Live for WarmInstance {
    /// One warm Marketplace round.
    fn op(&mut self, log: &mut SpanLog) {
        let round = self.rounds;
        let policy = CpPolicy::balanced();
        let (outcome, round_us) = log.time("core.round_ms.marketplace", "", round, || {
            self.scenario.run_round_probed_ctx(
                RoundId(round),
                Design::Marketplace,
                policy,
                None,
                &NoopProbe,
                &mut self.ctx,
            )
        });
        self.inst.op_ms.push(ms(round_us));
        if outcome.assignment != self.round0.assignment {
            self.inst.failed += 1;
            self.inst
                .checks
                .push(format!("warm round {round} differs from round 0"));
        }
        if self.trace {
            self.inst
                .layers
                .push("core.round_ms.marketplace", ms(round_us));
            let (_, warm_us) = log.time("broker.optimize_warm", "replay", round, || {
                optimize_probed_ctx(
                    &outcome.problem,
                    &policy,
                    &OptimizeMode::Heuristic,
                    round,
                    &NoopProbe,
                    &mut self.replay_ctx,
                )
            });
            self.inst.layers.push("broker.optimize_warm_us", warm_us);
            let (_, clone_us) = log.time("broker.groups_clone", "replay", round, || {
                self.scenario.groups.to_vec()
            });
            self.inst.layers.push("broker.groups_clone_us", clone_us);
            let matching_us = replay_matching(&self.scenario, &outcome, round, log, &mut self.inst);
            self.inst.layers.push(
                "sim.round_unattributed_pct.marketplace",
                100.0 * (round_us - matching_us - warm_us) / round_us,
            );
        }
        self.last = Some(outcome);
        self.rounds += 1;
    }

    fn finish(mut self: Box<Self>, _log: &mut SpanLog) -> Instance {
        let stats = self.ctx.stats();
        if stats.warm_hits != self.rounds - 1 || stats.cold_solves != 1 {
            self.inst.checks.push(format!(
                "{} rounds gave {} warm hits and {} cold solves",
                self.rounds, stats.warm_hits, stats.cold_solves
            ));
        }
        if self.trace {
            self.inst
                .layers
                .push("broker.warm_hits", stats.warm_hits as f64);
            self.inst
                .layers
                .push("broker.cold_solves", stats.cold_solves as f64);
        }
        // The last warm outcome must be bit-equal to a cold round.
        let last = self.last.take().expect("at least one warm round ran");
        let cold = self.scenario.run_round(
            RoundId(self.rounds),
            Design::Marketplace,
            CpPolicy::balanced(),
        );
        if cold.assignment.choice != last.assignment.choice
            || cold.assignment.objective.to_bits() != last.assignment.objective.to_bits()
        {
            self.inst
                .checks
                .push("the last warm round differs from a cold round".into());
        }
        self.inst
    }
}
