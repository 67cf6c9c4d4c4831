//! The Optimize step: the paper's Fig 9 ILP.
//!
//! ```text
//! max  wp·Σ Performance(m)·U[r,m]  −  wc·Σ Cost(m)·Bitrate(r)·U[r,m]
//! s.t. Σ_m U[r,m] = 1            for every client group r
//!      Σ Bitrate(r)·U[r,m] ≤ Capacity(l)   for every cluster l
//!      U ∈ {0,1}
//! ```
//!
//! Capacities here are what the CDNs *announced* (the designs differ in how
//! truthful that is); real-capacity congestion is a downstream metric. The
//! broker must place every group, so when the believed capacities simply
//! cannot host the demand the heuristic overloads minimally rather than
//! failing — brokers cannot drop clients on the floor.

use crate::gather::ClientGroup;
use crate::policy::CpPolicy;
use std::collections::{BTreeMap, HashMap};
use vdx_cdn::{CdnId, ClusterId};
use vdx_netsim::Score;
use vdx_obs::{Event, Probe};
use vdx_solver::{AssignmentProblem, CandidateOption, ProblemDelta, SolveStats};
use vdx_units::{Kbps, UsdPerGb};

/// One candidate (from one CDN's Announce) for one client group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupOption {
    /// The bidding CDN.
    pub cdn: CdnId,
    /// The candidate cluster.
    pub cluster: ClusterId,
    /// Announced performance score (lower is better).
    pub score: Score,
    /// Announced unit price (contract price in flat-rate designs, bid
    /// price in dynamic ones).
    pub price_per_mb: UsdPerGb,
    /// The capacity the broker believes this cluster has.
    pub believed_capacity_kbps: Kbps,
}

/// The broker's optimization input for one Decision Protocol round.
///
/// `PartialEq` compares groups and options exactly (bitwise on the
/// underlying floats): the warm-start layer ([`OptimizeContext`]) uses it
/// to recognize rounds whose input did not change at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BrokerProblem {
    /// The client groups.
    pub groups: Vec<ClientGroup>,
    /// Candidate options per group (same order as `groups`); every group
    /// needs at least one option.
    pub options: Vec<Vec<GroupOption>>,
}

/// How to solve the assignment. One value: the type and the `mode`
/// parameter of the three entry points exist because the frozen benchmark
/// harness spells both (ROADMAP 2(vii) drops them with harness v2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OptimizeMode {
    /// Regret-greedy + local search.
    Heuristic,
}

/// The broker's decision for a round.
#[derive(Debug, Clone, PartialEq)]
pub struct BrokerAssignment {
    /// For each group, the chosen index into its option list.
    pub choice: Vec<usize>,
    /// Objective value achieved (Fig 9 units).
    pub objective: f64,
    /// Load placed on each distinct cluster, in cluster-id order: the
    /// journal's `cluster_congested` lines come from iterating this map.
    pub cluster_load_kbps: BTreeMap<ClusterId, Kbps>,
}

impl BrokerAssignment {
    /// The option chosen for a group.
    pub fn chosen<'p>(&self, problem: &'p BrokerProblem, group: usize) -> &'p GroupOption {
        &problem.options[group][self.choice[group]]
    }
}

/// Solves the Fig 9 problem.
///
/// # Panics
/// Panics if a group has no options, or `options` is misaligned with
/// `groups`.
pub fn optimize(
    problem: &BrokerProblem,
    policy: &CpPolicy,
    mode: &OptimizeMode,
) -> BrokerAssignment {
    optimize_probed(problem, policy, mode, 0, &vdx_obs::NoopProbe)
}

/// [`optimize`] with solver effort reported through `probe` as an
/// [`Event::SolverStats`] tagged with `round`. The decision itself is
/// identical — with a [`vdx_obs::NoopProbe`] the only extra work is
/// filling a counters struct the solver carries anyway.
///
/// # Panics
/// Panics if a group has no options, or `options` is misaligned with
/// `groups`.
pub fn optimize_probed(
    problem: &BrokerProblem,
    policy: &CpPolicy,
    mode: &OptimizeMode,
    round: u64,
    probe: &dyn Probe,
) -> BrokerAssignment {
    // Instrumented runs also time the Optimize step into the process-wide
    // histogram; unprobed callers skip the registry entirely.
    let _optimize_timer = probe
        .enabled()
        .then(|| vdx_obs::ScopedTimer::global("broker.optimize"));
    assert_eq!(
        problem.groups.len(),
        problem.options.len(),
        "options misaligned"
    );

    let gap = build_gap(problem, policy);
    let assignment = solve_gap(&gap, mode);

    emit_solver_stats(probe, round, assignment.objective);
    into_broker_assignment(problem, assignment)
}

/// Warm-start state one broker carries across its rounds: a memo of the
/// previous round, the reuse switch and the warm/cold counters.
///
/// When `(problem, policy)` compare equal to the previous round's pair,
/// the cached [`BrokerAssignment`] is replayed and the whole Optimize
/// step (cluster bucketization, policy valuation, solve) is skipped.
/// Exact by construction: the pipeline is a deterministic pure function
/// of that pair, so every answer — cached or not — is bit-identical to
/// what the context-free [`optimize_probed`] returns. Otherwise the GAP
/// is rebuilt, solved, and diffed against the previous round's
/// ([`ProblemDelta`]) for the journaled `SolverResolve` line.
///
/// One context serves one sequential round stream (a shard); concurrent
/// streams get one each.
#[derive(Debug, Clone)]
pub struct OptimizeContext {
    /// When false every round re-solves, but the memo is still kept so the
    /// journaled deltas match a reuse-enabled context's.
    reuse: bool,
    stats: SolveStats,
    prev: Option<PreviousRound>,
}

/// Everything the next round needs from this one: the input pair to
/// recognize a repeat, the GAP to diff against, and the decision, whose
/// objective is all its `SolverStats` journal line carried.
#[derive(Debug, Clone)]
struct PreviousRound {
    problem: BrokerProblem,
    policy: CpPolicy,
    gap: AssignmentProblem,
    assignment: BrokerAssignment,
}

impl Default for OptimizeContext {
    fn default() -> OptimizeContext {
        OptimizeContext::new()
    }
}

impl OptimizeContext {
    /// A fresh context with reuse enabled.
    pub fn new() -> OptimizeContext {
        OptimizeContext {
            reuse: true,
            stats: SolveStats::new(),
            prev: None,
        }
    }

    /// Enables or disables reuse. A disabled context re-solves every
    /// round from scratch while still detecting and reporting deltas —
    /// the `--solver-cold` reference path, which must journal
    /// byte-identically to an enabled one.
    pub fn set_reuse(&mut self, reuse: bool) {
        self.reuse = reuse;
    }

    /// Cumulative warm/cold counters since the context was created.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }
}

/// [`optimize_probed`] with warm-start state carried across rounds.
///
/// Emits one mode-independent [`Event::SolverResolve`] describing how this
/// round's problem differs from the previous round's, then the usual
/// [`Event::SolverStats`]. Both lines are a pure function of the round
/// sequence: a reuse-disabled context (or the context-free entry points)
/// journals byte-identical lines and returns bit-identical assignments —
/// the warm path only skips *recomputing* answers determinism pins down.
///
/// # Panics
/// Panics if a group has no options, or `options` is misaligned with
/// `groups`.
pub fn optimize_probed_ctx(
    problem: &BrokerProblem,
    policy: &CpPolicy,
    mode: &OptimizeMode,
    round: u64,
    probe: &dyn Probe,
    ctx: &mut OptimizeContext,
) -> BrokerAssignment {
    let _optimize_timer = probe
        .enabled()
        .then(|| vdx_obs::ScopedTimer::global("broker.optimize"));
    assert_eq!(
        problem.groups.len(),
        problem.options.len(),
        "options misaligned"
    );

    // Warm hit: the input pair is unchanged, so rebuilding the GAP and
    // re-solving would reproduce the cached decision bit for bit — and the
    // GAP build is deterministic in the pair, hence the empty delta.
    let repeat = ctx
        .prev
        .as_ref()
        .filter(|p| ctx.reuse && p.problem == *problem && p.policy == *policy);
    if let Some(prev) = repeat {
        ctx.stats.warm_hits += 1;
        emit_solver_resolve(probe, round, ProblemDelta::default());
        emit_solver_stats(probe, round, prev.assignment.objective);
        return prev.assignment.clone();
    }

    let gap = build_gap(problem, policy);
    let delta = match &ctx.prev {
        Some(prev) => ProblemDelta::between(&prev.gap, &gap),
        None => ProblemDelta::everything(&gap),
    };
    emit_solver_resolve(probe, round, delta);

    let assignment = solve_gap(&gap, mode);
    ctx.stats.cold_solves += 1;
    emit_solver_stats(probe, round, assignment.objective);

    let assignment = into_broker_assignment(problem, assignment);
    ctx.prev = Some(PreviousRound {
        problem: problem.clone(),
        policy: *policy,
        gap,
        assignment: assignment.clone(),
    });
    assignment
}

/// How a decision stands against the problem it answered — what `repro
/// gap` prints per design.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundReport {
    /// An upper bound on the objective of *any* assignment that respects
    /// every believed capacity ([`AssignmentProblem::dual_bound`]).
    /// `None` when the decision itself overloads a cluster: a bound on
    /// feasible assignments says nothing about one that is not.
    pub bound: Option<f64>,
    /// Clusters the decision loads above 90 % of their believed capacity.
    pub clusters_above_90: usize,
    /// Clusters the decision loads above their believed capacity.
    pub clusters_overloaded: usize,
}

/// Scores `assignment` against the dual bound of the GAP [`optimize`]
/// built for `(problem, policy)`. The heuristic's oracle: no round calls
/// it, and it costs hundreds of passes over the options.
pub fn bound_assignment(
    problem: &BrokerProblem,
    policy: &CpPolicy,
    assignment: &BrokerAssignment,
) -> BoundReport {
    let gap = build_gap(problem, policy);
    let loads = gap.bucket_loads(&assignment.choice);
    let above = |share: f64| {
        let pairs = loads.iter().zip(&gap.capacities);
        pairs
            .filter(|(l, c)| l.as_f64() > share * c.as_f64() + 1e-6)
            .count()
    };
    let clusters_overloaded = above(1.0);
    BoundReport {
        bound: (clusters_overloaded == 0).then(|| gap.dual_bound(assignment.objective)),
        clusters_above_90: above(0.9),
        clusters_overloaded,
    }
}

/// Journals how this round's GAP differs from the previous round's.
fn emit_solver_resolve(probe: &dyn Probe, round: u64, delta: ProblemDelta) {
    if probe.enabled() {
        probe.emit(Event::SolverResolve {
            round,
            changed_clients: delta.changed_clients,
            changed_buckets: delta.changed_buckets,
            warm_eligible: delta.is_empty(),
        });
    }
}

/// Journals one solve — freshly computed or replayed from the memo, the
/// line is the same. `pivots`, `bnb_nodes` and `optimality_gap` are the
/// line's shape since schema 1 and what every product journal has always
/// carried in them: the heuristic has no such effort to report.
fn emit_solver_stats(probe: &dyn Probe, round: u64, objective: f64) {
    if probe.enabled() {
        probe.emit(Event::SolverStats {
            round,
            mode: "heuristic".to_string(),
            pivots: 0,
            bnb_nodes: 0,
            optimality_gap: None,
            objective,
        });
    }
}

/// Maps a [`BrokerProblem`] onto the solver's bucketized GAP form.
///
/// Distinct clusters become capacity buckets. The believed capacity of a
/// cluster must be consistent across options; the first mention wins and
/// disagreements are clamped to the minimum announced (conservative).
/// Deterministic in `(problem, policy)`: buckets are numbered in first
/// mention order over the option lists.
fn build_gap(problem: &BrokerProblem, policy: &CpPolicy) -> AssignmentProblem {
    // One pass: an option's bucket goes straight into its candidate, and a
    // bucket's capacity is final once the last option has been seen. (A
    // map, not a table indexed by cluster id: in the daemon the ids are
    // whatever a peer announced.) A round copies a city's option list to
    // each of its groups, and a list naming its predecessor's clusters in
    // its predecessor's order maps to its predecessor's buckets — every
    // one of them is in the map already — so it takes them without a
    // probe. Capacities need not match: every option is clamped either way.
    let mut bucket_of: HashMap<ClusterId, usize> = HashMap::new();
    let mut gap = AssignmentProblem::default();
    let mut buckets: Vec<usize> = Vec::new();
    for (g, opts) in problem.options.iter().enumerate() {
        assert!(!opts.is_empty(), "group {g} has no options");
        let capacities = &mut gap.capacities;
        let repeat = g > 0 && same_clusters(&problem.options[g - 1], opts);
        if !repeat {
            buckets.clear();
            buckets.extend(opts.iter().map(|o| {
                *bucket_of.entry(o.cluster).or_insert_with(|| {
                    capacities.push(o.believed_capacity_kbps);
                    capacities.len() - 1
                })
            }));
        }
        let demand = problem.groups[g].demand_kbps;
        let sessions = problem.groups[g].sessions;
        let candidates = opts.iter().zip(&buckets).map(|(o, &bucket)| {
            capacities[bucket] = capacities[bucket].min(o.believed_capacity_kbps);
            CandidateOption {
                bucket,
                value: policy.value(o.score, o.price_per_mb, demand, sessions),
                load: demand,
            }
        });
        let candidates = candidates.collect();
        gap.add_client(candidates);
    }
    gap
}

/// Whether two option lists name the same clusters in the same order.
fn same_clusters(a: &[GroupOption], b: &[GroupOption]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.cluster == y.cluster)
}

/// Runs the solve path over a built GAP instance.
fn solve_gap(gap: &AssignmentProblem, mode: &OptimizeMode) -> vdx_solver::Assignment {
    match mode {
        OptimizeMode::Heuristic => gap.solve_heuristic(),
    }
}

/// Converts a solver assignment back into broker terms (per-cluster load
/// accounting) and checks demand conservation.
fn into_broker_assignment(
    problem: &BrokerProblem,
    assignment: vdx_solver::Assignment,
) -> BrokerAssignment {
    let mut cluster_load_kbps: BTreeMap<ClusterId, Kbps> = BTreeMap::new();
    for (g, &c) in assignment.choice.iter().enumerate() {
        let o = &problem.options[g][c];
        *cluster_load_kbps.entry(o.cluster).or_insert(Kbps::ZERO) += problem.groups[g].demand_kbps;
    }
    // Conservation: the broker must place every group; demand gathered in
    // equals load assigned out, or the accounting above lost a group.
    #[cfg(debug_assertions)]
    {
        let demand_in: f64 = problem.groups.iter().map(|g| g.demand_kbps.as_f64()).sum();
        let assigned_out: f64 = cluster_load_kbps.values().map(|l| l.as_f64()).sum();
        debug_assert!(
            (demand_in - assigned_out).abs() <= 1e-6 * demand_in.abs().max(1.0),
            "assignment lost demand: in {demand_in}, out {assigned_out}"
        );
    }

    BrokerAssignment {
        choice: assignment.choice,
        objective: assignment.objective,
        cluster_load_kbps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gather::GroupId;
    use vdx_geo::CityId;
    use vdx_rand::prop::{check, vec_of};

    fn group(i: u32, demand: f64) -> ClientGroup {
        ClientGroup {
            id: GroupId(i),
            city: CityId(i),
            bitrate_kbps: demand as u32,
            demand_kbps: Kbps::new(demand),
            sessions: 1,
        }
    }

    fn opt(cluster: u32, score: f64, price: f64, cap: f64) -> GroupOption {
        GroupOption {
            cdn: CdnId(0),
            cluster: ClusterId(cluster),
            score: Score(score),
            price_per_mb: UsdPerGb::per_megabit(price),
            believed_capacity_kbps: Kbps::new(cap),
        }
    }

    #[test]
    fn picks_best_value_option() {
        let problem = BrokerProblem {
            groups: vec![group(0, 1_000.0)],
            options: vec![vec![opt(0, 100.0, 1.0, 1e9), opt(1, 40.0, 1.0, 1e9)]],
        };
        let a = optimize(&problem, &CpPolicy::balanced(), &OptimizeMode::Heuristic);
        assert_eq!(a.choice, vec![1]);
        assert_eq!(a.cluster_load_kbps[&ClusterId(1)], Kbps::new(1_000.0));
    }

    #[test]
    fn capacity_forces_spreading() {
        // Two groups both prefer cluster 0 but it only fits one.
        let problem = BrokerProblem {
            groups: vec![group(0, 1_000.0), group(1, 1_000.0)],
            options: vec![
                vec![opt(0, 40.0, 1.0, 1_000.0), opt(1, 60.0, 1.0, 10_000.0)],
                vec![opt(0, 40.0, 1.0, 1_000.0), opt(1, 60.0, 1.0, 10_000.0)],
            ],
        };
        let a = optimize(&problem, &CpPolicy::balanced(), &OptimizeMode::Heuristic);
        let load0 = a
            .cluster_load_kbps
            .get(&ClusterId(0))
            .copied()
            .unwrap_or(Kbps::ZERO)
            .as_f64();
        assert!(load0 <= 1_000.0 + 1e-9, "cluster 0 overloaded: {load0}");
        let total: f64 = a.cluster_load_kbps.values().map(|l| l.as_f64()).sum();
        assert!((total - 2_000.0).abs() < 1e-9, "everyone placed");
    }

    /// The best objective over every choice vector that respects the
    /// believed capacities, by enumeration over the built GAP.
    fn brute_force_optimum(gap: &AssignmentProblem) -> Option<f64> {
        let mut choice = vec![0usize; gap.num_clients()];
        let mut best: Option<f64> = None;
        loop {
            if gap.respects_capacities(&choice, Kbps::new(1e-9)) {
                let value = gap.value_of(&choice);
                best = Some(best.map_or(value, |b| b.max(value)));
            }
            // Odometer over the option lists.
            let Some(c) = (0..choice.len()).find(|&c| choice[c] + 1 < gap.options[c].len()) else {
                return best;
            };
            choice[c] += 1;
            choice[..c].fill(0);
        }
    }

    #[test]
    fn exact_matches_heuristic_on_small_instances() {
        let problem = BrokerProblem {
            groups: vec![group(0, 500.0), group(1, 800.0), group(2, 300.0)],
            options: vec![
                vec![opt(0, 50.0, 2.0, 1_000.0), opt(1, 70.0, 0.5, 2_000.0)],
                vec![opt(0, 45.0, 2.0, 1_000.0), opt(2, 90.0, 0.2, 2_000.0)],
                vec![opt(1, 60.0, 0.5, 2_000.0), opt(2, 80.0, 0.2, 2_000.0)],
            ],
        };
        let h = optimize(&problem, &CpPolicy::balanced(), &OptimizeMode::Heuristic);
        let optimum = brute_force_optimum(&build_gap(&problem, &CpPolicy::balanced()))
            .expect("cluster 1 alone holds everyone");
        // On this instance the heuristic finds the optimum.
        assert!(
            (h.objective - optimum).abs() < 1e-6,
            "{} vs {optimum}",
            h.objective
        );
    }

    #[test]
    fn bound_assignment_counts_full_clusters_and_bounds_only_feasible_decisions() {
        // Both groups prefer cluster 0, which holds one of them; the other
        // goes to cluster 1 and fills it to 95 %.
        let problem = BrokerProblem {
            groups: vec![group(0, 1_000.0), group(1, 950.0)],
            options: vec![
                vec![opt(0, 40.0, 1.0, 1_000.0), opt(1, 60.0, 1.0, 1_000.0)],
                vec![opt(0, 40.0, 1.0, 1_000.0), opt(1, 60.0, 1.0, 1_000.0)],
            ],
        };
        let policy = CpPolicy::balanced();
        let a = optimize(&problem, &policy, &OptimizeMode::Heuristic);
        let report = bound_assignment(&problem, &policy, &a);
        assert_eq!(
            (report.clusters_above_90, report.clusters_overloaded),
            (2, 0)
        );
        let bound = report.bound.expect("nothing overloaded");
        let optimum = brute_force_optimum(&build_gap(&problem, &policy)).expect("feasible");
        assert!(a.objective <= optimum + 1e-9 && optimum <= bound + 1e-9);
        // Forcing both onto cluster 0 overloads it: counted, not bounded.
        let both = into_broker_assignment(
            &problem,
            vdx_solver::Assignment {
                choice: vec![0, 0],
                objective: 0.0,
            },
        );
        let report = bound_assignment(&problem, &policy, &both);
        assert_eq!(
            (report.clusters_above_90, report.clusters_overloaded),
            (1, 1)
        );
        assert_eq!(report.bound, None);
    }

    /// The build before the repeated-list path: one map probe per option.
    fn build_gap_probing_every_option(
        problem: &BrokerProblem,
        policy: &CpPolicy,
    ) -> AssignmentProblem {
        let mut bucket_of: HashMap<ClusterId, usize> = HashMap::new();
        let mut gap = AssignmentProblem::default();
        for (g, opts) in problem.options.iter().enumerate() {
            let demand = problem.groups[g].demand_kbps;
            let sessions = problem.groups[g].sessions;
            let capacities = &mut gap.capacities;
            let candidates = opts.iter().map(|o| {
                let bucket = *bucket_of.entry(o.cluster).or_insert_with(|| {
                    capacities.push(o.believed_capacity_kbps);
                    capacities.len() - 1
                });
                capacities[bucket] = capacities[bucket].min(o.believed_capacity_kbps);
                CandidateOption {
                    bucket,
                    value: policy.value(o.score, o.price_per_mb, demand, sessions),
                    load: demand,
                }
            });
            let candidates = candidates.collect();
            gap.add_client(candidates);
        }
        gap
    }

    /// A GAP as bits — capacities, then each client's option count and
    /// options: `AssignmentProblem`'s `==` is IEEE, under which a NaN
    /// capacity never equals itself and −0.0 equals +0.0.
    fn gap_bits(gap: &AssignmentProblem) -> Vec<u64> {
        let mut bits: Vec<u64> = gap
            .capacities
            .iter()
            .map(|c| c.as_f64().to_bits())
            .collect();
        for opts in &gap.options {
            bits.push(opts.len() as u64);
            for o in opts {
                bits.extend([
                    o.bucket as u64,
                    o.value.to_bits(),
                    o.load.as_f64().to_bits(),
                ]);
            }
        }
        bits
    }

    /// A NaN capacity, as a peer's bid can carry one into a release build
    /// (`Kbps::new` refuses it under debug assertions): ∞ and −∞ averaged.
    fn nan_kbps() -> Kbps {
        let inf = Kbps::new(f64::MAX).midpoint(Kbps::new(f64::MAX));
        let neg_inf = Kbps::new(-f64::MAX).midpoint(Kbps::new(-f64::MAX));
        inf.midpoint(neg_inf)
    }

    /// Taking the predecessor's buckets for a repeated cluster list builds
    /// the GAP that probing every option builds, bit for bit: on runs of
    /// identical lists, on copies with new scores (values are per client),
    /// on copies with one capacity lowered (the clamp must still apply) or
    /// with its zero's sign flipped, with NaN and ±0.0 capacities and with
    /// cluster ids up to `u32::MAX`.
    #[test]
    fn repeated_lists_take_their_predecessors_buckets_and_build_the_same_gap() {
        const CLUSTERS: [u32; 6] = [0, 1, 7, u32::MAX - 2, u32::MAX - 1, u32::MAX];
        let capacity = |rng: &mut vdx_rand::StdRng| match rng.gen_range(0..6) {
            0 => nan_kbps(),
            1 => Kbps::new(0.0),
            2 => Kbps::new(-0.0),
            _ => Kbps::new([500.0, 1_000.0, 2_000.0][rng.gen_range(0..3)]),
        };
        let fresh = |rng: &mut vdx_rand::StdRng| -> Vec<GroupOption> {
            vec_of(rng, 1..5, |r| {
                let mut o = opt(0, r.gen_range(10.0..90.0), r.gen_range(0.1..3.0), 1.0);
                o.cluster = ClusterId(CLUSTERS[r.gen_range(0..CLUSTERS.len())]);
                o.believed_capacity_kbps = capacity(r);
                o
            })
        };
        check(
            512,
            |rng| {
                let mut options: Vec<Vec<GroupOption>> = vec![fresh(rng)];
                for _ in 1..rng.gen_range(1usize..12) {
                    let mut next = options.last().expect("one list").clone();
                    let i = rng.gen_range(0..next.len());
                    let cap = next[i].believed_capacity_kbps;
                    match rng.gen_range(0..6) {
                        0 | 1 => {}
                        2 => {
                            for o in &mut next {
                                o.score = Score(rng.gen_range(10.0..90.0));
                            }
                        }
                        3 => next[i].believed_capacity_kbps = cap.min(Kbps::new(100.0)),
                        // +0.0 for −0.0 and back: equal as numbers, not as bits.
                        4 if cap.as_f64() == 0.0 => {
                            next[i].believed_capacity_kbps = Kbps::new(-cap.as_f64());
                        }
                        4 => {}
                        _ => next = fresh(rng),
                    }
                    options.push(next);
                }
                let demands: Vec<f64> =
                    options.iter().map(|_| rng.gen_range(10.0..900.0)).collect();
                (options, demands)
            },
            |(options, demands)| {
                let problem = BrokerProblem {
                    groups: (demands.iter().enumerate())
                        .map(|(i, &d)| group(i as u32, d))
                        .collect(),
                    options: options.clone(),
                };
                let policy = CpPolicy::balanced();
                assert_eq!(
                    gap_bits(&build_gap(&problem, &policy)),
                    gap_bits(&build_gap_probing_every_option(&problem, &policy))
                );
            },
        );
    }

    #[test]
    fn conflicting_capacity_beliefs_are_clamped_to_min() {
        let problem = BrokerProblem {
            groups: vec![group(0, 900.0), group(1, 900.0)],
            options: vec![
                vec![opt(0, 40.0, 1.0, 2_000.0), opt(1, 100.0, 1.0, 1e9)],
                // Same cluster announced with less capacity here.
                vec![opt(0, 40.0, 1.0, 1_000.0), opt(1, 100.0, 1.0, 1e9)],
            ],
        };
        let a = optimize(&problem, &CpPolicy::balanced(), &OptimizeMode::Heuristic);
        let load0 = a
            .cluster_load_kbps
            .get(&ClusterId(0))
            .copied()
            .unwrap_or(Kbps::ZERO)
            .as_f64();
        assert!(
            load0 <= 1_000.0 + 1e-9,
            "min capacity belief enforced, got {load0}"
        );
    }

    #[test]
    #[should_panic(expected = "no options")]
    fn empty_option_list_panics() {
        let problem = BrokerProblem {
            groups: vec![group(0, 1.0)],
            options: vec![vec![]],
        };
        optimize(&problem, &CpPolicy::balanced(), &OptimizeMode::Heuristic);
    }

    #[test]
    fn chosen_accessor_returns_selected_option() {
        let problem = BrokerProblem {
            groups: vec![group(0, 100.0)],
            options: vec![vec![opt(3, 10.0, 1.0, 1e9)]],
        };
        let a = optimize(&problem, &CpPolicy::balanced(), &OptimizeMode::Heuristic);
        assert_eq!(a.chosen(&problem, 0).cluster, ClusterId(3));
    }

    #[test]
    fn probed_optimize_emits_solver_stats_without_changing_the_answer() {
        use vdx_obs::{Event, MemoryProbe};
        let problem = BrokerProblem {
            groups: vec![group(0, 500.0), group(1, 800.0)],
            options: vec![
                vec![opt(0, 50.0, 2.0, 1_000.0), opt(1, 70.0, 0.5, 2_000.0)],
                vec![opt(0, 45.0, 2.0, 1_000.0), opt(1, 90.0, 0.2, 2_000.0)],
            ],
        };
        let mode = OptimizeMode::Heuristic;
        let plain = optimize(&problem, &CpPolicy::balanced(), &mode);
        let probe = MemoryProbe::new();
        let probed = optimize_probed(&problem, &CpPolicy::balanced(), &mode, 7, &probe);
        assert_eq!(plain.choice, probed.choice);
        let events = probe.take();
        assert_eq!(events.len(), 1);
        match &events[0] {
            Event::SolverStats {
                round,
                mode,
                pivots,
                bnb_nodes,
                optimality_gap,
                objective,
            } => {
                assert_eq!(*round, 7);
                assert_eq!(mode, "heuristic");
                // The line's shape outlives the exact stack.
                assert_eq!((*pivots, *bnb_nodes, *optimality_gap), (0, 0, None));
                assert!((objective - probed.objective).abs() < 1e-9);
            }
            other => panic!("expected SolverStats, got {other:?}"),
        }
    }

    /// Replays `rounds` through a context and returns the per-round
    /// `(assignment, journaled events)` pairs.
    fn drive_ctx(
        ctx: &mut OptimizeContext,
        rounds: &[(BrokerProblem, OptimizeMode)],
    ) -> Vec<(BrokerAssignment, Vec<vdx_obs::Event>)> {
        use vdx_obs::MemoryProbe;
        rounds
            .iter()
            .enumerate()
            .map(|(r, (problem, mode))| {
                let probe = MemoryProbe::new();
                let a = optimize_probed_ctx(
                    problem,
                    &CpPolicy::balanced(),
                    mode,
                    r as u64,
                    &probe,
                    ctx,
                );
                (a, probe.take())
            })
            .collect()
    }

    fn two_group_problem(shift: f64) -> BrokerProblem {
        BrokerProblem {
            groups: vec![group(0, 500.0), group(1, 800.0)],
            options: vec![
                vec![
                    opt(0, 50.0 + shift, 2.0, 1_000.0),
                    opt(1, 70.0, 0.5, 2_000.0),
                ],
                vec![opt(0, 45.0, 2.0, 1_000.0), opt(1, 90.0, 0.2, 2_000.0)],
            ],
        }
    }

    #[test]
    fn ctx_path_emits_resolve_then_stats_and_matches_the_plain_path() {
        let rounds = vec![
            (two_group_problem(0.0), OptimizeMode::Heuristic),
            (two_group_problem(0.0), OptimizeMode::Heuristic), // unchanged
            (two_group_problem(-30.0), OptimizeMode::Heuristic), // group 0 shifts
        ];
        let mut ctx = OptimizeContext::new();
        let driven = drive_ctx(&mut ctx, &rounds);
        for ((problem, mode), (a, events)) in rounds.iter().zip(&driven) {
            let plain = optimize(problem, &CpPolicy::balanced(), mode);
            assert_eq!(a, &plain, "ctx answers match the context-free path");
            assert_eq!(events.len(), 2);
            assert_eq!(events[0].kind(), "solver_resolve");
            assert_eq!(events[1].kind(), "solver_stats");
        }
        match &driven[0].1[0] {
            Event::SolverResolve {
                changed_clients,
                warm_eligible,
                ..
            } => {
                assert_eq!(*changed_clients, 2, "first round: everything is new");
                assert!(!warm_eligible);
            }
            other => panic!("expected SolverResolve, got {other:?}"),
        }
        match &driven[1].1[0] {
            Event::SolverResolve {
                changed_clients,
                changed_buckets,
                warm_eligible,
                ..
            } => {
                assert_eq!((*changed_clients, *changed_buckets), (0, 0));
                assert!(warm_eligible);
            }
            other => panic!("expected SolverResolve, got {other:?}"),
        }
        match &driven[2].1[0] {
            Event::SolverResolve {
                changed_clients,
                changed_buckets,
                warm_eligible,
                ..
            } => {
                assert_eq!((*changed_clients, *changed_buckets), (1, 0));
                assert!(!warm_eligible);
            }
            other => panic!("expected SolverResolve, got {other:?}"),
        }
        assert_eq!(ctx.stats().warm_hits, 1);
        assert_eq!(ctx.stats().cold_solves, 2);
    }

    #[test]
    fn cold_context_journals_byte_identically_to_a_warm_one() {
        // Three rounds, the middle one unchanged: a reuse-disabled context
        // must emit exactly the same event lines (delta detection is a
        // pure function of the round sequence, not the solve strategy).
        let rounds = vec![
            (two_group_problem(0.0), OptimizeMode::Heuristic),
            (two_group_problem(0.0), OptimizeMode::Heuristic),
            (two_group_problem(-30.0), OptimizeMode::Heuristic),
        ];
        let mut warm = OptimizeContext::new();
        let mut cold = OptimizeContext::new();
        cold.set_reuse(false);
        let warm_driven = drive_ctx(&mut warm, &rounds);
        let cold_driven = drive_ctx(&mut cold, &rounds);
        for ((wa, we), (ca, ce)) in warm_driven.iter().zip(&cold_driven) {
            assert_eq!(wa, ca, "assignments bit-identical");
            // Equal Event values serialize to byte-identical journal
            // lines (the line is a pure function of the value).
            assert_eq!(we, ce, "journal events identical");
        }
        assert_eq!(warm.stats().warm_hits, 1);
        assert_eq!(cold.stats().warm_hits, 0);
        assert_eq!(cold.stats().cold_solves, 3);
    }

    #[test]
    fn policy_change_on_an_identical_problem_is_not_a_warm_hit() {
        // The memo keys on the pair: the same problem under another
        // policy has another answer, and must be solved for it.
        let problem = two_group_problem(0.0);
        let mut ctx = OptimizeContext::new();
        for policy in [CpPolicy::performance_first(), CpPolicy::cost_first()] {
            let got = optimize_probed_ctx(
                &problem,
                &policy,
                &OptimizeMode::Heuristic,
                0,
                &vdx_obs::NoopProbe,
                &mut ctx,
            );
            assert_eq!(got, optimize(&problem, &policy, &OptimizeMode::Heuristic));
        }
        assert_eq!((ctx.stats().warm_hits, ctx.stats().cold_solves), (0, 2));
    }

    /// The memo's core contract, on the code that ships: for any random
    /// score delta between consecutive rounds, a context-driven round
    /// sequence returns assignments identical to context-free solves,
    /// journals exactly the perturbed groups as changed, and replays only
    /// the one round whose input repeated.
    #[test]
    fn warm_context_equals_cold_solves_across_demand_deltas() {
        check(
            256,
            |rng| {
                (
                    vec_of(rng, 2..5, |r| r.gen_range(1_000.0..20_000.0)),
                    vec_of(rng, 2..10, |r| r.gen_range(100.0..4_000.0)),
                    rng.next_u32() as usize,
                    // Group 0 always moves, so `moved` never equals `base`.
                    rng.next_u32() as u16 | 1,
                    rng.gen_range(0.25..3.0),
                )
            },
            |(caps, demands, seed, perturb_mask, nudge)| {
                let perturbed = |i: usize| (perturb_mask >> (i % 16)) & 1 == 1;
                let build = |moved: bool| BrokerProblem {
                    groups: demands
                        .iter()
                        .enumerate()
                        .map(|(i, &d)| group(i as u32, d))
                        .collect(),
                    options: (0..demands.len())
                        .map(|i| {
                            let shift = if moved && perturbed(i) { *nudge } else { 0.0 };
                            caps.iter()
                                .enumerate()
                                .map(|(b, &cap)| {
                                    let score = 40.0 + ((seed + i * 3 + b * 7) % 11) as f64;
                                    opt(b as u32, score + shift, 1.0, cap)
                                })
                                .collect()
                        })
                        .collect(),
                };
                let (base, moved) = (build(false), build(true));
                // base (cold), moved (delta), moved again (warm hit), back (delta).
                let rounds: Vec<_> = [&base, &moved, &moved, &base]
                    .into_iter()
                    .map(|p| (p.clone(), OptimizeMode::Heuristic))
                    .collect();
                let mut ctx = OptimizeContext::new();
                let driven = drive_ctx(&mut ctx, &rounds);
                let n_perturbed = (0..demands.len()).filter(|&i| perturbed(i)).count() as u64;
                let expected_changed = [demands.len() as u64, n_perturbed, 0, n_perturbed];
                for (((problem, mode), (got, events)), expected) in
                    rounds.iter().zip(&driven).zip(expected_changed)
                {
                    let cold = optimize(problem, &CpPolicy::balanced(), mode);
                    assert_eq!(got, &cold, "identical assignment");
                    match &events[0] {
                        Event::SolverResolve {
                            changed_clients,
                            warm_eligible,
                            ..
                        } => {
                            assert_eq!(*changed_clients, expected);
                            assert_eq!(*warm_eligible, expected == 0);
                        }
                        other => panic!("expected SolverResolve, got {other:?}"),
                    }
                }
                assert_eq!(ctx.stats().warm_hits, 1);
                assert_eq!(ctx.stats().cold_solves, 3);
            },
        );
    }
}
