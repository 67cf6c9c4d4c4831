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
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use vdx_cdn::{CdnId, ClusterId};
use vdx_netsim::Score;
use vdx_obs::{Event, Probe, Stopwatch};
use vdx_solver::{AssignmentProblem, ListOption};
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
/// `PartialEq` compares groups and options exactly (IEEE `==` on the
/// underlying floats, options in their shared form): the memo
/// ([`OptimizeContext`]) uses it to recognize rounds whose input did not
/// change at all.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BrokerProblem {
    /// The client groups.
    pub groups: Vec<ClientGroup>,
    /// Candidate options per group (same order as `groups`); every group
    /// needs at least one option.
    pub options: OptionLists,
}

/// Candidate options per group, each distinct list held once.
///
/// A group is a (city, bitrate) pair and what a CDN announces depends on
/// the city alone, so a round gives every group of a city the same list
/// ([`OptionLists::push_shared`]); the daemon assembles one list per
/// group from its bids (`From`). Readers see one list per group either
/// way: [`OptionLists::iter`], `&OptionLists` in a `for`, and `options[g]`.
///
/// `PartialEq` compares the shared form: equal forms have equal per-group
/// views, while the same view held as per-group lists and as shared ones
/// compares unequal (compare [`OptionLists::iter`]s for the view).
///
/// A set with a list copied in by [`OptionLists::push_copy`] (and a clone
/// of one) leaves its lists, dropped, to its thread as the spare set, in
/// place of the set that was there: the storage the thread's next round
/// copies its lists into, so a round does not fault in afresh what the
/// last one freed. A set built only by `From` frees its lists: its thread
/// has no round that copies into them.
#[derive(Debug, Clone, Default)]
pub struct OptionLists {
    /// Each distinct list, in the order of the first group naming it.
    lists: Vec<Vec<GroupOption>>,
    /// `list_of[g]`: group `g`'s index into `lists`.
    list_of: Vec<usize>,
    /// Whether a drop leaves `lists` to the thread's spare set.
    spare_on_drop: bool,
}

thread_local! {
    /// The lists of the last [`OptionLists`] this thread dropped, in their
    /// order: one set at most, never a union of sets.
    static SPARE: RefCell<Vec<Vec<GroupOption>>> = const { RefCell::new(Vec::new()) };
}

impl OptionLists {
    /// Appends a group with a copy of `options` as a list of its own;
    /// returns the list's index, which later groups may share. The k-th
    /// list pushed is written into the thread's k-th spare list when that
    /// one's capacity holds it, so a repeated round gets back its own
    /// lists. The first spare that does not fit frees the whole spare set
    /// at once: its holes coalesce instead of pinning fragments, and the
    /// copy is made at exactly its length.
    pub fn push_copy(&mut self, options: &[GroupOption]) -> usize {
        let k = self.lists.len();
        let list = SPARE.with_borrow_mut(|spare| match spare.get_mut(k) {
            Some(list) if list.capacity() >= options.len() => {
                let mut list = std::mem::take(list);
                list.clear();
                list.extend_from_slice(options);
                list
            }
            _ => {
                *spare = Vec::new();
                options.to_vec()
            }
        });
        self.lists.push(list);
        self.list_of.push(k);
        self.spare_on_drop = true;
        k
    }

    /// Frees the thread's spare set.
    pub fn free_spare() {
        // At thread exit the spare set may be gone already.
        let _gone = SPARE.try_with(|spare| spare.take());
    }

    /// Appends a group offered list `list` (an index
    /// [`OptionLists::push_copy`] returned).
    ///
    /// # Panics
    /// Panics if no such list exists.
    pub fn push_shared(&mut self, list: usize) {
        assert!(list < self.lists.len(), "option list {list} out of range");
        self.list_of.push(list);
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.list_of.len()
    }

    /// Whether there are no groups.
    pub fn is_empty(&self) -> bool {
        self.list_of.is_empty()
    }

    /// Each group's list, in group order.
    pub fn iter(&self) -> OptionListsIter<'_> {
        OptionListsIter {
            lists: &self.lists,
            list_of: self.list_of.iter(),
        }
    }

    /// The distinct lists, each once.
    pub fn lists(&self) -> &[Vec<GroupOption>] {
        &self.lists
    }

    /// Each distinct list, mutably, beside the first group offered it: an
    /// edit that depends on the group only through what the groups of one
    /// list share (their city) is made once per list.
    pub fn lists_mut(&mut self) -> impl Iterator<Item = (usize, &mut Vec<GroupOption>)> {
        let mut first = vec![0; self.lists.len()];
        for (g, &list) in self.list_of.iter().enumerate().rev() {
            first[list] = g;
        }
        first.into_iter().zip(&mut self.lists)
    }
}

impl From<Vec<Vec<GroupOption>>> for OptionLists {
    /// One list per group.
    fn from(lists: Vec<Vec<GroupOption>>) -> OptionLists {
        OptionLists {
            list_of: (0..lists.len()).collect(),
            lists,
            spare_on_drop: false,
        }
    }
}

impl PartialEq for OptionLists {
    fn eq(&self, other: &OptionLists) -> bool {
        self.lists == other.lists && self.list_of == other.list_of
    }
}

impl Drop for OptionLists {
    fn drop(&mut self) {
        if !self.spare_on_drop {
            return;
        }
        let lists = std::mem::take(&mut self.lists);
        // At thread exit the spare set may be gone first: the lists are
        // then freed with the closure.
        let _gone = SPARE.try_with(|spare| *spare.borrow_mut() = lists);
    }
}

impl std::ops::Index<usize> for OptionLists {
    type Output = Vec<GroupOption>;

    fn index(&self, g: usize) -> &Vec<GroupOption> {
        &self.lists[self.list_of[g]]
    }
}

/// Per-group view equality, for comparing against lists built per group.
impl PartialEq<Vec<Vec<GroupOption>>> for OptionLists {
    fn eq(&self, other: &Vec<Vec<GroupOption>>) -> bool {
        self.iter().eq(other)
    }
}

impl<'a> IntoIterator for &'a OptionLists {
    type Item = &'a Vec<GroupOption>;
    type IntoIter = OptionListsIter<'a>;

    fn into_iter(self) -> OptionListsIter<'a> {
        self.iter()
    }
}

/// Each group's option list, in group order ([`OptionLists::iter`]).
#[derive(Debug, Clone)]
pub struct OptionListsIter<'a> {
    lists: &'a [Vec<GroupOption>],
    list_of: std::slice::Iter<'a, usize>,
}

impl<'a> Iterator for OptionListsIter<'a> {
    type Item = &'a Vec<GroupOption>;

    fn next(&mut self) -> Option<&'a Vec<GroupOption>> {
        self.list_of.next().map(|&list| &self.lists[list])
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.list_of.size_hint()
    }
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

/// [`optimize`] with the decision reported through `probe` as an
/// [`Event::SolverStats`] tagged with `round`. The decision itself is
/// identical.
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
    let clock = probe.enabled().then(Stopwatch::start);
    let assignment = solve(problem, policy, mode);
    emit_solver_stats(probe, round, &assignment, false, clock);
    assignment
}

/// The round counters of one [`OptimizeContext`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Rounds answered by replaying the previous round's decision.
    pub warm_hits: u64,
    /// Rounds that ran the whole Optimize step.
    pub cold_solves: u64,
}

/// The memo one broker carries across its rounds: the previous round's
/// `(problem, policy)` pair and decision, and the warm/cold counters.
///
/// When `(problem, policy)` compare equal to the previous round's pair,
/// the cached [`BrokerAssignment`] is replayed and the whole Optimize
/// step (cluster bucketization, policy valuation, solve) is skipped.
/// Exact by construction: the pipeline is a deterministic pure function
/// of that pair, so every answer — replayed or not — is bit-identical to
/// what the context-free [`optimize`] returns.
///
/// One context serves one sequential round stream; concurrent streams
/// get one each.
#[derive(Debug, Clone, Default)]
pub struct OptimizeContext {
    stats: SolveStats,
    prev: Option<(BrokerProblem, CpPolicy, BrokerAssignment)>,
}

impl OptimizeContext {
    /// A context that has seen no round.
    pub fn new() -> OptimizeContext {
        OptimizeContext::default()
    }

    /// Cumulative warm/cold counters since the context was created.
    pub fn stats(&self) -> &SolveStats {
        &self.stats
    }
}

/// [`optimize_probed`] through the memo of `ctx`: a round whose
/// `(problem, policy)` pair equals the previous round's replays that
/// round's decision and journals it with `warm_hit: true`; any other
/// round is solved and remembered.
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
    let clock = probe.enabled().then(Stopwatch::start);
    let repeat = (ctx.prev.as_ref()).filter(|(p, q, _)| p == problem && q == policy);
    let (assignment, warm_hit) = match repeat {
        Some((_, _, assignment)) => {
            ctx.stats.warm_hits += 1;
            (assignment.clone(), true)
        }
        None => {
            let assignment = solve(problem, policy, mode);
            ctx.stats.cold_solves += 1;
            ctx.prev = Some((problem.clone(), *policy, assignment.clone()));
            (assignment, false)
        }
    };
    emit_solver_stats(probe, round, &assignment, warm_hit, clock);
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
    let (gap, _) = build_gap(problem, policy);
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

/// Builds and solves the GAP.
fn solve(problem: &BrokerProblem, policy: &CpPolicy, mode: &OptimizeMode) -> BrokerAssignment {
    assert_eq!(
        problem.groups.len(),
        problem.options.len(),
        "options misaligned"
    );
    let (gap, clusters) = build_gap(problem, policy);
    into_broker_assignment(problem, &gap, &clusters, solve_gap(&gap, mode))
}

/// Journals one decision, solved or replayed from the memo, with the
/// wall time since `clock` started. Instrumented runs only: `clock` is
/// started exactly when the probe is enabled.
fn emit_solver_stats(
    probe: &dyn Probe,
    round: u64,
    assignment: &BrokerAssignment,
    warm_hit: bool,
    clock: Option<Stopwatch>,
) {
    if let Some(clock) = clock {
        probe.emit(Event::SolverStats {
            round,
            objective: assignment.objective,
            warm_hit,
            wall_us: clock.elapsed_us(),
        });
    }
}

/// Slots in `build_gap`'s table of recent `(cluster id, bucket)` pairs:
/// id `i` lives in slot `i % RECENT_SLOTS`. More than the 351 clusters of
/// a full-scale fleet, so a fleet's ids rarely evict each other.
const RECENT_SLOTS: usize = 1024;

/// Maps a [`BrokerProblem`] onto the solver's bucketized GAP form, beside
/// the cluster of each bucket.
///
/// Distinct clusters become capacity buckets. The believed capacity of a
/// cluster must be consistent across options; the first mention wins and
/// disagreements are clamped to the minimum announced (conservative).
/// Deterministic in `(problem, policy)`: buckets are numbered in first
/// mention order over the groups' option lists.
fn build_gap(problem: &BrokerProblem, policy: &CpPolicy) -> (AssignmentProblem, Vec<ClusterId>) {
    // An option list becomes a bucket list once, at the first group that
    // names it; the groups after it reuse that bucket list, so a list
    // shared by a city's groups is probed, clamped and priced once. Lists
    // are numbered in the order groups first name them, so a list this
    // loop has not met is the next bucket list, and the two share an
    // index. Fig 9 splits there: an option's score and price are its
    // list's coefficients, a group's sessions and demand its weights, and
    // the solver forms each value as it reads it.
    //
    // A cluster's bucket comes from a fixed direct-mapped table of recent
    // pairs in front of a keyed map: a slot hit costs an id compare, and a
    // miss asks the map and refills the slot, so the map hashes about once
    // per distinct cluster, not once per option. Not a table indexed by
    // cluster id: in the daemon the ids are whatever a peer announced, so
    // nothing here is sized by an id, and ids picked to collide in a slot
    // only send their lookups to the map, whose keyed hash they cannot
    // steer.
    let options = &problem.options;
    let mut bucket_of: HashMap<ClusterId, u32> = HashMap::new();
    let mut recent: [Option<(ClusterId, u32)>; RECENT_SLOTS] = [None; RECENT_SLOTS];
    let mut clusters = Vec::new();
    let mut met = 0;
    let mut gap = AssignmentProblem::default();
    for (g, (group, &list)) in problem.groups.iter().zip(&options.list_of).enumerate() {
        let opts = &options.lists[list];
        assert!(!opts.is_empty(), "group {g} has no options");
        if list == met {
            let capacities = &mut gap.capacities;
            let entries = opts.iter().map(|o| {
                let slot = &mut recent[o.cluster.index() % RECENT_SLOTS];
                let bucket = match *slot {
                    Some((id, bucket)) if id == o.cluster => bucket,
                    _ => {
                        let bucket = *bucket_of.entry(o.cluster).or_insert_with(|| {
                            capacities.push(o.believed_capacity_kbps);
                            clusters.push(o.cluster);
                            // A bucket per distinct `u32` id: the index fits.
                            (capacities.len() - 1) as u32
                        });
                        *slot = Some((o.cluster, bucket));
                        bucket
                    }
                };
                let capacity = &mut capacities[bucket as usize];
                *capacity = capacity.min(o.believed_capacity_kbps);
                let (a, b) = policy.coefficients(o.score, o.price_per_mb);
                ListOption { a, b, bucket }
            });
            let entries = entries.collect();
            met = gap.add_bucket_list(entries) + 1;
        }
        let (x, y) = CpPolicy::weights(group.demand_kbps, group.sessions);
        gap.add_client_on(list, x, y, group.demand_kbps);
    }
    (gap, clusters)
}

/// Runs the solve path over a built GAP instance.
fn solve_gap(gap: &AssignmentProblem, mode: &OptimizeMode) -> vdx_solver::Assignment {
    match mode {
        OptimizeMode::Heuristic => gap.solve_heuristic(),
    }
}

/// Converts a solver assignment of `gap`, built from `problem` with the
/// bucket clusters `clusters`, back into broker terms (per-cluster load
/// accounting) and checks demand conservation.
fn into_broker_assignment(
    problem: &BrokerProblem,
    gap: &AssignmentProblem,
    clusters: &[ClusterId],
    assignment: vdx_solver::Assignment,
) -> BrokerAssignment {
    // Each taken bucket's load, summed in client order: a bucket is one
    // cluster, so these are the additions a map entry per cluster makes,
    // in the same order, and the map is built once from their sums.
    let mut loads: Vec<Option<Kbps>> = vec![None; clusters.len()];
    for (g, (&c, group)) in assignment.choice.iter().zip(&problem.groups).enumerate() {
        let load = &mut loads[gap.bucket_of(g, c)];
        *load = Some(load.unwrap_or(Kbps::ZERO) + group.demand_kbps);
    }
    let taken = clusters.iter().zip(loads);
    let cluster_load_kbps: BTreeMap<ClusterId, Kbps> =
        taken.filter_map(|(&c, load)| Some((c, load?))).collect();
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
    use vdx_solver::CandidateOption;

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
            options: vec![vec![opt(0, 100.0, 1.0, 1e9), opt(1, 40.0, 1.0, 1e9)]].into(),
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
            ]
            .into(),
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
            let Some(c) = (0..choice.len()).find(|&c| choice[c] + 1 < gap.options_of(c).len())
            else {
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
            ]
            .into(),
        };
        let h = optimize(&problem, &CpPolicy::balanced(), &OptimizeMode::Heuristic);
        let optimum = brute_force_optimum(&build_gap(&problem, &CpPolicy::balanced()).0)
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
            ]
            .into(),
        };
        let policy = CpPolicy::balanced();
        let a = optimize(&problem, &policy, &OptimizeMode::Heuristic);
        let report = bound_assignment(&problem, &policy, &a);
        assert_eq!(
            (report.clusters_above_90, report.clusters_overloaded),
            (2, 0)
        );
        let bound = report.bound.expect("nothing overloaded");
        let optimum = brute_force_optimum(&build_gap(&problem, &policy).0).expect("feasible");
        assert!(a.objective <= optimum + 1e-9 && optimum <= bound + 1e-9);
        // Forcing both onto cluster 0 overloads it: counted, not bounded.
        let (gap, clusters) = build_gap(&problem, &policy);
        let both = into_broker_assignment(
            &problem,
            &gap,
            &clusters,
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

    /// The build before option lists were shared: one map probe and one
    /// clamp per (group, option), on the per-group view.
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
        for c in 0..gap.num_clients() {
            bits.push(gap.options_of(c).len() as u64);
            for o in gap.options_of(c) {
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

    /// A NaN price, as a peer's bid can carry one (`UsdPerGb::per_megabit`
    /// refuses it under debug assertions): ∞ and −∞ averaged.
    fn nan_price() -> UsdPerGb {
        let inf = UsdPerGb::per_megabit(f64::MAX).midpoint(UsdPerGb::per_megabit(f64::MAX));
        let neg_inf = UsdPerGb::per_megabit(-f64::MAX).midpoint(UsdPerGb::per_megabit(-f64::MAX));
        inf.midpoint(neg_inf)
    }

    /// A group whose list an earlier group already named takes the
    /// buckets that group's list got, and the GAP is the one probing every
    /// option of the per-group view builds, bit for bit: every capacity,
    /// and every value and load read back through `options_of`, under all
    /// three policies — whether lists are shared by neighbours, by groups
    /// far apart, or held once per group as the daemon holds them. The
    /// lists are runs of near-copies: identical, with new scores, with one
    /// capacity lowered (the clamp must still apply) or its zero's sign
    /// flipped, with NaN prices, ±0.0 scores, NaN and ±0.0 capacities and
    /// cluster ids up to `u32::MAX`, pairs of them sharing a slot of the
    /// build's table of recent ids; groups differ in sessions and demand.
    #[test]
    fn repeated_lists_take_their_predecessors_buckets_and_build_the_same_gap() {
        // 1023 shares a slot of the build's table with `u32::MAX`, and 1031
        // with 7.
        const CLUSTERS: [u32; 8] = [0, 1, 7, 1023, 1031, u32::MAX - 2, u32::MAX - 1, u32::MAX];
        let capacity = |rng: &mut vdx_rand::StdRng| match rng.gen_range(0..6) {
            0 => nan_kbps(),
            1 => Kbps::new(0.0),
            2 => Kbps::new(-0.0),
            _ => Kbps::new([500.0, 1_000.0, 2_000.0][rng.gen_range(0..3)]),
        };
        let score = |rng: &mut vdx_rand::StdRng| match rng.gen_range(0..6) {
            0 => Score(0.0),
            1 => Score(-0.0),
            _ => Score(rng.gen_range(10.0..90.0)),
        };
        let fresh = |rng: &mut vdx_rand::StdRng| -> Vec<GroupOption> {
            vec_of(rng, 1..5, |r| {
                let mut o = opt(0, 0.0, r.gen_range(0.1..3.0), 1.0);
                o.score = score(r);
                if r.gen_bool(0.125) {
                    o.price_per_mb = nan_price();
                }
                o.cluster = ClusterId(CLUSTERS[r.gen_range(0..CLUSTERS.len())]);
                o.believed_capacity_kbps = capacity(r);
                o
            })
        };
        check(
            512,
            |rng| {
                let mut lists: Vec<Vec<GroupOption>> = vec![fresh(rng)];
                for _ in 1..rng.gen_range(1usize..8) {
                    let mut next = lists.last().expect("one list").clone();
                    let i = rng.gen_range(0..next.len());
                    let cap = next[i].believed_capacity_kbps;
                    match rng.gen_range(0..6) {
                        0 | 1 => {}
                        2 => {
                            for o in &mut next {
                                o.score = score(rng);
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
                    lists.push(next);
                }
                // Per group: a new list, its predecessor's, or any earlier one.
                let mut list_of: Vec<usize> = vec![0];
                let mut named = 1;
                for _ in 1..rng.gen_range(1usize..16) {
                    let prev = *list_of.last().expect("one group");
                    let list = match rng.gen_range(0..3) {
                        0 if named < lists.len() => named,
                        1 => prev,
                        _ => rng.gen_range(0..named),
                    };
                    named = named.max(list + 1);
                    list_of.push(list);
                }
                let demands: Vec<(f64, u32)> = (list_of.iter())
                    .map(|_| (rng.gen_range(10.0..900.0), rng.gen_range(1u32..6)))
                    .collect();
                (lists, list_of, demands)
            },
            |(lists, list_of, demands)| {
                let groups: Vec<ClientGroup> = (demands.iter().enumerate())
                    .map(|(i, &(d, sessions))| ClientGroup {
                        sessions,
                        ..group(i as u32, d)
                    })
                    .collect();
                let mut shared = OptionLists::default();
                let mut pushed: Vec<Option<usize>> = vec![None; lists.len()];
                for &list in list_of {
                    match pushed[list] {
                        Some(l) => shared.push_shared(l),
                        None => pushed[list] = Some(shared.push_copy(&lists[list])),
                    }
                }
                let per_group: Vec<Vec<GroupOption>> =
                    list_of.iter().map(|&l| lists[l].clone()).collect();
                let shared = BrokerProblem {
                    groups: groups.clone(),
                    options: shared,
                };
                let per_group = BrokerProblem {
                    groups,
                    options: per_group.into(),
                };
                for policy in [
                    CpPolicy::balanced(),
                    CpPolicy::performance_first(),
                    CpPolicy::cost_first(),
                ] {
                    let expected = gap_bits(&build_gap_probing_every_option(&per_group, &policy));
                    assert_eq!(gap_bits(&build_gap(&shared, &policy).0), expected);
                    assert_eq!(gap_bits(&build_gap(&per_group, &policy).0), expected);
                }
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
            ]
            .into(),
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
            options: vec![vec![]].into(),
        };
        optimize(&problem, &CpPolicy::balanced(), &OptimizeMode::Heuristic);
    }

    fn two_group_problem() -> BrokerProblem {
        BrokerProblem {
            groups: vec![group(0, 500.0), group(1, 800.0)],
            options: vec![
                vec![opt(0, 50.0, 2.0, 1_000.0), opt(1, 70.0, 0.5, 2_000.0)],
                vec![opt(0, 45.0, 2.0, 1_000.0), opt(1, 90.0, 0.2, 2_000.0)],
            ]
            .into(),
        }
    }

    #[test]
    fn probed_optimize_emits_solver_stats_without_changing_the_answer() {
        use vdx_obs::MemoryProbe;
        let problem = two_group_problem();
        let mode = OptimizeMode::Heuristic;
        let plain = optimize(&problem, &CpPolicy::balanced(), &mode);
        let (probe, rx) = MemoryProbe::channel();
        let probed = optimize_probed(&problem, &CpPolicy::balanced(), &mode, 7, &probe);
        assert_eq!(plain.choice, probed.choice);
        let mut events: Vec<_> = rx.try_iter().collect();
        events.iter_mut().for_each(Event::zero_wall_clock);
        assert_eq!(
            events,
            [Event::SolverStats {
                round: 7,
                objective: probed.objective,
                warm_hit: false,
                wall_us: 0,
            }]
        );
    }

    /// Replays `rounds` through a context and returns the per-round
    /// `(assignment, journaled events)` pairs, the events with their
    /// wall-clock fields zeroed.
    fn drive_ctx(
        ctx: &mut OptimizeContext,
        rounds: &[(BrokerProblem, OptimizeMode)],
    ) -> Vec<(BrokerAssignment, Vec<vdx_obs::Event>)> {
        use vdx_obs::MemoryProbe;
        rounds
            .iter()
            .enumerate()
            .map(|(r, (problem, mode))| {
                let (probe, rx) = MemoryProbe::channel();
                let a = optimize_probed_ctx(
                    problem,
                    &CpPolicy::balanced(),
                    mode,
                    r as u64,
                    &probe,
                    ctx,
                );
                let mut events: Vec<_> = rx.try_iter().collect();
                events.iter_mut().for_each(Event::zero_wall_clock);
                (a, events)
            })
            .collect()
    }

    #[test]
    fn policy_change_on_an_identical_problem_is_not_a_warm_hit() {
        // The memo keys on the pair: the same problem under another
        // policy has another answer, and must be solved for it.
        let problem = two_group_problem();
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
    /// journals one `solver_stats` line per round, and replays only the
    /// one round whose input repeated.
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
                        .collect::<Vec<Vec<GroupOption>>>()
                        .into(),
                };
                let (base, moved) = (build(false), build(true));
                // base (cold), moved (cold), moved again (warm hit), back (cold).
                let rounds: Vec<_> = [&base, &moved, &moved, &base]
                    .into_iter()
                    .map(|p| (p.clone(), OptimizeMode::Heuristic))
                    .collect();
                let mut ctx = OptimizeContext::new();
                let driven = drive_ctx(&mut ctx, &rounds);
                let warm_hits = [false, false, true, false];
                for (r, (((problem, mode), (got, events)), warm_hit)) in
                    rounds.iter().zip(&driven).zip(warm_hits).enumerate()
                {
                    let cold = optimize(problem, &CpPolicy::balanced(), mode);
                    assert_eq!(got, &cold, "identical assignment");
                    let stats = Event::SolverStats {
                        round: r as u64,
                        objective: cold.objective,
                        warm_hit,
                        wall_us: 0,
                    };
                    assert_eq!(events, &[stats]);
                }
                assert_eq!(ctx.stats().warm_hits, 1);
                assert_eq!(ctx.stats().cold_solves, 3);
            },
        );
    }

    /// `n` options tagged `tag`, told apart by score.
    fn tagged(n: usize, tag: u32) -> Vec<GroupOption> {
        (0..n).map(|i| opt(tag, i as f64, 0.1, 1e3)).collect()
    }

    /// A set of one list per length in `lens`, each copied in.
    fn copied(lens: &[usize], tag: u32) -> OptionLists {
        let mut set = OptionLists::default();
        for &n in lens {
            set.push_copy(&tagged(n, tag));
        }
        set
    }

    fn buffers(lists: &[Vec<GroupOption>]) -> Vec<*const GroupOption> {
        lists.iter().map(|l| l.as_ptr()).collect()
    }

    fn spare_buffers() -> Vec<(*const GroupOption, usize)> {
        SPARE.with_borrow(|spare| spare.iter().map(|l| (l.as_ptr(), l.capacity())).collect())
    }

    #[test]
    fn a_set_whose_lists_fit_reuses_the_last_sets_buffers() {
        OptionLists::free_spare();
        let first = copied(&[3, 5, 2], 1);
        let kept = buffers(first.lists());
        drop(first);
        let second = copied(&[3, 1, 2], 2);
        assert_eq!(buffers(second.lists()), kept);
        assert_eq!(second.lists(), [tagged(3, 2), tagged(1, 2), tagged(2, 2)]);
        drop(second);
        assert_eq!(spare_buffers().len(), 3);
    }

    #[test]
    fn a_list_that_does_not_fit_frees_the_spare_set() {
        OptionLists::free_spare();
        drop(copied(&[3, 5], 1));
        assert_eq!(spare_buffers().len(), 2);
        let mut set = OptionLists::default();
        set.push_copy(&tagged(4, 2));
        assert_eq!(spare_buffers(), [], "the whole set went");
        assert_eq!(set.lists()[0].capacity(), 4, "copied at its length");
        // The second list finds no spare where the first set's 5 stood.
        set.push_copy(&tagged(5, 2));
        assert_eq!(set.lists(), [tagged(4, 2), tagged(5, 2)]);
    }

    #[test]
    fn a_thread_keeps_only_the_last_dropped_set() {
        OptionLists::free_spare();
        let large = copied(&[64; 32], 1);
        let small = copied(&[1, 2], 2);
        let kept: Vec<_> = (small.lists().iter())
            .map(|l| (l.as_ptr(), l.capacity()))
            .collect();
        drop(large);
        assert_eq!(spare_buffers().len(), 32);
        drop(small);
        assert_eq!(spare_buffers(), kept);
        OptionLists::free_spare();
        assert_eq!(spare_buffers(), []);
    }

    /// The daemon's sets are built by `From` and have no round that copies
    /// into them: dropped, however large, they leave the spare set alone.
    #[test]
    fn a_set_built_per_group_frees_its_lists_and_keeps_the_spare_set() {
        OptionLists::free_spare();
        drop(copied(&[2, 3], 1));
        let kept = spare_buffers();
        for n in [1, 1 << 12, 7] {
            let assembled = OptionLists::from(vec![tagged(n, 2); 64]);
            drop(assembled.clone());
            drop(assembled);
            assert_eq!(spare_buffers(), kept);
        }
    }

    /// Sets built in the spare set's storage hold what freshly cloned lists
    /// hold, whatever sets were dropped before them and in what order; the
    /// spare set is the last dropped `push_copy` set, and none of its lists
    /// is longer than the longest list copied.
    #[test]
    fn lists_built_in_spare_storage_equal_fresh_clones() {
        // Per step: build a set by `push_copy` (0) or by `From` (1) from
        // these list lengths, or drop a live set (2) at this pick.
        check(
            256,
            |rng| {
                (0..rng.gen_range(1usize..24))
                    .map(|_| {
                        let lens = vec_of(rng, 0..12, |r| r.gen_range(0usize..40));
                        (rng.gen_range(0u32..3), lens, rng.gen_range(0usize..8))
                    })
                    .collect::<Vec<_>>()
            },
            |steps| {
                OptionLists::free_spare();
                let mut longest = 0;
                let mut live: Vec<(OptionLists, Vec<Vec<GroupOption>>)> = Vec::new();
                for (step, (kind, lens, pick)) in steps.iter().enumerate() {
                    let fresh: Vec<Vec<GroupOption>> =
                        lens.iter().map(|&n| tagged(n, step as u32)).collect();
                    let set = match kind {
                        0 => {
                            let mut set = OptionLists::default();
                            for list in &fresh {
                                set.push_copy(list);
                            }
                            longest = lens.iter().fold(longest, |m, &n| m.max(n));
                            set
                        }
                        1 => OptionLists::from(fresh.clone()),
                        _ => {
                            if !live.is_empty() {
                                let (set, _) = live.swap_remove(pick % live.len());
                                let want = if set.spare_on_drop {
                                    (set.lists().iter())
                                        .map(|l| (l.as_ptr(), l.capacity()))
                                        .collect()
                                } else {
                                    spare_buffers()
                                };
                                drop(set);
                                assert_eq!(spare_buffers(), want, "step {step}");
                                assert!(spare_buffers().iter().all(|&(_, c)| c <= longest));
                            }
                            continue;
                        }
                    };
                    assert!(set.iter().eq(&fresh), "step {step}");
                    live.push((set, fresh));
                }
                for (set, fresh) in &live {
                    assert!(set.iter().eq(fresh), "a later step wrote into a live set");
                }
            },
        );
    }
}
