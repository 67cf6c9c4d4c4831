//! The broker's assignment problem (generalized assignment, GAP).
//!
//! This is the paper's Fig 9 ILP in structural form: every client picks
//! exactly one of its candidate options (client-to-cluster matchings), each
//! option has a *value* (the `wp·performance − wc·cost·bitrate` term) and a
//! *load* (the client's bitrate) against the option's capacity *bucket*
//! (the cluster). The broker maximizes total value subject to per-bucket
//! capacity.
//!
//! Three solution paths:
//!
//! * [`AssignmentProblem::solve_greedy`] — regret-ordered greedy: clients
//!   with the most to lose choose first; always produces a complete
//!   assignment (falling back to the least-overloading option when nothing
//!   fits, since a real broker must send every client *somewhere*).
//! * [`AssignmentProblem::improve_local`] — first-improvement move/swap
//!   local search on top of any assignment.
//! * [`AssignmentProblem::solve_exact`] — the exact MILP, for validation
//!   and small scenarios.
//!
//! Capacity semantics: the capacities given here are what the broker
//! *believes* (designs differ in how accurate that belief is); true-capacity
//! congestion is measured downstream in `vdx-sim`.

use crate::milp::{solve_milp_with_stats, MilpConfig, MilpOutcome};
use crate::model::{LinearProgram, Relation};
use crate::stats::SolveStats;
use vdx_units::Kbps;

/// One candidate option for a client.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CandidateOption {
    /// Capacity bucket (cluster) the option consumes.
    pub bucket: usize,
    /// Contribution to the objective if chosen (higher is better).
    pub value: f64,
    /// Load placed on the bucket if chosen (e.g. the client's bitrate).
    pub load: Kbps,
}

/// A generalized assignment problem.
///
/// `PartialEq` compares options and capacities exactly (bitwise on the
/// underlying floats) — [`ProblemDelta`] uses it to count what changed
/// between rounds, and any rounding drift must register as a change.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AssignmentProblem {
    /// Candidate options per client; every client must have ≥ 1 option.
    pub options: Vec<Vec<CandidateOption>>,
    /// Capacity per bucket.
    pub capacities: Vec<Kbps>,
}

/// A complete assignment: for each client, the index into its option list.
#[derive(Debug, Clone, PartialEq)]
pub struct Assignment {
    /// `choice[c]` = index into `options[c]`.
    pub choice: Vec<usize>,
    /// Total value of the assignment.
    pub objective: f64,
}

impl AssignmentProblem {
    /// Creates a problem with the given bucket capacities.
    pub fn new(capacities: Vec<Kbps>) -> AssignmentProblem {
        AssignmentProblem {
            options: Vec::new(),
            capacities,
        }
    }

    /// Adds a client with its candidate options; returns the client index.
    ///
    /// # Panics
    /// Panics if `options` is empty or references an unknown bucket.
    pub fn add_client(&mut self, options: Vec<CandidateOption>) -> usize {
        assert!(
            !options.is_empty(),
            "every client needs at least one option"
        );
        for o in &options {
            assert!(
                o.bucket < self.capacities.len(),
                "bucket {} out of range",
                o.bucket
            );
            assert!(o.load >= Kbps::ZERO, "loads must be non-negative");
        }
        self.options.push(options);
        self.options.len() - 1
    }

    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.options.len()
    }

    /// Total value of a choice vector.
    pub fn value_of(&self, choice: &[usize]) -> f64 {
        choice
            .iter()
            .enumerate()
            .map(|(c, &o)| self.options[c][o].value)
            .sum()
    }

    /// Load placed on each bucket by a choice vector.
    pub fn bucket_loads(&self, choice: &[usize]) -> Vec<Kbps> {
        let mut loads = vec![Kbps::ZERO; self.capacities.len()];
        for (c, &o) in choice.iter().enumerate() {
            let opt = self.options[c][o];
            loads[opt.bucket] += opt.load;
        }
        // Conservation: the demand placed by the choice vector must equal
        // the load that lands on buckets — any drift is an accounting bug.
        #[cfg(debug_assertions)]
        {
            let placed: f64 = choice
                .iter()
                .enumerate()
                .map(|(c, &o)| self.options[c][o].load.as_f64())
                .sum();
            let landed: f64 = loads.iter().map(|l| l.as_f64()).sum();
            debug_assert!(
                (placed - landed).abs() <= 1e-6 * placed.abs().max(1.0),
                "bucket loads lost demand: placed {placed}, landed {landed}"
            );
        }
        loads
    }

    /// Whether a choice vector respects all (believed) capacities.
    pub fn respects_capacities(&self, choice: &[usize], tol: Kbps) -> bool {
        self.bucket_loads(choice)
            .iter()
            .zip(&self.capacities)
            .all(|(l, c)| *l <= *c + tol)
    }

    /// Regret-ordered greedy construction (see module docs). Always returns
    /// a complete assignment, whatever the option values are: every float
    /// comparison is total, so a NaN value (a hostile bid price reaches
    /// here through the daemon) is ordered like any other key, not a panic.
    pub fn solve_greedy(&self) -> Assignment {
        let n = self.num_clients();
        // Order clients by regret (gap between best and second-best value),
        // largest first; ties by client index for determinism. Each regret
        // is computed once, in one top-two scan, ahead of the sort.
        let regrets: Vec<f64> = self.options.iter().map(|opts| regret(opts)).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by(|&a, &b| cmp_values(regrets[b], regrets[a]).then(a.cmp(&b)));

        let mut remaining = self.capacities.clone();
        let mut choice = vec![0usize; n];
        for &c in &order {
            // Best-value option that fits.
            let mut best: Option<(usize, f64)> = None;
            for (i, o) in self.options[c].iter().enumerate() {
                if o.load <= remaining[o.bucket] && best.map_or(true, |(_, v)| o.value > v) {
                    best = Some((i, o.value));
                }
            }
            let pick = match best {
                Some((i, _)) => i,
                None => {
                    // Nothing fits: minimize relative overload, then value.
                    (0..self.options[c].len())
                        .min_by(|&a, &b| {
                            let oa = self.options[c][a];
                            let ob = self.options[c][b];
                            let ra = overload_ratio(oa, &remaining, &self.capacities);
                            let rb = overload_ratio(ob, &remaining, &self.capacities);
                            cmp_values(ra, rb).then(cmp_values(ob.value, oa.value))
                        })
                        .unwrap_or(0)
                }
            };
            let o = self.options[c][pick];
            remaining[o.bucket] -= o.load;
            choice[c] = pick;
        }
        let objective = self.value_of(&choice);
        Assignment { choice, objective }
    }

    /// First-improvement local search: single-client moves and two-client
    /// swaps, bounded by `max_rounds` full passes. Only accepts moves that
    /// keep (believed) capacities respected for every touched bucket, so a
    /// feasible input stays feasible; infeasible inputs can only improve.
    pub fn improve_local(&self, start: Assignment, max_rounds: usize) -> Assignment {
        let mut choice = start.choice;
        let mut loads = self.bucket_loads(&choice);
        for _ in 0..max_rounds {
            let mut improved = false;
            // Single-client moves.
            for (options, pick) in self.options.iter().zip(choice.iter_mut()) {
                let cur = options[*pick];
                for (i, o) in options.iter().enumerate() {
                    if i == *pick || o.value <= cur.value {
                        continue;
                    }
                    let fits = if o.bucket == cur.bucket {
                        (loads[o.bucket] - cur.load + o.load).as_f64()
                            <= self.capacities[o.bucket].as_f64() + 1e-9
                    } else {
                        (loads[o.bucket] + o.load).as_f64()
                            <= self.capacities[o.bucket].as_f64() + 1e-9
                    };
                    if fits {
                        loads[cur.bucket] -= cur.load;
                        loads[o.bucket] += o.load;
                        *pick = i;
                        improved = true;
                        break;
                    }
                }
            }
            if !improved {
                break;
            }
        }
        let objective = self.value_of(&choice);
        Assignment { choice, objective }
    }

    /// Greedy followed by local search — the production pipeline.
    pub fn solve_heuristic(&self) -> Assignment {
        self.improve_local(self.solve_greedy(), 8)
    }

    /// Exact solve via MILP. Returns `None` when no capacity-respecting
    /// complete assignment exists or the node budget is exhausted without
    /// an incumbent.
    pub fn solve_exact(&self, config: &MilpConfig) -> Option<Assignment> {
        let mut stats = SolveStats::new();
        self.solve_exact_with_stats(config, &mut stats)
    }

    /// [`AssignmentProblem::solve_exact`] with search effort accumulated
    /// into `stats` (branch-and-bound nodes, simplex pivots, and the root
    /// relaxation bound on the objective).
    pub fn solve_exact_with_stats(
        &self,
        config: &MilpConfig,
        stats: &mut SolveStats,
    ) -> Option<Assignment> {
        // Variables: one binary per (client, option).
        let mut var_of: Vec<Vec<usize>> = Vec::with_capacity(self.num_clients());
        let mut num_vars = 0usize;
        for opts in &self.options {
            let vars: Vec<usize> = (0..opts.len()).map(|i| num_vars + i).collect();
            num_vars += opts.len();
            var_of.push(vars);
        }
        let mut lp = LinearProgram::maximize(num_vars);
        for (c, opts) in self.options.iter().enumerate() {
            for (i, o) in opts.iter().enumerate() {
                lp.set_objective(var_of[c][i], o.value);
                lp.set_upper_bound(var_of[c][i], 1.0);
            }
            // Exactly one option per client.
            let coeffs: Vec<(usize, f64)> = var_of[c].iter().map(|&v| (v, 1.0)).collect();
            lp.add_constraint(coeffs, Relation::Eq, 1.0);
        }
        for (b, &cap) in self.capacities.iter().enumerate() {
            let mut coeffs = Vec::new();
            for (c, opts) in self.options.iter().enumerate() {
                for (i, o) in opts.iter().enumerate() {
                    if o.bucket == b && o.load > Kbps::ZERO {
                        coeffs.push((var_of[c][i], o.load.as_f64()));
                    }
                }
            }
            if !coeffs.is_empty() {
                lp.add_constraint(coeffs, Relation::Le, cap.as_f64());
            }
        }
        let all_vars: Vec<usize> = (0..num_vars).collect();
        match solve_milp_with_stats(&lp, &all_vars, config, stats) {
            MilpOutcome::Solved { values, .. } => {
                let mut choice = vec![0usize; self.num_clients()];
                for (c, vars) in var_of.iter().enumerate() {
                    choice[c] = vars
                        .iter()
                        .position(|&v| values[v] > 0.5)
                        .expect("exactly-one constraint held");
                }
                let objective = self.value_of(&choice);
                Some(Assignment { choice, objective })
            }
            _ => None,
        }
    }
}

fn overload_ratio(o: CandidateOption, remaining: &[Kbps], capacities: &[Kbps]) -> f64 {
    let cap = capacities[o.bucket].as_f64().max(1e-12);
    // How far past capacity this bucket would go, relative to capacity.
    (o.load.as_f64() - remaining[o.bucket].as_f64()).max(0.0) / cap
}

/// A client's regret: its best option value minus its second best, found
/// in one scan with no allocation. Single-option clients are fully
/// constrained and choose first.
fn regret(options: &[CandidateOption]) -> f64 {
    if options.len() < 2 {
        return f64::INFINITY;
    }
    // `top` is the first of the largest values and `second` the largest of
    // the rest in list order — what a stable descending sort puts at [0]
    // and [1], so the difference has the same bits.
    let (mut top, mut second) = (f64::NEG_INFINITY, f64::NEG_INFINITY);
    for o in options {
        if o.value > top {
            second = top;
            top = o.value;
        } else if o.value > second {
            second = o.value;
        }
    }
    top - second
}

/// Total order on solver keys: `partial_cmp` wherever that is defined
/// (adding `+0.0` folds `-0.0` into `+0.0`, the one pair `total_cmp`
/// tells apart and `partial_cmp` does not), and NaN at the ends instead
/// of a panic.
fn cmp_values(a: f64, b: f64) -> std::cmp::Ordering {
    (a + 0.0).total_cmp(&(b + 0.0))
}

/// The difference between two consecutive [`AssignmentProblem`]s — a
/// pure function of the two problems, independent of how (or whether)
/// either was solved. `vdx-broker` journals it once per round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProblemDelta {
    /// Clients whose option list changed (all of them on a shape change
    /// or a first solve).
    pub changed_clients: u64,
    /// Buckets whose capacity changed (all of them on a shape change or
    /// a first solve).
    pub changed_buckets: u64,
    /// Client or bucket counts differ (or there was no previous
    /// problem), so per-index comparison is meaningless.
    pub shape_changed: bool,
}

impl ProblemDelta {
    /// Whether nothing changed.
    pub fn is_empty(&self) -> bool {
        !self.shape_changed && self.changed_clients == 0 && self.changed_buckets == 0
    }

    /// Computes the delta between consecutive problems. Comparison is
    /// exact (bitwise on the underlying floats): rounding drift must
    /// register as a change.
    pub fn between(prev: &AssignmentProblem, next: &AssignmentProblem) -> ProblemDelta {
        if prev.options.len() != next.options.len()
            || prev.capacities.len() != next.capacities.len()
        {
            return ProblemDelta::everything(next);
        }
        let changed_clients = prev
            .options
            .iter()
            .zip(&next.options)
            .filter(|(a, b)| a != b)
            .count() as u64;
        let changed_buckets = prev
            .capacities
            .iter()
            .zip(&next.capacities)
            .filter(|(a, b)| a != b)
            .count() as u64;
        ProblemDelta {
            changed_clients,
            changed_buckets,
            shape_changed: false,
        }
    }

    /// The delta of a first solve: everything is new.
    pub fn everything(next: &AssignmentProblem) -> ProblemDelta {
        ProblemDelta {
            changed_clients: next.options.len() as u64,
            changed_buckets: next.capacities.len() as u64,
            shape_changed: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opt(bucket: usize, value: f64, load: f64) -> CandidateOption {
        CandidateOption {
            bucket,
            value,
            load: Kbps::new(load),
        }
    }

    fn caps(v: &[f64]) -> Vec<Kbps> {
        v.iter().map(|&c| Kbps::new(c)).collect()
    }

    #[test]
    fn greedy_prefers_value_within_capacity() {
        let mut p = AssignmentProblem::new(caps(&[10.0, 10.0]));
        p.add_client(vec![opt(0, 5.0, 4.0), opt(1, 3.0, 4.0)]);
        p.add_client(vec![opt(0, 5.0, 4.0), opt(1, 3.0, 4.0)]);
        let a = p.solve_greedy();
        // Both fit on bucket 0 (8 <= 10): both take the high-value option.
        assert_eq!(a.objective, 10.0);
        assert!(p.respects_capacities(&a.choice, Kbps::new(1e-9)));
    }

    #[test]
    fn greedy_splits_when_capacity_binds() {
        let mut p = AssignmentProblem::new(caps(&[4.0, 10.0]));
        p.add_client(vec![opt(0, 5.0, 4.0), opt(1, 3.0, 4.0)]);
        p.add_client(vec![opt(0, 5.0, 4.0), opt(1, 1.0, 4.0)]);
        let a = p.solve_greedy();
        // Client 1 has regret 4 (5-1) > client 0's regret 2, so client 1
        // grabs bucket 0; client 0 falls to bucket 1. Total 5 + 3 = 8.
        assert_eq!(a.objective, 8.0);
        assert!(p.respects_capacities(&a.choice, Kbps::new(1e-9)));
    }

    #[test]
    fn greedy_overloads_least_when_forced() {
        let mut p = AssignmentProblem::new(caps(&[1.0, 100.0]));
        p.add_client(vec![opt(0, 9.0, 5.0), opt(1, 8.0, 5.0)]);
        let a = p.solve_greedy();
        // Nothing fits bucket 0 (cap 1), bucket 1 fits: overload ratio 0.
        assert_eq!(a.choice, vec![1]);
    }

    #[test]
    fn a_nan_valued_option_yields_a_complete_assignment() {
        // What a wire bid with a NaN price becomes once `CpPolicy::value`
        // has priced it; bucket 0 fits nobody, so the overload fallback
        // compares NaN values too.
        let mut p = AssignmentProblem::new(caps(&[1.0, 10.0]));
        p.add_client(vec![opt(0, f64::NAN, 4.0), opt(1, 3.0, 4.0)]);
        p.add_client(vec![opt(0, 5.0, 4.0), opt(1, f64::NAN, 4.0)]);
        p.add_client(vec![opt(0, f64::NAN, 40.0), opt(1, f64::NAN, 40.0)]);
        p.add_client(vec![opt(0, 2.0, 4.0)]);
        let a = p.solve_heuristic();
        assert_eq!(a.choice.len(), 4);
        for (c, &pick) in a.choice.iter().enumerate() {
            assert!(pick < p.options[c].len(), "client {c} picked {pick}");
        }
    }

    /// The parent's `solve_greedy`, regret recomputed inside the sort
    /// comparator: the reference the one-scan version must reproduce.
    fn greedy_with_comparator_time_regret(p: &AssignmentProblem) -> Assignment {
        let regret = |c: usize| -> f64 {
            let mut values: Vec<f64> = p.options[c].iter().map(|o| o.value).collect();
            values.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
            if values.len() >= 2 {
                values[0] - values[1]
            } else {
                f64::INFINITY
            }
        };
        let mut order: Vec<usize> = (0..p.num_clients()).collect();
        order.sort_by(|&a, &b| {
            regret(b)
                .partial_cmp(&regret(a))
                .expect("finite")
                .then(a.cmp(&b))
        });
        let mut remaining = p.capacities.clone();
        let mut choice = vec![0usize; p.num_clients()];
        for &c in &order {
            let mut best: Option<(usize, f64)> = None;
            for (i, o) in p.options[c].iter().enumerate() {
                if o.load <= remaining[o.bucket] && best.map_or(true, |(_, v)| o.value > v) {
                    best = Some((i, o.value));
                }
            }
            let pick = best.map(|(i, _)| i).unwrap_or_else(|| {
                (0..p.options[c].len())
                    .min_by(|&a, &b| {
                        let (oa, ob) = (p.options[c][a], p.options[c][b]);
                        let ra = overload_ratio(oa, &remaining, &p.capacities);
                        let rb = overload_ratio(ob, &remaining, &p.capacities);
                        ra.partial_cmp(&rb)
                            .expect("finite")
                            .then(ob.value.partial_cmp(&oa.value).expect("finite"))
                    })
                    .expect("client has options")
            });
            let o = p.options[c][pick];
            remaining[o.bucket] -= o.load;
            choice[c] = pick;
        }
        let objective = p.value_of(&choice);
        Assignment { choice, objective }
    }

    #[test]
    fn greedy_equals_the_comparator_time_regret_reference() {
        use vdx_rand::prop::{check, vec_of};
        // Values from a palette of eight (signed zeros included), so tied
        // regrets and duplicated top values are the common case; one
        // bucket in four is too small for any load drawn.
        const VALUES: [f64; 8] = [-3.5, -0.0, 0.0, 1.0, 1.0, 2.5, 7.0, 1e6];
        check(
            256,
            |rng| {
                let buckets = rng.gen_range(1usize..6);
                let capacities = (0..buckets)
                    .map(|_| {
                        if rng.gen_bool(0.25) {
                            Kbps::new(0.5)
                        } else {
                            Kbps::new(rng.gen_range(2.0..30.0))
                        }
                    })
                    .collect();
                let mut p = AssignmentProblem::new(capacities);
                for _ in 0..rng.gen_range(1usize..24) {
                    p.add_client(vec_of(rng, 1..7, |r| {
                        opt(
                            r.gen_range(0..buckets),
                            VALUES[r.gen_range(0..VALUES.len())],
                            r.gen_range(1.0..6.0),
                        )
                    }));
                }
                p
            },
            |p| {
                let (new, old) = (p.solve_greedy(), greedy_with_comparator_time_regret(p));
                assert_eq!(new.choice, old.choice);
                assert_eq!(new.objective.to_bits(), old.objective.to_bits());
            },
        );
    }

    #[test]
    fn local_search_improves_bad_start() {
        let mut p = AssignmentProblem::new(caps(&[10.0, 10.0]));
        p.add_client(vec![opt(0, 1.0, 2.0), opt(1, 9.0, 2.0)]);
        let start = Assignment {
            choice: vec![0],
            objective: 1.0,
        };
        let improved = p.improve_local(start, 4);
        assert_eq!(improved.choice, vec![1]);
        assert_eq!(improved.objective, 9.0);
    }

    #[test]
    fn local_search_respects_capacity() {
        let mut p = AssignmentProblem::new(caps(&[2.0, 10.0]));
        p.add_client(vec![opt(0, 9.0, 2.0), opt(1, 5.0, 2.0)]);
        p.add_client(vec![opt(0, 9.0, 2.0), opt(1, 5.0, 2.0)]);
        let a = p.solve_heuristic();
        assert!(p.respects_capacities(&a.choice, Kbps::new(1e-9)));
        assert_eq!(a.objective, 14.0); // one on each bucket
    }

    #[test]
    fn exact_matches_brute_force_small() {
        let mut p = AssignmentProblem::new(caps(&[5.0, 5.0, 5.0]));
        p.add_client(vec![opt(0, 4.0, 3.0), opt(1, 3.0, 3.0), opt(2, 1.0, 3.0)]);
        p.add_client(vec![opt(0, 4.0, 3.0), opt(1, 2.0, 3.0), opt(2, 1.0, 3.0)]);
        p.add_client(vec![opt(0, 5.0, 3.0), opt(1, 2.0, 3.0), opt(2, 2.0, 3.0)]);
        let exact = p.solve_exact(&MilpConfig::default()).expect("solvable");
        // Brute force.
        let mut best = f64::MIN;
        for a in 0..3 {
            for b in 0..3 {
                for c in 0..3 {
                    let choice = vec![a, b, c];
                    if p.respects_capacities(&choice, Kbps::new(1e-9)) {
                        best = best.max(p.value_of(&choice));
                    }
                }
            }
        }
        assert!(
            (exact.objective - best).abs() < 1e-6,
            "{} vs {}",
            exact.objective,
            best
        );
        assert!(p.respects_capacities(&exact.choice, Kbps::new(1e-6)));
    }

    #[test]
    fn heuristic_close_to_exact_on_random_instances() {
        use vdx_rand::StdRng;
        let mut rng = StdRng::seed_from_u64(21);
        let mut total_gap = 0.0;
        for _ in 0..20 {
            let buckets = rng.gen_range(2..5);
            let mut p = AssignmentProblem::new(
                (0..buckets)
                    .map(|_| Kbps::new(rng.gen_range(5.0..20.0)))
                    .collect(),
            );
            let clients = rng.gen_range(3..8);
            for _ in 0..clients {
                let k = rng.gen_range(1..=buckets);
                let opts: Vec<CandidateOption> = (0..k)
                    .map(|b| opt(b, rng.gen_range(0.0..10.0), rng.gen_range(1.0..4.0)))
                    .collect();
                p.add_client(opts);
            }
            let heur = p.solve_heuristic();
            if let Some(exact) = p.solve_exact(&MilpConfig::default()) {
                // The heuristic may overload capacity as a last resort (a
                // broker must place every client); only a *feasible*
                // heuristic solution is bounded by the exact optimum.
                if p.respects_capacities(&heur.choice, Kbps::new(1e-9)) {
                    assert!(heur.objective <= exact.objective + 1e-6);
                    if exact.objective.abs() > 1e-9 {
                        total_gap += (exact.objective - heur.objective) / exact.objective.abs();
                    }
                }
            }
        }
        // Average optimality gap should be modest on these easy instances.
        assert!(total_gap / 20.0 < 0.15, "avg gap {}", total_gap / 20.0);
    }

    #[test]
    fn bucket_loads_accounting() {
        let mut p = AssignmentProblem::new(caps(&[10.0, 10.0]));
        p.add_client(vec![opt(0, 1.0, 3.0)]);
        p.add_client(vec![opt(0, 1.0, 4.0), opt(1, 1.0, 4.0)]);
        let loads = p.bucket_loads(&[0, 1]);
        assert_eq!(loads, vec![Kbps::new(3.0), Kbps::new(4.0)]);
    }

    #[test]
    #[should_panic(expected = "at least one option")]
    fn empty_options_panics() {
        AssignmentProblem::new(caps(&[1.0])).add_client(vec![]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_bucket_panics() {
        AssignmentProblem::new(caps(&[1.0])).add_client(vec![opt(5, 1.0, 1.0)]);
    }

    #[test]
    fn exact_with_stats_reports_effort_and_tight_gap() {
        use crate::stats::SolveStats;
        let mut p = AssignmentProblem::new(caps(&[5.0, 5.0]));
        p.add_client(vec![opt(0, 4.0, 3.0), opt(1, 3.0, 3.0)]);
        p.add_client(vec![opt(0, 4.0, 3.0), opt(1, 2.0, 3.0)]);
        let mut stats = SolveStats::new();
        let exact = p
            .solve_exact_with_stats(&MilpConfig::default(), &mut stats)
            .expect("solvable");
        let plain = p.solve_exact(&MilpConfig::default()).expect("solvable");
        assert_eq!(
            exact, plain,
            "stats variant changes nothing about the answer"
        );
        assert!(stats.bnb_nodes >= 1);
        let bound = stats.best_bound.expect("root solved");
        assert!(bound >= exact.objective - 1e-9);
    }

    #[test]
    fn delta_counts_changed_clients_and_buckets_and_flags_shape_changes() {
        let mut p = AssignmentProblem::new(caps(&[10.0, 10.0]));
        p.add_client(vec![opt(0, 5.0, 4.0), opt(1, 3.0, 4.0)]);
        p.add_client(vec![opt(0, 5.0, 4.0), opt(1, 3.0, 4.0)]);
        p.add_client(vec![opt(0, 2.0, 4.0), opt(1, 4.0, 4.0)]);
        assert!(ProblemDelta::between(&p, &p.clone()).is_empty());

        let mut nudged = p.clone();
        nudged.options[1][0].value = 6.5;
        nudged.capacities[1] = Kbps::new(9.0);
        let delta = ProblemDelta::between(&p, &nudged);
        assert_eq!((delta.changed_clients, delta.changed_buckets), (1, 1));
        assert!(!delta.shape_changed && !delta.is_empty());

        let mut bigger = p.clone();
        bigger.add_client(vec![opt(0, 1.0, 1.0)]);
        let delta = ProblemDelta::between(&p, &bigger);
        assert_eq!(delta, ProblemDelta::everything(&bigger));
        assert!(delta.shape_changed);
        assert_eq!((delta.changed_clients, delta.changed_buckets), (4, 2));
    }
}
