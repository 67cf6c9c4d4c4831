//! The broker's assignment problem (generalized assignment, GAP).
//!
//! This is the paper's Fig 9 ILP in structural form: every client picks
//! exactly one of its candidate options (client-to-cluster matchings), each
//! option has a *value* (the `wp·performance − wc·cost·bitrate` term) and a
//! *load* (the client's bitrate) against the option's capacity *bucket*
//! (the cluster). The broker maximizes total value subject to per-bucket
//! capacity.
//!
//! One solve path, and its oracle:
//!
//! * [`AssignmentProblem::solve_greedy`] — regret-ordered greedy: clients
//!   with the most to lose choose first; always produces a complete
//!   assignment (falling back to the least-overloading option when nothing
//!   fits, since a real broker must send every client *somewhere*).
//! * [`AssignmentProblem::improve_local`] — first-improvement local
//!   search on top of any assignment: single-client moves (no swaps).
//! * [`AssignmentProblem::dual_bound`] — a Lagrangian upper bound on the
//!   optimum, the number the heuristic is scored against at any scale
//!   (`repro gap`). The bound's own oracle is brute-force enumeration, in
//!   this module's tests.
//!
//! Capacity semantics: the capacities given here are what the broker
//! *believes* (designs differ in how accurate that belief is); true-capacity
//! congestion is measured downstream in `vdx-sim`.

use vdx_units::Kbps;

/// Subgradient steps [`AssignmentProblem::dual_bound`] takes: constants,
/// not knobs, so the gaps `repro gap` prints are a function of the problem.
/// At full scale the bound moves in no printed digit between 300 and 5,000.
pub const DUAL_ITERATIONS: usize = 300;
/// Steps without improvement before the step length is halved.
const DUAL_PATIENCE: u32 = 10;

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

    /// First-improvement local search: single-client moves (no two-client
    /// swaps), bounded by `max_rounds` full passes. Only accepts moves that
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

    /// An upper bound on the value of any capacity-respecting assignment:
    /// the Lagrangian dual of the capacity rows. For per-bucket prices
    /// `λ ≥ 0`, `Σ_clients max_o (value − λ[bucket]·load) + Σ_buckets
    /// λ·capacity` bounds the optimum whatever the prices are. The prices
    /// take [`DUAL_ITERATIONS`] projected-subgradient steps of Polyak
    /// length towards `incumbent` (the heuristic's objective: only the
    /// step length reads it, the bound holds for any value), halved
    /// whenever ten steps in a row bring no improvement (`DUAL_PATIENCE`); the
    /// smallest bound seen is returned. One pass over the options per
    /// step, deterministic in the problem. This is the heuristic's oracle
    /// (`repro gap`, tests); no round calls it.
    pub fn dual_bound(&self, incumbent: f64) -> f64 {
        let caps: Vec<f64> = self.capacities.iter().map(|c| c.as_f64()).collect();
        let mut price = vec![0.0f64; caps.len()];
        let mut slack = caps.clone();
        let (mut best, mut theta, mut stalled) = (f64::INFINITY, 1.0f64, 0u32);
        for _ in 0..DUAL_ITERATIONS {
            slack.copy_from_slice(&caps);
            let mut bound: f64 = price.iter().zip(&caps).map(|(l, c)| l * c).sum();
            for options in &self.options {
                let mut top = (f64::NEG_INFINITY, 0usize, 0.0f64);
                for o in options {
                    let reduced = o.value - price[o.bucket] * o.load.as_f64();
                    if reduced > top.0 {
                        top = (reduced, o.bucket, o.load.as_f64());
                    }
                }
                bound += top.0;
                slack[top.1] -= top.2;
            }
            if bound < best {
                (best, stalled) = (bound, 0);
            } else {
                stalled += 1;
                if stalled % DUAL_PATIENCE == 0 {
                    theta /= 2.0;
                }
            }
            // Projection: a free bucket with room to spare stays free.
            for (s, &l) in slack.iter_mut().zip(&price) {
                if l == 0.0 && *s > 0.0 {
                    *s = 0.0;
                }
            }
            let norm: f64 = slack.iter().map(|s| s * s).sum();
            if bound <= incumbent || norm == 0.0 {
                break;
            }
            let step = theta * (bound - incumbent) / norm;
            for (l, &s) in price.iter_mut().zip(&slack) {
                *l = (*l - step * s).max(0.0);
            }
        }
        best
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

    /// The optimum by enumeration — the oracle of both the heuristic and
    /// [`AssignmentProblem::dual_bound`]: the best value over every choice
    /// vector that respects the capacities, `None` when none does. Values
    /// are summed in client order, as [`AssignmentProblem::value_of`] does.
    fn brute_force_optimum(p: &AssignmentProblem) -> Option<f64> {
        fn descend(
            p: &AssignmentProblem,
            client: usize,
            loads: &mut [f64],
            value: f64,
            best: &mut Option<f64>,
        ) {
            let Some(options) = p.options.get(client) else {
                *best = Some(best.map_or(value, |b| b.max(value)));
                return;
            };
            for o in options {
                let before = loads[o.bucket];
                if before + o.load.as_f64() <= p.capacities[o.bucket].as_f64() + 1e-9 {
                    loads[o.bucket] = before + o.load.as_f64();
                    descend(p, client + 1, loads, value + o.value, best);
                    loads[o.bucket] = before;
                }
            }
        }
        let mut best = None;
        descend(p, 0, &mut vec![0.0; p.capacities.len()], 0.0, &mut best);
        best
    }

    /// `a ≤ b` up to rounding in sums of a few dozen terms.
    fn at_most(a: f64, b: f64) -> bool {
        a <= b + 1e-9 * a.abs().max(b.abs()).max(1.0)
    }

    #[test]
    fn brute_force_and_bound_on_a_hand_computed_case() {
        // Three clients of load 3 all prefer bucket 0, which has room for
        // one: giving it to client 2 is best (3 + 2 + 5 = 10, against 9
        // and 8). The relaxation also puts two thirds of client 1 there,
        // 7 + 3 + 2·⅔ = 11⅓, which is where the prices settle (3λ = 2).
        let mut p = AssignmentProblem::new(caps(&[5.0, 10.0]));
        p.add_client(vec![opt(0, 4.0, 3.0), opt(1, 3.0, 3.0)]);
        p.add_client(vec![opt(0, 4.0, 3.0), opt(1, 2.0, 3.0)]);
        p.add_client(vec![opt(0, 5.0, 3.0), opt(1, 2.0, 3.0)]);
        assert_eq!(brute_force_optimum(&p), Some(10.0));
        let bound = p.dual_bound(10.0);
        assert!(
            (34.0 / 3.0..34.0 / 3.0 + 0.01).contains(&bound),
            "bound {bound}"
        );
        // Nothing fits anywhere: no optimum, the bound is still a number.
        let mut none = AssignmentProblem::new(caps(&[1.0]));
        none.add_client(vec![opt(0, 1.0, 2.0)]);
        assert_eq!(brute_force_optimum(&none), None);
        assert!(none.dual_bound(1.0).is_finite());
    }

    /// A GAP small enough to enumerate (≤ 8 clients × ≤ 3 options) and
    /// built to be awkward: values from a palette, so ties are the common
    /// case; loads from a lumpy palette; one bucket in five fits nobody;
    /// and in half the cases the *last* bucket holds the best value of
    /// every client it is offered to and room for about half of them.
    fn awkward_gap(rng: &mut vdx_rand::StdRng) -> AssignmentProblem {
        const VALUES: [f64; 6] = [-40.0, -12.5, -12.5, -3.0, 0.0, 6.0];
        const LOADS: [f64; 4] = [1.0, 2.5, 4.0, 7.0];
        let buckets = rng.gen_range(2usize..6);
        let prized_last = rng.gen_bool(0.5);
        let mut capacities: Vec<f64> = (0..buckets)
            .map(|_| {
                if rng.gen_bool(0.2) {
                    0.5
                } else {
                    rng.gen_range(6.0..30.0)
                }
            })
            .collect();
        let clients: Vec<Vec<CandidateOption>> = (0..rng.gen_range(1usize..9))
            .map(|_| {
                let load = LOADS[rng.gen_range(0..LOADS.len())];
                vdx_rand::prop::vec_of(rng, 1..4, |r| {
                    let bucket = r.gen_range(0..buckets);
                    let value = if prized_last && bucket == buckets - 1 {
                        9.0
                    } else {
                        VALUES[r.gen_range(0..VALUES.len())]
                    };
                    opt(bucket, value, load)
                })
            })
            .collect();
        if prized_last {
            let wanted: f64 = clients
                .iter()
                .filter(|c| c.iter().any(|o| o.bucket == buckets - 1))
                .map(|c| c[0].load.as_f64())
                .sum();
            capacities[buckets - 1] = (wanted / 2.0).max(1.0);
        }
        let mut p = AssignmentProblem::new(caps(&capacities));
        for options in clients {
            p.add_client(options);
        }
        p
    }

    #[test]
    fn heuristic_at_most_optimum_at_most_dual_bound() {
        use std::cell::Cell;
        let (feasible, last_binds) = (Cell::new(0u32), Cell::new(0u32));
        vdx_rand::prop::check(2048, awkward_gap, |p| {
            let heur = p.solve_heuristic();
            let optimum = brute_force_optimum(p);
            if p.respects_capacities(&heur.choice, Kbps::new(1e-9)) {
                feasible.set(feasible.get() + 1);
                let optimum = optimum.expect("the heuristic's own answer is feasible");
                assert!(at_most(heur.objective, optimum), "{heur:?} over {optimum}");
            }
            let Some(optimum) = optimum else { return };
            let bound = p.dual_bound(heur.objective);
            assert!(at_most(optimum, bound), "optimum {optimum} over {bound}");
            // Only the step length may depend on the incumbent.
            assert!(at_most(optimum, p.dual_bound(optimum - 100.0)));
            assert!(at_most(optimum, p.dual_bound(optimum + 100.0)));
            // Does the last bucket bind? Lift its capacity and look again.
            let mut lifted = p.clone();
            lifted.capacities[p.capacities.len() - 1] = Kbps::new(1e9);
            if brute_force_optimum(&lifted).expect("a superset is feasible") > optimum + 1e-9 {
                last_binds.set(last_binds.get() + 1);
            }
        });
        // The family is not vacuous where it matters.
        assert!(feasible.get() >= 1000, "{} feasible", feasible.get());
        assert!(last_binds.get() >= 200, "{} last-bound", last_binds.get());
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
    fn overload_fallback_weighs_the_excess_against_the_capacity() {
        // Single-option fillers choose first (infinite regret) and leave
        // 2 of 10 and 1 of 100; the load-5 client fits neither. Bucket 0
        // would run 3 over (30 %), bucket 1 4 over (4 %): it goes to 1.
        let mut p = AssignmentProblem::new(caps(&[10.0, 100.0]));
        p.add_client(vec![opt(0, 0.0, 8.0)]);
        p.add_client(vec![opt(1, 0.0, 99.0)]);
        p.add_client(vec![opt(0, 9.0, 5.0), opt(1, 1.0, 5.0)]);
        assert_eq!(p.solve_greedy().choice, vec![0, 0, 1]);
        // The excess, not the load: 4 of 10 left (1 over, 10 %) beats
        // nothing of 20 left (5 over, 25 %), though 5/20 < 5/10.
        let mut p = AssignmentProblem::new(caps(&[10.0, 20.0]));
        p.add_client(vec![opt(0, 0.0, 6.0)]);
        p.add_client(vec![opt(1, 0.0, 20.0)]);
        p.add_client(vec![opt(0, 1.0, 5.0), opt(1, 9.0, 5.0)]);
        assert_eq!(p.solve_greedy().choice, vec![0, 0, 0]);
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
    fn local_search_frees_the_room_a_move_leaves_behind() {
        // Client 0 moves from bucket 0 to the empty bucket 1; only then
        // does client 1's better option, bucket 0, have room.
        let mut p = AssignmentProblem::new(caps(&[4.0, 4.0, 4.0]));
        p.add_client(vec![opt(0, 1.0, 4.0), opt(1, 5.0, 4.0)]);
        p.add_client(vec![opt(2, 1.0, 4.0), opt(0, 5.0, 4.0)]);
        let start = Assignment {
            choice: vec![0, 0],
            objective: 2.0,
        };
        let improved = p.improve_local(start, 4);
        assert_eq!(improved.choice, vec![1, 1]);
        assert_eq!(improved.objective, 10.0);
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
            // The heuristic may overload capacity as a last resort (a
            // broker must place every client); only a *feasible*
            // heuristic solution is bounded by the optimum.
            if p.respects_capacities(&heur.choice, Kbps::new(1e-9)) {
                let optimum = brute_force_optimum(&p).expect("the heuristic's answer is feasible");
                assert!(at_most(heur.objective, optimum));
                if optimum.abs() > 1e-9 {
                    total_gap += (optimum - heur.objective) / optimum.abs();
                }
            }
        }
        // Average optimality gap should be modest on these easy instances.
        assert!(total_gap / 20.0 < 0.15, "avg gap {}", total_gap / 20.0);
    }

    /// Every client is offered every bucket at a seed-derived integer
    /// value (moved here from the facade's `tests/properties.rs`, where
    /// the oracle was the MILP).
    #[test]
    fn feasible_heuristic_is_bounded_by_the_brute_force_optimum() {
        use vdx_rand::prop::{check, vec_of};
        check(
            64,
            |rng| {
                (
                    vec_of(rng, 2..4, |r| r.gen_range(3.0..20.0)),
                    vec_of(rng, 1..6, |r| r.gen_range(0.5..3.0)),
                    rng.next_u32(),
                )
            },
            |(capacities, client_loads, seed)| {
                let mut p = AssignmentProblem::new(caps(capacities));
                for (i, load) in client_loads.iter().enumerate() {
                    p.add_client(
                        (0..capacities.len())
                            .map(|b| opt(b, ((*seed as usize + i * 7 + b * 13) % 17) as f64, *load))
                            .collect(),
                    );
                }
                let heur = p.solve_heuristic();
                if p.respects_capacities(&heur.choice, Kbps::new(1e-9)) {
                    let optimum =
                        brute_force_optimum(&p).expect("the heuristic's answer is feasible");
                    assert!(at_most(heur.objective, optimum));
                }
            },
        );
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
