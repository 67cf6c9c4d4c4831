//! Branch-and-bound mixed-integer programming over the simplex relaxation.
//!
//! Depth-first branch and bound with best-incumbent pruning, branching on
//! the most fractional integer variable. Exact (within tolerance) when it
//! runs to completion; a node budget turns it into an anytime solver that
//! reports whether optimality was proven — mirroring how a real broker
//! would bound its decision latency.

use crate::model::{LinearProgram, Relation};
use crate::simplex::{solve_lp_with_stats, LpOutcome};
use crate::stats::SolveStats;

/// Integrality tolerance: a value within this of an integer counts as one.
pub const INT_TOL: f64 = 1e-6;

/// Branch-and-bound configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MilpConfig {
    /// Maximum number of LP relaxations to solve before giving up and
    /// returning the incumbent (with `proven_optimal = false`).
    pub node_limit: usize,
}

impl Default for MilpConfig {
    fn default() -> Self {
        MilpConfig {
            node_limit: 100_000,
        }
    }
}

/// Result of a MILP solve.
#[derive(Debug, Clone)]
pub enum MilpOutcome {
    /// A feasible integer solution was found.
    Solved {
        /// Objective value in the problem's own sense.
        objective: f64,
        /// Variable values (integer variables are integral within tolerance).
        values: Vec<f64>,
        /// Whether the search proved optimality (node budget not exhausted).
        proven_optimal: bool,
    },
    /// No feasible integer point exists (or none found within budget and
    /// the relaxation is infeasible).
    Infeasible,
    /// The relaxation is unbounded.
    Unbounded,
}

impl MilpOutcome {
    /// The values if solved.
    pub fn values(&self) -> Option<&[f64]> {
        match self {
            MilpOutcome::Solved { values, .. } => Some(values),
            _ => None,
        }
    }

    /// The objective if solved.
    pub fn objective(&self) -> Option<f64> {
        match self {
            MilpOutcome::Solved { objective, .. } => Some(*objective),
            _ => None,
        }
    }
}

/// Solves `lp` with the variables in `integer_vars` restricted to integers.
///
/// # Panics
/// Panics if an index in `integer_vars` is out of range.
pub fn solve_milp(lp: &LinearProgram, integer_vars: &[usize], config: &MilpConfig) -> MilpOutcome {
    let mut stats = SolveStats::new();
    solve_milp_with_stats(lp, integer_vars, config, &mut stats)
}

/// Solves `lp` as [`solve_milp`] does, additionally accumulating search
/// effort into `stats`: every LP relaxation solved counts one
/// branch-and-bound node (and its simplex pivots), and the root
/// relaxation's objective is recorded as [`SolveStats::best_bound`] —
/// branching only tightens it, so it bounds the true optimum throughout.
///
/// # Panics
/// Panics if an index in `integer_vars` is out of range.
pub fn solve_milp_with_stats(
    lp: &LinearProgram,
    integer_vars: &[usize],
    config: &MilpConfig,
    stats: &mut SolveStats,
) -> MilpOutcome {
    for &v in integer_vars {
        assert!(v < lp.num_vars, "integer variable {v} out of range");
    }
    let mut is_int = vec![false; lp.num_vars];
    for &v in integer_vars {
        is_int[v] = true;
    }

    // Each stack entry is a problem with extra bound rows.
    let mut stack: Vec<LinearProgram> = vec![lp.clone()];
    let mut incumbent: Option<(f64, Vec<f64>)> = None;
    let mut nodes = 0usize;
    let sign = if lp.maximize { 1.0 } else { -1.0 };
    let mut exhausted = false;

    while let Some(problem) = stack.pop() {
        if nodes >= config.node_limit {
            exhausted = true;
            break;
        }
        nodes += 1;
        stats.bnb_nodes += 1;
        let relax = solve_lp_with_stats(&problem, stats);
        let sol = match relax {
            LpOutcome::Optimal(s) => s,
            LpOutcome::Infeasible => continue,
            LpOutcome::Unbounded => {
                // Unbounded relaxation at the root means an unbounded MILP
                // (for our problem class); deeper nodes only tighten bounds,
                // so report it directly.
                return MilpOutcome::Unbounded;
            }
        };
        if nodes == 1 {
            // The root relaxation bounds the optimum for the whole search.
            stats.best_bound = Some(sol.objective);
        }
        // Prune: relaxation cannot beat the incumbent.
        if let Some((best, _)) = &incumbent {
            if sign * sol.objective <= sign * *best + 1e-9 {
                continue;
            }
        }
        // Find most fractional integer variable.
        let frac_var = is_int
            .iter()
            .enumerate()
            .filter(|&(i, &ii)| ii && frac(sol.values[i]) > INT_TOL)
            .max_by(|a, b| {
                let fa = (frac(sol.values[a.0]) - 0.5).abs();
                let fb = (frac(sol.values[b.0]) - 0.5).abs();
                fb.partial_cmp(&fa).expect("finite")
            })
            .map(|(i, _)| i);
        match frac_var {
            None => {
                // Integral: new incumbent.
                let obj = sol.objective;
                let better = match &incumbent {
                    None => true,
                    Some((best, _)) => sign * obj > sign * *best,
                };
                if better {
                    incumbent = Some((obj, sol.values));
                }
            }
            Some(v) => {
                let x = sol.values[v];
                let floor = x.floor();
                // Branch down: x <= floor.
                let mut down = problem.clone();
                down.add_constraint(vec![(v, 1.0)], Relation::Le, floor);
                // Branch up: x >= floor + 1.
                let mut up = problem;
                up.add_constraint(vec![(v, 1.0)], Relation::Ge, floor + 1.0);
                // DFS: push "up" first so "down" explores first (bias toward
                // zeros, which suits assignment problems).
                stack.push(up);
                stack.push(down);
            }
        }
    }

    match incumbent {
        Some((objective, values)) => MilpOutcome::Solved {
            objective,
            values,
            proven_optimal: !exhausted,
        },
        None => MilpOutcome::Infeasible,
    }
}

fn frac(x: f64) -> f64 {
    (x - x.round()).abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearProgram, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn knapsack_small() {
        // max 10a + 13b + 7c, 3a + 4b + 2c <= 6, binary => a=0? Check all:
        // items (v,w): a(10,3) b(13,4) c(7,2); capacity 6.
        // {a,c}: v=17 w=5 ok; {b,c}: v=20 w=6 ok; best = 20.
        let mut lp = LinearProgram::maximize(3);
        lp.set_objective(0, 10.0)
            .set_objective(1, 13.0)
            .set_objective(2, 7.0);
        for i in 0..3 {
            lp.set_upper_bound(i, 1.0);
        }
        lp.add_constraint(vec![(0, 3.0), (1, 4.0), (2, 2.0)], Relation::Le, 6.0);
        let out = solve_milp(&lp, &[0, 1, 2], &MilpConfig::default());
        match out {
            MilpOutcome::Solved {
                objective,
                values,
                proven_optimal,
            } => {
                assert_close(objective, 20.0);
                assert!(proven_optimal);
                assert_close(values[1], 1.0);
                assert_close(values[2], 1.0);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn integrality_changes_the_answer() {
        // max x, 2x <= 5: LP gives 2.5; integer gives 2.
        let mut lp = LinearProgram::maximize(1);
        lp.set_objective(0, 1.0);
        lp.add_constraint(vec![(0, 2.0)], Relation::Le, 5.0);
        let out = solve_milp(&lp, &[0], &MilpConfig::default());
        assert_close(out.objective().expect("solved"), 2.0);
    }

    #[test]
    fn infeasible_milp() {
        // 0.4 <= x <= 0.6, x integer.
        let mut lp = LinearProgram::maximize(1);
        lp.set_objective(0, 1.0);
        lp.add_constraint(vec![(0, 1.0)], Relation::Ge, 0.4);
        lp.add_constraint(vec![(0, 1.0)], Relation::Le, 0.6);
        assert!(matches!(
            solve_milp(&lp, &[0], &MilpConfig::default()),
            MilpOutcome::Infeasible
        ));
    }

    #[test]
    fn unbounded_milp() {
        let mut lp = LinearProgram::maximize(1);
        lp.set_objective(0, 1.0);
        assert!(matches!(
            solve_milp(&lp, &[0], &MilpConfig::default()),
            MilpOutcome::Unbounded
        ));
    }

    #[test]
    fn mixed_integer_and_continuous() {
        // max 2x + y, x integer, x + y <= 3.5, y <= 1.2:
        // best x = 2 (then y <= 1.2 within 3.5 - 2 = 1.5) => obj 5.2;
        // x = 3 forces y <= 0.5 => obj 6.5. So x=3, y=0.5.
        let mut lp = LinearProgram::maximize(2);
        lp.set_objective(0, 2.0).set_objective(1, 1.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 3.5);
        lp.set_upper_bound(1, 1.2);
        let out = solve_milp(&lp, &[0], &MilpConfig::default());
        match out {
            MilpOutcome::Solved {
                objective, values, ..
            } => {
                assert_close(objective, 6.5);
                assert_close(values[0], 3.0);
                assert_close(values[1], 0.5);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn assignment_problem_exact() {
        // 2 clients x 2 clusters, binary assignment, each client exactly one
        // cluster, cluster capacity 1 each. Values: c0: (5, 1), c1: (4, 2).
        // Both prefer cluster 0 but capacity forces a split: best total is
        // 5 + 2 = 7 (c0->cl0, c1->cl1).
        let mut lp = LinearProgram::maximize(4); // x[c][k] = var 2c + k
        lp.set_objective(0, 5.0)
            .set_objective(1, 1.0)
            .set_objective(2, 4.0)
            .set_objective(3, 2.0);
        for v in 0..4 {
            lp.set_upper_bound(v, 1.0);
        }
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 1.0);
        lp.add_constraint(vec![(2, 1.0), (3, 1.0)], Relation::Eq, 1.0);
        lp.add_constraint(vec![(0, 1.0), (2, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(1, 1.0), (3, 1.0)], Relation::Le, 1.0);
        let out = solve_milp(&lp, &[0, 1, 2, 3], &MilpConfig::default());
        assert_close(out.objective().expect("solved"), 7.0);
    }

    #[test]
    fn node_limit_yields_unproven_incumbent() {
        // A problem needing a few branches; with node_limit=1 the root
        // relaxation is fractional and no incumbent exists => Infeasible
        // reported only if no integer point was found; with limit 2-3 we may
        // find one unproven. Use a loose check.
        let mut lp = LinearProgram::maximize(3);
        for i in 0..3 {
            lp.set_objective(i, 1.0 + i as f64 * 0.3);
            lp.set_upper_bound(i, 1.0);
        }
        lp.add_constraint(vec![(0, 2.0), (1, 2.0), (2, 2.0)], Relation::Le, 3.0);
        let full = solve_milp(&lp, &[0, 1, 2], &MilpConfig::default());
        let full_obj = full.objective().expect("solved");
        let limited = solve_milp(&lp, &[0, 1, 2], &MilpConfig { node_limit: 3 });
        if let MilpOutcome::Solved {
            objective,
            proven_optimal,
            ..
        } = limited
        {
            assert!(objective <= full_obj + 1e-9);
            let _ = proven_optimal; // may or may not be proven at this size
        }
    }

    #[test]
    fn milp_matches_lp_when_lp_is_integral() {
        // Totally unimodular constraint matrix (assignment): LP relaxation
        // is already integral, so MILP == LP.
        let mut lp = LinearProgram::maximize(2);
        lp.set_objective(0, 3.0).set_objective(1, 1.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 1.0);
        let milp = solve_milp(&lp, &[0, 1], &MilpConfig::default());
        let lp_sol = crate::simplex::solve_lp(&lp);
        assert_close(
            milp.objective().expect("solved"),
            lp_sol.optimal().expect("optimal").objective,
        );
    }

    #[test]
    fn stats_variant_counts_nodes_and_bounds_the_optimum() {
        use crate::stats::SolveStats;
        // Knapsack from above: the LP relaxation is fractional, so the
        // search must branch (> 1 node) and the root bound dominates.
        let mut lp = LinearProgram::maximize(3);
        lp.set_objective(0, 10.0)
            .set_objective(1, 13.0)
            .set_objective(2, 7.0);
        for i in 0..3 {
            lp.set_upper_bound(i, 1.0);
        }
        lp.add_constraint(vec![(0, 3.0), (1, 4.0), (2, 2.0)], Relation::Le, 6.0);
        let mut stats = SolveStats::new();
        let out = solve_milp_with_stats(&lp, &[0, 1, 2], &MilpConfig::default(), &mut stats);
        let objective = out.objective().expect("solved");
        assert_close(objective, 20.0);
        assert!(stats.bnb_nodes > 1, "fractional root must branch");
        assert!(
            stats.pivots >= stats.bnb_nodes,
            "every node pivots at least once here"
        );
        let bound = stats.best_bound.expect("root relaxation solved");
        assert!(
            bound >= objective - 1e-9,
            "bound {bound} dominates {objective}"
        );
        let gap = stats.optimality_gap(objective).expect("bound set");
        assert!(
            (0.0..0.2).contains(&gap),
            "small gap on a tiny knapsack, got {gap}"
        );
    }
}
