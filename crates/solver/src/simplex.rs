//! Dense two-phase primal simplex.
//!
//! A deliberately classical implementation (tableau form, Bland's rule):
//! clarity and guaranteed termination over speed, in the spirit of the
//! project's "simplicity and robustness" design goals. Problem sizes in VDX
//! are at most a few thousand variables — well within dense-tableau range.
//!
//! Phase 1 minimizes the sum of artificial variables to find a basic
//! feasible solution; phase 2 optimizes the real objective. Upper bounds
//! are lowered to explicit `≤` rows (simple, and cheap at our sizes).

use crate::model::{LinearProgram, Relation};
use crate::stats::SolveStats;

/// Numerical tolerance used throughout the solver.
pub const EPS: f64 = 1e-9;

/// An optimal LP solution.
#[derive(Debug, Clone)]
pub struct LpSolution {
    /// Objective value in the problem's own sense (max or min).
    pub objective: f64,
    /// Variable values.
    pub values: Vec<f64>,
}

/// Result of solving an LP.
#[derive(Debug, Clone)]
pub enum LpOutcome {
    /// An optimal solution was found.
    Optimal(LpSolution),
    /// The constraints admit no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
}

impl LpOutcome {
    /// The solution if optimal.
    pub fn optimal(&self) -> Option<&LpSolution> {
        match self {
            LpOutcome::Optimal(s) => Some(s),
            _ => None,
        }
    }
}

/// Solves a linear program. See module docs for method.
pub fn solve_lp(lp: &LinearProgram) -> LpOutcome {
    let mut tableau = Tableau::build(lp);
    tableau.solve(lp)
}

/// Solves a linear program, adding the pivot count to `stats`. Identical
/// to [`solve_lp`] otherwise.
pub fn solve_lp_with_stats(lp: &LinearProgram, stats: &mut SolveStats) -> LpOutcome {
    let mut tableau = Tableau::build(lp);
    let outcome = tableau.solve(lp);
    stats.pivots += tableau.pivots;
    outcome
}

struct Tableau {
    /// `rows × (cols + 1)`; last column is the RHS.
    a: Vec<Vec<f64>>,
    /// Phase-2 cost row (minimization costs), length `cols + 1`.
    cost: Vec<f64>,
    /// Phase-1 cost row, length `cols + 1`.
    art_cost: Vec<f64>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// Total structural+slack columns (artificials live in `art_range`).
    cols: usize,
    /// Column range holding artificial variables.
    art_start: usize,
    n_orig: usize,
    /// Pivot operations performed so far (the solver's unit of work).
    pivots: u64,
}

impl Tableau {
    fn build(lp: &LinearProgram) -> Tableau {
        let n = lp.num_vars;
        // Expand upper bounds into extra `≤` rows.
        let mut rows: Vec<(Vec<f64>, Relation, f64)> = Vec::new();
        for c in &lp.constraints {
            let mut dense = vec![0.0; n];
            for &(i, a) in &c.coeffs {
                dense[i] = a;
            }
            rows.push((dense, c.relation, c.rhs));
        }
        for (i, ub) in lp.upper_bounds.iter().enumerate() {
            if let Some(ub) = ub {
                let mut dense = vec![0.0; n];
                dense[i] = 1.0;
                rows.push((dense, Relation::Le, *ub));
            }
        }
        // Normalise RHS to be non-negative.
        for (dense, rel, rhs) in &mut rows {
            if *rhs < 0.0 {
                for v in dense.iter_mut() {
                    *v = -*v;
                }
                *rhs = -*rhs;
                *rel = match rel {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
            }
        }

        let m = rows.len();
        // Column layout: [structural | slacks/surplus | artificials].
        let n_slack = rows
            .iter()
            .filter(|(_, r, _)| matches!(r, Relation::Le | Relation::Ge))
            .count();
        let n_art = rows
            .iter()
            .filter(|(_, r, _)| matches!(r, Relation::Ge | Relation::Eq))
            .count();
        let art_start = n + n_slack;
        let cols = n + n_slack + n_art;

        let mut a = vec![vec![0.0; cols + 1]; m];
        let mut basis = vec![0usize; m];
        let mut slack_idx = n;
        let mut art_idx = art_start;
        for (r, (dense, rel, rhs)) in rows.iter().enumerate() {
            a[r][..n].copy_from_slice(dense);
            a[r][cols] = *rhs;
            match rel {
                Relation::Le => {
                    a[r][slack_idx] = 1.0;
                    basis[r] = slack_idx;
                    slack_idx += 1;
                }
                Relation::Ge => {
                    a[r][slack_idx] = -1.0;
                    slack_idx += 1;
                    a[r][art_idx] = 1.0;
                    basis[r] = art_idx;
                    art_idx += 1;
                }
                Relation::Eq => {
                    a[r][art_idx] = 1.0;
                    basis[r] = art_idx;
                    art_idx += 1;
                }
            }
        }

        // Phase-2 costs: minimize (negate if the problem maximizes).
        let mut cost = vec![0.0; cols + 1];
        for (cost, &objective) in cost.iter_mut().zip(&lp.objective[..n]) {
            *cost = if lp.maximize { -objective } else { objective };
        }
        // Phase-1 costs: minimize the sum of artificials; expressed in terms
        // of the non-basic variables by subtracting the artificial rows.
        let mut art_cost = vec![0.0; cols + 1];
        art_cost[art_start..cols].fill(1.0);
        for (r, &b) in basis.iter().enumerate() {
            if b >= art_start {
                for cidx in 0..=cols {
                    art_cost[cidx] -= a[r][cidx];
                }
            }
        }
        // Make the phase-2 cost row consistent with the starting basis too
        // (basic slack columns have zero cost, so nothing to do there).

        Tableau {
            a,
            cost,
            art_cost,
            basis,
            cols,
            art_start,
            n_orig: n,
            pivots: 0,
        }
    }

    fn pivot(&mut self, row: usize, col: usize) {
        self.pivots += 1;
        let p = self.a[row][col];
        debug_assert!(p.abs() > EPS);
        for v in self.a[row].iter_mut() {
            *v /= p;
        }
        let pivot_row = self.a[row].clone();
        for r in 0..self.a.len() {
            if r != row {
                let f = self.a[r][col];
                if f.abs() > EPS {
                    for (v, pv) in self.a[r].iter_mut().zip(&pivot_row) {
                        *v -= f * pv;
                    }
                }
            }
        }
        for costs in [&mut self.cost, &mut self.art_cost] {
            let f = costs[col];
            if f.abs() > EPS {
                for (v, pv) in costs.iter_mut().zip(&pivot_row) {
                    *v -= f * pv;
                }
            }
        }
        self.basis[row] = col;
    }

    /// Runs simplex iterations on the given cost row.
    /// `allow_art`: whether artificial columns may enter the basis.
    /// Returns `false` if the objective is unbounded.
    fn iterate(&mut self, phase1: bool, allow_art: bool) -> bool {
        loop {
            // Bland's rule: entering column = lowest index with negative
            // reduced cost.
            let limit = if allow_art { self.cols } else { self.art_start };
            let costs = if phase1 { &self.art_cost } else { &self.cost };
            let entering = (0..limit).find(|&c| costs[c] < -EPS);
            let Some(col) = entering else {
                return true; // optimal
            };
            // Ratio test; tie-break by lowest basis index (Bland).
            let mut leave: Option<(usize, f64)> = None;
            for r in 0..self.a.len() {
                let arc = self.a[r][col];
                if arc > EPS {
                    let ratio = self.a[r][self.cols] / arc;
                    let better = match leave {
                        None => true,
                        Some((lr, lratio)) => {
                            ratio < lratio - EPS
                                || (ratio < lratio + EPS && self.basis[r] < self.basis[lr])
                        }
                    };
                    if better {
                        leave = Some((r, ratio));
                    }
                }
            }
            let Some((row, _)) = leave else {
                return false; // unbounded
            };
            self.pivot(row, col);
        }
    }

    fn solve(&mut self, lp: &LinearProgram) -> LpOutcome {
        // Phase 1 (only needed if artificials exist).
        if self.art_start < self.cols {
            if !self.iterate(true, true) {
                // Phase-1 objective is bounded below by 0; unbounded is
                // impossible, but guard anyway.
                return LpOutcome::Infeasible;
            }
            // -art_cost[cols] is the phase-1 optimum.
            if -self.art_cost[self.cols] > 1e-7 {
                return LpOutcome::Infeasible;
            }
            // Drive remaining artificials out of the basis where possible.
            for r in 0..self.a.len() {
                if self.basis[r] >= self.art_start {
                    if let Some(c) = (0..self.art_start).find(|&c| self.a[r][c].abs() > 1e-7) {
                        self.pivot(r, c);
                    }
                    // Otherwise the row is redundant (all-zero over real
                    // columns with zero RHS); it stays basic at level 0 and
                    // never pivots again.
                }
            }
        }
        // Phase 2.
        if !self.iterate(false, false) {
            return LpOutcome::Unbounded;
        }
        let mut values = vec![0.0; self.n_orig];
        for (r, &b) in self.basis.iter().enumerate() {
            if b < self.n_orig {
                values[b] = self.a[r][self.cols];
            }
        }
        // Clean tiny negatives produced by roundoff.
        for v in &mut values {
            if *v < 0.0 && *v > -1e-7 {
                *v = 0.0;
            }
        }
        let objective = lp.objective_value(&values);
        LpOutcome::Optimal(LpSolution { objective, values })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{LinearProgram, Relation};

    fn assert_close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn textbook_max_problem() {
        // max 3x + 2y  s.t. x + y <= 4, x + 3y <= 6  => x=4, y=0, obj 12.
        let mut lp = LinearProgram::maximize(2);
        lp.set_objective(0, 3.0).set_objective(1, 2.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(0, 1.0), (1, 3.0)], Relation::Le, 6.0);
        let sol = solve_lp(&lp);
        let s = sol.optimal().expect("optimal");
        assert_close(s.objective, 12.0);
        assert_close(s.values[0], 4.0);
        assert_close(s.values[1], 0.0);
    }

    #[test]
    fn interior_optimum() {
        // max x + y  s.t. x + 2y <= 4, 3x + y <= 6 => intersection (8/5, 6/5).
        let mut lp = LinearProgram::maximize(2);
        lp.set_objective(0, 1.0).set_objective(1, 1.0);
        lp.add_constraint(vec![(0, 1.0), (1, 2.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(0, 3.0), (1, 1.0)], Relation::Le, 6.0);
        let s = solve_lp(&lp);
        let s = s.optimal().expect("optimal");
        assert_close(s.objective, 8.0 / 5.0 + 6.0 / 5.0);
        assert_close(s.values[0], 8.0 / 5.0);
        assert_close(s.values[1], 6.0 / 5.0);
    }

    #[test]
    fn minimization_with_ge() {
        // min 2x + 3y  s.t. x + y >= 4, x >= 1 => x=4 (cheapest), y=0? Check:
        // cost 2 per unit x is cheaper than 3 per y, so x=4,y=0, obj 8.
        let mut lp = LinearProgram::minimize(2);
        lp.set_objective(0, 2.0).set_objective(1, 3.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Ge, 4.0);
        lp.add_constraint(vec![(0, 1.0)], Relation::Ge, 1.0);
        let s = solve_lp(&lp);
        let s = s.optimal().expect("optimal");
        assert_close(s.objective, 8.0);
        assert_close(s.values[0], 4.0);
    }

    #[test]
    fn equality_constraints() {
        // max x + 2y  s.t. x + y = 3, x <= 2 => y=3-x; obj = x + 2(3-x) = 6-x
        // so x=0, y=3, obj 6.
        let mut lp = LinearProgram::maximize(2);
        lp.set_objective(0, 1.0).set_objective(1, 2.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Eq, 3.0);
        lp.set_upper_bound(0, 2.0);
        let s = solve_lp(&lp);
        let s = s.optimal().expect("optimal");
        assert_close(s.objective, 6.0);
        assert_close(s.values[1], 3.0);
    }

    #[test]
    fn infeasible_detected() {
        // x >= 5 and x <= 2.
        let mut lp = LinearProgram::maximize(1);
        lp.set_objective(0, 1.0);
        lp.add_constraint(vec![(0, 1.0)], Relation::Ge, 5.0);
        lp.add_constraint(vec![(0, 1.0)], Relation::Le, 2.0);
        assert!(matches!(solve_lp(&lp), LpOutcome::Infeasible));
    }

    #[test]
    fn unbounded_detected() {
        let mut lp = LinearProgram::maximize(2);
        lp.set_objective(0, 1.0);
        lp.add_constraint(vec![(1, 1.0)], Relation::Le, 1.0);
        assert!(matches!(solve_lp(&lp), LpOutcome::Unbounded));
    }

    #[test]
    fn upper_bounds_respected() {
        let mut lp = LinearProgram::maximize(1);
        lp.set_objective(0, 1.0);
        lp.set_upper_bound(0, 7.5);
        let s = solve_lp(&lp);
        let s = s.optimal().expect("optimal");
        assert_close(s.objective, 7.5);
    }

    #[test]
    fn negative_rhs_handled() {
        // x - y <= -1 with x,y >= 0: max x + y with y <= 3.
        // Feasible: y >= x + 1. Optimal: y=3, x=2, obj 5.
        let mut lp = LinearProgram::maximize(2);
        lp.set_objective(0, 1.0).set_objective(1, 1.0);
        lp.add_constraint(vec![(0, 1.0), (1, -1.0)], Relation::Le, -1.0);
        lp.set_upper_bound(1, 3.0);
        let s = solve_lp(&lp);
        let s = s.optimal().expect("optimal");
        assert_close(s.objective, 5.0);
        assert_close(s.values[0], 2.0);
        assert_close(s.values[1], 3.0);
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: multiple constraints active at the optimum.
        let mut lp = LinearProgram::maximize(2);
        lp.set_objective(0, 1.0).set_objective(1, 1.0);
        lp.add_constraint(vec![(0, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(1, 1.0)], Relation::Le, 1.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 2.0);
        lp.add_constraint(vec![(0, 1.0), (1, -1.0)], Relation::Le, 0.0);
        let s = solve_lp(&lp);
        assert_close(s.optimal().expect("optimal").objective, 2.0);
    }

    #[test]
    fn zero_constraint_problem() {
        // No constraints, bounded only by an upper bound.
        let mut lp = LinearProgram::maximize(2);
        lp.set_objective(0, 2.0);
        lp.set_upper_bound(0, 3.0);
        let s = solve_lp(&lp);
        assert_close(s.optimal().expect("optimal").objective, 6.0);
    }

    #[test]
    fn solution_is_feasible_for_random_problems() {
        use vdx_rand::StdRng;
        let mut rng = StdRng::seed_from_u64(17);
        for trial in 0..50 {
            let n = rng.gen_range(2..6);
            let m = rng.gen_range(1..5);
            let mut lp = LinearProgram::maximize(n);
            for i in 0..n {
                lp.set_objective(i, rng.gen_range(-2.0..3.0));
                lp.set_upper_bound(i, rng.gen_range(1.0..10.0));
            }
            for _ in 0..m {
                let coeffs: Vec<(usize, f64)> =
                    (0..n).map(|i| (i, rng.gen_range(0.0..2.0))).collect();
                lp.add_constraint(coeffs, Relation::Le, rng.gen_range(1.0..10.0));
            }
            match solve_lp(&lp) {
                LpOutcome::Optimal(s) => {
                    assert!(
                        lp.is_feasible(&s.values, 1e-6),
                        "trial {trial}: infeasible point"
                    );
                    // Objective must dominate the origin (always feasible here).
                    assert!(s.objective >= -1e-9, "trial {trial}");
                }
                other => panic!("trial {trial}: unexpected outcome {other:?}"),
            }
        }
    }

    #[test]
    fn stats_variant_counts_pivots_and_matches_plain_solve() {
        use crate::stats::SolveStats;
        let mut lp = LinearProgram::maximize(2);
        lp.set_objective(0, 3.0).set_objective(1, 2.0);
        lp.add_constraint(vec![(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
        lp.add_constraint(vec![(0, 1.0), (1, 3.0)], Relation::Le, 6.0);
        let mut stats = SolveStats::new();
        let with = solve_lp_with_stats(&lp, &mut stats);
        let plain = solve_lp(&lp);
        assert_close(
            with.optimal().expect("optimal").objective,
            plain.optimal().expect("optimal").objective,
        );
        assert!(stats.pivots >= 1, "a non-trivial LP pivots at least once");
        // Solving again accumulates rather than resets.
        let before = stats.pivots;
        let _ = solve_lp_with_stats(&lp, &mut stats);
        assert_eq!(stats.pivots, 2 * before);
    }
}
