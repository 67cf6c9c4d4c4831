//! The optimality gap of the broker's heuristic, per design.
//!
//! The paper's broker solves Fig 9's ILP with Gurobi; every round here
//! runs regret-greedy + local search. This experiment scores that
//! heuristic on the Table-3 rounds themselves: for each design, the
//! objective it reached against a Lagrangian dual bound on the optimum
//! of the same problem ([`vdx_broker::bound_assignment`]), plus how many
//! clusters the decision fills past 90 % of — and past — the capacity the
//! broker believed. A small gap says the design's Table-3 row is the
//! design's, not the solver's.
//!
//! The bound is an upper bound on the *integer* optimum, so the gap
//! column is heuristic slack plus duality gap, never less than the
//! former.

use crate::engine::run_rounds;
use crate::experiment::table3;
use crate::report::{fmt, render_table};
use crate::scenario::Scenario;
use vdx_broker::{bound_assignment, BoundReport};
use vdx_solver::gap::DUAL_ITERATIONS;

/// One design's row.
#[derive(Debug, Clone)]
pub struct GapRow {
    /// The design's Table-3 name.
    pub design: String,
    /// Fig 9 objective of the heuristic's assignment.
    pub objective: f64,
    /// The bound and the capacity counts.
    pub report: BoundReport,
}

impl GapRow {
    /// `(bound − objective) / |objective|` in percent; `None` when the
    /// assignment overloads a believed capacity (no bound applies).
    pub fn gap_pct(&self) -> Option<f64> {
        let bound = self.report.bound?;
        Some(100.0 * (bound - self.objective) / self.objective.abs().max(1e-12))
    }
}

/// Runs the eight Table-3 rounds and bounds each as it finishes.
pub fn run(scenario: &Scenario) -> Vec<GapRow> {
    run_rounds(scenario, &table3::specs(), |spec, outcome| GapRow {
        design: outcome.design.name(),
        objective: outcome.assignment.objective,
        report: bound_assignment(&outcome.problem, &spec.policy, &outcome.assignment),
    })
}

/// Renders the result.
pub fn render(rows: &[GapRow]) -> String {
    let rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.design.clone(),
                fmt(r.objective),
                r.report.bound.map_or("-".to_string(), fmt),
                r.gap_pct().map_or("-".to_string(), |g| format!("{g:.3}%")),
                r.report.clusters_above_90.to_string(),
                r.report.clusters_overloaded.to_string(),
            ]
        })
        .collect();
    let mut out = render_table(
        "Gap: the heuristic's objective vs. a dual bound on the optimum (Fig 9 units; higher is better)",
        &["design", "objective", "bound", "gap", ">90% full", "overloaded"],
        &rows,
    );
    out.push_str(&format!(
        "bound: Lagrangian dual of the believed-capacity rows, {DUAL_ITERATIONS} subgradient steps; \
         the paper's broker solves this ILP exactly (Gurobi)\n"
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_design_sits_under_its_bound_within_the_pinned_ceiling() {
        let s: &Scenario = crate::scenario::shared_small();
        let rows = run(s);
        assert_eq!(rows.len(), 8);
        for r in &rows {
            assert_eq!(r.report.clusters_overloaded, 0, "{}", r.design);
            let bound = r.report.bound.expect("feasible, so bounded");
            assert!(r.objective <= bound + 1e-9 * bound.abs(), "{}", r.design);
            let ceiling = match r.design.as_str() {
                "Multicluster (100)" | "DynamicPricing" | "DynamicMulticluster" => 3.0,
                _ => 0.25,
            };
            let gap = r.gap_pct().expect("bounded");
            assert!(gap <= ceiling, "{}: gap {gap}% over {ceiling}%", r.design);
        }
        assert!(render(&rows).contains("Omniscient"));
    }
}
