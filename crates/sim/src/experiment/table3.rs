//! Table 3: the design-space comparison — Cost, Score, Distance, Load and
//! Congested for all eight designs over one data-driven decision round.
//!
//! Paper values (medians; lower is better):
//!
//! | design | Cost | Score | Distance | Load | Congested |
//! |---|---|---|---|---|---|
//! | Brokered | 136 | 132 | 297 | 9% | 0% |
//! | Multicluster (2) | 155 | 87 | 194 | 14% | 27% |
//! | Multicluster (100) | 171 | 85 | 141 | 20% | 39% |
//! | DynamicPricing | 126 | 148 | 318 | 11% | 0% |
//! | DynamicMulticluster | 115 | 122 | 219 | 40% | 14% |
//! | BestLookup | 94 | 108 | 166 | 14% | 14% |
//! | Marketplace | 93 | 112 | 178 | 23% | 0% |
//! | Omniscient | 86 | 111 | 172 | 48% | 0% |
//!
//! Absolute units differ (the authors' cost unit is theirs); the
//! reproduction target is the ordering and the zero/non-zero congestion
//! pattern.

use crate::engine::{run_rounds, run_series, RoundSpec};
use crate::metrics::{compute, DesignMetrics, MetricsInput};
use crate::report::{fmt, render_table};
use crate::scenario::Scenario;
use vdx_broker::CpPolicy;
use vdx_core::{Design, RoundOutcome};

/// Table 3 results.
#[derive(Debug, Clone)]
pub struct Table3Result {
    /// `(design name, metrics)` in the paper's row order.
    pub rows: Vec<(String, DesignMetrics)>,
}

/// Runs all eight designs (one independent round each, fanned out by the
/// [`engine`](crate::engine); row order is the paper's regardless of
/// schedule). Each round is reduced to its row as it finishes.
pub fn run(scenario: &Scenario) -> Table3Result {
    let rows = run_rounds(scenario, &specs(1), |spec, outcome| {
        row(scenario, spec, outcome)
    });
    Table3Result { rows }
}

/// The eight rounds behind [`run`] — or the first round of each of
/// [`run_multi`]'s series — in the paper's row order, under the balanced
/// policy: design `i` is `Design::TABLE3[i]`, from round id `i · stride`.
pub(crate) fn specs(stride: u64) -> Vec<RoundSpec> {
    (Design::TABLE3.iter().enumerate())
        .map(|(i, &design)| RoundSpec::new(i as u64 * stride, design, CpPolicy::balanced()))
        .collect()
}

fn row(scenario: &Scenario, spec: &RoundSpec, outcome: RoundOutcome) -> (String, DesignMetrics) {
    let metrics = compute(&MetricsInput {
        scenario,
        outcome: &outcome,
    });
    (spec.design.name(), metrics)
}

/// [`run`] over `rounds` consecutive decision rounds per design — the
/// round hot loop the warm-start layer targets.
///
/// Each design is one series sharing one warm-start context: round ids
/// `i·rounds ..< (i+1)·rounds` for design `i`, journaled in that order.
/// The scenario is static across a series, so rounds after the first are
/// warm-eligible and (with `reuse` on) short-circuit their Optimize step.
/// The reported metrics come from each design's *last* round, which is
/// bit-identical to its first — so the rendered Table 3 matches
/// [`run`]'s regardless of `rounds` or `reuse` (`reuse = false` is the
/// `--solver-cold` reference path and must also journal identically).
pub fn run_multi(scenario: &Scenario, rounds: u64, reuse: bool) -> Table3Result {
    let rows = run_series(scenario, &specs(rounds), rounds, reuse, |spec, outcome| {
        row(scenario, spec, outcome)
    });
    Table3Result { rows }
}

/// Renders the result.
pub fn render(result: &Table3Result) -> String {
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|(name, m)| {
            vec![
                name.clone(),
                fmt(m.cost),
                fmt(m.score),
                fmt(m.distance_miles),
                format!("{:.0}%", m.load_pct),
                format!("{:.0}%", m.congested_pct),
            ]
        })
        .collect();
    render_table(
        "Table 3: design comparison (medians; lower is better)",
        &["design", "Cost", "Score", "Distance", "Load", "Congested"],
        &rows,
    )
}

/// Convenience accessor by design name; `None` when the table has no
/// row under that name.
pub fn metrics_of<'a>(result: &'a Table3Result, name: &str) -> Option<&'a DesignMetrics> {
    result.rows.iter().find(|(n, _)| n == name).map(|(_, m)| m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_reproduces_paper_orderings() {
        let s: &Scenario = crate::scenario::shared_small();
        let r = run(s);
        assert_eq!(r.rows.len(), 8);
        let brokered = metrics_of(&r, "Brokered").expect("row exists");
        let multicluster100 = metrics_of(&r, "Multicluster (100)").expect("row exists");
        let marketplace = metrics_of(&r, "Marketplace").expect("row exists");
        let omniscient = metrics_of(&r, "Omniscient").expect("row exists");

        // Multicluster buys performance (score/distance) over Brokered.
        assert!(multicluster100.score <= brokered.score);
        assert!(multicluster100.distance_miles <= brokered.distance_miles);
        // Marketplace is cheaper than Brokered.
        assert!(marketplace.cost < brokered.cost);
        // Marketplace never congests; blind Multicluster can.
        assert_eq!(marketplace.congested_pct, 0.0);
        assert!(multicluster100.congested_pct >= marketplace.congested_pct);
        // Omniscient is the cost lower bound across the table.
        for (name, m) in &r.rows {
            assert!(
                omniscient.cost <= m.cost + 1e-9,
                "Omniscient ({}) undercut by {name} ({})",
                omniscient.cost,
                m.cost
            );
        }
        assert!(render(&r).contains("Marketplace"));
    }

    #[test]
    fn multi_round_table3_renders_identically_to_single_round() {
        let s: &Scenario = crate::scenario::shared_small();
        let single = render(&run(s));
        let warm = render(&run_multi(s, 3, true));
        let cold = render(&run_multi(s, 3, false));
        assert_eq!(single, warm, "warm multi-round table matches single");
        assert_eq!(warm, cold, "warm and cold strategies render identically");
    }
}
