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

use crate::engine::{run_rounds, RoundSpec};
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
    let rows = run_rounds(scenario, &specs(), |spec, outcome| {
        row(scenario, spec, outcome)
    });
    Table3Result { rows }
}

/// The eight rounds behind [`run`], in the paper's row order, under the
/// balanced policy: round `i` runs `Design::TABLE3[i]`.
pub(crate) fn specs() -> Vec<RoundSpec> {
    (Design::TABLE3.iter().enumerate())
        .map(|(i, &design)| RoundSpec::new(i as u64, design, CpPolicy::balanced()))
        .collect()
}

fn row(scenario: &Scenario, spec: &RoundSpec, outcome: RoundOutcome) -> (String, DesignMetrics) {
    let metrics = compute(&MetricsInput {
        scenario,
        outcome: &outcome,
    });
    (spec.design.name(), metrics)
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

    /// Every bit of Table 3 on the small scenario: the seven fields of all
    /// eight rows, digested. `results/repro_full.txt` prints them rounded,
    /// so a change to a last bit (of Fig 18's means, say) shows only here.
    #[test]
    fn table3_bits_are_pinned() {
        const DIGEST: &str = "da3334d756eb8a02";
        let r = run(crate::scenario::shared_small());
        let fields = (r.rows.iter()).flat_map(|(_, m)| {
            [
                m.cost,
                m.score,
                m.distance_miles,
                m.load_pct,
                m.congested_pct,
                m.mean_cost,
                m.mean_score,
            ]
        });
        let bytes: Vec<u8> = fields.flat_map(|v| v.to_bits().to_le_bytes()).collect();
        assert_eq!(
            vdx_audit::model::content_hash(&bytes),
            DIGEST,
            "Table 3's bits moved; re-pin only with the reason stated in CHANGES.md"
        );
    }
}
