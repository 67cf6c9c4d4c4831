//! Table 1: "How often alternative CDN clusters with similar performance
//! scores exist" — within 25 % of the best score.
//!
//! Paper values: ≥1 alternative 77.8 %, ≥2 64.5 %, ≥3 53.7 %, ≥4 43.8 %
//! ("on average there are four server clusters (i.e., 3 alternative
//! choices) that have similar scores").
//!
//! The mapping data comes from one major, highly distributed CDN (§3.1) —
//! our fleet's CDN 1. Client cities are weighted by request count, like
//! scores in the real mapping data are weighted by client-block traffic.

use crate::report::render_table;
use crate::scenario::Scenario;
use vdx_cdn::CdnId;
use vdx_netsim::{alternatives_within, Score, SIMILARITY_MARGIN};

/// Table 1 results.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// `pct[k]` = percentage of clients with ≥ k+1 alternative clusters.
    pub pct_with_alternatives: [f64; 4],
    /// Mean number of alternatives per client.
    pub mean_alternatives: f64,
}

/// Runs the experiment.
pub fn run(scenario: &Scenario) -> Table1Result {
    let cdn = CdnId(0); // the highly distributed CDN — the paper's data source
    let sites: Vec<_> = scenario.fleet.clusters_of(cdn).map(|cl| cl.city).collect();
    let mut weighted: [f64; 4] = [0.0; 4];
    let mut total_weight = 0.0;
    let mut alt_sum = 0.0;
    for (city, requests) in scenario.trace.requests_per_city() {
        let scores: Vec<Score> = sites
            .iter()
            .map(|&site| scenario.score_of(city, site))
            .collect();
        let alts = alternatives_within(&scores, SIMILARITY_MARGIN);
        let w = requests as f64;
        for (k, slot) in weighted.iter_mut().enumerate() {
            if alts > k {
                *slot += w;
            }
        }
        alt_sum += alts as f64 * w;
        total_weight += w;
    }
    let pct = weighted.map(|w| 100.0 * w / total_weight.max(1e-9));
    Table1Result {
        pct_with_alternatives: pct,
        mean_alternatives: alt_sum / total_weight,
    }
}

/// Renders the result.
pub fn render(result: &Table1Result) -> String {
    let paper = [77.8, 64.5, 53.7, 43.8];
    let rows: Vec<Vec<String>> = (0..4)
        .map(|k| {
            vec![
                format!("{} alternative(s)", k + 1),
                format!("{:.1}%", result.pct_with_alternatives[k]),
                format!("{:.1}%", paper[k]),
            ]
        })
        .collect();
    let mut out = render_table(
        "Table 1: clients with alternative clusters within 25% of best",
        &["alternatives", "measured", "paper"],
        &rows,
    );
    out.push_str(&format!(
        "mean alternatives per client: {:.1} (paper: ~3)\n",
        result.mean_alternatives
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_alternatives_are_common_and_monotone() {
        let s: &Scenario = crate::scenario::shared_small();
        let r = run(s);
        // Monotone by construction.
        for k in 1..4 {
            assert!(r.pct_with_alternatives[k] <= r.pct_with_alternatives[k - 1]);
        }
        // The paper's core claim: alternatives exist for a majority of
        // clients, and several alternatives are common.
        assert!(
            r.pct_with_alternatives[0] > 50.0,
            ">=1 alternative for most clients, got {:.1}%",
            r.pct_with_alternatives[0]
        );
        assert!(r.mean_alternatives > 1.0, "mean {}", r.mean_alternatives);
        assert!(render(&r).contains("Table 1"));
    }
}
