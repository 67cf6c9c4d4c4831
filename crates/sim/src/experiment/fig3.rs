//! Fig 3: "Average cost per byte serving clients geolocated in various
//! countries relative to the average" — top-20 countries by traffic.
//!
//! Paper shape: bars from well under 100 % to ~400 %, an overall disparity
//! of up to ~30× between the cheapest and most expensive country.

use crate::report::render_table;
use crate::scenario::Scenario;
use vdx_trace::cost::{cost_disparity, top_country_costs, CountryCostRow};

/// Fig 3 results.
#[derive(Debug, Clone)]
pub struct Fig3Result {
    /// One row per country, descending by traffic.
    pub rows: Vec<CountryCostRow>,
    /// Max/min cost ratio across the rows.
    pub disparity: f64,
}

/// Runs the experiment.
pub fn run(scenario: &Scenario) -> Fig3Result {
    let rows = top_country_costs(&scenario.world, &scenario.trace, 20);
    let disparity = cost_disparity(&rows).unwrap_or(0.0);
    Fig3Result { rows, disparity }
}

/// Renders the result.
pub fn render(result: &Fig3Result) -> String {
    let rows: Vec<Vec<String>> = result
        .rows
        .iter()
        .map(|r| {
            vec![
                r.code.clone(),
                r.requests.to_string(),
                format!("{:.0}%", r.cost_vs_avg_pct),
            ]
        })
        .collect();
    let mut out = render_table(
        "Fig 3: per-country cost vs. average (top-20 by traffic)",
        &["country", "requests", "cost vs avg"],
        &rows,
    );
    out.push_str(&format!(
        "max/min disparity: {:.1}x (paper: up to ~30x)\n",
        result.disparity
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_reproduces_cost_disparity() {
        let s: &Scenario = crate::scenario::shared_small();
        let r = run(s);
        assert!(!r.rows.is_empty());
        assert!(r.rows.len() <= 20);
        assert!(r.disparity > 3.0, "disparity {}", r.disparity);
        let txt = render(&r);
        assert!(txt.contains("Fig 3"));
        assert!(txt.contains("disparity"));
    }
}
