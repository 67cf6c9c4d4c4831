//! Fig 7: "Broker's usage of CDNs for a sampling of countries based on
//! request count" — all countries with ≥ 100 requests.
//!
//! Paper shape: utilization varies wildly per country — "CDN B barely
//! serves 7, yet almost entirely serves 8; CDN A is rarely used in 8, 11,
//! and 15".

use crate::report::render_table;
use crate::scenario::Scenario;
use vdx_trace::CdnLabel;

/// One country's usage shares.
#[derive(Debug, Clone)]
pub struct CountryUsage {
    /// Anonymised country code.
    pub code: String,
    /// Requests from the country.
    pub requests: u64,
    /// Usage share (0–1) for A, B, C, other.
    pub shares: [f64; 4],
}

/// Fig 7 results.
#[derive(Debug, Clone)]
pub struct Fig7Result {
    /// Per-country usage, countries with ≥ 100 requests, by request count.
    pub countries: Vec<CountryUsage>,
    /// Spread (max − min) of CDN B's share across the countries.
    pub b_share_spread: f64,
}

/// Runs the experiment.
pub fn run(scenario: &Scenario) -> Fig7Result {
    let mut countries: Vec<CountryUsage> = scenario
        .trace
        .usage_by_country(&scenario.world)
        .into_iter()
        .filter(|(_, req, _)| *req >= 100)
        .map(|(c, req, shares)| CountryUsage {
            code: scenario.world.country(c).code.clone(),
            requests: req,
            shares,
        })
        .collect();
    countries.sort_by_key(|c| std::cmp::Reverse(c.requests));
    let b_shares: Vec<f64> = countries
        .iter()
        .map(|c| c.shares[CdnLabel::B.index()])
        .collect();
    let spread = b_shares.iter().copied().fold(f64::MIN, f64::max)
        - b_shares.iter().copied().fold(f64::MAX, f64::min);
    Fig7Result {
        countries,
        b_share_spread: spread,
    }
}

/// Renders the result.
pub fn render(result: &Fig7Result) -> String {
    let rows: Vec<Vec<String>> = result
        .countries
        .iter()
        .map(|c| {
            vec![
                c.code.clone(),
                c.requests.to_string(),
                format!("{:.0}%", 100.0 * c.shares[0]),
                format!("{:.0}%", 100.0 * c.shares[1]),
                format!("{:.0}%", 100.0 * c.shares[2]),
                format!("{:.0}%", 100.0 * c.shares[3]),
            ]
        })
        .collect();
    let mut out = render_table(
        "Fig 7: per-country CDN usage (countries with >=100 requests)",
        &["country", "requests", "CDN A", "CDN B", "CDN C", "other"],
        &rows,
    );
    out.push_str(&format!(
        "CDN B share spread across countries: {:.0}pp (paper: near-0% to near-100%)\n",
        100.0 * result.b_share_spread
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_usage_varies_strongly_per_country() {
        let s: &Scenario = crate::scenario::shared_small();
        let r = run(s);
        assert!(r.countries.len() >= 3, "{} countries", r.countries.len());
        // Small test traces have few >=100-request countries; the
        // full-scale run shows near-0% to near-100%.
        assert!(r.b_share_spread > 0.15, "spread {}", r.b_share_spread);
        for c in &r.countries {
            let total: f64 = c.shares.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "shares sum to 1");
        }
        assert!(render(&r).contains("Fig 7"));
    }
}
