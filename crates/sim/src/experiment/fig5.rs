//! Fig 5: "Broker's usage of CDNs, sorted by requests per city in the US.
//! Dotted lines are best-fit linear regressions."
//!
//! Paper shape: CDN A (distributed) is strongly favoured in smaller cities
//! (negative best-fit slope against requests-per-city); CDN B and C
//! (centralized) are size-insensitive (near-zero slopes).
//!
//! "US" proxy: the synthetic world has no United States, so the experiment
//! uses the highest-demand North-American country, which plays the same
//! role (one large country with many cities of very different sizes).

use crate::report::render_table;
use crate::scenario::Scenario;
use vdx_geo::Region;
use vdx_netsim::LinearFit;
use vdx_trace::CdnLabel;

/// Fig 5 results.
#[derive(Debug, Clone)]
pub struct Fig5Result {
    /// `(requests_per_city, usage_pct)` points per CDN label A/B/C.
    pub points: [Vec<(f64, f64)>; 3],
    /// Best-fit lines per CDN label A/B/C (None if degenerate).
    pub fits: [Option<LinearFit>; 3],
    /// Country code used as the US proxy.
    pub country_code: String,
}

/// Runs the experiment.
#[expect(
    clippy::expect_used,
    reason = "`World::generate` gives every region at least one country"
)]
pub fn run(scenario: &Scenario) -> Fig5Result {
    // The US proxy: the North-American country with the most requests.
    let usage_by_country = scenario.trace.usage_by_country(&scenario.world);
    let us = usage_by_country
        .iter()
        .filter(|(c, _, _)| scenario.world.country(*c).region == Region::NorthAmerica)
        .max_by_key(|(_, req, _)| *req)
        .map(|(c, _, _)| *c)
        .expect("world has a North-American country");

    let mut points: [Vec<(f64, f64)>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for (city, requests, shares) in scenario.trace.usage_by_city() {
        if scenario.world.city(city).country != us {
            continue;
        }
        for (i, label) in [CdnLabel::A, CdnLabel::B, CdnLabel::C].iter().enumerate() {
            points[i].push((requests as f64, 100.0 * shares[label.index()]));
        }
    }
    let fits = [
        LinearFit::fit(&points[0]),
        LinearFit::fit(&points[1]),
        LinearFit::fit(&points[2]),
    ];
    Fig5Result {
        points,
        fits,
        country_code: scenario.world.country(us).code.clone(),
    }
}

/// Renders the result.
pub fn render(result: &Fig5Result) -> String {
    let rows: Vec<Vec<String>> = ["CDN A", "CDN B", "CDN C"]
        .iter()
        .zip(&result.fits)
        .map(|(name, fit)| match fit {
            Some(f) => vec![
                name.to_string(),
                format!("{:.4}", f.slope),
                format!("{:.1}", f.intercept),
                format!("{:.2}", f.r2),
                f.n.to_string(),
            ],
            None => vec![
                name.to_string(),
                "-".into(),
                "-".into(),
                "-".into(),
                "0".into(),
            ],
        })
        .collect();
    let mut out = render_table(
        &format!(
            "Fig 5: CDN usage vs. requests-per-city (country {}, US proxy) — best-fit lines",
            result.country_code
        ),
        &["CDN", "slope (%/req)", "intercept %", "R2", "cities"],
        &rows,
    );
    out.push_str("paper shape: A slopes down (favoured in small cities); B and C are flat\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_slopes_match_paper_shape() {
        let s: &Scenario = crate::scenario::shared_small();
        let r = run(s);
        let a = r.fits[0].expect("A fit exists");
        // A is favoured in small cities: usage falls as city size grows.
        assert!(a.slope < 0.0, "A slope {}", a.slope);
        // B and C are much flatter than A.
        for i in [1usize, 2] {
            if let Some(f) = r.fits[i] {
                assert!(
                    f.slope.abs() < a.slope.abs(),
                    "centralized CDN slope {} vs A {}",
                    f.slope,
                    a.slope
                );
            }
        }
        assert!(render(&r).contains("best-fit"));
    }
}
