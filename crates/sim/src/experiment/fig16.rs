//! Fig 16: "Profits for 200 'city-centric' CDNs added to our trace."
//!
//! Paper shape: under Brokered, the traditional CDNs keep doing poorly
//! (some get no traffic at all) while the single-cluster city CDNs *always
//! profit* — a single cluster's cost equals its contract price, so the 1.2
//! markup is pure margin. VDX "levels out the playing field".

use crate::report::render_table;
use crate::scenario::Scenario;
use vdx_broker::CpPolicy;
use vdx_core::{settle, Design, RoundId};

/// Fig 16 results.
#[derive(Debug, Clone)]
pub struct Fig16Result {
    /// `(cdn name, deployment label, profit Brokered, profit VDX)` for the
    /// traditional CDNs.
    pub traditional: Vec<(String, String, f64, f64)>,
    /// Same tuple for the city-centric CDNs.
    pub city: Vec<(String, String, f64, f64)>,
    /// How many city CDNs served traffic and lost money under Brokered.
    pub losing_city_cdns_brokered: usize,
    /// How many traditional CDNs served traffic and lost money under
    /// Brokered.
    pub losing_traditional_brokered: usize,
    /// Losing CDNs (of either kind) under VDX.
    pub losing_vdx: usize,
}

/// Runs the §7.2 scenario with `n` city-centric CDNs (paper: 200).
pub fn run(scenario: &Scenario, n: usize) -> Fig16Result {
    let expanded = scenario.with_city_centric(n);
    let brokered = settle(
        &expanded.run_round(RoundId(0), Design::Brokered, CpPolicy::balanced()),
        &expanded.world,
        &expanded.fleet,
    );
    let vdx = settle(
        &expanded.run_round(RoundId(1), Design::Marketplace, CpPolicy::balanced()),
        &expanded.world,
        &expanded.fleet,
    );
    let n_traditional = scenario.fleet.cdns.len();
    let mut traditional = Vec::new();
    let mut city = Vec::new();
    for (i, cdn) in expanded.fleet.cdns.iter().enumerate() {
        let row = (
            cdn.id.to_string(),
            cdn.model.label().to_string(),
            brokered.per_cdn[i].ledger.profit().as_f64(),
            vdx.per_cdn[i].ledger.profit().as_f64(),
        );
        if i < n_traditional {
            traditional.push(row);
        } else {
            city.push(row);
        }
    }
    let losing = |rows: &[(String, String, f64, f64)], idx: usize| -> usize {
        rows.iter()
            .filter(|r| if idx == 0 { r.2 < 0.0 } else { r.3 < 0.0 })
            .count()
    };
    Fig16Result {
        losing_city_cdns_brokered: losing(&city, 0),
        losing_traditional_brokered: losing(&traditional, 0),
        losing_vdx: losing(&traditional, 1) + losing(&city, 1),
        traditional,
        city,
    }
}

/// Renders the result (traditional CDNs in full, city CDNs summarised).
pub fn render(result: &Fig16Result) -> String {
    let rows: Vec<Vec<String>> = result
        .traditional
        .iter()
        .map(|(name, label, b, v)| {
            vec![
                name.clone(),
                label.clone(),
                format!("{b:+.2}"),
                format!("{v:+.2}"),
            ]
        })
        .collect();
    let mut out = render_table(
        "Fig 16: traditional CDN profits with 200 city-centric CDNs present",
        &["CDN", "deployment", "profit(Brk)", "profit(VDX)"],
        &rows,
    );
    let served_city = result
        .city
        .iter()
        .filter(|r| r.2 != 0.0 || r.3 != 0.0)
        .count();
    out.push_str(&format!(
        "city CDNs: {} total, {} served traffic, {} lost money under Brokered (paper: 0), \
         {} CDNs of any kind lose under VDX (paper: 0)\n",
        result.city.len(),
        served_city,
        result.losing_city_cdns_brokered,
        result.losing_vdx
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig16_city_cdns_always_profit_under_brokered() {
        let s: &Scenario = crate::scenario::shared_small();
        let r = run(s, 40);
        assert_eq!(r.city.len(), 40);
        // The §7.2 mechanism: single-cluster CDNs never lose under
        // flat-rate pricing (contract price == cluster cost).
        assert_eq!(
            r.losing_city_cdns_brokered,
            0,
            "city CDNs losing under Brokered: {:?}",
            r.city.iter().filter(|c| c.2 < 0.0).collect::<Vec<_>>()
        );
        // VDX levels the field: nobody loses.
        assert_eq!(r.losing_vdx, 0);
        assert!(render(&r).contains("city CDNs"));
    }

    #[test]
    fn fig16_traditional_cdns_still_struggle_under_brokered() {
        let s: &Scenario = crate::scenario::shared_small();
        let r = run(s, 40);
        assert!(
            r.losing_traditional_brokered >= 1,
            "some traditional CDN should lose under Brokered"
        );
    }
}
