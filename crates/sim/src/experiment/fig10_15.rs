//! Figs 10–15: the §7.1 accounting views — price-to-cost ratio, traffic
//! served, and profit, per CDN (Figs 10–12) and per country (Figs 13–15),
//! for Brokered vs. VDX (Marketplace).
//!
//! Paper shapes:
//! * Fig 10 — most CDNs' price-to-cost ratio < 1.0 under Brokered; the
//!   profitable ones are centrally deployed.
//! * Fig 11/12 — VDX shifts traffic toward CDNs whose *clusters* are cheap
//!   (notably the distributed CDN 1) and makes every serving CDN profit.
//! * Fig 13 — under Brokered some countries are money-losers, others easy
//!   profit.
//! * Fig 14 — VDX drains traffic from the most expensive countries.
//! * Fig 15 — with VDX, CDNs profit even in expensive countries.

use crate::engine::{run_rounds, RoundSpec};
use crate::report::render_table;
use crate::scenario::Scenario;
use vdx_broker::CpPolicy;
use vdx_core::{settle, Design, Settlement};
use vdx_geo::CountryId;

/// Combined results for Figs 10–15.
#[derive(Debug, Clone)]
pub struct AccountingResult {
    /// Brokered settlement.
    pub brokered: Settlement,
    /// Marketplace (VDX) settlement.
    pub vdx: Settlement,
    /// Sorted union of countries appearing in either settlement.
    pub country_ids: Vec<CountryId>,
    /// Country codes aligned with `country_ids`.
    pub country_codes: Vec<String>,
    /// Country cost indices (1.0 = average), aligned with `country_ids`.
    pub country_cost_index: Vec<f64>,
}

/// Runs Brokered and VDX (two independent rounds, fanned out) and settles
/// both.
#[expect(
    clippy::expect_used,
    reason = "`run_rounds` returns one result per spec, in spec order"
)]
pub fn run(scenario: &Scenario) -> AccountingResult {
    let specs = [
        RoundSpec::new(0, Design::Brokered, CpPolicy::balanced()),
        RoundSpec::new(1, Design::Marketplace, CpPolicy::balanced()),
    ];
    let [brokered, vdx]: [Settlement; 2] = run_rounds(scenario, &specs, |_, outcome| {
        settle(&outcome, &scenario.world, &scenario.fleet)
    })
    .try_into()
    .expect("two specs, two settlements");
    // Union of countries appearing in either settlement, sorted by id.
    let mut country_ids: Vec<CountryId> = brokered
        .per_country
        .keys()
        .chain(vdx.per_country.keys())
        .copied()
        .collect();
    country_ids.sort();
    country_ids.dedup();
    let country_codes = country_ids
        .iter()
        .map(|&c| scenario.world.country(c).code.clone())
        .collect();
    let country_cost_index = country_ids
        .iter()
        .map(|&c| scenario.world.country(c).cost_index)
        .collect();
    AccountingResult {
        brokered,
        vdx,
        country_ids,
        country_codes,
        country_cost_index,
    }
}

/// Renders Figs 10–12 (per-CDN views).
pub fn render_cdn_views(result: &AccountingResult) -> String {
    let mut rows = Vec::new();
    for (b, v) in result.brokered.per_cdn.iter().zip(&result.vdx.per_cdn) {
        rows.push(vec![
            b.cdn.to_string(),
            b.ledger
                .price_to_cost()
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "-".into()),
            format!("{:.0}", b.ledger.traffic_kbps.as_f64()),
            format!("{:.0}", v.ledger.traffic_kbps.as_f64()),
            format!("{:+.2}", b.ledger.profit().as_f64()),
            format!("{:+.2}", v.ledger.profit().as_f64()),
        ]);
    }
    let mut out = render_table(
        "Figs 10-12: per-CDN price/cost ratio (Brokered), traffic and profit (Brokered vs VDX)",
        &[
            "CDN",
            "ratio(Brk)",
            "kbps(Brk)",
            "kbps(VDX)",
            "profit(Brk)",
            "profit(VDX)",
        ],
        &rows,
    );
    out.push_str(&format!(
        "losing CDNs: Brokered {}  VDX {}  (paper: most lose under Brokered, none under VDX)\n",
        result.brokered.losing_cdns(),
        result.vdx.losing_cdns()
    ));
    out
}

/// Renders Figs 13–15 (per-country views).
pub fn render_country_views(result: &AccountingResult) -> String {
    let mut rows = Vec::new();
    for (i, &country) in result.country_ids.iter().enumerate() {
        let b = result
            .brokered
            .per_country
            .get(&country)
            .copied()
            .unwrap_or_default();
        let v = result
            .vdx
            .per_country
            .get(&country)
            .copied()
            .unwrap_or_default();
        rows.push(vec![
            result.country_codes[i].clone(),
            format!("{:.2}", result.country_cost_index[i]),
            b.price_to_cost()
                .map(|r| format!("{r:.2}"))
                .unwrap_or_else(|| "-".into()),
            format!("{:.0}", b.traffic_kbps.as_f64()),
            format!("{:.0}", v.traffic_kbps.as_f64()),
            format!("{:+.2}", b.profit().as_f64()),
            format!("{:+.2}", v.profit().as_f64()),
        ]);
    }
    render_table(
        "Figs 13-15: per-country cost index, ratio (Brokered), traffic and profit (Brokered vs VDX)",
        &["country", "cost idx", "ratio(Brk)", "kbps(Brk)", "kbps(VDX)", "profit(Brk)", "profit(VDX)"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result() -> AccountingResult {
        run(crate::scenario::shared_small())
    }

    #[test]
    fn fig10_12_vdx_fixes_cdn_economics() {
        let r = result();
        // Fig 10: Brokered produces losers; Fig 12: VDX none.
        assert!(r.brokered.losing_cdns() >= 1, "Brokered losers expected");
        assert_eq!(r.vdx.losing_cdns(), 0, "VDX losers: {:#?}", r.vdx.per_cdn);
        // Traffic is conserved between the two worlds.
        let t = |s: &Settlement| -> f64 {
            s.per_cdn
                .iter()
                .map(|c| c.ledger.traffic_kbps.as_f64())
                .sum()
        };
        assert!((t(&r.brokered) - t(&r.vdx)).abs() < 1e-6);
        assert!(render_cdn_views(&r).contains("losing CDNs"));
    }

    #[test]
    fn fig14_vdx_drains_expensive_countries() {
        let r = result();
        // Weighted average serving-country cost index should drop under
        // VDX: traffic moves toward cheap countries.
        let avg_cost_index = |s: &Settlement| -> f64 {
            let mut num = 0.0;
            let mut den = 0.0;
            for (&country, ledger) in &s.per_country {
                let pos = r
                    .country_ids
                    .iter()
                    .position(|&c| c == country)
                    .expect("country in union");
                num += r.country_cost_index[pos] * ledger.traffic_kbps.as_f64();
                den += ledger.traffic_kbps.as_f64();
            }
            num / den.max(1e-9)
        };
        let brokered_avg = avg_cost_index(&r.brokered);
        let vdx_avg = avg_cost_index(&r.vdx);
        assert!(
            vdx_avg <= brokered_avg + 1e-9,
            "VDX serving-cost index {vdx_avg:.3} vs Brokered {brokered_avg:.3}"
        );
    }

    #[test]
    fn fig15_vdx_profits_everywhere_it_serves() {
        let r = result();
        for (country, ledger) in &r.vdx.per_country {
            if ledger.cost > vdx_core::units::Usd::ZERO {
                assert!(
                    ledger.profit() > vdx_core::units::Usd::ZERO,
                    "VDX loses money in {country}: {ledger:?}"
                );
            }
        }
        assert!(render_country_views(&r).contains("cost idx"));
    }
}
