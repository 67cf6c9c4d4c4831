//! Settlement: who pays whom, and who profits.
//!
//! The paper's §7.1 figures are all accounting views of one decision round:
//!
//! * Figs 10/13 — price-to-cost ratio per CDN / per country ("less than 1.0
//!   means profit loss");
//! * Figs 11/14 — traffic served per CDN / per country;
//! * Figs 12/15/16 — profit per CDN / per country.
//!
//! Pricing semantics follow §7.1 exactly: under flat-rate designs the CP
//! pays `1.2 × contract price` for every megabit regardless of which
//! cluster serves it, so "profit is a markup factor (1.2) times the
//! contract price minus internal CDN cost". Under VDX "profit is just the
//! markup factor (1.2) times the cluster cost minus the cost" — revenue
//! tracks the *serving cluster's* own cost.

use crate::decision::RoundOutcome;
use std::collections::BTreeMap;
use vdx_cdn::{CdnId, Fleet};
use vdx_geo::{CountryId, World};
use vdx_units::{Kbps, Usd};

/// Money/traffic totals for one party (a CDN or a country).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Ledger {
    /// Brokered traffic served.
    pub traffic_kbps: Kbps,
    /// Revenue per second (price × traffic).
    pub revenue: Usd,
    /// Internal cost per second (cluster cost × traffic).
    pub cost: Usd,
}

impl Ledger {
    /// Profit per second.
    pub fn profit(&self) -> Usd {
        self.revenue - self.cost
    }

    /// Price-to-cost ratio; `None` when no traffic (no cost) was served.
    pub fn price_to_cost(&self) -> Option<f64> {
        if self.cost > Usd::ZERO {
            Some(self.revenue.ratio_to(self.cost))
        } else {
            None
        }
    }

    fn add(&mut self, traffic_kbps: Kbps, revenue: Usd, cost: Usd) {
        self.traffic_kbps += traffic_kbps;
        self.revenue += revenue;
        self.cost += cost;
    }
}

/// A CDN's ledger for a round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CdnLedger {
    /// The CDN.
    pub cdn: CdnId,
    /// Its totals.
    pub ledger: Ledger,
}

/// Full settlement of one decision round.
#[derive(Debug, Clone)]
pub struct Settlement {
    /// Per-CDN ledgers, indexed by CDN.
    pub per_cdn: Vec<CdnLedger>,
    /// Per-country ledgers keyed by the *serving cluster's* country.
    pub per_country: BTreeMap<CountryId, Ledger>,
}

impl Settlement {
    /// Total profit across all CDNs.
    pub fn total_profit(&self) -> Usd {
        self.per_cdn.iter().map(|c| c.ledger.profit()).sum()
    }

    /// Number of CDNs that served traffic and lost money.
    pub fn losing_cdns(&self) -> usize {
        self.per_cdn
            .iter()
            .filter(|c| c.ledger.cost > Usd::ZERO && c.ledger.profit() < Usd::ZERO)
            .count()
    }
}

/// Settles one round: walks every group's chosen option and books traffic,
/// revenue and cost to the serving CDN and country.
///
/// Revenue is `option.price_per_mb` — which *is* the billing rule of every
/// design: flat-rate designs announced the contract's billed price there,
/// dynamic designs their per-cluster bid price.
pub fn settle(outcome: &RoundOutcome, world: &World, fleet: &Fleet) -> Settlement {
    let mut per_cdn: Vec<CdnLedger> = fleet
        .cdns
        .iter()
        .map(|c| CdnLedger {
            cdn: c.id,
            ledger: Ledger::default(),
        })
        .collect();
    let mut per_country: BTreeMap<CountryId, Ledger> = BTreeMap::new();

    for (g, &choice) in outcome.assignment.choice.iter().enumerate() {
        let option = &outcome.problem.options[g][choice];
        let group = &outcome.problem.groups[g];
        let cluster = &fleet.clusters[option.cluster.index()];
        let volume = group.demand_kbps.volume();

        let revenue = option.price_per_mb.charge(volume);
        let cost = cluster.cost_per_mb().charge(volume);

        per_cdn[option.cdn.index()]
            .ledger
            .add(group.demand_kbps, revenue, cost);
        per_country
            .entry(world.country_of(cluster.city).id)
            .or_default()
            .add(group.demand_kbps, revenue, cost);
    }
    // Double-entry balance: the per-CDN and per-country books record the
    // same payments, so their totals must agree exactly (same additions in
    // a different grouping, tolerance only for reassociation).
    #[cfg(debug_assertions)]
    {
        let cdn_rev: f64 = per_cdn.iter().map(|c| c.ledger.revenue.as_f64()).sum();
        let country_rev: f64 = per_country.values().map(|l| l.revenue.as_f64()).sum();
        debug_assert!(
            (cdn_rev - country_rev).abs() <= 1e-6 * cdn_rev.abs().max(1.0),
            "settlement books disagree: per-CDN revenue {cdn_rev} vs per-country {country_rev}"
        );
        let cdn_cost: f64 = per_cdn.iter().map(|c| c.ledger.cost.as_f64()).sum();
        let country_cost: f64 = per_country.values().map(|l| l.cost.as_f64()).sum();
        debug_assert!(
            (cdn_cost - country_cost).abs() <= 1e-6 * cdn_cost.abs().max(1.0),
            "settlement books disagree: per-CDN cost {cdn_cost} vs per-country {country_cost}"
        );
    }
    Settlement {
        per_cdn,
        per_country,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::tests::build_eco;
    use crate::decision::{run_decision_round, RoundInputs};
    use crate::design::Design;
    use vdx_broker::CpPolicy;

    fn settle_design(seed: u64, design: Design) -> (Settlement, f64) {
        let eco = build_eco(seed);
        let inputs = RoundInputs {
            world: &eco.world,
            fleet: &eco.fleet,
            contracts: &eco.contracts,
            groups: &eco.groups,
            background_load_kbps: &eco.background,
            policy: CpPolicy::balanced(),
            bid_count: None,
            margins: None,
        };
        let out = run_decision_round(design, &inputs, |a, b| eco.net.score(&eco.world, a, b));
        let s = settle(&out, &eco.world, &eco.fleet);
        let demand: f64 = eco.groups.iter().map(|g| g.demand_kbps.as_f64()).sum();
        (s, demand)
    }

    #[test]
    fn traffic_is_conserved_per_cdn_and_country() {
        for design in [Design::Brokered, Design::Marketplace] {
            let (s, demand) = settle_design(19, design);
            let cdn_total: f64 = s
                .per_cdn
                .iter()
                .map(|c| c.ledger.traffic_kbps.as_f64())
                .sum();
            let country_total: f64 = s
                .per_country
                .values()
                .map(|l| l.traffic_kbps.as_f64())
                .sum();
            assert!((cdn_total - demand).abs() < 1e-6, "{design}");
            assert!((country_total - demand).abs() < 1e-6, "{design}");
        }
    }

    #[test]
    fn marketplace_makes_every_serving_cdn_profitable() {
        // §7.1 / Fig 12: "VDX's per-cluster cost model … allow[s] each CDN
        // to make profits, regardless of its deployment style."
        let (s, _) = settle_design(19, Design::Marketplace);
        for c in &s.per_cdn {
            if c.ledger.cost > Usd::ZERO {
                assert!(
                    c.ledger.profit() > Usd::ZERO,
                    "{} lost money under Marketplace: {:?}",
                    c.cdn,
                    c.ledger
                );
                let ratio = c.ledger.price_to_cost().expect("served traffic");
                assert!((ratio - 1.2).abs() < 1e-6, "ratio is exactly the markup");
            }
        }
    }

    #[test]
    fn brokered_has_losing_cdns() {
        // §7.1 / Fig 10: "Most CDNs do not profit on brokered video
        // delivery in our model of a flat-rate world."
        let (s, _) = settle_design(19, Design::Brokered);
        assert!(
            s.losing_cdns() >= 1,
            "flat-rate pricing should produce at least one losing CDN: {:#?}",
            s.per_cdn
        );
    }

    #[test]
    fn marketplace_total_profit_exceeds_brokered_minimum() {
        let (brokered, _) = settle_design(19, Design::Brokered);
        let (market, _) = settle_design(19, Design::Marketplace);
        let worst_brokered = brokered
            .per_cdn
            .iter()
            .map(|c| c.ledger.profit().as_f64())
            .fold(f64::INFINITY, f64::min);
        let worst_market = market
            .per_cdn
            .iter()
            .filter(|c| c.ledger.cost > Usd::ZERO)
            .map(|c| c.ledger.profit().as_f64())
            .fold(f64::INFINITY, f64::min);
        assert!(
            worst_market > worst_brokered,
            "worst-case CDN does better under VDX ({worst_market} vs {worst_brokered})"
        );
    }

    #[test]
    fn ledger_arithmetic() {
        let mut l = Ledger::default();
        l.add(Kbps::new(1_000.0), Usd::new(12.0), Usd::new(10.0));
        assert_eq!(l.profit(), Usd::new(2.0));
        assert_eq!(l.price_to_cost(), Some(1.2));
        assert_eq!(Ledger::default().price_to_cost(), None);
    }
}
