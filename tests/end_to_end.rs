//! End-to-end integration: the full pipeline from world synthesis to
//! settled books, across every crate boundary.

use std::sync::OnceLock;
use vdx::core::settle;
use vdx::prelude::*;
use vdx::sim::metrics::{compute, MetricsInput};

fn scenario() -> &'static Scenario {
    static S: OnceLock<Scenario> = OnceLock::new();
    S.get_or_init(|| Scenario::build(ScenarioConfig::small()))
}

#[test]
fn every_design_places_every_client() {
    let s = scenario();
    let demand: f64 = s.groups.iter().map(|g| g.demand_kbps.as_f64()).sum();
    for design in Design::TABLE3 {
        let outcome = s.run(design, CpPolicy::balanced());
        let placed: f64 = outcome
            .assignment
            .cluster_load_kbps
            .values()
            .map(|l| l.as_f64())
            .sum();
        assert!(
            (placed - demand).abs() < 1e-6,
            "{design}: placed {placed} of {demand} kbps"
        );
        // Chosen clusters belong to the CDN that announced them.
        for (g, &choice) in outcome.assignment.choice.iter().enumerate() {
            let o = &outcome.problem.options[g][choice];
            assert_eq!(s.fleet.owner(o.cluster), o.cdn, "{design}: ownership");
        }
    }
}

#[test]
fn settlement_conserves_traffic_and_money_flows() {
    let s = scenario();
    for design in [
        Design::Brokered,
        Design::DynamicPricing,
        Design::Marketplace,
    ] {
        let outcome = s.run(design, CpPolicy::balanced());
        let settled = settle(&outcome, &s.world, &s.fleet);
        let demand: f64 = s.groups.iter().map(|g| g.demand_kbps.as_f64()).sum();
        let cdn_traffic: f64 = settled
            .per_cdn
            .iter()
            .map(|c| c.ledger.traffic_kbps.as_f64())
            .sum();
        let country_traffic: f64 = settled
            .per_country
            .values()
            .map(|l| l.traffic_kbps.as_f64())
            .sum();
        assert!((cdn_traffic - demand).abs() < 1e-6, "{design}");
        assert!((cdn_traffic - country_traffic).abs() < 1e-6, "{design}");
        // Revenue and cost also agree between the two aggregations.
        let cdn_rev: f64 = settled
            .per_cdn
            .iter()
            .map(|c| c.ledger.revenue.as_f64())
            .sum();
        let country_rev: f64 = settled
            .per_country
            .values()
            .map(|l| l.revenue.as_f64())
            .sum();
        assert!((cdn_rev - country_rev).abs() < 1e-6, "{design}");
    }
}

#[test]
fn whole_pipeline_is_deterministic() {
    let a = Scenario::build(ScenarioConfig::small());
    let outcome_a = a.run(Design::Marketplace, CpPolicy::balanced());
    let outcome_b = scenario().run(Design::Marketplace, CpPolicy::balanced());
    assert_eq!(outcome_a.assignment.choice, outcome_b.assignment.choice);
    assert_eq!(
        outcome_a.assignment.objective,
        outcome_b.assignment.objective
    );
}

#[test]
fn metrics_reflect_design_capabilities() {
    let s = scenario();
    let mut results = Vec::new();
    for design in Design::TABLE3 {
        let outcome = s.run(design, CpPolicy::balanced());
        let m = compute(&MetricsInput {
            scenario: s,
            outcome: &outcome,
        });
        results.push((design, m));
    }
    let get = |d: Design| results.iter().find(|(x, _)| *x == d).expect("ran").1;

    // Cluster-level optimization lets multicluster designs match or beat
    // single-cluster score.
    assert!(get(Design::Multicluster(100)).score <= get(Design::Brokered).score + 1e-9);
    // Dynamic pricing + full info beats flat pricing on delivery cost.
    assert!(get(Design::Marketplace).cost < get(Design::Brokered).cost);
    // Accurate capacity info avoids congestion.
    assert_eq!(get(Design::Marketplace).congested_pct, 0.0);
    assert_eq!(get(Design::Omniscient).congested_pct, 0.0);
    // The omniscient upper bound has the lowest cost of all designs.
    for (d, m) in &results {
        assert!(
            get(Design::Omniscient).cost <= m.cost + 1e-9,
            "Omniscient undercut by {d}"
        );
    }
}

#[test]
fn decision_round_via_facade_prelude() {
    // The facade's prelude is sufficient to drive the whole system.
    let s = scenario();
    let outcome = s.run(Design::BestLookup, CpPolicy::performance_first());
    assert_eq!(outcome.assignment.choice.len(), s.groups.len());
    let settled = settle(&outcome, &s.world, &s.fleet);
    assert!(settled.total_profit().as_f64().is_finite());
}
