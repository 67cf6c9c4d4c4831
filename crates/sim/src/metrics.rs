//! The Table 3 metric suite (§5.1):
//!
//! > "Cost, Score, and Distance are the median cost, score, and distance
//! > over all clients (lower is better). Load is the median cluster load
//! > over all CDN clusters that saw any traffic. Congested is the
//! > percentage of clients sent to clusters that have greater than 100%
//! > load."
//!
//! "Clients" are weighted by session count (a group of 40 sessions
//! contributes 40 clients to the medians). Load counts brokered plus
//! background traffic against *true* capacity — the designs differ in what
//! they believed, and this is where wrong beliefs show up as congestion.
//!
//! **Cost is the serving cluster's internal cost per megabit**, not the
//! billed price. That is the paper's reading: under flat-rate designs the
//! bill never changes with the chosen cluster, yet Table 3 shows
//! Multicluster costing *more* than Brokered — "additional clusters may
//! provide better performance but will not be cheaper than the first
//! cluster" — which is only true of delivery cost.

use crate::scenario::Scenario;
use vdx_core::RoundOutcome;

/// Measured metrics for one design's round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignMetrics {
    /// Median internal delivery cost per megabit over clients.
    pub cost: f64,
    /// Median performance score over clients (lower is better).
    pub score: f64,
    /// Median client→cluster distance in miles.
    pub distance_miles: f64,
    /// Median cluster load (percent of capacity) over clusters that saw
    /// brokered traffic.
    pub load_pct: f64,
    /// Percent of clients on clusters above 100 % load.
    pub congested_pct: f64,
    /// Mean internal delivery cost per megabit over clients (Fig 18).
    pub mean_cost: f64,
    /// Mean score over clients (used by Fig 18).
    pub mean_score: f64,
}

/// Bundle of references needed to compute metrics.
pub struct MetricsInput<'a> {
    /// The scenario the round ran over.
    pub scenario: &'a Scenario,
    /// The finished round.
    pub outcome: &'a RoundOutcome,
}

/// Computes the full metric suite for one round.
pub fn compute(input: &MetricsInput<'_>) -> DesignMetrics {
    let s = input.scenario;
    let out = input.outcome;

    // Per-client samples, weighted by group session counts.
    let mut cost_samples: Vec<(f64, u64)> = Vec::new();
    let mut score_samples: Vec<(f64, u64)> = Vec::new();
    let mut distance_samples: Vec<(f64, u64)> = Vec::new();
    let mut congested_clients = 0u64;
    let mut total_clients = 0u64;

    for (g, &choice) in out.assignment.choice.iter().enumerate() {
        let group = &out.problem.groups[g];
        let option = &out.problem.options[g][choice];
        let cluster = &s.fleet.clusters[option.cluster.index()];
        let weight = group.sessions as u64;

        cost_samples.push((cluster.cost_per_mb().as_per_megabit(), weight));
        score_samples.push((option.score.value(), weight));
        distance_samples.push((s.world.distance_miles(group.city, cluster.city), weight));

        let load = out.assignment.cluster_load_kbps[&option.cluster]
            + s.background_load[option.cluster.index()];
        total_clients += weight;
        if load > cluster.capacity_kbps {
            congested_clients += weight;
        }
    }

    // Cluster loads (brokered + background) for clusters with brokered
    // traffic.
    let mut load_pcts: Vec<(f64, u64)> = Vec::new();
    for (cluster, brokered) in &out.assignment.cluster_load_kbps {
        if *brokered <= vdx_units::Kbps::ZERO {
            continue;
        }
        let cl = &s.fleet.clusters[cluster.index()];
        let load = *brokered + s.background_load[cluster.index()];
        load_pcts.push((
            100.0 * load.as_f64() / cl.capacity_kbps.as_f64().max(1e-9),
            1,
        ));
    }

    DesignMetrics {
        cost: weighted_median(&mut cost_samples),
        score: weighted_median(&mut score_samples),
        distance_miles: weighted_median(&mut distance_samples),
        load_pct: weighted_median(&mut load_pcts),
        congested_pct: 100.0 * congested_clients as f64 / total_clients.max(1) as f64,
        mean_cost: weighted_mean(&cost_samples),
        mean_score: weighted_mean(&score_samples),
    }
}

/// Weighted median: the value at half the total weight. Empty input → 0.
pub fn weighted_median(samples: &mut [(f64, u64)]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    let total: u64 = samples.iter().map(|(_, w)| *w).sum();
    let mut acc = 0u64;
    for (v, w) in samples.iter() {
        acc += w;
        if acc * 2 >= total {
            return *v;
        }
    }
    samples.last().expect("non-empty").0
}

fn weighted_mean(samples: &[(f64, u64)]) -> f64 {
    let total: u64 = samples.iter().map(|(_, w)| *w).sum();
    if total == 0 {
        return 0.0;
    }
    samples.iter().map(|(v, w)| v * *w as f64).sum::<f64>() / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdx_broker::CpPolicy;
    use vdx_core::Design;

    #[test]
    fn weighted_median_basics() {
        assert_eq!(weighted_median(&mut []), 0.0);
        assert_eq!(weighted_median(&mut [(5.0, 1)]), 5.0);
        assert_eq!(weighted_median(&mut [(1.0, 1), (2.0, 1), (3.0, 1)]), 2.0);
        // Weight dominance: the heavy value is the median.
        assert_eq!(weighted_median(&mut [(1.0, 100), (50.0, 1)]), 1.0);
    }

    #[test]
    fn metrics_are_finite_and_sane_for_all_designs() {
        let s = crate::scenario::shared_small();
        for design in Design::TABLE3 {
            let out = s.run(design, CpPolicy::balanced());
            let m = compute(&MetricsInput {
                scenario: s,
                outcome: &out,
            });
            assert!(
                m.cost.is_finite() && m.cost > 0.0,
                "{design}: cost {}",
                m.cost
            );
            assert!(m.score > 0.0, "{design}");
            assert!(m.distance_miles >= 0.0, "{design}");
            assert!((0.0..=100.0).contains(&m.congested_pct), "{design}");
            assert!(m.load_pct >= 0.0, "{design}");
        }
    }

    #[test]
    fn multicluster_improves_score_over_brokered() {
        // Table 3's first qualitative relationship.
        let s = crate::scenario::shared_small();
        let brokered = s.run(Design::Brokered, CpPolicy::balanced());
        let multi = s.run(Design::Multicluster(100), CpPolicy::balanced());
        let mb = compute(&MetricsInput {
            scenario: s,
            outcome: &brokered,
        });
        let mm = compute(&MetricsInput {
            scenario: s,
            outcome: &multi,
        });
        assert!(
            mm.score <= mb.score,
            "multicluster score {} should not exceed brokered {}",
            mm.score,
            mb.score
        );
    }

    #[test]
    fn marketplace_cuts_cost_versus_brokered() {
        // Table 3's headline: Marketplace 93 vs Brokered 136.
        let s = crate::scenario::shared_small();
        let brokered = s.run(Design::Brokered, CpPolicy::balanced());
        let market = s.run(Design::Marketplace, CpPolicy::balanced());
        let mb = compute(&MetricsInput {
            scenario: s,
            outcome: &brokered,
        });
        let mm = compute(&MetricsInput {
            scenario: s,
            outcome: &market,
        });
        assert!(
            mm.cost < mb.cost,
            "marketplace cost {} should beat brokered {}",
            mm.cost,
            mb.cost
        );
    }

    #[test]
    fn marketplace_has_no_congestion() {
        // Table 3: Marketplace's Congested column is 0%.
        let s = crate::scenario::shared_small();
        let market = s.run(Design::Marketplace, CpPolicy::balanced());
        let mm = compute(&MetricsInput {
            scenario: s,
            outcome: &market,
        });
        assert_eq!(mm.congested_pct, 0.0);
    }
}
