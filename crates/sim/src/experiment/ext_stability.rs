//! Extension experiment: multi-round traffic predictability.
//!
//! Table 2 grades designs on Traffic Predictability but the paper's
//! evaluation is a single snapshot round; §6.3 argues ("we argue instead
//! that, in VDX, CDNs can learn risk-averse bidding strategies over time
//! that will likely provide traffic predictability") and leaves the
//! dynamics as future work. This experiment runs the dynamics: several
//! Decision Protocol rounds over slowly drifting demand, with marketplace
//! CDNs shading their margins from Accept feedback, and measures
//! round-to-round **traffic churn** — the fraction of CDN-level traffic
//! that moved since the previous round.
//!
//! Expected shape: the marketplace's churn *decreases* as margins converge
//! (losing clusters shade down until they win or bottom out), while a
//! memoryless design's churn stays at whatever the demand drift induces.

use crate::report::render_table;
use crate::scenario::Scenario;
use vdx_broker::{ClientGroup, CpPolicy};
use vdx_cdn::{BidPolicy, BidShading};
use vdx_core::{run_decision_round, Design, RoundInputs};
use vdx_rand::StdRng;

/// Per-round churn for one design.
#[derive(Debug, Clone)]
pub struct StabilityResult {
    /// Churn per round (fraction of traffic that changed CDN since the
    /// previous round), starting at round 2.
    pub marketplace_churn: Vec<f64>,
    /// Same metric without margin learning (static 1.2 markup).
    pub static_churn: Vec<f64>,
}

/// Runs `rounds` rounds with ±10 % demand drift per round.
pub fn run(scenario: &Scenario, rounds: usize) -> StabilityResult {
    let marketplace_churn = churn_series(scenario, rounds, true);
    let static_churn = churn_series(scenario, rounds, false);
    StabilityResult {
        marketplace_churn,
        static_churn,
    }
}

fn churn_series(scenario: &Scenario, rounds: usize, learn: bool) -> Vec<f64> {
    let mut shading = BidShading::new(BidPolicy::default(), scenario.fleet.clusters.len());
    let mut prev_traffic: Option<Vec<f64>> = None;
    let mut churn = Vec::new();

    for round in 0..rounds {
        // Deterministic demand drift: each group's demand wiggles ±10 %.
        let mut rng = StdRng::seed_from_u64(scenario.config.seed ^ (round as u64) << 8);
        let groups: Vec<ClientGroup> = scenario
            .groups
            .iter()
            .map(|g| {
                let factor = 1.0 + rng.gen_range(-0.10..0.10);
                ClientGroup {
                    demand_kbps: g.demand_kbps * factor,
                    ..g.clone()
                }
            })
            .collect();
        let margins: Vec<vdx_units::Margin> = (0..scenario.fleet.clusters.len())
            .map(|i| shading.margin(vdx_cdn::ClusterId(i as u32)))
            .collect();
        let inputs = RoundInputs {
            world: &scenario.world,
            fleet: &scenario.fleet,
            contracts: &scenario.contracts,
            groups: &groups,
            background_load_kbps: &scenario.background_load,
            policy: CpPolicy::balanced(),
            bid_count: None,
            margins: if learn { Some(&margins) } else { None },
        };
        let outcome =
            run_decision_round(Design::Marketplace, &inputs, |a, b| scenario.score_of(a, b));

        if learn {
            for (_, option, accepted) in outcome.accept_entries() {
                if accepted {
                    shading.on_accept(option.cluster);
                } else {
                    shading.on_reject(option.cluster);
                }
            }
        }

        // Per-CDN traffic this round.
        let mut traffic = vec![0.0f64; scenario.fleet.cdns.len()];
        for (g, &choice) in outcome.assignment.choice.iter().enumerate() {
            let o = &outcome.problem.options[g][choice];
            traffic[o.cdn.index()] += groups[g].demand_kbps.as_f64();
        }
        if let Some(prev) = &prev_traffic {
            let moved: f64 = traffic
                .iter()
                .zip(prev)
                .map(|(a, b)| (a - b).abs())
                .sum::<f64>()
                / 2.0;
            let total: f64 = traffic.iter().sum();
            churn.push(moved / total.max(1e-9));
        }
        prev_traffic = Some(traffic);
    }
    churn
}

/// Renders the result.
pub fn render(result: &StabilityResult) -> String {
    let rows: Vec<Vec<String>> = result
        .marketplace_churn
        .iter()
        .zip(&result.static_churn)
        .enumerate()
        .map(|(i, (learned, fixed))| {
            vec![
                format!("{}", i + 2),
                format!("{:.1}%", 100.0 * learned),
                format!("{:.1}%", 100.0 * fixed),
            ]
        })
        .collect();
    let mut out = render_table(
        "Extension: round-to-round CDN traffic churn (lower = more predictable)",
        &["round", "VDX w/ learning", "VDX static markup"],
        &rows,
    );
    out.push_str(
        "paper (§6.3): learned risk-averse bidding should *provide* predictability —\n\
         churn under learning should settle at or below the static-markup level\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_decreases_or_stays_low_with_learning() {
        let s: &Scenario = crate::scenario::shared_small();
        let r = run(s, 6);
        assert_eq!(r.marketplace_churn.len(), 5);
        // Later rounds must not churn more than the early (exploring)
        // rounds: the shading loop converges.
        let early = r.marketplace_churn[0];
        let late = *r.marketplace_churn.last().expect("rounds");
        assert!(
            late <= early + 0.05,
            "learning churn grew: early {early:.3} late {late:.3}"
        );
        // Every churn value is a sane fraction.
        for &c in r.marketplace_churn.iter().chain(&r.static_churn) {
            assert!((0.0..=1.0).contains(&c));
        }
        assert!(render(&r).contains("churn"));
    }
}
