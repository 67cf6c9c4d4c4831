//! Extension experiment: sensitivity to measurement noise.
//!
//! Every result in the paper (and in `table3`) lets both sides estimate
//! scores perfectly. Real operators bid and optimize on noisy estimates
//! (§3.3: both CDNs and brokers have "limited vantage points into the
//! network"; §3.1: scores come from periodic pings). This experiment
//! re-runs the Marketplace round with EWMA estimates built from ±noise %
//! samples, then evaluates the resulting assignment against *ground truth*
//! — quantifying how much decision quality the marketplace loses as
//! measurement error grows, and how much the paper's §3.3 "sharing mapping
//! information" argument is worth.

use crate::engine::map_indexed;
use crate::metrics::{compute, DesignMetrics, MetricsInput};
use crate::report::render_table;
use crate::scenario::Scenario;
use vdx_broker::CpPolicy;
use vdx_core::{run_decision_round, Design, RoundInputs, RoundOutcome};
use vdx_netsim::{NoisyMeasurer, ScoreEstimator};

/// The relative noise levels swept (± fraction per sample).
pub const NOISE_SWEEP: [f64; 5] = [0.0, 0.1, 0.2, 0.4, 0.8];

/// Samples folded into each estimate; more samples average noise away —
/// this is the "several times per minute" measurement budget.
pub const SAMPLES_PER_PAIR: u64 = 5;

/// Noise-sensitivity results.
#[derive(Debug, Clone)]
pub struct NoiseResult {
    /// `(noise level, ground-truth metrics of the noisy decision)`.
    pub points: Vec<(f64, DesignMetrics)>,
}

/// Runs the sweep. Each noise level seeds its own measurer, so the five
/// points are independent and fan out across threads.
pub fn run(scenario: &Scenario) -> NoiseResult {
    let sites: Vec<vdx_geo::CityId> = scenario.fleet.clusters.iter().map(|c| c.city).collect();
    let clients: Vec<vdx_geo::CityId> = scenario.groups.iter().map(|g| g.city).collect();

    let points = map_indexed(scenario.threads(), &NOISE_SWEEP, |&noise| {
        let outcome = run_with_noise(scenario, noise, &clients, &sites);
        // Metrics are computed against the *true* scores of the chosen
        // clusters, not the estimates the broker believed.
        let truthed = re_truth(scenario, outcome);
        let m = compute(&MetricsInput {
            scenario,
            outcome: &truthed,
        });
        (noise, m)
    });
    NoiseResult { points }
}

fn run_with_noise(
    scenario: &Scenario,
    noise: f64,
    clients: &[vdx_geo::CityId],
    sites: &[vdx_geo::CityId],
) -> RoundOutcome {
    let measurer = NoisyMeasurer::new(scenario.config.seed ^ 0xE571, noise);
    let mut estimator = ScoreEstimator::new(0.3);
    estimator.warm_up(clients, sites, SAMPLES_PER_PAIR, &measurer, |a, b| {
        scenario.score_of(a, b)
    });
    let inputs = RoundInputs {
        world: &scenario.world,
        fleet: &scenario.fleet,
        contracts: &scenario.contracts,
        groups: &scenario.groups,
        background_load_kbps: &scenario.background_load,
        policy: CpPolicy::balanced(),
        bid_count: None,
        margins: None,
        // The perturbed estimate matches by its own scores: the round
        // builds a table from the closure below.
        matches: None,
    };
    run_decision_round(Design::Marketplace, &inputs, |a, b| {
        estimator
            .estimate(a, b)
            // Pairs outside the warmed set (never true here) fall back to
            // ground truth.
            .unwrap_or_else(|| scenario.score_of(a, b))
    })
}

/// Replaces every option's (estimated) score with the true score so the
/// metric suite judges the decision by reality. A score is a function of
/// the client's city and the cluster, and a list is one city's, so each
/// shared list is re-scored once.
fn re_truth(scenario: &Scenario, mut outcome: RoundOutcome) -> RoundOutcome {
    for (g, opts) in outcome.problem.options.lists_mut() {
        let city = outcome.problem.groups[g].city;
        for o in opts.iter_mut() {
            let site = scenario.fleet.clusters[o.cluster.index()].city;
            o.score = scenario.score_of(city, site);
        }
    }
    outcome
}

/// Renders the result.
pub fn render(result: &NoiseResult) -> String {
    let rows: Vec<Vec<String>> = result
        .points
        .iter()
        .map(|(noise, m)| {
            vec![
                format!("{:.0}%", noise * 100.0),
                format!("{:.4}", m.cost),
                format!("{:.2}", m.score),
                format!("{:.0}", m.distance_miles),
                format!("{:.1}%", m.congested_pct),
            ]
        })
        .collect();
    let mut out = render_table(
        "Extension: marketplace decision quality vs measurement noise (ground-truth metrics)",
        &[
            "sample noise",
            "cost",
            "true score",
            "distance",
            "congested",
        ],
        &rows,
    );
    out.push_str(
        "each pair estimated from 5 noisy samples (EWMA); quality should degrade gracefully\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_noise_matches_the_clairvoyant_round() {
        let s: &Scenario = crate::scenario::shared_small();
        let r = run(s);
        let clair = s.run(Design::Marketplace, CpPolicy::balanced());
        let clair_m = compute(&MetricsInput {
            scenario: s,
            outcome: &clair,
        });
        let (noise, zero_m) = r.points[0];
        assert_eq!(noise, 0.0);
        assert!(
            (zero_m.cost - clair_m.cost).abs() < 1e-9,
            "zero noise is exact"
        );
        assert!((zero_m.score - clair_m.score).abs() < 1e-9);
    }

    #[test]
    fn noise_degrades_quality_gracefully() {
        let s: &Scenario = crate::scenario::shared_small();
        let r = run(s);
        let zero = r.points[0].1;
        let worst = r.points.last().expect("points").1;
        // The objective combines score and cost; under heavy noise the
        // decision gets worse on the true objective, but not catastrophic.
        let objective = |m: &DesignMetrics| m.mean_score + 30.0 * m.mean_cost;
        assert!(
            objective(&worst) >= objective(&zero) - 1e-9,
            "noise should not improve the true objective"
        );
        assert!(
            objective(&worst) < 3.0 * objective(&zero),
            "80% sample noise should degrade, not destroy: {} vs {}",
            objective(&worst),
            objective(&zero)
        );
        assert!(render(&r).contains("noise"));
    }
}
