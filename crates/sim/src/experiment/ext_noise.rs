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
use vdx_cdn::MatchTable;
use vdx_core::{run_decision_round, Design, RoundInputs, RoundOutcome};
use vdx_netsim::{NoisyMeasurer, ScoreMatrix};

/// The relative noise levels swept (± fraction per sample).
pub const NOISE_SWEEP: [f64; 5] = [0.0, 0.1, 0.2, 0.4, 0.8];

/// Samples folded into each (client city, site city) estimate; more
/// samples average noise away — this is the "several times per minute"
/// measurement budget.
pub const SAMPLES_PER_PAIR: u64 = 5;

/// EWMA weight of each new sample in an estimate.
const ALPHA: f64 = 0.3;

/// Noise-sensitivity results.
#[derive(Debug, Clone)]
pub struct NoiseResult {
    /// `(noise level, ground-truth metrics of the noisy decision)`.
    pub points: Vec<(f64, DesignMetrics)>,
}

/// Runs the sweep. Each noise level seeds its own measurer, so the five
/// points are independent and fan out across threads.
pub fn run(scenario: &Scenario) -> NoiseResult {
    let points = map_indexed(scenario.threads(), &NOISE_SWEEP, |&noise| {
        let outcome = run_with_noise(scenario, noise);
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

fn measurer(scenario: &Scenario, noise: f64) -> NoisyMeasurer {
    NoisyMeasurer::new(scenario.config.seed ^ 0xE571, noise)
}

/// The Marketplace round decided on estimates: every (city, cluster city)
/// pair is estimated once, from its own `SAMPLES_PER_PAIR` samples.
fn run_with_noise(scenario: &Scenario, noise: f64) -> RoundOutcome {
    let measurer = measurer(scenario, noise);
    let sites = scenario.fleet.clusters.iter().map(|c| c.city);
    let estimates = ScoreMatrix::from_fn(&scenario.world, sites, |client, site| {
        let truth = scenario.score_of(client, site);
        measurer.ewma(client, site, truth, SAMPLES_PER_PAIR, ALPHA)
    });
    let score = |a, b| estimates.score_of(a, b);
    // The perturbed estimate matches by its own scores.
    let (fleet, groups) = (&scenario.fleet, &scenario.groups);
    let cdns = fleet.cdns.iter().map(|c| c.id);
    let ratio = Design::Marketplace.matching().score_ratio;
    let matches = MatchTable::build(fleet, cdns, groups.iter().map(|g| g.city), ratio, score);
    let inputs = RoundInputs {
        fleet,
        groups,
        background_load_kbps: &scenario.background_load,
        policy: CpPolicy::balanced(),
        bid_count: None,
        engines: &scenario.engines(Design::Marketplace),
        matches: &matches,
    };
    run_decision_round(Design::Marketplace, &inputs, score)
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
    out.push_str(&format!(
        "each pair estimated from {SAMPLES_PER_PAIR} noisy samples (EWMA); quality should degrade gracefully\n"
    ));
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
        assert!(render(&r).contains(&format!("from {SAMPLES_PER_PAIR} noisy samples")));
    }

    #[test]
    fn each_pair_is_the_ewma_of_exactly_its_own_samples() {
        let s: &Scenario = crate::scenario::shared_small();
        let noise = 0.4;
        let outcome = run_with_noise(s, noise);
        let m = measurer(s, noise);
        let mut checked = 0;
        for (g, group) in outcome.problem.groups.iter().enumerate().take(3) {
            for o in &outcome.problem.options[g] {
                let site = s.fleet.clusters[o.cluster.index()].city;
                let truth = s.score_of(group.city, site);
                let mut e = m.sample(group.city, site, 0, truth).value();
                for k in 1..SAMPLES_PER_PAIR {
                    let x = m.sample(group.city, site, k, truth).value();
                    e = (1.0 - 0.3) * e + 0.3 * x;
                }
                assert!(
                    (o.score.value() - e).abs() <= 1e-9 * e.abs(),
                    "({:?}, {site:?}): the round used {}, its {SAMPLES_PER_PAIR} samples give {e}",
                    group.city,
                    o.score.value()
                );
                checked += 1;
            }
        }
        assert!(checked > 0, "no pair checked");
    }
}
