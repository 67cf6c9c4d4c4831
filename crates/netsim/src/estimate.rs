//! Measurement-based score estimation.
//!
//! The real actors never see true path quality: the CDN pings "several
//! times per minute" from clusters to gateway routers (§3.1), brokers
//! sample QoE from whatever clients happen to be streaming (§2.2), and the
//! paper's §3.3 notes both have "limited vantage points". This module
//! models that: [`NoisyMeasurer`] draws noisy samples of the true score,
//! and [`ScoreEstimator`] maintains the exponentially-weighted estimate an
//! operator would actually bid/optimize with.
//!
//! `vdx-sim`'s `ext-noise` experiment uses it to measure how much decision
//! quality degrades as measurement noise grows — the robustness question
//! the paper leaves open.

use crate::latency::mix;
use crate::score::Score;
use std::collections::HashMap;
use vdx_geo::CityId;
use vdx_rand::StdRng;

/// Draws noisy observations of true scores, deterministic per
/// `(seed, pair, sample index)`.
#[derive(Debug, Clone)]
pub struct NoisyMeasurer {
    seed: u64,
    /// Multiplicative noise half-width: a sample is the truth times a
    /// uniform factor in `[1-noise, 1+noise]`.
    noise: f64,
}

impl NoisyMeasurer {
    /// Creates a measurer with the given relative noise (e.g. `0.2` for
    /// ±20 % samples).
    pub fn new(seed: u64, noise: f64) -> NoisyMeasurer {
        NoisyMeasurer {
            seed,
            noise: noise.clamp(0.0, 0.99),
        }
    }

    /// The `k`-th sample of the path `client → site` with true score
    /// `truth`.
    pub fn sample(&self, client: CityId, site: CityId, k: u64, truth: Score) -> Score {
        let mut rng = StdRng::seed_from_u64(mix(
            self.seed ^ 0x4E01_5E00, // "NOISE"
            (client.0 as u64) << 32 | site.0 as u64,
            k,
        ));
        let factor = 1.0 + rng.gen_range(-self.noise..=self.noise);
        Score((truth.value() * factor).max(0.0))
    }
}

/// An EWMA score estimator keyed by (client city, site city).
#[derive(Debug, Clone)]
pub struct ScoreEstimator {
    alpha: f64,
    estimates: HashMap<(CityId, CityId), f64>,
}

impl ScoreEstimator {
    /// Creates an estimator; `alpha` is the EWMA weight of each new sample
    /// (operators use small alphas to smooth out transient congestion).
    pub fn new(alpha: f64) -> ScoreEstimator {
        ScoreEstimator {
            alpha: alpha.clamp(0.0, 1.0),
            estimates: HashMap::new(),
        }
    }

    /// Folds in one observed sample.
    pub fn observe(&mut self, client: CityId, site: CityId, sample: Score) {
        let e = self
            .estimates
            .entry((client, site))
            .or_insert(sample.value());
        *e = (1.0 - self.alpha) * *e + self.alpha * sample.value();
    }

    /// The current estimate, if the pair was ever measured.
    pub fn estimate(&self, client: CityId, site: CityId) -> Option<Score> {
        self.estimates.get(&(client, site)).map(|&v| Score(v))
    }

    /// Number of pairs with an estimate.
    pub fn len(&self) -> usize {
        self.estimates.len()
    }

    /// Whether nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.estimates.is_empty()
    }

    /// Warm the estimator with `samples` noisy measurements per pair drawn
    /// from `measurer`, for every (client, site) in the given sets.
    pub fn warm_up(
        &mut self,
        clients: &[CityId],
        sites: &[CityId],
        samples: u64,
        measurer: &NoisyMeasurer,
        truth: impl Fn(CityId, CityId) -> Score,
    ) {
        for &client in clients {
            for &site in sites {
                let t = truth(client, site);
                for k in 0..samples {
                    self.observe(client, site, measurer.sample(client, site, k, t));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_noise_samples_are_exact() {
        let m = NoisyMeasurer::new(1, 0.0);
        let s = m.sample(CityId(0), CityId(1), 0, Score(50.0));
        assert_eq!(s.value(), 50.0);
    }

    #[test]
    fn samples_are_deterministic_and_bounded() {
        let m = NoisyMeasurer::new(7, 0.3);
        for k in 0..100 {
            let s = m.sample(CityId(2), CityId(9), k, Score(100.0));
            assert_eq!(s, m.sample(CityId(2), CityId(9), k, Score(100.0)));
            assert!((70.0..=130.0).contains(&s.value()), "sample {}", s.value());
        }
    }

    #[test]
    fn ewma_converges_to_truth_under_noise() {
        let m = NoisyMeasurer::new(3, 0.25);
        let mut est = ScoreEstimator::new(0.1);
        for k in 0..500 {
            est.observe(
                CityId(0),
                CityId(1),
                m.sample(CityId(0), CityId(1), k, Score(80.0)),
            );
        }
        let e = est
            .estimate(CityId(0), CityId(1))
            .expect("measured")
            .value();
        assert!((e - 80.0).abs() < 8.0, "estimate {e}");
    }

    #[test]
    fn unmeasured_pairs_have_no_estimate() {
        let est = ScoreEstimator::new(0.1);
        assert!(est.estimate(CityId(0), CityId(1)).is_none());
        assert!(est.is_empty());
    }

    #[test]
    fn warm_up_covers_all_pairs() {
        let m = NoisyMeasurer::new(5, 0.1);
        let mut est = ScoreEstimator::new(0.2);
        let clients = [CityId(0), CityId(1)];
        let sites = [CityId(2), CityId(3), CityId(4)];
        est.warm_up(&clients, &sites, 10, &m, |_, _| Score(42.0));
        assert_eq!(est.len(), 6);
        for &c in &clients {
            for &s in &sites {
                assert!(est.estimate(c, s).is_some());
            }
        }
    }
}
