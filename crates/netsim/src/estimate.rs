//! Measurement-based score estimation.
//!
//! The real actors never see true path quality: the CDN pings "several
//! times per minute" from clusters to gateway routers (§3.1), brokers
//! sample QoE from whatever clients happen to be streaming (§2.2), and the
//! paper's §3.3 notes both have "limited vantage points". This module
//! models that: [`NoisyMeasurer`] draws noisy samples of the true score
//! and folds a pair's samples into the exponentially-weighted estimate an
//! operator would actually bid/optimize with.
//!
//! `vdx-sim`'s `ext-noise` experiment fills a [`crate::ScoreMatrix`] with
//! those estimates to measure how much decision quality degrades as
//! measurement noise grows — the robustness question the paper leaves
//! open.

use crate::latency::mix;
use crate::score::Score;
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

    /// The EWMA estimate of `client → site` from its first `samples`
    /// samples (at least one): sample 0 seeds it, and each later sample
    /// moves it by `alpha` of the difference (operators use small alphas
    /// to smooth out transient congestion). Equal samples leave it
    /// exactly where it is, so zero noise estimates the truth bit for bit.
    pub fn ewma(
        &self,
        client: CityId,
        site: CityId,
        truth: Score,
        samples: u64,
        alpha: f64,
    ) -> Score {
        let seed = self.sample(client, site, 0, truth).value();
        Score((1..samples).fold(seed, |e, k| {
            e + alpha * (self.sample(client, site, k, truth).value() - e)
        }))
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
        let e = m.ewma(CityId(0), CityId(1), Score(80.0), 500, 0.1).value();
        assert!((e - 80.0).abs() < 8.0, "estimate {e}");
    }
}
