//! Packet-loss model.
//!
//! Loss fractions combine a small floor, a component that grows with path
//! length (more hops, more congestion opportunities), and deterministic
//! pairwise variation — the same structural role jitter plays in
//! [`crate::latency`]. Loss is the second input to the CDN score (§3.1 of
//! the paper: "a simple function of latency and packet loss").

use crate::latency::mix;
use vdx_geo::GeoPoint;
use vdx_rand::StdRng;

/// Parameters of the loss model.
#[derive(Debug, Clone)]
pub struct LossConfig {
    /// Loss floor present on every path (fraction, e.g. 0.001 = 0.1 %).
    pub base_loss: f64,
    /// Additional loss per 10 000 km of path distance.
    pub loss_per_10mm: f64,
    /// Upper clamp on the loss fraction.
    pub max_loss: f64,
    /// Spread (uniform half-width, multiplicative) of pairwise variation.
    pub variation: f64,
}

impl Default for LossConfig {
    fn default() -> Self {
        LossConfig {
            base_loss: 0.001,
            loss_per_10mm: 0.012,
            max_loss: 0.20,
            variation: 0.6,
        }
    }
}

/// Deterministic loss model.
#[derive(Debug, Clone)]
pub struct LossModel {
    config: LossConfig,
    seed: u64,
}

impl LossModel {
    /// Creates a model; all queries are pure functions of `(config, seed)`.
    pub fn new(config: LossConfig, seed: u64) -> Self {
        LossModel { config, seed }
    }

    /// Loss fraction in `[0, max_loss]` between two points, keyed like
    /// [`crate::latency::LatencyModel::rtt_ms`].
    pub fn loss_fraction(&self, src: GeoPoint, dst: GeoPoint, src_key: u64, dst_key: u64) -> f64 {
        self.loss_at(src.distance_km(dst), src_key, dst_key)
    }

    /// [`LossModel::loss_fraction`] over a distance the caller already has.
    pub(crate) fn loss_at(&self, d: f64, src_key: u64, dst_key: u64) -> f64 {
        let raw = self.config.base_loss + self.config.loss_per_10mm * (d / 10_000.0);
        let mut rng = StdRng::seed_from_u64(mix(self.seed ^ LOSS_DOMAIN_SEP, src_key, dst_key));
        let factor = 1.0 + self.config.variation * (rng.gen_range(0.0..2.0) - 1.0);
        (raw * factor).clamp(0.0, self.config.max_loss)
    }
}

/// Domain-separation constant ("LOSSLOSS") so loss draws differ from latency
/// draws even for the same `(seed, src, dst)` triple.
const LOSS_DOMAIN_SEP: u64 = 0x4C4F_5353_4C4F_5353;

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LossModel {
        LossModel::new(LossConfig::default(), 42)
    }

    #[test]
    fn loss_is_deterministic() {
        let m = model();
        let a = GeoPoint::new(0.0, 0.0);
        let b = GeoPoint::new(30.0, 60.0);
        assert_eq!(m.loss_fraction(a, b, 1, 2), m.loss_fraction(a, b, 1, 2));
    }

    #[test]
    fn loss_within_bounds() {
        let m = model();
        let a = GeoPoint::new(0.0, 0.0);
        for k in 0..500u64 {
            let b = GeoPoint::new((k % 90) as f64 - 45.0, (k % 360) as f64 - 180.0);
            let l = m.loss_fraction(a, b, 0, k);
            assert!((0.0..=0.20).contains(&l), "loss {l}");
        }
    }

    #[test]
    fn longer_paths_lose_more_on_average() {
        let m = model();
        let origin = GeoPoint::new(0.0, 0.0);
        let avg = |dst: GeoPoint| -> f64 {
            (0..300)
                .map(|k| m.loss_fraction(origin, dst, 0, k))
                .sum::<f64>()
                / 300.0
        };
        assert!(avg(GeoPoint::new(0.0, 150.0)) > avg(GeoPoint::new(0.0, 2.0)));
    }
}
