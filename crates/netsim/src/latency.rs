//! Latency model: distance-driven round-trip times with deterministic
//! pairwise variation.
//!
//! The model is the standard first-order Internet latency decomposition:
//!
//! ```text
//! rtt_ms = 2 * inflation * distance_km / (0.67 * c)    (propagation)
//!        + access_src + access_dst                     (last-mile penalties)
//!        * jitter(seed, src, dst)                      (multiplicative noise)
//! ```
//!
//! Light in fibre travels at roughly two-thirds of `c`; real routes are not
//! great circles, which the route-inflation factor (default 1.6) absorbs.
//! The lognormal pairwise jitter stands in for peering quality differences:
//! it is what makes *several distinct clusters* score within 25 % of the
//! best for most clients — the effect the paper quantifies in its Table 1.

use vdx_geo::GeoPoint;
use vdx_rand::StdRng;

/// Speed of light in vacuum, km per millisecond.
const C_KM_PER_MS: f64 = 299.792_458;

/// Parameters of the latency model.
#[derive(Debug, Clone)]
pub struct LatencyConfig {
    /// Multiplier on great-circle distance to account for real route paths.
    pub route_inflation: f64,
    /// Fraction of `c` that signals propagate at (fibre ≈ 0.67).
    pub propagation_speed_fraction: f64,
    /// Base last-mile penalty in milliseconds added per endpoint.
    pub access_penalty_ms: f64,
    /// Sigma of the lognormal pairwise jitter factor.
    pub jitter_sigma: f64,
}

impl Default for LatencyConfig {
    fn default() -> Self {
        LatencyConfig {
            route_inflation: 1.6,
            propagation_speed_fraction: 0.67,
            access_penalty_ms: 8.0,
            jitter_sigma: 0.25,
        }
    }
}

/// Deterministic latency model.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    config: LatencyConfig,
    seed: u64,
}

impl LatencyModel {
    /// Creates a model; all queries are pure functions of `(config, seed)`.
    pub fn new(config: LatencyConfig, seed: u64) -> Self {
        LatencyModel { config, seed }
    }

    /// Round-trip time in milliseconds between two points, where `src_key`
    /// and `dst_key` identify the endpoints (e.g. city ids) so that the
    /// pairwise jitter is stable across calls.
    pub fn rtt_ms(&self, src: GeoPoint, dst: GeoPoint, src_key: u64, dst_key: u64) -> f64 {
        self.rtt_at(src.distance_km(dst), src_key, dst_key)
    }

    /// [`LatencyModel::rtt_ms`] over a distance the caller already has.
    pub(crate) fn rtt_at(&self, d: f64, src_key: u64, dst_key: u64) -> f64 {
        let speed = self.config.propagation_speed_fraction * C_KM_PER_MS;
        let propagation = 2.0 * self.config.route_inflation * d / speed;
        let access = 2.0 * self.config.access_penalty_ms;
        (propagation + access) * self.jitter(src_key, dst_key)
    }

    /// The deterministic multiplicative jitter for an endpoint pair.
    pub fn jitter(&self, src_key: u64, dst_key: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(mix(self.seed, src_key, dst_key));
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        let normal = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        (self.config.jitter_sigma * normal).exp()
    }
}

/// Mixes the model seed and an endpoint pair into an RNG seed
/// (splitmix64-style finalizer; good avalanche, no allocation).
pub(crate) fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut x =
        seed ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> LatencyModel {
        LatencyModel::new(LatencyConfig::default(), 42)
    }

    #[test]
    fn rtt_is_deterministic() {
        let m = model();
        let a = GeoPoint::new(40.0, -75.0);
        let b = GeoPoint::new(48.0, 2.0);
        assert_eq!(m.rtt_ms(a, b, 1, 2), m.rtt_ms(a, b, 1, 2));
    }

    #[test]
    fn rtt_grows_with_distance_on_average() {
        let m = model();
        let origin = GeoPoint::new(0.0, 0.0);
        // Average over many endpoint keys to smooth out jitter.
        let avg = |dst: GeoPoint| -> f64 {
            (0..200).map(|k| m.rtt_ms(origin, dst, 0, k)).sum::<f64>() / 200.0
        };
        let near = avg(GeoPoint::new(1.0, 1.0));
        let far = avg(GeoPoint::new(40.0, 90.0));
        assert!(far > 2.0 * near, "near {near}, far {far}");
    }

    #[test]
    fn zero_distance_still_has_access_penalty() {
        let m = model();
        let p = GeoPoint::new(10.0, 10.0);
        let rtt = m.rtt_ms(p, p, 3, 3);
        assert!(rtt > 4.0, "got {rtt}"); // 2 * 8 ms, times jitter >= e^{-4σ}
    }

    #[test]
    fn plausible_transatlantic_rtt() {
        let m = LatencyModel::new(
            LatencyConfig {
                jitter_sigma: 0.0,
                ..Default::default()
            },
            0,
        );
        // ~5500 km: expect RTT around 90-120 ms with inflation 1.6.
        let rtt = m.rtt_ms(
            GeoPoint::new(40.64, -73.78),
            GeoPoint::new(51.47, -0.45),
            1,
            2,
        );
        assert!((70.0..160.0).contains(&rtt), "got {rtt}");
    }

    #[test]
    fn jitter_has_unit_median_scale() {
        let m = model();
        let mut values: Vec<f64> = (0..999u64).map(|k| m.jitter(k, k + 1)).collect();
        values.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let median = values[values.len() / 2];
        assert!((0.85..1.15).contains(&median), "median {median}");
    }

    #[test]
    fn different_pairs_get_different_jitter() {
        let m = model();
        assert_ne!(m.jitter(1, 2), m.jitter(1, 3));
    }

    #[test]
    fn mix_avalanches() {
        // Flipping one input bit should change roughly half the output bits.
        let base = mix(1, 2, 3);
        let flipped = mix(1, 2, 2);
        let differing = (base ^ flipped).count_ones();
        assert!(differing > 16, "only {differing} bits differ");
    }
}
