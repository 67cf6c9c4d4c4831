//! Cluster cost generation, following §5.1 of the paper verbatim:
//!
//! > "We generate bandwidth costs by choosing average costs for countries
//! > …, then assign bandwidth costs to specific clusters by drawing from a
//! > normal distribution centered on this mean, with standard deviation
//! > derived from CDN bandwidth cost data for the top 8 ISPs within the US.
//! > Co-location costs are based on the cost for the country, but decrease
//! > proportional to the logarithm of the number of CDNs in that location."
//!
//! Country means come from `vdx_geo::Country::cost_index` (normalised so the
//! demand-weighted global average is 1.0, the framing of the paper's Fig 3).

use vdx_geo::{CityId, World};
use vdx_rand::StdRng;
use vdx_units::UsdPerGb;

/// Cost-model parameters.
#[derive(Debug, Clone)]
pub struct CostConfig {
    /// Lognormal sigma of cluster bandwidth cost around the country mean.
    /// CloudFlare (quoted in §3.2 of the paper) reports that "within a
    /// region, some transit ISPs may have an order of magnitude higher
    /// cost"; σ = 0.6 gives a ~10× spread at ±2σ, so co-located clusters of
    /// different CDNs genuinely differ in cost — the tension the
    /// marketplace exploits.
    pub bandwidth_sigma: f64,
    /// Base co-location cost as a fraction of the country's bandwidth cost
    /// index (Akamai's filings put co-lo slightly below bandwidth).
    pub colo_base_fraction: f64,
}

impl Default for CostConfig {
    fn default() -> Self {
        CostConfig {
            bandwidth_sigma: 0.6,
            colo_base_fraction: 0.8,
        }
    }
}

/// Draws the bandwidth cost for a cluster at `city`, deterministic in
/// `(seed, city, salt)`. `salt` distinguishes co-located clusters of
/// different CDNs.
pub fn bandwidth_cost(
    world: &World,
    city: CityId,
    config: &CostConfig,
    seed: u64,
    salt: u64,
) -> UsdPerGb {
    let mean = world.country_of(city).cost_index;
    let mut rng = StdRng::seed_from_u64(
        seed ^ (city.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ salt.wrapping_mul(0xBF58_476D_1CE4_E5B9),
    );
    let normal = {
        let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
        let u2: f64 = rng.gen_range(0.0..1.0);
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    };
    // Lognormal, mean-corrected (E[exp(σN − σ²/2)] = 1) so the country mean
    // is preserved while individual clusters spread multiplicatively.
    let sigma = config.bandwidth_sigma;
    UsdPerGb::per_megabit(mean * (sigma * normal.clamp(-2.5, 2.5) - sigma * sigma / 2.0).exp())
}

/// Co-location cost at `city` given `cdns_at_site` co-located CDNs:
/// proportional to the country cost, decreasing with `ln(1 + n)` — "more
/// CDNs are located in places that are inexpensive to serve from".
pub fn colo_cost(
    world: &World,
    city: CityId,
    config: &CostConfig,
    cdns_at_site: usize,
) -> UsdPerGb {
    let country = world.country_of(city).cost_index;
    UsdPerGb::per_megabit(
        config.colo_base_fraction * country / (1.0 + (1.0 + cdns_at_site as f64).ln()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdx_geo::WorldConfig;

    fn world() -> World {
        World::generate(&WorldConfig::default(), 8)
    }

    #[test]
    fn bandwidth_cost_is_deterministic() {
        let w = world();
        let cfg = CostConfig::default();
        assert_eq!(
            bandwidth_cost(&w, CityId(4), &cfg, 1, 2),
            bandwidth_cost(&w, CityId(4), &cfg, 1, 2)
        );
        assert_ne!(
            bandwidth_cost(&w, CityId(4), &cfg, 1, 2),
            bandwidth_cost(&w, CityId(4), &cfg, 1, 3)
        );
    }

    #[test]
    fn bandwidth_cost_centers_on_country_mean() {
        let w = world();
        let cfg = CostConfig::default();
        let city = CityId(10);
        let mean = w.country_of(city).cost_index;
        let avg: f64 = (0..2000)
            .map(|s| bandwidth_cost(&w, city, &cfg, 7, s).as_per_megabit())
            .sum::<f64>()
            / 2000.0;
        assert!((avg / mean - 1.0).abs() < 0.15, "avg {avg} vs mean {mean}");
    }

    #[test]
    fn bandwidth_cost_is_positive() {
        let w = world();
        let cfg = CostConfig::default();
        for s in 0..200 {
            assert!(bandwidth_cost(&w, CityId(0), &cfg, 3, s) > UsdPerGb::ZERO);
        }
    }

    #[test]
    fn intra_city_spread_is_order_of_magnitude() {
        // CloudFlare's "order of magnitude higher cost" within a region.
        let w = world();
        let cfg = CostConfig::default();
        let draws: Vec<f64> = (0..200)
            .map(|s| bandwidth_cost(&w, CityId(5), &cfg, 9, s).as_per_megabit())
            .collect();
        let max = draws.iter().copied().fold(f64::MIN, f64::max);
        let min = draws.iter().copied().fold(f64::MAX, f64::min);
        assert!(max / min > 5.0, "spread {}", max / min);
        assert!(max / min < 100.0, "spread {}", max / min);
    }

    #[test]
    fn colo_cost_decreases_with_colocated_cdns() {
        let w = world();
        let cfg = CostConfig::default();
        let lonely = colo_cost(&w, CityId(3), &cfg, 0);
        let crowded = colo_cost(&w, CityId(3), &cfg, 20);
        assert!(crowded < lonely);
        assert!(crowded > UsdPerGb::ZERO);
    }

    #[test]
    fn colo_cost_scales_with_country_cost() {
        let w = world();
        let cfg = CostConfig::default();
        // Find an expensive and a cheap country with at least one city.
        let mut cities: Vec<CityId> = w.cities().iter().map(|c| c.id).collect();
        cities.sort_by(|a, b| {
            w.country_of(*a)
                .cost_index
                .partial_cmp(&w.country_of(*b).cost_index)
                .expect("finite")
        });
        let cheap = cities[0];
        let pricey = *cities.last().expect("non-empty");
        assert!(colo_cost(&w, pricey, &cfg, 3) > colo_cost(&w, cheap, &cfg, 3));
    }
}
