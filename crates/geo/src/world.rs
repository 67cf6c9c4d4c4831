//! Synthetic world generation and lookup.
//!
//! A [`World`] is the static geography every simulation runs over: countries
//! with regional cost structure and cities with power-law populations. The
//! generator mirrors how the paper's data sets are shaped (§3.1, §5.1):
//!
//! * country *cost indices* reproduce Fig 3's ~30× spread by combining the
//!   CloudFlare regional multipliers with per-country lognormal noise,
//! * city *population weights* follow a Pareto (power-law) distribution, the
//!   distribution the paper observes for client cities,
//! * coordinates are scattered inside per-region bounding boxes so that
//!   intra-country, intra-region, and inter-region distances are realistic
//!   to first order.

use crate::{City, CityId, Country, CountryId, GeoPoint, Region};
use vdx_rand::StdRng;

/// Configuration for [`World::generate`].
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Number of countries to generate (distributed over regions by demand
    /// share; every region gets at least one).
    pub countries: usize,
    /// Number of cities to generate (distributed over countries by demand
    /// weight; every country gets at least one).
    pub cities: usize,
    /// Pareto shape parameter for city population weights. The paper's trace
    /// shows a power-law city-size distribution; `1.1` gives the heavy tail
    /// typical of city populations (Zipf-like with exponent ≈ 1).
    pub city_pareto_shape: f64,
    /// Sigma of the lognormal perturbation applied to a country's regional
    /// cost multiplier. `0.5` reproduces roughly the ~30× min–max spread of
    /// the paper's Fig 3 across ~40 countries.
    pub country_cost_sigma: f64,
    /// Scatter (in degrees, std-dev) of cities around their country centre.
    pub city_scatter_deg: f64,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            countries: 40,
            cities: 400,
            city_pareto_shape: 1.1,
            country_cost_sigma: 0.5,
            city_scatter_deg: 3.0,
        }
    }
}

/// The static geography of a simulation.
#[derive(Debug, Clone)]
pub struct World {
    countries: Vec<Country>,
    cities: Vec<City>,
    /// Cities of each country, indexed by `CountryId`.
    cities_by_country: Vec<Vec<CityId>>,
}

impl World {
    /// Generates a world deterministically from `config` and `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `config.countries == 0` or `config.cities == 0`.
    pub fn generate(config: &WorldConfig, seed: u64) -> World {
        assert!(config.countries > 0, "world needs at least one country");
        assert!(config.cities > 0, "world needs at least one city");
        let mut rng = StdRng::seed_from_u64(seed);

        let countries = generate_countries(config, &mut rng);
        let (cities, cities_by_country) = generate_cities(config, &countries, &mut rng);

        World {
            countries,
            cities,
            cities_by_country,
        }
    }

    /// All countries, indexed by [`CountryId`].
    pub fn countries(&self) -> &[Country] {
        &self.countries
    }

    /// All cities, indexed by [`CityId`].
    pub fn cities(&self) -> &[City] {
        &self.cities
    }

    /// The country a given city belongs to.
    pub fn country_of(&self, city: CityId) -> &Country {
        &self.countries[self.cities[city.index()].country.index()]
    }

    /// A country by id.
    pub fn country(&self, id: CountryId) -> &Country {
        &self.countries[id.index()]
    }

    /// A city by id.
    pub fn city(&self, id: CityId) -> &City {
        &self.cities[id.index()]
    }

    /// Cities located in `country`.
    pub fn cities_in(&self, country: CountryId) -> &[CityId] {
        &self.cities_by_country[country.index()]
    }

    /// Great-circle distance between two cities in kilometres.
    pub fn distance_km(&self, a: CityId, b: CityId) -> f64 {
        self.cities[a.index()]
            .location
            .distance_km(self.cities[b.index()].location)
    }

    /// Great-circle distance between two cities in miles.
    pub fn distance_miles(&self, a: CityId, b: CityId) -> f64 {
        self.cities[a.index()]
            .location
            .distance_miles(self.cities[b.index()].location)
    }

    /// The city nearest to `point` (linear scan; worlds are small).
    pub fn nearest_city(&self, point: GeoPoint) -> CityId {
        self.cities
            .iter()
            .min_by(|a, b| {
                a.location
                    .distance_km(point)
                    .partial_cmp(&b.location.distance_km(point))
                    .expect("distances are finite")
            })
            .expect("world has at least one city")
            .id
    }

    /// Cities sorted descending by population weight. Useful for placing
    /// clusters "in the biggest markets first".
    pub fn cities_by_population(&self) -> Vec<CityId> {
        let mut ids: Vec<CityId> = self.cities.iter().map(|c| c.id).collect();
        ids.sort_by(|a, b| {
            let pa = self.cities[a.index()].population_weight;
            let pb = self.cities[b.index()].population_weight;
            pb.partial_cmp(&pa)
                .expect("weights are finite")
                .then(a.0.cmp(&b.0))
        });
        ids
    }
}

/// Splits `total` items over the regions proportionally to demand share,
/// guaranteeing ≥ 1 per region, preserving the total.
fn apportion_regions(total: usize) -> Vec<(Region, usize)> {
    let n = Region::ALL.len();
    assert!(total >= n, "need at least {n} items to cover all regions");
    let mut counts: Vec<(Region, usize)> = Region::ALL
        .iter()
        .map(|&r| {
            (
                r,
                ((total as f64) * r.demand_share()).floor().max(1.0) as usize,
            )
        })
        .collect();
    // Fix up rounding drift by adding/removing from the largest buckets.
    loop {
        let sum: usize = counts.iter().map(|(_, c)| *c).sum();
        if sum == total {
            break;
        }
        if sum < total {
            counts
                .iter_mut()
                .max_by_key(|(_, c)| *c)
                .expect("non-empty")
                .1 += 1;
        } else {
            let slot = counts
                .iter_mut()
                .filter(|(_, c)| *c > 1)
                .max_by_key(|(_, c)| *c)
                .expect("some region has more than one item");
            slot.1 -= 1;
        }
    }
    counts
}

fn generate_countries(config: &WorldConfig, rng: &mut StdRng) -> Vec<Country> {
    let per_region = apportion_regions(config.countries.max(Region::ALL.len()));
    let mut countries = Vec::with_capacity(config.countries);
    let mut raw_cost = Vec::with_capacity(config.countries);

    for (region, count) in per_region {
        let (lat0, lat1, lon0, lon1) = region.bounding_box();
        for _ in 0..count {
            let id = CountryId(countries.len() as u32);
            let center = GeoPoint::new(rng.gen_range(lat0..lat1), rng.gen_range(lon0..lon1));
            // Lognormal perturbation of the regional multiplier: keeps the
            // regional ordering on average while producing the per-country
            // spread of Fig 3.
            let noise = sample_lognormal(rng, 0.0, config.country_cost_sigma);
            let cost = region.bandwidth_cost_multiplier() * noise;
            let demand = rng.gen_range(0.2..1.0) * region.demand_share();
            raw_cost.push(cost);
            countries.push(Country {
                id,
                code: format!("C{:02}", id.0),
                region,
                center,
                demand_weight: demand,
                cost_index: cost, // normalised below
            });
        }
    }

    // Normalise cost indices so the demand-weighted mean is 1.0, matching
    // the paper's "cost relative to the average" framing in Fig 3.
    let total_w: f64 = countries.iter().map(|c| c.demand_weight).sum();
    let mean: f64 = countries
        .iter()
        .map(|c| c.cost_index * c.demand_weight)
        .sum::<f64>()
        / total_w;
    for c in &mut countries {
        c.cost_index /= mean;
    }
    countries
}

fn generate_cities(
    config: &WorldConfig,
    countries: &[Country],
    rng: &mut StdRng,
) -> (Vec<City>, Vec<Vec<CityId>>) {
    let total = config.cities.max(countries.len());
    // Apportion cities over countries by demand weight, ≥ 1 each.
    let weight_sum: f64 = countries.iter().map(|c| c.demand_weight).sum();
    let mut counts: Vec<usize> = countries
        .iter()
        .map(|c| (((total as f64) * c.demand_weight / weight_sum).floor() as usize).max(1))
        .collect();
    loop {
        let sum: usize = counts.iter().sum();
        if sum == total {
            break;
        }
        if sum < total {
            let i = (0..counts.len())
                .max_by(|&a, &b| {
                    countries[a]
                        .demand_weight
                        .partial_cmp(&countries[b].demand_weight)
                        .expect("finite")
                })
                .expect("non-empty");
            counts[i] += 1;
        } else {
            let i = (0..counts.len())
                .filter(|&i| counts[i] > 1)
                .max_by_key(|&i| counts[i]);
            counts[i.expect("some country has >1 city")] -= 1;
        }
    }

    let mut cities = Vec::with_capacity(total);
    let mut by_country = vec![Vec::new(); countries.len()];
    for (ci, country) in countries.iter().enumerate() {
        for _ in 0..counts[ci] {
            let id = CityId(cities.len() as u32);
            let dlat = sample_normal(rng) * config.city_scatter_deg;
            let dlon = sample_normal(rng) * config.city_scatter_deg;
            let weight = sample_pareto(rng, config.city_pareto_shape);
            cities.push(City {
                id,
                country: country.id,
                location: country.center.offset(dlat, dlon),
                population_weight: weight,
            });
            by_country[ci].push(id);
        }
    }
    (cities, by_country)
}

/// Standard normal via Box–Muller (avoids a rand_distr dependency).
fn sample_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Lognormal with parameters `mu`, `sigma`.
fn sample_lognormal(rng: &mut StdRng, mu: f64, sigma: f64) -> f64 {
    (mu + sigma * sample_normal(rng)).exp()
}

/// Pareto with scale 1 and the given shape (heavy-tailed for shape ≈ 1).
fn sample_pareto(rng: &mut StdRng, shape: f64) -> f64 {
    let u: f64 = rng.gen_range(f64::EPSILON..1.0);
    u.powf(-1.0 / shape)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn world() -> World {
        World::generate(&WorldConfig::default(), 7)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = World::generate(&WorldConfig::default(), 99);
        let b = World::generate(&WorldConfig::default(), 99);
        assert_eq!(a.countries().len(), b.countries().len());
        for (x, y) in a.cities().iter().zip(b.cities()) {
            assert_eq!(x.location, y.location);
            assert_eq!(x.population_weight, y.population_weight);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = World::generate(&WorldConfig::default(), 1);
        let b = World::generate(&WorldConfig::default(), 2);
        assert!(a
            .cities()
            .iter()
            .zip(b.cities())
            .any(|(x, y)| x.location != y.location));
    }

    #[test]
    fn counts_match_config() {
        let w = world();
        assert_eq!(w.countries().len(), 40);
        assert_eq!(w.cities().len(), 400);
    }

    #[test]
    fn every_country_has_a_city() {
        let w = world();
        for c in w.countries() {
            assert!(!w.cities_in(c.id).is_empty(), "{} empty", c.code);
        }
    }

    #[test]
    fn ids_are_indices() {
        let w = world();
        for (i, c) in w.countries().iter().enumerate() {
            assert_eq!(c.id.index(), i);
        }
        for (i, c) in w.cities().iter().enumerate() {
            assert_eq!(c.id.index(), i);
        }
    }

    #[test]
    fn cost_indices_are_normalised_and_spread() {
        let w = world();
        let total_w: f64 = w.countries().iter().map(|c| c.demand_weight).sum();
        let mean: f64 = w
            .countries()
            .iter()
            .map(|c| c.cost_index * c.demand_weight)
            .sum::<f64>()
            / total_w;
        assert!((mean - 1.0).abs() < 1e-9, "weighted mean {mean}");
        let max = w
            .countries()
            .iter()
            .map(|c| c.cost_index)
            .fold(f64::MIN, f64::max);
        let min = w
            .countries()
            .iter()
            .map(|c| c.cost_index)
            .fold(f64::MAX, f64::min);
        // Fig 3 of the paper shows roughly a 30x disparity between the most
        // and least expensive countries; accept a broad band around that.
        let spread = max / min;
        assert!(spread > 8.0, "cost spread too small: {spread}");
        assert!(spread < 500.0, "cost spread implausibly large: {spread}");
    }

    #[test]
    fn city_weights_are_heavy_tailed() {
        let w = world();
        let mut weights: Vec<f64> = w.cities().iter().map(|c| c.population_weight).collect();
        weights.sort_by(|a, b| b.partial_cmp(a).expect("finite"));
        let top_decile: f64 = weights[..weights.len() / 10].iter().sum();
        let total: f64 = weights.iter().sum();
        // Power-law city sizes => top 10% of cities hold a large share.
        assert!(top_decile / total > 0.3, "share {}", top_decile / total);
    }

    #[test]
    fn nearest_city_of_a_city_location_is_itself() {
        let w = world();
        let c = &w.cities()[17];
        assert_eq!(w.nearest_city(c.location), c.id);
    }

    #[test]
    fn cities_by_population_is_sorted() {
        let w = world();
        let order = w.cities_by_population();
        assert_eq!(order.len(), w.cities().len());
        for pair in order.windows(2) {
            assert!(w.city(pair[0]).population_weight >= w.city(pair[1]).population_weight);
        }
    }

    #[test]
    fn distances_are_symmetric_and_regional() {
        let w = world();
        let a = w.cities()[0].id;
        let b = w.cities()[w.cities().len() - 1].id;
        assert!((w.distance_km(a, b) - w.distance_km(b, a)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one country")]
    fn zero_countries_panics() {
        let cfg = WorldConfig {
            countries: 0,
            ..WorldConfig::default()
        };
        World::generate(&cfg, 0);
    }

    #[test]
    fn small_world_still_covers_regions() {
        let cfg = WorldConfig {
            countries: 6,
            cities: 6,
            ..WorldConfig::default()
        };
        let w = World::generate(&cfg, 3);
        assert_eq!(w.countries().len(), 6);
        assert_eq!(w.cities().len(), 6);
    }
}
