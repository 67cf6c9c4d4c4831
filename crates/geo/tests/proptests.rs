//! Property tests for the world substrate: generation invariants must hold
//! for any configuration and seed.

use vdx_geo::{GeoPoint, World, WorldConfig};
use vdx_rand::prop::check;

const CASES: u64 = 16;

fn thirty_cities(seed: u64) -> World {
    let config = WorldConfig {
        countries: 8,
        cities: 30,
        ..Default::default()
    };
    World::generate(&config, seed)
}

#[test]
fn world_invariants_for_any_config() {
    check(
        CASES,
        |rng| {
            let config = WorldConfig {
                countries: rng.gen_range(6usize..30),
                cities: rng.gen_range(30usize..120),
                country_cost_sigma: rng.gen_range(0.2..0.8),
                ..Default::default()
            };
            (config, rng.next_u64())
        },
        |(config, seed)| {
            let (countries, cities) = (config.countries, config.cities);
            let world = World::generate(config, *seed);
            assert_eq!(world.countries().len(), countries);
            assert_eq!(world.cities().len(), cities);
            // Ids are dense indices; every city belongs to a valid country.
            for (i, c) in world.cities().iter().enumerate() {
                assert_eq!(c.id.index(), i);
                assert!(c.country.index() < countries);
                assert!(c.population_weight >= 1.0, "Pareto scale-1 weights");
            }
            // cities_in partitions the city set.
            let total: usize = world
                .countries()
                .iter()
                .map(|c| world.cities_in(c.id).len())
                .sum();
            assert_eq!(total, cities);
            // Demand-weighted mean cost index is normalised to 1.
            let wsum: f64 = world.countries().iter().map(|c| c.demand_weight).sum();
            let mean: f64 = world
                .countries()
                .iter()
                .map(|c| c.cost_index * c.demand_weight)
                .sum::<f64>()
                / wsum;
            assert!((mean - 1.0).abs() < 1e-6, "mean {mean}");
            // All cost indices positive.
            for c in world.countries() {
                assert!(c.cost_index > 0.0);
            }
        },
    );
}

#[test]
fn nearest_city_is_actually_nearest() {
    check(
        CASES,
        |rng| {
            (
                rng.next_u64(),
                rng.gen_range(-60.0..60.0),
                rng.gen_range(-150.0..150.0),
            )
        },
        |&(seed, lat, lon)| {
            let world = thirty_cities(seed);
            let p = GeoPoint::new(lat, lon);
            let nearest = world.nearest_city(p);
            let d_best = world.city(nearest).location.distance_km(p);
            for c in world.cities() {
                assert!(c.location.distance_km(p) >= d_best - 1e-9);
            }
        },
    );
}

#[test]
fn distance_matches_point_distance() {
    check(
        CASES,
        |rng| {
            (
                rng.next_u64(),
                rng.gen_range(0u32..30),
                rng.gen_range(0u32..30),
            )
        },
        |&(seed, i, j)| {
            let world = thirty_cities(seed);
            let a = vdx_geo::CityId(i);
            let b = vdx_geo::CityId(j);
            let via_world = world.distance_km(a, b);
            let via_points = world.city(a).location.distance_km(world.city(b).location);
            assert_eq!(via_world, via_points);
            if i == j {
                assert_eq!(via_world, 0.0);
            }
        },
    );
}
