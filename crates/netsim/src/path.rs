//! The [`NetModel`] façade: per-(city, city) path quality.
//!
//! Downstream crates (`vdx-cdn` matching, `vdx-trace` mapping synthesis,
//! `vdx-sim` scenarios) only ever ask one question of the network: *what is
//! the quality of the path between a client city and a cluster city?*
//! [`NetModel`] answers it deterministically by composing the latency and
//! loss models over a [`vdx_geo::World`].

use crate::latency::{LatencyConfig, LatencyModel};
use crate::loss::{LossConfig, LossModel};
use crate::score::Score;
use vdx_geo::{CityId, World};

/// Combined configuration for a [`NetModel`].
#[derive(Debug, Clone, Default)]
pub struct NetModelConfig {
    /// Latency model parameters.
    pub latency: LatencyConfig,
    /// Loss model parameters.
    pub loss: LossConfig,
}

/// Quality of a client→cluster path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathQuality {
    /// Round-trip time in milliseconds.
    pub rtt_ms: f64,
    /// Packet-loss fraction in `[0, 1]`.
    pub loss_fraction: f64,
    /// The combined score (lower is better).
    pub score: Score,
    /// Great-circle distance in kilometres.
    pub distance_km: f64,
}

/// Deterministic per-city-pair network model.
#[derive(Debug, Clone)]
pub struct NetModel {
    latency: LatencyModel,
    loss: LossModel,
}

impl NetModel {
    /// Builds a model from configuration and a seed. Queries are pure
    /// functions of `(config, seed, city pair)`.
    pub fn new(config: NetModelConfig, seed: u64) -> NetModel {
        NetModel {
            latency: LatencyModel::new(config.latency, seed),
            loss: LossModel::new(config.loss, seed),
        }
    }

    /// Path quality from a client in `src` to a cluster in `dst`.
    pub fn quality(&self, world: &World, src: CityId, dst: CityId) -> PathQuality {
        let distance_km = world.distance_km(src, dst);
        let rtt = self.latency.rtt_at(distance_km, src.0 as u64, dst.0 as u64);
        let loss = self.loss.loss_at(distance_km, src.0 as u64, dst.0 as u64);
        PathQuality {
            rtt_ms: rtt,
            loss_fraction: loss,
            score: Score::from_latency_loss(rtt, loss),
            distance_km,
        }
    }

    /// Convenience: just the score for a path.
    pub fn score(&self, world: &World, src: CityId, dst: CityId) -> Score {
        self.quality(world, src, dst).score
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdx_geo::WorldConfig;

    fn setup() -> (World, NetModel) {
        let world = World::generate(&WorldConfig::default(), 11);
        let model = NetModel::new(NetModelConfig::default(), 11);
        (world, model)
    }

    #[test]
    fn quality_is_deterministic() {
        let (world, model) = setup();
        let a = CityId(0);
        let b = CityId(100);
        assert_eq!(model.quality(&world, a, b), model.quality(&world, a, b));
    }

    #[test]
    fn quality_agrees_bit_for_bit_with_the_point_queries() {
        let world = World::generate(
            &WorldConfig {
                countries: 8,
                cities: 40,
                ..Default::default()
            },
            7,
        );
        let model = NetModel::new(NetModelConfig::default(), 7);
        for src in world.cities() {
            for dst in world.cities() {
                let (a, b) = (src.location, dst.location);
                let (i, j) = (src.id.0 as u64, dst.id.0 as u64);
                let q = model.quality(&world, src.id, dst.id);
                let pair = (src.id, dst.id);
                let rtt = model.latency.rtt_ms(a, b, i, j);
                assert_eq!(q.rtt_ms.to_bits(), rtt.to_bits(), "{pair:?}");
                let loss = model.loss.loss_fraction(a, b, i, j);
                assert_eq!(q.loss_fraction.to_bits(), loss.to_bits(), "{pair:?}");
                let d = world.distance_km(src.id, dst.id);
                assert_eq!(q.distance_km.to_bits(), d.to_bits(), "{pair:?}");
            }
        }
    }

    /// Full-scale scores (the default world and model at the paper's seed),
    /// captured before `quality` shared one distance between its parts.
    #[test]
    fn full_scale_scores_are_pinned() {
        let world = World::generate(&WorldConfig::default(), 2017);
        let model = NetModel::new(NetModelConfig::default(), 2017);
        let pins = [
            ((0, 0), 0x4035_72a5_5fa4_c99d),
            ((0, 399), 0x4053_98d4_e0f0_03a7),
            ((17, 250), 0x405b_7808_a4d8_43f7),
            ((123, 45), 0x406b_507d_c093_b37f),
            ((399, 7), 0x4055_a865_a0b2_4420),
            ((200, 201), 0x403d_7757_9501_48ff),
        ];
        for ((src, dst), bits) in pins {
            let score = model.score(&world, CityId(src), CityId(dst));
            assert_eq!(score.value().to_bits(), bits, "({src}, {dst})");
        }
    }

    #[test]
    fn score_composes_latency_and_loss() {
        let (world, model) = setup();
        let q = model.quality(&world, CityId(3), CityId(42));
        let expect = Score::from_latency_loss(q.rtt_ms, q.loss_fraction);
        assert_eq!(q.score, expect);
    }

    #[test]
    fn same_city_paths_are_fast() {
        let (world, model) = setup();
        let q = model.quality(&world, CityId(5), CityId(5));
        assert!(q.rtt_ms < 60.0, "intra-city rtt {}", q.rtt_ms);
        assert_eq!(q.distance_km, 0.0);
    }

    #[test]
    fn nearby_beats_faraway_on_average() {
        let (world, model) = setup();
        // Average score from city 0 to cities of its own country vs. a
        // different region; intra-country should win clearly.
        let home_country = world.city(CityId(0)).country;
        let mut near = Vec::new();
        let mut far = Vec::new();
        for city in world.cities() {
            let q = model.quality(&world, CityId(0), city.id);
            if city.country == home_country {
                near.push(q.score.value());
            } else if world.country(city.country).region != world.country(home_country).region {
                far.push(q.score.value());
            }
        }
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(!near.is_empty() && !far.is_empty());
        assert!(
            avg(&near) < avg(&far),
            "near {} far {}",
            avg(&near),
            avg(&far)
        );
    }
}
