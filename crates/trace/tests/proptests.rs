//! Property tests for the trace substrate: the generator must hold its
//! published statistics for *any* seed.

use vdx_geo::{World, WorldConfig};
use vdx_rand::prop::check;
use vdx_trace::{BrokerTrace, BrokerTraceConfig};

fn small_world(seed: u64) -> World {
    World::generate(
        &WorldConfig {
            countries: 10,
            cities: 40,
            ..Default::default()
        },
        seed,
    )
}

/// The published trace statistics hold for any seed, not just the one
/// the unit tests use.
#[test]
fn trace_statistics_hold_for_any_seed() {
    check(
        12,
        |rng| rng.next_u64(),
        |&seed| {
            let world = small_world(seed);
            let config = BrokerTraceConfig {
                sessions: 3_000,
                videos: 300,
                ..Default::default()
            };
            let trace = BrokerTrace::generate(&world, &config, seed);
            // Abandonment band around the paper's 78%.
            let rate = trace.abandon_rate();
            assert!((0.72..0.84).contains(&rate), "abandon {rate}");
            // Every session well-formed.
            for s in trace.sessions() {
                assert!(s.duration_s > 0.0);
                assert!((0.0..config.trace_duration_s).contains(&s.arrival_s));
                assert!(config.bitrate_ladder_kbps.contains(&s.bitrate_kbps));
                let mut prev = s.initial_cdn;
                for &(_, c) in &s.switches {
                    assert_ne!(c, prev);
                    prev = c;
                }
            }
            // Move series mean in a broad Fig 4 band.
            let series = trace.moved_sessions_series(5.0);
            let mean: f64 = series.iter().map(|(_, p)| p).sum::<f64>() / series.len() as f64;
            assert!((20.0..60.0).contains(&mean), "moved mean {mean}");
        },
    );
}
