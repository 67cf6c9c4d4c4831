//! Property tests for the network substrate.

use vdx_geo::{CityId, World, WorldConfig};
use vdx_netsim::{
    alternatives_within, LinearFit, NetModel, NetModelConfig, Score, ScoreExtrapolator,
};
use vdx_rand::prop::{check, vec_of};

const CASES: u64 = 24;

#[test]
fn path_quality_is_sane_for_any_pair() {
    check(
        CASES,
        |rng| {
            (
                rng.next_u64(),
                rng.gen_range(0u32..40),
                rng.gen_range(0u32..40),
            )
        },
        |&(seed, i, j)| {
            let config = WorldConfig {
                countries: 8,
                cities: 40,
                ..Default::default()
            };
            let world = World::generate(&config, seed);
            let net = NetModel::new(NetModelConfig::default(), seed);
            let q = net.quality(&world, CityId(i), CityId(j));
            assert!(q.rtt_ms > 0.0 && q.rtt_ms.is_finite());
            assert!((0.0..=1.0).contains(&q.loss_fraction));
            assert!(q.score.value() >= q.rtt_ms, "loss only inflates");
            assert!(q.distance_km >= 0.0);
            // Determinism.
            assert_eq!(q, net.quality(&world, CityId(i), CityId(j)));
        },
    );
}

#[test]
fn linear_fit_residual_orthogonality() {
    check(
        CASES,
        |rng| {
            vec_of(rng, 3..20, |r| {
                (r.gen_range(-50.0..50.0), r.gen_range(-50.0..50.0))
            })
        },
        |pts| {
            // OLS property: residuals sum to ~0 (when a fit exists).
            if let Some(fit) = LinearFit::fit(pts) {
                let resid_sum: f64 = pts.iter().map(|(x, y)| y - fit.predict(*x)).sum();
                assert!(
                    resid_sum.abs() < 1e-6 * pts.len() as f64 + 1e-6,
                    "residual sum {resid_sum}"
                );
                assert!((0.0..=1.0 + 1e-9).contains(&fit.r2));
            }
        },
    );
}

#[test]
fn extrapolator_never_predicts_below_floor() {
    check(
        CASES,
        |rng| {
            let samples = vec_of(rng, 2..30, |r| {
                (r.gen_range(0.0..10_000.0), Score(r.gen_range(1.0..500.0)))
            });
            (samples, rng.gen_range(-5_000.0..20_000.0))
        },
        |(scored, query)| {
            if let Some(ex) = ScoreExtrapolator::fit(scored) {
                let floor = scored
                    .iter()
                    .map(|(_, s)| s.value())
                    .fold(f64::INFINITY, f64::min);
                assert!(ex.predict(*query).value() >= floor - 1e-9);
            }
        },
    );
}

#[test]
fn alternatives_count_is_monotone_in_margin() {
    check(
        CASES,
        |rng| {
            (
                vec_of(rng, 1..20, |r| Score(r.gen_range(1.0..100.0))),
                rng.gen_range(0.0..0.5),
                rng.gen_range(0.0..0.5),
            )
        },
        |(s, m1, m2)| {
            let (lo, hi) = if m1 <= m2 { (*m1, *m2) } else { (*m2, *m1) };
            assert!(alternatives_within(s, lo) <= alternatives_within(s, hi));
            assert!(alternatives_within(s, hi) < s.len());
        },
    );
}
