//! Property tests on the core data structures and invariants, across
//! crate boundaries: seeded cases through `vdx_rand::prop::check`.

use vdx::geo::GeoPoint;
use vdx::netsim::Score;
use vdx::proto::frame;
use vdx::proto::{AcceptEntry, Bid, Message, Share};
use vdx::solver::{
    solve_lp, AssignmentProblem, CandidateOption, LinearProgram, MilpConfig, Relation,
};
use vdx_rand::prop::{bytes, check, vec_of};
use vdx_rand::StdRng;

const CASES: u64 = 256;

fn point(rng: &mut StdRng, lat: f64, lon: f64) -> GeoPoint {
    GeoPoint::new(rng.gen_range(-lat..lat), rng.gen_range(-lon..lon))
}

// ---- geo -----------------------------------------------------------

#[test]
fn haversine_is_symmetric_and_nonnegative() {
    check(
        CASES,
        |rng| (point(rng, 90.0, 180.0), point(rng, 90.0, 180.0)),
        |&(a, b)| {
            let d_ab = a.distance_km(b);
            let d_ba = b.distance_km(a);
            assert!(d_ab >= 0.0);
            assert!((d_ab - d_ba).abs() < 1e-6);
            // No two points on Earth are farther apart than half the
            // circumference.
            assert!(d_ab <= std::f64::consts::PI * vdx::geo::coord::EARTH_RADIUS_KM + 1.0);
        },
    );
}

#[test]
fn haversine_triangle_inequality() {
    check(
        CASES,
        |rng| [(); 3].map(|()| point(rng, 80.0, 170.0)),
        |&[a, b, c]| {
            assert!(a.distance_km(c) <= a.distance_km(b) + b.distance_km(c) + 1e-6);
        },
    );
}

// ---- proto: framing ------------------------------------------------

#[test]
fn frames_roundtrip_any_payload() {
    check(
        CASES,
        |rng| bytes(rng, 0..2048),
        |payload| {
            let wire = frame::encode(payload);
            let frame = frame::decode_datagram(&wire).expect("intact frame decodes");
            assert_eq!(&frame.payload, payload);
            // The stream decoder agrees.
            let mut dec = frame::FrameDecoder::new();
            dec.feed(&wire);
            let streamed = dec.next_frame().expect("decodes").expect("complete");
            assert_eq!(streamed, payload);
        },
    );
}

#[test]
fn corrupting_any_single_byte_is_detected() {
    check(
        CASES,
        |rng| (bytes(rng, 1..512), rng.gen_range(0u32..8), rng.next_u64()),
        |(payload, flip_bit, pos_seed)| {
            let mut corrupted = frame::encode(payload);
            let pos = (pos_seed % corrupted.len() as u64) as usize;
            corrupted[pos] ^= 1 << flip_bit;
            // Either an error, or (if the flip undid itself — impossible for a
            // single bit) the same payload. Never a *different* payload.
            if let Ok(f) = frame::decode_datagram(&corrupted) {
                assert_eq!(&f.payload, payload);
            }
        },
    );
}

#[test]
fn stream_decoder_never_panics_on_garbage() {
    check(
        CASES,
        |rng| vec_of(rng, 0..16, |r| bytes(r, 0..128)),
        |chunks| {
            let mut dec = frame::FrameDecoder::new();
            for chunk in chunks {
                dec.feed(chunk);
                // Drain whatever it makes of it; errors are fine, panics not.
                for _ in 0..64 {
                    match dec.next_frame() {
                        Ok(Some(_)) | Err(_) => continue,
                        Ok(None) => break,
                    }
                }
            }
        },
    );
}

// ---- proto: messages -----------------------------------------------

#[test]
fn messages_roundtrip() {
    check(
        CASES,
        |rng| {
            let share = Share {
                share_id: rng.next_u64(),
                location: rng.next_u32(),
                isp: rng.next_u32(),
                content_id: 7,
                data_size_kbps: rng.gen_range(0.0..1e9),
                client_count: rng.next_u32(),
            };
            let bid = Bid {
                cluster_id: share.share_id ^ 0xABCD,
                share_id: share.share_id,
                performance_estimate: share.data_size_kbps / 2.0,
                capacity_kbps: share.data_size_kbps * 2.0,
                price_per_mb: rng.gen_range(0.0..1e3),
            };
            (share, bid, rng.gen_bool(0.5))
        },
        |&(share, bid, accepted)| {
            for msg in [
                Message::Share(vec![share]),
                Message::Announce(vec![bid]),
                Message::Accept(vec![AcceptEntry { bid, accepted }]),
                Message::Query {
                    client_id: share.share_id,
                    location: share.location,
                },
                Message::QueryResult {
                    client_id: share.share_id,
                    cluster_id: 3,
                },
            ] {
                let back = Message::decode(&msg.encode()).expect("roundtrips");
                assert_eq!(back, msg);
            }
        },
    );
}

#[test]
fn message_decoder_never_panics() {
    check(
        CASES,
        |rng| bytes(rng, 0..256),
        |bytes| {
            let _ = Message::decode(bytes);
        },
    );
}

// ---- solver ---------------------------------------------------------

#[test]
fn lp_solutions_are_feasible_and_beat_origin() {
    check(
        CASES,
        |rng| {
            let c = [(); 2].map(|()| rng.gen_range(-3.0..3.0));
            let a = [(); 4].map(|()| rng.gen_range(0.0..2.0));
            let b = [(); 2].map(|()| rng.gen_range(0.5..10.0));
            (c, a, b, rng.gen_range(0.5..20.0))
        },
        |&(c, a, b, ub)| {
            let mut lp = LinearProgram::maximize(2);
            lp.set_objective(0, c[0]).set_objective(1, c[1]);
            lp.set_upper_bound(0, ub).set_upper_bound(1, ub);
            lp.add_constraint(vec![(0, a[0]), (1, a[1])], Relation::Le, b[0]);
            lp.add_constraint(vec![(0, a[2]), (1, a[3])], Relation::Le, b[1]);
            match solve_lp(&lp) {
                vdx::solver::LpOutcome::Optimal(sol) => {
                    assert!(lp.is_feasible(&sol.values, 1e-6));
                    // The origin is feasible, so the optimum is at least 0.
                    assert!(sol.objective >= -1e-9);
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        },
    );
}

#[test]
fn gap_heuristic_feasible_input_bounded_by_exact() {
    check(
        CASES,
        |rng| {
            (
                vec_of(rng, 2..4, |r| r.gen_range(3.0..20.0)),
                vec_of(rng, 1..6, |r| r.gen_range(0.5..3.0)),
                rng.next_u32(),
            )
        },
        |(caps, client_loads, seed)| {
            let mut problem = AssignmentProblem::new(
                caps.iter()
                    .copied()
                    .map(vdx::core::units::Kbps::new)
                    .collect(),
            );
            let nb = caps.len();
            for (i, load) in client_loads.iter().enumerate() {
                let options: Vec<CandidateOption> = (0..nb)
                    .map(|b| CandidateOption {
                        bucket: b,
                        value: ((*seed as usize + i * 7 + b * 13) % 17) as f64,
                        load: vdx::core::units::Kbps::new(*load),
                    })
                    .collect();
                problem.add_client(options);
            }
            let heur = problem.solve_heuristic();
            if problem.respects_capacities(&heur.choice, vdx::core::units::Kbps::new(1e-9)) {
                if let Some(exact) = problem.solve_exact(&MilpConfig::default()) {
                    assert!(heur.objective <= exact.objective + 1e-6);
                }
            }
        },
    );
}

// ---- netsim ----------------------------------------------------------

#[test]
fn score_ordering_consistent_with_inputs() {
    check(
        CASES,
        |rng| {
            (
                rng.gen_range(1.0..500.0),
                rng.gen_range(1.0..500.0),
                rng.gen_range(0.0..0.2),
            )
        },
        |&(rtt1, rtt2, loss)| {
            // At equal loss, higher rtt means strictly worse score.
            let s1 = Score::from_latency_loss(rtt1, loss);
            let s2 = Score::from_latency_loss(rtt2, loss);
            if rtt1 < rtt2 {
                assert!(s1.value() < s2.value());
            }
            // Loss can never make a score better.
            let clean = Score::from_latency_loss(rtt1, 0.0);
            assert!(s1.value() >= clean.value());
        },
    );
}
