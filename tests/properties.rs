//! Property-based tests (proptest) on the core data structures and
//! invariants, across crate boundaries.

use proptest::prelude::*;
use vdx::geo::GeoPoint;
use vdx::netsim::Score;
use vdx::proto::frame;
use vdx::proto::{AcceptEntry, Bid, Message, Share};
use vdx::solver::{
    solve_lp, AssignmentProblem, CandidateOption, LinearProgram, MilpConfig, Relation,
};

proptest! {
    // ---- geo -----------------------------------------------------------

    #[test]
    fn haversine_is_symmetric_and_nonnegative(
        lat1 in -90.0f64..90.0, lon1 in -180.0f64..180.0,
        lat2 in -90.0f64..90.0, lon2 in -180.0f64..180.0,
    ) {
        let a = GeoPoint::new(lat1, lon1);
        let b = GeoPoint::new(lat2, lon2);
        let d_ab = a.distance_km(b);
        let d_ba = b.distance_km(a);
        prop_assert!(d_ab >= 0.0);
        prop_assert!((d_ab - d_ba).abs() < 1e-6);
        // No two points on Earth are farther apart than half the
        // circumference.
        prop_assert!(d_ab <= std::f64::consts::PI * vdx::geo::coord::EARTH_RADIUS_KM + 1.0);
    }

    #[test]
    fn haversine_triangle_inequality(
        lat1 in -80.0f64..80.0, lon1 in -170.0f64..170.0,
        lat2 in -80.0f64..80.0, lon2 in -170.0f64..170.0,
        lat3 in -80.0f64..80.0, lon3 in -170.0f64..170.0,
    ) {
        let a = GeoPoint::new(lat1, lon1);
        let b = GeoPoint::new(lat2, lon2);
        let c = GeoPoint::new(lat3, lon3);
        prop_assert!(a.distance_km(c) <= a.distance_km(b) + b.distance_km(c) + 1e-6);
    }

    // ---- proto: framing ------------------------------------------------

    #[test]
    fn frames_roundtrip_any_payload(payload in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let wire = frame::encode(&payload);
        let frame = frame::decode_datagram(&wire).expect("intact frame decodes");
        prop_assert_eq!(&frame.payload[..], &payload[..]);
        // The stream decoder agrees.
        let mut dec = frame::FrameDecoder::new();
        dec.feed(&wire);
        let streamed = dec.next_frame().expect("decodes").expect("complete");
        prop_assert_eq!(&streamed.payload[..], &payload[..]);
    }

    #[test]
    fn corrupting_any_single_byte_is_detected(
        payload in proptest::collection::vec(any::<u8>(), 1..512),
        flip_bit in 0u8..8,
        pos_seed in any::<u64>(),
    ) {
        let wire = frame::encode(&payload).to_vec();
        let mut corrupted = wire.clone();
        let pos = (pos_seed % wire.len() as u64) as usize;
        corrupted[pos] ^= 1 << flip_bit;
        // Either an error, or (if the flip undid itself — impossible for a
        // single bit) the same payload. Never a *different* payload.
        match frame::decode_datagram(&corrupted) {
            Ok(f) => prop_assert_eq!(&f.payload[..], &payload[..]),
            Err(_) => {}
        }
    }

    #[test]
    fn stream_decoder_never_panics_on_garbage(
        chunks in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..128), 0..16)
    ) {
        let mut dec = frame::FrameDecoder::new();
        for chunk in &chunks {
            dec.feed(chunk);
            // Drain whatever it makes of it; errors are fine, panics not.
            for _ in 0..64 {
                match dec.next_frame() {
                    Ok(Some(_)) | Err(_) => continue,
                    Ok(None) => break,
                }
            }
        }
    }

    // ---- proto: messages -----------------------------------------------

    #[test]
    fn messages_roundtrip(
        share_id in any::<u64>(),
        location in any::<u32>(),
        isp in any::<u32>(),
        kbps in 0.0f64..1e9,
        count in any::<u32>(),
        price in 0.0f64..1e3,
        accepted in any::<bool>(),
    ) {
        let share = Share {
            share_id, location, isp, content_id: 7, data_size_kbps: kbps, client_count: count,
        };
        let bid = Bid {
            cluster_id: share_id ^ 0xABCD,
            share_id,
            performance_estimate: kbps / 2.0,
            capacity_kbps: kbps * 2.0,
            price_per_mb: price,
        };
        for msg in [
            Message::Share(vec![share]),
            Message::Announce(vec![bid]),
            Message::Accept(vec![AcceptEntry { bid, accepted }]),
            Message::Query { client_id: share_id, location },
            Message::QueryResult { client_id: share_id, cluster_id: 3 },
        ] {
            let back = Message::decode(&msg.encode()).expect("roundtrips");
            prop_assert_eq!(back, msg);
        }
    }

    #[test]
    fn message_decoder_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = Message::decode(&bytes);
    }

    // ---- solver ---------------------------------------------------------

    #[test]
    fn lp_solutions_are_feasible_and_beat_origin(
        c0 in -3.0f64..3.0, c1 in -3.0f64..3.0,
        a00 in 0.0f64..2.0, a01 in 0.0f64..2.0,
        a10 in 0.0f64..2.0, a11 in 0.0f64..2.0,
        b0 in 0.5f64..10.0, b1 in 0.5f64..10.0,
        ub in 0.5f64..20.0,
    ) {
        let mut lp = LinearProgram::maximize(2);
        lp.set_objective(0, c0).set_objective(1, c1);
        lp.set_upper_bound(0, ub).set_upper_bound(1, ub);
        lp.add_constraint(vec![(0, a00), (1, a01)], Relation::Le, b0);
        lp.add_constraint(vec![(0, a10), (1, a11)], Relation::Le, b1);
        match solve_lp(&lp) {
            vdx::solver::LpOutcome::Optimal(sol) => {
                prop_assert!(lp.is_feasible(&sol.values, 1e-6));
                // The origin is feasible, so the optimum is at least 0.
                prop_assert!(sol.objective >= -1e-9);
            }
            other => prop_assert!(false, "unexpected outcome {:?}", other),
        }
    }

    #[test]
    fn gap_heuristic_feasible_input_bounded_by_exact(
        caps in proptest::collection::vec(3.0f64..20.0, 2..4),
        client_loads in proptest::collection::vec(0.5f64..3.0, 1..6),
        seed in any::<u32>(),
    ) {
        let mut problem = AssignmentProblem::new(
            caps.iter().copied().map(vdx::core::units::Kbps::new).collect(),
        );
        let nb = caps.len();
        for (i, load) in client_loads.iter().enumerate() {
            let options: Vec<CandidateOption> = (0..nb)
                .map(|b| CandidateOption {
                    bucket: b,
                    value: ((seed as usize + i * 7 + b * 13) % 17) as f64,
                    load: vdx::core::units::Kbps::new(*load),
                })
                .collect();
            problem.add_client(options);
        }
        let heur = problem.solve_heuristic();
        if problem.respects_capacities(&heur.choice, vdx::core::units::Kbps::new(1e-9)) {
            if let Some(exact) = problem.solve_exact(&MilpConfig::default()) {
                prop_assert!(heur.objective <= exact.objective + 1e-6);
            }
        }
    }

    // ---- netsim ----------------------------------------------------------

    #[test]
    fn score_ordering_consistent_with_inputs(
        rtt1 in 1.0f64..500.0, rtt2 in 1.0f64..500.0,
        loss in 0.0f64..0.2,
    ) {
        // At equal loss, higher rtt means strictly worse score.
        let s1 = Score::from_latency_loss(rtt1, loss);
        let s2 = Score::from_latency_loss(rtt2, loss);
        if rtt1 < rtt2 {
            prop_assert!(s1.value() < s2.value());
        }
        // Loss can never make a score better.
        let clean = Score::from_latency_loss(rtt1, 0.0);
        prop_assert!(s1.value() >= clean.value());
    }
}
