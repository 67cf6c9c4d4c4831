//! Property tests on the core data structures and invariants, across
//! crate boundaries: seeded cases through `vdx_rand::prop::check`.

use vdx::geo::GeoPoint;
use vdx::netsim::Score;
use vdx::proto::frame;
use vdx::proto::{AcceptEntry, Bid, Message, Share};
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

/// What `Connection::recv` makes of `bytes` arriving on a fresh
/// connection: `FrameDecoder` → round stamp → `Message::decode`.
/// `Ok(None)` is "need more bytes".
fn stream_recv(bytes: &[u8]) -> Result<Option<(u64, Message)>, String> {
    let mut dec = frame::FrameDecoder::new();
    dec.feed(bytes);
    match dec.next_frame() {
        Err(e) => Err(e.to_string()),
        Ok(None) => Ok(None),
        Ok(Some(payload)) => vdx::proto::transport::decode_stamped(payload)
            .map(Some)
            .map_err(|e| e.to_string()),
    }
}

/// The datagram test above, for the path the daemon actually runs, and
/// exhaustive: every single-bit flip at every byte and every truncation
/// of a golden Share, Announce and Accept frame is a typed error, a wait
/// for more bytes, or the message that was sent — never another message,
/// never a panic.
#[test]
fn every_bit_flip_and_truncation_of_a_stream_frame_is_detected() {
    let bid = |i: u64| Bid {
        cluster_id: 40 + i,
        share_id: i,
        performance_estimate: 17.25 + i as f64,
        capacity_kbps: 250_000.0,
        price_per_mb: 0.0625 * (i + 1) as f64,
    };
    let golden = [
        Message::Share(
            (0..3)
                .map(|i| Share {
                    share_id: i,
                    location: 7 + i as u32,
                    isp: 64_500,
                    content_id: 9,
                    data_size_kbps: 1_500.0 * (i + 1) as f64,
                    client_count: 3,
                })
                .collect(),
        ),
        Message::Announce((0..3).map(bid).collect()),
        Message::Accept(
            (0..3)
                .map(|i| AcceptEntry {
                    bid: bid(i),
                    accepted: i == 1,
                })
                .collect(),
        ),
    ];
    for (round, msg) in golden.into_iter().enumerate() {
        // Framed the way `Connection::send` frames it.
        let mut wire = Vec::new();
        frame::begin_frame(&mut wire);
        wire.extend_from_slice(&(round as u64).to_be_bytes());
        msg.encode_into(&mut wire);
        frame::seal_frame(&mut wire).expect("a golden message fits a frame");
        let sent = Ok(Some((round as u64, msg)));
        assert_eq!(stream_recv(&wire), sent, "the intact frame decodes");

        for pos in 0..wire.len() {
            for bit in 0..8 {
                let mut flipped = wire.clone();
                flipped[pos] ^= 1 << bit;
                let got = stream_recv(&flipped);
                assert!(
                    matches!(got, Err(_) | Ok(None)) || got == sent,
                    "bit {bit} of byte {pos}: {got:?}"
                );
            }
        }
        for len in 0..wire.len() {
            let got = stream_recv(&wire[..len]);
            assert!(
                matches!(got, Err(_) | Ok(None)),
                "cut to {len} bytes: {got:?}"
            );
        }
    }
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
                Message::Hello {
                    node_id: share.share_id,
                    role: 1,
                },
                Message::HelloResume {
                    node_id: share.share_id,
                    role: 1,
                    last_round: bid.cluster_id,
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
