//! Property tests for the wire protocol: reliable delivery must hold for
//! *every* fault seed, and no input — however mangled — may panic a
//! decoder.

use vdx_proto::{FaultConfig, Link, LinkEnd, Message, ReliableChannel, SimTime};
use vdx_rand::prop::check;

const CASES: u64 = 32;

/// Go-Back-N delivers every payload, in order, exactly once — for any
/// RNG seed and any moderate loss/corruption rates. The horizon (600 s)
/// outlasts the whole backed-off retry budget (about 394 s), so a case
/// that gave up would fail here rather than run out of time.
#[test]
fn reliable_channel_delivers_everything_in_order() {
    check(
        CASES,
        |rng| {
            let delay = rng.gen_range(0u64..30);
            let faults = FaultConfig {
                drop_chance: rng.gen_range(0.0..0.30),
                corrupt_chance: rng.gen_range(0.0..0.20),
                delay_ms: delay,
                jitter_ms: delay / 2,
            };
            (rng.next_u64(), faults, rng.gen_range(1usize..25))
        },
        |(seed, faults, n_msgs)| {
            let n_msgs = *n_msgs;
            let mut link = Link::new(faults.clone(), *seed);
            let mut a = ReliableChannel::new(LinkEnd::A);
            let mut b = ReliableChannel::new(LinkEnd::B);
            for i in 0..n_msgs {
                a.send(format!("payload-{i}").into_bytes());
            }
            let mut received = Vec::new();
            for ms in 0..600_000u64 {
                let now = SimTime(ms);
                a.poll(now, &mut link);
                b.poll(now, &mut link);
                while let Some(m) = b.recv() {
                    received.push(m);
                }
                if received.len() == n_msgs && a.is_idle() {
                    break;
                }
            }
            assert_eq!(received.len(), n_msgs, "all delivered");
            for (i, m) in received.iter().enumerate() {
                assert_eq!(
                    m,
                    &format!("payload-{i}").into_bytes(),
                    "in order, no dupes"
                );
            }
        },
    );
}

/// Feeding a corrupted *message* through a clean frame never panics and
/// never silently yields a different valid message of the same type
/// with different length semantics.
#[test]
fn message_decode_total_on_mutations() {
    check(
        CASES,
        |rng| {
            let wire = Message::HelloResume {
                node_id: rng.next_u64(),
                role: 1,
                last_round: rng.next_u64(),
            }
            .encode();
            let pos = rng.gen_range(0..wire.len());
            (wire, pos, rng.gen_range(1u32..=255) as u8)
        },
        |(wire, pos, xor)| {
            let mut mutated = wire.clone();
            mutated[*pos] ^= xor;
            let _ = Message::decode(&mutated); // must not panic
        },
    );
}

#[test]
fn simtime_is_monotone_under_plus() {
    check(
        CASES,
        |rng| {
            (
                rng.gen_range(0u64..1_000_000),
                rng.gen_range(0u64..1_000),
                rng.gen_range(0u64..1_000),
            )
        },
        |&(base, add1, add2)| {
            let t = SimTime(base);
            assert!(t.plus_ms(add1 + add2) >= t.plus_ms(add1));
            assert_eq!(t.plus_ms(add1).plus_ms(add2), t.plus_ms(add1 + add2));
            assert_eq!(t.plus_ms(add1).since(t), add1);
        },
    );
}
