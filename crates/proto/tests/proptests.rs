//! Property tests for the wire protocol: reliable delivery must hold for
//! *every* fault seed, and no input — however mangled — may panic a
//! decoder.

use proptest::prelude::*;
use vdx_proto::reliable::{ReliableChannel, ReliableConfig};
use vdx_proto::{FaultConfig, Link, LinkEnd, Message, SimTime};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Go-Back-N delivers every payload, in order, exactly once — for any
    /// RNG seed and any moderate loss/corruption rates.
    #[test]
    fn reliable_channel_delivers_everything_in_order(
        seed in any::<u64>(),
        drop in 0.0f64..0.30,
        corrupt in 0.0f64..0.20,
        delay in 0u64..30,
        n_msgs in 1usize..25,
    ) {
        let faults = FaultConfig {
            drop_chance: drop,
            corrupt_chance: corrupt,
            delay_ms: delay,
            jitter_ms: delay / 2,
        };
        let mut link = Link::new(faults, seed);
        let mut a = ReliableChannel::new(LinkEnd::A, ReliableConfig::default());
        let mut b = ReliableChannel::new(LinkEnd::B, ReliableConfig::default());
        for i in 0..n_msgs {
            a.send(format!("payload-{i}").into_bytes());
        }
        let mut received = Vec::new();
        for ms in 0..120_000u64 {
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
        prop_assert_eq!(received.len(), n_msgs, "all delivered");
        for (i, m) in received.iter().enumerate() {
            prop_assert_eq!(m, &format!("payload-{i}").into_bytes(), "in order, no dupes");
        }
    }

    /// Feeding a corrupted *message* through a clean frame never panics and
    /// never silently yields a different valid message of the same type
    /// with different length semantics.
    #[test]
    fn message_decode_total_on_mutations(
        client_id in any::<u64>(),
        location in any::<u32>(),
        mutate_at in any::<u16>(),
        xor in 1u8..=255,
    ) {
        let wire = Message::Query { client_id, location }.encode();
        let mut mutated = wire.clone();
        let pos = (mutate_at as usize) % mutated.len();
        mutated[pos] ^= xor;
        let _ = Message::decode(&mutated); // must not panic
    }

    #[test]
    fn simtime_is_monotone_under_plus(
        base in 0u64..1_000_000,
        add1 in 0u64..1_000,
        add2 in 0u64..1_000,
    ) {
        let t = SimTime(base);
        prop_assert!(t.plus_ms(add1 + add2) >= t.plus_ms(add1));
        prop_assert_eq!(t.plus_ms(add1).plus_ms(add2), t.plus_ms(add1 + add2));
        prop_assert_eq!(t.plus_ms(add1).since(t), add1);
    }
}
