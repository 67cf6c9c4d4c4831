//! An in-memory duplex link with deterministic fault injection.
//!
//! The same adverse-network knobs smoltcp's examples expose — drop chance,
//! corrupt chance — plus propagation delay with jitter.
//! Everything is driven by explicit [`SimTime`]: `send` stamps a delivery
//! time, `recv` returns whatever has "arrived" by `now`. Determinism comes
//! from a seeded RNG, so a test that exercises loss behaves identically on
//! every run.

use crate::SimTime;
use std::collections::VecDeque;
use vdx_rand::StdRng;

/// Fault-injection configuration.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Probability a packet is silently dropped.
    pub drop_chance: f64,
    /// Probability one random octet of a packet is flipped.
    pub corrupt_chance: f64,
    /// Base one-way propagation delay, ms.
    pub delay_ms: u64,
    /// Uniform extra jitter added to the delay, ms.
    pub jitter_ms: u64,
}

impl FaultConfig {
    /// A perfect link: no loss, no corruption, no delay.
    pub fn lossless() -> FaultConfig {
        FaultConfig {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            delay_ms: 0,
            jitter_ms: 0,
        }
    }

    /// The smoltcp README's "good starting values" for adverse testing:
    /// 15 % drop and corrupt chances, moderate delay.
    pub fn adverse() -> FaultConfig {
        FaultConfig {
            drop_chance: 0.15,
            corrupt_chance: 0.15,
            delay_ms: 20,
            jitter_ms: 10,
        }
    }
}

/// Which end of the link is speaking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkEnd {
    /// The "A" side (conventionally the broker).
    A,
    /// The "B" side (conventionally a CDN).
    B,
}

impl LinkEnd {
    /// The opposite end.
    pub fn peer(&self) -> LinkEnd {
        match self {
            LinkEnd::A => LinkEnd::B,
            LinkEnd::B => LinkEnd::A,
        }
    }
}

/// Link statistics (per direction totals).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets submitted for transmission.
    pub sent: u64,
    /// Packets dropped by fault injection.
    pub dropped: u64,
    /// Packets that had an octet corrupted.
    pub corrupted: u64,
    /// Packets handed to the receiver.
    pub delivered: u64,
}

struct Direction {
    queue: VecDeque<(SimTime, Vec<u8>)>,
    stats: LinkStats,
}

impl Direction {
    fn new() -> Direction {
        Direction {
            queue: VecDeque::new(),
            stats: LinkStats::default(),
        }
    }
}

/// A duplex point-to-point link.
pub struct Link {
    faults: FaultConfig,
    rng: StdRng,
    a2b: Direction,
    b2a: Direction,
}

impl Link {
    /// Creates a link with the given fault profile; deterministic in `seed`.
    pub fn new(faults: FaultConfig, seed: u64) -> Link {
        Link {
            faults,
            rng: StdRng::seed_from_u64(seed),
            a2b: Direction::new(),
            b2a: Direction::new(),
        }
    }

    /// Transmits a packet from `from` at time `now`.
    pub fn send(&mut self, from: LinkEnd, now: SimTime, data: &[u8]) {
        let jitter = if self.faults.jitter_ms > 0 {
            self.rng.gen_range(0..=self.faults.jitter_ms)
        } else {
            0
        };
        let deliver_at = now.plus_ms(self.faults.delay_ms + jitter);
        let drop_roll: f64 = self.rng.gen_range(0.0..1.0);
        let corrupt_roll: f64 = self.rng.gen_range(0.0..1.0);
        let corrupt_pos = if data.is_empty() {
            0
        } else {
            self.rng.gen_range(0..data.len())
        };

        let faults = self.faults.clone();
        let dir = self.direction_mut(from);
        dir.stats.sent += 1;

        if drop_roll < faults.drop_chance {
            dir.stats.dropped += 1;
            return;
        }
        let mut payload = data.to_vec();
        if corrupt_roll < faults.corrupt_chance && !payload.is_empty() {
            payload[corrupt_pos] ^= 0x20;
            dir.stats.corrupted += 1;
        }
        // Keep the queue ordered by delivery time (jitter can reorder).
        let pos = dir
            .queue
            .iter()
            .position(|(t, _)| *t > deliver_at)
            .unwrap_or(dir.queue.len());
        dir.queue.insert(pos, (deliver_at, payload));
    }

    /// Receives every packet that has arrived at `at` by time `now`.
    pub fn recv(&mut self, at: LinkEnd, now: SimTime) -> Vec<Vec<u8>> {
        let dir = self.direction_mut(at.peer());
        let mut out = Vec::new();
        while dir.queue.front().is_some_and(|(t, _)| *t <= now) {
            if let Some((_, data)) = dir.queue.pop_front() {
                dir.stats.delivered += 1;
                out.push(data);
            }
        }
        out
    }

    /// Statistics for the direction *out of* `from`.
    pub fn stats(&self, from: LinkEnd) -> LinkStats {
        self.direction(from).stats
    }

    fn direction(&self, from: LinkEnd) -> &Direction {
        match from {
            LinkEnd::A => &self.a2b,
            LinkEnd::B => &self.b2a,
        }
    }

    fn direction_mut(&mut self, from: LinkEnd) -> &mut Direction {
        match from {
            LinkEnd::A => &mut self.a2b,
            LinkEnd::B => &mut self.b2a,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_link_delivers_in_order() {
        let mut link = Link::new(FaultConfig::lossless(), 1);
        link.send(LinkEnd::A, SimTime(0), b"one");
        link.send(LinkEnd::A, SimTime(1), b"two");
        let got = link.recv(LinkEnd::B, SimTime(1));
        assert_eq!(got, vec![b"one".to_vec(), b"two".to_vec()]);
        assert_eq!(link.stats(LinkEnd::A).delivered, 2);
    }

    #[test]
    fn delay_holds_packets_until_due() {
        let cfg = FaultConfig {
            delay_ms: 50,
            ..FaultConfig::lossless()
        };
        let mut link = Link::new(cfg, 1);
        link.send(LinkEnd::A, SimTime(0), b"later");
        assert!(link.recv(LinkEnd::B, SimTime(49)).is_empty());
        assert_eq!(link.recv(LinkEnd::B, SimTime(50)).len(), 1);
    }

    #[test]
    fn directions_are_independent() {
        let mut link = Link::new(FaultConfig::lossless(), 1);
        link.send(LinkEnd::A, SimTime(0), b"to-b");
        link.send(LinkEnd::B, SimTime(0), b"to-a");
        assert_eq!(link.recv(LinkEnd::A, SimTime(0)), vec![b"to-a".to_vec()]);
        assert_eq!(link.recv(LinkEnd::B, SimTime(0)), vec![b"to-b".to_vec()]);
    }

    #[test]
    fn drops_are_deterministic_and_roughly_calibrated() {
        let cfg = FaultConfig {
            drop_chance: 0.3,
            ..FaultConfig::lossless()
        };
        let run = |seed: u64| -> u64 {
            let mut link = Link::new(cfg.clone(), seed);
            for i in 0..1000 {
                link.send(LinkEnd::A, SimTime(i), b"x");
            }
            link.stats(LinkEnd::A).dropped
        };
        assert_eq!(run(7), run(7), "same seed, same drops");
        let dropped = run(7) as f64 / 1000.0;
        assert!((0.22..0.38).contains(&dropped), "drop rate {dropped}");
    }

    #[test]
    fn corruption_flips_exactly_one_octet() {
        let cfg = FaultConfig {
            corrupt_chance: 1.0,
            ..FaultConfig::lossless()
        };
        let mut link = Link::new(cfg, 3);
        link.send(LinkEnd::A, SimTime(0), b"abcd");
        let got = link.recv(LinkEnd::B, SimTime(0));
        assert_eq!(got.len(), 1);
        let differing = got[0].iter().zip(b"abcd").filter(|(a, b)| a != b).count();
        assert_eq!(differing, 1);
        assert_eq!(link.stats(LinkEnd::A).corrupted, 1);
    }

    #[test]
    fn jitter_never_reorders_recv_output() {
        let cfg = FaultConfig {
            delay_ms: 5,
            jitter_ms: 50,
            ..FaultConfig::lossless()
        };
        let mut link = Link::new(cfg, 9);
        for i in 0..100u64 {
            link.send(LinkEnd::A, SimTime(i), &i.to_be_bytes());
        }
        let got = link.recv(LinkEnd::B, SimTime(10_000));
        assert_eq!(got.len(), 100);
        // Delivery-time order is maintained by the queue even if it differs
        // from send order; recv timestamps must be non-decreasing, which the
        // queue discipline guarantees by construction. Here we just check
        // nothing was lost or duplicated.
        let mut seen: Vec<u64> = got
            .iter()
            .map(|d| u64::from_be_bytes(d[..8].try_into().expect("8 bytes")))
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }
}
