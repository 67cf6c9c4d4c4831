//! A Go-Back-N reliable channel over a lossy [`Link`].
//!
//! Corruption is detected by the frame CRC (corrupted frames are simply
//! discarded, becoming losses); losses are repaired by cumulative acks and
//! a retransmission timeout that resends the whole window. Go-Back-N keeps
//! the state machine small and obviously correct; the Decision Protocol
//! exchanges a handful of batched messages per round, so selective repeat
//! would buy nothing.
//!
//! The channel is advanced exclusively by [`ReliableChannel::poll`] — no
//! wall clock, no threads, in the smoltcp style. A driver loop looks like:
//!
//! ```
//! use vdx_proto::{FaultConfig, Link, LinkEnd, ReliableChannel, SimTime};
//! let mut link = Link::new(FaultConfig::adverse(), 7);
//! let mut a = ReliableChannel::new(LinkEnd::A);
//! let mut b = ReliableChannel::new(LinkEnd::B);
//! a.send(b"decision round 1".to_vec());
//! let mut got = None;
//! for ms in 0..5_000 {
//!     let now = SimTime(ms);
//!     a.poll(now, &mut link);
//!     b.poll(now, &mut link);
//!     if let Some(m) = b.recv() { got = Some(m); break; }
//! }
//! assert_eq!(got.as_deref(), Some(&b"decision round 1"[..]));
//! ```

use crate::frame::{decode_datagram, encode as frame_encode};
use crate::link::{Link, LinkEnd};
use crate::wire::{Cursor, PutBe};
use crate::SimTime;
use std::collections::VecDeque;

/// Maximum unacknowledged packets in flight.
const WINDOW: usize = 16;

/// Base retransmission timeout, ms; restored whenever an ack makes
/// progress.
const RTO_MS: u64 = 200;

/// Multiplier applied to the timeout after every retransmission
/// (exponential backoff).
const BACKOFF: f64 = 1.5;

/// Consecutive retransmissions without ack progress after which the
/// sender gives up: the channel marks itself failed and stops resending.
const MAX_RETRIES: u32 = 16;

/// Channel statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Application payloads accepted by [`ReliableChannel::send`].
    pub queued: u64,
    /// Data packets transmitted (including retransmissions).
    pub data_sent: u64,
    /// Retransmitted data packets.
    pub retransmits: u64,
    /// Acks transmitted.
    pub acks_sent: u64,
    /// Payloads delivered in order to the application.
    pub delivered: u64,
    /// Frames discarded (CRC failures, i.e. corruption).
    pub discarded: u64,
    /// Out-of-order data packets dropped (Go-Back-N accepts only in-order).
    pub out_of_order: u64,
}

const KIND_DATA: u8 = 0;
const KIND_ACK: u8 = 1;

/// Maximum application bytes per data packet; larger payloads are split
/// into fragments (flag `MORE_FRAGMENTS`) and reassembled in order. A
/// datagram is one packet, and a lossy link loses packets: a megabyte
/// Announce travels as 32 KiB pieces, so a drop costs one piece, not the
/// batch. The size is part of the simulated links' wire format.
pub const MAX_FRAGMENT: usize = 32 * 1024;

const FLAG_MORE_FRAGMENTS: u8 = 0x01;

/// One wire-sized piece of an application payload.
#[derive(Debug, Clone)]
struct Fragment {
    /// Whether more fragments of the same payload follow.
    more: bool,
    bytes: Vec<u8>,
}

/// One reliable, ordered byte-message channel over one end of a link.
pub struct ReliableChannel {
    end: LinkEnd,
    // Sender.
    send_queue: VecDeque<Fragment>,
    inflight: VecDeque<(u64, Fragment)>,
    next_seq: u64,
    oldest_unacked_at: Option<SimTime>,
    // Receiver.
    expected_seq: u64,
    delivered: VecDeque<Vec<u8>>,
    reassembly: Vec<u8>,
    ack_due: bool,
    // Backoff state: the current (possibly inflated) timeout and how many
    // times the window has been resent without ack progress.
    rto_current_ms: u64,
    retries_without_progress: u32,
    failed: bool,
    stats: ChannelStats,
}

impl ReliableChannel {
    /// Creates a channel bound to one end of a link.
    pub fn new(end: LinkEnd) -> ReliableChannel {
        ReliableChannel {
            end,
            send_queue: VecDeque::new(),
            inflight: VecDeque::new(),
            next_seq: 0,
            oldest_unacked_at: None,
            expected_seq: 0,
            delivered: VecDeque::new(),
            reassembly: Vec::new(),
            ack_due: false,
            rto_current_ms: RTO_MS,
            retries_without_progress: 0,
            failed: false,
            stats: ChannelStats::default(),
        }
    }

    /// Queues an application payload for reliable delivery. Payloads
    /// larger than [`MAX_FRAGMENT`] are split transparently; the receiver
    /// reassembles before delivery.
    pub fn send(&mut self, payload: Vec<u8>) {
        self.stats.queued += 1;
        if payload.len() <= MAX_FRAGMENT {
            self.send_queue.push_back(Fragment {
                more: false,
                bytes: payload,
            });
            return;
        }
        let mut chunks = payload.chunks(MAX_FRAGMENT).peekable();
        while let Some(chunk) = chunks.next() {
            self.send_queue.push_back(Fragment {
                more: chunks.peek().is_some(),
                bytes: chunk.to_vec(),
            });
        }
    }

    /// Pops the next in-order delivered payload, if any.
    pub fn recv(&mut self) -> Option<Vec<u8>> {
        self.delivered.pop_front()
    }

    /// Whether everything queued has been delivered *and acknowledged*.
    pub fn is_idle(&self) -> bool {
        self.send_queue.is_empty() && self.inflight.is_empty()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Whether the sender exhausted its retry budget — 16 consecutive
    /// retransmissions without any ack progress — and gave up.
    /// A failed channel keeps receiving but stops (re)transmitting.
    pub fn has_failed(&self) -> bool {
        self.failed
    }

    /// Advances the state machine: ingests link packets, delivers in-order
    /// data, sends acks, (re)transmits within the window.
    pub fn poll(&mut self, now: SimTime, link: &mut Link) {
        // Ingest. The link is datagram-oriented (one frame per packet), so
        // each packet is decoded independently: corruption anywhere in a
        // packet discards that packet and nothing else.
        for packet in link.recv(self.end, now) {
            match decode_datagram(&packet) {
                Ok(frame) => self.handle_packet(&frame.payload),
                Err(_) => self.stats.discarded += 1,
            }
        }

        // Ack if data arrived.
        if self.ack_due {
            let mut buf = Vec::with_capacity(9);
            buf.put_u8(KIND_ACK);
            buf.put_u64(self.expected_seq);
            link.send(self.end, now, &frame_encode(&buf));
            self.stats.acks_sent += 1;
            self.ack_due = false;
        }

        // Retransmit on timeout (entire window — Go-Back-N), backing the
        // timeout off multiplicatively and giving up after the retry
        // budget.
        if let Some(sent_at) = self.oldest_unacked_at {
            if now.since(sent_at) >= self.rto_current_ms
                && !self.inflight.is_empty()
                && !self.failed
            {
                if self.retries_without_progress >= MAX_RETRIES {
                    self.failed = true;
                } else {
                    self.retries_without_progress += 1;
                    self.rto_current_ms = ((self.rto_current_ms as f64) * BACKOFF).round() as u64;
                    for (seq, frag) in &self.inflight {
                        link.send(self.end, now, &data_packet(*seq, frag));
                        self.stats.data_sent += 1;
                        self.stats.retransmits += 1;
                    }
                    self.oldest_unacked_at = Some(now);
                }
            }
        }

        if self.failed {
            return;
        }

        // Fill the window with new data.
        while self.inflight.len() < WINDOW {
            let Some(frag) = self.send_queue.pop_front() else {
                break;
            };
            let seq = self.next_seq;
            self.next_seq += 1;
            link.send(self.end, now, &data_packet(seq, &frag));
            self.stats.data_sent += 1;
            self.inflight.push_back((seq, frag));
            if self.oldest_unacked_at.is_none() {
                self.oldest_unacked_at = Some(now);
            }
        }
    }

    fn handle_packet(&mut self, payload: &[u8]) {
        let mut data = Cursor::new(payload);
        match data.u8() {
            Some(KIND_DATA) => {
                let (Some(seq), Some(flags)) = (data.u64(), data.u8()) else {
                    self.stats.discarded += 1;
                    return;
                };
                if seq == self.expected_seq {
                    self.reassembly.extend_from_slice(data.rest());
                    if flags & FLAG_MORE_FRAGMENTS == 0 {
                        self.delivered
                            .push_back(std::mem::take(&mut self.reassembly));
                        self.stats.delivered += 1;
                    }
                    self.expected_seq += 1;
                } else {
                    self.stats.out_of_order += 1;
                }
                // Always (re)ack the current cumulative position.
                self.ack_due = true;
            }
            Some(KIND_ACK) => {
                let Some(next_expected) = data.u64() else {
                    self.stats.discarded += 1;
                    return;
                };
                let mut progressed = false;
                while self
                    .inflight
                    .front()
                    .map(|(seq, _)| *seq < next_expected)
                    .unwrap_or(false)
                {
                    self.inflight.pop_front();
                    progressed = true;
                }
                if progressed {
                    // Ack progress: restore the base timeout and the full
                    // retry budget.
                    self.rto_current_ms = RTO_MS;
                    self.retries_without_progress = 0;
                }
                if self.inflight.is_empty() {
                    self.oldest_unacked_at = None;
                }
            }
            _ => self.stats.discarded += 1,
        }
    }
}

fn data_packet(seq: u64, frag: &Fragment) -> Vec<u8> {
    let mut buf = Vec::with_capacity(10 + frag.bytes.len());
    buf.put_u8(KIND_DATA);
    buf.put_u64(seq);
    buf.put_u8(if frag.more { FLAG_MORE_FRAGMENTS } else { 0 });
    buf.extend_from_slice(&frag.bytes);
    frame_encode(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::FaultConfig;

    fn drive(
        a: &mut ReliableChannel,
        b: &mut ReliableChannel,
        link: &mut Link,
        from_ms: u64,
        to_ms: u64,
    ) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let mut got_a = Vec::new();
        let mut got_b = Vec::new();
        for ms in from_ms..to_ms {
            let now = SimTime(ms);
            a.poll(now, link);
            b.poll(now, link);
            while let Some(m) = a.recv() {
                got_a.push(m);
            }
            while let Some(m) = b.recv() {
                got_b.push(m);
            }
        }
        (got_a, got_b)
    }

    #[test]
    fn lossless_delivery_in_order() {
        let mut link = Link::new(FaultConfig::lossless(), 1);
        let mut a = ReliableChannel::new(LinkEnd::A);
        let mut b = ReliableChannel::new(LinkEnd::B);
        for i in 0..50u32 {
            a.send(i.to_be_bytes().to_vec());
        }
        let (_, got_b) = drive(&mut a, &mut b, &mut link, 0, 100);
        assert_eq!(got_b.len(), 50);
        for (i, m) in got_b.iter().enumerate() {
            assert_eq!(m, &(i as u32).to_be_bytes().to_vec());
        }
        assert!(a.is_idle());
        assert_eq!(a.stats().retransmits, 0);
    }

    #[test]
    fn survives_heavy_loss_and_corruption() {
        let cfg = FaultConfig {
            drop_chance: 0.25,
            corrupt_chance: 0.15,
            delay_ms: 5,
            jitter_ms: 5,
        };
        let mut link = Link::new(cfg, 42);
        let mut a = ReliableChannel::new(LinkEnd::A);
        let mut b = ReliableChannel::new(LinkEnd::B);
        for i in 0..30u32 {
            a.send(format!("msg-{i}").into_bytes());
        }
        let (_, got_b) = drive(&mut a, &mut b, &mut link, 0, 30_000);
        assert_eq!(got_b.len(), 30, "all messages delivered despite faults");
        for (i, m) in got_b.iter().enumerate() {
            assert_eq!(m, &format!("msg-{i}").into_bytes(), "in order");
        }
        assert!(a.stats().retransmits > 0, "loss actually exercised");
        assert!(b.stats().discarded > 0, "corruption actually exercised");
    }

    #[test]
    fn bidirectional_traffic() {
        let mut link = Link::new(FaultConfig::adverse(), 5);
        let mut a = ReliableChannel::new(LinkEnd::A);
        let mut b = ReliableChannel::new(LinkEnd::B);
        a.send(b"ping".to_vec());
        b.send(b"pong".to_vec());
        let (got_a, got_b) = drive(&mut a, &mut b, &mut link, 0, 10_000);
        assert_eq!(got_b, vec![b"ping".to_vec()]);
        assert_eq!(got_a, vec![b"pong".to_vec()]);
    }

    #[test]
    fn window_limits_inflight() {
        let mut link = Link::new(
            FaultConfig {
                delay_ms: 1_000,
                ..FaultConfig::lossless()
            },
            1,
        );
        let mut a = ReliableChannel::new(LinkEnd::A);
        for i in 0..WINDOW as u32 + 4 {
            a.send(i.to_be_bytes().to_vec());
        }
        a.poll(SimTime(0), &mut link);
        // Only the window's worth was transmitted.
        assert_eq!(a.stats().data_sent, WINDOW as u64);
    }

    #[test]
    fn empty_channel_is_idle() {
        let a = ReliableChannel::new(LinkEnd::A);
        assert!(a.is_idle());
    }

    #[test]
    fn large_payloads_fragment_and_roundtrip() {
        let mut link = Link::new(FaultConfig::lossless(), 1);
        let mut a = ReliableChannel::new(LinkEnd::A);
        let mut b = ReliableChannel::new(LinkEnd::B);
        let big = vec![0xABu8; 200_000];
        a.send(big.clone());
        let (_, got_b) = drive(&mut a, &mut b, &mut link, 0, 50);
        assert_eq!(got_b, vec![big]);
        // 200 kB over 32 kB fragments = 7 data packets.
        assert_eq!(a.stats().data_sent, 7, "payload was fragmented");
    }

    #[test]
    fn oversized_payloads_survive_heavy_loss() {
        // A multi-megabyte Announce (62 fragments) must arrive intact
        // even over a lossy link.
        let cfg = FaultConfig {
            drop_chance: 0.15,
            corrupt_chance: 0.05,
            delay_ms: 2,
            jitter_ms: 2,
        };
        let mut link = Link::new(cfg, 77);
        let mut a = ReliableChannel::new(LinkEnd::A);
        let mut b = ReliableChannel::new(LinkEnd::B);
        let huge: Vec<u8> = (0..2_000_000u32).map(|i| (i % 251) as u8).collect();
        a.send(huge.clone());
        let (_, got_b) = drive(&mut a, &mut b, &mut link, 0, 120_000);
        assert_eq!(got_b.len(), 1);
        assert_eq!(got_b[0], huge);
    }

    /// A black-hole link: every retransmission is timer-driven.
    fn blackout() -> Link {
        Link::new(
            FaultConfig {
                drop_chance: 1.0,
                ..FaultConfig::lossless()
            },
            1,
        )
    }

    #[test]
    fn backoff_spaces_retransmissions_out() {
        let mut link = blackout();
        let mut a = ReliableChannel::new(LinkEnd::A);
        a.send(b"x".to_vec());
        let mut fired = Vec::new();
        for ms in 0..2_000 {
            let before = a.stats().retransmits;
            a.poll(SimTime(ms), &mut link);
            if a.stats().retransmits > before {
                fired.push(ms);
            }
        }
        // The timeout grows 200, 300, 450, 675 ms: a fixed 200 ms timer
        // would have fired 9 times in these 2 s.
        assert_eq!(fired, vec![200, 500, 950, 1_625]);
        assert!(!a.has_failed());
    }

    #[test]
    fn bounded_retries_give_up_cleanly() {
        let mut link = blackout();
        let mut a = ReliableChannel::new(LinkEnd::A);
        a.send(b"doomed".to_vec());
        // Sixteen backed-off timeouts add up to about 394 s.
        for ms in 0..500_000 {
            a.poll(SimTime(ms), &mut link);
        }
        assert!(a.has_failed());
        // Initial transmission + exactly the retry budget, then silence.
        assert_eq!(a.stats().retransmits, u64::from(MAX_RETRIES));
        assert_eq!(a.stats().data_sent, u64::from(MAX_RETRIES) + 1);
        assert!(!a.is_idle(), "the payload was never acknowledged");
    }

    #[test]
    fn ack_progress_restores_the_retry_budget() {
        // Lossless but slow link: every window times out twice before
        // its acks arrive, then delivery proceeds and the budget resets.
        // Over the whole run that is more timeouts than the budget allows
        // in a row.
        let mut link = Link::new(
            FaultConfig {
                delay_ms: 300,
                ..FaultConfig::lossless()
            },
            1,
        );
        let mut a = ReliableChannel::new(LinkEnd::A);
        let mut b = ReliableChannel::new(LinkEnd::B);
        for i in 0..200u32 {
            a.send(i.to_be_bytes().to_vec());
        }
        let (_, got_b) = drive(&mut a, &mut b, &mut link, 0, 20_000);
        assert_eq!(got_b.len(), 200, "slow acks must not trip the retry cap");
        assert!(!a.has_failed());
        let budget_in_packets = u64::from(MAX_RETRIES) * WINDOW as u64;
        assert!(a.stats().retransmits > budget_in_packets, "{:?}", a.stats());
    }

    #[test]
    fn interleaved_small_and_fragmented_payloads_stay_ordered() {
        let mut link = Link::new(FaultConfig::lossless(), 3);
        let mut a = ReliableChannel::new(LinkEnd::A);
        let mut b = ReliableChannel::new(LinkEnd::B);
        let big = vec![7u8; 100_000];
        a.send(b"first".to_vec());
        a.send(big.clone());
        a.send(b"last".to_vec());
        let (_, got_b) = drive(&mut a, &mut b, &mut link, 0, 200);
        assert_eq!(got_b, vec![b"first".to_vec(), big, b"last".to_vec()]);
    }
}
