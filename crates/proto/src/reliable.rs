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
//! use vdx_proto::{FaultConfig, Link, LinkEnd, ReliableChannel, ReliableConfig, SimTime};
//! let mut link = Link::new(FaultConfig::adverse(), 7);
//! let mut a = ReliableChannel::new(LinkEnd::A, ReliableConfig::default());
//! let mut b = ReliableChannel::new(LinkEnd::B, ReliableConfig::default());
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
use std::sync::Arc;
use vdx_obs::{Event, Probe};

/// Reliable-channel parameters.
#[derive(Debug, Clone)]
pub struct ReliableConfig {
    /// Maximum unacknowledged packets in flight.
    pub window: usize,
    /// Retransmission timeout, ms.
    pub rto_ms: u64,
    /// Multiplier applied to the timeout after every retransmission
    /// (exponential backoff). `1.0` — the default — keeps the timeout
    /// fixed, reproducing the pre-backoff behaviour exactly. The timeout
    /// resets to `rto_ms` whenever an ack makes progress.
    pub backoff: f64,
    /// Give up after this many consecutive retransmissions without ack
    /// progress: the channel marks itself [failed] and stops resending.
    /// `None` — the default — retries forever.
    ///
    /// [failed]: ReliableChannel::has_failed
    pub max_retries: Option<u32>,
}

impl Default for ReliableConfig {
    fn default() -> Self {
        ReliableConfig {
            window: 16,
            rto_ms: 200,
            backoff: 1.0,
            max_retries: None,
        }
    }
}

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
/// into fragments (flag `MORE_FRAGMENTS`) and reassembled in order — a
/// full-scale Announce batch runs to megabytes, well past the frame
/// layer's 1 MiB safety cap.
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
    config: ReliableConfig,
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
    probe: Arc<dyn Probe>,
}

impl ReliableChannel {
    /// Creates a channel bound to one end of a link.
    pub fn new(end: LinkEnd, config: ReliableConfig) -> ReliableChannel {
        let rto_current_ms = config.rto_ms;
        ReliableChannel {
            end,
            config,
            send_queue: VecDeque::new(),
            inflight: VecDeque::new(),
            next_seq: 0,
            oldest_unacked_at: None,
            expected_seq: 0,
            delivered: VecDeque::new(),
            reassembly: Vec::new(),
            ack_due: false,
            rto_current_ms,
            retries_without_progress: 0,
            failed: false,
            stats: ChannelStats::default(),
            probe: vdx_obs::probe::noop(),
        }
    }

    /// Routes this channel's wire events ([`Event::FrameRetransmitted`],
    /// [`Event::PayloadFragmented`]) to `probe`. The default is a no-op;
    /// the channel's behaviour is identical either way.
    pub fn set_probe(&mut self, probe: Arc<dyn Probe>) {
        self.probe = probe;
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
        if self.probe.enabled() {
            self.probe.emit(Event::PayloadFragmented {
                fragments: payload.len().div_ceil(MAX_FRAGMENT) as u64,
                bytes: payload.len() as u64,
            });
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

    /// Whether the sender exhausted [`ReliableConfig::max_retries`]
    /// consecutive retransmissions without any ack progress and gave up.
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
        // timeout off multiplicatively and giving up after the configured
        // retry budget.
        if let Some(sent_at) = self.oldest_unacked_at {
            if now.since(sent_at) >= self.rto_current_ms
                && !self.inflight.is_empty()
                && !self.failed
            {
                if self
                    .config
                    .max_retries
                    .is_some_and(|max| self.retries_without_progress >= max)
                {
                    self.failed = true;
                } else {
                    self.retries_without_progress += 1;
                    self.rto_current_ms = ((self.rto_current_ms as f64) * self.config.backoff)
                        .round()
                        .max(1.0) as u64;
                    let packets: Vec<Vec<u8>> = self
                        .inflight
                        .iter()
                        .map(|(seq, frag)| data_packet(*seq, frag))
                        .collect();
                    if self.probe.enabled() {
                        self.probe.emit(Event::FrameRetransmitted {
                            at_ms: now.0,
                            frames: packets.len() as u64,
                        });
                    }
                    for p in packets {
                        link.send(self.end, now, &p);
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
        while self.inflight.len() < self.config.window {
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
                    self.rto_current_ms = self.config.rto_ms;
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
        let mut a = ReliableChannel::new(LinkEnd::A, ReliableConfig::default());
        let mut b = ReliableChannel::new(LinkEnd::B, ReliableConfig::default());
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
        let mut a = ReliableChannel::new(LinkEnd::A, ReliableConfig::default());
        let mut b = ReliableChannel::new(LinkEnd::B, ReliableConfig::default());
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
        let mut a = ReliableChannel::new(LinkEnd::A, ReliableConfig::default());
        let mut b = ReliableChannel::new(LinkEnd::B, ReliableConfig::default());
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
        let mut a = ReliableChannel::new(
            LinkEnd::A,
            ReliableConfig {
                window: 4,
                rto_ms: 10_000,
                ..ReliableConfig::default()
            },
        );
        for i in 0..20u32 {
            a.send(i.to_be_bytes().to_vec());
        }
        a.poll(SimTime(0), &mut link);
        // Only the window's worth was transmitted.
        assert_eq!(a.stats().data_sent, 4);
    }

    #[test]
    fn empty_channel_is_idle() {
        let a = ReliableChannel::new(LinkEnd::A, ReliableConfig::default());
        assert!(a.is_idle());
    }

    #[test]
    fn large_payloads_fragment_and_roundtrip() {
        let mut link = Link::new(FaultConfig::lossless(), 1);
        let mut a = ReliableChannel::new(LinkEnd::A, ReliableConfig::default());
        let mut b = ReliableChannel::new(LinkEnd::B, ReliableConfig::default());
        let big = vec![0xABu8; 200_000];
        a.send(big.clone());
        let (_, got_b) = drive(&mut a, &mut b, &mut link, 0, 50);
        assert_eq!(got_b, vec![big]);
        // 200 kB over 32 kB fragments = 7 data packets.
        assert_eq!(a.stats().data_sent, 7, "payload was fragmented");
    }

    #[test]
    fn oversized_payloads_survive_heavy_loss() {
        // A multi-megabyte Announce (past the 1 MiB frame cap) must arrive
        // intact even over a lossy link.
        let cfg = FaultConfig {
            drop_chance: 0.15,
            corrupt_chance: 0.05,
            delay_ms: 2,
            jitter_ms: 2,
        };
        let mut link = Link::new(cfg, 77);
        let mut a = ReliableChannel::new(LinkEnd::A, ReliableConfig::default());
        let mut b = ReliableChannel::new(LinkEnd::B, ReliableConfig::default());
        let huge: Vec<u8> = (0..2_000_000u32).map(|i| (i % 251) as u8).collect();
        a.send(huge.clone());
        let (_, got_b) = drive(&mut a, &mut b, &mut link, 0, 120_000);
        assert_eq!(got_b.len(), 1);
        assert_eq!(got_b[0], huge);
    }

    #[test]
    fn probe_observes_fragmentation_and_retransmits() {
        use vdx_obs::MemoryProbe;
        let cfg = FaultConfig {
            drop_chance: 0.25,
            corrupt_chance: 0.0,
            delay_ms: 2,
            jitter_ms: 2,
        };
        let mut link = Link::new(cfg, 9);
        let mut a = ReliableChannel::new(LinkEnd::A, ReliableConfig::default());
        let mut b = ReliableChannel::new(LinkEnd::B, ReliableConfig::default());
        let probe = Arc::new(MemoryProbe::new());
        a.set_probe(probe.clone());
        let big = vec![0x5Au8; 200_000];
        a.send(big.clone());
        let (_, got_b) = drive(&mut a, &mut b, &mut link, 0, 30_000);
        assert_eq!(got_b, vec![big], "probe must not perturb delivery");

        let events = probe.take();
        // 200 kB over 32 kB fragments = 7 pieces, announced up front.
        assert_eq!(
            events[0],
            Event::PayloadFragmented {
                fragments: 7,
                bytes: 200_000
            }
        );
        let retransmit_frames: u64 = events
            .iter()
            .filter_map(|e| match e {
                Event::FrameRetransmitted { frames, .. } => Some(*frames),
                _ => None,
            })
            .sum();
        assert!(
            retransmit_frames > 0,
            "lossy link must trigger retransmit events"
        );
        assert_eq!(
            retransmit_frames,
            a.stats().retransmits,
            "events account for every retransmitted packet"
        );
    }

    #[test]
    fn backoff_spaces_retransmissions_out() {
        // A black-hole link: every retransmission is timer-driven.
        let blackout = FaultConfig {
            drop_chance: 1.0,
            ..FaultConfig::lossless()
        };
        let mut link = Link::new(blackout.clone(), 1);
        let mut fixed = ReliableChannel::new(LinkEnd::A, ReliableConfig::default());
        fixed.send(b"x".to_vec());
        let mut link2 = Link::new(blackout, 1);
        let mut backing_off = ReliableChannel::new(
            LinkEnd::A,
            ReliableConfig {
                backoff: 2.0,
                ..ReliableConfig::default()
            },
        );
        backing_off.send(b"x".to_vec());
        for ms in 0..2_000 {
            fixed.poll(SimTime(ms), &mut link);
            backing_off.poll(SimTime(ms), &mut link2);
        }
        // Fixed rto 200 fires at 200, 400, ... = 9 times in 2 s; doubling
        // fires at 200, 600, 1400 = 3 times.
        assert_eq!(fixed.stats().retransmits, 9);
        assert_eq!(backing_off.stats().retransmits, 3);
        assert!(!backing_off.has_failed(), "no retry bound configured");
    }

    #[test]
    fn bounded_retries_give_up_cleanly() {
        let mut link = Link::new(
            FaultConfig {
                drop_chance: 1.0,
                ..FaultConfig::lossless()
            },
            1,
        );
        let mut a = ReliableChannel::new(
            LinkEnd::A,
            ReliableConfig {
                max_retries: Some(3),
                ..ReliableConfig::default()
            },
        );
        a.send(b"doomed".to_vec());
        for ms in 0..10_000 {
            a.poll(SimTime(ms), &mut link);
        }
        assert!(a.has_failed());
        // Initial transmission + exactly the retry budget, then silence.
        assert_eq!(a.stats().retransmits, 3);
        assert_eq!(a.stats().data_sent, 4);
        assert!(!a.is_idle(), "the payload was never acknowledged");
    }

    #[test]
    fn ack_progress_restores_the_retry_budget() {
        // Lossless but slow link: the first window times out once before
        // its acks arrive, then delivery proceeds and the budget resets.
        let mut link = Link::new(
            FaultConfig {
                delay_ms: 300,
                ..FaultConfig::lossless()
            },
            1,
        );
        let mut a = ReliableChannel::new(
            LinkEnd::A,
            ReliableConfig {
                max_retries: Some(2),
                ..ReliableConfig::default()
            },
        );
        let mut b = ReliableChannel::new(LinkEnd::B, ReliableConfig::default());
        for i in 0..40u32 {
            a.send(i.to_be_bytes().to_vec());
        }
        let (_, got_b) = drive(&mut a, &mut b, &mut link, 0, 20_000);
        assert_eq!(got_b.len(), 40, "slow acks must not trip the retry cap");
        assert!(!a.has_failed());
    }

    #[test]
    fn interleaved_small_and_fragmented_payloads_stay_ordered() {
        let mut link = Link::new(FaultConfig::lossless(), 3);
        let mut a = ReliableChannel::new(LinkEnd::A, ReliableConfig::default());
        let mut b = ReliableChannel::new(LinkEnd::B, ReliableConfig::default());
        let big = vec![7u8; 100_000];
        a.send(b"first".to_vec());
        a.send(big.clone());
        a.send(b"last".to_vec());
        let (_, got_b) = drive(&mut a, &mut b, &mut link, 0, 200);
        assert_eq!(got_b, vec![b"first".to_vec(), big, b"last".to_vec()]);
    }
}
