//! # vdx-proto — the VDX wire protocol
//!
//! §6.1 of the paper specifies message formats for the marketplace's Share,
//! Announce (bid) and Accept steps, but the paper never runs them over a
//! network. This crate implements them fully so the Decision Protocol can
//! execute as real message exchange between broker and CDN endpoints:
//!
//! * [`frame`] — length-prefixed framing with magic, version and CRC-32
//!   integrity; an incremental decoder that accepts arbitrary byte chunks.
//!   One frame carries any message the exchange's designs produce at the
//!   paper's scale ([`frame::MAX_PAYLOAD`], DESIGN.md §2);
//! * [`crc32`] — the CRC-32 of every frame and of `vdx-core`'s WAL
//!   records: a carry-less-multiply fold on an x86-64 CPU that has one (the
//!   crate's one `unsafe`, a call made after the runtime feature check),
//!   slicing-by-16 elsewhere, the classic byte loop's values on both;
//! * [`message`] — the §6.1 schemas (`Hello`, `Share`, `Bid`, `Accept`),
//!   with a compact fixed-layout binary encoding (big-endian, no
//!   self-description — both ends speak the same version, negotiated by
//!   the frame header);
//! * [`link`] — an in-memory duplex link with deterministic fault
//!   injection: drop chance, corrupt chance and propagation delay with
//!   jitter (the same knobs smoltcp's examples expose);
//! * [`reliable`] — a Go-Back-N reliable channel over a lossy link,
//!   advanced exclusively by `poll(now)` — no wall-clock reads, no
//!   threads, fully deterministic;
//! * [`endpoint`] — request/response correlation on top of the reliable
//!   channel: the fault campaign's broker and CDN agents speak it;
//! * [`transport`] — blocking TCP transport carrying round-stamped
//!   messages inside the same CRC frames, for the long-running
//!   `vdx-exchanged` daemon and its `vdx-agent` peers;
//! * [`wire`] — the bounds-checked big-endian field reader the decoders
//!   above (and `vdx-core`'s WAL) share, and the one statement of the
//!   40-byte bid layout both formats carry.
//!
//! ## Time
//!
//! All protocol state machines use [`SimTime`] (milliseconds since an
//! arbitrary epoch). Library code never reads the wall clock; drivers
//! decide what "now" is — a simulation step counter in tests, real time in
//! a deployment.

#![deny(missing_docs)]

mod crc;
pub mod endpoint;
pub mod frame;
pub mod link;
pub mod message;
pub mod reliable;
pub mod transport;
pub mod wire;

pub use frame::{crc32, Frame, FrameDecoder, FrameError, PROTOCOL_VERSION};
pub use link::{FaultConfig, Link, LinkEnd};
pub use message::{AcceptEntry, Bid, Message, Share, WireError};
pub use reliable::{ChannelStats, ReliableChannel};
pub use transport::{Connection, TransportError};

/// Milliseconds since an arbitrary epoch. All protocol timers use this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Zero time.
    pub const ZERO: SimTime = SimTime(0);

    /// This time plus `ms` milliseconds.
    pub fn plus_ms(&self, ms: u64) -> SimTime {
        SimTime(self.0 + ms)
    }

    /// Milliseconds elapsed since `earlier` (saturating).
    pub fn since(&self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime(100);
        assert_eq!(t.plus_ms(50), SimTime(150));
        assert_eq!(SimTime(150).since(t), 50);
        assert_eq!(t.since(SimTime(150)), 0, "saturates");
    }
}
