//! Big-endian field access for the fixed-layout encodings: a
//! bounds-checked reader ([`Cursor`]) for the decode side and `put_*`
//! appends on `Vec<u8>` for the encode side. The message codec, the
//! reliable channel's packet headers and `vdx-core`'s WAL records all
//! lay their fields out through these. The one record two formats share
//! — a [`Bid`], on the wire in Announce/Accept and in the WAL's `Bids`
//! and `Checkpoint` records — has its layout stated here, once.

#![deny(clippy::indexing_slicing)]

use crate::message::Bid;

/// A bounds-checked big-endian reader over received bytes. Every read
/// past the end is `None`, never a panic: callers turn it into their own
/// "truncated" or "corrupt" error.
///
/// The accessors are `#[inline]` because `vdx-core`'s WAL replay calls
/// them across the crate boundary once per field of every logged bid:
/// without it a restart over a 256-round log measured 6 % slower.
#[derive(Debug, Clone)]
pub struct Cursor<'a> {
    buf: &'a [u8],
}

impl<'a> Cursor<'a> {
    /// A reader positioned at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf }
    }

    #[inline]
    fn take<const N: usize>(&mut self) -> Option<[u8; N]> {
        if self.buf.len() < N {
            return None;
        }
        let (head, rest) = self.buf.split_at(N);
        self.buf = rest;
        head.try_into().ok()
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        self.take::<1>().map(|[b]| b)
    }

    /// The next four bytes as a `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.take().map(u32::from_be_bytes)
    }

    /// The next eight bytes as a `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.take().map(u64::from_be_bytes)
    }

    /// The next eight bytes as the bit pattern of an `f64`.
    #[inline]
    pub fn f64(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// The bytes not yet read.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        self.buf
    }
}

/// Big-endian appends, the write-side mirror of [`Cursor`].
pub(crate) trait PutBe {
    fn put_u8(&mut self, v: u8);
    fn put_u32(&mut self, v: u32);
    fn put_u64(&mut self, v: u64);
    fn put_f64(&mut self, v: f64);
}

impl PutBe for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u32(&mut self, v: u32) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_u64(&mut self, v: u64) {
        self.extend_from_slice(&v.to_be_bytes());
    }

    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

/// Encoded size of one [`Bid`]: five big-endian 8-byte fields.
pub const BID_LEN: usize = 8 + 8 + 8 + 8 + 8;

/// Appends one bid: `cluster_id | share_id | performance_estimate |
/// capacity_kbps | price_per_mb`, floats as their bit patterns.
pub fn put_bid(buf: &mut Vec<u8>, b: &Bid) {
    buf.put_u64(b.cluster_id);
    buf.put_u64(b.share_id);
    buf.put_f64(b.performance_estimate);
    buf.put_f64(b.capacity_kbps);
    buf.put_f64(b.price_per_mb);
}

/// Reads one bid as [`put_bid`] wrote it; `None` if the input ends first.
/// `#[inline]` like the [`Cursor`] accessors it calls, and for the same
/// reason: without it a restart over a 256-round log measured 13 % slower.
#[inline]
pub fn get_bid(cur: &mut Cursor<'_>) -> Option<Bid> {
    Some(Bid {
        cluster_id: cur.u64()?,
        share_id: cur.u64()?,
        performance_estimate: cur.f64()?,
        capacity_kbps: cur.f64()?,
        price_per_mb: cur.f64()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_mirror_writes_and_stop_at_the_end() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_u64(u64::MAX - 1);
        buf.put_f64(-2.5);
        buf.extend_from_slice(b"tail");
        let mut cur = Cursor::new(&buf);
        assert_eq!(cur.u8(), Some(7));
        assert_eq!(cur.u32(), Some(0xDEAD_BEEF));
        assert_eq!(cur.u64(), Some(u64::MAX - 1));
        assert_eq!(cur.f64(), Some(-2.5));
        assert_eq!(cur.rest(), b"tail");
        // Four bytes left: a u64 does not fit and consumes nothing.
        assert_eq!(cur.u64(), None);
        assert_eq!(cur.u32(), Some(u32::from_be_bytes(*b"tail")));
        assert_eq!(cur.u8(), None);
        assert!(cur.rest().is_empty());
    }
}
