//! Big-endian field access for the fixed-layout encodings: a
//! bounds-checked reader ([`Cursor`]) for the decode side and `put_*`
//! appends on `Vec<u8>` for the encode side. The message codec, the
//! reliable channel's packet headers and `vdx-core`'s WAL records all
//! lay their fields out through these. The one record two formats share
//! — a [`Bid`], on the wire in Announce/Accept and in the WAL's `Bids`
//! and `Checkpoint` records — has its layout stated here, once.

#![deny(clippy::indexing_slicing)]

use std::slice::ChunksExact;

use crate::message::Bid;

/// A bounds-checked big-endian reader over received bytes. Every read
/// past the end is `None`, never a panic: callers turn it into their own
/// "truncated" or "corrupt" error. A batch of fixed-size entries is taken
/// whole and checked once, not field by field ([`get_bids`]).
///
/// The accessors are `#[inline]` so that `vdx-core`'s WAL decode, which
/// calls them across the crate boundary, compiles them in place.
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

    /// The next `count` entries of `len` bytes each, one chunk per entry,
    /// checked against the bytes left in one comparison; `None`, reading
    /// nothing, if they do not fit. A hostile count is refused here,
    /// before a caller allocates for it.
    ///
    /// # Panics
    /// If `len` is zero; callers pass their layout's entry size.
    #[inline]
    pub(crate) fn entries(&mut self, count: u32, len: usize) -> Option<ChunksExact<'a, u8>> {
        let (batch, rest) = self
            .buf
            .split_at_checked((count as usize).saturating_mul(len))?;
        self.buf = rest;
        Some(batch.chunks_exact(len))
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

/// Reads `count` bids as [`put_bid`] wrote them, back to back; `None`,
/// reading nothing, if the input ends first. One bounds check covers the
/// batch, and the result is allocated once, at its exact size.
pub fn get_bids(cur: &mut Cursor<'_>, count: u32) -> Option<Vec<Bid>> {
    Some(take_bids(cur, count)?.decode())
}

/// Takes `count` bids as a checked, undecoded batch: [`get_bids`]'s bounds
/// check without its decode, for a reader that may never need the bids.
pub fn take_bids<'a>(cur: &mut Cursor<'a>, count: u32) -> Option<BidBatch<'a>> {
    Some(BidBatch {
        entries: cur.entries(count, BID_LEN)?,
    })
}

/// A batch of bids whose byte length has been checked against its count
/// ([`take_bids`]), decoded only on request.
#[derive(Debug, Clone)]
pub struct BidBatch<'a> {
    entries: ChunksExact<'a, u8>,
}

impl BidBatch<'_> {
    /// The bids, allocated once at their exact number.
    pub fn decode(self) -> Vec<Bid> {
        self.entries.map(bid_at).collect()
    }
}

/// The bid in the first [`BID_LEN`] bytes of `entry`, a chunk of a
/// checked batch.
#[inline]
pub(crate) fn bid_at(entry: &[u8]) -> Bid {
    Bid {
        cluster_id: u64::from_be_bytes(bytes_at(entry, 0)),
        share_id: u64::from_be_bytes(bytes_at(entry, 8)),
        performance_estimate: f64::from_be_bytes(bytes_at(entry, 16)),
        capacity_kbps: f64::from_be_bytes(bytes_at(entry, 24)),
        price_per_mb: f64::from_be_bytes(bytes_at(entry, 32)),
    }
}

/// The `N` bytes at offset `at` of `entry`, a chunk of a checked batch.
/// Every field of an entry lies inside its chunk, so the zero fallback is
/// never taken.
#[inline]
pub(crate) fn bytes_at<const N: usize>(entry: &[u8], at: usize) -> [u8; N] {
    entry
        .get(at..at + N)
        .and_then(|f| f.try_into().ok())
        .unwrap_or([0; N])
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

    #[test]
    fn a_bid_batch_is_read_whole_or_not_at_all() {
        let bids: Vec<Bid> = (0..3u32)
            .map(|i| Bid {
                cluster_id: u64::from(i) << 40 | 7,
                share_id: u64::MAX - u64::from(i),
                performance_estimate: -1.5 * f64::from(i),
                capacity_kbps: 1e6,
                price_per_mb: f64::from(i) / 3.0,
            })
            .collect();
        let mut buf = Vec::new();
        bids.iter().for_each(|b| put_bid(&mut buf, b));
        buf.extend_from_slice(b"tail");
        let mut cur = Cursor::new(&buf);
        assert_eq!(get_bids(&mut cur, 3).as_deref(), Some(&bids[..]));
        assert_eq!(cur.rest(), b"tail");
        // One bid under the bytes left: the last one stays behind, for
        // the caller to refuse as trailing bytes.
        let mut cur = Cursor::new(&buf);
        assert_eq!(get_bids(&mut cur, 2).as_deref(), Some(&bids[..2]));
        assert_eq!(cur.rest().len(), BID_LEN + 4);
        // One bid over, and a count whose byte size overflows a `u32`:
        // refused from the count alone, reading (and allocating) nothing.
        for count in [4, u32::MAX] {
            let mut cur = Cursor::new(&buf);
            assert_eq!(get_bids(&mut cur, count), None, "{count}");
            assert_eq!(cur.rest(), &buf[..]);
        }
        assert_eq!(get_bids(&mut Cursor::new(&[]), 0), Some(Vec::new()));
    }
}
