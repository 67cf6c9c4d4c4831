//! Framing: `magic(2) | version(1) | flags(1) | length(4) | payload | crc32(4)`.
//!
//! * `length` covers the payload only; frames above [`MAX_PAYLOAD`] are
//!   rejected at both ends (a malicious or corrupted length cannot make the
//!   decoder allocate unbounded memory).
//! * `crc32` (IEEE, reflected) covers header **and** payload, so corrupted
//!   lengths are detected too — unless the corruption hits the length field
//!   *and* keeps the frame parseable, in which case the CRC still fails
//!   when the (wrong) number of bytes has arrived.
//! * The decoder is incremental: feed it arbitrary chunks (as a transport
//!   would deliver them) and it yields complete frames. After an error it
//!   resynchronises by scanning for the next magic byte.
//! * Every byte is summed once and copied once each way. A sender builds
//!   the frame where it will be written from ([`begin_frame`], append the
//!   payload, [`seal_frame`]; [`encode`] is that for a payload already in
//!   hand), and [`FrameDecoder::next_frame`] *lends* the verified payload
//!   out of the decoder's buffer instead of copying it.
//! * [`crc32`] sums an input of 1.5 KiB or more in four interleaved
//!   lanes joined by the CRC's own algebra, and a shorter one by
//!   slicing-by-16: the values of the classic byte-at-a-time loop, in
//!   safe code with no per-architecture path, at 3.6–4.0 GB/s on inputs
//!   of 10 KB and more (the byte loop manages 0.31 GB/s).
//!
//! Nothing here indexes: every read of a hostile byte goes through
//! `get`, a slice pattern or a split, so no input can panic the decoder.
//! The one exemption is the CRC's table lookups, in its own module.

#![deny(clippy::indexing_slicing)]

use crate::wire::PutBe;

/// Frame magic: "VX".
pub const MAGIC: [u8; 2] = [0x56, 0x58];

/// Current protocol version.
pub const PROTOCOL_VERSION: u8 = 1;

/// Maximum payload size accepted (32 MiB): the largest payload measured
/// at the paper's scale — CDN 0's Omniscient Accept, 16,715,713 B — under
/// DESIGN.md §2's headroom rule (the smallest power of two at least twice
/// the measured maximum). Every message travels in one frame; nothing is
/// fragmented.
pub const MAX_PAYLOAD: usize = 32 << 20;

/// Header length in bytes (magic + version + flags + length).
pub const HEADER_LEN: usize = 8;

/// Trailer (CRC) length in bytes.
pub const TRAILER_LEN: usize = 4;

/// A decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Protocol version from the header.
    pub version: u8,
    /// Flags byte (reserved; must currently be zero).
    pub flags: u8,
    /// The payload.
    pub payload: Vec<u8>,
}

/// Framing errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Header magic did not match.
    BadMagic,
    /// Unsupported protocol version.
    BadVersion(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(usize),
    /// CRC mismatch.
    BadCrc {
        /// CRC computed over received bytes.
        computed: u32,
        /// CRC carried in the frame trailer.
        received: u32,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic => write!(f, "bad frame magic"),
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::Oversized(n) => write!(f, "frame payload of {n} bytes exceeds limit"),
            FrameError::BadCrc { computed, received } => {
                write!(
                    f,
                    "crc mismatch: computed {computed:#010x}, received {received:#010x}"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

pub use crc::crc32;

/// CRC-32: the one place this module indexes.
mod crc {
    #![expect(
        clippy::indexing_slicing,
        reason = "every index is a table number below 16 into the 16 tables, a \
                  `u8`-derived value into a 256-entry table, or a constant below 16 \
                  into a 16-byte chunk"
    )]

    /// The reflected CRC-32 polynomial (IEEE 802.3).
    const POLY: u32 = 0xEDB8_8320;

    /// Inputs from this length on are summed in four lanes. Below it the
    /// fixed cost of joining the lanes (a few hundred cycles) outweighs what
    /// they save: the measured break-even lies between 1 KiB and 1.25 KiB.
    pub(super) const LANE_MIN: usize = 1536;

    /// The tables [`crc32`] steps through, built once on first use.
    pub(super) struct Tables {
        /// Slicing tables (16 KiB): `slice[k][b]` is byte `b` advanced
        /// through `k` more zero bytes.
        slice: [[u32; 256]; 16],
        /// `pow[k]` is x^(8·2^k) mod P: what appending 2^k zero bytes
        /// multiplies a register by.
        pow: [u32; 32],
    }

    pub(super) fn tables() -> &'static Tables {
        static TABLES: std::sync::OnceLock<Tables> = std::sync::OnceLock::new();
        TABLES.get_or_init(|| {
            let mut slice = [[0u32; 256]; 16];
            for (i, entry) in slice[0].iter_mut().enumerate() {
                let mut c = i as u32;
                for _ in 0..8 {
                    c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
                }
                *entry = c;
            }
            // Table k advances table k-1's entry by one more zero byte.
            for k in 1..16 {
                for i in 0..256 {
                    let prev = slice[k - 1][i];
                    slice[k][i] = (prev >> 8) ^ slice[0][(prev & 0xFF) as usize];
                }
            }
            let mut pow = [0u32; 32];
            let mut p = 1 << 23; // x^8: bit 31 - k holds x^k
            for entry in &mut pow {
                *entry = p;
                p = gf2_mul(p, p);
            }
            Tables { slice, pow }
        })
    }

    /// `a · b mod P` in GF(2)\[x\], both reflected (bit 31 holds x^0), as
    /// zlib's `multmodp`.
    pub(super) fn gf2_mul(a: u32, mut b: u32) -> u32 {
        let mut product = 0;
        for k in (0..32).rev() {
            product ^= b & ((a >> k) & 1).wrapping_neg();
            b = (b >> 1) ^ (POLY & (b & 1).wrapping_neg());
        }
        product
    }

    impl Tables {
        /// x^(8·n) mod P: what appending `n` zero bytes multiplies a register
        /// by, as zlib's `x2nmodp`.
        pub(super) fn shift(&self, n: usize) -> u32 {
            self.pow
                .iter()
                .enumerate()
                .filter(|&(k, _)| (n >> k) & 1 != 0)
                .fold(1 << 31, |p, (_, &x)| gf2_mul(x, p))
        }
    }

    /// Computes the IEEE CRC-32 (reflected polynomial `0xEDB88320`, init
    /// `0xFFFF_FFFF`, final XOR) of `data`.
    ///
    /// The values are those of the classic one-table, byte-at-a-time loop —
    /// every frame on the wire and every WAL record ever written depends on
    /// them — and the tests hold the two equal over all alignments, tails,
    /// lane splits and a 1 MiB input. Two loops compute them, in safe code
    /// with no per-architecture path:
    ///
    /// * from 1.5 KiB on, the input is cut into four equal lanes of whole
    ///   8-byte words, summed in one interleaved loop (slicing-by-8, one
    ///   `u64` read per lane and step), so the four table-lookup chains
    ///   overlap instead of waiting on each other. CRC-32 is linear, so the
    ///   lanes join exactly: appending `n` bytes to a run multiplies its
    ///   register by x^(8n) mod P and XORs in the register those bytes leave
    ///   on their own (zlib's `crc32_combine`);
    /// * shorter inputs, and the fewer than 32 bytes the lanes leave over,
    ///   go through slicing-by-16, sixteen bytes per step.
    ///
    /// In a warm loop on a 2-vCPU guest, over inputs of 10 KB and more,
    /// the lanes sum 3.6–4.0 GB/s and slicing-by-16 1.6 GB/s.
    pub fn crc32(data: &[u8]) -> u32 {
        let t = tables();
        if data.len() < LANE_MIN {
            return !slice16(&t.slice, !0, data);
        }
        let lane = data.len() / 32 * 8;
        // A lane is longer than the remainder, so there are exactly four.
        let mut quarters = data.chunks_exact(lane);
        let (Some(a), Some(b), Some(c), Some(d)) = (
            quarters.next(),
            quarters.next(),
            quarters.next(),
            quarters.next(),
        ) else {
            return !slice16(&t.slice, !0, data);
        };
        // The first lane starts from the initial register, the others from
        // zero: they are joined by linearity below.
        let (mut ca, mut cb, mut cc, mut cd) = (!0, 0, 0, 0);
        for (((wa, wb), wc), wd) in words8(a).zip(words8(b)).zip(words8(c)).zip(words8(d)) {
            ca = slice8(&t.slice, ca, wa);
            cb = slice8(&t.slice, cb, wb);
            cc = slice8(&t.slice, cc, wc);
            cd = slice8(&t.slice, cd, wd);
        }
        let shift = t.shift(lane);
        let joined = [cb, cc, cd]
            .into_iter()
            .fold(ca, |run, next| gf2_mul(shift, run) ^ next);
        !slice16(&t.slice, joined, quarters.remainder())
    }

    /// A lane as little-endian words; [`crc32`] cuts lanes to whole words.
    fn words8(lane: &[u8]) -> impl Iterator<Item = u64> + '_ {
        lane.chunks_exact(8)
            .map(|w| w.try_into().map_or(0, u64::from_le_bytes))
    }

    /// One slicing-by-8 step: the register after the eight bytes of `word`.
    #[inline(always)]
    fn slice8(t: &[[u32; 256]; 16], crc: u32, word: u64) -> u32 {
        let w = word ^ u64::from(crc);
        t[7][w as u8 as usize]
            ^ t[6][(w >> 8) as u8 as usize]
            ^ t[5][(w >> 16) as u8 as usize]
            ^ t[4][(w >> 24) as u8 as usize]
            ^ t[3][(w >> 32) as u8 as usize]
            ^ t[2][(w >> 40) as u8 as usize]
            ^ t[1][(w >> 48) as u8 as usize]
            ^ t[0][(w >> 56) as u8 as usize]
    }

    /// Slicing-by-16 from register `crc` (not inverted): sixteen bytes per
    /// step, the tail a byte at a time through the first table.
    fn slice16(t: &[[u32; 256]; 16], mut crc: u32, data: &[u8]) -> u32 {
        let mut chunks = data.chunks_exact(16);
        for c in &mut chunks {
            // Only the first word meets the running CRC; byte i of the step
            // goes through table 15 - i, the bytes left behind it.
            let w = u32::from_le_bytes([c[0], c[1], c[2], c[3]]) ^ crc;
            crc = t[15][(w & 0xFF) as usize]
                ^ t[14][((w >> 8) & 0xFF) as usize]
                ^ t[13][((w >> 16) & 0xFF) as usize]
                ^ t[12][(w >> 24) as usize]
                ^ t[11][c[4] as usize]
                ^ t[10][c[5] as usize]
                ^ t[9][c[6] as usize]
                ^ t[8][c[7] as usize]
                ^ t[7][c[8] as usize]
                ^ t[6][c[9] as usize]
                ^ t[5][c[10] as usize]
                ^ t[4][c[11] as usize]
                ^ t[3][c[12] as usize]
                ^ t[2][c[13] as usize]
                ^ t[1][c[14] as usize]
                ^ t[0][c[15] as usize];
        }
        for &b in chunks.remainder() {
            crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc
    }
}

/// Starts a frame in `buf`: empties it and writes the header with the
/// length still zero. The caller appends the payload and calls
/// [`seal_frame`] — a message is encoded straight into the buffer it is
/// sent from, and a buffer kept between calls is allocated once.
pub fn begin_frame(buf: &mut Vec<u8>) {
    buf.clear();
    buf.extend_from_slice(&MAGIC);
    buf.put_u8(PROTOCOL_VERSION);
    buf.put_u8(0); // flags
    buf.put_u32(0); // length, patched by `seal_frame`
}

/// Completes a frame begun with [`begin_frame`]: patches the length of
/// the payload appended since, sums header and payload once and appends
/// the CRC. A payload above [`MAX_PAYLOAD`] is refused, and `buf` is then
/// not a frame.
pub fn seal_frame(buf: &mut Vec<u8>) -> Result<(), FrameError> {
    let len = buf.len() - HEADER_LEN;
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    if let Some(field) = buf.get_mut(4..HEADER_LEN) {
        field.copy_from_slice(&(len as u32).to_be_bytes());
    }
    let crc = crc32(buf);
    buf.put_u32(crc);
    Ok(())
}

/// Encodes a payload into a complete frame.
///
/// # Panics
/// Panics if the payload exceeds [`MAX_PAYLOAD`] (callers size their
/// messages; this is a programming error, not an input error).
pub fn encode(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + payload.len() + TRAILER_LEN);
    begin_frame(&mut buf);
    buf.extend_from_slice(payload);
    let sealed = seal_frame(&mut buf);
    assert!(sealed.is_ok(), "payload too large to frame");
    buf
}

/// Checks the frame `buf` starts with, in wire order: magic (judged on as
/// much of it as has arrived), version, declared length, CRC. `Ok(None)`
/// means more bytes are needed; `Ok(Some(len))` that a whole frame with a
/// `len`-byte payload is there and intact. Both decoders parse hostile
/// bytes through this one function.
fn check_frame(buf: &[u8]) -> Result<Option<usize>, FrameError> {
    if buf.iter().zip(MAGIC).any(|(&b, m)| b != m) {
        return Err(FrameError::BadMagic);
    }
    let Some(&[_, _, version, _, l0, l1, l2, l3]) = buf.get(..HEADER_LEN) else {
        return Ok(None);
    };
    if version != PROTOCOL_VERSION {
        return Err(FrameError::BadVersion(version));
    }
    let len = u32::from_be_bytes([l0, l1, l2, l3]) as usize;
    if len > MAX_PAYLOAD {
        return Err(FrameError::Oversized(len));
    }
    let Some((framed, &[c0, c1, c2, c3, ..])) = buf.split_at_checked(HEADER_LEN + len) else {
        return Ok(None);
    };
    let computed = crc32(framed);
    let received = u32::from_be_bytes([c0, c1, c2, c3]);
    if computed != received {
        return Err(FrameError::BadCrc { computed, received });
    }
    Ok(Some(len))
}

/// Decodes exactly one frame from a datagram — the whole input must be one
/// complete frame (no partial, no trailing bytes).
///
/// This is the right entry point for packet-oriented transports: a stream
/// decoder fed datagrams can be livelocked by a corrupted length field that
/// makes it wait for bytes that only trickle in, whereas per-datagram
/// decoding turns any corruption into an immediate, recoverable error.
pub fn decode_datagram(data: &[u8]) -> Result<Frame, FrameError> {
    if data.len() < HEADER_LEN + TRAILER_LEN {
        return Err(FrameError::BadMagic);
    }
    match (check_frame(data)?, data) {
        (Some(len), &[_, _, version, flags, _, _, _, _, ref payload @ .., _, _, _, _])
            if payload.len() == len =>
        {
            Ok(Frame {
                version,
                flags,
                payload: payload.to_vec(),
            })
        }
        // A corrupted length never matches the datagram size; report it as
        // a CRC-class integrity failure.
        _ => Err(FrameError::BadCrc {
            computed: 0,
            received: 0,
        }),
    }
}

/// Incremental frame decoder.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    /// Offset of the first unconsumed byte of `buf`.
    start: usize,
}

impl FrameDecoder {
    /// Creates an empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Appends received bytes.
    pub fn feed(&mut self, chunk: &[u8]) {
        // Reclaim the consumed prefix first, so the buffer never holds
        // more than the unconsumed bytes plus this chunk. Usually every
        // frame has been taken and this is a plain clear.
        self.buf.drain(..self.start);
        self.start = 0;
        self.buf.extend_from_slice(chunk);
    }

    /// Bytes currently buffered (for observability).
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Attempts to decode the next frame and lends its payload: a slice
    /// into the decoder's own buffer, CRC-verified, good until the next
    /// call on the decoder (the frame counts as consumed at once).
    /// `Ok(None)` means "need more bytes". On error, the decoder discards
    /// up to the next plausible frame start so the stream can
    /// resynchronise.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        // Garbage is reported as soon as the magic's first byte is wrong,
        // not after a header's worth of it (a peer that sends a few stray
        // bytes and closes must not read as a clean EOF).
        match check_frame(self.buf.get(self.start..).unwrap_or_default()) {
            Ok(None) => Ok(None),
            Ok(Some(len)) => {
                let payload = self.start + HEADER_LEN;
                self.start = payload + len + TRAILER_LEN;
                Ok(self.buf.get(payload..payload + len))
            }
            Err(e) => {
                self.resync();
                Err(e)
            }
        }
    }

    /// Drops one byte, then skips to the next occurrence of the magic's
    /// first byte (or empties the buffer).
    fn resync(&mut self) {
        self.start += 1;
        while self.buf.get(self.start).is_some_and(|&b| b != MAGIC[0]) {
            self.start += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdx_rand::prop::{bytes, check};

    /// The classic one-table, byte-at-a-time loop `crc32` replaced: the
    /// reference its values are held to.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, entry) in table.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *entry = c;
        }
        let mut crc = 0xFFFF_FFFFu32;
        for &b in data {
            crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
        }
        crc ^ 0xFFFF_FFFF
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(&[0x00; 32]), 0x190A_55AD);
        assert_eq!(crc32(&[0xFF; 32]), 0xFF6C_AB0B);
        let ramp: Vec<u8> = (0..32).collect();
        assert_eq!(crc32(&ramp), 0x9126_7E8A);
    }

    /// Every start offset 0..16 into a shared buffer and every length up
    /// to 4096: all alignments of the 16-byte steps, all tail lengths.
    #[test]
    fn crc32_matches_the_bytewise_reference() {
        check(
            256,
            |rng| (bytes(rng, 4112..4113), rng.gen_range(0usize..4097)),
            |(buf, len)| {
                for offset in 0..16 {
                    let data = &buf[offset..offset + len];
                    assert_eq!(crc32(data), crc32_bytewise(data), "{offset}+{len}");
                }
            },
        );
        // The short lengths exhaustively: every tail with zero or one step.
        let buf: Vec<u8> = (0..48u8).map(|i| i.wrapping_mul(37) ^ 0xA5).collect();
        for offset in 0..16 {
            for len in 0..=32 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "{offset}+{len}");
            }
        }
        // The lanes: both sides of the threshold, and one byte either side
        // of each split point 4 lanes · 8 bytes · k, up to 64 KiB, at
        // every alignment of the words.
        let buf = ramp(65_600);
        let splits = [48, 49, 50, 63, 64, 65, 127, 128, 129, 1000, 2047, 2048];
        let lens = (crc::LANE_MIN - 1..=crc::LANE_MIN + 1)
            .chain(splits.into_iter().flat_map(|k| 32 * k - 1..=32 * k + 1));
        for len in lens {
            for offset in 0..8 {
                let data = &buf[offset..offset + len];
                assert_eq!(crc32(data), crc32_bytewise(data), "{offset}+{len}");
            }
        }
    }

    /// A deterministic byte soup of `len` bytes.
    fn ramp(len: usize) -> Vec<u8> {
        (0..len as u64)
            .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 29) as u8)
            .collect()
    }

    /// The algebra the lanes are joined with: `crc32(a ‖ b)` is
    /// `crc32(a)` times x^(8·|b|) mod P, plus `crc32(b)`.
    #[test]
    fn crc32_of_a_concatenation_is_the_combine_of_the_parts() {
        check(
            128,
            |rng| (bytes(rng, 0..5000), bytes(rng, 0..5000)),
            |(a, b)| {
                let joined = [&a[..], &b[..]].concat();
                let shift = crc::tables().shift(b.len());
                let combined = crc::gf2_mul(shift, crc32(a)) ^ crc32(b);
                assert_eq!(crc32(&joined), combined, "{}+{}", a.len(), b.len());
            },
        );
    }

    /// A 1 MiB (and 13-byte) input against a literal taken from
    /// `crc32_bytewise`: the four lanes over long runs.
    #[test]
    fn crc32_of_a_mebibyte_is_the_bytewise_value() {
        let data = ramp((1 << 20) + 13);
        assert_eq!(crc32_bytewise(&data), 0xF585_B70C);
        assert_eq!(crc32(&data), 0xF585_B70C);
    }

    #[test]
    fn roundtrip_single_frame() {
        let mut dec = FrameDecoder::new();
        dec.feed(&encode(b"hello vdx"));
        let payload = dec.next_frame().expect("decodes").expect("complete");
        assert_eq!(payload, b"hello vdx");
        assert!(dec.next_frame().expect("clean").is_none());
    }

    #[test]
    fn roundtrip_empty_payload() {
        let mut dec = FrameDecoder::new();
        dec.feed(&encode(b""));
        let payload = dec.next_frame().expect("decodes").expect("complete");
        assert!(payload.is_empty());
    }

    #[test]
    fn partial_delivery_needs_more_bytes() {
        let wire = encode(b"split across chunks");
        let mut dec = FrameDecoder::new();
        for chunk in wire.chunks(3) {
            assert!(matches!(dec.next_frame(), Ok(None) | Ok(Some(_))));
            dec.feed(chunk);
        }
        let payload = dec.next_frame().expect("decodes").expect("complete");
        assert_eq!(payload, b"split across chunks");
    }

    #[test]
    fn a_payload_straddling_two_feeds_is_lent_whole() {
        let wire = encode(b"first half / second half");
        let (a, b) = wire.split_at(HEADER_LEN + 11);
        let mut dec = FrameDecoder::new();
        dec.feed(a);
        assert_eq!(dec.next_frame(), Ok(None), "mid-payload: wait");
        dec.feed(b);
        assert_eq!(dec.next_frame(), Ok(Some(&b"first half / second half"[..])));
        assert_eq!(dec.buffered(), 0, "lending a frame consumes it");
    }

    #[test]
    fn back_to_back_frames() {
        let mut dec = FrameDecoder::new();
        let mut wire = Vec::new();
        wire.extend_from_slice(&encode(b"one"));
        wire.extend_from_slice(&encode(b"two"));
        dec.feed(&wire);
        // Each lent slice is used up before the next is asked for (the
        // borrow makes anything else a compile error); the second frame
        // is untouched by the first one's consumption.
        let first = dec.next_frame().unwrap().unwrap().to_vec();
        assert_eq!(dec.buffered(), encode(b"two").len());
        assert_eq!(dec.next_frame().unwrap().unwrap(), b"two");
        assert_eq!(first, b"one");
        assert!(dec.next_frame().unwrap().is_none());
    }

    #[test]
    fn corrupted_payload_fails_crc_then_resyncs() {
        let mut wire = encode(b"precious data");
        wire[HEADER_LEN + 2] ^= 0xFF;
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert!(matches!(dec.next_frame(), Err(FrameError::BadCrc { .. })));
        // A healthy frame after the corrupted one still gets through.
        dec.feed(&encode(b"recovered"));
        let mut got = None;
        for _ in 0..64 {
            match dec.next_frame() {
                Ok(Some(payload)) => {
                    got = Some(payload.to_vec());
                    break;
                }
                Ok(None) => break,
                Err(_) => continue,
            }
        }
        assert_eq!(got.expect("recovered frame"), b"recovered");
    }

    #[test]
    fn bad_magic_reported() {
        let mut dec = FrameDecoder::new();
        dec.feed(&[0u8; HEADER_LEN]);
        assert_eq!(dec.next_frame(), Err(FrameError::BadMagic));
    }

    #[test]
    fn bad_magic_reported_before_a_whole_header_arrives() {
        let mut dec = FrameDecoder::new();
        dec.feed(&[0xDE, 0xAD, 0xBE]);
        assert_eq!(dec.next_frame(), Err(FrameError::BadMagic));
        // Resync skipped all three: none is the magic's first byte.
        assert_eq!(dec.buffered(), 0);
        dec.feed(&MAGIC[..1]);
        assert_eq!(dec.next_frame(), Ok(None), "a good prefix waits for more");
    }

    #[test]
    fn bad_version_reported() {
        let mut wire = encode(b"x");
        wire[2] = 99;
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(dec.next_frame(), Err(FrameError::BadVersion(99)));
    }

    #[test]
    fn oversized_length_rejected_without_allocation() {
        let mut wire = encode(b"x");
        // Patch length to one byte over the bound and fix nothing else;
        // decoder must reject from the header alone.
        wire[4..8].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_be_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&wire);
        assert_eq!(
            dec.next_frame(),
            Err(FrameError::Oversized(MAX_PAYLOAD + 1))
        );
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn encode_rejects_oversized_payload() {
        encode(&vec![0u8; MAX_PAYLOAD + 1]);
    }

    #[test]
    fn seal_frame_refuses_exactly_what_the_decoder_would() {
        let mut buf = Vec::new();
        begin_frame(&mut buf);
        buf.resize(HEADER_LEN + MAX_PAYLOAD, 7);
        assert_eq!(seal_frame(&mut buf), Ok(()));
        let mut dec = FrameDecoder::new();
        dec.feed(&buf);
        assert_eq!(
            dec.next_frame().map(|p| p.map(<[u8]>::len)),
            Ok(Some(MAX_PAYLOAD))
        );
        begin_frame(&mut buf);
        buf.resize(HEADER_LEN + MAX_PAYLOAD + 1, 7);
        assert_eq!(
            seal_frame(&mut buf),
            Err(FrameError::Oversized(MAX_PAYLOAD + 1))
        );
    }

    #[test]
    fn error_messages_are_informative() {
        let e = FrameError::BadCrc {
            computed: 1,
            received: 2,
        };
        assert!(e.to_string().contains("crc mismatch"));
    }
}
