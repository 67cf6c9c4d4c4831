//! Stand-in for `bytes`, written for the benchmark because the sandbox has
//! no crates.io mirror.
//!
//! [`BytesMut`] is a `Vec<u8>` with a consumed-prefix offset, [`Bytes`] a
//! shared immutable buffer with a window, and [`Buf`]/[`BufMut`] carry the
//! big-endian accessors `vdx-proto` uses. Differences from the published
//! crate that a timing can see: `BytesMut::split_to` copies the bytes it
//! splits off (the published crate shares the allocation), and `freeze`
//! moves the vector behind an `Arc`.

use std::ops::Deref;
use std::sync::Arc;

/// Read access to a buffer with a cursor.
pub trait Buf {
    /// Bytes between the cursor and the end.
    fn remaining(&self) -> usize;
    /// The bytes from the cursor on.
    fn chunk(&self) -> &[u8];
    /// Moves the cursor forward; panics past the end.
    fn advance(&mut self, cnt: usize);

    /// True when any byte is left.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Fills `dst` from the cursor; panics when fewer bytes are left.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a big-endian `u32`.
    fn get_u32(&mut self) -> u32 {
        let mut b = [0; 4];
        self.copy_to_slice(&mut b);
        u32::from_be_bytes(b)
    }

    /// Reads a big-endian `u64`.
    fn get_u64(&mut self) -> u64 {
        let mut b = [0; 8];
        self.copy_to_slice(&mut b);
        u64::from_be_bytes(b)
    }

    /// Reads a big-endian IEEE-754 `f64`.
    fn get_f64(&mut self) -> f64 {
        f64::from_bits(self.get_u64())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

/// Append access to a growable buffer.
pub trait BufMut {
    /// Appends `src`.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Appends a big-endian IEEE-754 `f64`.
    fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }
}

/// A growable byte buffer whose front can be consumed.
#[derive(Clone, Default)]
pub struct BytesMut {
    data: Vec<u8>,
    /// Bytes of `data` already consumed from the front.
    start: usize,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut {
            data: Vec::with_capacity(capacity),
            start: 0,
        }
    }

    /// Appends `src`, first reclaiming a fully consumed buffer.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        if self.start == self.data.len() {
            self.data.clear();
            self.start = 0;
        }
        self.data.extend_from_slice(src);
    }

    /// Removes and returns the first `at` bytes; panics past the end.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        let front = BytesMut {
            data: self[..at].to_vec(),
            start: 0,
        };
        self.start += at;
        front
    }

    /// Keeps the first `len` bytes; no effect when already shorter.
    pub fn truncate(&mut self, len: usize) {
        self.data.truncate(self.start + len);
    }

    /// Converts into an immutable [`Bytes`].
    pub fn freeze(self) -> Bytes {
        let end = self.data.len();
        Bytes {
            data: Arc::new(self.data),
            start: self.start,
            end,
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..]
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.deref().fmt(f)
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past the end of the buffer");
        self.start += cnt;
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// An immutable byte buffer; clones share the allocation.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// A buffer holding a copy of `data`.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Bytes {
        let end = data.len();
        Bytes {
            data: Arc::new(data),
            start: 0,
            end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.deref().fmt(f)
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.deref() == other.deref()
    }
}

impl Eq for Bytes {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn big_endian_round_trip() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u32(0xDEAD_BEEF);
        buf.put_u64(42);
        buf.put_f64(-1.5);
        assert_eq!(&buf[1..5], &[0xDE, 0xAD, 0xBE, 0xEF]);
        let mut read: &[u8] = &buf;
        assert_eq!(read.get_u8(), 7);
        assert_eq!(read.get_u32(), 0xDEAD_BEEF);
        assert_eq!(read.get_u64(), 42);
        assert_eq!(read.get_f64(), -1.5);
        assert!(!read.has_remaining());
    }

    #[test]
    fn split_advance_truncate_freeze() {
        let mut buf = BytesMut::new();
        buf.extend_from_slice(b"headerpayloadtrailerNEXT");
        let mut frame = buf.split_to(20);
        assert_eq!(&buf[..], b"NEXT");
        frame.advance(6);
        frame.truncate(7);
        assert_eq!(&frame.freeze()[..], b"payload");
        buf.advance(4);
        buf.extend_from_slice(b"x");
        assert_eq!(&buf[..], b"x");
    }
}
