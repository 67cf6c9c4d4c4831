//! Blocking TCP transport for the Decision Protocol: real sockets under
//! the same frames and messages the simulated links carry.
//!
//! ## Failure-model contract
//!
//! The in-memory [`crate::Link`] models loss, corruption and reordering
//! explicitly, and [`crate::reliable`] repairs them with Go-Back-N. TCP
//! already gives ordered, checksummed, retransmitted delivery, so this
//! module deliberately runs *without* the reliable layer — the failure
//! model a daemon must handle is different:
//!
//! * **Silence** — the peer is connected but an expected message never
//!   arrives (slow CDN, stuck agent). TCP cannot detect this; callers
//!   own the deadline and treat a quiet connection exactly like a
//!   missed round deadline (the broker's degradation ladder applies).
//! * **Disconnection** — [`Connection::recv`] returns `Ok(None)` on a
//!   clean EOF and `Err` on a reset. Both mean every in-flight round
//!   with that peer has failed; a reconnecting peer either starts a
//!   fresh session with a new [`crate::Message::Hello`] or resumes with
//!   [`crate::Message::HelloResume`] carrying the last round it saw
//!   settle, so the receiver can discard replayed Announces for rounds
//!   that are already committed.
//! * **Stream corruption** — each message still travels inside a
//!   CRC-framed [`crate::frame`] envelope, so a desynchronized or
//!   corrupted stream surfaces as [`TransportError::Frame`] rather than
//!   as a garbled message; callers drop the connection (no resync is
//!   attempted over TCP — unlike a lossy datagram link, a corrupt byte
//!   stream means the transport itself is broken).
//! * **Staleness** — every frame carries the 8-byte round id it belongs
//!   to, so an Announce that arrives after its round's deadline is
//!   identified (and discarded) by the receiver instead of being
//!   mistaken for the current round's answer. This replaces the
//!   request-correlation ids of [`crate::endpoint`], which pair
//!   messages but cannot tell *rounds* apart across reconnects.
//!
//! Payload layout inside each frame: `round(8, big-endian) | Message`.
//! [`Connection::send`] assembles header, round stamp and message in one
//! buffer the connection keeps, sums it once and writes it with one call;
//! [`Connection::recv`] decodes the message from the slice the frame
//! decoder lends. A message too large to frame is a send *error*
//! ([`FrameError::Oversized`] inside `InvalidInput`), not a panic.
//!
//! Determinism: this module reads sockets, never the clock. Timeouts
//! are configured by the caller ([`Connection::set_read_timeout`]) and
//! surface as [`TransportError::is_timeout`] errors; what "now" means
//! stays a driver decision, as everywhere else in `vdx-proto`.

use crate::frame::{self, FrameDecoder, FrameError};
use crate::message::{Message, WireError};
use crate::wire::Cursor;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Errors a transport operation can surface.
#[derive(Debug)]
pub enum TransportError {
    /// Socket-level failure (includes read timeouts; see
    /// [`TransportError::is_timeout`]).
    Io(std::io::Error),
    /// The byte stream desynchronized or failed a frame CRC.
    Frame(FrameError),
    /// A frame decoded but its payload was not a valid message.
    Wire(WireError),
    /// A frame decoded but its payload was shorter than the round
    /// header.
    MissingRoundHeader,
}

impl TransportError {
    /// Whether this error is a read timeout — the caller's configured
    /// [`Connection::set_read_timeout`] expiring, not a peer failure.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            TransportError::Io(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut
        )
    }
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Io(e) => write!(f, "transport i/o: {e}"),
            TransportError::Frame(e) => write!(f, "transport framing: {e}"),
            TransportError::Wire(e) => write!(f, "transport message: {e}"),
            TransportError::MissingRoundHeader => {
                write!(f, "frame payload shorter than the round header")
            }
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io(e)
    }
}

/// A frame's payload as the `(round, message)` it carries: the round
/// stamp, then the message. What [`Connection::recv`] makes of every
/// frame its decoder lends — public so the hostile-bytes tests run the
/// decode path of a live connection without a socket.
pub fn decode_stamped(payload: &[u8]) -> Result<(u64, Message), TransportError> {
    let mut cur = Cursor::new(payload);
    let round = cur.u64().ok_or(TransportError::MissingRoundHeader)?;
    let msg = Message::decode(cur.rest()).map_err(TransportError::Wire)?;
    Ok((round, msg))
}

/// One framed, round-stamped message stream over a [`TcpStream`].
///
/// Writing and reading are independent; to write from one thread while
/// another blocks in [`Connection::recv`], clone the connection with
/// [`Connection::try_clone`] (each clone keeps its own decoder state,
/// so exactly one clone may read).
pub struct Connection {
    stream: TcpStream,
    decoder: FrameDecoder,
    read_buf: Vec<u8>,
    /// The frame being sent, kept between sends so its allocation is
    /// made once.
    write_buf: Vec<u8>,
}

impl Connection {
    /// Wraps an established stream. Disables Nagle's algorithm: round
    /// messages are latency-sensitive and self-contained.
    pub fn new(stream: TcpStream) -> std::io::Result<Connection> {
        stream.set_nodelay(true)?;
        Ok(Connection {
            stream,
            decoder: FrameDecoder::new(),
            read_buf: vec![0u8; 64 * 1024],
            write_buf: Vec::new(),
        })
    }

    /// Connects to `addr` (any `ToSocketAddrs`) and wraps the stream.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> std::io::Result<Connection> {
        Connection::new(TcpStream::connect(addr)?)
    }

    /// The peer's socket address, if the socket still has one.
    pub fn peer_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.stream.peer_addr()
    }

    /// Bounds how long [`Connection::recv`] blocks; `None` blocks
    /// forever. Expiry surfaces as an error whose
    /// [`TransportError::is_timeout`] is true.
    pub fn set_read_timeout(&self, timeout: Option<Duration>) -> std::io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    /// A second handle to the same socket (for a writer thread). The
    /// clone starts with an empty decoder: only one handle may read.
    pub fn try_clone(&self) -> std::io::Result<Connection> {
        Ok(Connection {
            stream: self.stream.try_clone()?,
            decoder: FrameDecoder::new(),
            read_buf: vec![0u8; 64 * 1024],
            write_buf: Vec::new(),
        })
    }

    /// Sends one message stamped with the round it belongs to. The frame
    /// is assembled in place — header, round stamp, message — summed once
    /// and written with one call. A message too large to frame is
    /// refused before any byte of it reaches the socket, as
    /// [`std::io::ErrorKind::InvalidInput`] carrying
    /// [`FrameError::Oversized`]; the connection stays usable.
    pub fn send(&mut self, round: u64, msg: &Message) -> std::io::Result<()> {
        frame::begin_frame(&mut self.write_buf);
        self.write_buf.extend_from_slice(&round.to_be_bytes());
        msg.encode_into(&mut self.write_buf);
        frame::seal_frame(&mut self.write_buf)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        self.stream.write_all(&self.write_buf)?;
        self.stream.flush()
    }

    /// Receives the next `(round, message)`. Blocks up to the configured
    /// read timeout. `Ok(None)` is a clean EOF (the peer closed between
    /// frames); a close that tears a frame, timeouts and failures
    /// surface as `Err` — check [`TransportError::is_timeout`] to tell
    /// a timeout from the rest.
    pub fn recv(&mut self) -> Result<Option<(u64, Message)>, TransportError> {
        loop {
            // Drain any frame already buffered before touching the
            // socket again; the message is decoded from the slice the
            // decoder lends.
            if let Some(payload) = self.decoder.next_frame().map_err(TransportError::Frame)? {
                return decode_stamped(payload).map(Some);
            }
            let n = self.stream.read(&mut self.read_buf)?;
            if n == 0 {
                // EOF between frames is a clean close; EOF inside one
                // means the peer died mid-send.
                if self.decoder.buffered() > 0 {
                    return Err(TransportError::Io(std::io::Error::new(
                        std::io::ErrorKind::UnexpectedEof,
                        "peer closed mid-frame",
                    )));
                }
                return Ok(None);
            }
            self.decoder.feed(&self.read_buf[..n]);
        }
    }

    /// Shuts down both directions of the socket. Subsequent reads on
    /// the peer side see EOF.
    pub fn shutdown(&self) -> std::io::Result<()> {
        self.stream.shutdown(std::net::Shutdown::Both)
    }
}

impl std::fmt::Debug for Connection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Connection")
            .field("peer", &self.stream.peer_addr().ok())
            .field("buffered", &self.decoder.buffered())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Bid, Share};
    use std::net::TcpListener;

    fn share(n: u64) -> Message {
        Message::Share(vec![Share {
            share_id: n,
            location: 7,
            isp: 0,
            content_id: 0,
            data_size_kbps: 100.0,
            client_count: 3,
        }])
    }

    fn loopback_pair() -> (Connection, Connection) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("local addr");
        let client = std::thread::spawn(move || Connection::connect(addr).expect("connect"));
        let (server_stream, _) = listener.accept().expect("accept");
        let server = Connection::new(server_stream).expect("wrap");
        (client.join().expect("client thread"), server)
    }

    #[test]
    fn roundtrips_round_stamped_messages() {
        let (mut a, mut b) = loopback_pair();
        a.send(3, &share(1)).expect("send");
        a.send(
            4,
            &Message::Hello {
                node_id: 9,
                role: 1,
            },
        )
        .expect("send");
        let (round, msg) = b.recv().expect("recv").expect("not eof");
        assert_eq!(round, 3);
        assert_eq!(msg, share(1));
        let (round, msg) = b.recv().expect("recv").expect("not eof");
        assert_eq!(round, 4);
        assert_eq!(
            msg,
            Message::Hello {
                node_id: 9,
                role: 1
            }
        );
    }

    /// One framed, round-stamped Share exactly as the build before the
    /// one-buffer `send` put it on the wire (captured from it, not
    /// derived): `VX | v1 | flags | len 0x55 | round | Share×2 | crc`.
    const GOLDEN_SHARE_FRAME: [u8; 97] = [
        0x56, 0x58, 0x01, 0x00, 0x00, 0x00, 0x00, 0x55, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07,
        0x08, 0x02, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00,
        0x00, 0x00, 0x11, 0x00, 0x00, 0xFC, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x63,
        0x40, 0x93, 0x4A, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x28, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x12, 0x00, 0x00, 0xFC, 0x01, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x6D, 0x53, 0x3B, 0xA1,
    ];

    #[test]
    fn the_wire_bytes_of_a_share_are_unchanged() {
        let msg = Message::Share(vec![
            Share {
                share_id: 1,
                location: 17,
                isp: 64512,
                content_id: 99,
                data_size_kbps: 1234.5,
                client_count: 40,
            },
            Share {
                share_id: 2,
                location: 18,
                isp: 64513,
                content_id: 0,
                data_size_kbps: 0.0,
                client_count: 0,
            },
        ]);
        let round = 0x0102_0304_0506_0708;
        // The new encoder reproduces the old bytes...
        let (mut a, mut b) = loopback_pair();
        a.send(round, &msg).expect("send");
        drop(a);
        let mut wire = Vec::new();
        b.stream.read_to_end(&mut wire).expect("raw read");
        assert_eq!(wire, GOLDEN_SHARE_FRAME);
        // ...and the new decoder reads them.
        let (mut a, mut b) = loopback_pair();
        a.stream.write_all(&GOLDEN_SHARE_FRAME).expect("raw write");
        assert_eq!(b.recv().expect("recv"), Some((round, msg)));
    }

    #[test]
    fn an_oversize_message_is_an_error_and_the_connection_survives() {
        let (mut a, mut b) = loopback_pair();
        let bid = Bid {
            cluster_id: 1,
            share_id: 2,
            performance_estimate: 3.0,
            capacity_kbps: 4.0,
            price_per_mb: 5.0,
        };
        // The smallest Announce that does not fit: round stamp, tag and
        // count are 13 bytes, each bid 40.
        let too_many = (frame::MAX_PAYLOAD - 13) / 40 + 1;
        let err = a
            .send(9, &Message::Announce(vec![bid; too_many]))
            .expect_err("over MAX_PAYLOAD");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        let inner = err.get_ref().and_then(|e| e.downcast_ref::<FrameError>());
        assert_eq!(inner, Some(&FrameError::Oversized(13 + 40 * too_many)));
        // Nothing of it was written: the next message arrives intact.
        a.send(10, &Message::Announce(vec![bid])).expect("small");
        assert_eq!(
            b.recv().expect("recv"),
            Some((10, Message::Announce(vec![bid])))
        );
    }

    #[test]
    fn clean_close_reads_as_eof() {
        let (a, mut b) = loopback_pair();
        drop(a);
        assert!(matches!(b.recv(), Ok(None)));
    }

    #[test]
    fn close_inside_a_frame_is_an_error_not_eof() {
        let (mut a, mut b) = loopback_pair();
        // A peer killed mid-send: good magic, good header, half a body.
        let mut payload = 5u64.to_be_bytes().to_vec();
        payload.extend_from_slice(&share(1).encode());
        let wire = frame::encode(&payload);
        a.stream.write_all(&wire[..wire.len() / 2]).expect("raw");
        drop(a);
        let err = b.recv().expect_err("half a frame is not a clean close");
        assert!(
            matches!(&err, TransportError::Io(e) if e.kind() == std::io::ErrorKind::UnexpectedEof),
            "{err}"
        );
        assert!(!err.is_timeout());
    }

    #[test]
    fn read_timeout_is_distinguishable() {
        let (_a, mut b) = loopback_pair();
        b.set_read_timeout(Some(Duration::from_millis(20)))
            .expect("set timeout");
        let err = b.recv().expect_err("nothing was sent");
        assert!(err.is_timeout(), "{err}");
    }

    #[test]
    fn writer_clone_sends_while_reader_blocks() {
        let (a, mut b) = loopback_pair();
        let mut writer = a.try_clone().expect("clone");
        let t = std::thread::spawn(move || {
            writer.send(1, &share(2)).expect("send from clone");
        });
        let (round, msg) = b.recv().expect("recv").expect("not eof");
        assert_eq!((round, msg), (1, share(2)));
        t.join().expect("writer thread");
        drop(a);
    }

    #[test]
    fn corrupt_stream_surfaces_as_frame_error() {
        let (mut a, mut b) = loopback_pair();
        a.send(0, &share(0)).expect("send");
        // Garbage after a valid frame: the decoder sees a bad magic.
        use std::io::Write as _;
        a.stream.write_all(&[0xDE, 0xAD, 0xBE, 0xEF]).expect("raw");
        drop(a);
        assert!(b.recv().expect("first frame is fine").is_some());
        let err = b.recv().expect_err("garbage breaks framing");
        assert!(matches!(err, TransportError::Frame(_)), "{err}");
    }
}
