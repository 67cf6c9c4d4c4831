//! The VDX message schemas (§6.1 of the paper) and their binary encoding.
//!
//! The paper's formats, verbatim:
//!
//! * Share: `[share_id, location, isp, content_id, data_size, client_count]`
//! * Bid (Announce): `[cluster_id, share_id, performance_estimate,
//!   capacity, price]` — `cluster_id` is "an opaque id known only between
//!   the broker and the CDN".
//! * Accept: "the accept format is likely the same as the bid format"; the
//!   broker communicates results "including CDNs that 'lost' the auction",
//!   so each entry carries an `accepted` flag.
//!
//! Encoding is fixed-layout big-endian: one type byte, then the fields;
//! batches carry a `u32` count. No self-description — the frame header
//! already negotiated the protocol version.

use crate::wire::{get_bid, put_bid, Cursor, PutBe, BID_LEN};

/// A Share entry: client (meta-)data a broker sends to CDNs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Share {
    /// Opaque share id, referenced by bids and accepts.
    pub share_id: u64,
    /// Client location (city id).
    pub location: u32,
    /// Client ISP (AS number).
    pub isp: u32,
    /// Content identifier (lets CDNs express per-content policy).
    pub content_id: u64,
    /// Aggregate demand of the share, kbit/s.
    pub data_size_kbps: f64,
    /// Number of clients aggregated.
    pub client_count: u32,
}

/// A bid: one candidate cluster a CDN offers for one share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bid {
    /// Opaque cluster id (meaningful only between this CDN and the broker).
    pub cluster_id: u64,
    /// The share this bid answers.
    pub share_id: u64,
    /// Performance estimate (score; lower is better).
    pub performance_estimate: f64,
    /// Announced capacity, kbit/s.
    pub capacity_kbps: f64,
    /// Price per megabit.
    pub price_per_mb: f64,
}

/// One entry of an Accept message: a bid echoed back with its outcome.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AcceptEntry {
    /// The bid being reported on.
    pub bid: Bid,
    /// Whether the broker's Optimize step used this bid.
    pub accepted: bool,
}

/// All VDX protocol messages.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// Handshake: who is speaking (node id) and as what role.
    Hello {
        /// Sender's node id.
        node_id: u64,
        /// `0` = broker, `1` = CDN.
        role: u8,
    },
    /// Resume handshake: like [`Message::Hello`], but from a peer that
    /// already held a session and is reconnecting after a drop (its own
    /// crash, a transport failure, or a daemon restart). `last_round`
    /// carries the last round the sender saw settle, so the receiver can
    /// discard any replayed Announce for an already-settled round — a
    /// rejoining agent can never double-bid.
    HelloResume {
        /// Sender's node id.
        node_id: u64,
        /// `0` = broker, `1` = CDN.
        role: u8,
        /// Last round the sender saw settle (received an Accept for).
        /// A sender that never saw a settlement reconnects with a plain
        /// `Hello` instead, so this field always names a real round.
        last_round: u64,
    },
    /// Decision Protocol step 3: broker → CDN client data.
    Share(Vec<Share>),
    /// Decision Protocol step 5: CDN → broker bids.
    Announce(Vec<Bid>),
    /// Decision Protocol step 7: broker → CDN outcomes.
    Accept(Vec<AcceptEntry>),
    /// Delivery Protocol step 1: client → broker "which CDN cluster?".
    Query {
        /// Client id.
        client_id: u64,
        /// Client city.
        location: u32,
    },
    /// Delivery Protocol step 2: broker → client chosen cluster.
    QueryResult {
        /// Client id echoed.
        client_id: u64,
        /// The cluster to fetch from (opaque id).
        cluster_id: u64,
    },
}

/// Wire decoding errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Unknown message type byte.
    UnknownType(u8),
    /// Message was shorter than its fixed layout requires.
    Truncated,
    /// Trailing bytes after a complete message.
    TrailingBytes(usize),
    /// A batch declared more entries than the payload can hold.
    BadCount(u32),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::UnknownType(t) => write!(f, "unknown message type {t:#04x}"),
            WireError::Truncated => write!(f, "message truncated"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            WireError::BadCount(n) => write!(f, "implausible batch count {n}"),
        }
    }
}

impl std::error::Error for WireError {}

const T_HELLO: u8 = 0x01;
const T_SHARE: u8 = 0x02;
const T_ANNOUNCE: u8 = 0x03;
const T_ACCEPT: u8 = 0x04;
const T_QUERY: u8 = 0x05;
const T_RESULT: u8 = 0x06;
// 0x07 (added with the crash-safety work): a pre-resume receiver rejects
// it as `UnknownType` and drops the connection, which a resuming sender
// treats like any other failed attempt — no version negotiation needed.
const T_HELLO_RESUME: u8 = 0x07;

const SHARE_LEN: usize = 8 + 4 + 4 + 8 + 8 + 4;
const ACCEPT_LEN: usize = BID_LEN + 1;

impl Message {
    /// Encodes the message to bytes (ready to be framed).
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        buf
    }

    /// Appends the encoded message to `buf` — what [`Message::encode`]
    /// returns, written where the caller is assembling its frame. A
    /// batch reserves its exact size first, so a fresh buffer is grown
    /// once and a kept one not at all.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        match self {
            Message::Hello { node_id, role } => {
                buf.put_u8(T_HELLO);
                buf.put_u64(*node_id);
                buf.put_u8(*role);
            }
            Message::HelloResume {
                node_id,
                role,
                last_round,
            } => {
                buf.put_u8(T_HELLO_RESUME);
                buf.put_u64(*node_id);
                buf.put_u8(*role);
                buf.put_u64(*last_round);
            }
            Message::Share(shares) => {
                buf.reserve(5 + shares.len() * SHARE_LEN);
                buf.put_u8(T_SHARE);
                buf.put_u32(shares.len() as u32);
                for s in shares {
                    buf.put_u64(s.share_id);
                    buf.put_u32(s.location);
                    buf.put_u32(s.isp);
                    buf.put_u64(s.content_id);
                    buf.put_f64(s.data_size_kbps);
                    buf.put_u32(s.client_count);
                }
            }
            Message::Announce(bids) => {
                buf.reserve(5 + bids.len() * BID_LEN);
                buf.put_u8(T_ANNOUNCE);
                buf.put_u32(bids.len() as u32);
                for b in bids {
                    put_bid(buf, b);
                }
            }
            Message::Accept(entries) => {
                buf.reserve(5 + entries.len() * ACCEPT_LEN);
                buf.put_u8(T_ACCEPT);
                buf.put_u32(entries.len() as u32);
                for e in entries {
                    put_bid(buf, &e.bid);
                    buf.put_u8(e.accepted as u8);
                }
            }
            Message::Query {
                client_id,
                location,
            } => {
                buf.put_u8(T_QUERY);
                buf.put_u64(*client_id);
                buf.put_u32(*location);
            }
            Message::QueryResult {
                client_id,
                cluster_id,
            } => {
                buf.put_u8(T_RESULT);
                buf.put_u64(*client_id);
                buf.put_u64(*cluster_id);
            }
        }
    }

    /// Decodes a message; the input must contain exactly one message.
    pub fn decode(data: &[u8]) -> Result<Message, WireError> {
        let mut cur = Cursor::new(data);
        let msg = match field(cur.u8())? {
            T_HELLO => Message::Hello {
                node_id: field(cur.u64())?,
                role: field(cur.u8())?,
            },
            T_HELLO_RESUME => Message::HelloResume {
                node_id: field(cur.u64())?,
                role: field(cur.u8())?,
                last_round: field(cur.u64())?,
            },
            T_SHARE => {
                let count = get_count(&mut cur, SHARE_LEN)?;
                let mut shares = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    shares.push(Share {
                        share_id: field(cur.u64())?,
                        location: field(cur.u32())?,
                        isp: field(cur.u32())?,
                        content_id: field(cur.u64())?,
                        data_size_kbps: field(cur.f64())?,
                        client_count: field(cur.u32())?,
                    });
                }
                Message::Share(shares)
            }
            T_ANNOUNCE => {
                let count = get_count(&mut cur, BID_LEN)?;
                let mut bids = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    bids.push(field(get_bid(&mut cur))?);
                }
                Message::Announce(bids)
            }
            T_ACCEPT => {
                let count = get_count(&mut cur, ACCEPT_LEN)?;
                let mut entries = Vec::with_capacity(count as usize);
                for _ in 0..count {
                    entries.push(AcceptEntry {
                        bid: field(get_bid(&mut cur))?,
                        accepted: field(cur.u8())? != 0,
                    });
                }
                Message::Accept(entries)
            }
            T_QUERY => Message::Query {
                client_id: field(cur.u64())?,
                location: field(cur.u32())?,
            },
            T_RESULT => Message::QueryResult {
                client_id: field(cur.u64())?,
                cluster_id: field(cur.u64())?,
            },
            other => return Err(WireError::UnknownType(other)),
        };
        if !cur.rest().is_empty() {
            return Err(WireError::TrailingBytes(cur.rest().len()));
        }
        Ok(msg)
    }
}

/// A field read that ran off the end of the input is a truncated message.
fn field<T>(read: Option<T>) -> Result<T, WireError> {
    read.ok_or(WireError::Truncated)
}

/// Reads a batch count and rejects one the remaining bytes cannot hold,
/// before anything is allocated for it.
fn get_count(cur: &mut Cursor<'_>, entry_len: usize) -> Result<u32, WireError> {
    let count = field(cur.u32())?;
    match (count as usize).checked_mul(entry_len) {
        Some(n) if n <= cur.rest().len() => Ok(count),
        _ => Err(WireError::BadCount(count)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let wire = msg.encode();
        let back = Message::decode(&wire).expect("decodes");
        assert_eq!(msg, back);
    }

    #[test]
    fn hello_roundtrip() {
        roundtrip(Message::Hello {
            node_id: 42,
            role: 1,
        });
    }

    #[test]
    fn hello_resume_roundtrip() {
        roundtrip(Message::HelloResume {
            node_id: 42,
            role: 1,
            last_round: 7,
        });
    }

    #[test]
    fn hello_resume_is_truncation_and_trailing_strict() {
        let wire = Message::HelloResume {
            node_id: 3,
            role: 1,
            last_round: 9,
        }
        .encode();
        assert_eq!(wire.len(), 18, "tag + node_id + role + last_round");
        assert_eq!(
            Message::decode(&wire[..wire.len() - 1]),
            Err(WireError::Truncated)
        );
        let mut padded = wire.clone();
        padded.push(0);
        assert_eq!(Message::decode(&padded), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn share_roundtrip() {
        roundtrip(Message::Share(vec![
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
        ]));
        roundtrip(Message::Share(vec![]));
    }

    #[test]
    fn announce_and_accept_roundtrip() {
        let bid = Bid {
            cluster_id: 7,
            share_id: 1,
            performance_estimate: 88.5,
            capacity_kbps: 1e6,
            price_per_mb: 1.25,
        };
        roundtrip(Message::Announce(vec![bid]));
        roundtrip(Message::Accept(vec![
            AcceptEntry {
                bid,
                accepted: true,
            },
            AcceptEntry {
                bid,
                accepted: false,
            },
        ]));
    }

    #[test]
    fn query_roundtrip() {
        roundtrip(Message::Query {
            client_id: 5,
            location: 3,
        });
        roundtrip(Message::QueryResult {
            client_id: 5,
            cluster_id: 9,
        });
    }

    #[test]
    fn unknown_type_rejected() {
        assert_eq!(Message::decode(&[0xEE]), Err(WireError::UnknownType(0xEE)));
    }

    #[test]
    fn truncation_rejected() {
        let mut wire = Message::Hello {
            node_id: 1,
            role: 0,
        }
        .encode();
        wire.truncate(4);
        assert_eq!(Message::decode(&wire), Err(WireError::Truncated));
        assert_eq!(Message::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut wire = Message::Query {
            client_id: 1,
            location: 2,
        }
        .encode();
        wire.push(0);
        assert_eq!(Message::decode(&wire), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn implausible_count_rejected_before_allocation() {
        // Announce with count u32::MAX but no entries.
        let mut wire = vec![0x03];
        wire.extend_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(Message::decode(&wire), Err(WireError::BadCount(u32::MAX)));
    }

    #[test]
    fn decode_via_frame_layer() {
        let msg = Message::Announce(vec![Bid {
            cluster_id: 1,
            share_id: 2,
            performance_estimate: 3.0,
            capacity_kbps: 4.0,
            price_per_mb: 5.0,
        }]);
        let framed = crate::frame::encode(&msg.encode());
        let mut dec = crate::frame::FrameDecoder::new();
        dec.feed(&framed);
        let frame = dec.next_frame().unwrap().unwrap();
        assert_eq!(Message::decode(frame).unwrap(), msg);
    }
}
