//! Request/response correlation over a [`ReliableChannel`].
//!
//! The Decision Protocol is request/response shaped — the broker Shares and
//! expects an Announce; it Accepts and expects nothing. [`Endpoint`] adds a
//! correlation header on top of the reliable channel so concurrent
//! exchanges (e.g. a broker talking to 14 CDNs over 14 links, or pipelined
//! rounds on one link) can be matched up without blocking.
//!
//! Header layout inside each reliable payload:
//! `kind(1: 0=request, 1=response, 2=oneway) | correlation_id(8) | message`.

use crate::message::{Message, WireError};
use crate::reliable::{ChannelStats, ReliableChannel};
use crate::wire::{Cursor, PutBe};
use crate::{Link, LinkEnd, SimTime};

/// Correlation id for a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

/// An event surfaced by [`Endpoint::poll_events`].
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The peer sent a request; answer with [`Endpoint::respond`].
    Request(RequestId, Message),
    /// The peer answered one of our requests.
    Response(RequestId, Message),
    /// The peer sent a one-way message (no response expected).
    OneWay(Message),
    /// A payload could not be decoded (counted, then skipped).
    DecodeError(WireError),
}

const KIND_REQUEST: u8 = 0;
const KIND_RESPONSE: u8 = 1;
const KIND_ONEWAY: u8 = 2;

/// A message-level endpoint over one reliable channel.
pub struct Endpoint {
    channel: ReliableChannel,
    next_id: u64,
}

impl Endpoint {
    /// An endpoint on one end of a link.
    pub fn new(end: LinkEnd) -> Endpoint {
        Endpoint {
            channel: ReliableChannel::new(end),
            next_id: 0,
        }
    }

    /// Sends a request; the returned id will appear on the matching
    /// [`Event::Response`].
    pub fn request(&mut self, msg: &Message) -> RequestId {
        let id = RequestId(self.next_id);
        self.next_id += 1;
        self.channel.send(envelope(KIND_REQUEST, id.0, msg));
        id
    }

    /// Answers a previously received request.
    pub fn respond(&mut self, id: RequestId, msg: &Message) {
        self.channel.send(envelope(KIND_RESPONSE, id.0, msg));
    }

    /// Sends a message that expects no response (e.g. Accept).
    pub fn send_oneway(&mut self, msg: &Message) {
        self.channel.send(envelope(KIND_ONEWAY, 0, msg));
    }

    /// Advances the channel and drains every completed event.
    pub fn poll_events(&mut self, now: SimTime, link: &mut Link) -> Vec<Event> {
        self.channel.poll(now, link);
        let mut events = Vec::new();
        while let Some(payload) = self.channel.recv() {
            events.push(parse_envelope(&payload));
        }
        events
    }

    /// Statistics of the underlying reliable channel.
    pub fn channel_stats(&self) -> ChannelStats {
        self.channel.stats()
    }
}

fn envelope(kind: u8, id: u64, msg: &Message) -> Vec<u8> {
    let body = msg.encode();
    let mut buf = Vec::with_capacity(9 + body.len());
    buf.put_u8(kind);
    buf.put_u64(id);
    buf.extend_from_slice(&body);
    buf
}

fn parse_envelope(payload: &[u8]) -> Event {
    let mut data = Cursor::new(payload);
    let (Some(kind), Some(id)) = (data.u8(), data.u64()) else {
        return Event::DecodeError(WireError::Truncated);
    };
    match Message::decode(data.rest()) {
        Err(e) => Event::DecodeError(e),
        Ok(msg) => match kind {
            KIND_REQUEST => Event::Request(RequestId(id), msg),
            KIND_RESPONSE => Event::Response(RequestId(id), msg),
            KIND_ONEWAY => Event::OneWay(msg),
            other => Event::DecodeError(WireError::UnknownType(other)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::FaultConfig;
    use crate::message::{Bid, Share};

    fn pair(faults: FaultConfig, seed: u64) -> (Endpoint, Endpoint, Link) {
        let link = Link::new(faults, seed);
        (Endpoint::new(LinkEnd::A), Endpoint::new(LinkEnd::B), link)
    }

    fn share() -> Message {
        Message::Share(vec![Share {
            share_id: 1,
            location: 2,
            isp: 3,
            content_id: 4,
            data_size_kbps: 5.0,
            client_count: 6,
        }])
    }

    fn announce() -> Message {
        Message::Announce(vec![Bid {
            cluster_id: 10,
            share_id: 1,
            performance_estimate: 55.0,
            capacity_kbps: 1e6,
            price_per_mb: 1.1,
        }])
    }

    #[test]
    fn request_response_roundtrip() {
        let (mut broker, mut cdn, mut link) = pair(FaultConfig::lossless(), 1);
        let req_id = broker.request(&share());
        let mut response = None;
        for ms in 0..100 {
            let now = SimTime(ms);
            for e in cdn.poll_events(now, &mut link) {
                if let Event::Request(id, msg) = e {
                    assert_eq!(msg, share());
                    cdn.respond(id, &announce());
                }
            }
            for e in broker.poll_events(now, &mut link) {
                if let Event::Response(id, msg) = e {
                    assert_eq!(id, req_id);
                    response = Some(msg);
                }
            }
            if response.is_some() {
                break;
            }
        }
        assert_eq!(response, Some(announce()));
    }

    #[test]
    fn request_response_over_adverse_link() {
        let (mut broker, mut cdn, mut link) = pair(FaultConfig::adverse(), 77);
        let _ = broker.request(&share());
        let mut done = false;
        for ms in 0..30_000 {
            let now = SimTime(ms);
            for e in cdn.poll_events(now, &mut link) {
                if let Event::Request(id, _) = e {
                    cdn.respond(id, &announce());
                }
            }
            for e in broker.poll_events(now, &mut link) {
                if matches!(e, Event::Response(_, _)) {
                    done = true;
                }
            }
            if done {
                break;
            }
        }
        assert!(done, "exchange completed despite 15% drop/corrupt");
    }

    #[test]
    fn oneway_messages_carry_no_correlation() {
        let (mut broker, mut cdn, mut link) = pair(FaultConfig::lossless(), 2);
        broker.send_oneway(&Message::Accept(vec![]));
        let mut got = None;
        for ms in 0..100 {
            for e in cdn.poll_events(SimTime(ms), &mut link) {
                got = Some(e);
            }
            broker.poll_events(SimTime(ms), &mut link);
            if got.is_some() {
                break;
            }
        }
        assert_eq!(got, Some(Event::OneWay(Message::Accept(vec![]))));
    }

    #[test]
    fn concurrent_requests_correlate() {
        let (mut broker, mut cdn, mut link) = pair(FaultConfig::lossless(), 3);
        let id1 = broker.request(&share());
        let id2 = broker.request(&Message::Hello {
            node_id: 9,
            role: 0,
        });
        assert_ne!(id1, id2);
        let mut responses = Vec::new();
        for ms in 0..200 {
            let now = SimTime(ms);
            for e in cdn.poll_events(now, &mut link) {
                if let Event::Request(id, msg) = e {
                    // The reply's type tells which request it answers.
                    let reply = match msg {
                        Message::Share(_) => announce(),
                        _ => Message::Hello {
                            node_id: 4,
                            role: 1,
                        },
                    };
                    cdn.respond(id, &reply);
                }
            }
            for e in broker.poll_events(now, &mut link) {
                if let Event::Response(id, msg) = e {
                    responses.push((id, msg));
                }
            }
            if responses.len() == 2 {
                break;
            }
        }
        assert_eq!(responses.len(), 2);
        let by_id1 = responses
            .iter()
            .find(|(id, _)| *id == id1)
            .expect("id1 answered");
        assert!(matches!(by_id1.1, Message::Announce(_)));
        let by_id2 = responses
            .iter()
            .find(|(id, _)| *id == id2)
            .expect("id2 answered");
        assert!(matches!(by_id2.1, Message::Hello { .. }));
    }
}
