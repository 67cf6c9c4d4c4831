//! A refusal says why, once: an agent whose own Announce cannot be
//! framed stops instead of retrying it, and a peer the daemon hangs up
//! on finds the reason in the `conn_closed` event.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use vdx_broker::CpPolicy;
use vdx_core::Design;
use vdx_exchanged::{run_agent_probed, AgentConfig, ExchangeServer, ServerOptions};
use vdx_geo::CityId;
use vdx_obs::{Event, MemoryProbe, Stopwatch};
use vdx_proto::frame::{self, HEADER_LEN, MAX_PAYLOAD};
use vdx_proto::wire::BID_LEN;
use vdx_proto::{Connection, FrameError, Message, TransportError};
use vdx_sim::soak::{round_engine, shares_of};
use vdx_sim::{Scenario, ScenarioConfig};

fn small() -> Arc<Scenario> {
    Arc::new(Scenario::build(ScenarioConfig::at_scale(true, Some(2017))))
}

#[test]
fn an_announce_too_large_to_frame_ends_the_agent_without_a_retry() {
    let scenario = small();
    // A daemon that shares the scenario's groups over and over, until the
    // agent's bids for them (40 B each) just overflow a frame; the Share
    // itself (36 B per group) still fits.
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound");
    let once = shares_of(&scenario);
    let scores = |a: CityId, b: CityId| scenario.score_of(a, b);
    let bids_per_pass = round_engine(&scenario, Design::Marketplace, 0)
        .build_bids(&once, &scenario.fleet, &scores)
        .len();
    let passes = MAX_PAYLOAD / (BID_LEN * bids_per_pass) + 1;
    let shares: Vec<_> = once
        .iter()
        .copied()
        .cycle()
        .take(passes * once.len())
        .collect();
    let daemon = std::thread::spawn(move || {
        let (stream, _) = listener.accept().expect("the agent connects");
        drop(listener); // a retry would be refused, not parked in the backlog
        let mut conn = Connection::new(stream).expect("wrap");
        let hello = conn.recv().expect("hello arrives");
        assert!(
            matches!(hello, Some((0, Message::Hello { .. }))),
            "{hello:?}"
        );
        conn.send(0, &Message::Share(shares)).expect("share fits");
        // Whatever comes back, it is not an Announce: the agent hangs up.
        assert!(!matches!(conn.recv(), Ok(Some((_, Message::Announce(_))))));
    });

    let cfg = AgentConfig {
        max_retries: 5,
        retry_base_ms: 1,
        ..AgentConfig::new(0, Design::Marketplace)
    };
    let (probe, journal) = MemoryProbe::channel();
    let outcome = run_agent_probed(addr, &scenario, &cfg, &probe);
    daemon.join().expect("daemon thread");

    let Err(TransportError::Io(e)) = &outcome else {
        panic!("expected the refused send, got {outcome:?}");
    };
    assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput);
    let refused = e.get_ref().and_then(|inner| inner.downcast_ref());
    assert!(
        matches!(refused, Some(FrameError::Oversized(n)) if *n > MAX_PAYLOAD),
        "{e:?}"
    );
    let retries = journal
        .try_iter()
        .filter(|ev| matches!(ev, Event::ConnRetry { .. }))
        .count();
    assert_eq!(retries, 0, "a refusal that will recur is not retried");
}

#[test]
fn a_peer_that_declares_an_oversize_frame_is_closed_with_the_reason() {
    let scenario = small();
    let (probe, journal) = MemoryProbe::channel();
    let server = ExchangeServer::start(
        "127.0.0.1:0",
        scenario,
        Design::Marketplace,
        CpPolicy::balanced(),
        Arc::new(probe),
        ServerOptions::default(),
    )
    .expect("bind loopback");

    // A well-formed Hello for CDN 0, then a header declaring one byte
    // more than a frame may carry.
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut bytes = Vec::new();
    frame::begin_frame(&mut bytes);
    bytes.extend_from_slice(&0u64.to_be_bytes());
    Message::Hello {
        node_id: 0,
        role: 1,
    }
    .encode_into(&mut bytes);
    frame::seal_frame(&mut bytes).expect("a hello fits");
    let mut header = Vec::new();
    frame::begin_frame(&mut header);
    header[HEADER_LEN - 4..].copy_from_slice(&(MAX_PAYLOAD as u32 + 1).to_be_bytes());
    bytes.extend_from_slice(&header);
    stream.write_all(&bytes).expect("write");

    let clock = Stopwatch::start();
    let reason = loop {
        let closed = journal.try_iter().find_map(|ev| match ev {
            Event::ConnClosed { cdn: 0, reason, .. } => Some(reason),
            _ => None,
        });
        if let Some(reason) = closed {
            break reason;
        }
        assert!(clock.elapsed_ms() < 10_000, "no conn_closed within 10 s");
        std::thread::sleep(Duration::from_millis(5));
    };
    assert_eq!(
        reason,
        format!(
            "read error: transport framing: frame payload of {} bytes exceeds limit",
            MAX_PAYLOAD + 1
        )
    );
    server.shutdown();
}
