//! The daemon's handshake rules, pinned with raw protocol peers: one
//! connection per CDN (a second `Hello` is refused and the first keeps
//! bidding), a resumed session's replayed Announces are inert up to the
//! round it resumed from, and an id past the fleet gets no slot.

use std::net::SocketAddr;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use vdx_broker::CpPolicy;
use vdx_core::{Design, ExchangeDriver, RoundResolution};
use vdx_exchanged::{ExchangeServer, ServerOptions};
use vdx_geo::CityId;
use vdx_obs::{Event, MemoryProbe, Probe};
use vdx_proto::{Connection, Message};
use vdx_sim::soak::round_engine;
use vdx_sim::{Scenario, ScenarioConfig};

fn small() -> Arc<Scenario> {
    Arc::new(Scenario::build(ScenarioConfig::at_scale(true, Some(2017))))
}

fn start(scenario: &Arc<Scenario>, probe: Arc<dyn Probe>, deadline: Duration) -> ExchangeServer {
    ExchangeServer::start(
        "127.0.0.1:0",
        scenario.clone(),
        Design::Marketplace,
        CpPolicy::balanced(),
        probe,
        ServerOptions {
            deadline,
            ..ServerOptions::default()
        },
    )
    .expect("bind loopback")
}

fn hello(cdn: u32) -> Message {
    Message::Hello {
        node_id: cdn as u64,
        role: 1,
    }
}

/// A raw peer that sends `greeting`, then answers every Share with the
/// bids a fresh engine builds for `cdn`, stamped with the Share's round,
/// until the daemon hangs up.
fn bidding_peer(
    addr: SocketAddr,
    scenario: &Arc<Scenario>,
    cdn: u32,
    greeting: Message,
) -> JoinHandle<()> {
    let scenario = scenario.clone();
    std::thread::spawn(move || {
        let mut conn = Connection::connect(addr).expect("connect");
        conn.send(0, &greeting).expect("greet");
        let scores = |a: CityId, b: CityId| scenario.score_of(a, b);
        while let Ok(Some((round, msg))) = conn.recv() {
            if let Message::Share(shares) = msg {
                let bids = round_engine(&scenario, Design::Marketplace, cdn).build_bids(
                    &shares,
                    &scenario.fleet,
                    &scores,
                );
                if conn.send(round, &Message::Announce(bids)).is_err() {
                    return;
                }
            }
        }
    })
}

/// Starts one bidding peer per CDN and waits until every one holds a
/// slot.
fn full_fleet(server: &mut ExchangeServer, scenario: &Arc<Scenario>) -> Vec<JoinHandle<()>> {
    let n = scenario.fleet.cdns.len();
    let addr = server.local_addr();
    let peers = (0..n as u32)
        .map(|cdn| bidding_peer(addr, scenario, cdn, hello(cdn)))
        .collect();
    assert!(server.wait_for_agents(n, Duration::from_secs(10)));
    peers
}

/// Whether the daemon has closed `conn`, waiting at most `wait`. A
/// connection that was never given a slot must not be sent anything.
fn closed_within(conn: &mut Connection, wait: Duration) -> bool {
    conn.set_read_timeout(Some(wait)).expect("set timeout");
    let got = conn.recv();
    assert!(
        !matches!(got, Ok(Some(_))),
        "a connection without a slot was sent {got:?}"
    );
    matches!(got, Ok(None)) || got.is_err_and(|e| !e.is_timeout())
}

fn finish(server: ExchangeServer, peers: Vec<JoinHandle<()>>) {
    server.shutdown();
    for p in peers {
        p.join().expect("peer thread");
    }
}

#[test]
fn a_second_hello_for_a_connected_cdn_is_refused_and_the_first_keeps_bidding() {
    let scenario = small();
    let n = scenario.fleet.cdns.len();
    let mut server = start(&scenario, vdx_obs::probe::noop(), Duration::from_secs(10));
    let peers = full_fleet(&mut server, &scenario);

    let mut intruder = Connection::connect(server.local_addr()).expect("connect");
    intruder.send(0, &hello(0)).expect("greet");
    // The refusal lands by the time a round or two has run; every such
    // round is still answered by CDN 0's first connection.
    let mut round = 0;
    while !closed_within(&mut intruder, Duration::from_millis(50)) {
        assert_eq!(
            server.run_round(round).resolution,
            RoundResolution::Fresh,
            "round {round}"
        );
        round += 1;
        assert!(round < 20, "the second connection was never refused");
    }
    assert_eq!(
        server.run_round(round).resolution,
        RoundResolution::Fresh,
        "the first connection answers the round after the refusal"
    );
    assert_eq!(server.connected_agents(), n);
    finish(server, peers);
}

#[test]
fn a_resumed_session_cannot_bid_at_or_below_the_round_it_resumed_from() {
    const RESUMED_FROM: u64 = 1;
    let scenario = small();
    let n = scenario.fleet.cdns.len();
    let probe = Arc::new(MemoryProbe::new());
    let mut server = start(&scenario, probe.clone(), Duration::from_millis(1_500));
    let addr = server.local_addr();
    let resume = Message::HelloResume {
        node_id: 0,
        role: 1,
        last_round: RESUMED_FROM,
    };
    let mut peers = vec![bidding_peer(addr, &scenario, 0, resume)];
    peers.extend((1..n as u32).map(|cdn| bidding_peer(addr, &scenario, cdn, hello(cdn))));
    assert!(server.wait_for_agents(n, Duration::from_secs(10)));

    let fresh_from = |round: u64| -> Vec<u32> {
        let mut cdns: Vec<u32> = (probe.events().into_iter())
            .filter_map(|e| match e {
                Event::BidReceived { round: r, cdn, .. } if r == round => Some(cdn),
                _ => None,
            })
            .collect();
        cdns.sort_unstable();
        cdns
    };
    // CDN 0 answers rounds 0 and 1 with Announces stamped for them: both
    // are at or below the round it resumed from, so neither counts.
    for round in 0..=RESUMED_FROM {
        let decided = server.run_round(round);
        assert_ne!(decided.resolution, RoundResolution::Fresh, "round {round}");
        assert_eq!(fresh_from(round), (1..n as u32).collect::<Vec<_>>());
    }
    let next = RESUMED_FROM + 1;
    assert_eq!(server.run_round(next).resolution, RoundResolution::Fresh);
    assert_eq!(fresh_from(next), (0..n as u32).collect::<Vec<_>>());
    finish(server, peers);
}

#[test]
fn a_hello_past_the_fleet_gets_no_slot() {
    let scenario = small();
    let n = scenario.fleet.cdns.len();
    let mut server = start(&scenario, vdx_obs::probe::noop(), Duration::from_secs(10));
    let peers = full_fleet(&mut server, &scenario);

    let mut stranger = Connection::connect(server.local_addr()).expect("connect");
    stranger.send(0, &hello(n as u32)).expect("greet");
    assert!(
        closed_within(&mut stranger, Duration::from_secs(10)),
        "an id past the fleet is hung up on"
    );
    assert!(!server.wait_for_agents(n + 1, Duration::from_millis(300)));
    assert_eq!(server.connected_agents(), n);
    assert_eq!(server.run_round(0).resolution, RoundResolution::Fresh);
    finish(server, peers);
}
