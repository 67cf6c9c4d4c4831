//! A refusal says why, once: an agent whose own Announce cannot be
//! framed stops instead of retrying it, a peer the daemon hangs up on
//! finds the reason in the `conn_closed` event, and a design the exchange
//! does not serve never opens a socket or a log.

#![expect(clippy::expect_used, clippy::panic, reason = "test helpers")]

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use vdx_broker::CpPolicy;
use vdx_core::{Design, DriverRound, ExchangeDriver};
use vdx_exchanged::{run_agent, run_agent_probed, AgentConfig, ExchangeServer, ServerOptions};
use vdx_geo::CityId;
use vdx_obs::{Event, MemoryProbe, Stopwatch};
use vdx_proto::frame::{self, HEADER_LEN, MAX_PAYLOAD};
use vdx_proto::wire::BID_LEN;
use vdx_proto::{Bid, Connection, FrameError, Message, Share, TransportError};
use vdx_sim::soak::{round_engine, run_reference, shares_of, SoakPlan, SoakRound};
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

/// Round 0 with an honest CDN 0 and a raw peer in CDN 1's slot that
/// answers the Share with `announce(shares)`; the other CDNs never
/// connect. Returns the round, the `conn_closed` reasons journaled for
/// CDN 1, CDN 1's consecutive failures and whether the peer was sent an
/// Accept.
fn a_round_with_cdn_1_announcing(
    scenario: &Arc<Scenario>,
    announce: impl FnOnce(&[Share]) -> Vec<Bid> + Send + 'static,
) -> (DriverRound, Vec<String>, u32, bool) {
    let (probe, journal) = MemoryProbe::channel();
    let opts = ServerOptions {
        // The round ends when CDN 0 has answered; this bounds a failure.
        deadline: Duration::from_secs(60),
        ..ServerOptions::default()
    };
    let mut server = ExchangeServer::start(
        "127.0.0.1:0",
        scenario.clone(),
        Design::Marketplace,
        CpPolicy::balanced(),
        Arc::new(probe),
        opts,
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let honest = {
        let scenario = scenario.clone();
        std::thread::spawn(move || {
            run_agent(addr, &scenario, &AgentConfig::new(0, Design::Marketplace))
        })
    };
    let mut peer = Connection::connect(addr).expect("connect");
    let hello = Message::Hello {
        node_id: 1,
        role: 1,
    };
    peer.send(0, &hello).expect("hello");
    assert!(
        server.wait_for_agents(2, Duration::from_secs(10)),
        "both connect"
    );
    let hostile = std::thread::spawn(move || {
        let Ok(Some((round, Message::Share(shares)))) = peer.recv() else {
            panic!("expected the round's Share");
        };
        peer.send(round, &Message::Announce(announce(&shares)))
            .expect("announce");
        // Whether an Accept came back before the daemon hung up.
        let mut accepted = false;
        while let Ok(Some((_, msg))) = peer.recv() {
            accepted |= matches!(msg, Message::Accept(_));
        }
        accepted
    });
    let decided = server.run_round(0);
    let failures = server.breaker(1).consecutive_failures();
    server.shutdown();
    let accepted = hostile.join().expect("peer thread");
    honest.join().expect("agent thread").expect("agent run");
    let closed = (journal.try_iter())
        .filter_map(|ev| match ev {
            Event::ConnClosed { cdn: 1, reason, .. } => Some(reason),
            _ => None,
        })
        .collect();
    (decided, closed, failures, accepted)
}

/// A bid on `cluster` for every share at price 0.
fn bids_on(cluster: u64, shares: &[Share]) -> Vec<Bid> {
    (shares.iter())
        .map(|share| Bid {
            cluster_id: cluster,
            share_id: share.share_id,
            performance_estimate: 1.0,
            capacity_kbps: 1e9,
            price_per_mb: 0.0,
        })
        .collect()
}

/// Round 0 decided with CDN 0 answering and every other CDN silent: what
/// a round whose CDN 1 is hung up on must equal.
fn only_cdn_0_answering(scenario: &Scenario) -> Vec<DriverRound> {
    let silent_but_cdn_0 = SoakPlan {
        rounds: vec![SoakRound {
            silent: (1..scenario.fleet.cdns.len() as u32).collect(),
        }],
        ..SoakPlan::clean(1)
    };
    run_reference(
        scenario,
        Design::Marketplace,
        CpPolicy::balanced(),
        silent_but_cdn_0,
        vdx_obs::probe::noop(),
    )
}

/// A CDN bids only its own clusters. An Announce naming a cluster past
/// the fleet, or another CDN's, used to be decided on: every group went
/// to the phantom cluster at price 0, or some to the pair (CDN 1, CDN
/// 0's cluster). Now the daemon hangs up on the sender, names the
/// cluster, and decides the round as if that CDN had been silent.
#[test]
fn an_announce_naming_a_cluster_not_the_senders_closes_its_connection() {
    let scenario = small();
    let fleet = &scenario.fleet;
    let past_the_fleet = fleet.clusters.len() as u64;
    let cdn_0s = u64::from(fleet.cdns[0].clusters[0].0);
    let reference = only_cdn_0_answering(&scenario);
    for cluster in [past_the_fleet, cdn_0s] {
        let (decided, closed, failures, accepted) =
            a_round_with_cdn_1_announcing(&scenario, move |shares| bids_on(cluster, shares));
        assert_eq!(
            closed,
            [format!(
                "announce names cluster {cluster}, not one of CDN 1's"
            )],
            "cluster {cluster}"
        );
        assert!(!accepted, "cluster {cluster}: the peer was sent an Accept");
        assert_eq!(failures, 1, "cluster {cluster}: CDN 1 was down");
        assert_eq!(
            format!("{:?}", [decided]),
            format!("{reference:?}"),
            "cluster {cluster}"
        );
    }
}

/// A CDN bids only for the round's shares. An Announce whose last bid
/// names a share past the round's used to lose that bid, unjournaled, in
/// option assembly, and the rest were decided on. Now the daemon hangs
/// up on the sender, names the share, and decides the round as if that
/// CDN had been silent.
#[test]
fn an_announce_naming_a_share_outside_the_round_closes_its_connection() {
    let scenario = small();
    let n = scenario.groups.len() as u64;
    let cdn_1s = u64::from(scenario.fleet.cdns[1].clusters[0].0);
    let reference = only_cdn_0_answering(&scenario);
    for share in [n, u64::MAX] {
        let (decided, closed, failures, accepted) =
            a_round_with_cdn_1_announcing(&scenario, move |shares| {
                let mut bids = bids_on(cdn_1s, shares);
                if let Some(last) = bids.last_mut() {
                    last.share_id = share;
                }
                bids
            });
        assert_eq!(
            closed,
            [format!(
                "announce names share {share}, not one of round 0's {n} shares"
            )],
            "share {share}"
        );
        assert!(!accepted, "share {share}: the peer was sent an Accept");
        assert_eq!(failures, 1, "share {share}: CDN 1 was down");
        assert_eq!(
            format!("{:?}", [decided]),
            format!("{reference:?}"),
            "share {share}"
        );
    }
}

/// A CDN bids in numbers. An Announce whose last bid carries a NaN or
/// negative price or an infinite capacity used to reach option assembly,
/// where a debug build's round thread panics on it and a release build
/// decides on it. Now the daemon hangs up on the sender, names the field
/// and its value, and decides the round as if that CDN had been silent.
#[test]
fn an_announce_bidding_a_hostile_number_closes_its_connection() {
    let scenario = small();
    let cdn_1s = u64::from(scenario.fleet.cdns[1].clusters[0].0);
    let reference = only_cdn_0_answering(&scenario);
    let cases = [
        ("price_per_mb", f64::NAN),
        ("capacity_kbps", f64::INFINITY),
        ("price_per_mb", -1.0),
    ];
    for (field, value) in cases {
        let bidding = format!("{field} {value}");
        let (decided, closed, failures, accepted) =
            a_round_with_cdn_1_announcing(&scenario, move |shares| {
                let mut bids = bids_on(cdn_1s, shares);
                if let Some(last) = bids.last_mut() {
                    match field {
                        "price_per_mb" => last.price_per_mb = value,
                        _ => last.capacity_kbps = value,
                    }
                }
                bids
            });
        let last = scenario.groups.len() - 1;
        assert_eq!(
            closed,
            [format!(
                "announce bids {bidding} for share {last}, not a finite non-negative number"
            )],
            "{bidding}"
        );
        assert!(!accepted, "{bidding}: the peer was sent an Accept");
        assert_eq!(failures, 1, "{bidding}: CDN 1 was down");
        assert_eq!(
            format!("{:?}", [decided]),
            format!("{reference:?}"),
            "{bidding}"
        );
    }
}

/// Omniscient and Transactions are refused before the socket is bound
/// or the log opened: a log already on disk is left byte for byte. Every
/// other design starts, `multicluster:1000` among them.
#[test]
fn the_exchange_starts_only_the_designs_it_serves() {
    let scenario = small();
    let start = |design: Design, opts: ServerOptions| {
        ExchangeServer::start(
            "127.0.0.1:0",
            scenario.clone(),
            design,
            CpPolicy::balanced(),
            vdx_obs::probe::noop(),
            opts,
        )
    };
    let wal = std::env::temp_dir().join(format!("vdx-unserved-{}.wal", std::process::id()));
    let log = b"not a log a refused start may open or truncate".to_vec();
    for design in [Design::Omniscient, Design::Transactions] {
        std::fs::write(&wal, &log).expect("write the log");
        let opts = ServerOptions {
            wal: Some(wal.clone()),
            ..ServerOptions::default()
        };
        let Err(e) = start(design, opts) else {
            panic!("{design} started");
        };
        assert_eq!(e.kind(), std::io::ErrorKind::InvalidInput, "{design}");
        assert_eq!(Some(e.to_string()), design.served().err());
        assert_eq!(std::fs::read(&wal).expect("read the log"), log, "{design}");
    }
    let _ = std::fs::remove_file(&wal);
    let served = Design::TABLE3
        .into_iter()
        .filter(|&d| d != Design::Omniscient);
    for design in served.chain([Design::Multicluster(1000)]) {
        let server = start(design, ServerOptions::default());
        server
            .unwrap_or_else(|e| panic!("{design}: {e}"))
            .shutdown();
    }
}
