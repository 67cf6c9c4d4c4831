//! The collect path's waiting: the round thread sleeps on the arrival
//! signal the reader threads ring, not on a timer. Two properties the
//! soak ladder does not reach — no wake-up is ever lost, and a reader
//! blocked on a full queue (backpressure) is drained, not stranded.

use std::sync::Arc;
use std::time::Duration;

use vdx_broker::CpPolicy;
use vdx_core::{Design, ExchangeDriver, RoundResolution};
use vdx_exchanged::{run_agent, AgentConfig, ExchangeServer, ServerOptions};
use vdx_geo::CityId;
use vdx_obs::{MemoryProbe, Probe, Stopwatch};
use vdx_proto::{Connection, Message, TransportError};
use vdx_sim::soak::round_engine;
use vdx_sim::{Scenario, ScenarioConfig};

fn start(scenario: &Arc<Scenario>, probe: Arc<dyn Probe>, opts: ServerOptions) -> ExchangeServer {
    ExchangeServer::start(
        "127.0.0.1:0",
        scenario.clone(),
        Design::Marketplace,
        CpPolicy::balanced(),
        probe,
        opts,
    )
    .expect("bind loopback")
}

/// A lost wake-up does not fail a round, it stretches it to the
/// deadline — so the deadline is made long next to what a debug-build
/// round costs (tens of ms), and no single round may take half of it.
/// Per round, not per run: how long 300 rounds take is the host's speed.
#[test]
fn back_to_back_rounds_never_sleep_through_an_arrival() {
    const ROUNDS: u64 = 300;
    let deadline = Duration::from_secs(10);
    let scenario = Arc::new(Scenario::build(ScenarioConfig::at_scale(true, Some(2017))));
    let n = scenario.fleet.cdns.len();
    let mut server = start(
        &scenario,
        vdx_obs::probe::noop(),
        ServerOptions {
            deadline,
            ..ServerOptions::default()
        },
    );
    let addr = server.local_addr();
    let agents: Vec<_> = (0..n as u32)
        .map(|cdn| {
            let sc = scenario.clone();
            let cfg = AgentConfig::new(cdn, Design::Marketplace);
            std::thread::spawn(move || run_agent(addr, &sc, &cfg))
        })
        .collect();
    assert!(server.wait_for_agents(n, Duration::from_secs(10)));

    for round in 0..ROUNDS {
        let clock = Stopwatch::start();
        let outcome = server.run_round(round);
        let took = Duration::from_micros(clock.elapsed_us());
        assert!(
            took < deadline / 2,
            "round {round} took {took:?}: it waited on its {deadline:?} deadline, not on an arrival"
        );
        assert_eq!(outcome.resolution, RoundResolution::Fresh, "round {round}");
    }

    server.shutdown();
    for a in agents {
        let report = a.join().expect("agent thread").expect("agent transport");
        assert_eq!(report.rounds_answered, ROUNDS);
    }
}

/// An agent for CDN 0 that bids like `run_agent`, and on its first
/// Accept floods `flood` Announces stamped with the round just settled.
fn flooding_agent(
    addr: std::net::SocketAddr,
    scenario: &Scenario,
    flood: usize,
) -> Result<(), TransportError> {
    let mut conn = Connection::connect(addr)?;
    conn.send(
        0,
        &Message::Hello {
            node_id: 0,
            role: 1,
        },
    )?;
    let mut flooded = false;
    while let Some((round, msg)) = conn.recv()? {
        match msg {
            Message::Share(shares) => {
                let bids = round_engine(scenario, Design::Marketplace, 0).build_bids(
                    &shares,
                    &scenario.fleet,
                    &|a: CityId, b: CityId| scenario.score_of(a, b),
                );
                conn.send(round, &Message::Announce(bids))?;
            }
            Message::Accept(_) if !flooded => {
                flooded = true;
                for _ in 0..flood {
                    conn.send(round, &Message::Announce(Vec::new()))?;
                }
            }
            _ => {}
        }
    }
    Ok(())
}

#[test]
fn a_flooding_agent_meets_backpressure_once_and_still_bids_fresh() {
    let scenario = Arc::new(Scenario::build(ScenarioConfig::at_scale(true, Some(2017))));
    let n = scenario.fleet.cdns.len();
    let opts = ServerOptions {
        deadline: Duration::from_secs(20),
        ..ServerOptions::default()
    };
    let flood = opts.queue_cap + 8;
    let probe = Arc::new(MemoryProbe::new());
    let mut server = start(&scenario, probe.clone(), opts);
    let addr = server.local_addr();
    let flooder = {
        let sc = scenario.clone();
        std::thread::spawn(move || flooding_agent(addr, &sc, flood))
    };
    let others: Vec<_> = (1..n as u32)
        .map(|cdn| {
            let sc = scenario.clone();
            let cfg = AgentConfig::new(cdn, Design::Marketplace);
            std::thread::spawn(move || run_agent(addr, &sc, &cfg))
        })
        .collect();
    assert!(server.wait_for_agents(n, Duration::from_secs(10)));
    let backpressure_events = || {
        probe
            .events()
            .iter()
            .filter(|e| e.kind() == "conn_backpressure")
            .count()
    };

    assert_eq!(server.run_round(0).resolution, RoundResolution::Fresh);
    // Between rounds nobody drains: the reader fills the queue, reports
    // once, and blocks with the rest of the flood behind it.
    let clock = Stopwatch::start();
    while backpressure_events() == 0 {
        assert!(clock.elapsed_ms() < 10_000, "the reader never backed up");
        std::thread::sleep(Duration::from_millis(1));
    }
    // The real Announce for round 1 is behind every stale one, in the
    // same stream: it arrives only if the blocked reader is drained and
    // nothing in front of it is lost — and well inside the deadline
    // only if the collect is woken for it.
    let clock = Stopwatch::start();
    for round in 1..4 {
        assert_eq!(
            server.run_round(round).resolution,
            RoundResolution::Fresh,
            "round {round}"
        );
    }
    assert!(
        clock.elapsed_ms() < 10_000,
        "a round waited out its deadline"
    );
    assert_eq!(backpressure_events(), 1, "reported once per connection");

    server.shutdown();
    flooder
        .join()
        .expect("flooder thread")
        .expect("flooder transport");
    for a in others {
        a.join().expect("agent thread").expect("agent transport");
    }
}
