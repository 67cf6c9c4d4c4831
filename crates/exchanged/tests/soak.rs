//! Soak test: the live daemon and the transport-free reference driver
//! replay the same fault campaign and must produce identical decisions.
//!
//! This is the "two drivers, one core" contract (ARCHITECTURE.md) made
//! executable: [`DriverRound`] is a transport- and timing-independent
//! fingerprint of each round's decision, and the two drivers' sequences
//! must compare equal — same ladder rungs, same picks, same objectives,
//! through stale substitution, breaker trips, half-open recovery, and
//! Brokered fallback. So must their journals (what `obs-report` and
//! `vdx-audit` read), once wall-clock fields and the daemon-only
//! `conn_*` events are set aside.
//!
//! Both drivers run the one `vdx_core::Round`, so this no longer guards
//! two copies of the round logic against drifting apart; it proves the
//! TCP transport classifies silenced, disconnected and unrouted agents
//! the way the script says, and that commit ordering leaks into neither
//! decisions nor journal. The hand-pinned `expected` ladder below is the
//! oracle that is independent of the spine.

#![expect(clippy::expect_used, reason = "test helpers")]

use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::Duration;

use vdx_broker::{BreakerConfig, CpPolicy, HealthState};
use vdx_core::{Design, DriverRound, ExchangeDriver, RoundResolution};
use vdx_exchanged::{run_agent, AgentConfig, ExchangeServer, ServerOptions};
use vdx_obs::{Event, MemoryProbe, Probe};
use vdx_sim::soak::{run_reference, SoakPlan};
use vdx_sim::{Scenario, ScenarioConfig};

fn small_scenario(seed: u64) -> Scenario {
    Scenario::build(ScenarioConfig::at_scale(true, Some(seed)))
}

/// Starts the server plus one well-behaved-or-scripted agent thread per
/// CDN, waits for the full quorum, and returns the live rounds.
fn run_live(
    scenario: &Arc<Scenario>,
    plan: &SoakPlan,
    probe: Arc<dyn Probe>,
    configure: impl Fn(usize) -> AgentConfig,
) -> Vec<DriverRound> {
    let mut server = ExchangeServer::start(
        "127.0.0.1:0",
        scenario.clone(),
        Design::Marketplace,
        CpPolicy::balanced(),
        probe,
        ServerOptions::for_plan(plan),
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let n = scenario.fleet.cdns.len();
    let agents: Vec<_> = (0..n)
        .map(|cdn| {
            let sc = scenario.clone();
            let cfg = configure(cdn);
            std::thread::spawn(move || run_agent(addr, &sc, &cfg))
        })
        .collect();
    assert!(
        server.wait_for_agents(n, Duration::from_secs(10)),
        "agents failed to connect"
    );
    let live: Vec<DriverRound> = (0..plan.rounds.len() as u64)
        .map(|r| server.run_round(r))
        .collect();
    server.shutdown();
    for a in agents {
        a.join()
            .expect("agent thread panicked")
            .expect("agent transport error");
    }
    live
}

/// A driver's journal as the analytics tools compare it: wall-clock
/// fields zeroed, the daemon's connection lifecycle (which the
/// in-process driver has none of) dropped.
fn comparable_journal(journal: &Receiver<Event>) -> Vec<Event> {
    let mut events: Vec<Event> = journal.try_iter().collect();
    events.retain(|e| !e.kind().starts_with("conn_"));
    events.iter_mut().for_each(Event::zero_wall_clock);
    events
}

#[test]
fn daemon_decisions_match_the_reference_driver_round_for_round() {
    let scenario = Arc::new(small_scenario(90217));
    let plan = SoakPlan::ladder(scenario.fleet.cdns.len() as u32);
    let (reference_probe, reference_journal) = MemoryProbe::channel();
    let reference = run_reference(
        &scenario,
        Design::Marketplace,
        CpPolicy::balanced(),
        plan.clone(),
        Arc::new(reference_probe),
    );
    let expected: Vec<RoundResolution> = vec![
        RoundResolution::Fresh,
        RoundResolution::Degraded,
        RoundResolution::Degraded,
        RoundResolution::Degraded,
        RoundResolution::Degraded,
        RoundResolution::Fresh,
        RoundResolution::Degraded,
        RoundResolution::Degraded,
        RoundResolution::Fallback,
        RoundResolution::Fallback,
        RoundResolution::Fresh,
    ];
    assert_eq!(
        reference.iter().map(|r| r.resolution).collect::<Vec<_>>(),
        expected,
        "the reference driver should walk the scripted ladder"
    );

    let (live_probe, live_journal) = MemoryProbe::channel();
    let live = run_live(&scenario, &plan, Arc::new(live_probe), |cdn| AgentConfig {
        silent_rounds: plan.silent_rounds_for(cdn as u32),
        ..AgentConfig::new(cdn as u32, Design::Marketplace)
    });
    assert_eq!(
        live, reference,
        "daemon decisions diverged from the reference"
    );
    assert_eq!(
        comparable_journal(&live_journal),
        comparable_journal(&reference_journal),
        "daemon journal diverged from the reference"
    );
}

#[test]
fn a_disconnected_agent_is_excluded_and_its_breaker_opens() {
    let scenario = Arc::new(small_scenario(3141));
    let n = scenario.fleet.cdns.len();
    let mut server = ExchangeServer::start(
        "127.0.0.1:0",
        scenario.clone(),
        Design::Marketplace,
        CpPolicy::balanced(),
        vdx_obs::probe::noop(),
        ServerOptions {
            deadline: Duration::from_millis(1_500),
            breaker: BreakerConfig {
                trip_after: 1,
                cooldown_rounds: 10,
            },
            ..ServerOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let agents: Vec<_> = (0..n)
        .map(|cdn| {
            let sc = scenario.clone();
            let cfg = AgentConfig {
                // CDN 0 hangs up right after answering round 0.
                disconnect_after: (cdn == 0).then_some(0),
                ..AgentConfig::new(cdn as u32, Design::Marketplace)
            };
            std::thread::spawn(move || run_agent(addr, &sc, &cfg))
        })
        .collect();
    assert!(server.wait_for_agents(n, Duration::from_secs(10)));

    let r0 = server.run_round(0);
    assert_eq!(r0.resolution, RoundResolution::Fresh);

    // Give the reader thread a moment to notice the hangup so round 1
    // sees a dead slot rather than waiting out the deadline.
    std::thread::sleep(Duration::from_millis(400));
    let r1 = server.run_round(1);
    assert_eq!(r1.resolution, RoundResolution::Degraded);
    assert!(
        r1.picks.iter().all(|&(cdn, _)| cdn != 0),
        "a disconnected CDN must not win any group"
    );
    assert_eq!(server.breaker(0).state(), HealthState::Open);

    // Round 2: the breaker is open, CDN 0 is not even consulted.
    let r2 = server.run_round(2);
    assert_eq!(r2.resolution, RoundResolution::Degraded);
    assert!(r2.picks.iter().all(|&(cdn, _)| cdn != 0));

    server.shutdown();
    for a in agents {
        a.join()
            .expect("agent thread panicked")
            .expect("agent transport error");
    }
}
