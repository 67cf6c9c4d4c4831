//! Crash-recovery integration: a daemon restarted on its WAL resumes
//! mid-campaign and the combined decision sequence still equals the
//! transport-free reference driver's (DESIGN.md §15).
//!
//! The process-level version of this — SIGKILL at seeded round phases,
//! torn-tail corruption, byte-identical parity — is the `repro chaos`
//! harness in `vdx-sim`; these tests exercise the same recovery path
//! in-process where thread scheduling, not process death, is the only
//! nondeterminism.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use vdx_broker::CpPolicy;
use vdx_core::wal::replay;
use vdx_core::{Design, DriverRound, ExchangeDriver, Wal, WalRecord};
use vdx_exchanged::{run_agent, AgentConfig, ExchangeServer, ServerOptions};
use vdx_obs::{Event, MemoryProbe};
use vdx_sim::soak::{run_reference, SoakPlan};
use vdx_sim::{Scenario, ScenarioConfig};

fn small_scenario(seed: u64) -> Scenario {
    Scenario::build(ScenarioConfig::at_scale(true, Some(seed)))
}

fn options_for(plan: &SoakPlan, wal: PathBuf) -> ServerOptions {
    ServerOptions {
        wal: Some(wal),
        ..ServerOptions::for_plan(plan)
    }
}

fn temp_wal(name: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("vdx-recovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn a_restarted_daemon_resumes_its_campaign_and_matches_the_reference() {
    let scenario = Arc::new(small_scenario(90217));
    let n = scenario.fleet.cdns.len();
    let plan = SoakPlan::ladder(n as u32);
    let rounds = plan.rounds.len() as u64;
    let wal_path = temp_wal("resume");
    let reference = run_reference(
        &scenario,
        Design::Marketplace,
        CpPolicy::balanced(),
        plan.clone(),
        vdx_obs::probe::noop(),
    );

    // Phase 1: run the first 6 rounds, then stop — as a crash would,
    // except the settled rounds are already durable either way.
    let server = ExchangeServer::start(
        "127.0.0.1:0",
        scenario.clone(),
        Design::Marketplace,
        CpPolicy::balanced(),
        vdx_obs::probe::noop(),
        options_for(&plan, wal_path.clone()),
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    // One agent per CDN, configured to survive the restart: bounded
    // backoff keeps them probing the address until the second daemon
    // binds it again, and the scripted disconnect after the final round
    // ends the run without burning the retry budget.
    let agents: Vec<_> = (0..n)
        .map(|cdn| {
            let sc = scenario.clone();
            let cfg = AgentConfig {
                silent_rounds: plan.silent_rounds_for(cdn as u32),
                disconnect_after: Some(rounds - 1),
                max_retries: 40,
                retry_base_ms: 25,
                retry_cap_ms: 250,
                ..AgentConfig::new(cdn as u32, Design::Marketplace)
            };
            std::thread::spawn(move || run_agent(addr, &sc, &cfg))
        })
        .collect();
    let mut server = server;
    assert!(server.wait_for_agents(n, Duration::from_secs(10)));
    assert_eq!(server.next_round(), 0, "fresh WAL starts at round 0");
    let mut decisions: Vec<DriverRound> = (0..6).map(|r| server.run_round(r)).collect();
    server.shutdown();

    // Phase 2: a new daemon on the same WAL and the same address. It
    // must report rounds 0..6 as recovered (not re-run them) and resume
    // at round 6; the waiting agents reconnect with HelloResume.
    let (probe, journal) = MemoryProbe::channel();
    let mut server = ExchangeServer::start(
        addr,
        scenario.clone(),
        Design::Marketplace,
        CpPolicy::balanced(),
        Arc::new(probe),
        options_for(&plan, wal_path.clone()),
    )
    .expect("rebind after restart");
    assert_eq!(server.next_round(), 6, "resume after the last settlement");
    assert_eq!(
        server.recovered_rounds(),
        &reference[..6],
        "recovered rounds must equal the reference prefix"
    );
    let recovery_events: Vec<Event> = journal
        .try_iter()
        .filter(|e| e.kind().starts_with("recovery_"))
        .collect();
    assert!(
        matches!(
            recovery_events.as_slice(),
            [
                // 6 rounds of open, close, fresh bids, breakers and
                // settlement, plus round 3's checkpoint.
                Event::RecoveryStarted {
                    records: 99,
                    truncated_bytes: 0,
                },
                Event::RecoveryComplete {
                    next_round: 6,
                    rounds_recovered: 6,
                    rounds_voided: 0,
                },
            ]
        ),
        "clean shutdown: started + complete, nothing voided: {recovery_events:?}"
    );
    assert!(
        server.wait_for_agents(n, Duration::from_secs(15)),
        "agents failed to reconnect to the restarted daemon"
    );
    decisions.extend((6..rounds).map(|r| server.run_round(r)));
    server.shutdown();

    assert_eq!(
        decisions, reference,
        "recovered + resumed decisions diverged from the uninterrupted reference"
    );
    let mut reconnected = 0u64;
    for a in agents {
        let report = a
            .join()
            .expect("agent thread panicked")
            .expect("agent transport error");
        reconnected += report.reconnects;
    }
    assert!(
        reconnected >= n as u64,
        "every agent should have re-established its session at least once"
    );
    let _ = std::fs::remove_file(&wal_path);
}

#[test]
fn an_interrupted_round_is_voided_and_rerun_from_recovered_state() {
    let scenario = Arc::new(small_scenario(90217));
    let n = scenario.fleet.cdns.len();
    let plan = SoakPlan::ladder(n as u32);
    let wal_path = temp_wal("voided");
    let reference = run_reference(
        &scenario,
        Design::Marketplace,
        CpPolicy::balanced(),
        plan.clone(),
        vdx_obs::probe::noop(),
    );

    // Forge the crash: settle rounds 0..2 through a real daemon, then
    // append the torn attempt of round 2 — opened, bids staged, but no
    // settlement fsynced — exactly what a kill between AnnounceOpen and
    // the commit point leaves behind.
    let server = ExchangeServer::start(
        "127.0.0.1:0",
        scenario.clone(),
        Design::Marketplace,
        CpPolicy::balanced(),
        vdx_obs::probe::noop(),
        options_for(&plan, wal_path.clone()),
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let agents: Vec<_> = (0..n)
        .map(|cdn| {
            let sc = scenario.clone();
            let cfg = AgentConfig {
                silent_rounds: plan.silent_rounds_for(cdn as u32),
                disconnect_after: Some(1),
                ..AgentConfig::new(cdn as u32, Design::Marketplace)
            };
            std::thread::spawn(move || run_agent(addr, &sc, &cfg))
        })
        .collect();
    let mut server = server;
    assert!(server.wait_for_agents(n, Duration::from_secs(10)));
    let r0 = server.run_round(0);
    let r1 = server.run_round(1);
    assert_eq!(&[r0, r1][..], &reference[..2]);
    server.shutdown();
    for a in agents {
        let _ = a.join().expect("agent thread panicked");
    }
    {
        let mut open = Wal::open(&wal_path).expect("reopen wal");
        assert!(open.records.iter().any(|r| matches!(
            r,
            WalRecord::Settlement(dr) if dr.round == 1
        )));
        open.wal
            .append(&WalRecord::AnnounceOpen { round: 2 })
            .expect("stage the torn attempt");
        open.wal
            .append(&WalRecord::AnnounceClose {
                round: 2,
                answered: 1,
            })
            .expect("stage the torn attempt");
        open.wal.sync().expect("sync the torn attempt");
    }

    // Recovery must void round 2 and schedule it to run again.
    let (probe, journal) = MemoryProbe::channel();
    let server = ExchangeServer::start(
        "127.0.0.1:0",
        scenario.clone(),
        Design::Marketplace,
        CpPolicy::balanced(),
        Arc::new(probe),
        options_for(&plan, wal_path.clone()),
    )
    .expect("bind loopback");
    assert_eq!(server.next_round(), 2, "the voided round is re-run");
    assert_eq!(server.recovered_rounds(), &reference[..2]);
    let recovery_events: Vec<Event> = journal
        .try_iter()
        .filter(|e| e.kind().starts_with("recovery_"))
        .collect();
    assert!(
        matches!(
            recovery_events.as_slice(),
            [
                // Rounds 0 and 1 as the daemon logged them, plus the torn
                // attempt's two records.
                Event::RecoveryStarted {
                    records: 35,
                    truncated_bytes: 0,
                },
                Event::RecoveryRoundVoided { round: 2 },
                Event::RecoveryComplete {
                    next_round: 2,
                    rounds_recovered: 2,
                    rounds_voided: 1,
                },
            ]
        ),
        "the torn attempt must be journaled as voided: {recovery_events:?}"
    );
    server.shutdown();

    // And the durable log agrees: the batch reader sees the records the
    // restart streamed, and replaying them yields rounds 0..2 committed,
    // round 2's second attempt still pending.
    let (records, _) = vdx_core::wal::read_records(&wal_path).expect("read wal");
    assert_eq!(records.len(), 35);
    let recovery = replay(records, n);
    assert_eq!(recovery.rounds, &reference[..2]);
    assert_eq!(recovery.voided, Some(2));
    let _ = std::fs::remove_file(&wal_path);
}
