//! The CDN side of the daemon: connect, identify, bid, learn, survive.
//!
//! An agent is deliberately thin. It connects, sends
//! `Hello { node_id: cdn, role: 1 }`, then answers every round-stamped
//! Share with an Announce built by a **fresh** [`BidEngine`] — the same
//! per-round re-instantiation the fault campaign and the soak reference
//! driver use, so bid prices cannot drift between drivers. Accepts are
//! tallied into the [`AgentReport`].
//!
//! ## Reconnection and resumption
//!
//! A dropped connection is not the end of the run: the agent retries
//! with bounded exponential backoff ([`AgentConfig::max_retries`],
//! doubling from [`AgentConfig::retry_base_ms`] up to
//! [`AgentConfig::retry_cap_ms`]), journaling a `conn_retry` event per
//! attempt. Once the agent has seen a round settle (an Accept carries
//! the round it settles), reconnects use
//! [`Message::HelloResume`] with that round, so the daemon's slot
//! discards any Announce the agent might replay for an already-settled
//! round — the double-bid defence of DESIGN.md §15. The backoff counter
//! resets after every successful handshake, so a long-lived agent
//! survives any number of *separate* daemon restarts. One failure is
//! not retried: a message its own framing layer refused to send (an
//! Announce over the frame limit) would be refused again on every
//! reconnect, so the run ends with that error at once.
//!
//! The agent computes bids from its own copy of the scenario (built
//! from the shared seed), standing in for the CDN's private view of its
//! clusters and costs. Fault hooks (`silent_rounds`,
//! `disconnect_after`) exist so soak tests can script misbehaviour.

use std::net::ToSocketAddrs;

use vdx_core::{BidEngine, Design};
use vdx_geo::CityId;
use vdx_obs::{Event, Probe, Stopwatch};
use vdx_proto::{Connection, Message, TransportError};
use vdx_sim::soak::round_engine;
use vdx_sim::Scenario;

/// What one agent run should do.
#[derive(Debug, Clone)]
pub struct AgentConfig {
    /// The CDN this agent bids for.
    pub cdn: u32,
    /// The design whose Table 2 row shapes the announcements.
    pub design: Design,
    /// Rounds on which to receive the Share but send no Announce
    /// (scripted deadline misses for soak tests).
    pub silent_rounds: Vec<u64>,
    /// Close the connection after answering this round (scripted
    /// disconnect for soak tests). `None` runs until server EOF.
    pub disconnect_after: Option<u64>,
    /// Consecutive failed connection attempts tolerated before giving
    /// up. `0` restores the exit-on-drop behaviour (a clean EOF ends
    /// the run immediately); the counter resets after each successful
    /// handshake.
    pub max_retries: u32,
    /// Backoff before the first retry, milliseconds; each further
    /// consecutive failure doubles it.
    pub retry_base_ms: u64,
    /// Ceiling on the doubled backoff, milliseconds.
    pub retry_cap_ms: u64,
}

impl AgentConfig {
    /// A well-behaved agent for `cdn` under `design`. No reconnection
    /// by default: tests and drills that script faults want the old
    /// one-session semantics unless they opt in.
    pub fn new(cdn: u32, design: Design) -> AgentConfig {
        AgentConfig {
            cdn,
            design,
            silent_rounds: Vec::new(),
            disconnect_after: None,
            max_retries: 0,
            retry_base_ms: 50,
            retry_cap_ms: 1_000,
        }
    }
}

/// What an agent run did, for logs and test assertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AgentReport {
    /// Rounds answered with a fresh Announce.
    pub rounds_answered: u64,
    /// Rounds deliberately left silent (`AgentConfig::silent_rounds`).
    pub rounds_silent: u64,
    /// Accept messages received.
    pub accepts_received: u64,
    /// Individual bids echoed back as accepted.
    pub bids_accepted: u64,
    /// Sessions re-established after a drop (not counting the first).
    pub reconnects: u64,
}

/// The exponential backoff before retry `attempt` (1-based): the base
/// doubled per prior failure, saturating at the cap.
fn backoff_ms(cfg: &AgentConfig, attempt: u32) -> u64 {
    let doubled = cfg
        .retry_base_ms
        .saturating_mul(1u64 << attempt.saturating_sub(1).min(32));
    doubled.min(cfg.retry_cap_ms)
}

/// Runs one agent to completion: until the scripted disconnect, or —
/// once `max_retries` consecutive connection attempts have failed —
/// until server EOF (`Ok`) or a transport error (`Err`).
/// See [`run_agent_probed`] for the journaled variant.
pub fn run_agent(
    addr: impl ToSocketAddrs,
    scenario: &Scenario,
    cfg: &AgentConfig,
) -> Result<AgentReport, TransportError> {
    run_agent_probed(addr, scenario, cfg, vdx_obs::probe::noop().as_ref())
}

/// [`run_agent`] with an observability probe: each reconnection attempt
/// emits [`Event::ConnRetry`] before its backoff sleep.
pub fn run_agent_probed(
    addr: impl ToSocketAddrs,
    scenario: &Scenario,
    cfg: &AgentConfig,
    probe: &dyn Probe,
) -> Result<AgentReport, TransportError> {
    let clock = Stopwatch::start();
    let mut report = AgentReport::default();
    // Last round this agent saw settle, learned from Accept round
    // stamps. `None` until the first Accept: such an agent has nothing
    // to resume and reconnects with a plain Hello.
    let mut last_settled: Option<u64> = None;
    // Consecutive failures (connect, handshake, or a dropped session).
    let mut attempt: u32 = 0;
    // Why the last *session* ended: `None` is a clean EOF. Connect
    // failures after a clean EOF do not overwrite it — a daemon that
    // hung up and stayed down is a completed run, not a transport
    // error — but until a first session exists they are the verdict.
    let mut failure: Option<TransportError> = None;
    let mut had_session = false;
    loop {
        match open_session(&addr, cfg, last_settled) {
            Ok(mut conn) => {
                if attempt > 0 {
                    report.reconnects += 1;
                }
                attempt = 0;
                had_session = true;
                match run_session(&mut conn, scenario, cfg, &mut report, &mut last_settled) {
                    SessionEnd::ScriptedExit => return Ok(report),
                    SessionEnd::Eof => failure = None,
                    // The framing layer refused the message before a
                    // byte left (`Connection::send`): it will refuse it
                    // identically on every reconnect.
                    SessionEnd::Failed(TransportError::Io(e))
                        if e.kind() == std::io::ErrorKind::InvalidInput =>
                    {
                        return Err(TransportError::Io(e));
                    }
                    SessionEnd::Failed(e) => failure = Some(e),
                }
            }
            Err(e) => {
                if !had_session || failure.is_some() {
                    failure = Some(e);
                }
            }
        }
        attempt += 1;
        if attempt > cfg.max_retries {
            // Out of retries: a run that last ended in a clean EOF
            // completed (the daemon hung up); a transport error did not.
            return match failure {
                None => Ok(report),
                Some(e) => Err(e),
            };
        }
        let backoff = backoff_ms(cfg, attempt);
        if probe.enabled() {
            probe.emit(Event::ConnRetry {
                at_ms: clock.elapsed_ms(),
                cdn: cfg.cdn,
                attempt,
                backoff_ms: backoff,
            });
        }
        std::thread::sleep(std::time::Duration::from_millis(backoff));
    }
}

/// Connects and handshakes: `Hello` for a first session, `HelloResume`
/// carrying the last settled round once there is one to resume from.
fn open_session(
    addr: impl ToSocketAddrs,
    cfg: &AgentConfig,
    last_settled: Option<u64>,
) -> Result<Connection, TransportError> {
    let mut conn = Connection::connect(addr)?;
    let hello = match last_settled {
        None => Message::Hello {
            node_id: cfg.cdn as u64,
            role: 1,
        },
        Some(last_round) => Message::HelloResume {
            node_id: cfg.cdn as u64,
            role: 1,
            last_round,
        },
    };
    conn.send(0, &hello)?;
    Ok(conn)
}

/// How one session over one connection ended.
enum SessionEnd {
    /// The scripted `disconnect_after` fired: the whole run is over.
    ScriptedExit,
    /// The server closed the stream cleanly.
    Eof,
    /// The transport failed mid-session.
    Failed(TransportError),
}

/// Pumps one established session: bid on Shares, tally Accepts, track
/// the last settled round for a future resume.
fn run_session(
    conn: &mut Connection,
    scenario: &Scenario,
    cfg: &AgentConfig,
    report: &mut AgentReport,
    last_settled: &mut Option<u64>,
) -> SessionEnd {
    loop {
        match conn.recv() {
            Ok(Some((round, Message::Share(shares)))) => {
                if cfg.silent_rounds.contains(&round) {
                    report.rounds_silent += 1;
                    continue;
                }
                let engine: BidEngine = round_engine(scenario, cfg.design, cfg.cdn);
                let bids = engine.build_bids(&shares, &scenario.fleet, &|a: CityId, b: CityId| {
                    scenario.score_of(a, b)
                });
                if let Err(e) = conn.send(round, &Message::Announce(bids)) {
                    return SessionEnd::Failed(e.into());
                }
                report.rounds_answered += 1;
                if cfg.disconnect_after == Some(round) {
                    let _ = conn.shutdown();
                    return SessionEnd::ScriptedExit;
                }
            }
            Ok(Some((round, Message::Accept(entries)))) => {
                report.accepts_received += 1;
                report.bids_accepted += entries.iter().filter(|e| e.accepted).count() as u64;
                // An Accept means the daemon committed this round; it
                // is the high-water mark a resume must not re-bid below.
                *last_settled = Some((*last_settled).map_or(round, |r| r.max(round)));
            }
            // Out-of-protocol messages are ignored; the server is the
            // arbiter of what matters.
            Ok(Some(_)) => {}
            Ok(None) => return SessionEnd::Eof,
            Err(e) => return SessionEnd::Failed(e),
        }
    }
}
