//! The networked workloads (`daemon`, `daemon-wal`): an in-process
//! `ExchangeServer`, one agent thread per CDN over loopback TCP, and — in
//! the traced run — an instrumented copy of the agent's session loop plus
//! replays of every layer a round passes through.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use vdx_broker::{
    optimize_probed_ctx, BreakerConfig, BrokerProblem, CircuitBreaker, CpPolicy, OptimizeContext,
    OptimizeMode, StaleBidCache,
};
use vdx_core::wal::{read_records, replay};
use vdx_core::{
    accept_entries, assemble_options, picks_of, resolve_at_deadline, BidSource, DeadlineResolution,
    Design, DriverRound, ExchangeDriver, RoundResolution, Wal, WalRecord,
};
use vdx_exchanged::{run_agent, AgentConfig, ExchangeServer, ServerOptions};
use vdx_geo::CityId;
use vdx_obs::{NoopProbe, Stopwatch};
use vdx_proto::{crc32, Bid, Connection, Message, TransportError};
use vdx_sim::soak::{round_engine, run_reference, shares_of, SoakPlan};
use vdx_sim::Scenario;

use crate::run::{Instance, Live};
use crate::sim::{self, Scale};
use crate::spans::{Layers, SpanLog};
use crate::stats;

const DESIGN: Design = Design::Marketplace;
/// Untimed rounds before the timed loop: round 0 solves cold, the rest let
/// connections, allocator and caches settle.
const WARMUP_ROUNDS: u64 = 20;
/// Rounds compared against the transport-free reference driver.
const PARITY_ROUNDS: usize = 16;
/// The wall-clock Announce deadline; no round should come near it.
const DEADLINE: Duration = Duration::from_secs(1);
/// Rounds a `daemon-wal` instance logs, warm-up included, before its timed
/// operations — restarts that recover from the finished log — begin. The
/// WAL is never compacted and recovery reads all of it, so a fixed length
/// makes recovery time and memory properties of the code. A multiple of
/// the checkpoint interval, so bytes per round is an exact count.
const WAL_ROUNDS: u64 = 256;
/// Frame header, round stamp and CRC trailer around every message body.
const FRAME_OVERHEAD: usize = 8 + 8 + 4;

fn ms(us: f64) -> f64 {
    us / 1_000.0
}

fn bids_of(scenario: &Scenario, cdn: u32) -> Vec<Bid> {
    round_engine(scenario, DESIGN, cdn).build_bids(
        &shares_of(scenario),
        &scenario.fleet,
        &|a: CityId, b: CityId| scenario.score_of(a, b),
    )
}

/// Bids one round of the scenario `config` builds carries, all CDNs
/// together: what the wire bytes, the WAL bytes and the agents' work follow.
pub fn bids_per_round(config: &vdx_sim::ScenarioConfig) -> usize {
    let scenario = Scenario::build(config.clone());
    (0..scenario.fleet.cdns.len() as u32)
        .map(|cdn| bids_of(&scenario, cdn).len())
        .sum()
}

fn wire_len(msg: &Message) -> usize {
    msg.encode().len() + FRAME_OVERHEAD
}

/// What an instrumented agent saw, per round it answered.
#[derive(Debug, Default)]
struct AgentTrace {
    spans: Option<SpanLog>,
    /// Share received → Announce sent, microseconds, indexed by round.
    turnaround_us: Vec<f64>,
    /// `round_engine` + `build_bids`, microseconds, indexed by round.
    build_us: Vec<f64>,
    /// Wire bytes of the first Share, Announce and Accept.
    share_bytes: usize,
    announce_bytes: usize,
    accept_bytes: usize,
    /// The first round's bids, to tie the replay inputs to what was sent.
    first_bids: Vec<Bid>,
    rounds_answered: u64,
}

/// `vdx_exchanged::run_agent`'s session loop — recv, `round_engine` +
/// `build_bids`, send — with a span around each step. One session, no
/// reconnects, no scripted faults: what the well-behaved agent does.
fn traced_agent(
    addr: SocketAddr,
    scenario: &Scenario,
    cdn: u32,
    mut log: SpanLog,
) -> Result<AgentTrace, TransportError> {
    let mut conn = Connection::connect(addr)?;
    conn.send(
        0,
        &Message::Hello {
            node_id: u64::from(cdn),
            role: 1,
        },
    )?;
    let mut trace = AgentTrace::default();
    loop {
        match conn.recv()? {
            Some((round, Message::Share(shares))) => {
                let received = log.now_us();
                let (bids, build_us) = log.time("core.build_bids", "agent", round, || {
                    round_engine(scenario, DESIGN, cdn).build_bids(
                        &shares,
                        &scenario.fleet,
                        &|a: CityId, b: CityId| scenario.score_of(a, b),
                    )
                });
                let announce = Message::Announce(bids);
                let (sent, _) = log.time("proto.announce_send", "agent", round, || {
                    conn.send(round, &announce)
                });
                sent?;
                let done = log.now_us();
                log.record("exchanged.agent_turnaround", "agent", round, received, done);
                trace.turnaround_us.push((done - received) as f64);
                trace.build_us.push(build_us);
                if trace.rounds_answered == 0 {
                    trace.share_bytes = wire_len(&Message::Share(shares));
                    trace.announce_bytes = wire_len(&announce);
                    if let Message::Announce(bids) = announce {
                        trace.first_bids = bids;
                    }
                }
                trace.rounds_answered += 1;
            }
            Some((_, accept @ Message::Accept(_))) => {
                if trace.accept_bytes == 0 {
                    trace.accept_bytes = wire_len(&accept);
                }
            }
            Some(_) => {}
            None => {
                trace.spans = Some(log);
                return Ok(trace);
            }
        }
    }
}

/// The messages of one round, built through the public functions the
/// agents and the server call. The scenario is static, so every round
/// carries the same ones; the traced run checks them against what the
/// agents saw on the wire.
struct Wire {
    share_msg: Message,
    bids_per_cdn: Vec<Vec<Bid>>,
    announce_msgs: Vec<Message>,
    accept_msgs: Vec<Message>,
    /// The context that solved the round: warm for every later one.
    ctx: OptimizeContext,
}

impl Wire {
    fn new(scenario: &Scenario) -> Wire {
        let n = scenario.fleet.cdns.len();
        let bids_per_cdn: Vec<Vec<Bid>> = (0..n as u32).map(|c| bids_of(scenario, c)).collect();
        let problem = BrokerProblem {
            groups: scenario.groups.clone(),
            options: assemble_options(scenario.groups.len(), &bids_per_cdn),
        };
        let mut ctx = OptimizeContext::new();
        let assignment = optimize_probed_ctx(
            &problem,
            &CpPolicy::balanced(),
            &OptimizeMode::Heuristic,
            0,
            &NoopProbe,
            &mut ctx,
        );
        Wire {
            share_msg: Message::Share(shares_of(scenario)),
            announce_msgs: bids_per_cdn
                .iter()
                .cloned()
                .map(Message::Announce)
                .collect(),
            accept_msgs: (0..n)
                .map(|c| {
                    Message::Accept(accept_entries(&problem, &assignment, c, &bids_per_cdn[c]))
                })
                .collect(),
            bids_per_cdn,
            ctx,
        }
    }

    /// Framed bytes a round puts on the wire: the Share to every CDN, each
    /// CDN's Announce, each CDN's Accept.
    fn bytes_per_round(&self) -> usize {
        wire_len(&self.share_msg) * self.bids_per_cdn.len()
            + self.announce_msgs.iter().map(wire_len).sum::<usize>()
            + self.accept_msgs.iter().map(wire_len).sum::<usize>()
    }
}

/// The inputs every round of an instance shares and the harness-owned
/// state the replays run against.
struct Replay {
    wire: Wire,
    /// The Share as framed bytes, for the checksum replay.
    share_wire: Vec<u8>,
    cache: StaleBidCache<Vec<Bid>>,
    breakers: Vec<CircuitBreaker>,
    /// A loopback pair of the harness's own, for the socket hop alone.
    loopback: (Connection, Connection),
    /// A scratch log the WAL replays append to (`daemon-wal` only).
    wal: Option<Wal>,
}

fn loopback_pair() -> std::io::Result<(Connection, Connection)> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
    let client = Connection::connect(listener.local_addr()?)?;
    let (stream, _) = listener.accept()?;
    Ok((client, Connection::new(stream)?))
}

impl Replay {
    fn new(scenario: &Scenario, scratch_wal: Option<&Path>) -> Replay {
        let n = scenario.fleet.cdns.len();
        let wire = Wire::new(scenario);
        let mut payload = 0u64.to_be_bytes().to_vec();
        payload.extend_from_slice(&wire.share_msg.encode());
        Replay {
            share_wire: vdx_proto::frame::encode(&payload).to_vec(),
            wire,
            cache: StaleBidCache::new(n, ServerOptions::default().stale_ttl_rounds),
            breakers: (0..n)
                .map(|_| CircuitBreaker::new(BreakerConfig::default()))
                .collect(),
            loopback: loopback_pair().expect("loopback pair"),
            wal: scratch_wal.map(|p| Wal::open(p).expect("open scratch WAL").wal),
        }
    }

    /// Re-invokes every server-side layer of one round on the round's
    /// inputs; returns the microseconds they took in total.
    fn round(
        &mut self,
        scenario: &Scenario,
        live: &DriverRound,
        log: &mut SpanLog,
        layers: &mut Layers,
        checks: &mut Vec<String>,
    ) -> f64 {
        let round = live.round;
        let n = self.wire.bids_per_cdn.len();
        let groups = scenario.groups.len();
        let policy = CpPolicy::balanced();
        let mut total_us = 0.0;
        // `layer` also adds to the server-side total; what the agents do
        // (Share decode, Announce encode, Accept decode) is pushed without.
        let mut layer = |layers: &mut Layers, name: &'static str, us: f64| {
            layers.push(name, us);
            total_us += us;
        };

        let (_, us) = log.time("sim.shares_of", "replay", round, || shares_of(scenario));
        layer(layers, "sim.shares_of_us", us);
        let (body, us) = log.time("proto.share_encode", "replay", round, || {
            self.wire.share_msg.encode()
        });
        // The server encodes the Share once per CDN it routes to.
        layer(layers, "proto.share_encode_us", us * n as f64);
        let (_, us) = log.time("proto.share_decode", "replay", round, || {
            Message::decode(&body)
        });
        layers.push("proto.share_decode_us", us);
        let (_, us) = log.time("proto.crc32", "replay", round, || crc32(&self.share_wire));
        layers.push(
            "proto.crc32_mb_per_s",
            self.share_wire.len() as f64 / us.max(1.0),
        );
        let (hop, us) = log.time("proto.loopback_send_recv", "replay", round, || {
            self.loopback.0.send(round, &self.wire.share_msg)?;
            self.loopback.1.recv()
        });
        layers.push("proto.loopback_send_recv_us", us);
        if !matches!(hop, Ok(Some((r, _))) if r == round) {
            checks.push(format!("round {round}: the loopback hop lost the Share"));
        }

        let mut encode_us = 0.0;
        let mut decode_us = 0.0;
        for msg in &self.wire.announce_msgs {
            let (body, us) = log.time("proto.announce_encode", "replay", round, || msg.encode());
            encode_us += us;
            let (_, us) = log.time("proto.announce_decode", "replay", round, || {
                Message::decode(&body)
            });
            decode_us += us;
        }
        layers.push("proto.announce_encode_us", encode_us);
        layer(layers, "proto.announce_decode_us", decode_us);

        let sources: Vec<BidSource> = self
            .wire
            .bids_per_cdn
            .iter()
            .cloned()
            .map(BidSource::Fresh)
            .collect();
        let (resolution, us) = log.time("core.resolve", "replay", round, || {
            resolve_at_deadline(
                round,
                DESIGN,
                sources,
                groups,
                &self.cache,
                round,
                DEADLINE.as_millis() as u64,
                &NoopProbe,
            )
        });
        layer(layers, "core.resolve_us", us);
        let bids_per_cdn = match resolution {
            DeadlineResolution::Proceed(bids, report) if report.is_clean() => bids,
            _ => {
                checks.push(format!(
                    "round {round}: the resolve replay did not proceed clean"
                ));
                return total_us;
            }
        };
        for (cdn, bids) in bids_per_cdn.iter().enumerate() {
            self.cache.store(cdn, round, bids.clone());
        }
        let (cloned, us) = log.time("broker.groups_clone", "replay", round, || {
            scenario.groups.clone()
        });
        layer(layers, "broker.groups_clone_us", us);
        let (options, us) = log.time("core.assemble_options", "replay", round, || {
            assemble_options(groups, &bids_per_cdn)
        });
        layer(layers, "core.assemble_options_us", us);
        let problem = BrokerProblem {
            groups: cloned,
            options,
        };
        let (assignment, us) = log.time("broker.optimize_warm", "replay", round, || {
            optimize_probed_ctx(
                &problem,
                &policy,
                &OptimizeMode::Heuristic,
                round,
                &NoopProbe,
                &mut self.wire.ctx,
            )
        });
        layer(layers, "broker.optimize_warm_us", us);
        let (picks, us) = log.time("core.picks_of", "replay", round, || {
            picks_of(&problem, &assignment)
        });
        layer(layers, "core.picks_of_us", us);
        // The replay is the live round's only if it decides the same.
        if picks != live.picks || assignment.objective.to_bits() != live.objective.to_bits() {
            checks.push(format!(
                "round {round}: the replay decides differently from the daemon"
            ));
        }

        let mut entries_us = 0.0;
        let mut encode_us = 0.0;
        let mut decode_us = 0.0;
        for (cdn, bids) in bids_per_cdn.iter().enumerate() {
            let (entries, us) = log.time("core.accept_entries", "replay", round, || {
                accept_entries(&problem, &assignment, cdn, bids)
            });
            entries_us += us;
            let msg = Message::Accept(entries);
            let (body, us) = log.time("proto.accept_encode", "replay", round, || msg.encode());
            encode_us += us;
            let (_, us) = log.time("proto.accept_decode", "replay", round, || {
                Message::decode(&body)
            });
            decode_us += us;
        }
        layer(layers, "core.accept_entries_us", entries_us);
        layer(layers, "proto.accept_encode_us", encode_us);
        layers.push("proto.accept_decode_us", decode_us);

        if self.wal.is_some() {
            total_us += self.wal_round(live, &bids_per_cdn, log, layers);
        }
        total_us
    }

    /// Appends and syncs the records the server writes for one round.
    fn wal_round(
        &mut self,
        live: &DriverRound,
        bids_per_cdn: &[Vec<Bid>],
        log: &mut SpanLog,
        layers: &mut Layers,
    ) -> f64 {
        let wal = self.wal.as_mut().expect("checked by the caller");
        let round = live.round;
        let mut total_us = 0.0;
        let mut records = 0u64;
        let mut append = |name: &'static str, record: WalRecord, log: &mut SpanLog| {
            records += 1;
            let (result, us) = log.time(name, "replay", round, || wal.append(&record));
            result.expect("scratch WAL append");
            us
        };

        let mut round_us = append(
            "core.wal_append_round",
            WalRecord::AnnounceOpen { round },
            log,
        );
        round_us += append(
            "core.wal_append_round",
            WalRecord::AnnounceClose {
                round,
                answered: bids_per_cdn.len() as u32,
            },
            log,
        );
        for (cdn, bids) in bids_per_cdn.iter().enumerate() {
            let record = WalRecord::Bids {
                round,
                cdn: cdn as u32,
                bids: bids.clone(),
            };
            let us = append("core.wal_append_bids", record, log);
            layers.push("core.wal_append_bids_us", us);
            total_us += us;
        }
        for (cdn, breaker) in self.breakers.iter().enumerate() {
            let record = WalRecord::Breaker {
                round,
                cdn: cdn as u32,
                snapshot: breaker.snapshot(),
            };
            round_us += append("core.wal_append_round", record, log);
        }
        round_us += append(
            "core.wal_append_round",
            WalRecord::Settlement(live.clone()),
            log,
        );
        layers.push("core.wal_append_round_us", round_us);
        total_us += round_us;
        let every = ServerOptions::default().checkpoint_every;
        if (round + 1).is_multiple_of(every) {
            let record = WalRecord::Checkpoint {
                next_round: round + 1,
                cache: (0..bids_per_cdn.len())
                    .map(|cdn| self.cache.entry(cdn).map(|(r, b)| (r, b.clone())))
                    .collect(),
                breakers: self.breakers.iter().map(CircuitBreaker::snapshot).collect(),
            };
            let us = append("core.wal_checkpoint", record, log);
            layers.push("core.wal_checkpoint_us", us);
            total_us += us;
        }
        layers.push("core.wal_records_per_round", records as f64);
        let (result, us) = log.time("core.wal_sync", "replay", round, || wal.sync());
        result.expect("scratch WAL sync");
        layers.push("core.wal_sync_us_p50", us);
        total_us + us
    }
}

/// Starts the exchange on a free loopback port; with `wal`, it recovers
/// from that log first and appends to it afterwards.
fn start_server(scenario: &Arc<Scenario>, wal: Option<&Path>) -> ExchangeServer {
    ExchangeServer::start(
        "127.0.0.1:0",
        scenario.clone(),
        DESIGN,
        CpPolicy::balanced(),
        vdx_obs::probe::noop(),
        ServerOptions {
            deadline: DEADLINE,
            wal: wal.map(Path::to_path_buf),
            ..ServerOptions::default()
        },
    )
    .expect("start the exchange on loopback")
}

/// One daemon instance: a two-CDN scenario, the server, one agent thread
/// per CDN, and the rounds driven through them. On `daemon` the timed
/// operation is a round. On `daemon-wal` the instance first logs
/// `WAL_ROUNDS` rounds and stops the server; the timed operation is then a
/// restart that recovers from that log.
pub struct DaemonInstance {
    scenario: Arc<Scenario>,
    /// `None` once shut down.
    server: Option<ExchangeServer>,
    agents: Vec<JoinHandle<Result<AgentTrace, TransportError>>>,
    /// What the agents saw, once they have been joined.
    traces: Vec<AgentTrace>,
    wal: Option<PathBuf>,
    /// The run's first instance: it reports the exact counts and also
    /// reads the WAL back record by record.
    first: bool,
    trace: bool,
    /// Rounds kept for the checks: the warm-up rounds (soak parity), and
    /// with a WAL every later one too (recovery must yield them).
    live: Vec<DriverRound>,
    rounds: u64,
    degraded: u64,
    fallback: u64,
    replay: Option<Replay>,
    /// Wall time of each round after the warm-up, milliseconds.
    round_ms: Vec<f64>,
    /// Server-side replay time of each of those rounds, microseconds.
    replay_us: Vec<f64>,
    shutdown_us: f64,
    inst: Instance,
}

impl DaemonInstance {
    /// Builds the scenario, starts the server, connects one agent per CDN
    /// and runs the warm-up rounds — all timed as the set-up. With `wal`,
    /// the server logs to that (fresh) file, and the instance then fills
    /// the log and stops the server, so that its operations are restarts.
    pub fn setup(
        scenario_seed: u64,
        wal: Option<PathBuf>,
        first: bool,
        trace: bool,
        log: &mut SpanLog,
    ) -> DaemonInstance {
        let config = sim::config(Scale::TwoCdn, scenario_seed);
        let mut inst = Instance::default();
        if trace {
            sim::replay_setup(&config, 0, log, &mut inst.layers);
        }
        let scratch = wal.as_ref().map(|p| p.with_extension("replay.wal"));
        for path in wal.iter().chain(&scratch) {
            let _ = std::fs::remove_file(path);
        }

        let setup = Stopwatch::start();
        let scenario = Arc::new(Scenario::build(config));
        let n = scenario.fleet.cdns.len();
        let (mut server, start_us) = log.time("exchanged.start", "setup", 0, || {
            start_server(&scenario, wal.as_deref())
        });
        let addr = server.local_addr();
        let connect_start = log.now_us();
        // The untraced run uses the real `run_agent`; only its count of
        // answered rounds is kept.
        let agents = (0..n as u32)
            .map(|cdn| {
                let scenario = scenario.clone();
                let log = log.fork();
                std::thread::spawn(move || {
                    if trace {
                        traced_agent(addr, &scenario, cdn, log)
                    } else {
                        run_agent(addr, &scenario, &AgentConfig::new(cdn, DESIGN)).map(|report| {
                            AgentTrace {
                                rounds_answered: report.rounds_answered,
                                ..AgentTrace::default()
                            }
                        })
                    }
                })
            })
            .collect();
        if !server.wait_for_agents(n, Duration::from_secs(5)) {
            inst.checks
                .push(format!("fewer than {n} agents connected within 5 s"));
        }
        let connect_end = log.now_us();
        log.record(
            "exchanged.connect_handshake",
            "setup",
            0,
            connect_start,
            connect_end,
        );
        let live: Vec<DriverRound> = (0..WARMUP_ROUNDS).map(|r| server.run_round(r)).collect();
        inst.setup_s = setup.elapsed_us() as f64 / 1e6;

        if trace {
            inst.layers.push("exchanged.start_ms", ms(start_us));
            inst.layers.push(
                "exchanged.connect_handshake_ms",
                ms((connect_end - connect_start) as f64),
            );
        }
        let mut instance = DaemonInstance {
            replay: trace.then(|| Replay::new(&scenario, scratch.as_deref())),
            scenario,
            server: Some(server),
            agents,
            traces: Vec::new(),
            wal,
            first,
            trace,
            live,
            rounds: WARMUP_ROUNDS,
            degraded: 0,
            fallback: 0,
            round_ms: Vec::new(),
            replay_us: Vec::new(),
            shutdown_us: 0.0,
            inst,
        };
        if instance.wal.is_some() {
            instance.fill_log(log);
        }
        instance
    }

    /// One marketplace round, timed; `false` when it was not `Fresh` or
    /// decided differently from round 0.
    fn round(&mut self, log: &mut SpanLog) -> bool {
        let round = self.rounds;
        let server = self.server.as_mut().expect("running until stopped");
        let (dr, us) = log.time("exchanged.round", "", round, || server.run_round(round));
        self.round_ms.push(ms(us));
        match dr.resolution {
            RoundResolution::Fresh => {}
            RoundResolution::Degraded => self.degraded += 1,
            RoundResolution::Fallback => self.fallback += 1,
        }
        let first = &self.live[0];
        let mut ok = dr.resolution == RoundResolution::Fresh;
        if ok && (dr.picks != first.picks || dr.objective.to_bits() != first.objective.to_bits()) {
            ok = false;
            self.inst
                .checks
                .push(format!("round {round} decides differently from round 0"));
        }
        if let Some(replay) = self.replay.as_mut() {
            let us = replay.round(
                &self.scenario,
                &dr,
                log,
                &mut self.inst.layers,
                &mut self.inst.checks,
            );
            self.replay_us.push(us);
        }
        // Recovery must yield the whole live sequence.
        if self.wal.is_some() {
            self.live.push(dr);
        }
        self.rounds += 1;
        ok
    }

    /// Logs rounds until the WAL holds `WAL_ROUNDS`, then stops the server
    /// and the agents. The rounds are timed one by one but are not the
    /// workload's operation: each waits for an fsync, and so follows the
    /// host's disk (see README, "Why `daemon-wal` times the restart").
    fn fill_log(&mut self, log: &mut SpanLog) {
        while self.rounds < WAL_ROUNDS {
            if !self.round(log) {
                let round = self.rounds - 1;
                self.inst
                    .checks
                    .push(format!("logged round {round} did not complete fresh"));
            }
        }
        self.stop(log);
        let mut sorted = self.round_ms.clone();
        stats::sort(&mut sorted);
        for (name, p) in [
            ("wal_round_ms_p10", 10.0),
            ("wal_round_ms_p50", 50.0),
            ("wal_round_ms_p90", 90.0),
        ] {
            self.inst
                .figures
                .push((name, stats::percentile(&sorted, p), "ms"));
        }
    }

    /// Shuts the server down and joins the agents, each of which must have
    /// answered every round.
    fn stop(&mut self, log: &mut SpanLog) {
        let Some(server) = self.server.take() else {
            return;
        };
        let rounds = self.rounds;
        let (_, us) = log.time("exchanged.shutdown", "", rounds, || server.shutdown());
        self.shutdown_us = us;
        for (cdn, agent) in std::mem::take(&mut self.agents).into_iter().enumerate() {
            match agent.join().expect("agent thread") {
                Ok(trace) => {
                    if trace.rounds_answered != rounds {
                        self.inst.checks.push(format!(
                            "agent {cdn} answered {} of {rounds} rounds",
                            trace.rounds_answered
                        ));
                    }
                    self.traces.push(trace);
                }
                Err(e) => self.inst.checks.push(format!("agent {cdn} failed: {e}")),
            }
        }
    }

    /// One restart on the finished log, timed from `ExchangeServer::start`
    /// to its return; `false` unless it recovers exactly the live rounds
    /// and resumes after the last.
    fn recover(&mut self, log: &mut SpanLog) -> bool {
        let path = self.wal.as_deref().expect("a daemon-wal instance");
        let n = self.scenario.fleet.cdns.len();
        let rounds = self.rounds;
        let rep = self.inst.op_ms.len() as u64;
        let per_round = |us: f64| us / rounds as f64;
        if self.trace {
            let layers = &mut self.inst.layers;
            let (opened, us) = log.time("core.wal_open", "recovery", rep, || Wal::open(path));
            layers.push("core.wal_open_us_per_round", per_round(us));
            if let Ok(opened) = opened {
                let (_, us) = log.time("core.wal_replay", "recovery", rep, || {
                    replay(opened.records, n)
                });
                layers.push("core.wal_replay_us_per_round", per_round(us));
            }
        }
        let (server, us) = log.time("exchanged.recovery", "", rep, || {
            start_server(&self.scenario, Some(path))
        });
        self.inst.op_ms.push(ms(us));
        if self.trace {
            self.inst
                .layers
                .push("exchanged.recovery_us_per_round", per_round(us));
        }
        let ok = server.next_round() == rounds && server.recovered_rounds() == self.live;
        if !ok {
            self.inst.checks.push(format!(
                "restart {rep} recovers {} rounds resuming at {}, the daemon ran {rounds}",
                server.recovered_rounds().len(),
                server.next_round()
            ));
        }
        server.shutdown();
        ok
    }
}

impl Live for DaemonInstance {
    /// A marketplace round on `daemon`, a recovering restart on
    /// `daemon-wal`.
    fn op(&mut self, log: &mut SpanLog) {
        let ok = if self.wal.is_some() {
            self.recover(log)
        } else {
            let ok = self.round(log);
            self.inst
                .op_ms
                .push(*self.round_ms.last().expect("just timed"));
            ok
        };
        if !ok {
            self.inst.failed += 1;
        }
    }

    fn finish(mut self: Box<Self>, log: &mut SpanLog) -> Instance {
        self.stop(log);
        let n = self.scenario.fleet.cdns.len();
        let mut inst = std::mem::take(&mut self.inst);
        let traces = std::mem::take(&mut self.traces);

        let reference = run_reference(
            &self.scenario,
            DESIGN,
            CpPolicy::balanced(),
            SoakPlan::clean(PARITY_ROUNDS),
            vdx_obs::probe::noop(),
        );
        if self.live[..PARITY_ROUNDS] != reference[..] {
            inst.checks.push(format!(
                "the first {PARITY_ROUNDS} rounds differ from the reference driver"
            ));
        }

        if let Some(replay) = &self.replay {
            let layers = &mut inst.layers;
            layers.push("exchanged.shutdown_ms", ms(self.shutdown_us));
            layers.push("exchanged.rounds_degraded", self.degraded as f64);
            layers.push("exchanged.rounds_fallback", self.fallback as f64);
            let mut sorted = self.round_ms.clone();
            stats::sort(&mut sorted);
            layers.push("exchanged.round_ms_p99", stats::percentile(&sorted, 99.0));
            agent_layers(&traces, &self.round_ms, &self.replay_us, n, layers);
            // The replay's inputs must be what really crossed the wire.
            let announce: Vec<usize> = replay.wire.announce_msgs.iter().map(wire_len).collect();
            let accept: usize = replay.wire.accept_msgs.iter().map(wire_len).sum();
            if traces
                .iter()
                .map(|t| &t.first_bids)
                .ne(replay.wire.bids_per_cdn.iter())
                || traces
                    .iter()
                    .map(|t| t.announce_bytes)
                    .ne(announce.iter().copied())
                || traces.iter().map(|t| t.accept_bytes).sum::<usize>() != accept
                || traces
                    .iter()
                    .any(|t| t.share_bytes != replay.share_wire.len())
            {
                inst.checks
                    .push("the replayed messages differ from the ones the agents saw".into());
            }
            for trace in traces {
                log.merge(trace.spans.expect("a finished agent returns its spans"));
            }
        }

        if self.first {
            let bytes = match &self.replay {
                Some(replay) => replay.wire.bytes_per_round(),
                None => Wire::new(&self.scenario).bytes_per_round(),
            };
            inst.figures
                .push(("bytes_per_round", bytes as f64, "bytes"));
        }
        if let Some(path) = self.wal.take() {
            check_wal(&path, n, &self.live, self.first, self.trace, &mut inst);
            let _ = std::fs::remove_file(&path);
            let _ = std::fs::remove_file(path.with_extension("replay.wal"));
        }
        inst
    }
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Joins what the agents saw with what the driver saw, round by round.
fn agent_layers(
    traces: &[AgentTrace],
    rounds_ms: &[f64],
    replay_us: &[f64],
    cdns: usize,
    layers: &mut Layers,
) {
    let share = traces.first().map_or(0, |t| t.share_bytes);
    let announce: Vec<usize> = traces.iter().map(|t| t.announce_bytes).collect();
    let accept: usize = traces.iter().map(|t| t.accept_bytes).sum();
    layers.push("proto.share_bytes", share as f64);
    layers.push(
        "proto.announce_bytes_max",
        announce.iter().copied().max().unwrap_or(0) as f64,
    );
    layers.push(
        "proto.announce_bytes_total",
        announce.iter().sum::<usize>() as f64,
    );
    layers.push("proto.accept_bytes_total", accept as f64);
    layers.push(
        "proto.bytes_per_round",
        (share * cdns + announce.iter().sum::<usize>() + accept) as f64,
    );
    for (i, (&round_ms, &server_us)) in rounds_ms.iter().zip(replay_us).enumerate() {
        let round = WARMUP_ROUNDS as usize + i;
        let per_agent = |f: fn(&AgentTrace) -> &Vec<f64>| -> Vec<f64> {
            traces
                .iter()
                .filter_map(|t| f(t).get(round).copied())
                .collect()
        };
        let build = per_agent(|t| &t.build_us);
        let turnaround = per_agent(|t| &t.turnaround_us);
        if build.len() != traces.len() {
            continue;
        }
        // The round waits for its slowest agent.
        let think_ms = ms(turnaround.iter().copied().fold(0.0, f64::max));
        layers.push(
            "core.build_bids_ms_max",
            ms(build.iter().copied().fold(0.0, f64::max)),
        );
        layers.push("core.build_bids_ms_sum", ms(build.iter().sum()));
        layers.push("exchanged.agent_turnaround_ms_p50", think_ms);
        layers.push("exchanged.round_minus_think_ms_p50", round_ms - think_ms);
        let unattributed = round_ms - think_ms - ms(server_us);
        layers.push("exchanged.round_unattributed_ms", unattributed);
        layers.push(
            "exchanged.round_unattributed_pct",
            100.0 * unattributed / round_ms,
        );
    }
}

/// The finished log, read back: on the run's first instance it must
/// replay record by record to the live round sequence with nothing after
/// the last record, and its size gives the exact bytes per round.
fn check_wal(
    path: &Path,
    cdns: usize,
    live: &[DriverRound],
    first: bool,
    trace: bool,
    inst: &mut Instance,
) {
    let rounds = live.len() as u64;
    if first {
        match read_records(path) {
            Ok((records, trailing)) => {
                if trailing != 0 {
                    inst.checks.push(format!(
                        "{trailing} trailing bytes after the last WAL record"
                    ));
                }
                let recovered = replay(records, cdns);
                if recovered.rounds != live || recovered.next_round != rounds {
                    inst.checks.push(format!(
                        "the WAL replays to {} rounds resuming at {}, the daemon ran {rounds}",
                        recovered.rounds.len(),
                        recovered.next_round
                    ));
                }
            }
            Err(e) => inst.checks.push(format!("cannot read the WAL back: {e}")),
        }
        inst.figures.push((
            "wal_bytes_per_round",
            file_len(path) as f64 / rounds as f64,
            "bytes",
        ));
    }
    if trace {
        inst.layers.push(
            "core.wal_bytes_per_round",
            file_len(path) as f64 / rounds as f64,
        );
        inst.layers.push("core.wal_rounds", rounds as f64);
        let mut sync = inst.layers.samples("core.wal_sync_us_p50").to_vec();
        stats::sort(&mut sync);
        inst.layers
            .push("core.wal_sync_us_p99", stats::percentile(&sync, 99.0));
    }
}
