//! The exchange daemon: Decision Protocol rounds over live sockets with
//! health-based routing.
//!
//! ## Structure
//!
//! The round thread (the caller of [`ExchangeServer::run_round`] and
//! [`ExchangeServer::wait_for_agents`]) owns every connection. The
//! accept thread gives each accepted socket an id and a reader thread,
//! which handshakes and then reports over one channel: `Joined` (its CDN
//! and write half), each round-stamped `Message`, and `Left` when it
//! exits. Only the round thread installs (journaling `conn_accepted`),
//! refuses (shutting the newcomer's socket down), writes to or drops a
//! connection, and it ignores news from a connection it does not hold.
//! Besides the channels, the threads share only the shutdown flag.
//!
//! A round first applies what the channel holds, so joins and leaves
//! since the last round take effect before any Share goes out; then it
//! sends the Shares and sleeps on the channel, for what is left of the
//! deadline at most, until every CDN it asked has answered or left. The
//! arrival *is* what the round sleeps on, so no wake-up can be lost.
//!
//! Ingest is **bounded** per connection ([`QUEUE_CAP`]): a reader puts a
//! ticket in its connection's ticket queue before it forwards a message,
//! and the round thread takes one out per message it consumes. A reader
//! that finds the queue full emits one `conn_backpressure` event and
//! *blocks* — the TCP window stalls that sender alone; nothing is
//! dropped and memory stays bounded.
//!
//! The round itself runs on the caller's thread
//! ([`ExchangeServer::run_round`], the [`ExchangeDriver`] contract) and is
//! not written here: it is [`vdx_core::Round`], the one spine the
//! in-process reference driver runs too. This file is that spine's TCP
//! [`RoundHooks`] — *collect*: Share to every routable CDN, gather
//! Announces until the wall-clock deadline, report each CDN as answered /
//! silent / dead; *commit*: WAL the decision, then fan the Accepts out —
//! plus sockets, slots and crash recovery.
//!
//! ## Health-based routing
//!
//! Each CDN has a [`CircuitBreaker`], owned and driven by the spine. A
//! round the CDN was asked to participate in but produced no fresh
//! Announce (deadline miss, disconnect) counts as a failure;
//! `trip_after` consecutive failures open the breaker. An **open**
//! breaker is not routed to at all — no Share is sent, the CDN is
//! excluded outright, and its cached bids are *not* reused (a down CDN's prices are stale in the
//! dangerous sense). After `cooldown_rounds` the breaker admits one
//! half-open probe round; a fresh Announce closes it, another miss
//! re-opens it. Transitions and probe outcomes are journaled as
//! `health_transition` / `health_probe` events.
//!
//! ## Durability
//!
//! With [`ServerOptions::wal`] set, every round appends boundary records
//! to a [`Wal`] and fsyncs the round's `Settlement` *before* any Accept
//! message leaves the daemon — the exactly-once commit rule of
//! DESIGN.md §15. On start the log is replayed: committed rounds are
//! reported via [`ExchangeServer::recovered_rounds`] (never re-run), an
//! interrupted round is voided and re-run, and the caller resumes
//! driving from [`ExchangeServer::next_round`]. Reconnecting agents
//! resume with [`Message::HelloResume`]; their slot's `min_round` makes
//! replayed Announces for settled rounds inert.
//!
//! ## Determinism
//!
//! The daemon is *wall-clock bound* (the deadline is real time), so its
//! journals are not byte-reproducible the way in-process runs are. Its
//! **decisions** are still deterministic in the inputs: given the same
//! scenario and the same per-round observations, every [`DriverRound`]
//! and every journal line outside `conn_*` equals the scripted reference
//! driver's (`vdx_sim::soak`) — by construction, since both run the one
//! spine. The monotonic clock is only read through
//! [`vdx_obs::Stopwatch`], the workspace's sanctioned timing type.

use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use vdx_broker::{BreakerConfig, CircuitBreaker, CpPolicy, StaleBidCache, STALE_TTL_ROUNDS};
use vdx_core::wal::Replay;
use vdx_core::{
    BidSource, CachedBids, Decision, Design, DriverRound, ExchangeDriver, Round, RoundHooks,
    RoundOutcome, Wal, WalError, WalRecord,
};
use vdx_geo::CityId;
use vdx_obs::{Event, Probe, Stopwatch};
use vdx_proto::{Connection, Message};
use vdx_sim::soak::{brokered_round, shares_of, SoakPlan};
use vdx_sim::Scenario;

/// Bounded inbound queue depth per agent connection.
pub const QUEUE_CAP: usize = 64;
/// How long a connecting agent may take to send its `Hello`.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);
/// Settled rounds between two WAL checkpoints.
const CHECKPOINT_EVERY: u64 = 4;

/// Daemon knobs; [`ServerOptions::default`] matches the soak defaults.
#[derive(Debug, Clone)]
pub struct ServerOptions {
    /// Wall-clock Announce deadline per round.
    pub deadline: Duration,
    /// Circuit-breaker thresholds (shared by all CDNs).
    pub breaker: BreakerConfig,
    /// Stale-bid cache TTL, rounds: [`STALE_TTL_ROUNDS`], as in every
    /// other driver.
    pub stale_ttl_rounds: u64,
    /// Path of the durable round WAL; `None` runs without crash safety
    /// (every restart starts from round 0 with empty state). See
    /// DESIGN.md §15 for the durability contract.
    pub wal: Option<PathBuf>,
    /// Write a [`WalRecord::Checkpoint`], a full image of the recoverable
    /// state, every this many settled rounds. It does not shorten a
    /// restart, which scans and folds every record of the log. Ignored
    /// without a WAL; `0` disables checkpointing.
    pub checkpoint_every: u64,
}

impl Default for ServerOptions {
    fn default() -> ServerOptions {
        ServerOptions {
            deadline: Duration::from_millis(3_000),
            breaker: BreakerConfig::default(),
            stale_ttl_rounds: STALE_TTL_ROUNDS,
            wal: None,
            checkpoint_every: CHECKPOINT_EVERY,
        }
    }
}

impl ServerOptions {
    /// The options under which the daemon replays `plan` comparably to
    /// the reference driver: the plan's deadline and breaker, the
    /// defaults elsewhere.
    pub fn for_plan(plan: &SoakPlan) -> ServerOptions {
        ServerOptions {
            deadline: Duration::from_millis(plan.deadline_ms),
            breaker: plan.breaker,
            ..ServerOptions::default()
        }
    }
}

/// How often the accept loop re-checks for a connection or shutdown.
const POLL: Duration = Duration::from_millis(10);
/// Reader-side socket timeout: the granularity at which a reader notices
/// the shutdown flag.
const READ_TICK: Duration = Duration::from_millis(100);

/// What a reader thread tells the round thread. `conn` is the
/// connection's per-accept id: the round thread ignores anything from a
/// connection it does not hold.
enum Inbound {
    /// A connection finished its handshake as CDN `cdn`.
    Joined {
        cdn: usize,
        peer: SocketAddr,
        agent: Agent,
    },
    /// One round-stamped message, in the order the connection sent it.
    Message {
        cdn: usize,
        conn: u64,
        round: u64,
        msg: Message,
    },
    /// The connection's reader exited (EOF, error or shutdown).
    Left { cdn: usize, conn: u64 },
}

/// A connection that holds, or asks for, a CDN's slot.
struct Agent {
    conn: u64,
    writer: Connection,
    /// The receiving end of the connection's ticket queue.
    tickets: Receiver<()>,
    /// First round this connection may bid in. `0` for a fresh `Hello`;
    /// a resuming agent's `HelloResume { last_round }` sets it to
    /// `last_round + 1`, so an Announce the agent replays for a round it
    /// already saw settle is discarded instead of double-counted.
    min_round: u64,
}

impl Agent {
    /// Lets the connection go: its ticket queue first, so a reader that
    /// is still running exits without journaling a close of its own,
    /// then the socket, so that reader wakes.
    fn release(self) {
        drop(self.tickets);
        let _ = self.writer.shutdown();
    }
}

/// The daemon's journal: the probe, and the run clock whose reading
/// `conn_*` events carry as `at_ms` (zeroed by the journal determinism
/// tooling like every wall field).
#[derive(Clone)]
struct Journal {
    probe: Arc<dyn Probe>,
    clock: Stopwatch,
}

impl Journal {
    fn emit(&self, event: Event) {
        if self.probe.enabled() {
            self.probe.emit(event);
        }
    }

    fn conn_closed(&self, cdn: usize, reason: String) {
        self.emit(Event::ConnClosed {
            at_ms: self.clock.elapsed_ms(),
            cdn: cdn as u32,
            reason,
        });
    }
}

/// What the accept thread hands each reader thread.
#[derive(Clone)]
struct Link {
    inbound: Sender<Inbound>,
    journal: Journal,
    shutdown: Arc<AtomicBool>,
    /// Fleet size: a `Hello` must name a CDN below it.
    cdns: usize,
}

/// The daemon. Owns the round spine (breakers, stale-bid cache, solver
/// context), its transport, and the listener; rounds are driven by
/// calling [`ExchangeDriver::run_round`].
pub struct ExchangeServer {
    round: Round,
    transport: Transport,
    /// Returns the reader threads it has not joined yet.
    accept_thread: JoinHandle<Vec<JoinHandle<()>>>,
    shutdown: Arc<AtomicBool>,
    addr: SocketAddr,
    /// First round the daemon should run: 0 on a fresh start, the round
    /// after the last committed settlement after recovery.
    next_round: u64,
    /// Rounds recovered from the WAL as already committed — the caller
    /// must treat them as run (they were settled and their Accepts
    /// sent in a previous life) and drive only `next_round..`.
    recovered: Vec<DriverRound>,
}

/// The spine's [`RoundHooks`] over TCP: agent connections, the scenario
/// (ground truth for Shares and the Brokered fallback) and the WAL.
struct Transport {
    scenario: Arc<Scenario>,
    opts: ServerOptions,
    /// The durable round log, when `ServerOptions::wal` named one.
    wal: Option<Wal>,
    journal: Journal,
    /// Everything the readers send, in arrival order.
    inbound: Receiver<Inbound>,
    /// One slot per CDN, indexed by CDN id.
    agents: Vec<Option<Agent>>,
}

impl ExchangeServer {
    /// Binds `addr` and starts accepting agent connections. Rounds do
    /// not run until the caller drives them.
    pub fn start(
        addr: impl ToSocketAddrs,
        scenario: Arc<Scenario>,
        design: Design,
        policy: CpPolicy,
        probe: Arc<dyn Probe>,
        opts: ServerOptions,
    ) -> std::io::Result<ExchangeServer> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let n = scenario.fleet.cdns.len();
        let journal = Journal {
            probe,
            clock: Stopwatch::start(),
        };
        let (round, wal, next_round, recovered) =
            recover(design, policy, &opts, &journal, &scenario).map_err(wal_io_error)?;
        let (inbound_tx, inbound) = mpsc::channel();
        let shutdown = Arc::new(AtomicBool::new(false));
        let link = Link {
            inbound: inbound_tx,
            journal: journal.clone(),
            shutdown: shutdown.clone(),
            cdns: n,
        };
        let accept_thread = std::thread::spawn(move || accept_loop(listener, link));
        Ok(ExchangeServer {
            round,
            transport: Transport {
                scenario,
                opts,
                wal,
                journal,
                inbound,
                agents: (0..n).map(|_| None).collect(),
            },
            accept_thread,
            shutdown,
            addr,
            next_round,
            recovered,
        })
    }

    /// The first round the daemon should be driven from: 0 on a fresh
    /// start, or the round after the last WAL-committed settlement.
    pub fn next_round(&self) -> u64 {
        self.next_round
    }

    /// Rounds reconstructed from the WAL as already committed, in round
    /// order. Their Accepts were sent before the crash; they must not
    /// be re-run, only reported.
    pub fn recovered_rounds(&self) -> &[DriverRound] {
        &self.recovered
    }

    /// The bound listen address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Number of agents holding a slot, as of the last round or
    /// [`ExchangeServer::wait_for_agents`]: joins and leaves take effect
    /// only there.
    pub fn connected_agents(&self) -> usize {
        self.transport.agents.iter().flatten().count()
    }

    /// Current health state of one CDN's breaker.
    pub fn breaker(&self, cdn: usize) -> &CircuitBreaker {
        self.round.breaker(cdn)
    }

    /// Blocks until at least `count` agents are connected, or `timeout`
    /// elapses. Returns whether the quorum was reached.
    pub fn wait_for_agents(&mut self, count: usize, timeout: Duration) -> bool {
        let clock = Stopwatch::start();
        self.transport.drain_inbound();
        while self.connected_agents() < count {
            let Some(inbound) = self.transport.wait_inbound(clock, timeout) else {
                return false;
            };
            self.transport.take_inbound(inbound);
        }
        true
    }

    /// Stops accepting, closes every agent connection, and joins all
    /// daemon threads. After this returns no thread of the server holds
    /// the probe any more, so the caller can finish its journal.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        let readers = self.accept_thread.join().unwrap_or_default();
        for (cdn, slot) in self.transport.agents.iter_mut().enumerate() {
            if let Some(agent) = slot.take() {
                agent.release();
                self.transport.journal.conn_closed(cdn, "shutdown".into());
            }
        }
        // Dropping the channel wakes a reader blocked on the ticket queue
        // of a connection whose join was never applied.
        drop(self.transport);
        for h in readers {
            let _ = h.join();
        }
    }
}

impl Transport {
    /// Acts on one inbound message: installs or refuses a join, drops a
    /// held connection whose reader left, and takes a ticket out for each
    /// message of a held connection. Hands back the news a waiting round
    /// must hear: a held connection's message for a round it may bid in,
    /// or its `Left`.
    fn take_inbound(&mut self, inbound: Inbound) -> Option<Inbound> {
        match inbound {
            Inbound::Joined { cdn, peer, agent } => {
                let slot = self.agents.get_mut(cdn)?;
                if slot.is_some() {
                    // The CDN already has a live connection; refuse the
                    // new one.
                    agent.release();
                    return None;
                }
                *slot = Some(agent);
                self.journal.emit(Event::ConnAccepted {
                    at_ms: self.journal.clock.elapsed_ms(),
                    cdn: cdn as u32,
                    peer: peer.to_string(),
                });
                None
            }
            message @ Inbound::Message {
                cdn, conn, round, ..
            } => {
                let agent = self.slot_of(cdn, conn)?.as_mut()?;
                let _ = agent.tickets.try_recv();
                // A resumed session's replay of a round it already saw
                // settle is no news.
                (round >= agent.min_round).then_some(message)
            }
            left @ Inbound::Left { cdn, conn } => {
                self.slot_of(cdn, conn)?.take()?.release();
                Some(left)
            }
        }
    }

    /// CDN `cdn`'s slot, if it holds connection `conn`.
    fn slot_of(&mut self, cdn: usize, conn: u64) -> Option<&mut Option<Agent>> {
        (self.agents.get_mut(cdn)).filter(|slot| slot.as_ref().is_some_and(|a| a.conn == conn))
    }

    /// Applies everything the readers have sent so far, without waiting.
    fn drain_inbound(&mut self) {
        while let Ok(inbound) = self.inbound.try_recv() {
            self.take_inbound(inbound);
        }
    }

    /// The next inbound message, if one arrives before `clock` reads
    /// `limit`.
    fn wait_inbound(&self, clock: Stopwatch, limit: Duration) -> Option<Inbound> {
        let left = limit.saturating_sub(Duration::from_micros(clock.elapsed_us()));
        if left.is_zero() {
            return None;
        }
        self.inbound.recv_timeout(left).ok()
    }

    /// Writes one round's message to CDN `cdn`; returns whether it was
    /// sent. A connection the write fails on is dropped: `conn_closed`
    /// names the error and the slot stays empty, so the next round finds
    /// the CDN down.
    fn send_to(&mut self, cdn: usize, round: u64, msg: &Message) -> bool {
        let sent = match self.agents.get_mut(cdn).and_then(Option::as_mut) {
            Some(agent) => agent.writer.send(round, msg),
            None => return false,
        };
        let Err(e) = sent else { return true };
        if let Some(agent) = self.agents.get_mut(cdn).and_then(Option::take) {
            agent.release();
        }
        self.journal.conn_closed(cdn, format!("write error: {e}"));
        false
    }

    /// Appends one record to the WAL, if one is configured. A write
    /// failure disables the WAL for the rest of the run (the daemon
    /// keeps serving, but crash safety is gone and the next restart
    /// recovers only up to the last durable settlement) — refusing to
    /// run would turn a full disk into an outage.
    fn wal_append(&mut self, record: &WalRecord) {
        let Some(w) = self.wal.as_mut() else { return };
        if let Err(e) = w.append(record) {
            eprintln!("exchanged: WAL append failed, disabling durability: {e}");
            self.wal = None;
        }
    }

    /// Fsyncs the WAL — the commit point of the exactly-once rule: a
    /// round's Accepts may be sent only after this returns for its
    /// `Settlement` record.
    fn wal_sync(&mut self) {
        let Some(w) = self.wal.as_mut() else { return };
        if let Err(e) = w.sync() {
            eprintln!("exchanged: WAL sync failed, disabling durability: {e}");
            self.wal = None;
        }
    }

    /// Stages this round's durable suffix — the `Bids` the cache just
    /// absorbed (so recovery re-stores the same entries), `Breaker`
    /// snapshots, the `Settlement`, and (on schedule) a full `Checkpoint`
    /// — then fsyncs.
    fn wal_commit_round(
        &mut self,
        decision: &Decision<'_>,
        breakers: &[CircuitBreaker],
        cache: &StaleBidCache<CachedBids>,
    ) {
        if self.wal.is_none() {
            return;
        }
        let round = decision.round.round;
        for cdn in decision.fresh {
            if let Some(bids) = decision.bids_per_cdn.get(cdn.index()) {
                self.wal_append(&WalRecord::Bids {
                    round,
                    cdn: cdn.0,
                    bids: bids.clone(),
                });
            }
        }
        for (cdn, breaker) in breakers.iter().enumerate() {
            self.wal_append(&WalRecord::Breaker {
                round,
                cdn: cdn as u32,
                snapshot: breaker.snapshot(),
            });
        }
        self.wal_append(&WalRecord::Settlement(decision.round.clone()));
        let every = self.opts.checkpoint_every;
        if every > 0 && (round + 1) % every == 0 {
            let checkpoint = WalRecord::Checkpoint {
                next_round: round + 1,
                cache: (0..breakers.len())
                    .map(|cdn| cache.entry(cdn).map(|(r, c)| (r, c.bids.clone())))
                    .collect(),
                breakers: breakers.iter().map(|b| b.snapshot()).collect(),
            };
            self.wal_append(&checkpoint);
        }
        self.wal_sync();
    }
}

/// Maps a WAL failure into the `io::Error` surface of
/// [`ExchangeServer::start`].
fn wal_io_error(e: WalError) -> std::io::Error {
    match e {
        WalError::Io(e) => e,
        other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
    }
}

/// Builds the round spine, from the WAL if `opts.wal` names one: opens
/// it (truncating any torn tail) and replays its committed records in
/// the same pass ([`Wal::recover`]), then restores the stale-bid cache,
/// per-CDN breakers and round position, emitting the schema-v6
/// `recovery_*` journal events; `recovery_complete` carries the restart's
/// wall time, from the log's open to the spine built. Without a WAL, or on a fresh (empty) one,
/// the spine starts clean at round 0. Returns the spine, the open WAL,
/// the next round and the rounds already committed.
fn recover(
    design: Design,
    policy: CpPolicy,
    opts: &ServerOptions,
    journal: &Journal,
    scenario: &Scenario,
) -> Result<(Round, Option<Wal>, u64, Vec<DriverRound>), WalError> {
    let clock = Stopwatch::start();
    let cdns = scenario.fleet.cdns.len();
    let (wal, replayed) = match &opts.wal {
        Some(path) => {
            let recovered = Wal::recover(path, cdns)?;
            journal.emit(Event::RecoveryStarted {
                records: recovered.records,
                truncated_bytes: recovered.truncated_bytes,
            });
            (Some(recovered.wal), recovered.recovery)
        }
        None => (None, Replay::new(cdns).finish()),
    };
    // Every round the daemon logs Shares the scenario's groups, so every
    // logged batch answered that Share. The log does not hold the Share:
    // once daemon rounds carry moving groups (ROADMAP 12(b)), it must.
    let cities: Arc<[CityId]> = (shares_of(scenario).iter())
        .map(|share| CityId(share.location))
        .collect();
    let mut cache = StaleBidCache::new(cdns, opts.stale_ttl_rounds);
    for (cdn, slot) in replayed.cache.into_iter().enumerate() {
        if let Some((round, bids)) = slot {
            let cities = cities.clone();
            cache.store(cdn, round, CachedBids { cities, bids });
        }
    }
    let breakers = replayed.breakers.into_iter().map(|snap| match snap {
        Some(snap) => CircuitBreaker::restore(opts.breaker, snap),
        None => CircuitBreaker::new(opts.breaker),
    });
    let round = Round::new(
        design,
        policy,
        breakers.collect(),
        cache,
        opts.deadline.as_millis() as u64,
        journal.probe.clone(),
    );
    if wal.is_some() {
        if let Some(round) = replayed.voided {
            journal.emit(Event::RecoveryRoundVoided { round });
        }
        journal.emit(Event::RecoveryComplete {
            next_round: replayed.next_round,
            rounds_recovered: replayed.rounds.len() as u64,
            rounds_voided: replayed.voided.map_or(0, |_| 1),
            wall_us: clock.elapsed_us(),
        });
    }
    Ok((round, wal, replayed.next_round, replayed.rounds))
}

impl ExchangeDriver for ExchangeServer {
    fn run_round(&mut self, round: u64) -> DriverRound {
        let scenario = self.transport.scenario.clone();
        // First durable trace of the round attempt. No fsync yet: if we
        // crash anywhere before the Settlement is synced, replay voids
        // this attempt and the restarted daemon re-runs the round.
        self.transport
            .wal_append(&WalRecord::AnnounceOpen { round });
        self.round.run(round, &scenario.groups, &mut self.transport)
    }
}

impl RoundHooks for Transport {
    fn collect_announces(&mut self, round: u64, routable: &[bool]) -> Vec<BidSource> {
        // Joins and leaves since the last round apply before any Share
        // goes out. An Announce is an answer to this round's Share: one
        // drained here came before it and is discarded.
        self.drain_inbound();

        // Share to every routable, connected CDN. An open breaker means
        // no Share at all; an unwritable connection is dropped here. A
        // CDN that was not Shared with is down; `None` marks one the
        // round waits on.
        let share_msg = Message::Share(shares_of(&self.scenario));
        let mut heard: Vec<Option<BidSource>> = Vec::with_capacity(routable.len());
        for (cdn, &routable) in routable.iter().enumerate() {
            let shared = routable && self.send_to(cdn, round, &share_msg);
            heard.push((!shared).then_some(BidSource::Down));
        }

        // Collect Announces until the deadline. A CDN leaves the wait by
        // answering this round or by disconnecting.
        let clock = Stopwatch::start();
        while heard.iter().any(Option::is_none) {
            let Some(inbound) = self.wait_inbound(clock, self.opts.deadline) else {
                break;
            };
            let (cdn, source) = match self.take_inbound(inbound) {
                Some(Inbound::Message {
                    cdn,
                    round: r,
                    msg: Message::Announce(bids),
                    ..
                }) if r == round => (cdn, BidSource::Fresh(bids)),
                Some(Inbound::Left { cdn, .. }) => (cdn, BidSource::Down),
                // A stale round's late Announce, an out-of-protocol
                // message, or no news.
                _ => continue,
            };
            if let Some(waiting @ None) = heard.get_mut(cdn) {
                *waiting = Some(source);
            }
        }
        let answered = (heard.iter())
            .filter(|h| matches!(h, Some(BidSource::Fresh(_))))
            .count();
        self.wal_append(&WalRecord::AnnounceClose {
            round,
            answered: answered as u32,
        });
        // Whoever neither answered nor left is silent.
        (heard.into_iter())
            .map(|h| h.unwrap_or(BidSource::Silent))
            .collect()
    }

    fn brokered(&mut self, round: u64, policy: CpPolicy, probe: &dyn Probe) -> RoundOutcome {
        brokered_round(&self.scenario, round, policy, probe)
    }

    /// The commit point: the settlement is durable before any Accept is
    /// externalized (DESIGN.md §15).
    fn commit(
        &mut self,
        decision: &Decision<'_>,
        breakers: &[CircuitBreaker],
        cache: &StaleBidCache<CachedBids>,
    ) {
        self.wal_commit_round(decision, breakers, cache);
        let round = decision.round.round;
        for cdn in 0..breakers.len() {
            let entries = decision.accepts(cdn);
            if !entries.is_empty() {
                // The round is settled whether or not this arrives: a
                // failed write drops the connection, and the next round
                // finds the CDN down.
                self.send_to(cdn, round, &Message::Accept(entries));
            }
        }
    }
}

/// Accepts connections until shutdown; each gets an id and its own
/// handshake-and-read thread. Joins the reader threads that have
/// finished as it goes, and returns the rest for shutdown to join.
fn accept_loop(listener: TcpListener, link: Link) -> Vec<JoinHandle<()>> {
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    let mut next_conn: u64 = 0;
    loop {
        let (finished, running): (Vec<_>, Vec<_>) =
            readers.into_iter().partition(JoinHandle::is_finished);
        for h in finished {
            let _ = h.join();
        }
        readers = running;
        if link.shutdown.load(Ordering::SeqCst) {
            return readers;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                let (conn, link) = (next_conn, link.clone());
                next_conn += 1;
                readers.push(std::thread::spawn(move || {
                    serve_connection(stream, peer, conn, link)
                }));
            }
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Handshakes one inbound connection and, if it identifies as a CDN of
/// the fleet, forwards its messages to the round thread until EOF,
/// error, shutdown, or the round thread lets the connection go.
fn serve_connection(stream: TcpStream, peer: SocketAddr, conn: u64, link: Link) {
    let Ok(mut reader) = Connection::new(stream) else {
        return;
    };
    if reader.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).is_err() {
        return;
    }
    // First message must be `Hello { role: CDN }` (fresh session) or
    // `HelloResume { role: CDN }` (reconnect after a drop, carrying the
    // last round the agent saw settle) with an in-range id; anything
    // else is dropped without a slot.
    let (node_id, min_round) = match reader.recv() {
        Ok(Some((_, Message::Hello { node_id, role: 1 }))) => (node_id, 0),
        Ok(Some((
            _,
            Message::HelloResume {
                node_id,
                role: 1,
                last_round,
            },
        ))) => {
            // Rounds up to `last_round` already settled for this agent;
            // refuse replayed Announces for them (double-bid defence).
            (node_id, last_round.saturating_add(1))
        }
        _ => return,
    };
    let Some(cdn) = usize::try_from(node_id).ok().filter(|&cdn| cdn < link.cdns) else {
        return;
    };
    let Ok(writer) = reader.try_clone() else {
        return;
    };
    let (tickets, ticket_rx) = mpsc::sync_channel(QUEUE_CAP);
    let agent = Agent {
        conn,
        writer,
        tickets: ticket_rx,
        min_round,
    };
    let joined = Inbound::Joined { cdn, peer, agent };
    if link.inbound.send(joined).is_ok() {
        if let Some(reason) = pump_messages(&mut reader, &tickets, cdn, conn, &link) {
            link.journal.conn_closed(cdn, reason);
        }
        let _ = link.inbound.send(Inbound::Left { cdn, conn });
    }
}

/// The reader loop of one agent connection: forwards every message to
/// the round thread, a ticket ahead of each, until EOF, error, shutdown,
/// or the round thread lets the connection go. Returns the reason to
/// journal the close under — none at shutdown, nor when the round thread
/// let go first (a refusal, or a failed write it journaled itself).
fn pump_messages(
    reader: &mut Connection,
    tickets: &SyncSender<()>,
    cdn: usize,
    conn: u64,
    link: &Link,
) -> Option<String> {
    reader.set_read_timeout(Some(READ_TICK)).ok()?;
    let mut warned_backpressure = false;
    let reason = loop {
        if link.shutdown.load(Ordering::SeqCst) {
            return None;
        }
        let (round, msg) = match reader.recv() {
            Ok(Some(stamped)) => stamped,
            Ok(None) => break "eof".to_string(),
            Err(e) if e.is_timeout() => continue,
            Err(e) => break format!("read error: {e}"),
        };
        match tickets.try_send(()) {
            Ok(()) => {}
            Err(TrySendError::Full(())) => {
                if !warned_backpressure {
                    warned_backpressure = true;
                    link.journal.emit(Event::ConnBackpressure {
                        at_ms: link.journal.clock.elapsed_ms(),
                        cdn: cdn as u32,
                        queued: QUEUE_CAP as u64,
                    });
                }
                // Block until the round thread consumes one; the agent's
                // TCP window stalls behind us. Nothing is dropped.
                tickets.send(()).ok()?;
            }
            Err(TrySendError::Disconnected(())) => return None,
        }
        let forwarded = Inbound::Message {
            cdn,
            conn,
            round,
            msg,
        };
        link.inbound.send(forwarded).ok()?;
    };
    // The round thread drops the ticket queue when it lets go. (A ticket
    // this puts in is never taken out: the `Left` that follows drops the
    // connection.)
    let released = matches!(tickets.try_send(()), Err(TrySendError::Disconnected(())));
    let shutting_down = link.shutdown.load(Ordering::SeqCst);
    (!released && !shutting_down).then_some(reason)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;
    use vdx_core::RoundResolution;
    use vdx_obs::MemoryProbe;
    use vdx_sim::soak::round_engine;
    use vdx_sim::ScenarioConfig;

    /// The daemon's end of a loopback connection, and the peer's.
    fn loopback() -> (Connection, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let peer = TcpStream::connect(listener.local_addr().expect("bound")).expect("connect");
        let (ours, _) = listener.accept().expect("accept");
        (Connection::new(ours).expect("wrap"), peer)
    }

    /// A round whose every Announce arrives, but whose Accept to CDN 0
    /// cannot be written: that CDN's peer hung up, so the Share is taken
    /// by the kernel and answered with a reset, and the Accept write
    /// after it fails. The failure is journaled and the connection
    /// dropped from its slot; the round is settled all the same.
    #[test]
    fn a_failed_accept_write_is_journaled_and_closes_the_slot() {
        let scenario = Arc::new(Scenario::build(ScenarioConfig::at_scale(true, Some(2017))));
        let n = scenario.fleet.cdns.len();
        let design = Design::Marketplace;
        let (probe, rx) = MemoryProbe::channel();
        let probe = Arc::new(probe);
        let opts = ServerOptions::default();
        let shares = shares_of(&scenario);
        let scores = |a: CityId, b: CityId| scenario.score_of(a, b);
        let (inbound_tx, inbound) = mpsc::channel();
        let mut agents = Vec::new();
        let mut announces = Vec::new();
        let mut peers = Vec::new();
        // The ticket queues' sending ends, each holding the ticket a
        // reader puts in ahead of its message.
        let mut ticket_queues = Vec::new();
        for cdn in 0..n {
            let (writer, peer) = loopback();
            let (tx, tickets) = mpsc::sync_channel(QUEUE_CAP);
            tx.send(()).expect("ticket");
            let conn = cdn as u64;
            agents.push(Some(Agent {
                conn,
                writer,
                tickets,
                min_round: 0,
            }));
            let bids = round_engine(&scenario, design, cdn as u32).build_bids(
                &shares,
                &scenario.fleet,
                &scores,
            );
            announces.push(Inbound::Message {
                cdn,
                conn,
                round: 0,
                msg: Message::Announce(bids),
            });
            peers.push(peer);
            ticket_queues.push(tx);
        }
        drop(peers.remove(0)); // CDN 0's agent is gone
                               // Every Announce is forwarded once the Shares are out: CDN 1's
                               // peer reading its Share means CDN 0's went first.
        let mut witness = peers.remove(0);
        let answering = std::thread::spawn(move || {
            witness.read_exact(&mut [0u8]).expect("CDN 1's Share");
            for announce in announces {
                inbound_tx.send(announce).expect("round thread listening");
            }
            witness
        });

        let mut transport = Transport {
            scenario: scenario.clone(),
            opts: opts.clone(),
            wal: None,
            journal: Journal {
                probe: probe.clone(),
                clock: Stopwatch::start(),
            },
            inbound,
            agents,
        };
        let breakers = (0..n).map(|_| CircuitBreaker::new(opts.breaker)).collect();
        let cache = StaleBidCache::new(n, opts.stale_ttl_rounds);
        let mut spine = Round::new(
            design,
            CpPolicy::balanced(),
            breakers,
            cache,
            3_000,
            probe.clone(),
        );
        let decided = spine.run(0, &scenario.groups, &mut transport);
        let _witness = answering.join().expect("answering thread");

        assert_eq!(decided.resolution, RoundResolution::Fresh);
        let closed: Vec<(u32, String)> = (rx.try_iter())
            .filter_map(|e| match e {
                Event::ConnClosed { cdn, reason, .. } => Some((cdn, reason)),
                _ => None,
            })
            .collect();
        let [(0, reason)] = &closed[..] else {
            panic!("expected one conn_closed for CDN 0, got {closed:?}");
        };
        assert!(reason.starts_with("write error: "), "{reason}");
        let open: Vec<bool> = transport.agents.iter().map(Option::is_some).collect();
        assert!(!open[0], "the failed connection is dropped");
        assert!(open[1..].iter().all(|&o| o), "the others are kept");
    }

    /// A reconnect storm: a hundred agents that shake hands and hang up.
    /// The accept loop joins each finished reader as it goes instead of
    /// holding every handle until shutdown.
    #[test]
    fn connect_and_drop_cycles_leave_no_pile_of_reader_handles() {
        const CYCLES: usize = 100;
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        listener.set_nonblocking(true).expect("nonblocking");
        let addr = listener.local_addr().expect("bound");
        let (inbound, inbound_rx) = mpsc::channel();
        let link = Link {
            inbound,
            journal: Journal {
                probe: vdx_obs::probe::noop(),
                clock: Stopwatch::start(),
            },
            shutdown: Arc::new(AtomicBool::new(false)),
            cdns: 2,
        };
        let shutdown = link.shutdown.clone();
        let accepting = std::thread::spawn(move || accept_loop(listener, link));
        let hello = Message::Hello {
            node_id: 0,
            role: 1,
        };
        for _ in 0..CYCLES {
            let mut agent = Connection::connect(addr).expect("connect");
            agent.send(0, &hello).expect("hello");
        }
        // A reader's `Left` is the last thing it does.
        let mut left = 0;
        while left < CYCLES {
            let news = inbound_rx.recv().expect("readers running");
            left += usize::from(matches!(news, Inbound::Left { .. }));
        }
        shutdown.store(true, Ordering::SeqCst);
        let held = accepting.join().expect("accept thread");
        assert!(
            held.len() <= 10,
            "{} reader handles held after {CYCLES} connect-and-drop cycles",
            held.len()
        );
    }
}
