//! The exchange daemon: Decision Protocol rounds over live sockets with
//! health-based routing.
//!
//! ## Structure
//!
//! One accept thread polls the listener; each accepted connection gets a
//! handshake-and-read thread that forwards round-stamped messages into a
//! **bounded** queue ([`QUEUE_CAP`]). When an agent floods
//! faster than the round loop drains, the reader emits one
//! `conn_backpressure` event and then *blocks* on the queue — the TCP
//! window stalls the sender; nothing is dropped and memory stays
//! bounded.
//!
//! Nothing on the round's path waits on a timer. The readers share one
//! **arrival signal** (a generation count under a mutex, and a condvar)
//! and ring it *after* the fact a waiter looks for is in place: after a
//! slot is installed, after a message is in its queue (the `try_send`
//! and the post-backpressure blocking `send` alike), and after a reader
//! that is exiting has dropped its queue's sender. The collect loop
//! reads the generation, scans the pending slots, and if nobody answered
//! or left sleeps — for what is left of the deadline at most — until
//! the generation moves; having read it *before* the scan, it cannot
//! sleep through an arrival the scan missed. A reader's exit therefore
//! wakes a scan that sees `Disconnected` and reports the CDN down at
//! once. [`ExchangeServer::wait_for_agents`] sleeps on the same signal.
//! (The accept loop's own 10 ms tick is how it notices shutdown.)
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
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError, TrySendError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use vdx_broker::{BreakerConfig, CircuitBreaker, CpPolicy, StaleBidCache, STALE_TTL_ROUNDS};
use vdx_core::wal::Replay;
use vdx_core::{
    BidSource, Decision, Design, DriverRound, ExchangeDriver, Round, RoundHooks, RoundOutcome, Wal,
    WalError, WalRecord,
};
use vdx_obs::{Event, Probe, Stopwatch};
use vdx_proto::{Bid, Connection, Message};
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

/// One connected agent, owned by its CDN's slot: the write half plus the
/// receiving end of the reader thread's queue.
struct AgentSlot {
    writer: Connection,
    rx: Receiver<(u64, Message)>,
    /// Cleared by the reader thread when it exits (EOF, error, shutdown).
    alive: Arc<AtomicBool>,
    /// First round this connection may bid in. `0` for a fresh `Hello`;
    /// a resuming agent's `HelloResume { last_round }` sets it to
    /// `last_round + 1`, so an Announce the agent replays for a round it
    /// already saw settle is discarded instead of double-counted.
    min_round: u64,
}

/// State shared between the round loop, the accept thread, and every
/// reader thread.
struct Shared {
    /// One slot per CDN, indexed by CDN id.
    slots: Vec<Mutex<Option<AgentSlot>>>,
    probe: Arc<dyn Probe>,
    /// Monotonic run clock; `conn_*` events carry its reading as `at_ms`
    /// (zeroed by the journal determinism tooling like every wall field).
    clock: Stopwatch,
    shutdown: AtomicBool,
    /// Reader threads park their handles here so shutdown can join them.
    readers: Mutex<Vec<JoinHandle<()>>>,
    /// The arrival signal: a generation count readers bump, and the
    /// condvar they notify, *after* a slot is installed, a message is
    /// enqueued or a queue's sender is dropped. The round thread sleeps
    /// on it instead of polling. The mutex guards the count only and is
    /// never held across a slot lock, a socket call or a channel op.
    arrivals: (Mutex<u64>, Condvar),
}

impl Shared {
    fn new(cdns: usize, probe: Arc<dyn Probe>) -> Shared {
        Shared {
            slots: (0..cdns).map(|_| Mutex::new(None)).collect(),
            probe,
            clock: Stopwatch::start(),
            shutdown: AtomicBool::new(false),
            readers: Mutex::new(Vec::new()),
            arrivals: (Mutex::new(0), Condvar::new()),
        }
    }

    fn emit(&self, event: Event) {
        if self.probe.enabled() {
            self.probe.emit(event);
        }
    }

    /// Announces that something a waiter scans for has changed.
    fn ring_arrival(&self) {
        *self.arrivals.0.lock().expect("arrivals lock poisoned") += 1;
        self.arrivals.1.notify_all();
    }

    /// The signal's generation. A waiter reads it *before* the scan
    /// whose emptiness it will sleep on, so a ring that lands during or
    /// after the scan is never slept through.
    fn arrivals_seen(&self) -> u64 {
        *self.arrivals.0.lock().expect("arrivals lock poisoned")
    }

    /// Sleeps until the generation moves past `seen`, or `timeout`.
    fn wait_for_arrival(&self, seen: u64, timeout: Duration) {
        let generation = self.arrivals.0.lock().expect("arrivals lock poisoned");
        let _woken = self
            .arrivals
            .1
            .wait_timeout_while(generation, timeout, |generation| *generation == seen)
            .expect("arrivals lock poisoned");
    }

    /// Takes CDN `cdn`'s connection out of its slot so a socket write
    /// happens with the lock *released*: a stalled agent must not block
    /// readers or the accept path on its slot.
    fn take_agent(&self, cdn: usize) -> Option<AgentSlot> {
        self.slots
            .get(cdn)?
            .lock()
            .expect("slot lock poisoned")
            .take()
    }

    /// Puts a taken connection back — unless a reconnect won the empty
    /// slot meanwhile; then the fresh connection stays, ours is stale.
    fn return_agent(&self, cdn: usize, agent: AgentSlot) {
        if let Some(slot) = self.slots.get(cdn) {
            let mut slot = slot.lock().expect("slot lock poisoned");
            if slot.is_none() {
                *slot = Some(agent);
            }
        }
    }

    /// Writes one round's message to CDN `cdn`, with its slot's lock
    /// released for the write; returns whether it was sent. A connection
    /// its reader already saw close is reaped. A connection the write
    /// fails on is dropped: `conn_closed` names the error and the slot
    /// stays empty, so the next round finds the CDN down.
    fn send_to(&self, cdn: usize, round: u64, msg: &Message) -> bool {
        let Some(mut agent) = self.take_agent(cdn) else {
            return false;
        };
        if !agent.alive.load(Ordering::SeqCst) {
            return false; // the reader already reported the close
        }
        if let Err(e) = agent.writer.send(round, msg) {
            self.emit(Event::ConnClosed {
                at_ms: self.clock.elapsed_ms(),
                cdn: cdn as u32,
                reason: format!("write error: {e}"),
            });
            return false;
        }
        self.return_agent(cdn, agent);
        true
    }
}

/// The daemon. Owns the round spine (breakers, stale-bid cache, solver
/// context), its transport, and the listener; rounds are driven by
/// calling [`ExchangeDriver::run_round`].
pub struct ExchangeServer {
    round: Round,
    transport: Transport,
    accept_thread: Option<JoinHandle<()>>,
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
    shared: Arc<Shared>,
    /// The durable round log, when `ServerOptions::wal` named one.
    wal: Option<Wal>,
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
        let shared = Arc::new(Shared::new(n, probe));
        let (round, wal, next_round, recovered) =
            recover(design, policy, &opts, &shared, n).map_err(wal_io_error)?;
        let accept_shared = shared.clone();
        let accept_thread = std::thread::spawn(move || accept_loop(listener, accept_shared));
        Ok(ExchangeServer {
            round,
            transport: Transport {
                scenario,
                opts,
                shared,
                wal,
            },
            accept_thread: Some(accept_thread),
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

    /// Number of agents currently connected and alive.
    pub fn connected_agents(&self) -> usize {
        self.transport
            .shared
            .slots
            .iter()
            .filter(|slot| {
                slot.lock()
                    .expect("slot lock poisoned")
                    .as_ref()
                    .is_some_and(|s| s.alive.load(Ordering::SeqCst))
            })
            .count()
    }

    /// Current health state of one CDN's breaker.
    pub fn breaker(&self, cdn: usize) -> &CircuitBreaker {
        self.round.breaker(cdn)
    }

    /// Blocks until at least `count` agents are connected, or `timeout`
    /// elapses. Returns whether the quorum was reached.
    pub fn wait_for_agents(&self, count: usize, timeout: Duration) -> bool {
        let shared = &self.transport.shared;
        let clock = Stopwatch::start();
        loop {
            let seen = shared.arrivals_seen();
            if self.connected_agents() >= count {
                return true;
            }
            let left = timeout.saturating_sub(Duration::from_micros(clock.elapsed_us()));
            if left.is_zero() {
                return false;
            }
            // A handshake that completes rings; so does a reader exiting.
            shared.wait_for_arrival(seen, left);
        }
    }

    /// Stops accepting, closes every agent connection, and joins all
    /// daemon threads. After this returns no thread of the server holds
    /// the probe any more, so the caller can finish its journal.
    pub fn shutdown(mut self) {
        let shared = &self.transport.shared;
        shared.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
        for (cdn, slot) in shared.slots.iter().enumerate() {
            // Close outside the lock: shutdown() can block on the socket.
            let taken = slot.lock().expect("slot lock poisoned").take();
            if let Some(s) = taken {
                let _ = s.writer.shutdown();
                shared.emit(Event::ConnClosed {
                    at_ms: shared.clock.elapsed_ms(),
                    cdn: cdn as u32,
                    reason: "shutdown".into(),
                });
            }
        }
        let handles: Vec<JoinHandle<()>> = {
            let mut readers = shared.readers.lock().expect("readers lock poisoned");
            readers.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Transport {
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
        cache: &StaleBidCache<Vec<Bid>>,
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
                    .map(|cdn| cache.entry(cdn).map(|(r, b)| (r, b.clone())))
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
/// `recovery_*` journal events. Without a WAL, or on a fresh (empty) one,
/// the spine starts clean at round 0. Returns the spine, the open WAL,
/// the next round and the rounds already committed.
fn recover(
    design: Design,
    policy: CpPolicy,
    opts: &ServerOptions,
    shared: &Shared,
    cdns: usize,
) -> Result<(Round, Option<Wal>, u64, Vec<DriverRound>), WalError> {
    let (wal, replayed) = match &opts.wal {
        Some(path) => {
            let recovered = Wal::recover(path, cdns)?;
            shared.emit(Event::RecoveryStarted {
                records: recovered.records,
                truncated_bytes: recovered.truncated_bytes,
            });
            (Some(recovered.wal), recovered.recovery)
        }
        None => (None, Replay::new(cdns).finish()),
    };
    let mut cache = StaleBidCache::new(cdns, opts.stale_ttl_rounds);
    for (cdn, slot) in replayed.cache.into_iter().enumerate() {
        if let Some((round, bids)) = slot {
            cache.store(cdn, round, bids);
        }
    }
    let breakers = replayed.breakers.into_iter().map(|snap| match snap {
        Some(snap) => CircuitBreaker::restore(opts.breaker, snap),
        None => CircuitBreaker::new(opts.breaker),
    });
    if wal.is_some() {
        if let Some(round) = replayed.voided {
            shared.emit(Event::RecoveryRoundVoided { round });
        }
        shared.emit(Event::RecoveryComplete {
            next_round: replayed.next_round,
            rounds_recovered: replayed.rounds.len() as u64,
            rounds_voided: replayed.voided.map_or(0, |_| 1),
        });
    }
    let round = Round::new(
        design,
        policy,
        breakers.collect(),
        cache,
        opts.deadline.as_millis() as u64,
        shared.probe.clone(),
    );
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
        let n = routable.len();
        let shared = &self.shared;
        let share_msg = Message::Share(shares_of(&self.scenario));

        // Share to every routable, connected CDN. An open breaker means
        // no Share at all; a dead or unwritable connection drops the
        // slot here.
        let routed: Vec<bool> = (0..n)
            .map(|cdn| routable[cdn] && shared.send_to(cdn, round, &share_msg))
            .collect();

        // Collect Announces until the deadline. A participant leaves the
        // pending set by answering this round or by disconnecting.
        let clock = Stopwatch::start();
        let mut answers: Vec<Option<Vec<Bid>>> = vec![None; n];
        let mut dead = vec![false; n];
        let mut pending: Vec<usize> = (0..n).filter(|&c| routed[c]).collect();
        while !pending.is_empty() {
            let elapsed = Duration::from_micros(clock.elapsed_us());
            let left = self.opts.deadline.saturating_sub(elapsed);
            if left.is_zero() {
                break;
            }
            let seen = shared.arrivals_seen();
            let waiting_on = pending.len();
            pending.retain(|&cdn| {
                let slot = shared.slots[cdn].lock().expect("slot lock poisoned");
                let Some(s) = slot.as_ref() else {
                    dead[cdn] = true;
                    return false;
                };
                loop {
                    match s.rx.try_recv() {
                        Ok((r, Message::Announce(bids))) if r == round && r >= s.min_round => {
                            answers[cdn] = Some(bids);
                            return false;
                        }
                        // A stale round's late Announce, a resumed
                        // session's replay of an already-settled round
                        // (below its `min_round`), or an out-of-protocol
                        // message: discard and keep draining.
                        Ok(_) => continue,
                        Err(TryRecvError::Empty) => return true,
                        Err(TryRecvError::Disconnected) => {
                            dead[cdn] = true;
                            return false;
                        }
                    }
                }
            });
            // Nobody answered or left: sleep until a reader enqueues or
            // exits.
            if pending.len() == waiting_on {
                shared.wait_for_arrival(seen, left);
            }
        }
        self.wal_append(&WalRecord::AnnounceClose {
            round,
            answered: answers.iter().filter(|a| a.is_some()).count() as u32,
        });

        // A routable CDN that could not be Shared with (not connected)
        // is as dead as one that hung up mid-round.
        answers
            .into_iter()
            .zip(routed.into_iter().zip(dead))
            .map(|(answer, (routed, died))| match answer {
                Some(bids) => BidSource::Fresh(bids),
                None if !routed || died => BidSource::Down,
                None => BidSource::Silent,
            })
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
        cache: &StaleBidCache<Vec<Bid>>,
    ) {
        self.wal_commit_round(decision, breakers, cache);
        let round = decision.round.round;
        for cdn in 0..breakers.len() {
            let entries = decision.accepts(cdn);
            if !entries.is_empty() {
                // The round is settled whether or not this arrives: a
                // failed write drops the connection, and the next round
                // finds the CDN down.
                self.shared.send_to(cdn, round, &Message::Accept(entries));
            }
        }
    }
}

/// Accepts connections until shutdown; each goes to its own
/// handshake-and-read thread.
fn accept_loop(listener: TcpListener, shared: Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, peer)) => {
                let conn_shared = shared.clone();
                let handle =
                    std::thread::spawn(move || serve_connection(stream, peer, conn_shared));
                shared
                    .readers
                    .lock()
                    .expect("readers lock poisoned")
                    .push(handle);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => std::thread::sleep(POLL),
            Err(_) => std::thread::sleep(POLL),
        }
    }
}

/// Handshakes one inbound connection and, if it identifies as a known
/// CDN, pumps its messages into the slot queue until EOF, error, or
/// shutdown.
fn serve_connection(stream: TcpStream, peer: SocketAddr, shared: Arc<Shared>) {
    let Ok(mut conn) = Connection::new(stream) else {
        return;
    };
    if conn.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).is_err() {
        return;
    }
    // First message must be `Hello { role: CDN }` (fresh session) or
    // `HelloResume { role: CDN }` (reconnect after a drop, carrying the
    // last round the agent saw settle) with an in-range id; anything
    // else is dropped without a slot.
    let (cdn, min_round) = match conn.recv() {
        Ok(Some((_, Message::Hello { node_id, role: 1 })))
            if (node_id as usize) < shared.slots.len() =>
        {
            (node_id as usize, 0)
        }
        Ok(Some((
            _,
            Message::HelloResume {
                node_id,
                role: 1,
                last_round,
            },
        ))) if (node_id as usize) < shared.slots.len() => {
            // Rounds up to `last_round` already settled for this agent;
            // refuse replayed Announces for them (double-bid defence).
            (node_id as usize, last_round.saturating_add(1))
        }
        _ => return,
    };
    let Ok(writer) = conn.try_clone() else { return };
    let (tx, rx) = std::sync::mpsc::sync_channel::<(u64, Message)>(QUEUE_CAP);
    let alive = Arc::new(AtomicBool::new(true));
    {
        let mut slot = shared.slots[cdn].lock().expect("slot lock poisoned");
        if slot
            .as_ref()
            .is_some_and(|s| s.alive.load(Ordering::SeqCst))
        {
            // The CDN already has a live connection; refuse the new one.
            return;
        }
        *slot = Some(AgentSlot {
            writer,
            rx,
            alive: alive.clone(),
            min_round,
        });
    }
    shared.emit(Event::ConnAccepted {
        at_ms: shared.clock.elapsed_ms(),
        cdn: cdn as u32,
        peer: peer.to_string(),
    });
    shared.ring_arrival(); // for `wait_for_agents`
    pump_messages(&mut conn, &tx, cdn, &shared);
    alive.store(false, Ordering::SeqCst);
    // Ring only once the sender is gone: the scan this wakes must see
    // `Disconnected`, and report the CDN down at once.
    drop(tx);
    shared.ring_arrival();
}

/// The reader loop of one agent connection: forwards every message into
/// the slot's queue, ringing the arrival signal after each, until EOF,
/// error, or shutdown.
fn pump_messages(
    conn: &mut Connection,
    tx: &SyncSender<(u64, Message)>,
    cdn: usize,
    shared: &Shared,
) {
    if conn.set_read_timeout(Some(READ_TICK)).is_err() {
        return;
    }
    let mut warned_backpressure = false;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        match conn.recv() {
            Ok(Some(msg)) => {
                match tx.try_send(msg) {
                    Ok(()) => {}
                    Err(TrySendError::Full(msg)) => {
                        if !warned_backpressure {
                            warned_backpressure = true;
                            shared.emit(Event::ConnBackpressure {
                                at_ms: shared.clock.elapsed_ms(),
                                cdn: cdn as u32,
                                queued: QUEUE_CAP as u64,
                            });
                        }
                        // Block until the round loop drains; the agent's TCP
                        // window stalls behind us. Nothing is dropped.
                        if tx.send(msg).is_err() {
                            break;
                        }
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
                shared.ring_arrival();
            }
            Ok(None) => {
                if !shared.shutdown.load(Ordering::SeqCst) {
                    shared.emit(Event::ConnClosed {
                        at_ms: shared.clock.elapsed_ms(),
                        cdn: cdn as u32,
                        reason: "eof".into(),
                    });
                }
                break;
            }
            Err(e) if e.is_timeout() => continue,
            Err(e) => {
                if !shared.shutdown.load(Ordering::SeqCst) {
                    shared.emit(Event::ConnClosed {
                        at_ms: shared.clock.elapsed_ms(),
                        cdn: cdn as u32,
                        reason: format!("read error: {e}"),
                    });
                }
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::sync_channel;
    use vdx_core::RoundResolution;
    use vdx_geo::CityId;
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
        let probe = Arc::new(MemoryProbe::new());
        let opts = ServerOptions::default();
        let shared = Arc::new(Shared::new(n, probe.clone()));
        let shares = shares_of(&scenario);
        let scores = |a: CityId, b: CityId| scenario.score_of(a, b);
        let mut peers = Vec::new();
        // The queues' sending ends, kept so no queue reads as disconnected.
        let mut senders = Vec::new();
        for cdn in 0..n {
            let (writer, peer) = loopback();
            let (tx, rx) = sync_channel(QUEUE_CAP);
            let bids = round_engine(&scenario, design, cdn as u32).build_bids(
                &shares,
                &scenario.fleet,
                &scores,
            );
            tx.send((0, Message::Announce(bids))).expect("queued");
            *shared.slots[cdn].lock().expect("slot lock poisoned") = Some(AgentSlot {
                writer,
                rx,
                alive: Arc::new(AtomicBool::new(true)),
                min_round: 0,
            });
            peers.push(peer);
            senders.push(tx);
        }
        drop(peers.remove(0)); // CDN 0's agent is gone

        let mut transport = Transport {
            scenario: scenario.clone(),
            opts: opts.clone(),
            shared: shared.clone(),
            wal: None,
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

        assert_eq!(decided.resolution, RoundResolution::Fresh);
        let closed: Vec<(u32, String)> = (probe.take().into_iter())
            .filter_map(|e| match e {
                Event::ConnClosed { cdn, reason, .. } => Some((cdn, reason)),
                _ => None,
            })
            .collect();
        let [(0, reason)] = &closed[..] else {
            panic!("expected one conn_closed for CDN 0, got {closed:?}");
        };
        assert!(reason.starts_with("write error: "), "{reason}");
        let open: Vec<bool> = (shared.slots.iter())
            .map(|slot| slot.lock().expect("slot lock poisoned").is_some())
            .collect();
        assert!(!open[0], "the failed connection is dropped");
        assert!(open[1..].iter().all(|&o| o), "the others are kept");
    }
}
