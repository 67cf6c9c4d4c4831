//! VDX as a live protocol: Share / Announce / Accept rounds between a
//! broker and per-CDN agents, and the **one round spine** every driver of
//! such rounds runs.
//!
//! [`crate::decision::run_decision_round`] is the *pure* form of the
//! Decision Protocol used by large-scale experiments (and the independent
//! oracle the drivers are checked against); this module is the
//! *distributed* form. Its parts, bottom up:
//!
//! * [`BidEngine`] — the CDN side: Shares in, bids out, margins learned
//!   from Accept feedback (§6.3).
//! * [`shares_of`], [`resolve_at_deadline`], [`assemble_options`],
//!   [`accept_entries`], [`picks_of`] — the building blocks of a round.
//!   Each has exactly one product caller: the spine.
//! * [`Round`] — the spine. It owns the per-CDN circuit breakers, the
//!   stale-bid cache, the solver's warm context, the journal probe and
//!   the deadline label, and is the only code that opens a round, turns
//!   transport observations into breaker observations and [`BidSource`]s,
//!   walks the degradation ladder, optimizes, and closes the round. A
//!   driver supplies [`RoundHooks`]: *collect* (its transport) and
//!   *commit* (how a decision becomes durable and visible), plus the
//!   Brokered round the ladder's last rung falls back to.
//! * [`ExchangeBroker`] / [`CdnAgent`] — the link-driven transport used
//!   by fault campaigns: `vdx-proto`'s reliable channels over lossy
//!   [`Link`]s, stepped in simulated time. It has no health routing and
//!   its campaign keeps the stale cache, so it runs on the spine's inner
//!   half (round opening, ladder, decide-and-accept) directly.
//!
//! Wire mapping: `share_id` = group index within the round; `cluster_id` =
//! the fleet-wide [`ClusterId`] (in production this would be per-pair
//! opaque; a simulation shares one namespace).

use crate::decision::RoundOutcome;
use crate::design::Design;
use std::sync::Arc;
use vdx_broker::{
    optimize_probed_ctx, BrokerAssignment, BrokerProblem, CircuitBreaker, ClientGroup, CpPolicy,
    GroupOption, HealthTransition, OptimizeContext, OptimizeMode, StaleBidCache,
};
use vdx_cdn::{BidPolicy, BidShading, CdnId, CityMatcher, ClusterId, Fleet, MatchingConfig};
use vdx_geo::CityId;
use vdx_netsim::Score;
use vdx_obs::{Event as ObsEvent, Probe};
use vdx_proto::endpoint::{Endpoint, Event, RequestId};
use vdx_proto::{AcceptEntry, Bid, ChannelStats, Link, Message, Share, SimTime};
use vdx_units::{Kbps, Margin, UsdPerGb};

/// A source of client→site performance scores (the Estimate step).
pub trait ScoreSource {
    /// Score from a client city to a cluster-site city; lower is better.
    fn score(&self, client: CityId, site: CityId) -> Score;
}

impl<F: Fn(CityId, CityId) -> Score> ScoreSource for F {
    fn score(&self, client: CityId, site: CityId) -> Score {
        self(client, site)
    }
}

/// Exchange configuration shared by broker and agents.
#[derive(Debug, Clone)]
pub struct ExchangeConfig {
    /// The design the live exchange implements: journaled on every round
    /// and named in fallback events. Agents must be configured to bid by
    /// the same design via [`BidEngine::with_design`].
    pub design: Design,
    /// The CP policy the broker optimizes for.
    pub policy: CpPolicy,
}

impl Default for ExchangeConfig {
    fn default() -> Self {
        ExchangeConfig {
            design: Design::Marketplace,
            policy: CpPolicy::balanced(),
        }
    }
}

/// The transport-free heart of a CDN agent: turns Shares into bids priced
/// by learned margins, and updates those margins on Accept feedback.
///
/// [`CdnAgent`] wraps this over the in-memory reliable channel; the
/// `vdx-agent` daemon client wraps the same engine over a TCP
/// [`vdx_proto::transport::Connection`]. Both transports therefore bid —
/// and learn — identically, which is what makes driver parity checkable.
pub struct BidEngine {
    cdn: CdnId,
    shading: BidShading,
    matching: MatchingConfig,
    /// This CDN's own (non-broker) commitments per cluster; bids announce
    /// residual capacity (gross − committed).
    committed_kbps: Vec<Kbps>,
    /// Which Table 2 row the engine bids by (defaults to Marketplace).
    design: Design,
    /// Flat contract price announced by designs without dynamic pricing;
    /// set by [`BidEngine::with_design`].
    contract_price_per_mb: Option<UsdPerGb>,
    /// Capacity announced by capacity-blind designs (the broker's §5.1
    /// per-CDN median estimate); set by [`BidEngine::with_design`].
    median_capacity_kbps: Kbps,
}

impl BidEngine {
    /// Creates an engine for `cdn`. `committed_kbps` is indexed by global
    /// cluster id (entries for other CDNs' clusters are ignored). The
    /// engine bids Marketplace-style; see [`BidEngine::with_design`].
    pub fn new(
        cdn: CdnId,
        bid_policy: BidPolicy,
        matching: MatchingConfig,
        num_clusters: usize,
        committed_kbps: Vec<Kbps>,
    ) -> BidEngine {
        BidEngine {
            cdn,
            shading: BidShading::new(bid_policy, num_clusters),
            matching,
            committed_kbps,
            design: Design::Marketplace,
            contract_price_per_mb: None,
            median_capacity_kbps: Kbps::ZERO,
        }
    }

    /// Configures which design's Table 2 row the engine bids by, mirroring
    /// the pure decision round's announcement rules:
    ///
    /// * designs without dynamic pricing announce `contract_price_per_mb`
    ///   (the flat negotiated rate) instead of a shaded per-cluster price;
    /// * capacity-blind designs announce `median_capacity_kbps` — the
    ///   §5.1 per-CDN median the broker would estimate anyway — instead
    ///   of gross or residual cluster capacity;
    /// * Omniscient announces true cost at the default markup.
    pub fn with_design(
        mut self,
        design: Design,
        contract_price_per_mb: UsdPerGb,
        median_capacity_kbps: Kbps,
    ) -> BidEngine {
        self.design = design;
        self.contract_price_per_mb = Some(contract_price_per_mb);
        self.median_capacity_kbps = median_capacity_kbps;
        self
    }

    /// Current learned margin for one of this CDN's clusters.
    pub fn margin(&self, cluster: ClusterId) -> Margin {
        self.shading.margin(cluster)
    }

    /// Builds this CDN's Announce for one Share batch.
    pub fn build_bids(
        &self,
        shares: &[Share],
        fleet: &Fleet,
        scores: &impl ScoreSource,
    ) -> Vec<Bid> {
        let mut bids = Vec::new();
        // Shares arrive in the broker's group order, a city's side by side.
        let mut matcher = CityMatcher::new(fleet, &self.matching, |client, site| {
            scores.score(client, site)
        });
        for share in shares {
            for m in matcher.candidates_for(self.cdn, CityId(share.location)) {
                let committed = self
                    .committed_kbps
                    .get(m.cluster.index())
                    .copied()
                    .unwrap_or(Kbps::ZERO);
                let gross = fleet.clusters[m.cluster.index()].capacity_kbps;
                // Announcement rules mirror the pure decision round's
                // `announced_price` / `believed_capacity` exactly, so a
                // fault-free live round reproduces the pure outcome for
                // every design, not just Marketplace.
                let price_per_mb = if self.design == Design::Omniscient {
                    m.cost_per_mb * vdx_cdn::DEFAULT_MARKUP
                } else if self.design.announces_cost() {
                    self.shading.price(m.cluster, m.cost_per_mb)
                } else {
                    self.contract_price_per_mb
                        .unwrap_or_else(|| self.shading.price(m.cluster, m.cost_per_mb))
                };
                let capacity_kbps = if !self.design.announces_capacity() {
                    self.median_capacity_kbps
                } else if self.design.capacity_is_residual() {
                    gross.saturating_sub(committed)
                } else {
                    gross
                };
                // The wire format stays plain f64 (schema stability); the
                // typed quantities convert loss-free at this boundary.
                bids.push(Bid {
                    cluster_id: m.cluster.0 as u64,
                    share_id: share.share_id,
                    performance_estimate: m.score.value(),
                    capacity_kbps: capacity_kbps.as_f64(),
                    price_per_mb: price_per_mb.as_per_megabit(),
                });
            }
        }
        bids
    }

    /// Updates margins from Accept feedback (§6.3 risk-averse shading).
    /// Entries for other CDNs' clusters are ignored.
    pub fn learn(&mut self, entries: &[AcceptEntry], fleet: &Fleet) {
        for e in entries {
            let cluster = ClusterId(e.bid.cluster_id as u32);
            if fleet.clusters[cluster.index()].cdn == self.cdn {
                if e.accepted {
                    self.shading.on_accept(cluster);
                } else {
                    self.shading.on_reject(cluster);
                }
            }
        }
    }
}

/// A CDN-side marketplace agent: answers Share requests with bids priced by
/// its learned margins, and updates those margins on Accept feedback.
pub struct CdnAgent {
    endpoint: Endpoint,
    engine: BidEngine,
}

impl CdnAgent {
    /// Creates an agent that answers over `endpoint` with `engine`'s bids.
    pub fn new(endpoint: Endpoint, engine: BidEngine) -> CdnAgent {
        CdnAgent { endpoint, engine }
    }

    /// Current learned margin for one of this CDN's clusters.
    pub fn margin(&self, cluster: ClusterId) -> Margin {
        self.engine.margin(cluster)
    }

    /// Reliable-channel statistics for this agent's link end.
    pub fn channel_stats(&self) -> ChannelStats {
        self.endpoint.channel_stats()
    }

    /// Advances the agent: answers Shares with Announces, learns from
    /// Accepts.
    pub fn poll(
        &mut self,
        now: SimTime,
        link: &mut Link,
        fleet: &Fleet,
        scores: &impl ScoreSource,
    ) {
        let events = self.endpoint.poll_events(now, link);
        for event in events {
            match event {
                Event::Request(id, Message::Share(shares)) => {
                    let bids = self.engine.build_bids(&shares, fleet, scores);
                    self.endpoint.respond(id, &Message::Announce(bids));
                }
                Event::OneWay(Message::Accept(entries)) => {
                    self.engine.learn(&entries, fleet);
                }
                // Anything else (decode errors on a lossy link surface as
                // events too) is ignored; the reliable layer already
                // guarantees ordered delivery of intact messages.
                _ => {}
            }
        }
    }
}

/// The completed result of one live round.
#[derive(Debug, Clone)]
pub struct LiveRoundResult {
    /// The assembled optimization problem (groups × received options).
    pub problem: BrokerProblem,
    /// The optimizer's full assignment: per-group choice, objective, and
    /// per-cluster loads (the inputs metric computation needs).
    pub assignment: BrokerAssignment,
}

/// What the deadline ladder of [`ExchangeBroker::finalize_at_deadline`]
/// did to each CDN of the round (DESIGN.md §9).
#[derive(Debug, Clone, Default)]
pub struct DegradationReport {
    /// CDNs whose Announce arrived before the deadline.
    pub fresh: Vec<CdnId>,
    /// CDNs substituted from the stale-bid cache, with the age of each
    /// substitution in rounds.
    pub stale: Vec<(CdnId, u64)>,
    /// CDNs excluded from the round entirely (no fresh Announce, nothing
    /// usable in the cache).
    pub excluded: Vec<CdnId>,
}

impl DegradationReport {
    /// Whether the round completed on fresh information only.
    pub fn is_clean(&self) -> bool {
        self.stale.is_empty() && self.excluded.is_empty()
    }
}

/// Outcome of finalizing a round at its deadline.
#[derive(Debug)]
pub enum DeadlineOutcome {
    /// The round completed from the information available at the deadline
    /// — possibly degraded; inspect the report for stale substitutions
    /// and exclusions.
    Completed(LiveRoundResult, DegradationReport),
    /// Too little arrived to cover every client group: the caller must
    /// fall back to the Brokered design for this round (flat contracts
    /// are pre-negotiated, so Brokered needs no exchange traffic).
    Fallback(DegradationReport),
}

/// One CDN's situation at a round deadline: what a driver's transport
/// reports of it ([`RoundHooks::collect_announces`]) and, once the spine has
/// overridden CDNs behind an open breaker, what [`resolve_at_deadline`]
/// sees.
#[derive(Debug, Clone)]
pub enum BidSource {
    /// The CDN's Announce arrived before the deadline.
    Fresh(Vec<Bid>),
    /// The CDN is believed reachable but its Announce never arrived; the
    /// ladder may substitute its cached bids while they are under TTL.
    Silent,
    /// The CDN is known failed (injected outage, dead connection, open
    /// circuit breaker): excluded outright — a down CDN's cached prices
    /// must not be reused.
    Down,
}

/// Outcome of [`resolve_at_deadline`]: either enough information to
/// optimize, or a design fallback.
#[derive(Debug)]
pub enum DeadlineResolution {
    /// Every client group has at least one option. Per-CDN bid batches
    /// (empty for excluded CDNs, in CDN-index order) plus the report.
    Proceed(Vec<Vec<Bid>>, DegradationReport),
    /// Some client group had no option at all: the caller must fall back
    /// to the Brokered design for this round.
    Fallback(DegradationReport),
}

/// Walks the degradation ladder of DESIGN.md §9 for one round at its
/// deadline, given each CDN's [`BidSource`]. Every driver's rounds reach
/// it through the spine's one call, so degraded rounds degrade
/// identically whatever the transport.
///
/// Per CDN, in index order: `Fresh` bids are used as-is; a `Silent`
/// CDN's cached bids are substituted if `cache` holds an entry under TTL
/// as of `cache_round` (journaling [`ObsEvent::StaleBidsReused`]);
/// anything else is excluded from the round. If any client group then
/// has no option at all, the round cannot run under `design` and
/// [`DeadlineResolution::Fallback`] is returned (journaling
/// [`ObsEvent::DesignFallback`]).
///
/// `deadline_ms` only labels the [`ObsEvent::DeadlineMissed`] journal
/// event (emitted when any CDN is not `Fresh`); the caller has already
/// decided the deadline passed.
// One argument over clippy's limit, and the signature is pinned: the
// frozen benchmark harness (examples/vdx_bench) calls it positionally.
#[allow(clippy::too_many_arguments)]
pub fn resolve_at_deadline(
    round_id: u64,
    design: Design,
    sources: Vec<BidSource>,
    num_groups: usize,
    cache: &StaleBidCache<Vec<Bid>>,
    cache_round: u64,
    deadline_ms: u64,
    probe: &dyn Probe,
) -> DeadlineResolution {
    let missing = sources
        .iter()
        .filter(|s| !matches!(s, BidSource::Fresh(_)))
        .count() as u64;
    if missing > 0 && probe.enabled() {
        probe.emit(ObsEvent::DeadlineMissed {
            round: round_id,
            missing_cdns: missing,
            deadline_ms,
        });
    }
    let mut report = DegradationReport::default();
    let mut bids_per_cdn: Vec<Vec<Bid>> = Vec::with_capacity(sources.len());
    for (i, source) in sources.into_iter().enumerate() {
        match source {
            BidSource::Fresh(bids) => {
                report.fresh.push(CdnId(i as u32));
                bids_per_cdn.push(bids);
            }
            BidSource::Silent => {
                if let Some((age, bids)) = cache.fetch(i, cache_round) {
                    if probe.enabled() {
                        probe.emit(ObsEvent::StaleBidsReused {
                            round: round_id,
                            cdn: i as u32,
                            age_rounds: age,
                            bids: bids.len() as u64,
                        });
                    }
                    report.stale.push((CdnId(i as u32), age));
                    bids_per_cdn.push(bids.clone());
                } else {
                    report.excluded.push(CdnId(i as u32));
                    bids_per_cdn.push(Vec::new());
                }
            }
            BidSource::Down => {
                report.excluded.push(CdnId(i as u32));
                bids_per_cdn.push(Vec::new());
            }
        }
    }
    // Coverage check: every client group needs at least one option or
    // the optimizer has nothing to choose from.
    let mut covered = vec![false; num_groups];
    for bid in bids_per_cdn.iter().flatten() {
        if let Some(c) = covered.get_mut(bid.share_id as usize) {
            *c = true;
        }
    }
    if covered.iter().any(|&c| !c) {
        if probe.enabled() {
            probe.emit(ObsEvent::DesignFallback {
                round: round_id,
                from: design.name(),
                to: Design::Brokered.name(),
                reason: "insufficient bids at deadline".into(),
            });
        }
        return DeadlineResolution::Fallback(report);
    }
    DeadlineResolution::Proceed(bids_per_cdn, report)
}

/// Assembles the broker's per-group candidate options from every CDN's
/// bid batch, CDN-major (all of CDN 0's bids first, then CDN 1's, ...)
/// — the option order every driver must produce for decisions to be
/// comparable. Bids with out-of-range share ids are dropped.
pub fn assemble_options(num_groups: usize, bids_per_cdn: &[Vec<Bid>]) -> Vec<Vec<GroupOption>> {
    let mut options: Vec<Vec<GroupOption>> = vec![Vec::new(); num_groups];
    for (cdn_idx, bids) in bids_per_cdn.iter().enumerate() {
        for bid in bids {
            let g = bid.share_id as usize;
            if g >= options.len() {
                continue; // malformed share id: drop the bid
            }
            options[g].push(GroupOption {
                cdn: CdnId(cdn_idx as u32),
                cluster: ClusterId(bid.cluster_id as u32),
                score: Score(bid.performance_estimate),
                price_per_mb: UsdPerGb::per_megabit(bid.price_per_mb),
                believed_capacity_kbps: Kbps::new(bid.capacity_kbps),
            });
        }
    }
    options
}

/// Builds a round's Share batch from its client groups — `share_id` =
/// group index, the id convention every driver uses.
pub fn shares_of(groups: &[ClientGroup]) -> Vec<Share> {
    groups
        .iter()
        .enumerate()
        .map(|(i, g)| Share {
            share_id: i as u64,
            location: g.city.0,
            isp: 0,
            content_id: 0,
            data_size_kbps: g.demand_kbps.as_f64(),
            client_count: g.sessions,
        })
        .collect()
}

/// Builds one CDN's Accept entries: every bid it announced, echoed with
/// whether the Optimize step chose it.
pub fn accept_entries(
    problem: &BrokerProblem,
    assignment: &BrokerAssignment,
    cdn_idx: usize,
    bids: &[Bid],
) -> Vec<AcceptEntry> {
    bids.iter()
        .map(|bid| {
            let g = bid.share_id as usize;
            let accepted = g < problem.options.len() && {
                let chosen = &problem.options[g][assignment.choice[g]];
                chosen.cdn == CdnId(cdn_idx as u32)
                    && chosen.cluster == ClusterId(bid.cluster_id as u32)
            };
            AcceptEntry {
                bid: *bid,
                accepted,
            }
        })
        .collect()
}

/// How one driver round resolved, coarsely: which rung of the ladder it
/// ended on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundResolution {
    /// Every CDN answered in time; no degradation.
    Fresh,
    /// The round completed, but only after stale substitution and/or
    /// CDN exclusion.
    Degraded,
    /// The round abandoned its design and ran Brokered from contracts.
    Fallback,
}

/// The decision-quality fingerprint of one round, produced identically
/// by every [`ExchangeDriver`]. Two drivers agree on a round exactly
/// when these compare equal — the soak test's parity check.
#[derive(Debug, Clone, PartialEq)]
pub struct DriverRound {
    /// The round id.
    pub round: u64,
    /// Which ladder rung the round ended on.
    pub resolution: RoundResolution,
    /// Per client group, the chosen `(cdn, cluster)` — the decision
    /// itself, independent of transport, timing, or solver effort.
    pub picks: Vec<(u32, u32)>,
    /// The Fig 9 objective value the Optimize step achieved.
    pub objective: f64,
}

/// A driver of Decision Protocol rounds: something that owns transport
/// and timing and, per round, produces the broker's decision.
///
/// Two implementations exist — the scripted in-process reference
/// (`vdx-sim`'s soak harness) and the `vdx-exchanged` daemon over TCP.
/// Both are [`RoundHooks`] around one [`Round`], so under the same
/// scenario and the same observed failures they emit equal
/// [`DriverRound`]s and equal journals by construction
/// (ARCHITECTURE.md, "two drivers, one core").
pub trait ExchangeDriver {
    /// Runs one round and reports its decision fingerprint.
    fn run_round(&mut self, round: u64) -> DriverRound;
}

/// Extracts the per-group `(cdn, cluster)` picks from a completed
/// optimization — the transport-independent core of [`DriverRound`].
pub fn picks_of(problem: &BrokerProblem, assignment: &BrokerAssignment) -> Vec<(u32, u32)> {
    assignment
        .choice
        .iter()
        .enumerate()
        .map(|(g, &c)| {
            let o = &problem.options[g][c];
            (o.cdn.0, o.cluster.0)
        })
        .collect()
}

/// The Decision Protocol's round spine: the one implementation of
/// Share → Announce → Optimize → Accept with health routing and the
/// degradation ladder, run by every [`ExchangeDriver`] (DESIGN.md §13).
///
/// A `Round` owns what carries from one round to the next — per-CDN
/// [`CircuitBreaker`]s, the stale-bid cache, the solver's warm context —
/// plus design, objective, journal probe and the deadline label. The
/// reference driver and the daemon both call [`Round::run`], so "same
/// observations ⇒ same decision, same journal" holds by construction; a
/// driver only says, through [`RoundHooks`], what its transport observed
/// and how a decision is committed.
pub struct Round {
    decider: Decider,
    breakers: Vec<CircuitBreaker>,
    cache: StaleBidCache<Vec<Bid>>,
    /// Labels `deadline_missed` journal events; the spine has no clock.
    deadline_ms: u64,
}

/// What a driver plugs into [`Round::run`].
pub trait RoundHooks {
    /// The transport: consult every CDN whose `routable` flag is set (an
    /// open breaker clears it: no Share for that CDN) and report what was
    /// seen of each, in CDN-index order — `Fresh` bids, `Silent` at the
    /// deadline, or `Down` (not connected, unwritable, hung up). Entries
    /// of CDNs that were not routable are ignored.
    fn collect_announces(&mut self, round: u64, routable: &[bool]) -> Vec<BidSource>;

    /// The ladder's last rung: `round` run as Brokered from contract data
    /// (the spine cannot see the scenario).
    fn brokered(&mut self, round: u64, policy: CpPolicy, probe: &dyn Probe) -> RoundOutcome;

    /// Called once per round, when its decision exists and before it is
    /// journaled as accepted: make it durable, then send the Accepts.
    /// `breakers` and `cache` are the spine's state after this round —
    /// what a write-ahead log must capture. The default commits nothing.
    fn commit(
        &mut self,
        _decision: &Decision<'_>,
        _breakers: &[CircuitBreaker],
        _cache: &StaleBidCache<Vec<Bid>>,
    ) {
    }
}

/// A round's decision as a commit hook sees it.
pub struct Decision<'a> {
    /// The round's fingerprint — what a log settles.
    pub round: &'a DriverRound,
    /// CDNs whose bids arrived fresh (and, under [`Round`], refreshed the
    /// stale cache). Empty on a fallback round.
    pub fresh: &'a [CdnId],
    /// The bid batches the round was decided from, per CDN: fresh, stale
    /// substitutes, or none for an excluded CDN. Empty on a fallback.
    pub bids_per_cdn: &'a [Vec<Bid>],
    problem: &'a BrokerProblem,
    assignment: &'a BrokerAssignment,
}

impl Decision<'_> {
    /// CDN `cdn`'s Accept: each of its bids echoed with whether it won.
    /// Empty for an excluded CDN and on a fallback round (Brokered runs
    /// on contracts; there is nothing to accept).
    pub fn accepts(&self, cdn: usize) -> Vec<AcceptEntry> {
        self.bids_per_cdn.get(cdn).map_or_else(Vec::new, |bids| {
            accept_entries(self.problem, self.assignment, cdn, bids)
        })
    }
}

/// The half of the spine that does not depend on who is routable: design
/// and objective, the solver's warm context, the journal. [`Round`] adds
/// health routing and the stale cache; the link-driven [`ExchangeBroker`]
/// — no breakers, cache kept by its campaign — runs on this directly.
struct Decider {
    design: Design,
    policy: CpPolicy,
    probe: Arc<dyn Probe>,
    /// Rounds are one sequential stream, so one context is exactly right;
    /// it runs the solver under the bit-exact reuse policy, keeping
    /// journals and decisions identical to context-free solves.
    ctx: OptimizeContext,
}

impl Decider {
    fn emit(&self, event: ObsEvent) {
        if self.probe.enabled() {
            self.probe.emit(event);
        }
    }

    fn health_transition(&self, round: u64, cdn: usize, t: HealthTransition) {
        if self.probe.enabled() {
            self.probe.emit(ObsEvent::HealthTransition {
                round,
                cdn: cdn as u32,
                from: t.from.name().into(),
                to: t.to.name().into(),
                reason: t.reason.into(),
            });
        }
    }

    /// Journals the start of a round and its Share.
    fn started(&self, round: u64, groups: &[ClientGroup], cdns: usize) {
        if self.probe.enabled() {
            self.probe.emit(ObsEvent::RoundStarted {
                round,
                design: self.design.name(),
                groups: groups.len() as u64,
                cdns: cdns as u64,
            });
            self.probe.emit(ObsEvent::SharePublished {
                round,
                shares: groups.len() as u64,
                demand_kbps: groups.iter().map(|g| g.demand_kbps.as_f64()).sum(),
            });
        }
    }

    /// Walks the degradation ladder over `cache` as of `cache_round`.
    fn resolve(
        &self,
        round: u64,
        sources: Vec<BidSource>,
        num_groups: usize,
        cache: &StaleBidCache<Vec<Bid>>,
        cache_round: u64,
        deadline_ms: u64,
    ) -> DeadlineResolution {
        resolve_at_deadline(
            round,
            self.design,
            sources,
            num_groups,
            cache,
            cache_round,
            deadline_ms,
            self.probe.as_ref(),
        )
    }

    /// The tail of every round that completes under its design: assemble
    /// options, optimize, hand the decision to `commit`, then journal the
    /// Accept step and the round's completion.
    fn decide(
        &mut self,
        round: u64,
        groups: Vec<ClientGroup>,
        bids_per_cdn: &[Vec<Bid>],
        report: &DegradationReport,
        commit: impl FnOnce(&Decision<'_>),
    ) -> (DriverRound, LiveRoundResult) {
        let options = assemble_options(groups.len(), bids_per_cdn);
        let problem = BrokerProblem { groups, options };
        let assignment = optimize_probed_ctx(
            &problem,
            &self.policy,
            &OptimizeMode::Heuristic,
            round,
            self.probe.as_ref(),
            &mut self.ctx,
        );
        let decided = DriverRound {
            round,
            resolution: if report.is_clean() {
                RoundResolution::Fresh
            } else {
                RoundResolution::Degraded
            },
            picks: picks_of(&problem, &assignment),
            objective: assignment.objective,
        };
        commit(&Decision {
            round: &decided,
            fresh: &report.fresh,
            bids_per_cdn,
            problem: &problem,
            assignment: &assignment,
        });
        if self.probe.enabled() {
            let total_bids: u64 = problem.options.iter().map(|o| o.len() as u64).sum();
            let accepted = problem.groups.len() as u64;
            self.probe.emit(ObsEvent::AcceptIssued {
                round,
                accepted,
                rejected: total_bids.saturating_sub(accepted),
            });
            self.probe.emit(ObsEvent::RoundCompleted {
                round,
                objective: assignment.objective,
                options: total_bids,
            });
        }
        let result = LiveRoundResult {
            problem,
            assignment,
        };
        (decided, result)
    }
}

impl Round {
    /// A spine for `breakers.len()` CDNs. Breakers and cache come in
    /// built: a recovering daemon hands over replayed state, everyone
    /// else fresh ones. `deadline_ms` only labels journal events.
    pub fn new(
        design: Design,
        policy: CpPolicy,
        breakers: Vec<CircuitBreaker>,
        cache: StaleBidCache<Vec<Bid>>,
        deadline_ms: u64,
        probe: Arc<dyn Probe>,
    ) -> Round {
        let ctx = OptimizeContext::new();
        Round {
            decider: Decider {
                design,
                policy,
                probe,
                ctx,
            },
            breakers,
            cache,
            deadline_ms,
        }
    }

    /// Current health state of one CDN's breaker.
    pub fn breaker(&self, cdn: usize) -> &CircuitBreaker {
        &self.breakers[cdn]
    }

    /// Runs round `round` over `groups`, start to finish.
    pub fn run(
        &mut self,
        round: u64,
        groups: &[ClientGroup],
        hooks: &mut impl RoundHooks,
    ) -> DriverRound {
        // Open: breakers whose cool-down elapsed go half-open.
        for (cdn, breaker) in self.breakers.iter_mut().enumerate() {
            if let Some(t) = breaker.begin_round(round) {
                self.decider.health_transition(round, cdn, t);
            }
        }
        self.decider.started(round, groups, self.breakers.len());
        let routable: Vec<bool> = self.breakers.iter().map(|b| b.allows_route()).collect();
        // Classify in CDN-index order: exactly one breaker observation per
        // CDN that was routed to, or should have been.
        let sources: Vec<BidSource> = hooks
            .collect_announces(round, &routable)
            .into_iter()
            .enumerate()
            .map(|(cdn, seen)| self.observe(round, cdn, seen))
            .collect();
        let (decider, cache) = (&mut self.decider, &self.cache);
        match decider.resolve(round, sources, groups.len(), cache, round, self.deadline_ms) {
            DeadlineResolution::Proceed(bids_per_cdn, report) => {
                // Only fresh bids refresh the cache, and only because the
                // round completes under its design (a fallback stores
                // nothing): a stale substitute is never re-stored as new.
                for cdn in &report.fresh {
                    self.cache
                        .store(cdn.index(), round, bids_per_cdn[cdn.index()].clone());
                }
                let (breakers, cache) = (&self.breakers, &self.cache);
                let commit = |decision: &Decision<'_>| hooks.commit(decision, breakers, cache);
                let (decided, _) =
                    decider.decide(round, groups.to_vec(), &bids_per_cdn, &report, commit);
                decided
            }
            DeadlineResolution::Fallback(_) => {
                let outcome = hooks.brokered(round, decider.policy, decider.probe.as_ref());
                let decided = DriverRound {
                    round,
                    resolution: RoundResolution::Fallback,
                    picks: picks_of(&outcome.problem, &outcome.assignment),
                    objective: outcome.assignment.objective,
                };
                // A fallback externalizes no Accepts, but it is still a
                // settled decision: commit it, so a restart does not
                // re-run (and possibly re-decide) it.
                let decision = Decision {
                    round: &decided,
                    fresh: &[],
                    bids_per_cdn: &[],
                    problem: &outcome.problem,
                    assignment: &outcome.assignment,
                };
                hooks.commit(&decision, &self.breakers, &self.cache);
                decided
            }
        }
    }

    /// Makes the round's one breaker observation for CDN `cdn` from what
    /// the transport saw of it, and returns what the ladder should see.
    fn observe(&mut self, round: u64, cdn: usize, seen: BidSource) -> BidSource {
        let breaker = &mut self.breakers[cdn];
        if !breaker.allows_route() {
            // Open: deliberately not consulted, so nothing to observe —
            // and a tripped CDN's cached prices must not be reused.
            return BidSource::Down;
        }
        let probing = breaker.is_probe();
        let transition = match &seen {
            BidSource::Fresh(bids) => {
                let transition = breaker.on_success(round);
                self.decider.emit(ObsEvent::BidReceived {
                    round,
                    cdn: cdn as u32,
                    bids: bids.len() as u64,
                });
                transition
            }
            BidSource::Silent | BidSource::Down => breaker.on_failure(round),
        };
        if probing {
            self.decider.emit(ObsEvent::HealthProbe {
                round,
                cdn: cdn as u32,
                success: matches!(seen, BidSource::Fresh(_)),
            });
        }
        if let Some(t) = transition {
            self.decider.health_transition(round, cdn, t);
        }
        seen
    }
}

/// The link-driven transport over the spine: the broker side of the live
/// exchange, talking to one CDN per lossy [`Link`] in simulated time.
/// Fault campaigns step it millisecond by millisecond
/// ([`ExchangeBroker::poll`]) and force a decision at the deadline
/// ([`ExchangeBroker::finalize_at_deadline`]).
pub struct ExchangeBroker {
    endpoints: Vec<Endpoint>,
    decider: Decider,
    round: Option<PendingRound>,
    rounds_started: u64,
}

struct PendingRound {
    id: u64,
    groups: Vec<ClientGroup>,
    request_ids: Vec<RequestId>,
    bids: Vec<Option<Vec<Bid>>>,
}

impl ExchangeBroker {
    /// Creates a broker speaking to `endpoints.len()` CDNs; `endpoints[i]`
    /// must be connected to the agent of `CdnId(i)`.
    pub fn new(endpoints: Vec<Endpoint>, config: ExchangeConfig) -> ExchangeBroker {
        ExchangeBroker {
            endpoints,
            decider: Decider {
                design: config.design,
                policy: config.policy,
                probe: vdx_obs::probe::noop(),
                ctx: OptimizeContext::new(),
            },
            round: None,
            rounds_started: 0,
        }
    }

    /// Routes this broker's journal events (round lifecycle, auction
    /// steps, solver effort) to `probe`. The default is a no-op.
    pub fn set_probe(&mut self, probe: Arc<dyn Probe>) {
        self.decider.probe = probe;
    }

    /// Starts a round: Shares the client groups with every CDN.
    ///
    /// # Panics
    /// Panics if a round is already in flight.
    pub fn start_round(&mut self, groups: Vec<ClientGroup>) {
        assert!(self.round.is_none(), "round already in flight");
        let id = self.rounds_started;
        self.rounds_started += 1;
        self.decider.started(id, &groups, self.endpoints.len());
        let msg = Message::Share(shares_of(&groups));
        let request_ids: Vec<RequestId> =
            self.endpoints.iter_mut().map(|e| e.request(&msg)).collect();
        let n = self.endpoints.len();
        self.round = Some(PendingRound {
            id,
            groups,
            request_ids,
            bids: vec![None; n],
        });
    }

    /// Advances the broker. Returns the round result once every CDN's
    /// Announce has arrived; the Accept step is sent before returning.
    pub fn poll(&mut self, now: SimTime, links: &mut [Link]) -> Option<LiveRoundResult> {
        assert_eq!(links.len(), self.endpoints.len(), "one link per CDN");
        let Some(round) = &mut self.round else {
            return None;
        };
        for (i, endpoint) in self.endpoints.iter_mut().enumerate() {
            for event in endpoint.poll_events(now, &mut links[i]) {
                if let Event::Response(id, Message::Announce(bids)) = event {
                    if id == round.request_ids[i] {
                        // Journaled on arrival: links deliver out of CDN
                        // order, and the journal says so.
                        self.decider.emit(ObsEvent::BidReceived {
                            round: round.id,
                            cdn: i as u32,
                            bids: bids.len() as u64,
                        });
                        round.bids[i] = Some(bids);
                    }
                }
            }
        }
        if round.bids.iter().any(Option::is_none) {
            return None;
        }
        // Nothing is missing, so the ladder has nothing to look up: the
        // round resolves now exactly as it would at its deadline.
        match self.finalize_at_deadline(now, links, &StaleBidCache::new(0, 0), 0, &[]) {
            DeadlineOutcome::Completed(result, _) => Some(result),
            DeadlineOutcome::Fallback(_) => None,
        }
    }

    /// Overrides the id the *next* round will be journaled under. Fault
    /// campaigns use this to align live-round journal events with the
    /// campaign's own round numbering.
    pub fn set_next_round_id(&mut self, id: u64) {
        self.rounds_started = id;
    }

    /// Reliable-channel statistics for the broker's end of the link to
    /// CDN `cdn`.
    pub fn channel_stats(&self, cdn: usize) -> ChannelStats {
        self.endpoints[cdn].channel_stats()
    }

    /// Forces the in-flight round to a decision at its deadline, walking
    /// the degradation ladder of DESIGN.md §9 for every CDN that has not
    /// answered:
    ///
    /// 1. substitute the CDN's cached bids if `cache` holds an entry no
    ///    older than its TTL as of `campaign_round` — unless the CDN is in
    ///    `known_failed` (a down CDN's cached prices must not be reused);
    /// 2. otherwise exclude the CDN from the round (no options from it);
    /// 3. if after substitution some client group has no option at all,
    ///    give up on this design for the round and report
    ///    [`DeadlineOutcome::Fallback`] — the caller runs a Brokered round
    ///    from contract data instead.
    ///
    /// The cache is read-only here: the *campaign* owns cache writes (it
    /// also fills the cache from its pure rounds), so stale substitutions
    /// are never re-stored as if they were fresh.
    ///
    /// # Panics
    /// Panics if no round is in flight.
    pub fn finalize_at_deadline(
        &mut self,
        now: SimTime,
        links: &mut [Link],
        cache: &StaleBidCache<Vec<Bid>>,
        campaign_round: u64,
        known_failed: &[usize],
    ) -> DeadlineOutcome {
        let round = self.round.take().expect("round in flight");
        let PendingRound {
            id, groups, bids, ..
        } = round;
        let sources: Vec<BidSource> = bids
            .into_iter()
            .enumerate()
            .map(|(i, slot)| match slot {
                Some(bids) => BidSource::Fresh(bids),
                None if known_failed.contains(&i) => BidSource::Down,
                None => BidSource::Silent,
            })
            .collect();
        let (decider, endpoints) = (&mut self.decider, &mut self.endpoints);
        match decider.resolve(id, sources, groups.len(), cache, campaign_round, now.0) {
            DeadlineResolution::Proceed(bids_per_cdn, report) => {
                // The spine's commit step here is the Accept fan-out:
                // echo every bid with its outcome to its CDN.
                let accept = |decision: &Decision<'_>| {
                    for (cdn, endpoint) in endpoints.iter_mut().enumerate() {
                        endpoint.send_oneway(&Message::Accept(decision.accepts(cdn)));
                        // Kick the channel so the Accept leaves promptly.
                        endpoint.poll_events(now, &mut links[cdn]);
                    }
                };
                let (_, result) = decider.decide(id, groups, &bids_per_cdn, &report, accept);
                DeadlineOutcome::Completed(result, report)
            }
            DeadlineResolution::Fallback(report) => DeadlineOutcome::Fallback(report),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::tests::build_eco;
    use vdx_proto::reliable::{ReliableChannel, ReliableConfig};
    use vdx_proto::{FaultConfig, LinkEnd};

    fn make_exchange(
        eco: &crate::decision::tests::TestEco,
        faults: FaultConfig,
    ) -> (ExchangeBroker, Vec<CdnAgent>, Vec<Link>) {
        let n = eco.fleet.cdns.len();
        let mut links = Vec::new();
        let mut broker_eps = Vec::new();
        let mut agents = Vec::new();
        for i in 0..n {
            links.push(Link::new(faults.clone(), 100 + i as u64));
            broker_eps.push(Endpoint::new(ReliableChannel::new(
                LinkEnd::A,
                ReliableConfig::default(),
            )));
            agents.push(CdnAgent::new(
                Endpoint::new(ReliableChannel::new(LinkEnd::B, ReliableConfig::default())),
                BidEngine::new(
                    CdnId(i as u32),
                    BidPolicy::default(),
                    MatchingConfig::default(),
                    eco.fleet.clusters.len(),
                    eco.background.clone(),
                ),
            ));
        }
        let broker = ExchangeBroker::new(broker_eps, ExchangeConfig::default());
        (broker, agents, links)
    }

    fn drive_round(
        eco: &crate::decision::tests::TestEco,
        broker: &mut ExchangeBroker,
        agents: &mut [CdnAgent],
        links: &mut [Link],
        start_ms: u64,
        deadline_ms: u64,
    ) -> LiveRoundResult {
        broker.start_round(eco.groups.clone());
        for ms in start_ms..deadline_ms {
            let now = SimTime(ms);
            for (i, agent) in agents.iter_mut().enumerate() {
                agent.poll(now, &mut links[i], &eco.fleet, &|a: CityId, b: CityId| {
                    eco.net.score(&eco.world, a, b)
                });
            }
            if let Some(result) = broker.poll(now, links) {
                // Let the Accepts drain to the agents.
                for extra in 0..2_000 {
                    let now = SimTime(ms + 1 + extra);
                    for (i, agent) in agents.iter_mut().enumerate() {
                        agent.poll(now, &mut links[i], &eco.fleet, &|a: CityId, b: CityId| {
                            eco.net.score(&eco.world, a, b)
                        });
                    }
                }
                return result;
            }
        }
        panic!("round did not complete by {deadline_ms} ms");
    }

    #[test]
    fn live_round_matches_pure_decision_round() {
        let eco = build_eco(23);
        let (mut broker, mut agents, mut links) = make_exchange(&eco, FaultConfig::lossless());
        let live = drive_round(&eco, &mut broker, &mut agents, &mut links, 0, 10_000);

        let inputs = crate::decision::RoundInputs {
            world: &eco.world,
            fleet: &eco.fleet,
            contracts: &eco.contracts,
            groups: &eco.groups,
            background_load_kbps: &eco.background,
            policy: CpPolicy::balanced(),
            bid_count: None,
            margins: None,
        };
        let pure = crate::decision::run_decision_round(Design::Marketplace, &inputs, |a, b| {
            eco.net.score(&eco.world, a, b)
        });
        assert_eq!(live.assignment.choice.len(), pure.assignment.choice.len());
        assert!(
            (live.assignment.objective - pure.assignment.objective).abs() < 1e-6,
            "live {} vs pure {}",
            live.assignment.objective,
            pure.assignment.objective
        );
    }

    #[test]
    fn live_round_completes_over_lossy_links() {
        let eco = build_eco(23);
        let faults = FaultConfig {
            drop_chance: 0.10,
            corrupt_chance: 0.05,
            delay_ms: 10,
            jitter_ms: 10,
        };
        let (mut broker, mut agents, mut links) = make_exchange(&eco, faults);
        let result = drive_round(&eco, &mut broker, &mut agents, &mut links, 0, 120_000);
        assert_eq!(result.assignment.choice.len(), eco.groups.len());
    }

    #[test]
    fn losing_clusters_shade_their_margins_down() {
        let eco = build_eco(23);
        let (mut broker, mut agents, mut links) = make_exchange(&eco, FaultConfig::lossless());
        let result = drive_round(&eco, &mut broker, &mut agents, &mut links, 0, 10_000);
        // Find a cluster that bid but never won.
        let mut won = std::collections::HashSet::new();
        for (g, &c) in result.assignment.choice.iter().enumerate() {
            won.insert(result.problem.options[g][c].cluster);
        }
        let mut bid_clusters = std::collections::HashSet::new();
        for opts in &result.problem.options {
            for o in opts {
                bid_clusters.insert((o.cdn, o.cluster));
            }
        }
        let loser = bid_clusters.iter().find(|(_, cl)| !won.contains(cl));
        let Some(&(cdn, cluster)) = loser else {
            return; // every bidder won something; nothing to check
        };
        let margin = agents[cdn.index()].margin(cluster);
        assert!(
            margin < BidPolicy::default().max_margin,
            "losing cluster's margin should have shaded down, still {margin}"
        );
    }

    #[test]
    fn probed_live_round_journals_the_auction() {
        use vdx_obs::MemoryProbe;
        let eco = build_eco(23);
        let (mut broker, mut agents, mut links) = make_exchange(&eco, FaultConfig::lossless());
        let probe = Arc::new(MemoryProbe::new());
        broker.set_probe(probe.clone());
        drive_round(&eco, &mut broker, &mut agents, &mut links, 0, 10_000);

        let events = probe.take();
        assert!(matches!(
            events.first(),
            Some(ObsEvent::RoundStarted { round: 0, .. })
        ));
        assert!(events
            .iter()
            .any(|e| matches!(e, ObsEvent::SharePublished { .. })));
        let bid_events = events
            .iter()
            .filter(|e| matches!(e, ObsEvent::BidReceived { .. }))
            .count();
        assert_eq!(bid_events, eco.fleet.cdns.len(), "one Announce per CDN");
        assert!(events
            .iter()
            .any(|e| matches!(e, ObsEvent::SolverStats { .. })));
        assert!(matches!(
            events.last(),
            Some(ObsEvent::RoundCompleted { round: 0, .. })
        ));

        // A second round increments the round id.
        drive_round(&eco, &mut broker, &mut agents, &mut links, 20_000, 30_000);
        let events = probe.take();
        assert!(matches!(
            events.first(),
            Some(ObsEvent::RoundStarted { round: 1, .. })
        ));
    }

    fn blackout() -> FaultConfig {
        FaultConfig {
            drop_chance: 1.0,
            corrupt_chance: 0.0,
            delay_ms: 0,
            jitter_ms: 0,
        }
    }

    /// Reconstructs each CDN's announced bids from an assembled problem
    /// (the inverse of `finish_round`'s cdn-major assembly, preserving the
    /// original per-CDN bid order).
    fn bids_by_cdn(problem: &BrokerProblem, cdns: usize) -> Vec<Vec<Bid>> {
        let mut per_cdn = vec![Vec::new(); cdns];
        for (g, opts) in problem.options.iter().enumerate() {
            for o in opts {
                per_cdn[o.cdn.index()].push(Bid {
                    cluster_id: o.cluster.0 as u64,
                    share_id: g as u64,
                    performance_estimate: o.score.value(),
                    capacity_kbps: o.believed_capacity_kbps.as_f64(),
                    price_per_mb: o.price_per_mb.as_per_megabit(),
                });
            }
        }
        per_cdn
    }

    #[test]
    fn deadline_finalize_substitutes_stale_bids_and_respects_known_failures() {
        let eco = build_eco(23);
        let n = eco.fleet.cdns.len();
        // Round 0, lossless: capture what every CDN actually announced.
        let (mut broker, mut agents, mut links) = make_exchange(&eco, FaultConfig::lossless());
        let first = drive_round(&eco, &mut broker, &mut agents, &mut links, 0, 10_000);
        let mut cache: StaleBidCache<Vec<Bid>> = StaleBidCache::new(n, 2);
        for (cdn, bids) in bids_by_cdn(&first.problem, n).into_iter().enumerate() {
            cache.store(cdn, 0, bids);
        }

        // Round 1 over a total blackout: nothing arrives, the whole round
        // is served from the cache and must reproduce round 0's choice.
        let (mut broker, mut agents, mut links) = make_exchange(&eco, blackout());
        broker.start_round(eco.groups.clone());
        for ms in 0..50 {
            let now = SimTime(ms);
            for (i, agent) in agents.iter_mut().enumerate() {
                agent.poll(now, &mut links[i], &eco.fleet, &|a: CityId, b: CityId| {
                    eco.net.score(&eco.world, a, b)
                });
            }
            broker.poll(now, &mut links);
        }
        let outcome = broker.finalize_at_deadline(SimTime(50), &mut links, &cache, 1, &[]);
        let DeadlineOutcome::Completed(result, report) = outcome else {
            panic!("cached bids cover every group; expected Completed");
        };
        assert_eq!(report.stale.len(), n, "every CDN substituted");
        assert!(report.fresh.is_empty() && report.excluded.is_empty());
        assert!(!report.is_clean());
        assert_eq!(
            result.assignment.choice, first.assignment.choice,
            "stale bids reproduce the cached round's decision"
        );

        // Round 2 with CDN 0 known failed: its cache entry must NOT be
        // reused — the CDN is excluded even though the entry is in TTL.
        broker.start_round(eco.groups.clone());
        let outcome = broker.finalize_at_deadline(SimTime(60), &mut links, &cache, 2, &[0]);
        let report = match outcome {
            DeadlineOutcome::Completed(_, report) => report,
            DeadlineOutcome::Fallback(report) => report,
        };
        assert!(report.excluded.contains(&CdnId(0)));
        assert!(!report.stale.iter().any(|(c, _)| *c == CdnId(0)));
    }

    #[test]
    fn deadline_finalize_with_nothing_falls_back() {
        use vdx_obs::MemoryProbe;
        let eco = build_eco(23);
        let n = eco.fleet.cdns.len();
        let (mut broker, _agents, mut links) = make_exchange(&eco, blackout());
        let probe = Arc::new(MemoryProbe::new());
        broker.set_probe(probe.clone());
        broker.start_round(eco.groups.clone());
        for ms in 0..20 {
            broker.poll(SimTime(ms), &mut links);
        }
        let cache: StaleBidCache<Vec<Bid>> = StaleBidCache::new(n, 2);
        let outcome = broker.finalize_at_deadline(SimTime(20), &mut links, &cache, 0, &[]);
        let DeadlineOutcome::Fallback(report) = outcome else {
            panic!("an empty cache cannot cover any group");
        };
        assert_eq!(report.excluded.len(), n);
        assert!(report.fresh.is_empty() && report.stale.is_empty());
        let events = probe.take();
        assert!(events.iter().any(|e| matches!(
            e,
            ObsEvent::DeadlineMissed { missing_cdns, .. } if *missing_cdns == n as u64
        )));
        assert!(events.iter().any(|e| matches!(
            e,
            ObsEvent::DesignFallback { to, .. } if to == "Brokered"
        )));
    }

    #[test]
    fn one_announce_equals_its_shares_bid_one_at_a_time() {
        // A batch of one share has no share before it to reuse, so the
        // concatenation is the per-share reference.
        let eco = build_eco(11);
        let shares = shares_of(&eco.groups);
        let scores = |a: CityId, b: CityId| eco.net.score(&eco.world, a, b);
        for cdn in &eco.fleet.cdns {
            let engine = BidEngine::new(
                cdn.id,
                BidPolicy::default(),
                MatchingConfig::default(),
                eco.fleet.clusters.len(),
                eco.background.clone(),
            );
            let one_at_a_time: Vec<Bid> = (shares.iter())
                .flat_map(|s| engine.build_bids(std::slice::from_ref(s), &eco.fleet, &scores))
                .collect();
            assert_eq!(
                engine.build_bids(&shares, &eco.fleet, &scores),
                one_at_a_time
            );
        }
    }

    #[test]
    fn design_aware_agents_match_the_pure_dynamic_pricing_round() {
        use vdx_cdn::median_capacity;
        let eco = build_eco(23);
        let n = eco.fleet.cdns.len();
        let design = Design::DynamicPricing;
        let matching = MatchingConfig::default().with_max_candidates(design.max_candidates());
        let mut links = Vec::new();
        let mut broker_eps = Vec::new();
        let mut agents = Vec::new();
        for i in 0..n {
            links.push(Link::new(FaultConfig::lossless(), 300 + i as u64));
            broker_eps.push(Endpoint::new(ReliableChannel::new(
                LinkEnd::A,
                ReliableConfig::default(),
            )));
            agents.push(CdnAgent::new(
                Endpoint::new(ReliableChannel::new(LinkEnd::B, ReliableConfig::default())),
                BidEngine::new(
                    CdnId(i as u32),
                    BidPolicy::default(),
                    matching.clone(),
                    eco.fleet.clusters.len(),
                    eco.background.clone(),
                )
                .with_design(
                    design,
                    eco.contracts[i].billed_price_per_mb(),
                    median_capacity(&eco.fleet, CdnId(i as u32)),
                ),
            ));
        }
        let mut broker = ExchangeBroker::new(
            broker_eps,
            ExchangeConfig {
                design,
                ..ExchangeConfig::default()
            },
        );
        let live = drive_round(&eco, &mut broker, &mut agents, &mut links, 0, 10_000);

        let inputs = crate::decision::RoundInputs {
            world: &eco.world,
            fleet: &eco.fleet,
            contracts: &eco.contracts,
            groups: &eco.groups,
            background_load_kbps: &eco.background,
            policy: CpPolicy::balanced(),
            bid_count: None,
            margins: None,
        };
        let pure = crate::decision::run_decision_round(design, &inputs, |a, b| {
            eco.net.score(&eco.world, a, b)
        });
        assert_eq!(live.assignment.choice.len(), pure.assignment.choice.len());
        assert!(
            (live.assignment.objective - pure.assignment.objective).abs() < 1e-6,
            "live {} vs pure {}",
            live.assignment.objective,
            pure.assignment.objective
        );
    }
}
