//! VDX as a live protocol: Share / Announce / Accept rounds between a
//! broker and per-CDN agents, and the **one round spine** every transport
//! of such rounds runs.
//!
//! [`crate::decision::run_decision_round`] is the *pure* form of the
//! Decision Protocol used by large-scale experiments (and the independent
//! oracle the spine is checked against); this module is the
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
//!   transport supplies [`RoundHooks`]: *collect* (what it saw of each
//!   CDN) and *commit* (how a decision becomes durable and visible), plus
//!   the Brokered round the ladder's last rung falls back to.
//!
//! Three transports do, and none lives here: the soak script
//! (`vdx-sim::soak`), the fault campaign's lossy simulated links
//! (`vdx-sim::faults`) and the TCP daemon (`vdx-exchanged`).
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
use vdx_proto::{AcceptEntry, Bid, Share};
use vdx_units::{Kbps, Margin, UsdPerGb};

/// The transport-free heart of a CDN agent: turns Shares into bids priced
/// by learned margins, and updates those margins on Accept feedback.
///
/// The fault campaign's agents (`vdx-sim::faults`) wrap this over a
/// reliable channel on a simulated link; the `vdx-agent` daemon client
/// wraps the same engine over a TCP
/// [`vdx_proto::transport::Connection`]. Every transport therefore bids —
/// and learns — identically, which is what makes driver parity checkable.
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
    /// `scores(client, site)` is the Estimate step's score; lower is
    /// better.
    pub fn build_bids(
        &self,
        shares: &[Share],
        fleet: &Fleet,
        scores: &impl Fn(CityId, CityId) -> Score,
    ) -> Vec<Bid> {
        let mut bids = Vec::new();
        // Shares arrive in the broker's group order, a city's side by side.
        let mut matcher = CityMatcher::new(fleet, &self.matching, scores);
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

/// What the degradation ladder ([`resolve_at_deadline`]) did to each
/// CDN of the round (DESIGN.md §9).
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
/// (ARCHITECTURE.md, "two drivers, one core"). The fault campaign's
/// simulated links are a third [`RoundHooks`] on the same spine.
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
/// degradation ladder, run by every transport (DESIGN.md §13).
///
/// A `Round` owns what carries from one round to the next — per-CDN
/// [`CircuitBreaker`]s, the stale-bid cache, the solver's warm context —
/// plus design, objective, journal probe and the deadline label. Every
/// transport calls [`Round::run`], so "same observations ⇒ same decision,
/// same journal" holds by construction; a transport only says, through
/// [`RoundHooks`], what it observed and how a decision is committed.
pub struct Round {
    design: Design,
    policy: CpPolicy,
    probe: Arc<dyn Probe>,
    /// Rounds are one sequential stream, so one context is exactly right;
    /// it runs the solver under the bit-exact reuse policy, keeping
    /// journals and decisions identical to context-free solves.
    ctx: OptimizeContext,
    breakers: Vec<CircuitBreaker>,
    cache: StaleBidCache<Vec<Bid>>,
    /// Labels `deadline_missed` journal events; the spine has no clock.
    deadline_ms: u64,
}

/// What a transport plugs into [`Round::run`].
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

    /// The problem the round optimized: on a fallback, the Brokered
    /// round's.
    pub fn problem(&self) -> &BrokerProblem {
        self.problem
    }

    /// The optimizer's assignment for [`Decision::problem`].
    pub fn assignment(&self) -> &BrokerAssignment {
        self.assignment
    }
}

/// A breaker's state change as a journal event.
fn health_event(round: u64, cdn: usize, t: HealthTransition) -> ObsEvent {
    ObsEvent::HealthTransition {
        round,
        cdn: cdn as u32,
        from: t.from.name().into(),
        to: t.to.name().into(),
        reason: t.reason.into(),
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
        Round {
            design,
            policy,
            probe,
            ctx: OptimizeContext::new(),
            breakers,
            cache,
            deadline_ms,
        }
    }

    /// Current health state of one CDN's breaker.
    pub fn breaker(&self, cdn: usize) -> &CircuitBreaker {
        &self.breakers[cdn]
    }

    /// Stores the bids of a round decided off the spine, by
    /// [`crate::decision::run_decision_round`], as every CDN's latest: a
    /// fault campaign's clean rounds take that pure path and still fill
    /// the stale cache. `problem`'s options are turned back into per-CDN
    /// bid batches in each CDN's own order (the inverse of
    /// [`assemble_options`]).
    pub fn store_pure_bids(&mut self, round: u64, problem: &BrokerProblem) {
        let mut per_cdn = vec![Vec::new(); self.breakers.len()];
        for (g, options) in problem.options.iter().enumerate() {
            for o in options {
                if let Some(bids) = per_cdn.get_mut(o.cdn.index()) {
                    bids.push(Bid {
                        cluster_id: o.cluster.0 as u64,
                        share_id: g as u64,
                        performance_estimate: o.score.value(),
                        capacity_kbps: o.believed_capacity_kbps.as_f64(),
                        price_per_mb: o.price_per_mb.as_per_megabit(),
                    });
                }
            }
        }
        for (cdn, bids) in per_cdn.into_iter().enumerate() {
            self.cache.store(cdn, round, bids);
        }
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
                if self.probe.enabled() {
                    self.probe.emit(health_event(round, cdn, t));
                }
            }
        }
        if self.probe.enabled() {
            self.probe.emit(ObsEvent::RoundStarted {
                round,
                design: self.design.name(),
                groups: groups.len() as u64,
                cdns: self.breakers.len() as u64,
            });
            self.probe.emit(ObsEvent::SharePublished {
                round,
                shares: groups.len() as u64,
                demand_kbps: groups.iter().map(|g| g.demand_kbps.as_f64()).sum(),
            });
        }
        let routable: Vec<bool> = self.breakers.iter().map(|b| b.allows_route()).collect();
        // Classify in CDN-index order: exactly one breaker observation per
        // CDN that was routed to, or should have been.
        let sources: Vec<BidSource> = hooks
            .collect_announces(round, &routable)
            .into_iter()
            .enumerate()
            .map(|(cdn, seen)| self.observe(round, cdn, seen))
            .collect();
        let resolution = resolve_at_deadline(
            round,
            self.design,
            sources,
            groups.len(),
            &self.cache,
            round,
            self.deadline_ms,
            self.probe.as_ref(),
        );
        match resolution {
            DeadlineResolution::Proceed(bids_per_cdn, report) => {
                // Only fresh bids refresh the cache, and only because the
                // round completes under its design (a fallback stores
                // nothing): a stale substitute is never re-stored as new.
                for cdn in &report.fresh {
                    self.cache
                        .store(cdn.index(), round, bids_per_cdn[cdn.index()].clone());
                }
                self.decide(round, groups, &bids_per_cdn, &report, hooks)
            }
            DeadlineResolution::Fallback(_) => {
                let outcome = hooks.brokered(round, self.policy, self.probe.as_ref());
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

    /// The tail of every round that completes under its design: assemble
    /// options, optimize, hand the decision to `hooks.commit`, then
    /// journal the Accept step and the round's completion.
    fn decide(
        &mut self,
        round: u64,
        groups: &[ClientGroup],
        bids_per_cdn: &[Vec<Bid>],
        report: &DegradationReport,
        hooks: &mut impl RoundHooks,
    ) -> DriverRound {
        let problem = BrokerProblem {
            groups: groups.to_vec(),
            options: assemble_options(groups.len(), bids_per_cdn),
        };
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
        let decision = Decision {
            round: &decided,
            fresh: &report.fresh,
            bids_per_cdn,
            problem: &problem,
            assignment: &assignment,
        };
        hooks.commit(&decision, &self.breakers, &self.cache);
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
        decided
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
            BidSource::Fresh(_) => breaker.on_success(round),
            BidSource::Silent | BidSource::Down => breaker.on_failure(round),
        };
        if self.probe.enabled() {
            if let BidSource::Fresh(bids) = &seen {
                self.probe.emit(ObsEvent::BidReceived {
                    round,
                    cdn: cdn as u32,
                    bids: bids.len() as u64,
                });
            }
            if probing {
                self.probe.emit(ObsEvent::HealthProbe {
                    round,
                    cdn: cdn as u32,
                    success: matches!(seen, BidSource::Fresh(_)),
                });
            }
            if let Some(t) = transition {
                self.probe.emit(health_event(round, cdn, t));
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decision::tests::{build_eco, TestEco};
    use crate::decision::{run_decision_round_probed, RoundId, RoundInputs};
    use vdx_cdn::median_capacity;
    use vdx_obs::MemoryProbe;

    fn inputs(eco: &TestEco) -> RoundInputs<'_> {
        RoundInputs {
            world: &eco.world,
            fleet: &eco.fleet,
            contracts: &eco.contracts,
            groups: &eco.groups,
            background_load_kbps: &eco.background,
            policy: CpPolicy::balanced(),
            bid_count: None,
            margins: None,
        }
    }

    /// A transport-free [`RoundHooks`] over the test ecosystem: every CDN's
    /// engine answers unless the test made it `silent` or `down`, and the
    /// commit hands each engine its Accept at once.
    struct Script<'a> {
        eco: &'a TestEco,
        engines: Vec<BidEngine>,
        silent: Vec<usize>,
        down: Vec<usize>,
    }

    impl<'a> Script<'a> {
        fn new(eco: &'a TestEco, design: Design) -> Script<'a> {
            let engines = (eco.fleet.cdns.iter())
                .map(|cdn| {
                    BidEngine::new(
                        cdn.id,
                        BidPolicy::default(),
                        design.matching(),
                        eco.fleet.clusters.len(),
                        eco.background.clone(),
                    )
                    .with_design(
                        design,
                        eco.contracts[cdn.id.index()].billed_price_per_mb(),
                        median_capacity(&eco.fleet, cdn.id),
                    )
                })
                .collect();
            Script {
                eco,
                engines,
                silent: Vec::new(),
                down: Vec::new(),
            }
        }

        fn bids(&self, cdn: usize) -> Vec<Bid> {
            let eco = self.eco;
            let scores = |a, b| eco.net.score(&eco.world, a, b);
            self.engines[cdn].build_bids(&shares_of(&eco.groups), &eco.fleet, &scores)
        }
    }

    impl RoundHooks for Script<'_> {
        fn collect_announces(&mut self, _round: u64, routable: &[bool]) -> Vec<BidSource> {
            (0..self.engines.len())
                .map(|cdn| {
                    if self.down.contains(&cdn) {
                        BidSource::Down
                    } else if !routable[cdn] || self.silent.contains(&cdn) {
                        BidSource::Silent
                    } else {
                        BidSource::Fresh(self.bids(cdn))
                    }
                })
                .collect()
        }

        fn brokered(&mut self, round: u64, _policy: CpPolicy, probe: &dyn Probe) -> RoundOutcome {
            let eco = self.eco;
            let scores = |a, b| eco.net.score(&eco.world, a, b);
            run_decision_round_probed(
                Design::Brokered,
                &inputs(eco),
                scores,
                RoundId(round),
                probe,
            )
        }

        fn commit(
            &mut self,
            decision: &Decision<'_>,
            _breakers: &[CircuitBreaker],
            _cache: &StaleBidCache<Vec<Bid>>,
        ) {
            for (cdn, engine) in self.engines.iter_mut().enumerate() {
                engine.learn(&decision.accepts(cdn), &self.eco.fleet);
            }
        }
    }

    fn spine(eco: &TestEco, design: Design, probe: Arc<dyn Probe>) -> Round {
        let n = eco.fleet.cdns.len();
        let breakers = (0..n).map(|_| CircuitBreaker::new(Default::default()));
        let cache = StaleBidCache::new(n, 2);
        Round::new(
            design,
            CpPolicy::balanced(),
            breakers.collect(),
            cache,
            50,
            probe,
        )
    }

    /// One spine round whose every CDN answers decides exactly what the
    /// pure round decides: same picks, same objective bits.
    fn assert_a_fresh_round_is_the_pure_round(design: Design) {
        let eco = build_eco(23);
        let mut script = Script::new(&eco, design);
        let live = spine(&eco, design, vdx_obs::probe::noop()).run(0, &eco.groups, &mut script);
        let pure = crate::decision::run_decision_round(design, &inputs(&eco), |a, b| {
            eco.net.score(&eco.world, a, b)
        });
        assert_eq!(live.resolution, RoundResolution::Fresh);
        assert_eq!(live.picks, picks_of(&pure.problem, &pure.assignment));
        assert_eq!(
            live.objective.to_bits(),
            pure.assignment.objective.to_bits(),
            "{design}"
        );
    }

    #[test]
    fn live_round_matches_pure_decision_round() {
        assert_a_fresh_round_is_the_pure_round(Design::Marketplace);
    }

    #[test]
    fn design_aware_agents_match_the_pure_dynamic_pricing_round() {
        assert_a_fresh_round_is_the_pure_round(Design::DynamicPricing);
    }

    #[test]
    fn losing_clusters_shade_their_margins_down() {
        let eco = build_eco(23);
        let mut script = Script::new(&eco, Design::Marketplace);
        let announced: Vec<Vec<Bid>> = (0..eco.fleet.cdns.len()).map(|c| script.bids(c)).collect();
        let mut round = spine(&eco, Design::Marketplace, vdx_obs::probe::noop());
        let decided = round.run(0, &eco.groups, &mut script);
        // A cluster that bid but never won.
        let won: Vec<u32> = decided.picks.iter().map(|&(_, cluster)| cluster).collect();
        let loser = (announced.iter().enumerate())
            .flat_map(|(cdn, bids)| bids.iter().map(move |b| (cdn, b.cluster_id as u32)))
            .find(|(_, cluster)| !won.contains(cluster));
        let Some((cdn, cluster)) = loser else {
            return; // every bidder won something; nothing to check
        };
        let margin = script.engines[cdn].margin(ClusterId(cluster));
        assert!(
            margin < BidPolicy::default().max_margin,
            "losing cluster's margin should have shaded down, still {margin}"
        );
    }

    #[test]
    fn probed_live_round_journals_the_auction() {
        let eco = build_eco(23);
        let probe = Arc::new(MemoryProbe::new());
        let mut round = spine(&eco, Design::Marketplace, probe.clone());
        let mut script = Script::new(&eco, Design::Marketplace);
        round.run(0, &eco.groups, &mut script);

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

        // The next round is journaled under its own id.
        round.run(1, &eco.groups, &mut script);
        let events = probe.take();
        assert!(matches!(
            events.first(),
            Some(ObsEvent::RoundStarted { round: 1, .. })
        ));
    }

    #[test]
    fn deadline_finalize_substitutes_stale_bids_and_respects_known_failures() {
        let eco = build_eco(23);
        let n = eco.fleet.cdns.len();
        let probe = Arc::new(MemoryProbe::new());
        let mut round = spine(&eco, Design::Marketplace, probe.clone());
        let mut script = Script::new(&eco, Design::Marketplace);
        // Round 0 fills the cache with what every CDN announced.
        let first = round.run(0, &eco.groups, &mut script);
        assert_eq!(first.resolution, RoundResolution::Fresh);

        // Round 1: nothing arrives, the whole round is served from the
        // cache and must reproduce round 0's decision.
        script.silent = (0..n).collect();
        let stale = round.run(1, &eco.groups, &mut script);
        assert_eq!(stale.resolution, RoundResolution::Degraded);
        assert_eq!(
            stale.picks, first.picks,
            "stale bids reproduce the cached round's decision"
        );
        let reused = |events: &[ObsEvent], r: u64| -> Vec<u32> {
            (events.iter())
                .filter_map(|e| match e {
                    ObsEvent::StaleBidsReused { round, cdn, .. } if *round == r => Some(*cdn),
                    _ => None,
                })
                .collect()
        };
        let events = probe.take();
        assert_eq!(reused(&events, 1), (0..n as u32).collect::<Vec<_>>());

        // Round 2 with CDN 0 known failed: its cache entry must NOT be
        // reused — the CDN is excluded even though the entry is in TTL.
        script.down = vec![0];
        let excluded = round.run(2, &eco.groups, &mut script);
        assert_eq!(excluded.resolution, RoundResolution::Degraded);
        assert!(excluded.picks.iter().all(|&(cdn, _)| cdn != 0));
        assert_eq!(reused(&probe.take(), 2), (1..n as u32).collect::<Vec<_>>());
    }

    #[test]
    fn deadline_finalize_with_nothing_falls_back() {
        let eco = build_eco(23);
        let n = eco.fleet.cdns.len();
        let probe = Arc::new(MemoryProbe::new());
        let mut script = Script::new(&eco, Design::Marketplace);
        script.silent = (0..n).collect();
        let decided =
            spine(&eco, Design::Marketplace, probe.clone()).run(0, &eco.groups, &mut script);
        assert_eq!(decided.resolution, RoundResolution::Fallback);
        assert_eq!(decided.picks.len(), eco.groups.len());
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
}
