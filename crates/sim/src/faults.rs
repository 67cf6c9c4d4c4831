//! Fault-injection campaigns with graceful degradation (DESIGN.md §9).
//!
//! Every other experiment runs the Decision Protocol as a pure in-process
//! function — messages cannot be lost. A fault campaign instead runs every
//! round of a design that consults the exchange on the spine the daemon
//! runs, [`vdx_core::Round`], with [`Links`] as its transport:
//! `vdx-proto`'s lossy [`Link`]s and Go-Back-N channels, stepped in
//! simulated time. A clean round is a round whose [`RoundFaults`] inject
//! nothing; it runs the same way. When Announces miss the round deadline
//! the spine walks its bounded degradation ladder:
//!
//! 1. **retry** — the reliable channel retransmits with exponential
//!    backoff, bounded by a retry budget;
//! 2. **stale reuse** — a missing CDN's last-seen bids are substituted
//!    from the spine's stale-bid cache while they are within the TTL
//!    (never for a CDN the plan declares failed: [`Links`] reports it
//!    `Down`);
//! 3. **exclude** — past the TTL the CDN simply sits the round out;
//! 4. **fall back** — if any client group ends up with no option at all,
//!    or the exchange itself is down, the round is re-run as Brokered:
//!    flat contracts are pre-negotiated, so Brokered needs no exchange
//!    traffic at all.
//!
//! Designs that never consult the exchange ([`Design::uses_exchange`] is
//! false) take the pure round of [`Scenario::run_round_probed`] in every
//! round, faulted or not. A clean round of an exchange design decides
//! what the pure round decides, bit for bit. Its journal adds the wire
//! events (`fault_plan_applied`, `wire_drops`) and carries the spine's
//! own `share_published` and `solver_stats`; [`Links`] tells the spine
//! the scenario's true load, so it journals the pure round's congestion.
//!
//! Determinism: link fault seeds are mixed from the plan seed, the round
//! id and the CDN index only; no wall clock, no shared counters. The same
//! `(scenario, plan)` always yields the same journal bytes.

use crate::metrics::{compute, DesignMetrics, MetricsInput};
use crate::scenario::Scenario;
use crate::soak::{brokered_round, round_engine};
use std::sync::Arc;
use vdx_broker::{BreakerConfig, CircuitBreaker, CpPolicy, StaleBidCache, STALE_TTL_ROUNDS};
use vdx_cdn::{ClusterId, Fleet};
use vdx_core::{
    shares_of, BidEngine, BidSource, CachedBids, Decision, Design, Round, RoundHooks, RoundId,
    RoundOutcome, RoundResolution,
};
use vdx_obs::{Event, Probe};
use vdx_proto::endpoint::{Endpoint, Event as LinkEvent, RequestId};
use vdx_proto::{Bid, FaultConfig, Link, LinkEnd, Message, SimTime};
use vdx_units::{Kbps, Margin};

/// The broker's per-round deadline in simulated time, ms: at this point
/// whatever has not arrived is substituted, excluded, or falls back.
pub const DEADLINE_MS: u64 = 3_000;

/// The faults injected into one campaign round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundFaults {
    /// Per-packet drop probability on every broker↔CDN link.
    pub drop_chance: f64,
    /// Per-packet corruption probability (caught by the frame CRC and
    /// discarded at the receiver, costing a retransmission).
    pub corrupt_chance: f64,
    /// Propagation delay added to every packet, ms.
    pub delay_ms: u64,
    /// Uniform extra delay jitter, ms.
    pub jitter_ms: u64,
    /// The exchange itself is down this round: no live round is even
    /// attempted; every exchange-dependent design falls back to Brokered.
    pub exchange_outage: bool,
    /// CDNs whose whole cluster is down this round: their links black
    /// out, their agents do not run, and their cached bids are unusable.
    pub failed_cdns: Vec<u32>,
}

impl RoundFaults {
    /// A round with no faults at all.
    pub fn none() -> RoundFaults {
        RoundFaults {
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            delay_ms: 0,
            jitter_ms: 0,
            exchange_outage: false,
            failed_cdns: Vec::new(),
        }
    }
}

impl Default for RoundFaults {
    fn default() -> Self {
        RoundFaults::none()
    }
}

/// A full campaign: per-round faults and the seed of their link faults.
/// The ladder runs at [`DEADLINE_MS`] and [`STALE_TTL_ROUNDS`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// One entry per campaign round, in order.
    pub rounds: Vec<RoundFaults>,
    /// Seed for the injected link faults (mixed with round and CDN ids).
    pub seed: u64,
}

impl FaultPlan {
    /// A plan of `rounds` clean rounds — a campaign under it reproduces
    /// the pure experiment numbers exactly.
    pub fn clean(rounds: usize) -> FaultPlan {
        FaultPlan {
            rounds: vec![RoundFaults::none(); rounds],
            seed: 0,
        }
    }
}

/// One resolved campaign round.
#[derive(Debug, Clone)]
pub struct CampaignRound {
    /// Which rung of the ladder the round ended on.
    pub availability: RoundResolution,
    /// Ground-truth quality of whatever assignment was made.
    pub metrics: DesignMetrics,
}

impl CampaignRound {
    fn scored(scenario: &Scenario, availability: RoundResolution, outcome: &RoundOutcome) -> Self {
        let metrics = compute(&MetricsInput { scenario, outcome });
        CampaignRound {
            availability,
            metrics,
        }
    }
}

/// A finished campaign for one design.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// The design the campaign ran.
    pub design: Design,
    /// Per-round resolutions, in plan order.
    pub rounds: Vec<CampaignRound>,
}

impl CampaignOutcome {
    fn count(&self, availability: RoundResolution) -> usize {
        self.rounds
            .iter()
            .filter(|r| r.availability == availability)
            .count()
    }

    /// Rounds completed on fresh information.
    pub fn live_rounds(&self) -> usize {
        self.count(RoundResolution::Fresh)
    }

    /// Rounds completed degraded (stale reuse or exclusions).
    pub fn degraded_rounds(&self) -> usize {
        self.count(RoundResolution::Degraded)
    }

    /// Rounds that fell back to Brokered.
    pub fn fallback_rounds(&self) -> usize {
        self.count(RoundResolution::Fallback)
    }

    /// Arithmetic mean of every metric over the campaign's rounds.
    pub fn mean_metrics(&self) -> DesignMetrics {
        let n = self.rounds.len().max(1) as f64;
        let sum = |f: fn(&DesignMetrics) -> f64| -> f64 {
            self.rounds.iter().map(|r| f(&r.metrics)).sum::<f64>() / n
        };
        DesignMetrics {
            cost: sum(|m| m.cost),
            score: sum(|m| m.score),
            distance_miles: sum(|m| m.distance_miles),
            load_pct: sum(|m| m.load_pct),
            congested_pct: sum(|m| m.congested_pct),
            mean_cost: sum(|m| m.mean_cost),
            mean_score: sum(|m| m.mean_score),
        }
    }
}

/// A CDN-side marketplace agent on a simulated link: answers Share
/// requests with its engine's bids and learns margins from Accepts.
struct CdnAgent {
    endpoint: Endpoint,
    engine: BidEngine,
}

impl CdnAgent {
    /// Advances the agent: answers Shares with Announces, learns from
    /// Accepts.
    fn poll(&mut self, now: SimTime, link: &mut Link, scenario: &Scenario) {
        for event in self.endpoint.poll_events(now, link) {
            match event {
                LinkEvent::Request(id, Message::Share(shares)) => {
                    let bids = scenario.announce(&self.engine, &shares);
                    self.endpoint.respond(id, &Message::Announce(bids));
                }
                LinkEvent::OneWay(Message::Accept(entries)) => {
                    self.engine.learn(&entries, &scenario.fleet);
                }
                // Anything else (decode errors on a lossy link surface as
                // events too) is ignored; the reliable layer already
                // guarantees ordered delivery of intact messages.
                _ => {}
            }
        }
    }
}

/// The fault campaign's transport, a [`RoundHooks`] beside the soak
/// script and the daemon's TCP: one lossy [`Link`] per CDN, the broker's
/// reliable endpoint on end A and the CDN's [`BidEngine`] agent on end B,
/// stepped one simulated millisecond at a time.
///
/// Agents and channels live as long as the value: a campaign builds one
/// per round, a caller that keeps one across rounds keeps agents
/// that learn their margins from the Accepts (`examples/live_exchange.rs`).
pub struct Links<'a> {
    scenario: &'a Scenario,
    design: Design,
    links: Vec<Link>,
    endpoints: Vec<Endpoint>,
    agents: Vec<CdnAgent>,
    /// CDNs whose cluster is down: their links black out, their agents
    /// do not run, and collection reports them `Down`.
    failed: Vec<usize>,
    /// Simulated time, ms: the last step taken.
    now: u64,
    /// The last committed round, scored.
    decided: Option<CampaignRound>,
}

impl<'a> Links<'a> {
    /// Links to every CDN of `scenario` carrying one round's `faults`,
    /// with agents bidding by `design`. Link `i`'s fault stream is seeded
    /// from `seed` and `i`; collection waits at most [`DEADLINE_MS`] of
    /// simulated time.
    pub fn new(
        scenario: &'a Scenario,
        design: Design,
        faults: &RoundFaults,
        seed: u64,
    ) -> Links<'a> {
        let n = scenario.fleet.cdns.len();
        let failed: Vec<usize> = faults.failed_cdns.iter().map(|&c| c as usize).collect();
        let link = |cdn: usize| {
            let config = if failed.contains(&cdn) {
                // A failed CDN's link blacks out entirely.
                FaultConfig {
                    drop_chance: 1.0,
                    corrupt_chance: 0.0,
                    delay_ms: 0,
                    jitter_ms: 0,
                }
            } else {
                FaultConfig {
                    drop_chance: faults.drop_chance,
                    corrupt_chance: faults.corrupt_chance,
                    delay_ms: faults.delay_ms,
                    jitter_ms: faults.jitter_ms,
                }
            };
            Link::new(config, seed ^ (cdn as u64).wrapping_mul(0xC2B2_AE35))
        };
        let agent = |cdn: usize| CdnAgent {
            endpoint: Endpoint::new(LinkEnd::B),
            engine: round_engine(scenario, design, cdn as u32),
        };
        Links {
            scenario,
            design,
            links: (0..n).map(link).collect(),
            endpoints: (0..n).map(|_| Endpoint::new(LinkEnd::A)).collect(),
            agents: (0..n).map(agent).collect(),
            failed,
            now: 0,
            decided: None,
        }
    }

    /// CDN `cdn`'s learned margin for one of its clusters.
    pub fn margin(&self, cdn: usize, cluster: ClusterId) -> Margin {
        self.agents[cdn].engine.margin(cluster)
    }

    /// The link to CDN `cdn`.
    pub fn link(&self, cdn: usize) -> &Link {
        &self.links[cdn]
    }

    /// One simulated millisecond: every live agent, then every broker
    /// endpoint, polls its link; an Announce answering `requests[cdn]`
    /// lands in `answers[cdn]`.
    fn step(&mut self, requests: &[Option<RequestId>], answers: &mut [Option<Vec<Bid>>]) {
        let now = SimTime(self.now);
        let scenario = self.scenario;
        for (cdn, agent) in self.agents.iter_mut().enumerate() {
            if !self.failed.contains(&cdn) {
                agent.poll(now, &mut self.links[cdn], scenario);
            }
        }
        for (cdn, endpoint) in self.endpoints.iter_mut().enumerate() {
            for event in endpoint.poll_events(now, &mut self.links[cdn]) {
                if let LinkEvent::Response(id, Message::Announce(bids)) = event {
                    if requests[cdn] == Some(id) {
                        answers[cdn] = Some(bids);
                    }
                }
            }
        }
    }

    /// Wire accounting: what the injected faults and the Go-Back-N layer
    /// dropped on each broker↔CDN link so far.
    fn journal_wire_drops(&self, round: u64, probe: &dyn Probe) {
        if !probe.enabled() {
            return;
        }
        for (cdn, link) in self.links.iter().enumerate() {
            let broker = self.endpoints[cdn].channel_stats();
            let agent = self.agents[cdn].endpoint.channel_stats();
            probe.emit(Event::WireDrops {
                round,
                cdn: cdn as u32,
                link_dropped: link.stats(LinkEnd::A).dropped + link.stats(LinkEnd::B).dropped,
                corrupt_discarded: broker.discarded + agent.discarded,
                out_of_order: broker.out_of_order + agent.out_of_order,
            });
        }
    }
}

impl RoundHooks for Links<'_> {
    /// Shares with every routable CDN, then steps the links until each
    /// has answered or the deadline passes.
    fn collect_announces(&mut self, _round: u64, routable: &[bool]) -> Vec<BidSource> {
        let share = Message::Share(shares_of(&self.scenario.groups));
        let requests: Vec<Option<RequestId>> = (self.endpoints.iter_mut().zip(routable))
            .map(|(endpoint, &asked)| asked.then(|| endpoint.request(&share)))
            .collect();
        let asked = requests.iter().flatten().count();
        let mut answers: Vec<Option<Vec<Bid>>> = vec![None; requests.len()];
        let deadline = self.now + DEADLINE_MS;
        while self.now < deadline {
            self.step(&requests, &mut answers);
            if answers.iter().flatten().count() == asked {
                break;
            }
            self.now += 1;
        }
        let failed = &self.failed;
        (answers.into_iter().zip(&requests).enumerate())
            .map(|(cdn, (answer, asked))| match answer {
                Some(bids) => BidSource::Fresh(bids),
                None if asked.is_none() || failed.contains(&cdn) => BidSource::Down,
                None => BidSource::Silent,
            })
            .collect()
    }

    fn brokered(&mut self, round: u64, policy: CpPolicy, probe: &dyn Probe) -> RoundOutcome {
        brokered_round(self.scenario, round, policy, probe)
    }

    /// The Accept fan-out, each kicked onto its link at once, then the
    /// round's score.
    fn commit(
        &mut self,
        decision: &Decision<'_>,
        _breakers: &[CircuitBreaker],
        _cache: &StaleBidCache<CachedBids>,
    ) {
        let resolution = decision.round.resolution;
        if resolution != RoundResolution::Fallback {
            let now = SimTime(self.now);
            for (cdn, endpoint) in self.endpoints.iter_mut().enumerate() {
                endpoint.send_oneway(&Message::Accept(decision.accepts(cdn)));
                endpoint.poll_events(now, &mut self.links[cdn]);
            }
        }
        let outcome = RoundOutcome {
            design: self.design,
            problem: decision.problem().clone(),
            assignment: decision.assignment().clone(),
        };
        self.decided = Some(CampaignRound::scored(self.scenario, resolution, &outcome));
    }

    /// The scenario's truth: the spine journals congestion by it.
    fn true_load(&self) -> Option<(&Fleet, &[Kbps])> {
        Some((&self.scenario.fleet, &self.scenario.background_load))
    }
}

/// Runs one fault campaign: `plan.rounds.len()` sequential Decision
/// Protocol rounds for `design`, journaled under round ids `base_round`,
/// `base_round + 1`, … A design that consults the exchange runs every
/// round, clean or faulted, on one [`Round`] that spans the campaign (its
/// breakers, stale cache and solver context, and only its), so campaigns
/// are independent of each other and safe to fan out. Any other design
/// runs the pure round throughout.
pub fn run_campaign(
    scenario: &Scenario,
    design: Design,
    policy: CpPolicy,
    plan: &FaultPlan,
    base_round: u64,
    probe: Arc<dyn Probe>,
) -> CampaignOutcome {
    if !design.uses_exchange() {
        // A design that decides from pre-negotiated contract data alone
        // never consults the exchange, so no fault reaches its rounds.
        let rounds = (base_round..base_round + plan.rounds.len() as u64)
            .map(|round| {
                let outcome =
                    scenario.run_round_probed(RoundId(round), design, policy, None, probe.as_ref());
                CampaignRound::scored(scenario, RoundResolution::Fresh, &outcome)
            })
            .collect();
        return CampaignOutcome { design, rounds };
    }
    let n = scenario.fleet.cdns.len();
    // The daemon's breaker policy. Its one-round cool-down half-opens a
    // tripped breaker at the next round's start, so every CDN is asked
    // every round.
    let breakers = (0..n).map(|_| CircuitBreaker::new(BreakerConfig::default()));
    let cache = StaleBidCache::new(n, STALE_TTL_ROUNDS);
    let mut spine = Round::new(
        design,
        policy,
        breakers.collect(),
        cache,
        DEADLINE_MS,
        probe.clone(),
    );
    let mut rounds = Vec::with_capacity(plan.rounds.len());

    for (i, faults) in plan.rounds.iter().enumerate() {
        let round = base_round + i as u64;

        if probe.enabled() {
            probe.emit(Event::FaultPlanApplied {
                round,
                drop_chance: faults.drop_chance,
                corrupt_chance: faults.corrupt_chance,
                delay_ms: faults.delay_ms,
                jitter_ms: faults.jitter_ms,
                exchange_outage: faults.exchange_outage,
                failed_cdns: faults.failed_cdns.len() as u64,
                deadline_ms: DEADLINE_MS,
            });
            for &cdn in &faults.failed_cdns {
                probe.emit(Event::CdnOutage { round, cdn });
            }
        }

        if faults.exchange_outage {
            // The exchange is down: no live round is attempted at all.
            if probe.enabled() {
                probe.emit(Event::ExchangeOutage { round });
                probe.emit(Event::DesignFallback {
                    round,
                    from: design.name(),
                    to: Design::Brokered.name(),
                    reason: "exchange outage".into(),
                });
            }
            let outcome = brokered_round(scenario, round, policy, probe.as_ref());
            rounds.push(CampaignRound::scored(
                scenario,
                RoundResolution::Fallback,
                &outcome,
            ));
            continue;
        }

        let seed = plan.seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut links = Links::new(scenario, design, faults, seed);
        spine.run(round, &scenario.groups, &mut links);
        links.journal_wire_drops(round, probe.as_ref());
        #[expect(
            clippy::expect_used,
            reason = "`Round::run` commits every round it runs, and `Links::commit` records it"
        )]
        rounds.push(links.decided.expect("Round::run commits every round"));
    }

    CampaignOutcome { design, rounds }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::shared_small;
    use vdx_cdn::DEFAULT_MARKUP;
    use vdx_obs::MemoryProbe;

    fn plan(rounds: Vec<RoundFaults>) -> FaultPlan {
        FaultPlan {
            rounds,
            ..FaultPlan::clean(0)
        }
    }

    fn delayed() -> RoundFaults {
        RoundFaults {
            delay_ms: 20,
            ..RoundFaults::none()
        }
    }

    #[test]
    fn delay_only_rounds_over_the_links_decide_as_the_pure_round_for_every_exchange_design() {
        let s = shared_small();
        for design in Design::TABLE3.into_iter().filter(Design::uses_exchange) {
            let campaign = run_campaign(
                s,
                design,
                CpPolicy::balanced(),
                &plan(vec![RoundFaults::none(), delayed(), delayed()]),
                0,
                vdx_obs::probe::noop(),
            );
            let pure = s.run(design, CpPolicy::balanced());
            let expected = compute(&MetricsInput {
                scenario: s,
                outcome: &pure,
            });
            for round in &campaign.rounds {
                assert_eq!(round.availability, RoundResolution::Fresh, "{design}");
                assert_eq!(round.metrics, expected, "{design}");
            }
        }
    }

    #[test]
    fn a_plan_failed_cdn_is_down_and_its_cached_bids_are_never_reused() {
        let s = shared_small();
        let blackout = RoundFaults {
            drop_chance: 1.0,
            ..RoundFaults::none()
        };
        let cdn0_failed = RoundFaults {
            failed_cdns: vec![0],
            ..RoundFaults::none()
        };
        let (probe, rx) = MemoryProbe::channel();
        let campaign = run_campaign(
            s,
            Design::Marketplace,
            CpPolicy::balanced(),
            &plan(vec![RoundFaults::none(), cdn0_failed, blackout]),
            0,
            Arc::new(probe),
        );
        let events: Vec<Event> = rx.try_iter().collect();
        let reused = |r: u64| -> Vec<u32> {
            (events.iter())
                .filter_map(|e| match e {
                    Event::StaleBidsReused { round, cdn, .. } if *round == r => Some(*cdn),
                    _ => None,
                })
                .collect()
        };
        let answered = |r: u64| -> Vec<u32> {
            (events.iter())
                .filter_map(|e| match e {
                    Event::BidReceived { round, cdn, .. } if *round == r => Some(*cdn),
                    _ => None,
                })
                .collect()
        };
        let n = s.fleet.cdns.len() as u32;
        // Round 1: everyone else answers; CDN 0 is excluded although
        // round 0 left it a cache entry under the TTL...
        assert_eq!(campaign.rounds[1].availability, RoundResolution::Degraded);
        assert_eq!(answered(1), (1..n).collect::<Vec<_>>());
        assert_eq!(reused(1), Vec::<u32>::new());
        // ...which a merely silent CDN 0 does get in round 2.
        assert_eq!(campaign.rounds[2].availability, RoundResolution::Degraded);
        assert!(reused(2).contains(&0));
    }

    #[test]
    fn links_kept_across_rounds_carry_accepts_back_to_learning_agents() {
        let s = shared_small();
        let design = Design::Marketplace;
        let n = s.fleet.cdns.len();
        let breakers = (0..n).map(|_| CircuitBreaker::new(BreakerConfig::default()));
        let cache = StaleBidCache::new(n, STALE_TTL_ROUNDS);
        let noop = vdx_obs::probe::noop();
        let mut spine = Round::new(
            design,
            CpPolicy::balanced(),
            breakers.collect(),
            cache,
            DEADLINE_MS,
            noop,
        );
        let mut links = Links::new(s, design, &delayed(), 7);
        let first = spine.run(0, &s.groups, &mut links);
        // Round 1's collection delivers round 0's Accepts first.
        spine.run(1, &s.groups, &mut links);

        let shares = shares_of(&s.groups);
        let won: Vec<u32> = first.picks.iter().map(|&(_, cluster)| cluster).collect();
        let loser = (0..n)
            .flat_map(|cdn| {
                let bids = s.announce(&round_engine(s, design, cdn as u32), &shares);
                bids.into_iter()
                    .map(move |b| (cdn, ClusterId(b.cluster_id as u32)))
            })
            .find(|(_, cluster)| !won.contains(&cluster.0));
        let (cdn, cluster) = loser.expect("some bid loses round 0");
        let margin = links.margin(cdn, cluster);
        assert!(
            margin < DEFAULT_MARKUP,
            "a cluster that lost round 0 still bids at {margin}"
        );
    }
}
