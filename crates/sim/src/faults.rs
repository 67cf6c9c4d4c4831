//! Fault-injection campaigns with graceful degradation (DESIGN.md §9).
//!
//! Every other experiment runs the Decision Protocol as a pure in-process
//! function — messages cannot be lost. A fault campaign instead routes the
//! rounds a [`FaultPlan`] marks as faulty through `vdx-proto`'s lossy
//! [`Link`]s and Go-Back-N channels, with the broker walking a bounded
//! degradation ladder when Announces miss the round deadline:
//!
//! 1. **retry** — the reliable channel retransmits with exponential
//!    backoff, bounded by a retry budget;
//! 2. **stale reuse** — a missing CDN's last-seen bids are substituted
//!    from a [`StaleBidCache`] while they are within the TTL (never for a
//!    CDN the plan declares failed);
//! 3. **exclude** — past the TTL the CDN simply sits the round out;
//! 4. **fall back** — if any client group ends up with no option at all,
//!    or the exchange itself is down, the round is re-run as Brokered:
//!    flat contracts are pre-negotiated, so Brokered needs no exchange
//!    traffic at all.
//!
//! Rounds whose [`RoundFaults`] entry is clean — and *all* rounds of
//! designs that never consult the exchange ([`Design::uses_exchange`] is
//! false) — take the exact pure fast path of [`Scenario::run_round_probed`],
//! so a campaign under an all-clean plan is event-for-event and
//! bit-for-bit identical to the ordinary experiment engine.
//!
//! Determinism: link fault seeds are mixed from the plan seed, the round
//! id and the CDN index only; no wall clock, no shared counters. The same
//! `(scenario, plan)` always yields the same journal bytes.

use crate::metrics::{compute, DesignMetrics, MetricsInput};
use crate::scenario::Scenario;
use crate::soak::{brokered_round, round_engine};
use std::sync::Arc;
use vdx_broker::{BrokerProblem, CpPolicy, StaleBidCache};
use vdx_cdn::CdnId;
use vdx_core::{
    CdnAgent, DeadlineOutcome, DegradationReport, Design, ExchangeBroker, ExchangeConfig,
    LiveRoundResult, RoundId, RoundOutcome,
};
use vdx_geo::CityId;
use vdx_obs::{Event, Probe};
use vdx_proto::endpoint::Endpoint;
use vdx_proto::reliable::{ReliableChannel, ReliableConfig};
use vdx_proto::{Bid, FaultConfig, Link, LinkEnd, SimTime};

/// The faults injected into one campaign round.
#[derive(Debug, Clone)]
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

    /// Whether this round injects nothing — clean rounds take the pure
    /// in-process fast path and are byte-identical to a plain round.
    pub fn is_clean(&self) -> bool {
        self.drop_chance == 0.0
            && self.corrupt_chance == 0.0
            && self.delay_ms == 0
            && self.jitter_ms == 0
            && !self.exchange_outage
            && self.failed_cdns.is_empty()
    }
}

impl Default for RoundFaults {
    fn default() -> Self {
        RoundFaults::none()
    }
}

/// A full campaign: per-round faults plus the degradation-policy knobs.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// One entry per campaign round, in order.
    pub rounds: Vec<RoundFaults>,
    /// Seed for the injected link faults (mixed with round and CDN ids).
    pub seed: u64,
    /// How many rounds old cached bids may be and still substitute for a
    /// missing Announce (degradation level 2).
    pub stale_ttl_rounds: u64,
    /// The broker's per-round deadline, ms: at this point whatever has
    /// not arrived is substituted, excluded, or falls back.
    pub deadline_ms: u64,
}

impl FaultPlan {
    /// A plan of `rounds` clean rounds — a campaign under it reproduces
    /// the pure experiment numbers exactly.
    pub fn clean(rounds: usize) -> FaultPlan {
        FaultPlan {
            rounds: vec![RoundFaults::none(); rounds],
            seed: 0,
            stale_ttl_rounds: 2,
            deadline_ms: 3_000,
        }
    }

    /// Whether every round of the plan is clean.
    pub fn is_clean(&self) -> bool {
        self.rounds.iter().all(RoundFaults::is_clean)
    }
}

/// How a campaign round was resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundAvailability {
    /// Completed on fresh information (possibly after retransmissions).
    Live,
    /// Completed, but on stale substitutions and/or with CDNs excluded.
    Degraded,
    /// The design gave up and the round ran as Brokered.
    Fallback,
}

/// One resolved campaign round.
#[derive(Debug, Clone)]
pub struct CampaignRound {
    /// How the round was resolved.
    pub availability: RoundAvailability,
    /// Ground-truth quality of whatever assignment was made.
    pub metrics: DesignMetrics,
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
    fn count(&self, availability: RoundAvailability) -> usize {
        self.rounds
            .iter()
            .filter(|r| r.availability == availability)
            .count()
    }

    /// Rounds completed on fresh information.
    pub fn live_rounds(&self) -> usize {
        self.count(RoundAvailability::Live)
    }

    /// Rounds completed degraded (stale reuse or exclusions).
    pub fn degraded_rounds(&self) -> usize {
        self.count(RoundAvailability::Degraded)
    }

    /// Rounds that fell back to Brokered.
    pub fn fallback_rounds(&self) -> usize {
        self.count(RoundAvailability::Fallback)
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

/// Reconstructs each CDN's announced bid list from an assembled problem —
/// the inverse of the exchange's cdn-major option assembly, preserving
/// every CDN's original bid order. Used to (re)fill the stale-bid cache
/// from both live and pure rounds.
fn bids_by_cdn(problem: &BrokerProblem, cdns: usize) -> Vec<Vec<Bid>> {
    let mut per_cdn = vec![Vec::new(); cdns];
    for (g, opts) in problem.options.iter().enumerate() {
        for o in opts {
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
    per_cdn
}

/// Deterministic per-(round, CDN) link fault seed.
fn link_seed(plan: &FaultPlan, round: u64, cdn: usize) -> u64 {
    plan.seed ^ round.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (cdn as u64).wrapping_mul(0xC2B2_AE35)
}

/// Runs one fault campaign: `plan.rounds.len()` sequential Decision
/// Protocol rounds for `design`, journaled under round ids `base_round`,
/// `base_round + 1`, … The stale-bid cache carries across the campaign's
/// rounds (and only within it), so campaigns are independent of each
/// other and safe to fan out.
pub fn run_campaign(
    scenario: &Scenario,
    design: Design,
    policy: CpPolicy,
    plan: &FaultPlan,
    base_round: u64,
    probe: Arc<dyn Probe>,
) -> CampaignOutcome {
    let n = scenario.fleet.cdns.len();
    let mut cache: StaleBidCache<Vec<Bid>> = StaleBidCache::new(n, plan.stale_ttl_rounds);
    let mut rounds = Vec::with_capacity(plan.rounds.len());

    for (i, faults) in plan.rounds.iter().enumerate() {
        let round_id = base_round + i as u64;
        let campaign_idx = i as u64;

        // Clean rounds — and every round of a design that decides from
        // pre-negotiated contract data alone — take the pure fast path:
        // no wire, no fault events, bit-identical to a plain round.
        if faults.is_clean() || !design.uses_exchange() {
            let outcome =
                scenario.run_round_probed(RoundId(round_id), design, policy, None, probe.as_ref());
            if design.uses_exchange() {
                for (cdn, bids) in bids_by_cdn(&outcome.problem, n).into_iter().enumerate() {
                    cache.store(cdn, campaign_idx, bids);
                }
            }
            let metrics = compute(&MetricsInput {
                scenario,
                outcome: &outcome,
            });
            rounds.push(CampaignRound {
                availability: RoundAvailability::Live,
                metrics,
            });
            continue;
        }

        if probe.enabled() {
            probe.emit(Event::FaultPlanApplied {
                round: round_id,
                drop_chance: faults.drop_chance,
                corrupt_chance: faults.corrupt_chance,
                delay_ms: faults.delay_ms,
                jitter_ms: faults.jitter_ms,
                exchange_outage: faults.exchange_outage,
                failed_cdns: faults.failed_cdns.len() as u64,
                deadline_ms: plan.deadline_ms,
            });
            for &cdn in &faults.failed_cdns {
                probe.emit(Event::CdnOutage {
                    round: round_id,
                    cdn,
                });
            }
        }

        if faults.exchange_outage {
            // The exchange is down: no live round is attempted at all.
            if probe.enabled() {
                probe.emit(Event::ExchangeOutage { round: round_id });
                probe.emit(Event::DesignFallback {
                    round: round_id,
                    from: design.name(),
                    to: Design::Brokered.name(),
                    reason: "exchange outage".into(),
                });
            }
            rounds.push(brokered_fallback(scenario, policy, round_id, &probe));
            continue;
        }

        // Live round over faulty links.
        let failed: Vec<usize> = faults.failed_cdns.iter().map(|&c| c as usize).collect();
        let channel_config = ReliableConfig {
            backoff: 1.5,
            max_retries: Some(16),
            ..ReliableConfig::default()
        };
        let mut links = Vec::with_capacity(n);
        let mut broker_eps = Vec::with_capacity(n);
        let mut agents = Vec::with_capacity(n);
        for cdn in 0..n {
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
            links.push(Link::new(config, link_seed(plan, round_id, cdn)));
            broker_eps.push(Endpoint::new(ReliableChannel::new(
                LinkEnd::A,
                channel_config.clone(),
            )));
            agents.push(CdnAgent::new(
                Endpoint::new(ReliableChannel::new(LinkEnd::B, channel_config.clone())),
                round_engine(scenario, design, cdn as u32),
            ));
        }
        let mut broker = ExchangeBroker::new(broker_eps, ExchangeConfig { design, policy });
        broker.set_probe(probe.clone());
        broker.set_next_round_id(round_id);
        broker.start_round(scenario.groups.clone());

        let mut early: Option<LiveRoundResult> = None;
        for ms in 0..plan.deadline_ms {
            let now = SimTime(ms);
            for (cdn, agent) in agents.iter_mut().enumerate() {
                if failed.contains(&cdn) {
                    continue; // a failed CDN's agent is down too
                }
                agent.poll(
                    now,
                    &mut links[cdn],
                    &scenario.fleet,
                    &|a: CityId, b: CityId| scenario.score_of(a, b),
                );
            }
            if let Some(result) = broker.poll(now, &mut links) {
                early = Some(result);
                break;
            }
        }

        let outcome = match early {
            // Every Announce arrived in time: all CDNs are fresh.
            Some(result) => DeadlineOutcome::Completed(
                result,
                DegradationReport {
                    fresh: (0..n as u32).map(CdnId).collect(),
                    ..DegradationReport::default()
                },
            ),
            None => broker.finalize_at_deadline(
                SimTime(plan.deadline_ms),
                &mut links,
                &cache,
                campaign_idx,
                &failed,
            ),
        };

        // Wire accounting: what the injected faults and the Go-Back-N
        // layer actually dropped on each broker↔CDN link this round.
        if probe.enabled() {
            for cdn in 0..n {
                let a = links[cdn].stats(LinkEnd::A);
                let b = links[cdn].stats(LinkEnd::B);
                let broker_ch = broker.channel_stats(cdn);
                let agent_ch = agents[cdn].channel_stats();
                probe.emit(Event::WireDrops {
                    round: round_id,
                    cdn: cdn as u32,
                    link_dropped: a.dropped + b.dropped,
                    corrupt_discarded: broker_ch.discarded + agent_ch.discarded,
                    out_of_order: broker_ch.out_of_order + agent_ch.out_of_order,
                });
            }
        }

        match outcome {
            DeadlineOutcome::Completed(result, report) => {
                // Only *fresh* bids refresh the cache: a stale
                // substitution must never be re-stored as if just seen.
                for (cdn, bids) in bids_by_cdn(&result.problem, n).into_iter().enumerate() {
                    if report.fresh.contains(&CdnId(cdn as u32)) {
                        cache.store(cdn, campaign_idx, bids);
                    }
                }
                let outcome = RoundOutcome {
                    design,
                    problem: result.problem,
                    assignment: result.assignment,
                };
                let metrics = compute(&MetricsInput {
                    scenario,
                    outcome: &outcome,
                });
                rounds.push(CampaignRound {
                    availability: if report.is_clean() {
                        RoundAvailability::Live
                    } else {
                        RoundAvailability::Degraded
                    },
                    metrics,
                });
            }
            // `finalize_at_deadline` already journaled the DesignFallback.
            DeadlineOutcome::Fallback(_) => {
                rounds.push(brokered_fallback(scenario, policy, round_id, &probe));
            }
        }
    }

    CampaignOutcome { design, rounds }
}

/// Runs the Brokered fallback round (degradation level 4) and scores it.
fn brokered_fallback(
    scenario: &Scenario,
    policy: CpPolicy,
    round_id: u64,
    probe: &Arc<dyn Probe>,
) -> CampaignRound {
    let outcome = brokered_round(scenario, round_id, policy, probe.as_ref());
    let metrics = compute(&MetricsInput {
        scenario,
        outcome: &outcome,
    });
    CampaignRound {
        availability: RoundAvailability::Fallback,
        metrics,
    }
}
