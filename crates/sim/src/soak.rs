//! The soak harness: a transport-free reference driver for the
//! `vdx-exchanged` daemon, plus the plan format both sides replay.
//!
//! The daemon and this reference are two drivers of the *same*
//! [`vdx_core::Round`] (ARCHITECTURE.md, "two drivers, one core"): the
//! spine owns breakers, stale cache, ladder, optimization and journal;
//! a driver only says what its transport observed. The reference's
//! transport is a script — [`SoakPlan`] names the CDNs silent on each
//! round, everyone else answers with the bids a fresh [`BidEngine`]
//! builds (re-instantiated every round, like the fault campaign's
//! per-round agents and the daemon agent's default, so prices cannot
//! drift between drivers) — and it commits nothing.
//!
//! The daemon's soak test replays one plan through both and asserts the
//! [`vdx_core::DriverRound`] sequences and the journals are equal. With
//! one spine that no longer guards against the two drifting apart in
//! logic; it proves the daemon's *transport* classifies a silenced,
//! dropped or unrouted agent as the script says, and that commit
//! ordering does not leak into decisions. [`run_reference`] is also what
//! recovery, chaos and the benchmark's parity check compare against.

use crate::scenario::Scenario;
use std::sync::Arc;
use vdx_broker::{BreakerConfig, CircuitBreaker, CpPolicy, StaleBidCache, STALE_TTL_ROUNDS};
use vdx_cdn::{median_capacity, CdnId};
use vdx_core::{
    BidEngine, BidSource, Design, DriverRound, ExchangeDriver, Round, RoundHooks, RoundId,
    RoundOutcome,
};
use vdx_obs::Probe;
use vdx_proto::Share;

/// The round's Share batch for the scenario's client groups.
pub fn shares_of(scenario: &Scenario) -> Vec<Share> {
    vdx_core::shares_of(&scenario.groups)
}

/// The degradation ladder's last rung for a driver that holds the
/// scenario: `round` re-run as Brokered from contract data.
pub fn brokered_round(
    scenario: &Scenario,
    round: u64,
    policy: CpPolicy,
    probe: &dyn Probe,
) -> RoundOutcome {
    scenario.run_round_probed(RoundId(round), Design::Brokered, policy, None, probe)
}

/// Builds one CDN's per-round bid engine, configured exactly like the
/// fault campaign's per-round agents (and the daemon's `vdx-agent`).
pub fn round_engine(scenario: &Scenario, design: Design, cdn: u32) -> BidEngine {
    let cdn = CdnId(cdn);
    BidEngine::new(
        cdn,
        design,
        scenario.background_load.clone(),
        scenario.contracts[cdn.index()].billed_price_per_mb(),
        median_capacity(&scenario.fleet, cdn),
    )
}

/// What one soak round injects: the CDNs whose agents stay silent (they
/// receive the Share but never Announce).
#[derive(Debug, Clone, Default)]
pub struct SoakRound {
    /// CDNs that do not answer this round.
    pub silent: Vec<u32>,
}

/// A full soak campaign: per-round silences plus the ladder knobs both
/// drivers must share for their decisions to be comparable.
#[derive(Debug, Clone)]
pub struct SoakPlan {
    /// One entry per round, in order. Rounds beyond the list are clean.
    pub rounds: Vec<SoakRound>,
    /// The daemon's wall deadline per round, ms. The reference driver
    /// has no clock; it uses this only to label `deadline_missed`
    /// journal events identically.
    pub deadline_ms: u64,
    /// Circuit-breaker thresholds, shared by both drivers.
    pub breaker: BreakerConfig,
}

impl SoakPlan {
    /// A plan of `rounds` clean rounds with default ladder knobs.
    pub fn clean(rounds: usize) -> SoakPlan {
        SoakPlan {
            rounds: vec![SoakRound::default(); rounds],
            deadline_ms: 3_000,
            breaker: BreakerConfig::default(),
        }
    }

    /// The 11-round ladder campaign over `cdns` CDNs, which walks every
    /// resolution rung and every breaker state: one CDN silent long
    /// enough to trip (stale → stale → excluded → open → half-open probe
    /// → recovery), then total silence past the TTL (fallback), an
    /// all-open round, and a full recovery. The daemon's soak and
    /// recovery tests and `repro chaos` all replay this one.
    pub fn ladder(cdns: u32) -> SoakPlan {
        let all: Vec<u32> = (0..cdns).collect();
        let silences = vec![
            vec![],      // 0: fresh (fills the cache)
            vec![0],     // 1: stale substitution, failure 1
            vec![0],     // 2: stale substitution, failure 2
            vec![0],     // 3: cache beyond TTL: excluded; trips -> Open
            vec![],      // 4: breaker Open: excluded without being asked
            vec![],      // 5: half-open probe succeeds -> Closed, fresh
            all.clone(), // 6: all silent -> all stale
            all.clone(), // 7: all silent -> all stale (age 2)
            all,         // 8: all silent, cache dry -> Brokered fallback
            vec![],      // 9: every breaker Open -> Brokered fallback
            vec![],      // 10: all probes succeed -> fresh again
        ];
        SoakPlan {
            rounds: silences
                .into_iter()
                .map(|silent| SoakRound { silent })
                .collect(),
            deadline_ms: 1_500,
            breaker: BreakerConfig {
                trip_after: 3,
                cooldown_rounds: 2,
            },
        }
    }

    /// The CDNs silent on `round` (empty past the end of the plan).
    pub fn silent(&self, round: u64) -> &[u32] {
        self.rounds
            .get(round as usize)
            .map(|r| r.silent.as_slice())
            .unwrap_or(&[])
    }

    /// The rounds `cdn` stays silent on: its agent's side of the script.
    pub fn silent_rounds_for(&self, cdn: u32) -> Vec<u64> {
        (0..self.rounds.len() as u64)
            .filter(|&r| self.silent(r).contains(&cdn))
            .collect()
    }
}

/// The in-process reference driver: a [`Round`] whose transport is the
/// plan's silence script. See the module docs.
pub struct SimReferenceDriver<'a> {
    script: Script<'a>,
    round: Round,
}

/// The reference driver's [`RoundHooks`]: scripted silences, bids built
/// in place, nothing to commit.
struct Script<'a> {
    scenario: &'a Scenario,
    design: Design,
    plan: SoakPlan,
}

impl<'a> SimReferenceDriver<'a> {
    /// Creates a reference driver over `scenario` for `design`.
    pub fn new(
        scenario: &'a Scenario,
        design: Design,
        policy: CpPolicy,
        plan: SoakPlan,
        probe: Arc<dyn Probe>,
    ) -> SimReferenceDriver<'a> {
        let n = scenario.fleet.cdns.len();
        SimReferenceDriver {
            round: Round::new(
                design,
                policy,
                (0..n).map(|_| CircuitBreaker::new(plan.breaker)).collect(),
                StaleBidCache::new(n, STALE_TTL_ROUNDS),
                plan.deadline_ms,
                probe,
            ),
            script: Script {
                scenario,
                design,
                plan,
            },
        }
    }

    /// Current health state of one CDN's breaker (for tests/reports).
    pub fn breaker(&self, cdn: usize) -> &CircuitBreaker {
        self.round.breaker(cdn)
    }
}

impl RoundHooks for Script<'_> {
    fn collect_announces(&mut self, round: u64, routable: &[bool]) -> Vec<BidSource> {
        let scenario = self.scenario;
        let shares = shares_of(scenario);
        let silent = self.plan.silent(round);
        routable
            .iter()
            .enumerate()
            .map(|(cdn, &asked)| {
                if !asked || silent.contains(&(cdn as u32)) {
                    return BidSource::Silent;
                }
                let engine = round_engine(scenario, self.design, cdn as u32);
                BidSource::Fresh(scenario.announce(&engine, &shares))
            })
            .collect()
    }

    fn brokered(&mut self, round: u64, policy: CpPolicy, probe: &dyn Probe) -> RoundOutcome {
        brokered_round(self.scenario, round, policy, probe)
    }
}

impl ExchangeDriver for SimReferenceDriver<'_> {
    fn run_round(&mut self, round: u64) -> DriverRound {
        let scenario = self.script.scenario;
        self.round.run(round, &scenario.groups, &mut self.script)
    }
}

/// Replays the whole plan through the reference driver, returning one
/// [`DriverRound`] per plan round.
pub fn run_reference(
    scenario: &Scenario,
    design: Design,
    policy: CpPolicy,
    plan: SoakPlan,
    probe: Arc<dyn Probe>,
) -> Vec<DriverRound> {
    let rounds = plan.rounds.len() as u64;
    let mut driver = SimReferenceDriver::new(scenario, design, policy, plan, probe);
    (0..rounds).map(|r| driver.run_round(r)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioConfig;
    use vdx_broker::HealthState;
    use vdx_core::RoundResolution;

    fn small_scenario() -> Scenario {
        Scenario::build(ScenarioConfig::at_scale(true, Some(4242)))
    }

    fn plan(rounds: Vec<Vec<u32>>) -> SoakPlan {
        SoakPlan {
            rounds: rounds
                .into_iter()
                .map(|silent| SoakRound { silent })
                .collect(),
            deadline_ms: 1_000,
            breaker: BreakerConfig {
                trip_after: 2,
                cooldown_rounds: 2,
            },
        }
    }

    #[test]
    fn clean_soak_rounds_are_fresh_and_match_the_pure_objective() {
        let scenario = small_scenario();
        let policy = CpPolicy::balanced();
        let rounds = run_reference(
            &scenario,
            Design::Marketplace,
            policy,
            plan(vec![vec![], vec![]]),
            vdx_obs::probe::noop(),
        );
        assert_eq!(rounds.len(), 2);
        for r in &rounds {
            assert_eq!(r.resolution, RoundResolution::Fresh);
            assert_eq!(r.picks.len(), scenario.groups.len());
        }
        let pure = scenario.run_round_probed(
            RoundId(0),
            Design::Marketplace,
            policy,
            None,
            vdx_obs::probe::noop().as_ref(),
        );
        assert!(
            (rounds[0].objective - pure.assignment.objective).abs() < 1e-6,
            "soak {} vs pure {}",
            rounds[0].objective,
            pure.assignment.objective
        );
    }

    #[test]
    fn a_silent_round_degrades_to_stale_reuse_and_recovers() {
        let scenario = small_scenario();
        let rounds = run_reference(
            &scenario,
            Design::Marketplace,
            CpPolicy::balanced(),
            plan(vec![vec![], vec![0], vec![]]),
            vdx_obs::probe::noop(),
        );
        assert_eq!(rounds[0].resolution, RoundResolution::Fresh);
        assert_eq!(rounds[1].resolution, RoundResolution::Degraded);
        assert_eq!(rounds[2].resolution, RoundResolution::Fresh);
        // The stale substitution reuses round 0's bids, so round 1's
        // decision equals round 0's.
        assert_eq!(rounds[1].picks, rounds[0].picks);
    }

    #[test]
    fn sustained_silence_trips_the_breaker_then_a_probe_recovers_it() {
        let scenario = small_scenario();
        let soak = plan(vec![
            vec![],  // 0: all fresh (fills the cache)
            vec![0], // 1: silent -> stale reuse, failure 1
            vec![0], // 2: silent -> stale reuse, failure 2 -> Open
            vec![],  // 3: Open (cooldown 2) -> excluded without observation
            vec![],  // 4: cooldown elapsed -> HalfOpen probe succeeds -> Closed
            vec![],  // 5: fresh again
        ]);
        let policy = CpPolicy::balanced();
        let mut driver = SimReferenceDriver::new(
            &scenario,
            Design::Marketplace,
            policy,
            soak,
            vdx_obs::probe::noop(),
        );
        let r: Vec<DriverRound> = (0..6).map(|i| driver.run_round(i)).collect();
        assert_eq!(r[0].resolution, RoundResolution::Fresh);
        assert_eq!(r[1].resolution, RoundResolution::Degraded);
        assert_eq!(r[2].resolution, RoundResolution::Degraded);
        // Round 3: breaker is Open, CDN 0 excluded outright even though
        // its agent would have answered.
        assert_eq!(r[3].resolution, RoundResolution::Degraded);
        assert_eq!(driver.breaker(0).state(), HealthState::Closed);
        assert_eq!(r[4].resolution, RoundResolution::Fresh);
        assert_eq!(r[5].resolution, RoundResolution::Fresh);
    }

    #[test]
    fn total_silence_past_the_ttl_falls_back_to_brokered() {
        let scenario = small_scenario();
        let n = scenario.fleet.cdns.len() as u32;
        let all: Vec<u32> = (0..n).collect();
        // Rounds 0-1 fill nothing (everyone silent from the start): the
        // cache is empty, every CDN is excluded, no group has options.
        let rounds = run_reference(
            &scenario,
            Design::Marketplace,
            CpPolicy::balanced(),
            plan(vec![all.clone(), all]),
            vdx_obs::probe::noop(),
        );
        assert_eq!(rounds[0].resolution, RoundResolution::Fallback);
        assert_eq!(rounds[1].resolution, RoundResolution::Fallback);
        assert_eq!(rounds[0].picks.len(), scenario.groups.len());
    }
}
