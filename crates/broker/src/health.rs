//! Per-CDN circuit breakers: the degradation ladder as an explicit
//! health state machine.
//!
//! The failure-model contract (DESIGN.md §9) this module implements:
//! a CDN that keeps missing round deadlines must stop being *waited
//! for* — every missed deadline costs the broker the full deadline
//! budget — but must also be re-admitted automatically once it
//! recovers, without an operator in the loop. The classic circuit
//! breaker fits exactly:
//!
//! * **`Closed`** — healthy. The broker Shares with the CDN every
//!   round and counts consecutive failures (missed deadlines or
//!   dropped connections). A miss while `Closed` still walks the
//!   stale-bid rung of the ladder ([`crate::StaleBidCache`]); the
//!   breaker only decides *participation*, never bid substitution.
//! * **`Open`** — tripped after [`BreakerConfig::trip_after`]
//!   consecutive failures. The CDN is excluded outright: no Share is
//!   sent, no deadline is spent waiting, and its cached bids are not
//!   reused (an unresponsive CDN's prices are as suspect as a down
//!   CDN's — the `BidSource::Down` rule of `vdx_core::Round` generalized).
//! * **`HalfOpen`** — after [`BreakerConfig::cooldown_rounds`] rounds
//!   of exclusion the breaker admits one probe round: the CDN is
//!   Shared with again, and this single round decides. A fresh
//!   Announce closes the breaker (fully healthy); another miss
//!   re-opens it for a further cool-down.
//!
//! Transitions are driven by *round numbers*, never the wall clock, so
//! the machine is deterministic and the in-process reference driver
//! and the live daemon walk bit-identical state sequences from the
//! same failure schedule (ARCHITECTURE.md, "two drivers, one core").

/// Health of one broker↔CDN relationship, circuit-breaker style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HealthState {
    /// Healthy: the CDN participates in every round.
    Closed,
    /// Tripped: the CDN is excluded from rounds entirely.
    Open,
    /// Probing: one trial round decides between `Closed` and `Open`.
    HalfOpen,
}

impl HealthState {
    /// Stable lower-case name used in journal events (`health_transition`
    /// `from`/`to` fields) and operator reports.
    pub fn name(&self) -> &'static str {
        match self {
            HealthState::Closed => "closed",
            HealthState::Open => "open",
            HealthState::HalfOpen => "half_open",
        }
    }

    /// Stable single-byte code for durable encodings (the exchange WAL,
    /// `vdx-core::wal`). The codes are part of the on-disk format and
    /// must never be renumbered.
    pub fn code(&self) -> u8 {
        match self {
            HealthState::Closed => 0,
            HealthState::Open => 1,
            HealthState::HalfOpen => 2,
        }
    }

    /// Inverse of [`HealthState::code`]; `None` for bytes no version of
    /// the format ever wrote.
    pub fn from_code(code: u8) -> Option<HealthState> {
        match code {
            0 => Some(HealthState::Closed),
            1 => Some(HealthState::Open),
            2 => Some(HealthState::HalfOpen),
            _ => None,
        }
    }
}

/// Breaker policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that trip `Closed` → `Open`. A failure is a
    /// round the CDN was asked to participate in but produced no fresh
    /// Announce (deadline miss, disconnect, or outage).
    pub trip_after: u32,
    /// Rounds the breaker stays `Open` before admitting a `HalfOpen`
    /// probe. With `cooldown_rounds = 1`, the round after the trip
    /// already probes.
    pub cooldown_rounds: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            trip_after: 3,
            cooldown_rounds: 1,
        }
    }
}

/// One observed state change, for journaling (`health_transition`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthTransition {
    /// State before.
    pub from: HealthState,
    /// State after.
    pub to: HealthState,
    /// Why the transition fired (stable, lower-case snake phrase).
    pub reason: &'static str,
}

/// A restart-survivable image of a breaker's mutable state: everything
/// [`CircuitBreaker`] accumulates at runtime, minus the (configured,
/// re-suppliable) policy knobs. Written to the exchange WAL so a crashed
/// daemon restores the exact health machine the reference driver would
/// be in — round-number driven, so no wall-clock field needs saving.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerSnapshot {
    /// State at the moment of capture.
    pub state: HealthState,
    /// Consecutive-failure count at the moment of capture.
    pub consecutive_failures: u32,
    /// Round the breaker last tripped `Open` in; meaningless unless the
    /// state is (or has been) `Open`.
    pub opened_at: u64,
}

/// A per-CDN circuit breaker (see the module docs for the contract).
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    config: BreakerConfig,
    state: HealthState,
    consecutive_failures: u32,
    /// Round the breaker last tripped `Open` in; meaningless otherwise.
    opened_at: u64,
}

impl CircuitBreaker {
    /// A breaker starting `Closed` (every CDN is presumed healthy).
    pub fn new(config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: HealthState::Closed,
            consecutive_failures: 0,
            opened_at: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> HealthState {
        self.state
    }

    /// Captures the mutable state for durable storage (the exchange WAL).
    pub fn snapshot(&self) -> BreakerSnapshot {
        BreakerSnapshot {
            state: self.state,
            consecutive_failures: self.consecutive_failures,
            opened_at: self.opened_at,
        }
    }

    /// Rebuilds a breaker from a [`snapshot`](CircuitBreaker::snapshot)
    /// taken earlier, under (possibly re-supplied) policy `config`. The
    /// restored breaker behaves identically to the captured one from the
    /// next `begin_round` on.
    pub fn restore(config: BreakerConfig, snap: BreakerSnapshot) -> CircuitBreaker {
        CircuitBreaker {
            config,
            state: snap.state,
            consecutive_failures: snap.consecutive_failures,
            opened_at: snap.opened_at,
        }
    }

    /// Consecutive failures counted so far (resets on any success).
    pub fn consecutive_failures(&self) -> u32 {
        self.consecutive_failures
    }

    /// Whether the broker may route traffic to (and wait on) this CDN
    /// this round: true in `Closed` and `HalfOpen`, never while `Open`.
    pub fn allows_route(&self) -> bool {
        self.state != HealthState::Open
    }

    /// Whether the current round is a `HalfOpen` probe (worth a
    /// `health_probe` journal line when it resolves).
    pub fn is_probe(&self) -> bool {
        self.state == HealthState::HalfOpen
    }

    /// Advances the breaker to `round` before the Share step: an `Open`
    /// breaker whose cool-down has elapsed moves to `HalfOpen` so this
    /// round probes the CDN.
    pub fn begin_round(&mut self, round: u64) -> Option<HealthTransition> {
        if self.state == HealthState::Open
            && round.saturating_sub(self.opened_at) >= self.config.cooldown_rounds
        {
            return Some(self.transition(HealthState::HalfOpen, "cooldown elapsed"));
        }
        None
    }

    /// Records a fresh Announce from the CDN this round. Resets the
    /// failure count; a `HalfOpen` probe success closes the breaker.
    pub fn on_success(&mut self, _round: u64) -> Option<HealthTransition> {
        self.consecutive_failures = 0;
        match self.state {
            HealthState::Closed => None,
            // A success can only be observed in a round the CDN was
            // routed to, so `Open` implies `HalfOpen` was entered first;
            // tolerate a driver that skipped `begin_round` anyway.
            HealthState::HalfOpen => Some(self.transition(HealthState::Closed, "probe succeeded")),
            HealthState::Open => Some(self.transition(HealthState::Closed, "late success")),
        }
    }

    /// Records a failed round (deadline miss, disconnect, outage) in
    /// `round`. Trips `Closed` → `Open` at the threshold; a failed
    /// `HalfOpen` probe re-opens immediately.
    pub fn on_failure(&mut self, round: u64) -> Option<HealthTransition> {
        self.consecutive_failures = self.consecutive_failures.saturating_add(1);
        match self.state {
            HealthState::Closed => {
                if self.consecutive_failures >= self.config.trip_after {
                    self.opened_at = round;
                    return Some(self.transition(HealthState::Open, "trip threshold reached"));
                }
                None
            }
            HealthState::HalfOpen => {
                self.opened_at = round;
                Some(self.transition(HealthState::Open, "probe failed"))
            }
            HealthState::Open => None,
        }
    }

    fn transition(&mut self, to: HealthState, reason: &'static str) -> HealthTransition {
        let from = self.state;
        self.state = to;
        HealthTransition { from, to, reason }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdx_rand::prop::{check, vec_of};

    fn breaker(trip_after: u32, cooldown_rounds: u64) -> CircuitBreaker {
        CircuitBreaker::new(BreakerConfig {
            trip_after,
            cooldown_rounds,
        })
    }

    #[test]
    fn starts_closed_and_routing() {
        let b = CircuitBreaker::new(BreakerConfig::default());
        assert_eq!(b.state(), HealthState::Closed);
        assert!(b.allows_route());
        assert!(!b.is_probe());
        assert_eq!(b.consecutive_failures(), 0);
    }

    #[test]
    fn closed_trips_open_at_the_threshold() {
        let mut b = breaker(3, 1);
        assert_eq!(b.on_failure(0), None);
        assert_eq!(b.on_failure(1), None);
        assert_eq!(b.consecutive_failures(), 2);
        let t = b.on_failure(2).expect("third consecutive failure trips");
        assert_eq!(t.from, HealthState::Closed);
        assert_eq!(t.to, HealthState::Open);
        assert_eq!(t.reason, "trip threshold reached");
        assert!(!b.allows_route());
    }

    #[test]
    fn success_resets_the_failure_count() {
        let mut b = breaker(3, 1);
        b.on_failure(0);
        b.on_failure(1);
        assert_eq!(b.on_success(2), None, "Closed success: no transition");
        assert_eq!(b.consecutive_failures(), 0);
        // The count restarts: two more failures do not trip.
        assert_eq!(b.on_failure(3), None);
        assert_eq!(b.on_failure(4), None);
        assert_eq!(b.state(), HealthState::Closed);
    }

    #[test]
    fn open_half_opens_after_the_cooldown() {
        let mut b = breaker(1, 2);
        b.on_failure(5);
        assert_eq!(b.state(), HealthState::Open);
        assert_eq!(b.begin_round(6), None, "cooldown 2: round 6 still open");
        let t = b.begin_round(7).expect("cooldown elapsed");
        assert_eq!(t.from, HealthState::Open);
        assert_eq!(t.to, HealthState::HalfOpen);
        assert_eq!(t.reason, "cooldown elapsed");
        assert!(b.allows_route(), "half-open probes route");
        assert!(b.is_probe());
    }

    #[test]
    fn half_open_probe_success_closes() {
        let mut b = breaker(1, 1);
        b.on_failure(0);
        b.begin_round(1).expect("half-opens");
        let t = b.on_success(1).expect("probe success closes");
        assert_eq!(t.from, HealthState::HalfOpen);
        assert_eq!(t.to, HealthState::Closed);
        assert_eq!(t.reason, "probe succeeded");
        assert_eq!(b.consecutive_failures(), 0);
        assert!(b.allows_route());
    }

    #[test]
    fn half_open_probe_failure_reopens_and_restarts_the_cooldown() {
        let mut b = breaker(1, 2);
        b.on_failure(0);
        b.begin_round(2).expect("half-opens");
        let t = b.on_failure(2).expect("probe failure re-opens");
        assert_eq!(t.from, HealthState::HalfOpen);
        assert_eq!(t.to, HealthState::Open);
        assert_eq!(t.reason, "probe failed");
        // The cool-down restarts from the failed probe's round.
        assert_eq!(b.begin_round(3), None);
        assert!(b.begin_round(4).is_some());
    }

    #[test]
    fn open_swallows_further_failures_without_transitions() {
        let mut b = breaker(1, 10);
        b.on_failure(0);
        assert_eq!(b.on_failure(1), None);
        assert_eq!(b.on_failure(2), None);
        assert_eq!(b.state(), HealthState::Open);
    }

    #[test]
    fn begin_round_is_a_noop_when_not_open() {
        let mut b = breaker(2, 1);
        assert_eq!(b.begin_round(0), None, "closed");
        b.on_failure(0);
        b.on_failure(1);
        b.begin_round(2).expect("half-opens");
        assert_eq!(b.begin_round(2), None, "already half-open");
    }

    #[test]
    fn state_names_are_stable() {
        assert_eq!(HealthState::Closed.name(), "closed");
        assert_eq!(HealthState::Open.name(), "open");
        assert_eq!(HealthState::HalfOpen.name(), "half_open");
    }

    #[test]
    fn state_codes_round_trip_and_reject_garbage() {
        for state in [
            HealthState::Closed,
            HealthState::Open,
            HealthState::HalfOpen,
        ] {
            assert_eq!(HealthState::from_code(state.code()), Some(state));
        }
        assert_eq!(HealthState::from_code(3), None);
        assert_eq!(HealthState::from_code(255), None);
    }

    #[test]
    fn snapshot_restore_resumes_mid_cooldown() {
        // Trip a breaker open at round 5 with cooldown 3, snapshot it,
        // restore into a fresh breaker: the cooldown clock carries over.
        let mut b = breaker(1, 3);
        b.on_failure(5);
        assert_eq!(b.state(), HealthState::Open);
        let snap = b.snapshot();
        let mut restored = CircuitBreaker::restore(b.config, snap);
        assert_eq!(restored.state(), HealthState::Open);
        assert_eq!(restored.begin_round(6), None, "cooldown not elapsed");
        assert_eq!(restored.begin_round(7), None);
        let t = restored
            .begin_round(8)
            .expect("cooldown elapsed post-restore");
        assert_eq!(t.to, HealthState::HalfOpen);
    }

    #[test]
    fn snapshot_restore_preserves_the_failure_streak() {
        let mut b = breaker(3, 1);
        b.on_failure(0);
        b.on_failure(1);
        let mut restored = CircuitBreaker::restore(b.config, b.snapshot());
        assert_eq!(restored.consecutive_failures(), 2);
        // One more failure trips the restored breaker exactly as it
        // would have tripped the original.
        assert!(restored.on_failure(2).is_some());
    }

    /// The routing invariant: across any failure/success schedule, a
    /// round in which the breaker is `Open` after `begin_round` never
    /// routes to the CDN — and conversely the breaker never reports an
    /// observation for a round it refused to route (mirroring how the
    /// drivers only call on_success/on_failure for rounds the CDN was
    /// Shared with).
    #[test]
    fn never_routes_while_open() {
        check(
            256,
            |rng| {
                // One driver step per round: did the CDN answer in time?
                let successes = vec_of(rng, 1..200, |r| r.gen_bool(0.5));
                (successes, rng.gen_range(1u32..5), rng.gen_range(1u64..5))
            },
            |(successes, trip_after, cooldown)| {
                let mut b = breaker(*trip_after, *cooldown);
                for (round, &success) in successes.iter().enumerate() {
                    let round = round as u64;
                    b.begin_round(round);
                    // Invariant under test: `allows_route` is exactly
                    // "not Open".
                    assert_eq!(b.allows_route(), b.state() != HealthState::Open);
                    if !b.allows_route() {
                        // Excluded: the round must not deliver bids from
                        // this CDN, so the driver records nothing.
                        continue;
                    }
                    if success {
                        b.on_success(round);
                    } else {
                        b.on_failure(round);
                    }
                }
            },
        );
    }

    /// `Open` always yields to a probe within `cooldown` rounds —
    /// exclusion is bounded, never permanent.
    #[test]
    fn exclusion_is_bounded_by_the_cooldown() {
        check(
            256,
            |rng| {
                (
                    rng.gen_range(1u32..4),
                    rng.gen_range(1u64..6),
                    rng.gen_range(10u64..60),
                )
            },
            |&(trip_after, cooldown, rounds)| {
                let mut b = breaker(trip_after, cooldown);
                let mut open_streak = 0u64;
                for round in 0..rounds {
                    b.begin_round(round);
                    if b.allows_route() {
                        open_streak = 0;
                        // Always fail: the worst case for exclusion.
                        b.on_failure(round);
                    } else {
                        open_streak += 1;
                        assert!(
                            open_streak <= cooldown,
                            "open for {open_streak} rounds with cooldown {cooldown}"
                        );
                    }
                }
            },
        );
    }
}
