//! End-to-end fault-campaign checks (DESIGN.md §9): an empty plan is
//! bit-identical to the pure fast path, faulted campaigns are
//! deterministic, journals are thread-count independent, and the
//! degradation ladder fires in order.

use std::sync::{Arc, OnceLock};
use vdx_broker::CpPolicy;
use vdx_core::{Design, RoundId, RoundResolution};
use vdx_obs::{Event, MemoryProbe, Probe};
use vdx_sim::faults::{run_campaign, FaultPlan, RoundFaults};
use vdx_sim::metrics::{compute, MetricsInput};
use vdx_sim::{Scenario, ScenarioConfig};

/// One shared small scenario for the whole test binary — building one
/// takes seconds.
fn shared() -> &'static Scenario {
    static SCENARIO: OnceLock<Scenario> = OnceLock::new();
    SCENARIO.get_or_init(|| Scenario::build(ScenarioConfig::small()))
}

/// Canonical JSONL bytes of an event stream, wall-clock fields zeroed.
fn jsonl(mut events: Vec<Event>) -> String {
    let mut out = String::new();
    for e in &mut events {
        e.zero_wall_clock();
        out.push_str(&e.to_json_line());
        out.push('\n');
    }
    out
}

#[test]
fn empty_plan_campaign_matches_the_pure_fast_path() {
    let s = shared();
    let design = Design::Marketplace;
    let policy = CpPolicy::balanced;
    let rounds = 3;

    let campaign_probe = Arc::new(MemoryProbe::new());
    let campaign = run_campaign(
        s,
        design,
        policy(),
        &FaultPlan::clean(rounds),
        0,
        campaign_probe.clone() as Arc<dyn Probe>,
    );

    // The reference: the same rounds run pure, journaled the same way.
    let pure_probe = Arc::new(MemoryProbe::new());
    for i in 0..rounds {
        let outcome = s.run_round_probed(
            RoundId(i as u64),
            design,
            policy(),
            None,
            pure_probe.as_ref(),
        );
        let expected = compute(&MetricsInput {
            scenario: s,
            outcome: &outcome,
        });
        assert_eq!(
            campaign.rounds[i].availability,
            RoundResolution::Fresh,
            "clean rounds stay live"
        );
        assert_eq!(
            campaign.rounds[i].metrics, expected,
            "round {i}: clean-plan metrics are bit-exact"
        );
    }

    let a = jsonl(campaign_probe.take());
    let b = jsonl(pure_probe.take());
    assert!(!a.is_empty());
    assert_eq!(a, b, "an empty fault plan leaves the journal untouched");
}

/// A moderately hostile round: losses, corruption and delay, but no
/// outages.
fn adverse() -> RoundFaults {
    RoundFaults {
        drop_chance: 0.2,
        corrupt_chance: 0.05,
        delay_ms: 10,
        jitter_ms: 5,
        exchange_outage: false,
        failed_cdns: Vec::new(),
    }
}

#[test]
fn same_seed_same_plan_is_byte_identical() {
    let s = shared();
    let plan = FaultPlan {
        rounds: vec![RoundFaults::none(), adverse(), adverse()],
        seed: 7,
        stale_ttl_rounds: 2,
        deadline_ms: 2_000,
    };
    let run = || {
        let probe = Arc::new(MemoryProbe::new());
        let outcome = run_campaign(
            s,
            Design::Marketplace,
            CpPolicy::balanced(),
            &plan,
            0,
            probe.clone() as Arc<dyn Probe>,
        );
        (outcome, probe.take())
    };
    let (outcome_a, events_a) = run();
    let (outcome_b, events_b) = run();

    assert!(
        events_a
            .iter()
            .any(|e| matches!(e, Event::FaultPlanApplied { .. })),
        "faulted rounds journal their injected faults"
    );
    assert!(
        events_a
            .iter()
            .any(|e| matches!(e, Event::WireDrops { .. })),
        "wire accounting is journaled per live round"
    );
    for (a, b) in outcome_a.rounds.iter().zip(&outcome_b.rounds) {
        assert_eq!(a.availability, b.availability);
        assert_eq!(a.metrics, b.metrics);
    }
    assert_eq!(
        jsonl(events_a),
        jsonl(events_b),
        "same seed + same plan must replay to identical journal bytes"
    );
}

#[test]
fn threads_do_not_change_the_faults_journal() {
    // The ext_faults cells fan out across the engine's threads; per-cell
    // event buffering must keep the journal schedule-independent.
    let run_with_threads = |scenario: &mut Scenario, threads: usize| -> String {
        let probe = Arc::new(MemoryProbe::new());
        scenario.set_probe(probe.clone());
        scenario.set_threads(threads);
        vdx_sim::experiment::ext_faults::run(scenario);
        jsonl(probe.take())
    };
    let mut scenario = Scenario::build(ScenarioConfig::small());
    let one = run_with_threads(&mut scenario, 1);
    let four = run_with_threads(&mut scenario, 4);
    assert!(!one.is_empty());
    assert_eq!(one, four, "faults journal must be thread-count independent");
}

#[test]
fn degradation_ladder_fires_in_order() {
    let s = shared();
    let total_blackout = RoundFaults {
        drop_chance: 1.0,
        corrupt_chance: 0.0,
        delay_ms: 0,
        jitter_ms: 0,
        exchange_outage: false,
        failed_cdns: Vec::new(),
    };
    let plan = FaultPlan {
        rounds: vec![
            RoundFaults::none(),
            total_blackout.clone(),
            total_blackout.clone(),
            total_blackout,
        ],
        seed: 11,
        stale_ttl_rounds: 2,
        deadline_ms: 300,
    };
    let probe = Arc::new(MemoryProbe::new());
    let campaign = run_campaign(
        s,
        Design::Marketplace,
        CpPolicy::balanced(),
        &plan,
        0,
        probe.clone() as Arc<dyn Probe>,
    );

    let availabilities: Vec<RoundResolution> =
        campaign.rounds.iter().map(|r| r.availability).collect();
    assert_eq!(
        availabilities,
        vec![
            // Round 0 is clean: fresh bids fill the stale cache.
            RoundResolution::Fresh,
            // Rounds 1–2: nothing arrives, but the cache is within its
            // 2-round TTL — the broker serves on stale bids.
            RoundResolution::Degraded,
            RoundResolution::Degraded,
            // Round 3: the cache has aged out; no group is covered, so
            // the design gives up and the round runs as Brokered.
            RoundResolution::Fallback,
        ],
    );
    // A stale round reuses round 0's bids verbatim, so it reproduces
    // round 0's assignment and metrics exactly.
    assert_eq!(campaign.rounds[1].metrics, campaign.rounds[0].metrics);
    assert_eq!(campaign.rounds[2].metrics, campaign.rounds[0].metrics);

    let events = probe.take();
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::DeadlineMissed { round: 1, .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::StaleBidsReused { round: 1, .. })));
    assert!(events
        .iter()
        .any(|e| matches!(e, Event::DesignFallback { round: 3, .. })));
}
