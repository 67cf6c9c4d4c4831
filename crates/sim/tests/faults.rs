//! End-to-end fault-campaign checks (DESIGN.md §9): a clean campaign,
//! run on the round spine, decides and journals the protocol steps as the
//! pure round does, faulted campaigns are deterministic, journals are
//! thread-count independent, and the degradation ladder fires in order.

use std::sync::{Arc, OnceLock};
use vdx_broker::CpPolicy;
use vdx_core::{Design, RoundId, RoundResolution};
use vdx_obs::{Event, MemoryProbe};
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
fn clean_campaign_on_the_spine_decides_and_journals_as_the_pure_round() {
    // Marketplace congests nothing (Table 3); BestLookup, capacity-blind,
    // congests some cluster of the small scenario.
    for (design, congests) in [(Design::Marketplace, false), (Design::BestLookup, true)] {
        assert_clean_campaign_is_the_pure_round(design, congests);
    }
}

fn assert_clean_campaign_is_the_pure_round(design: Design, congests: bool) {
    let s = shared();
    let policy = CpPolicy::balanced;
    let rounds = 3;

    let (campaign_probe, campaign_journal) = MemoryProbe::channel();
    let campaign = run_campaign(
        s,
        design,
        policy(),
        &FaultPlan::clean(rounds),
        0,
        Arc::new(campaign_probe),
    );

    // The reference: the same rounds run pure, journaled the same way.
    let (pure_probe, pure_journal) = MemoryProbe::channel();
    for i in 0..rounds {
        let outcome = s.run_round_probed(RoundId(i as u64), design, policy(), None, &pure_probe);
        let expected = compute(&MetricsInput {
            scenario: s,
            outcome: &outcome,
        });
        assert_eq!(
            campaign.rounds[i].availability,
            RoundResolution::Fresh,
            "{design}: clean rounds stay live"
        );
        assert_eq!(
            campaign.rounds[i].metrics, expected,
            "{design} round {i}: clean-plan metrics are bit-exact"
        );
    }

    // The spine journals the wire (`fault_plan_applied`, `wire_drops`)
    // and publishes a Share whatever the design's Table 2 row, and its
    // solver events carry its own memo's `warm_hit`; every other event,
    // congestion included, is the pure round's.
    let protocol = |events: Vec<Event>| -> Vec<Event> {
        (events.into_iter())
            .filter(|e| match e {
                Event::FaultPlanApplied { .. } | Event::WireDrops { .. } => false,
                Event::SharePublished { .. } => design.shares_clients(),
                Event::SolverStats { .. } => false,
                _ => true,
            })
            .collect()
    };
    let events = protocol(campaign_journal.try_iter().collect());
    let congested = (events.iter())
        .filter(|e| matches!(e, Event::ClusterCongested { .. }))
        .count();
    assert_eq!(congested > 0, congests, "{design}: {congested} congested");
    let a = jsonl(events);
    let b = jsonl(protocol(pure_journal.try_iter().collect()));
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "{design}: a clean campaign journals the pure round's protocol steps"
    );
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
    };
    let run = || {
        let (probe, journal) = MemoryProbe::channel();
        let outcome = run_campaign(
            s,
            Design::Marketplace,
            CpPolicy::balanced(),
            &plan,
            0,
            Arc::new(probe),
        );
        (outcome, journal.try_iter().collect::<Vec<_>>())
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
        let (probe, journal) = MemoryProbe::channel();
        scenario.set_probe(Arc::new(probe));
        scenario.set_threads(threads);
        vdx_sim::experiment::ext_faults::run(scenario);
        jsonl(journal.try_iter().collect())
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
    };
    let (probe, journal) = MemoryProbe::channel();
    let campaign = run_campaign(
        s,
        Design::Marketplace,
        CpPolicy::balanced(),
        &plan,
        0,
        Arc::new(probe),
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

    let events: Vec<Event> = journal.try_iter().collect();
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
