//! Extension experiment: availability vs decision quality under faults.
//!
//! The paper evaluates every design over a perfect in-process exchange.
//! This experiment asks what each design is worth when the exchange is
//! *not* perfect: campaigns of Decision Protocol rounds run over lossy
//! links at increasing fault severity, with the DESIGN.md §9 degradation
//! ladder (bounded retransmission, stale-bid reuse, CDN exclusion,
//! Brokered fallback) deciding each round's fate. The output is a
//! degradation curve per design: how many rounds stayed live, how many
//! degraded or fell back, and what the assignments were worth on the
//! ground-truth metric suite.
//!
//! Flat-information designs (Brokered) never consult the exchange, so
//! their rows stay fully live at every severity — the availability price
//! of the richer designs is exactly what this table quantifies.

use crate::engine::map_journaled;
use crate::faults::{run_campaign, CampaignOutcome, FaultPlan, RoundFaults};
use crate::metrics::DesignMetrics;
use crate::report::render_table;
use crate::scenario::Scenario;
use vdx_broker::CpPolicy;
use vdx_core::Design;

/// The fault severities swept (0 = the paper's perfect exchange).
pub const SEVERITY_SWEEP: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// Rounds per (design, severity) campaign.
pub const ROUNDS_PER_CAMPAIGN: usize = 4;

/// The designs compared: today's baseline, two intermediate designs, and
/// the full marketplace.
pub const DESIGNS: [Design; 4] = [
    Design::Brokered,
    Design::DynamicMulticluster,
    Design::BestLookup,
    Design::Marketplace,
];

/// The campaign plan at `severity ∈ [0, 1]`: loss, corruption and delay
/// scale linearly; from severity 0.5 one CDN's cluster fails in round 2;
/// from 0.75 the exchange itself is down in round 3. Severity 0 is a
/// fully clean plan.
pub fn plan_for(severity: f64, seed: u64) -> FaultPlan {
    let mut rounds = Vec::with_capacity(ROUNDS_PER_CAMPAIGN);
    for i in 0..ROUNDS_PER_CAMPAIGN {
        let mut faults = RoundFaults {
            drop_chance: 0.3 * severity,
            corrupt_chance: 0.1 * severity,
            delay_ms: (40.0 * severity) as u64,
            jitter_ms: (20.0 * severity) as u64,
            exchange_outage: false,
            failed_cdns: Vec::new(),
        };
        if i == 2 && severity >= 0.5 {
            faults.failed_cdns = vec![0];
        }
        if i == 3 && severity >= 0.75 {
            faults.exchange_outage = true;
        }
        rounds.push(faults);
    }
    FaultPlan { rounds, seed }
}

/// One (design, severity) campaign, summarized.
#[derive(Debug, Clone)]
pub struct FaultsCell {
    /// Design name.
    pub design: String,
    /// Fault severity.
    pub severity: f64,
    /// Rounds completed on fresh information.
    pub live: usize,
    /// Rounds completed on stale substitutions / exclusions.
    pub degraded: usize,
    /// Rounds that fell back to Brokered.
    pub fallback: usize,
    /// Mean ground-truth metrics over the campaign's rounds.
    pub metrics: DesignMetrics,
}

/// Fault-campaign results: designs × severities, design-major.
#[derive(Debug, Clone)]
pub struct FaultsResult {
    /// One cell per (design, severity).
    pub cells: Vec<FaultsCell>,
}

/// Runs the sweep. Campaigns are independent (each owns its links, agents
/// and stale cache), so cells fan out across threads; journals are
/// flushed in cell order, byte-identical for any thread count.
pub fn run(scenario: &Scenario) -> FaultsResult {
    let seed = scenario.config.seed ^ 0xFA17;
    let mut cells: Vec<(u64, Design, f64)> = Vec::new();
    for &design in &DESIGNS {
        for &severity in &SEVERITY_SWEEP {
            cells.push((cells.len() as u64, design, severity));
        }
    }

    let outcomes: Vec<CampaignOutcome> =
        map_journaled(scenario, &cells, |&(idx, design, severity), probe| {
            run_campaign(
                scenario,
                design,
                CpPolicy::balanced(),
                &plan_for(severity, seed),
                idx * 100,
                probe,
            )
        });

    let cells = cells
        .iter()
        .zip(&outcomes)
        .map(|(&(_, design, severity), outcome)| FaultsCell {
            design: design.name(),
            severity,
            live: outcome.live_rounds(),
            degraded: outcome.degraded_rounds(),
            fallback: outcome.fallback_rounds(),
            metrics: outcome.mean_metrics(),
        })
        .collect();
    FaultsResult { cells }
}

/// Renders the degradation table.
pub fn render(result: &FaultsResult) -> String {
    let rows: Vec<Vec<String>> = result
        .cells
        .iter()
        .map(|c| {
            vec![
                c.design.clone(),
                format!("{:.2}", c.severity),
                format!("{}/{}/{}", c.live, c.degraded, c.fallback),
                format!("{:.4}", c.metrics.cost),
                format!("{:.2}", c.metrics.score),
                format!("{:.1}%", c.metrics.congested_pct),
            ]
        })
        .collect();
    let mut out = render_table(
        "Extension: availability vs decision quality under injected faults",
        &[
            "design",
            "severity",
            "live/degr/fall",
            "cost",
            "score",
            "congested",
        ],
        &rows,
    );
    out.push_str(
        "severity scales loss/corruption/delay; 0.5+ fails a CDN in round 2, 0.75+ downs the \
         exchange in round 3\nexchange designs degrade toward Brokered quality as rounds go \
         stale or fall back; Brokered itself never budges\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{compute, MetricsInput};
    use crate::scenario::shared_small;

    #[test]
    fn clean_severity_reproduces_the_pure_numbers() {
        // Acceptance: an all-zero plan reproduces the table3 numbers
        // bit-for-bit, per round, for every design in the sweep.
        let s = shared_small();
        let seed = s.config.seed ^ 0xFA17;
        for design in DESIGNS {
            let plan = plan_for(0.0, seed);
            assert!(plan.rounds.iter().all(|r| *r == RoundFaults::none()));
            let campaign = run_campaign(
                s,
                design,
                CpPolicy::balanced(),
                &plan,
                0,
                vdx_obs::probe::noop(),
            );
            let pure = s.run(design, CpPolicy::balanced());
            let expected = compute(&MetricsInput {
                scenario: s,
                outcome: &pure,
            });
            assert_eq!(campaign.rounds.len(), ROUNDS_PER_CAMPAIGN);
            for round in &campaign.rounds {
                assert_eq!(
                    round.availability,
                    vdx_core::RoundResolution::Fresh,
                    "{design}"
                );
                assert_eq!(round.metrics, expected, "{design}: clean plan is exact");
            }
        }
    }

    #[test]
    fn retransmission_absorbs_moderate_loss_at_small_scale() {
        // What the simulated-link stack contributes at `--small`: 7.5 %
        // drop, 2.5 % corruption and 10 ± 5 ms of delay are retransmitted
        // away before the 3 000 ms deadline, so the decisions are the
        // clean plan's. (At the default scale they are not: EXPERIMENTS.md.)
        let s = shared_small();
        let seed = s.config.seed ^ 0xFA17;
        let campaign = |severity: f64| {
            run_campaign(
                s,
                Design::Marketplace,
                CpPolicy::balanced(),
                &plan_for(severity, seed),
                0,
                vdx_obs::probe::noop(),
            )
        };
        let (clean, lossy) = (campaign(0.0), campaign(0.25));
        assert_eq!(lossy.live_rounds(), ROUNDS_PER_CAMPAIGN);
        for (lossy, clean) in lossy.rounds.iter().zip(&clean.rounds) {
            assert_eq!(lossy.metrics, clean.metrics);
        }
    }

    #[test]
    fn brokered_is_immune_to_every_severity() {
        let s = shared_small();
        let seed = s.config.seed ^ 0xFA17;
        let campaign = run_campaign(
            s,
            Design::Brokered,
            CpPolicy::balanced(),
            &plan_for(1.0, seed),
            0,
            vdx_obs::probe::noop(),
        );
        let pure = s.run(Design::Brokered, CpPolicy::balanced());
        let expected = compute(&MetricsInput {
            scenario: s,
            outcome: &pure,
        });
        assert_eq!(campaign.live_rounds(), ROUNDS_PER_CAMPAIGN);
        for round in &campaign.rounds {
            assert_eq!(
                round.metrics, expected,
                "flat designs never consult the exchange"
            );
        }
    }

    #[test]
    fn marketplace_degrades_and_falls_back_at_full_severity() {
        let s = shared_small();
        let seed = s.config.seed ^ 0xFA17;
        let campaign = run_campaign(
            s,
            Design::Marketplace,
            CpPolicy::balanced(),
            &plan_for(1.0, seed),
            0,
            vdx_obs::probe::noop(),
        );
        use vdx_core::RoundResolution;
        // Round 2 loses CDN 0's cluster: the round cannot stay fully live.
        assert_ne!(campaign.rounds[2].availability, RoundResolution::Fresh);
        // Round 3 downs the exchange entirely: guaranteed fallback.
        assert_eq!(campaign.rounds[3].availability, RoundResolution::Fallback);

        let cell = FaultsCell {
            design: Design::Marketplace.name(),
            severity: 1.0,
            live: campaign.live_rounds(),
            degraded: campaign.degraded_rounds(),
            fallback: campaign.fallback_rounds(),
            metrics: campaign.mean_metrics(),
        };
        let text = render(&FaultsResult { cells: vec![cell] });
        assert!(text.contains("severity"));
        assert!(text.contains("Marketplace"));
    }
}
