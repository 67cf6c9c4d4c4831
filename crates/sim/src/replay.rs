//! Time-stepped trace replay: the dynamics the paper's snapshot elides.
//!
//! §5.1 argues "time dynamics are less important as the Decision Protocol
//! runs periodically (e.g., every few minutes) over all clients" and
//! evaluates a single round. This module runs the *periodic* part: the
//! trace is split into bins, each bin re-runs the Decision Protocol over
//! the sessions active in it, and sessions alive across a bin boundary are
//! moved mid-stream whenever the new round assigns their (city, bitrate)
//! group to a different cluster — the broker-induced churn of the paper's
//! Fig 4, now produced by an actual decision loop instead of synthesized.

use crate::report::render_table;
use crate::scenario::Scenario;
use std::collections::HashMap;
use vdx_broker::{gather_groups, CpPolicy};
use vdx_cdn::ClusterId;
use vdx_core::{run_decision_round_probed, Design, RoundId, RoundInputs};
use vdx_geo::CityId;
use vdx_obs::Event;

/// Replay parameters.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Decision Protocol period in seconds (paper: "every few minutes").
    pub bin_s: f64,
    /// The design to replay under.
    pub design: Design,
    /// CP policy.
    pub policy: CpPolicy,
}

impl Default for ReplayConfig {
    fn default() -> Self {
        ReplayConfig {
            bin_s: 300.0,
            design: Design::Marketplace,
            policy: CpPolicy::balanced(),
        }
    }
}

/// One bin's aggregate results.
#[derive(Debug, Clone)]
pub struct BinStats {
    /// Bin start time, seconds.
    pub t0: f64,
    /// Sessions active in this bin.
    pub active_sessions: u32,
    /// Of those, the sessions that were also active (and routed) in the
    /// previous bin.
    pub continuing: u32,
    /// The fraction of `continuing` whose serving *cluster* changed
    /// (decision-induced moves).
    pub moved_fraction: f64,
    /// Mean serving score over active sessions (lower is better).
    pub mean_score: f64,
}

/// Full replay results.
#[derive(Debug, Clone)]
pub struct ReplayResult {
    /// Per-bin statistics.
    pub bins: Vec<BinStats>,
}

impl ReplayResult {
    /// Mean decision-induced move fraction over bins with continuity.
    pub fn mean_moved(&self) -> f64 {
        let moved: Vec<f64> = self.bins.iter().skip(1).map(|b| b.moved_fraction).collect();
        if moved.is_empty() {
            0.0
        } else {
            moved.iter().sum::<f64>() / moved.len() as f64
        }
    }
}

/// Replays the scenario's trace through periodic Decision Protocol rounds.
///
/// Each bin's round reports to the scenario's probe under the bin index as
/// its round id, followed by one [`Event::SessionMoved`] summarising the
/// decision-induced churn at the bin boundary.
pub fn replay(scenario: &Scenario, config: &ReplayConfig) -> ReplayResult {
    let probe = scenario.probe();
    let duration = scenario.trace.config().trace_duration_s;
    let n_bins = (duration / config.bin_s).ceil() as usize;
    let mut bins = Vec::with_capacity(n_bins);
    // Previous bin's cluster per (city, bitrate) route.
    let mut prev_route: HashMap<(CityId, u32), ClusterId> = HashMap::new();

    for bin in 0..n_bins {
        let t0 = bin as f64 * config.bin_s;
        let t1 = t0 + config.bin_s;
        let active: Vec<_> = scenario
            .trace
            .sessions()
            .iter()
            .filter(|s| s.active_in(t0, t1))
            .cloned()
            .collect();
        if active.is_empty() {
            bins.push(BinStats {
                t0,
                active_sessions: 0,
                continuing: 0,
                moved_fraction: 0.0,
                mean_score: 0.0,
            });
            continue;
        }
        let groups = gather_groups(&active);
        // Background load stays the scenario's steady-state placement.
        let inputs = RoundInputs {
            fleet: &scenario.fleet,
            groups: &groups,
            background_load_kbps: &scenario.background_load,
            policy: config.policy,
            bid_count: None,
            engines: &scenario.engines(config.design),
            matches: scenario.match_table(config.design),
        };
        let outcome = run_decision_round_probed(
            config.design,
            &inputs,
            |a, b| scenario.score_of(a, b),
            RoundId(bin as u64),
            probe.as_ref(),
        );

        let mut route: HashMap<(CityId, u32), ClusterId> = HashMap::new();
        let mut score_sum = 0.0;
        for (g, &choice) in outcome.assignment.choice.iter().enumerate() {
            let group = &outcome.problem.groups[g];
            let option = &outcome.problem.options[g][choice];
            route.insert((group.city, group.bitrate_kbps), option.cluster);
            score_sum += option.score.value() * group.sessions as f64;
        }

        // Sessions that straddle the bin boundary move if their route
        // changed.
        let mut continuing = 0u32;
        let mut moved = 0u32;
        for s in &active {
            if s.arrival_s < t0 {
                let key = (s.city, s.bitrate_kbps);
                if let (Some(&old), Some(&new)) = (prev_route.get(&key), route.get(&key)) {
                    continuing += 1;
                    if old != new {
                        moved += 1;
                    }
                }
            }
        }
        if probe.enabled() {
            probe.emit(Event::SessionMoved {
                bin: bin as u64,
                moved: u64::from(moved),
                continuing: u64::from(continuing),
            });
        }
        let active_sessions = active.len() as u32;
        bins.push(BinStats {
            t0,
            active_sessions,
            continuing,
            moved_fraction: if continuing > 0 {
                moved as f64 / continuing as f64
            } else {
                0.0
            },
            mean_score: score_sum / active_sessions as f64,
        });
        prev_route = route;
    }
    ReplayResult { bins }
}

/// Renders the per-bin table and the mean the Fig 4 comparison reads.
pub fn render(config: &ReplayConfig, result: &ReplayResult) -> String {
    let rows: Vec<Vec<String>> = result
        .bins
        .iter()
        .map(|b| {
            vec![
                format!("{:.0}", b.t0),
                b.active_sessions.to_string(),
                b.continuing.to_string(),
                format!("{:.1}", 100.0 * b.moved_fraction),
                format!("{:.2}", b.mean_score),
            ]
        })
        .collect();
    let mut out = render_table(
        &format!(
            "Replay: decision-induced mid-stream moves, {} re-run every {:.0} s",
            config.design.name(),
            config.bin_s
        ),
        &[
            "t (s)",
            "active sessions",
            "continuing",
            "% moved",
            "mean score",
        ],
        &rows,
    );
    out.push_str(&format!(
        "mean {:.1}% of continuing sessions moved per round  (Fig 4's broker today: ~40%)\n",
        100.0 * result.mean_moved()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replay_produces_sane_bins() {
        let s: &Scenario = crate::scenario::shared_small();
        let r = replay(
            s,
            &ReplayConfig {
                bin_s: 600.0,
                ..Default::default()
            },
        );
        assert_eq!(r.bins.len(), 6);
        for b in &r.bins {
            assert!(
                b.active_sessions > 0,
                "every bin of an hour-long trace has sessions"
            );
            assert!((0.0..=1.0).contains(&b.moved_fraction));
            assert!(b.mean_score > 0.0);
        }
    }

    #[test]
    fn steady_demand_means_low_decision_churn() {
        // The decision inputs vary only through which sessions are active;
        // most (city, bitrate) routes should persist bin over bin under a
        // capacity-aware design.
        let s: &Scenario = crate::scenario::shared_small();
        let r = replay(
            s,
            &ReplayConfig {
                bin_s: 600.0,
                ..Default::default()
            },
        );
        assert!(
            r.mean_moved() < 0.5,
            "mid-stream moves should not dominate: {}",
            r.mean_moved()
        );
    }

    #[test]
    fn replay_journals_one_session_moved_event_per_populated_bin() {
        use crate::scenario::ScenarioConfig;
        use std::sync::Arc;
        use vdx_obs::MemoryProbe;
        let mut s = Scenario::build(ScenarioConfig::small());
        let (probe, rx) = MemoryProbe::channel();
        s.set_probe(Arc::new(probe));
        let r = replay(
            &s,
            &ReplayConfig {
                bin_s: 600.0,
                ..Default::default()
            },
        );
        let events: Vec<Event> = rx.try_iter().collect();
        let moves: Vec<(u64, u64, u64)> = events
            .iter()
            .filter_map(|e| match e {
                Event::SessionMoved {
                    bin,
                    moved,
                    continuing,
                } => Some((*bin, *moved, *continuing)),
                _ => None,
            })
            .collect();
        assert_eq!(moves.len(), r.bins.len(), "one churn event per bin");
        for (i, (bin, moved, continuing)) in moves.iter().enumerate() {
            assert_eq!(*bin, i as u64);
            assert!(moved <= continuing);
        }
        assert!(
            events
                .iter()
                .any(|e| matches!(e, Event::RoundStarted { round: 2, .. })),
            "each bin's decision round is journaled under its bin index"
        );
    }

    #[test]
    fn brokered_replay_also_runs() {
        let s: &Scenario = crate::scenario::shared_small();
        let r = replay(
            s,
            &ReplayConfig {
                bin_s: 900.0,
                design: Design::Brokered,
                ..Default::default()
            },
        );
        assert_eq!(r.bins.len(), 4);
    }
}
