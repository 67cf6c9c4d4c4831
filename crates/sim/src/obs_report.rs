//! Post-hoc analysis of a flight-recorder journal: `repro obs-report`.
//!
//! Takes the events of one journal (see `vdx-obs`) and renders the
//! plain-text summary an operator reads first after a run: what ran, how
//! long each phase, round and Optimize step took, how the solver decided,
//! what the wire did, and where congestion or churn showed up. Rendering
//! reuses [`crate::report`] so the output is diffable like every other
//! table.

use crate::report::{fmt, render_table};
use std::collections::BTreeMap;
use vdx_obs::Event;

/// Renders the operator summary for one journal's events.
pub fn report(events: &[Event]) -> String {
    let mut out = String::new();

    // Run identity. Journals newer than the reader never get this far:
    // `read_journal` rejects them with `JournalError::Version`, so the
    // supported-version note here documents the ceiling rather than
    // guarding it.
    for e in events {
        if let Event::RunHeader {
            schema,
            experiment,
            seed,
            scale,
            threads,
            git_commit,
            ..
        } = e
        {
            out.push_str(&format!(
                "journal: experiment={experiment} seed={seed} scale={scale} \
                 schema=v{schema} (reader supports <= v{})\n",
                vdx_obs::SCHEMA_VERSION
            ));
            let threads = if *threads == 0 {
                "ambient".to_string()
            } else {
                threads.to_string()
            };
            let commit = if git_commit.is_empty() {
                "unknown"
            } else {
                git_commit.as_str()
            };
            out.push_str(&format!("build: commit={commit} threads={threads}\n"));
        }
    }
    if let Some(Event::ExperimentFinished {
        wall_ms, events: n, ..
    }) = events.last()
    {
        out.push_str(&format!(
            "run complete: {n} events, {wall_ms} ms wall time\n"
        ));
    } else {
        out.push_str("run INCOMPLETE: journal has no terminal experiment_finished event\n");
    }
    out.push('\n');

    // Event census, sorted by kind for stable output.
    let mut census: BTreeMap<&'static str, u64> = BTreeMap::new();
    for e in events {
        *census.entry(e.kind()).or_insert(0) += 1;
    }
    let rows: Vec<Vec<String>> = census
        .iter()
        .map(|(k, n)| vec![(*k).to_string(), n.to_string()])
        .collect();
    out.push_str(&render_table("Event census", &["event", "count"], &rows));
    out.push('\n');

    // Per-phase wall time, in journal (i.e. execution) order.
    let phase_rows: Vec<Vec<String>> = events
        .iter()
        .filter_map(|e| match e {
            Event::PhaseFinished { phase, wall_us } => {
                Some(vec![phase.clone(), fmt(*wall_us as f64 / 1_000.0)])
            }
            _ => None,
        })
        .collect();
    if !phase_rows.is_empty() {
        out.push_str(&render_table("Phases", &["phase", "wall ms"], &phase_rows));
        out.push('\n');
    }

    // Decision rounds and their Optimize steps: a warm hit is a decision
    // the broker's memo replayed (`solver_stats.warm_hit`; false in
    // journals older than schema v7). Each line also carries its span's
    // wall time, for the timing section below.
    let (mut round_us, mut optimize_us) = (Vec::new(), Vec::new());
    let mut options = 0u64;
    let mut warm_hits = 0u64;
    for e in events {
        match e {
            Event::RoundCompleted {
                options: o,
                wall_us,
                ..
            } => {
                round_us.push(*wall_us);
                options += o;
            }
            Event::SolverStats {
                warm_hit, wall_us, ..
            } => {
                optimize_us.push(*wall_us);
                warm_hits += u64::from(*warm_hit);
            }
            _ => {}
        }
    }
    let (rounds, solves) = (round_us.len(), optimize_us.len());
    if rounds > 0 {
        let solver_rows = vec![
            vec!["rounds completed".to_string(), rounds.to_string()],
            vec!["options considered".to_string(), options.to_string()],
            vec![
                "optimize steps (warm hits)".to_string(),
                format!("{solves} ({warm_hits})"),
            ],
        ];
        out.push_str(&render_table(
            "Decision rounds",
            &["metric", "value"],
            &solver_rows,
        ));
        out.push('\n');
    }

    // Wire health: the three distinct drop causes (injected link loss,
    // CRC-discarded corruption, Go-Back-N out-of-order discards — see
    // `Event::WireDrops`).
    let mut link_dropped = 0u64;
    let mut corrupt_discarded = 0u64;
    let mut out_of_order = 0u64;
    for e in events {
        if let Event::WireDrops {
            link_dropped: l,
            corrupt_discarded: c,
            out_of_order: o,
            ..
        } = e
        {
            link_dropped += l;
            corrupt_discarded += c;
            out_of_order += o;
        }
    }
    if link_dropped + corrupt_discarded + out_of_order > 0 {
        let wire_rows = vec![
            vec!["link fault drops".to_string(), link_dropped.to_string()],
            vec![
                "crc-discarded frames".to_string(),
                corrupt_discarded.to_string(),
            ],
            vec![
                "out-of-order discards".to_string(),
                out_of_order.to_string(),
            ],
        ];
        out.push_str(&render_table("Wire", &["metric", "value"], &wire_rows));
        out.push('\n');
    }

    // Fault campaigns: injected faults and the degradation ladder's
    // moves, tallied per kind of event that marks a faulted round.
    let mut faults: BTreeMap<&str, u64> = BTreeMap::new();
    for e in events.iter().filter(|e| e.faulted_round().is_some()) {
        *faults.entry(e.kind()).or_insert(0) += 1;
    }
    if !faults.is_empty() {
        let fault_rows: Vec<Vec<String>> = [
            ("faulted rounds", "fault_plan_applied"),
            ("cdn outages", "cdn_outage"),
            ("exchange outages", "exchange_outage"),
            ("deadlines missed", "deadline_missed"),
            ("stale-bid reuses", "stale_bids_reused"),
            ("design fallbacks", "design_fallback"),
        ]
        .iter()
        .map(|(label, kind)| {
            debug_assert!(Event::KINDS.contains(kind), "no event is tagged {kind}");
            let count = faults.get(kind).copied().unwrap_or(0);
            vec![label.to_string(), count.to_string()]
        })
        .collect();
        out.push_str(&render_table("Faults", &["metric", "value"], &fault_rows));
        out.push('\n');
    }

    // Daemon connection lifecycle and CDN health (schema v5; only
    // `vdx-exchanged` journals carry these). One row per CDN that ever
    // appeared in a conn_* or health_* event. "last state" is the
    // breaker state after the journal's final transition for that CDN —
    // CDNs with connections but no transitions have been healthy
    // (closed) throughout.
    #[derive(Default)]
    struct CdnHealth {
        accepted: u64,
        closed: u64,
        last_close_reason: Option<String>,
        backpressure: u64,
        transitions: u64,
        last_state: Option<String>,
        probes_ok: u64,
        probes_failed: u64,
    }
    let mut health: BTreeMap<u32, CdnHealth> = BTreeMap::new();
    for e in events {
        match e {
            Event::ConnAccepted { cdn, .. } => health.entry(*cdn).or_default().accepted += 1,
            Event::ConnClosed { cdn, reason, .. } => {
                let h = health.entry(*cdn).or_default();
                h.closed += 1;
                h.last_close_reason = Some(reason.clone());
            }
            Event::ConnBackpressure { cdn, .. } => {
                health.entry(*cdn).or_default().backpressure += 1
            }
            Event::HealthTransition { cdn, to, .. } => {
                let h = health.entry(*cdn).or_default();
                h.transitions += 1;
                h.last_state = Some(to.clone());
            }
            Event::HealthProbe { cdn, success, .. } => {
                let h = health.entry(*cdn).or_default();
                if *success {
                    h.probes_ok += 1;
                } else {
                    h.probes_failed += 1;
                }
            }
            _ => {}
        }
    }
    if !health.is_empty() {
        let rows: Vec<Vec<String>> = health
            .iter()
            .map(|(cdn, h)| {
                vec![
                    format!("CDN {cdn}"),
                    h.accepted.to_string(),
                    match &h.last_close_reason {
                        Some(reason) => format!("{} ({reason})", h.closed),
                        None => h.closed.to_string(),
                    },
                    h.backpressure.to_string(),
                    h.transitions.to_string(),
                    h.last_state.clone().unwrap_or_else(|| "closed".into()),
                    format!("{}/{}", h.probes_ok, h.probes_ok + h.probes_failed),
                ]
            })
            .collect();
        out.push_str(&render_table(
            "Daemon connections & health",
            &[
                "cdn",
                "conns",
                "closes",
                "backpressure",
                "transitions",
                "last state",
                "probes ok",
            ],
            &rows,
        ));
        out.push('\n');
    }

    // Daemon restarts: what each replayed and how long it took, from the
    // log's open to the round spine built (`recovery_complete.wall_us`;
    // a journal written before that field reads 0 and prints `-`).
    let mut records = 0u64;
    let mut restarts = Vec::new();
    for e in events {
        match e {
            Event::RecoveryStarted { records: n, .. } => records = *n,
            Event::RecoveryComplete {
                rounds_recovered,
                rounds_voided,
                wall_us,
                ..
            } => restarts.push(vec![
                (restarts.len() + 1).to_string(),
                records.to_string(),
                rounds_recovered.to_string(),
                rounds_voided.to_string(),
                if *wall_us == 0 {
                    "-".to_string()
                } else {
                    fmt(*wall_us as f64 / 1_000.0)
                },
            ]),
            _ => {}
        }
    }
    if !restarts.is_empty() {
        out.push_str(&render_table(
            "Restarts",
            &["restart", "records", "rounds", "voided", "wall ms"],
            &restarts,
        ));
        out.push('\n');
    }

    // Congestion and replay churn.
    let congested = events
        .iter()
        .filter(|e| matches!(e, Event::ClusterCongested { .. }))
        .count();
    let (mut moved, mut continuing) = (0u64, 0u64);
    for e in events {
        if let Event::SessionMoved {
            moved: m,
            continuing: c,
            ..
        } = e
        {
            moved += m;
            continuing += c;
        }
    }
    if congested > 0 || continuing > 0 {
        let mut rows = vec![vec![
            "congested cluster-rounds".to_string(),
            congested.to_string(),
        ]];
        if continuing > 0 {
            rows.push(vec![
                "sessions moved mid-stream".to_string(),
                moved.to_string(),
            ]);
            rows.push(vec![
                "moved fraction".to_string(),
                fmt(moved as f64 / continuing as f64),
            ]);
        }
        out.push_str(&render_table("Load & churn", &["metric", "value"], &rows));
        out.push('\n');
    }

    // Wall times, exact: every statistic is over the raw `wall_us` the
    // spans journaled, percentiles by nearest rank. A span whose every
    // reading is 0 was not timed (a journal older than schema v8, or a
    // scrubbed one) and gets no row.
    let timing_rows: Vec<Vec<String>> =
        [("round_completed", round_us), ("solver_stats", optimize_us)]
            .into_iter()
            .filter(|(_, us)| us.iter().any(|&u| u > 0))
            .map(|(kind, mut us)| {
                us.sort_unstable();
                let n = us.len();
                let rank = |p: usize| us[(p * n).div_ceil(100).max(1) - 1].to_string();
                let mean = us.iter().sum::<u64>() as f64 / n as f64;
                vec![
                    kind.to_string(),
                    n.to_string(),
                    fmt(mean),
                    rank(50),
                    rank(95),
                    rank(99),
                ]
            })
            .collect();
    if !timing_rows.is_empty() {
        out.push_str(&render_table(
            "Timings (µs)",
            &["span", "count", "mean", "p50", "p95", "p99"],
            &timing_rows,
        ));
        out.push('\n');
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> Vec<Event> {
        vec![
            Event::RunHeader {
                schema: vdx_obs::SCHEMA_VERSION,
                experiment: "table3".into(),
                seed: 2017,
                scale: "small".into(),
                started_unix_ms: 0,
                threads: 4,
                git_commit: "abc123def456".into(),
            },
            Event::PhaseStarted {
                phase: "build_scenario".into(),
            },
            Event::PhaseFinished {
                phase: "build_scenario".into(),
                wall_us: 2_500_000,
            },
            Event::RoundStarted {
                round: 0,
                design: "Marketplace".into(),
                groups: 10,
                cdns: 3,
            },
            Event::SolverStats {
                round: 0,
                objective: 5.0,
                warm_hit: false,
                wall_us: 400,
            },
            Event::RoundCompleted {
                round: 0,
                objective: 5.0,
                options: 30,
                wall_us: 1_000,
            },
            Event::FaultPlanApplied {
                round: 0,
                drop_chance: 0.15,
                corrupt_chance: 0.05,
                delay_ms: 20,
                jitter_ms: 10,
                exchange_outage: false,
                failed_cdns: 1,
                deadline_ms: 3_000,
            },
            Event::CdnOutage { round: 0, cdn: 2 },
            Event::DeadlineMissed {
                round: 0,
                missing_cdns: 2,
                deadline_ms: 3_000,
            },
            Event::StaleBidsReused {
                round: 0,
                cdn: 1,
                age_rounds: 1,
                bids: 44,
            },
            Event::DesignFallback {
                round: 0,
                from: "Marketplace".into(),
                to: "Brokered".into(),
                reason: "insufficient bids at deadline".into(),
            },
            Event::WireDrops {
                round: 0,
                cdn: 1,
                link_dropped: 31,
                corrupt_discarded: 4,
                out_of_order: 12,
            },
            Event::ConnAccepted {
                at_ms: 5,
                cdn: 1,
                peer: "127.0.0.1:50000".into(),
            },
            Event::ConnBackpressure {
                at_ms: 40,
                cdn: 1,
                queued: 64,
            },
            Event::HealthTransition {
                round: 0,
                cdn: 1,
                from: "closed".into(),
                to: "open".into(),
                reason: "trip threshold reached".into(),
            },
            Event::HealthProbe {
                round: 2,
                cdn: 1,
                success: true,
            },
            Event::HealthTransition {
                round: 2,
                cdn: 1,
                from: "half_open".into(),
                to: "closed".into(),
                reason: "probe succeeded".into(),
            },
            Event::ConnClosed {
                at_ms: 90,
                cdn: 1,
                reason: "shutdown".into(),
            },
            Event::RecoveryStarted {
                records: 1_856,
                truncated_bytes: 0,
            },
            Event::RecoveryComplete {
                next_round: 256,
                rounds_recovered: 256,
                rounds_voided: 0,
                wall_us: 15_400,
            },
            Event::SessionMoved {
                bin: 1,
                moved: 2,
                continuing: 8,
            },
            Event::ClusterCongested {
                round: 0,
                cluster: 4,
                load_kbps: 2.0,
                capacity_kbps: 1.0,
            },
            Event::ExperimentFinished {
                experiment: "table3".into(),
                wall_ms: 3_000,
                events: 12,
            },
        ]
    }

    #[test]
    fn report_covers_every_section() {
        let text = report(&fixture());
        assert!(
            text.contains("experiment=table3 seed=2017 scale=small"),
            "{text}"
        );
        assert!(
            text.contains(&format!(
                "schema=v{v} (reader supports <= v{v})",
                v = vdx_obs::SCHEMA_VERSION
            )),
            "{text}"
        );
        assert!(
            text.contains("build: commit=abc123def456 threads=4"),
            "{text}"
        );
        assert!(text.contains("run complete: 12 events"), "{text}");
        assert!(text.contains("== Event census =="), "{text}");
        assert!(text.contains("round_completed"), "{text}");
        assert!(text.contains("== Phases =="), "{text}");
        assert!(text.contains("build_scenario"), "{text}");
        assert!(text.contains("== Decision rounds =="), "{text}");
        assert!(text.contains("optimize steps (warm hits)"), "{text}");
        assert!(text.contains("1 (0)"), "{text}");
        assert!(text.contains("== Wire =="), "{text}");
        assert!(text.contains("link fault drops"), "{text}");
        assert!(text.contains("crc-discarded frames"), "{text}");
        assert!(text.contains("out-of-order discards"), "{text}");
        assert!(text.contains("== Faults =="), "{text}");
        assert!(text.contains("stale-bid reuses"), "{text}");
        assert!(text.contains("design fallbacks"), "{text}");
        assert!(text.contains("== Daemon connections & health =="), "{text}");
        assert!(
            text.contains("1 (shutdown)"),
            "close count with reason: {text}"
        );
        assert!(text.contains("closed"), "last state after recovery: {text}");
        assert!(text.contains("1/1"), "probe tally: {text}");
        assert!(text.contains("== Restarts =="), "{text}");
        assert!(text.contains("== Load & churn =="), "{text}");
        assert!(text.contains("0.2500"), "moved fraction 2/8: {text}");
        assert!(text.contains("== Timings"), "{text}");
    }

    /// Rounds of 1,000 / 1,080 / 1,100 / 2,400 µs: the nearest-rank p50
    /// is the second reading, 1,080 µs, where a 1-2-5 bucketed histogram
    /// would report the bucket bound, 2,000 µs. Optimize steps that were
    /// not timed (`wall_us` 0, as a pre-v8 line reads) get no row.
    #[test]
    fn timings_are_exact_nearest_rank_statistics() {
        let mut events: Vec<Event> = [1_000, 2_400, 1_100, 1_080]
            .into_iter()
            .enumerate()
            .map(|(round, wall_us)| Event::RoundCompleted {
                round: round as u64,
                objective: 1.0,
                options: 3,
                wall_us,
            })
            .collect();
        events.push(Event::SolverStats {
            round: 0,
            objective: 1.0,
            warm_hit: false,
            wall_us: 0,
        });
        let text = report(&events);
        let timings = text
            .split("== Timings (µs) ==")
            .nth(1)
            .unwrap_or_else(|| panic!("no timing section: {text}"));
        let rows: Vec<Vec<&str>> = (timings.lines().skip(3))
            .take_while(|l| !l.is_empty())
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(
            rows,
            [["round_completed", "4", "1395", "1080", "2400", "2400"]],
            "span, count, mean, p50, p95, p99; no untimed span: {text}"
        );
    }

    /// One row per restart: the records and rounds it replayed and its
    /// wall time in ms; a restart journaled without a time prints `-`.
    #[test]
    fn each_restart_reports_its_rounds_and_time() {
        let restart = |records, rounds, voided, wall_us| {
            [
                Event::RecoveryStarted {
                    records,
                    truncated_bytes: 0,
                },
                Event::RecoveryComplete {
                    next_round: rounds + voided,
                    rounds_recovered: rounds,
                    rounds_voided: voided,
                    wall_us,
                },
            ]
        };
        let events: Vec<Event> = [restart(1_856, 256, 0, 15_400), restart(35, 2, 1, 0)]
            .into_iter()
            .flatten()
            .collect();
        let text = report(&events);
        let section = text
            .split("== Restarts ==")
            .nth(1)
            .unwrap_or_else(|| panic!("no restart section: {text}"));
        let rows: Vec<Vec<&str>> = (section.lines().skip(3))
            .take_while(|l| !l.is_empty())
            .map(|l| l.split_whitespace().collect())
            .collect();
        assert_eq!(
            rows,
            [
                ["1", "1856", "256", "0", "15.40"],
                ["2", "35", "2", "1", "-"]
            ],
            "restart, records, rounds, voided, wall ms: {text}"
        );
    }

    #[test]
    fn truncated_journal_is_flagged() {
        // What a SIGKILLed run leaves on disk: the last line torn
        // mid-record, no newline after it. The reader drops that line
        // and the report says the run never finished.
        let fixture = fixture();
        let lines: Vec<String> = fixture.iter().map(Event::to_json_line).collect();
        let whole = lines.join("\n");
        let path =
            std::env::temp_dir().join(format!("vdx-obs-report-torn-{}.jsonl", std::process::id()));
        std::fs::write(&path, &whole[..whole.len() - 40]).expect("write fixture");
        let events = vdx_obs::read_journal(&path).expect("a torn tail still reads");
        std::fs::remove_file(&path).ok();
        assert_eq!(events, fixture[..fixture.len() - 1]);
        let text = report(&events);
        assert!(text.contains("run INCOMPLETE"), "{text}");
    }

    #[test]
    fn empty_sections_are_omitted() {
        let events = vec![
            Event::RunHeader {
                schema: 1,
                experiment: "x".into(),
                seed: 1,
                scale: "small".into(),
                started_unix_ms: 0,
                threads: 0,
                git_commit: String::new(),
            },
            Event::ExperimentFinished {
                experiment: "x".into(),
                wall_ms: 1,
                events: 1,
            },
        ];
        let text = report(&events);
        assert!(!text.contains("== Wire =="), "{text}");
        assert!(!text.contains("== Faults =="), "{text}");
        assert!(
            !text.contains("== Daemon connections & health =="),
            "{text}"
        );
        assert!(!text.contains("== Timings"), "{text}");
        assert!(!text.contains("== Phases =="), "{text}");
    }
}
