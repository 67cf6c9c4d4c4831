//! The typed event schema: everything a VDX run can journal.
//!
//! One [`Event`] is one JSONL line: a flat object whose first key is the
//! `"ev"` tag ([`Event::kind`]) and whose other keys are the variant's
//! fields in declaration order, so a journal line reads naturally:
//!
//! ```text
//! {"ev":"round_started","round":0,"design":"Marketplace","groups":412,"cdns":14}
//! ```
//!
//! Two kinds of field appear:
//!
//! * **simulation fields** — round ids, counts, objective values. These
//!   are fully deterministic: the same scenario and seed produce the same
//!   values on every run.
//! * **wall-clock fields** — `started_unix_ms`, `wall_us` (a phase's, an
//!   Optimize step's, a round's, a restart's), `wall_ms` and the `at_ms` of the four
//!   `conn_*` events. These come from the host clock and differ run to
//!   run. [`Event::zero_wall_clock`] zeroes exactly this set, after which
//!   two journals of the same seeded run are byte-identical (tested in
//!   `vdx-sim`); `scripts/journal-scrub.sed` does the same to a journal
//!   file.
//!
//! The line format is written by [`Event::to_json_line`] and read by
//! [`Event::from_json`], both generated from the one field table at the
//! bottom of this file. Numbers are typed per field: `u64`/`u32` fields
//! print as exact integers, `f64` fields always carry a fraction or an
//! exponent ([`crate::json::write_f64`]), which is byte for byte what the
//! `serde_json` derive this replaced produced (DESIGN.md §7's example
//! lines are the goldens).

use crate::json::{write_f64, write_string, Json};
use std::fmt::Write as _;

/// Journal schema version; bump when variants or fields change shape.
///
/// v3 added `threads` and `git_commit` to [`Event::RunHeader`] so the
/// audit store (`vdx-audit`) can attribute runs to builds. Both default
/// when absent, so v2 journals still parse; readers must reject
/// journals *newer* than this constant (see `read_journal`). v4 added
/// `solver_resolve`, a per-round problem-delta record of the warm-start
/// layer (retired in v7). v5 added the daemon connection-lifecycle events
/// ([`Event::ConnAccepted`], [`Event::ConnClosed`],
/// [`Event::ConnBackpressure`]) and the circuit-breaker health events
/// ([`Event::HealthTransition`], [`Event::HealthProbe`]) emitted by
/// `vdx-exchanged`; in-process runs never emit them, so their journals
/// change only in the header's `schema` field. v6 added the crash-safety
/// events: [`Event::ConnRetry`] (agent-side bounded-backoff reconnect
/// attempts) and the daemon recovery trio [`Event::RecoveryStarted`],
/// [`Event::RecoveryRoundVoided`], [`Event::RecoveryComplete`] emitted
/// while a restarted daemon replays its WAL (DESIGN.md §15); like the v5
/// additions they only appear in daemon/agent journals. v7 retired
/// `solver_resolve` (`read_journal` skips its lines), cut
/// [`Event::SolverStats`] to `round`, `objective` and `warm_hit` (older
/// lines read as `warm_hit: false`; their other fields are ignored) and
/// gave [`Event::ConnRetry`] its `reason` (empty in older journals). v8
/// put each timed span's raw duration on the event that closes it:
/// `wall_us` on [`Event::SolverStats`] (the Optimize step, solved or
/// replayed) and on [`Event::RoundCompleted`] (the whole round); both
/// read as 0 in older journals. It retired `timing_summary`, the
/// end-of-run histogram digest those two fields replace (`read_journal`
/// skips its lines).
pub const SCHEMA_VERSION: u32 = 8;

/// One journaled event. See the module docs for the field taxonomy and
/// DESIGN.md §7 for one example line per variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// First line of every journal: identifies the run.
    RunHeader {
        /// [`SCHEMA_VERSION`] at write time.
        schema: u32,
        /// Experiment name (`table3`, `fig17`, `replay`, ...).
        experiment: String,
        /// Master scenario seed.
        seed: u64,
        /// Scenario scale (`full` or `small`).
        scale: String,
        /// Wall-clock start, Unix milliseconds (zeroable).
        started_unix_ms: u64,
        /// Worker threads the run was configured with; 0 means the
        /// ambient parallelism (no explicit `--threads`). Absent in
        /// schema v2 journals, where it reads as 0.
        threads: u64,
        /// Short git commit hash of the producing build, or `unknown`
        /// outside a checkout. Absent in schema v2 journals, where it
        /// reads as empty.
        git_commit: String,
    },
    /// A named phase (scenario build, one experiment, ...) began.
    PhaseStarted {
        /// Phase name.
        phase: String,
    },
    /// A named phase finished.
    PhaseFinished {
        /// Phase name.
        phase: String,
        /// Elapsed wall time in microseconds (zeroable).
        wall_us: u64,
    },
    /// A Decision Protocol round began.
    RoundStarted {
        /// Monotone round id within the run.
        round: u64,
        /// The design the round runs under.
        design: String,
        /// Client groups in the round.
        groups: u64,
        /// CDNs participating.
        cdns: u64,
    },
    /// The broker Shared its client groups (step 3 of §4.1).
    SharePublished {
        /// Round id.
        round: u64,
        /// Number of shares (client groups) published.
        shares: u64,
        /// Total demand shared, kbit/s.
        demand_kbps: f64,
    },
    /// One CDN's Announce (bid batch) was assembled or received.
    BidReceived {
        /// Round id.
        round: u64,
        /// The bidding CDN.
        cdn: u32,
        /// Bids in the batch.
        bids: u64,
    },
    /// The Accept step went out: every bid echoed with its outcome.
    AcceptIssued {
        /// Round id.
        round: u64,
        /// Winning bids (one per group).
        accepted: u64,
        /// Losing bids (CDNs learn from these too, §6.1).
        rejected: u64,
    },
    /// One Optimize step's decision.
    SolverStats {
        /// Round id.
        round: u64,
        /// Objective value achieved (Fig 9 units).
        objective: f64,
        /// True when the broker's memo (`OptimizeContext`) replayed the
        /// previous round's decision because its input repeated; false
        /// for a solve. Absent before schema v7, where it reads false.
        warm_hit: bool,
        /// The Optimize step's wall time, microseconds (zeroable). Absent
        /// before schema v8, where it reads 0.
        wall_us: u64,
    },
    /// A Decision Protocol round completed.
    RoundCompleted {
        /// Round id.
        round: u64,
        /// Objective value achieved.
        objective: f64,
        /// Total candidate options the broker considered.
        options: u64,
        /// The round's wall time, microseconds (zeroable). Absent before
        /// schema v8, where it reads 0.
        wall_us: u64,
    },
    /// Replay: sessions straddling a bin boundary were moved mid-stream by
    /// the new round's assignment (the churn of the paper's Fig 4).
    SessionMoved {
        /// Replay bin index.
        bin: u64,
        /// Sessions whose serving cluster changed.
        moved: u64,
        /// Sessions that continued across the boundary.
        continuing: u64,
    },
    /// A cluster ended a round loaded past its true capacity.
    ClusterCongested {
        /// Round id.
        round: u64,
        /// The overloaded cluster.
        cluster: u32,
        /// Brokered + background load, kbit/s.
        load_kbps: f64,
        /// True capacity, kbit/s.
        capacity_kbps: f64,
    },
    /// A fault-injection campaign armed this round's fault profile
    /// (DESIGN.md §9). Emitted once per round a campaign runs on the
    /// round spine, before any protocol traffic; a clean round's injects
    /// nothing and marks no round faulted ([`Event::faulted_round`]).
    FaultPlanApplied {
        /// Round id.
        round: u64,
        /// Per-packet drop probability on every broker↔CDN link.
        drop_chance: f64,
        /// Per-packet corruption probability (CRC-discarded on receive).
        corrupt_chance: f64,
        /// Base one-way link delay, simulation ms.
        delay_ms: u64,
        /// Deterministic jitter added on top of the base delay, ms.
        jitter_ms: u64,
        /// Whether the exchange itself is down for the round.
        exchange_outage: bool,
        /// CDNs whose clusters are failed for the round.
        failed_cdns: u64,
        /// The broker's round deadline, simulation ms.
        deadline_ms: u64,
    },
    /// An injected CDN failure: every cluster of this CDN is down for the
    /// round, so it neither bids nor serves.
    CdnOutage {
        /// Round id.
        round: u64,
        /// The failed CDN.
        cdn: u32,
    },
    /// An injected exchange outage: the marketplace is unreachable for
    /// the whole round and exchange-dependent designs must fall back.
    ExchangeOutage {
        /// Round id.
        round: u64,
    },
    /// The broker's round deadline passed with Announces still missing.
    DeadlineMissed {
        /// Round id.
        round: u64,
        /// CDNs whose Announce never arrived.
        missing_cdns: u64,
        /// The deadline that fired, simulation ms.
        deadline_ms: u64,
    },
    /// Degradation level 2 (DESIGN.md §9): the broker substituted a
    /// CDN's cached bids from an earlier round (within the stale-bid
    /// TTL).
    StaleBidsReused {
        /// Round id.
        round: u64,
        /// The CDN whose cached bids were reused.
        cdn: u32,
        /// Age of the cached bids, in rounds.
        age_rounds: u64,
        /// Bids substituted.
        bids: u64,
    },
    /// Degradation level 4 (DESIGN.md §9): the round abandoned its
    /// design and fell back to another (e.g. Marketplace → Brokered on
    /// an exchange outage).
    DesignFallback {
        /// Round id.
        round: u64,
        /// The design the round was meant to run under.
        from: String,
        /// The design it actually completed under.
        to: String,
        /// Why the fallback fired (`exchange outage`, `insufficient bids
        /// at deadline`, ...).
        reason: String,
    },
    /// End-of-round drop accounting for one broker↔CDN link, with the
    /// three discard causes kept separate (they used to be conflated).
    WireDrops {
        /// Round id.
        round: u64,
        /// The CDN on the far end of the link.
        cdn: u32,
        /// Packets the faulty link itself dropped (injected loss).
        link_dropped: u64,
        /// Frames the receivers discarded as corrupt (CRC mismatch).
        corrupt_discarded: u64,
        /// In-sequence frames the Go-Back-N receivers discarded because
        /// they arrived out of order.
        out_of_order: u64,
    },
    /// The daemon accepted a CDN agent connection (after its `Hello`).
    ConnAccepted {
        /// Daemon wall clock, ms since daemon start (zeroable).
        at_ms: u64,
        /// The CDN the agent identified as.
        cdn: u32,
        /// Peer socket address, `ip:port`.
        peer: String,
    },
    /// A CDN agent connection ended (EOF, error, or daemon shutdown).
    ConnClosed {
        /// Daemon wall clock, ms since daemon start (zeroable).
        at_ms: u64,
        /// The CDN whose connection closed.
        cdn: u32,
        /// Why it closed (`eof`, `read error`, `shutdown`, ...).
        reason: String,
    },
    /// A connection's bounded inbound queue filled; the reader thread
    /// stalled on the socket until the round loop drained it (the
    /// daemon's backpressure mechanism — nothing is dropped).
    ConnBackpressure {
        /// Daemon wall clock, ms since daemon start (zeroable).
        at_ms: u64,
        /// The CDN whose queue filled.
        cdn: u32,
        /// Messages queued when the stall began (the queue capacity).
        queued: u64,
    },
    /// A per-CDN circuit breaker changed health state (DESIGN.md §9's
    /// exclusion rung as an explicit state machine; see
    /// `vdx-broker::health`).
    HealthTransition {
        /// Round id at which the transition fired.
        round: u64,
        /// The CDN whose breaker moved.
        cdn: u32,
        /// State before (`closed`, `open`, `half_open`).
        from: String,
        /// State after.
        to: String,
        /// Why (`trip threshold reached`, `cooldown elapsed`, ...).
        reason: String,
    },
    /// A half-open breaker's probe round resolved.
    HealthProbe {
        /// Round id of the probe.
        round: u64,
        /// The probed CDN.
        cdn: u32,
        /// True when the probe Announce arrived in time (breaker closes);
        /// false when it missed (breaker reopens).
        success: bool,
    },
    /// An agent lost its daemon connection and is about to retry
    /// (bounded exponential backoff); one event per attempt.
    ConnRetry {
        /// Agent wall clock, ms since agent start (zeroable).
        at_ms: u64,
        /// The CDN the agent bids for.
        cdn: u32,
        /// Retry attempt number, 1-based.
        attempt: u32,
        /// Backoff the agent sleeps before this attempt, milliseconds
        /// (deterministic: a doubling schedule, not a wall reading).
        backoff_ms: u64,
        /// What failed: the connect or session transport error, or `eof`
        /// when the daemon closed the session. Absent before schema v7,
        /// where it reads empty.
        reason: String,
    },
    /// A restarted daemon began replaying its WAL (DESIGN.md §15).
    RecoveryStarted {
        /// Whole records found in the log.
        records: u64,
        /// Torn/corrupt tail bytes truncated away before replay.
        truncated_bytes: u64,
    },
    /// Recovery voided an in-flight round: it was open in the WAL but
    /// never settled, so it is re-run from the restored state (the
    /// exactly-once rule — no Accept for it was ever sent).
    RecoveryRoundVoided {
        /// The round being re-run.
        round: u64,
    },
    /// WAL replay finished; the daemon resumes the campaign.
    RecoveryComplete {
        /// First round the daemon runs next.
        next_round: u64,
        /// Committed rounds reconstructed from the log.
        rounds_recovered: u64,
        /// Rounds voided and re-run (0 or 1 under the current format).
        rounds_voided: u64,
        /// The restart's wall time, microseconds (zeroable): from opening
        /// the log to the round spine built from it. Absent in journals
        /// written before it was added, where it reads 0.
        wall_us: u64,
    },
    /// Terminal record: the run finished and the journal is complete.
    ExperimentFinished {
        /// Experiment name (matches the header).
        experiment: String,
        /// Total wall time, milliseconds (zeroable).
        wall_ms: u64,
        /// Events written before this one.
        events: u64,
    },
}

impl Event {
    /// Zeroes every wall-clock-derived field (see module docs), leaving
    /// simulation fields untouched. After this, journals of identical
    /// seeded runs compare byte-for-byte.
    pub fn zero_wall_clock(&mut self) {
        match self {
            Event::RunHeader {
                started_unix_ms, ..
            } => *started_unix_ms = 0,
            Event::PhaseFinished { wall_us, .. }
            | Event::SolverStats { wall_us, .. }
            | Event::RoundCompleted { wall_us, .. }
            | Event::RecoveryComplete { wall_us, .. } => *wall_us = 0,
            Event::ConnAccepted { at_ms, .. } => *at_ms = 0,
            Event::ConnClosed { at_ms, .. } => *at_ms = 0,
            Event::ConnBackpressure { at_ms, .. } => *at_ms = 0,
            Event::ConnRetry { at_ms, .. } => *at_ms = 0,
            Event::ExperimentFinished { wall_ms, .. } => *wall_ms = 0,
            _ => {}
        }
    }

    /// The round this event marks as faulted — a fault injected into it
    /// or one the degradation ladder absorbed in it — or `None` for every
    /// other event, a fault profile that injects nothing included. The
    /// one definition `repro obs-report`'s "Faults" section and
    /// `vdx-audit`'s `fault-league` both count by.
    pub fn faulted_round(&self) -> Option<u64> {
        match self {
            Event::FaultPlanApplied {
                round,
                drop_chance,
                corrupt_chance,
                delay_ms,
                jitter_ms,
                exchange_outage,
                failed_cdns,
                ..
            } => {
                let injects = *drop_chance > 0.0
                    || *corrupt_chance > 0.0
                    || *delay_ms > 0
                    || *jitter_ms > 0
                    || *exchange_outage
                    || *failed_cdns > 0;
                injects.then_some(*round)
            }
            Event::CdnOutage { round, .. }
            | Event::ExchangeOutage { round }
            | Event::DeadlineMissed { round, .. }
            | Event::StaleBidsReused { round, .. }
            | Event::DesignFallback { round, .. } => Some(*round),
            _ => None,
        }
    }
}

/// A field type the journal codec knows how to lay out and read back.
trait Field: Sized {
    fn write(&self, out: &mut String);
    fn read(value: &Json) -> Option<Self>;
}

impl Field for u64 {
    fn write(&self, out: &mut String) {
        // Writing to a `String` cannot fail.
        let _ = write!(out, "{self}");
    }
    fn read(value: &Json) -> Option<u64> {
        value.as_u64()
    }
}

impl Field for u32 {
    fn write(&self, out: &mut String) {
        u64::from(*self).write(out);
    }
    fn read(value: &Json) -> Option<u32> {
        u32::try_from(value.as_u64()?).ok()
    }
}

impl Field for f64 {
    fn write(&self, out: &mut String) {
        write_f64(*self, out);
    }
    fn read(value: &Json) -> Option<f64> {
        value.as_f64()
    }
}

impl Field for bool {
    fn write(&self, out: &mut String) {
        out.push_str(if *self { "true" } else { "false" });
    }
    fn read(value: &Json) -> Option<bool> {
        value.as_bool()
    }
}

impl Field for String {
    fn write(&self, out: &mut String) {
        write_string(self, out);
    }
    fn read(value: &Json) -> Option<String> {
        value.as_str().map(str::to_string)
    }
}

/// Generates [`Event::KINDS`], [`Event::kind`], [`Event::to_json_line`]
/// and [`Event::from_json`] from one table: per variant its tag and its
/// fields in line order. `field = default` is the value a line lacking
/// the key reads as; any other missing key is an error.
macro_rules! journal_codec {
    (@missing $field:ident) => {
        return Err(format!("missing field `{}`", stringify!($field)))
    };
    (@missing $field:ident $default:expr) => {
        $default
    };
    ($($tag:literal => $variant:ident { $($field:ident $(= $default:expr)?),* })*) => {
        impl Event {
            /// Every `"ev"` tag, in table order: one per variant, since
            /// [`Event::kind`]'s match is exhaustive over the same table.
            pub const KINDS: &'static [&'static str] = &[$($tag),*];

            /// The `"ev"` tag this variant is journaled under.
            pub fn kind(&self) -> &'static str {
                match self {
                    $(Event::$variant { .. } => $tag,)*
                }
            }

            /// The event as its one JSONL line (no trailing newline).
            pub fn to_json_line(&self) -> String {
                let mut out = String::with_capacity(160);
                out.push_str("{\"ev\":");
                write_string(self.kind(), &mut out);
                match self {
                    $(Event::$variant { $($field),* } => {
                        $(
                            out.push_str(concat!(",\"", stringify!($field), "\":"));
                            Field::write($field, &mut out);
                        )*
                    })*
                }
                out.push('}');
                out
            }

            /// Parses one journal line. Unknown keys are ignored (a newer
            /// writer may add fields); an unknown tag, a missing field
            /// without a default and a value of the wrong type are errors.
            pub fn from_json(line: &str) -> Result<Event, String> {
                let doc = Json::parse(line).map_err(|e| e.to_string())?;
                let tag = doc
                    .get("ev")
                    .and_then(Json::as_str)
                    .ok_or_else(|| "not an event: no `ev` tag".to_string())?;
                match tag {
                    $($tag => Ok(Event::$variant {
                        $($field: match doc.get(stringify!($field)) {
                            Some(value) => Field::read(value).ok_or_else(|| {
                                format!("field `{}` has the wrong type", stringify!($field))
                            })?,
                            None => journal_codec!(@missing $field $($default)?),
                        },)*
                    }),)*
                    other => Err(format!("unknown event tag `{other}`")),
                }
            }
        }
    };
}

journal_codec! {
    "run_header" => RunHeader {
        schema, experiment, seed, scale, started_unix_ms, threads = 0, git_commit = String::new()
    }
    "phase_started" => PhaseStarted { phase }
    "phase_finished" => PhaseFinished { phase, wall_us }
    "round_started" => RoundStarted { round, design, groups, cdns }
    "share_published" => SharePublished { round, shares, demand_kbps }
    "bid_received" => BidReceived { round, cdn, bids }
    "accept_issued" => AcceptIssued { round, accepted, rejected }
    "solver_stats" => SolverStats { round, objective, warm_hit = false, wall_us = 0 }
    "round_completed" => RoundCompleted { round, objective, options, wall_us = 0 }
    "session_moved" => SessionMoved { bin, moved, continuing }
    "cluster_congested" => ClusterCongested { round, cluster, load_kbps, capacity_kbps }
    "fault_plan_applied" => FaultPlanApplied {
        round, drop_chance, corrupt_chance, delay_ms, jitter_ms, exchange_outage, failed_cdns,
        deadline_ms
    }
    "cdn_outage" => CdnOutage { round, cdn }
    "exchange_outage" => ExchangeOutage { round }
    "deadline_missed" => DeadlineMissed { round, missing_cdns, deadline_ms }
    "stale_bids_reused" => StaleBidsReused { round, cdn, age_rounds, bids }
    "design_fallback" => DesignFallback { round, from, to, reason }
    "wire_drops" => WireDrops { round, cdn, link_dropped, corrupt_discarded, out_of_order }
    "conn_accepted" => ConnAccepted { at_ms, cdn, peer }
    "conn_closed" => ConnClosed { at_ms, cdn, reason }
    "conn_backpressure" => ConnBackpressure { at_ms, cdn, queued }
    "health_transition" => HealthTransition { round, cdn, from, to, reason }
    "health_probe" => HealthProbe { round, cdn, success }
    "conn_retry" => ConnRetry { at_ms, cdn, attempt, backoff_ms, reason = String::new() }
    "recovery_started" => RecoveryStarted { records, truncated_bytes }
    "recovery_round_voided" => RecoveryRoundVoided { round }
    "recovery_complete" => RecoveryComplete { next_round, rounds_recovered, rounds_voided, wall_us = 0 }
    "experiment_finished" => ExperimentFinished { experiment, wall_ms, events }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One sample of every variant, for round-trip and kind coverage.
    pub(crate) fn samples() -> Vec<Event> {
        vec![
            Event::RunHeader {
                schema: SCHEMA_VERSION,
                experiment: "table3".into(),
                seed: 2017,
                scale: "small".into(),
                started_unix_ms: 1_700_000_000_000,
                threads: 2,
                git_commit: "abc123def456".into(),
            },
            Event::PhaseStarted {
                phase: "build_scenario".into(),
            },
            Event::PhaseFinished {
                phase: "build_scenario".into(),
                wall_us: 1_234_567,
            },
            Event::RoundStarted {
                round: 0,
                design: "Marketplace".into(),
                groups: 412,
                cdns: 14,
            },
            Event::SharePublished {
                round: 0,
                shares: 412,
                demand_kbps: 1.5e6,
            },
            Event::BidReceived {
                round: 0,
                cdn: 3,
                bids: 800,
            },
            Event::AcceptIssued {
                round: 0,
                accepted: 412,
                rejected: 3_100,
            },
            Event::SolverStats {
                round: 1,
                objective: 123.456,
                warm_hit: true,
                wall_us: 410,
            },
            Event::RoundCompleted {
                round: 0,
                objective: 123.456,
                options: 3_512,
                wall_us: 1_080,
            },
            Event::SessionMoved {
                bin: 4,
                moved: 17,
                continuing: 240,
            },
            Event::ClusterCongested {
                round: 0,
                cluster: 9,
                load_kbps: 2.0e6,
                capacity_kbps: 1.8e6,
            },
            Event::FaultPlanApplied {
                round: 2,
                drop_chance: 0.15,
                corrupt_chance: 0.05,
                delay_ms: 20,
                jitter_ms: 10,
                exchange_outage: false,
                failed_cdns: 1,
                deadline_ms: 3_000,
            },
            Event::CdnOutage { round: 2, cdn: 0 },
            Event::ExchangeOutage { round: 3 },
            Event::DeadlineMissed {
                round: 2,
                missing_cdns: 2,
                deadline_ms: 3_000,
            },
            Event::StaleBidsReused {
                round: 2,
                cdn: 5,
                age_rounds: 1,
                bids: 214,
            },
            Event::DesignFallback {
                round: 3,
                from: "Marketplace".into(),
                to: "Brokered".into(),
                reason: "exchange outage".into(),
            },
            Event::WireDrops {
                round: 2,
                cdn: 5,
                link_dropped: 31,
                corrupt_discarded: 4,
                out_of_order: 12,
            },
            Event::ConnAccepted {
                at_ms: 12,
                cdn: 3,
                peer: "127.0.0.1:54022".into(),
            },
            Event::ConnClosed {
                at_ms: 90_000,
                cdn: 3,
                reason: "eof".into(),
            },
            Event::ConnBackpressure {
                at_ms: 45_000,
                cdn: 1,
                queued: 64,
            },
            Event::HealthTransition {
                round: 7,
                cdn: 2,
                from: "closed".into(),
                to: "open".into(),
                reason: "trip threshold reached".into(),
            },
            Event::HealthProbe {
                round: 9,
                cdn: 2,
                success: true,
            },
            Event::ConnRetry {
                at_ms: 46_000,
                cdn: 1,
                attempt: 3,
                backoff_ms: 400,
                reason: "eof".into(),
            },
            Event::RecoveryStarted {
                records: 58,
                truncated_bytes: 17,
            },
            Event::RecoveryRoundVoided { round: 6 },
            Event::RecoveryComplete {
                next_round: 6,
                rounds_recovered: 6,
                rounds_voided: 1,
                wall_us: 18_250,
            },
            Event::ExperimentFinished {
                experiment: "table3".into(),
                wall_ms: 9_500,
                events: 41,
            },
        ]
    }

    #[test]
    fn only_a_profile_that_injects_something_marks_its_round_faulted() {
        let profile = |delay_ms: u64, failed_cdns: u64| Event::FaultPlanApplied {
            round: 4,
            drop_chance: 0.0,
            corrupt_chance: 0.0,
            delay_ms,
            jitter_ms: 0,
            exchange_outage: false,
            failed_cdns,
            deadline_ms: 3_000,
        };
        assert_eq!(profile(0, 0).faulted_round(), None);
        assert_eq!(profile(20, 0).faulted_round(), Some(4));
        assert_eq!(profile(0, 1).faulted_round(), Some(4));
    }

    #[test]
    fn every_variant_round_trips_through_json() {
        for event in samples() {
            let line = event.to_json_line();
            let back = Event::from_json(&line).expect("deserializable");
            assert_eq!(back, event, "round-trip of {line}");
        }
        // A restart journaled before `recovery_complete` had its time.
        let untimed = "{\"ev\":\"recovery_complete\",\"next_round\":6,\
                       \"rounds_recovered\":6,\"rounds_voided\":1}";
        assert_eq!(
            Event::from_json(untimed),
            Ok(Event::RecoveryComplete {
                next_round: 6,
                rounds_recovered: 6,
                rounds_voided: 1,
                wall_us: 0,
            })
        );
    }

    /// The journal format's goldens: every example line of DESIGN.md §7
    /// (one per variant) must come back out of the reader and writer
    /// byte for byte. The lines predate this codec — they were written
    /// against the `serde_json` derive — so they pin key order, number
    /// layout and string quoting from outside it.
    ///
    /// Also the one owner of "the schema tables and the enum agree":
    /// every variant has an example line and a sample, and no table
    /// under a "journal schema" heading names a tag without a variant.
    #[test]
    fn design_md_example_lines_round_trip_byte_for_byte() {
        use std::collections::BTreeSet;
        let design = include_str!("../../../DESIGN.md");
        let mut kinds = BTreeSet::new();
        for row in design.lines().filter(|l| l.contains("| `{\"ev\":")) {
            let start = row.find("`{\"ev\":").expect("filtered on it") + 1;
            let end = row.rfind("}`").expect("example cell closes") + 1;
            let line = &row[start..end];
            let event = Event::from_json(line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert_eq!(event.to_json_line(), line);
            kinds.insert(event.kind());
        }
        let all: BTreeSet<_> = Event::KINDS.iter().copied().collect();
        assert_eq!(kinds, all, "one example line per variant");
        let sampled: BTreeSet<_> = samples().iter().map(Event::kind).collect();
        assert_eq!(sampled, all, "one sample per variant");

        let mut in_schema_section = false;
        for (idx, row) in design.lines().enumerate() {
            let row = row.trim();
            if row.starts_with('#') {
                in_schema_section = row.to_ascii_lowercase().contains("journal schema");
            } else if in_schema_section && row.starts_with('|') {
                let cell = row[1..].split('|').next().unwrap_or("").trim();
                if let Some(tag) = cell.strip_prefix('`').and_then(|c| c.strip_suffix('`')) {
                    assert!(
                        all.contains(tag),
                        "DESIGN.md:{}: journal tag `{tag}` has no Event variant behind it",
                        idx + 1
                    );
                }
            }
        }
    }

    #[test]
    fn integers_are_exact_and_floats_keep_their_fraction() {
        let header = Event::RunHeader {
            schema: SCHEMA_VERSION,
            experiment: "t".into(),
            seed: u64::MAX,
            scale: "small".into(),
            started_unix_ms: (1 << 53) + 1,
            threads: 0,
            git_commit: "a\"b".into(),
        };
        let line = header.to_json_line();
        assert!(line.contains("\"seed\":18446744073709551615,"), "{line}");
        assert!(
            line.contains("\"started_unix_ms\":9007199254740993,"),
            "{line}"
        );
        assert!(line.ends_with(",\"git_commit\":\"a\\\"b\"}"), "{line}");
        assert_eq!(Event::from_json(&line), Ok(header));

        let stats = Event::SolverStats {
            round: 0,
            objective: 17.0,
            warm_hit: false,
            wall_us: 12,
        };
        let line = stats.to_json_line();
        assert!(
            line.ends_with("\"objective\":17.0,\"warm_hit\":false,\"wall_us\":12}"),
            "{line}"
        );
        assert_eq!(Event::from_json(&line), Ok(stats));
    }

    #[test]
    fn malformed_lines_are_errors_not_panics() {
        for bad in [
            "",
            "not json",
            "[1,2]",
            "{\"round\":1}",
            "{\"ev\":\"no_such_event\"}",
            "{\"ev\":\"cdn_outage\",\"round\":1}",
            "{\"ev\":\"cdn_outage\",\"round\":1,\"cdn\":\"3\"}",
            "{\"ev\":\"cdn_outage\",\"round\":1,\"cdn\":4294967296}",
            "{\"ev\":\"cdn_outage\",\"round\":-1,\"cdn\":0}",
            "{\"ev\":\"cdn_outage\",\"round\":1.5,\"cdn\":0}",
            "{\"ev\":\"round_completed\",\"round\":1,\"objective\":null,\"options\":2}",
        ] {
            assert!(Event::from_json(bad).is_err(), "{bad:?} should fail");
        }
        // Unknown keys are a newer writer's business.
        assert_eq!(
            Event::from_json("{\"ev\":\"exchange_outage\",\"round\":3,\"later\":[1]}"),
            Ok(Event::ExchangeOutage { round: 3 })
        );
    }

    #[test]
    fn kinds_match_the_serialized_tag_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for event in samples() {
            let line = event.to_json_line();
            let tag = format!("\"ev\":\"{}\"", event.kind());
            assert!(line.contains(&tag), "{line} should carry {tag}");
            assert!(seen.insert(event.kind()), "duplicate kind {}", event.kind());
        }
    }

    #[test]
    fn v2_run_header_without_new_fields_still_parses() {
        // A schema-v2 journal line predates `threads`/`git_commit`; their
        // defaults keep it readable.
        let line = concat!(
            "{\"ev\":\"run_header\",\"schema\":2,\"experiment\":\"table3\",",
            "\"seed\":2017,\"scale\":\"full\",\"started_unix_ms\":0}"
        );
        let event = Event::from_json(line).expect("v2 header parses");
        assert_eq!(
            event,
            Event::RunHeader {
                schema: 2,
                experiment: "table3".into(),
                seed: 2017,
                scale: "full".into(),
                started_unix_ms: 0,
                threads: 0,
                git_commit: String::new(),
            }
        );
    }

    /// `scripts/journal-scrub.sed`, the scripts' copy of
    /// [`Event::zero_wall_clock`], rewrites exactly the fields that
    /// function changes in some sample.
    #[test]
    fn journal_scrub_sed_names_the_fields_zero_wall_clock_zeroes() {
        use std::collections::BTreeSet;
        let sed = include_str!("../../../scripts/journal-scrub.sed");
        let scrubbed: BTreeSet<&str> = (sed.lines())
            .filter_map(|l| l.strip_prefix("s/\""))
            .map(|l| l.split('"').next().expect("split yields one piece"))
            .collect();
        let fields = |e: &Event| match Json::parse(&e.to_json_line()) {
            Ok(Json::Obj(fields)) => fields,
            other => panic!("an event line is an object, got {other:?}"),
        };
        let mut zeroed = BTreeSet::new();
        for sample in samples() {
            let mut cleared = sample.clone();
            cleared.zero_wall_clock();
            for ((key, before), (_, after)) in fields(&sample).iter().zip(&fields(&cleared)) {
                if before != after {
                    zeroed.insert(key.clone());
                }
            }
        }
        let zeroed: BTreeSet<&str> = zeroed.iter().map(String::as_str).collect();
        assert_eq!(scrubbed, zeroed);
    }

    #[test]
    fn zero_wall_clock_clears_exactly_the_wall_fields() {
        let mut header = Event::RunHeader {
            schema: 1,
            experiment: "t".into(),
            seed: 7,
            scale: "small".into(),
            started_unix_ms: 99,
            threads: 0,
            git_commit: "unknown".into(),
        };
        header.zero_wall_clock();
        assert!(matches!(
            header,
            Event::RunHeader {
                started_unix_ms: 0,
                seed: 7,
                ..
            }
        ));

        let mut round = Event::RoundStarted {
            round: 3,
            design: "Brokered".into(),
            groups: 1,
            cdns: 1,
        };
        let before = round.clone();
        round.zero_wall_clock();
        assert_eq!(round, before, "simulation fields are untouched");

        let mut completed = Event::RoundCompleted {
            round: 3,
            objective: 2.5,
            options: 40,
            wall_us: 1_080,
        };
        completed.zero_wall_clock();
        assert_eq!(
            completed,
            Event::RoundCompleted {
                round: 3,
                objective: 2.5,
                options: 40,
                wall_us: 0,
            }
        );

        let mut recovered = Event::RecoveryComplete {
            next_round: 256,
            rounds_recovered: 256,
            rounds_voided: 0,
            wall_us: 15_400,
        };
        recovered.zero_wall_clock();
        assert_eq!(
            recovered,
            Event::RecoveryComplete {
                next_round: 256,
                rounds_recovered: 256,
                rounds_voided: 0,
                wall_us: 0,
            }
        );
    }
}
