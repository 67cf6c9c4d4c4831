//! The audit store: an in-memory fold of the artifacts it is pointed at.
//!
//! The journals are the record; the store is a disposable view of them,
//! rebuilt on every invocation and never written anywhere. Two kinds of
//! artifact are recognised: flight-recorder journals (`.jsonl`) and
//! `BENCH_experiments.json` reports.
//!
//! Each artifact becomes one run (ids are load order) and contributes
//! one contiguous block of rows per fact table, so every table is sorted
//! by run. Artifacts are keyed by an FNV-1a content hash: a byte-identical
//! file met twice is counted once.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use crate::model::{
    content_hash, BaselineReport, BenchEntry, FaultRow, RecoveryFact, RecoveryRow, RoundRow,
    RunKind, RunMeta, Table3Row, Tagged, TimingRow, WireRow, NO_CDN,
};
use vdx_obs::Json;

/// Highest journal schema version this crate can read.
pub const SUPPORTED_JOURNAL_SCHEMA: u32 = 6;

// The fold below reads journal lines by key, not through `vdx_obs::Event`,
// so it has to be taught every schema change by hand: bumping
// `vdx_obs::SCHEMA_VERSION` without doing so would silently strand fresh
// journals outside the store. Fail the build instead.
const _: () = assert!(SUPPORTED_JOURNAL_SCHEMA == vdx_obs::SCHEMA_VERSION);

/// The fact tables: plain rows, each tagged with its run, each table
/// sorted by run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Facts {
    /// Decision rounds.
    pub rounds: Vec<RoundRow>,
    /// Wire losses per CDN link per round.
    pub wire: Vec<WireRow>,
    /// Injected and absorbed faults.
    pub faults: Vec<FaultRow>,
    /// Phases, histogram summaries and counters.
    pub timings: Vec<TimingRow>,
    /// Bench-report wall-time entries.
    pub bench: Vec<Tagged<BenchEntry>>,
    /// Bench-report Table-3 rows.
    pub table3: Vec<Tagged<Table3Row>>,
    /// Crash-safety events.
    pub recovery: Vec<RecoveryRow>,
}

impl Facts {
    fn append(&mut self, mut other: Facts) {
        self.rounds.append(&mut other.rounds);
        self.wire.append(&mut other.wire);
        self.faults.append(&mut other.faults);
        self.timings.append(&mut other.timings);
        self.bench.append(&mut other.bench);
        self.table3.append(&mut other.table3);
        self.recovery.append(&mut other.recovery);
    }
}

/// Run metadata plus the fact tables folded from the loaded artifacts.
#[derive(Debug, Default)]
pub struct Store {
    runs: Vec<RunMeta>,
    facts: Facts,
}

/// The `*.jsonl` / `*.json` files directly inside `dir`, in name order.
fn artifacts_in(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let path = entry
            .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
            .path();
        let is_artifact = path
            .extension()
            .is_some_and(|e| e == "jsonl" || e == "json");
        if is_artifact && path.is_file() {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

impl Store {
    /// Folds every artifact under `paths` into a fresh store. A file is
    /// one artifact; a directory contributes its `*.jsonl` and `*.json`
    /// files in name order (not recursively). Run ids are load order,
    /// and byte-identical content is counted once. The first artifact
    /// that cannot be read or parsed fails the load, named in the error.
    pub fn load<P: AsRef<Path>>(paths: &[P]) -> Result<Store, String> {
        let mut store = Store::default();
        for path in paths {
            let path = path.as_ref();
            if path.is_dir() {
                for file in artifacts_in(path)? {
                    store.fold_artifact(&file)?;
                }
            } else {
                store.fold_artifact(path)?;
            }
        }
        Ok(store)
    }

    /// Folds one artifact under the next run id. The artifact's rows are
    /// built aside and appended only once the whole file has parsed, so
    /// a failure leaves the store as it was.
    fn fold_artifact(&mut self, path: &Path) -> Result<(), String> {
        let bytes =
            std::fs::read(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let hash = content_hash(&bytes);
        if self.runs.iter().any(|r| r.hash == hash) {
            return Ok(());
        }
        let text =
            String::from_utf8(bytes).map_err(|_| format!("{}: not UTF-8", path.display()))?;
        let source = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| path.display().to_string());
        let run = self.runs.len() as u64;
        let is_journal = path.extension().is_some_and(|e| e == "jsonl")
            || text.lines().next().is_some_and(|l| l.contains("\"ev\""));
        let (mut meta, facts) = if is_journal {
            fold_journal(&text, run)
        } else {
            Json::parse(&text)
                .map_err(|e| e.to_string())
                .and_then(|json| fold_bench(&json, run))
        }
        .map_err(|e| format!("{}: {e}", path.display()))?;
        meta.source = source;
        meta.hash = hash;
        self.runs.push(meta);
        self.facts.append(facts);
        Ok(())
    }

    /// Metadata of every loaded run, in run-id order.
    pub fn runs(&self) -> &[RunMeta] {
        &self.runs
    }

    /// The fact tables.
    pub fn facts(&self) -> &Facts {
        &self.facts
    }
}

/// Folds one journal. A line that does not parse is an error, except the
/// final line of a file that does not end in a newline: a SIGKILLed
/// daemon's `BufWriter` leaves exactly that, and the complete lines
/// before it are the evidence the `recovery-time` query exists for.
fn fold_journal(text: &str, run: u64) -> Result<(RunMeta, Facts), String> {
    let mut lines = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .peekable();
    let (_, first) = lines.next().ok_or_else(|| "empty journal".to_string())?;
    let header = Json::parse(first).map_err(|e| format!("line 1: {e}"))?;
    if header.get("ev").and_then(Json::as_str) != Some("run_header") {
        return Err("journal does not start with a run_header event".into());
    }
    let schema = header.u64_or("schema", 0);
    if schema > u64::from(SUPPORTED_JOURNAL_SCHEMA) {
        return Err(format!(
            "journal schema v{schema} is newer than this binary supports \
             (v{SUPPORTED_JOURNAL_SCHEMA}); rebuild against the current vdx-obs"
        ));
    }
    let mut meta = RunMeta {
        run_id: run,
        kind: RunKind::Journal,
        source: String::new(),
        hash: String::new(),
        experiment: header.str_or("experiment", "unknown"),
        seed: header.u64_or("seed", 0),
        scale: header.str_or("scale", "unknown"),
        schema,
        threads: header.u64_or("threads", 0),
        git_commit: header.str_or("git_commit", "unknown"),
        wall_ms: 0,
        events: 1,
    };
    let mut facts = Facts::default();
    // Index into `facts.rounds` by round id.
    let mut by_round: HashMap<u64, usize> = HashMap::new();
    let mut retransmit_events = 0u64;
    let mut retransmitted_frames = 0u64;
    let mut sessions_moved = 0u64;
    let mut solver_resolves = 0u64;
    let mut warm_eligible = 0u64;
    let mut changed_clients = 0u64;
    let torn_tail = !text.ends_with('\n');
    while let Some((n, line)) = lines.next() {
        meta.events += 1;
        let v = match Json::parse(line) {
            Ok(v) => v,
            Err(_) if torn_tail && lines.peek().is_none() => break,
            Err(e) => return Err(format!("line {}: {e}", n + 1)),
        };
        let Some(ev) = v.get("ev").and_then(Json::as_str) else {
            continue;
        };
        let round = v.u64_or("round", 0);
        let in_round = by_round.get(&round).map(|&i| &mut facts.rounds[i]);
        let mut fault = |kind: &'static str, cdn: u64, amount: u64, note: String| {
            facts.faults.push(FaultRow {
                run,
                round,
                kind,
                cdn,
                amount,
                note,
            });
        };
        match ev {
            "round_started" => {
                by_round.insert(round, facts.rounds.len());
                facts.rounds.push(RoundRow {
                    run,
                    round,
                    design: v.str_or("design", "unknown"),
                    groups: v.u64_or("groups", 0),
                    cdns: v.u64_or("cdns", 0),
                    mode: "none".into(),
                    pivots: 0,
                    bnb_nodes: 0,
                    gap: -1.0,
                    objective: 0.0,
                    options: 0,
                    congested: 0,
                });
            }
            "solver_stats" => {
                if let Some(r) = in_round {
                    r.mode = v.str_or("mode", "none");
                    r.pivots += v.u64_or("pivots", 0);
                    r.bnb_nodes += v.u64_or("bnb_nodes", 0);
                    r.gap = v.f64_or("optimality_gap", -1.0);
                }
            }
            "round_completed" => {
                if let Some(r) = in_round {
                    r.objective = v.f64_or("objective", 0.0);
                    r.options = v.u64_or("options", 0);
                }
            }
            "cluster_congested" => {
                if let Some(r) = in_round {
                    r.congested += 1;
                }
            }
            "wire_drops" => facts.wire.push(WireRow {
                run,
                round,
                cdn: v.u64_or("cdn", NO_CDN),
                link_dropped: v.u64_or("link_dropped", 0),
                corrupt_discarded: v.u64_or("corrupt_discarded", 0),
                out_of_order: v.u64_or("out_of_order", 0),
            }),
            "fault_plan_applied" => {
                let note = format!(
                    "drop={} corrupt={} delay_ms={} outage={}",
                    v.f64_or("drop_chance", 0.0),
                    v.f64_or("corrupt_chance", 0.0),
                    v.u64_or("delay_ms", 0),
                    v.get("exchange_outage").and_then(Json::as_bool) == Some(true),
                );
                fault("fault_plan", NO_CDN, v.u64_or("failed_cdns", 0), note);
            }
            "cdn_outage" => fault("cdn_outage", v.u64_or("cdn", NO_CDN), 1, String::new()),
            "exchange_outage" => fault("exchange_outage", NO_CDN, 1, String::new()),
            "deadline_missed" => {
                let amount = v.u64_or("missing_cdns", 0);
                fault("deadline_missed", NO_CDN, amount, String::new());
            }
            "stale_bids_reused" => {
                let note = format!("age_rounds={}", v.u64_or("age_rounds", 0));
                let cdn = v.u64_or("cdn", NO_CDN);
                fault("stale_bids_reused", cdn, v.u64_or("bids", 0), note);
            }
            "design_fallback" => {
                let note = format!(
                    "{} -> {}: {}",
                    v.str_or("from", "?"),
                    v.str_or("to", "?"),
                    v.str_or("reason", "?"),
                );
                fault("design_fallback", NO_CDN, 1, note);
            }
            "phase_finished" => {
                let phase = v.str_or("phase", "unknown");
                facts
                    .timings
                    .push(scalar_timing(run, "phase", phase, v.u64_or("wall_us", 0)));
            }
            "timing_summary" => facts.timings.push(TimingRow {
                run,
                kind: "hist",
                name: v.str_or("name", "unknown"),
                count: v.u64_or("count", 0),
                mean: v.f64_or("mean_us", 0.0),
                p50: v.f64_or("p50_us", 0.0),
                p95: v.f64_or("p95_us", 0.0),
                p99: v.f64_or("p99_us", 0.0),
                value: 0,
            }),
            "counter_snapshot" => {
                let name = v.str_or("name", "unknown");
                facts
                    .timings
                    .push(scalar_timing(run, "counter", name, v.u64_or("value", 0)));
            }
            "frame_retransmitted" => {
                retransmit_events += 1;
                retransmitted_frames += v.u64_or("frames", 0);
            }
            "session_moved" => sessions_moved += v.u64_or("moved", 0),
            "solver_resolve" => {
                solver_resolves += 1;
                if v.get("warm_eligible").and_then(Json::as_bool) == Some(true) {
                    warm_eligible += 1;
                }
                changed_clients += v.u64_or("changed_clients", 0);
            }
            "conn_retry" => facts.recovery.push(RecoveryRow {
                run,
                fact: RecoveryFact::ConnRetry {
                    cdn: v.u64_or("cdn", NO_CDN),
                    attempt: v.u64_or("attempt", 0),
                    backoff_ms: v.u64_or("backoff_ms", 0),
                },
            }),
            "recovery_started" => facts.recovery.push(RecoveryRow {
                run,
                fact: RecoveryFact::Started {
                    records: v.u64_or("records", 0),
                    truncated_bytes: v.u64_or("truncated_bytes", 0),
                },
            }),
            "recovery_round_voided" => facts.recovery.push(RecoveryRow {
                run,
                fact: RecoveryFact::RoundVoided { round },
            }),
            "recovery_complete" => facts.recovery.push(RecoveryRow {
                run,
                fact: RecoveryFact::Complete {
                    next_round: v.u64_or("next_round", 0),
                    rounds_recovered: v.u64_or("rounds_recovered", 0),
                    rounds_voided: v.u64_or("rounds_voided", 0),
                },
            }),
            "experiment_finished" => meta.wall_ms = v.u64_or("wall_ms", 0),
            _ => {}
        }
    }
    // Journal-derived aggregates ride the timings table as counters
    // (the per-event lines stay in the journal itself).
    let mut aggregates: Vec<(&str, u64)> = Vec::new();
    if retransmit_events > 0 {
        aggregates.push(("journal.retransmit_events", retransmit_events));
        aggregates.push(("journal.retransmitted_frames", retransmitted_frames));
    }
    if sessions_moved > 0 {
        aggregates.push(("journal.sessions_moved", sessions_moved));
    }
    if solver_resolves > 0 {
        aggregates.push(("journal.solver_resolves", solver_resolves));
        aggregates.push(("journal.warm_eligible", warm_eligible));
        aggregates.push(("journal.changed_clients", changed_clients));
    }
    for (name, value) in aggregates {
        facts
            .timings
            .push(scalar_timing(run, "counter", name.to_string(), value));
    }
    Ok((meta, facts))
}

/// A phase or counter row: one sample, no percentiles.
fn scalar_timing(run: u64, kind: &'static str, name: String, value: u64) -> TimingRow {
    TimingRow {
        run,
        kind,
        name,
        count: 1,
        mean: 0.0,
        p50: 0.0,
        p95: 0.0,
        p99: 0.0,
        value,
    }
}

fn fold_bench(json: &Json, run: u64) -> Result<(RunMeta, Facts), String> {
    let report = BaselineReport::from_json(json)
        .ok_or_else(|| "not a bench report (expected entries/table3)".to_string())?;
    let meta = RunMeta {
        run_id: run,
        kind: RunKind::Bench,
        source: String::new(),
        hash: String::new(),
        experiment: "bench".into(),
        seed: report.seed,
        scale: report.scale,
        schema: report.schema,
        threads: report.threads,
        git_commit: report.git_commit,
        wall_ms: report.entries.iter().map(|e| e.parallel_ms).sum(),
        events: 0,
    };
    let facts = Facts {
        bench: report
            .entries
            .into_iter()
            .map(|row| Tagged { run, row })
            .collect(),
        table3: report
            .table3
            .into_iter()
            .map(|row| Tagged { run, row })
            .collect(),
        ..Facts::default()
    };
    Ok((meta, facts))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{crashed_journal, golden_journal, temp_dir, write_fixture, BENCH_REPORT};

    #[test]
    fn golden_journal_ingest_builds_expected_rows() {
        let dir = temp_dir("store-golden");
        let journal = write_fixture(&dir, "a.jsonl", &golden_journal("abc123", 0.0));
        let store = Store::load(&[journal]).expect("loads");

        let meta = &store.runs()[0];
        assert_eq!(meta.run_id, 0);
        assert_eq!(meta.source, "a.jsonl");
        assert_eq!(meta.experiment, "table3");
        assert_eq!(meta.seed, 2017);
        assert_eq!(meta.schema, 3);
        assert_eq!(meta.threads, 2);
        assert_eq!(meta.git_commit, "abc123");
        assert_eq!(meta.wall_ms, 950);
        assert_eq!(meta.events, 17);

        let rounds = &store.facts().rounds;
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].design, "Marketplace");
        assert_eq!(rounds[0].objective, 123.5);
        assert_eq!(rounds[0].gap, 0.0);
        assert_eq!(rounds[1].mode, "heuristic");
        assert_eq!(rounds[1].gap, -1.0, "null gap -> sentinel");
        assert_eq!(rounds[1].congested, 1);

        let wire = &store.facts().wire;
        assert_eq!(wire.len(), 1);
        assert_eq!(wire[0].link_dropped, 31);

        let faults = &store.facts().faults;
        assert_eq!(faults.len(), 2);
        assert_eq!(faults[0].kind, "fault_plan");
        assert_eq!(faults[1].kind, "cdn_outage");
        assert_eq!(faults[1].cdn, 3);
        assert_eq!(faults[0].cdn, NO_CDN);

        // phase + hist + counter + 2 retransmit aggregates.
        assert_eq!(store.facts().timings.len(), 5);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn identical_content_is_counted_once() {
        let dir = temp_dir("store-idem");
        let journal = write_fixture(&dir, "a.jsonl", &golden_journal("abc123", 0.0));
        let copy = write_fixture(&dir, "copy-of-a.jsonl", &golden_journal("abc123", 0.0));
        // A different commit's journal is new content, so it loads.
        let journal_b = write_fixture(&dir, "b.jsonl", &golden_journal("def456", 0.0));
        let store = Store::load(&[&journal, &journal, &copy, &journal_b]).expect("loads");
        assert_eq!(store.runs().len(), 2);
        assert_eq!(store.runs()[1].run_id, 1);
        assert_eq!(store.runs()[1].git_commit, "def456");
        let runs: Vec<u64> = store.facts().rounds.iter().map(|r| r.run).collect();
        assert_eq!(runs, [0, 0, 1, 1]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_directory_contributes_its_artifacts_in_name_order() {
        let dir = temp_dir("store-dir");
        write_fixture(&dir, "b.jsonl", &golden_journal("commit-b", 0.0));
        write_fixture(&dir, "a.jsonl", &golden_journal("commit-a", 0.0));
        write_fixture(&dir, "c.json", BENCH_REPORT);
        write_fixture(&dir, "notes.txt", "not an artifact");
        write_fixture(&dir, "nested/d.jsonl", &golden_journal("commit-d", 0.0));
        let store = Store::load(&[&dir]).expect("loads");
        let sources: Vec<&str> = store.runs().iter().map(|r| r.source.as_str()).collect();
        assert_eq!(sources, ["a.jsonl", "b.jsonl", "c.json"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn newer_schema_journals_are_rejected() {
        let dir = temp_dir("store-newer");
        let too_new = golden_journal("abc123", 0.0).replace("\"schema\":3", "\"schema\":99");
        let journal = write_fixture(&dir, "new.jsonl", &too_new);
        let err = Store::load(&[journal]).expect_err("must reject");
        assert!(err.contains("new.jsonl"), "{err}");
        assert!(err.contains("schema v99"), "{err}");
        assert!(err.contains("v6"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_final_line_loads_with_the_complete_lines() {
        let dir = temp_dir("store-torn");
        // A SIGKILLed daemon: the BufWriter's last flush ended mid-event,
        // and `experiment_finished` was never written.
        let full = crashed_journal();
        let cut = full
            .find("{\"ev\":\"experiment_finished\"")
            .expect("terminal line")
            + 20;
        let journal = write_fixture(&dir, "trial-0-before.jsonl", &full[..cut]);
        let store = Store::load(&[journal]).expect("a torn tail is not an error");
        let meta = &store.runs()[0];
        assert_eq!(meta.events, 7, "header + 5 complete lines + the torn one");
        assert_eq!(meta.wall_ms, 0, "the terminal record never landed");
        assert_eq!(
            store.facts().recovery.len(),
            5,
            "every complete line counted"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_file_garbage_fails_and_leaves_every_table_unchanged() {
        let dir = temp_dir("store-garbage");
        let good = write_fixture(&dir, "good.jsonl", &golden_journal("abc123", 0.0));
        // Rows for wire, faults and timings precede the bad line.
        let bad_text = golden_journal("def456", 0.0).replace(
            "{\"ev\":\"timing_summary\"",
            "{\"ev\":\"timing_summ\n{\"ev\":\"timing_summary\"",
        );
        let bad = write_fixture(&dir, "bad.jsonl", &bad_text);
        let mut store = Store::load(&[&good]).expect("loads");
        let before = store.facts().clone();

        let err = store.fold_artifact(&bad).expect_err("mid-file garbage");
        assert!(err.contains("bad.jsonl: line 15"), "{err}");
        assert_eq!(store.facts(), &before);
        assert_eq!(store.runs().len(), 1);
        assert!(Store::load(&[&good, &bad]).is_err());

        // The run id the failed artifact would have taken is still free.
        let next = write_fixture(&dir, "next.jsonl", &golden_journal("0a0b0c", 0.0));
        store.fold_artifact(&next).expect("loads");
        assert_eq!(store.runs()[1].git_commit, "0a0b0c");
        assert!(store.facts().wire.iter().all(|w| w.run <= 1));
        assert_eq!(store.facts().wire.len(), 2);

        // A torn line that is not the last one is garbage too, even in
        // a file without a trailing newline.
        let unterminated = write_fixture(&dir, "cut.jsonl", bad_text.trim_end());
        assert!(store.fold_artifact(&unterminated).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn solver_resolve_events_aggregate_into_counters() {
        let dir = temp_dir("store-resolve");
        // A v4 journal: the golden v3 fixture plus warm-start delta lines.
        let mut journal = golden_journal("abc123", 0.0).replace("\"schema\":3", "\"schema\":4");
        journal.push_str(concat!(
            "{\"ev\":\"solver_resolve\",\"round\":0,\"changed_clients\":12,",
            "\"changed_buckets\":2,\"warm_eligible\":false}\n",
            "{\"ev\":\"solver_resolve\",\"round\":1,\"changed_clients\":0,",
            "\"changed_buckets\":0,\"warm_eligible\":true}\n",
        ));
        let path = write_fixture(&dir, "warm.jsonl", &journal);
        let store = Store::load(&[path]).expect("v4 journals load");
        let counter = |name: &str| {
            let timings = &store.facts().timings;
            timings.iter().find(|t| t.name == name).map(|t| t.value)
        };
        assert_eq!(counter("journal.solver_resolves"), Some(2));
        assert_eq!(counter("journal.warm_eligible"), Some(1));
        assert_eq!(counter("journal.changed_clients"), Some(12));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_events_fill_the_recovery_table() {
        let dir = temp_dir("store-recovery");
        // A v6 journal: the golden v3 fixture plus crash-safety lines.
        let mut journal = golden_journal("abc123", 0.0).replace("\"schema\":3", "\"schema\":6");
        journal.push_str(concat!(
            "{\"ev\":\"recovery_started\",\"records\":58,\"truncated_bytes\":17}\n",
            "{\"ev\":\"recovery_round_voided\",\"round\":6}\n",
            "{\"ev\":\"recovery_complete\",\"next_round\":6,",
            "\"rounds_recovered\":6,\"rounds_voided\":1}\n",
            "{\"ev\":\"conn_retry\",\"at_ms\":0,\"cdn\":1,\"attempt\":2,",
            "\"backoff_ms\":100}\n",
        ));
        let path = write_fixture(&dir, "crash.jsonl", &journal);
        let store = Store::load(&[path]).expect("v6 journals load");

        let facts: Vec<RecoveryFact> = store.facts().recovery.iter().map(|r| r.fact).collect();
        assert_eq!(
            facts,
            [
                RecoveryFact::Started {
                    records: 58,
                    truncated_bytes: 17
                },
                RecoveryFact::RoundVoided { round: 6 },
                RecoveryFact::Complete {
                    next_round: 6,
                    rounds_recovered: 6,
                    rounds_voided: 1
                },
                RecoveryFact::ConnRetry {
                    cdn: 1,
                    attempt: 2,
                    backoff_ms: 100
                },
            ]
        );
        assert!(store.facts().recovery.iter().all(|r| r.run == 0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bench_report_ingest_fills_bench_and_table3() {
        let dir = temp_dir("store-bench");
        let path = write_fixture(&dir, "BENCH_experiments.json", BENCH_REPORT);
        let store = Store::load(&[path]).expect("loads");
        assert_eq!(store.runs()[0].kind, RunKind::Bench);
        assert_eq!(store.runs()[0].wall_ms, 3000);
        let t3 = &store.facts().table3;
        assert_eq!(t3.len(), 1);
        assert_eq!(t3[0].row.design, "Brokered");
        assert_eq!(t3[0].row.cost, 0.2927);
        assert_eq!(store.facts().bench[0].row.serial_ms, 9000);
        std::fs::remove_dir_all(&dir).ok();
    }
}
