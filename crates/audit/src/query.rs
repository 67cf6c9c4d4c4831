//! The cross-run query layer: every question `repro audit query` can
//! answer, computed from the store's round rows, bench rows and the
//! journal events themselves.
//!
//! All queries are deterministic: grouping preserves first-seen order
//! (run-id order underneath) and explicit sorts break ties by name, so
//! two invocations over the same artifacts render byte-identical output.

use std::collections::HashMap;

use crate::model::RunKind;
use crate::render::fmt;
use crate::store::Store;
use vdx_obs::Event;

/// One cross-run question the audit store can answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// Every loaded run with its provenance metadata.
    Runs,
    /// Mean decision-round objective per design per commit, with the
    /// delta against the first loaded commit.
    ObjectiveDelta,
    /// Wire-loss hot spots per CDN link, aggregated across runs.
    Hotspots,
    /// Per-design fault-sensitivity league table: objective of faulted
    /// vs clean rounds.
    FaultLeague,
    /// Wall-time trend across runs and bench entries.
    WallTrend,
    /// Table-3 metric deltas per design across bench runs.
    Table3Delta,
    /// Crash-recovery summary per daemon run: WAL records replayed,
    /// rounds recovered/voided, and agent reconnect retries.
    RecoveryTime,
}

/// Every query, in report order.
pub const ALL_QUERIES: &[QueryKind] = &[
    QueryKind::Runs,
    QueryKind::ObjectiveDelta,
    QueryKind::Hotspots,
    QueryKind::FaultLeague,
    QueryKind::WallTrend,
    QueryKind::Table3Delta,
    QueryKind::RecoveryTime,
];

impl QueryKind {
    /// The CLI name (`repro audit query <name>`).
    pub fn name(self) -> &'static str {
        match self {
            QueryKind::Runs => "runs",
            QueryKind::ObjectiveDelta => "objective-delta",
            QueryKind::Hotspots => "hotspots",
            QueryKind::FaultLeague => "fault-league",
            QueryKind::WallTrend => "wall-trend",
            QueryKind::Table3Delta => "table3-delta",
            QueryKind::RecoveryTime => "recovery-time",
        }
    }

    /// One-line description for `--help`-style listings.
    pub fn describe(self) -> &'static str {
        match self {
            QueryKind::Runs => "every ingested run with its provenance metadata",
            QueryKind::ObjectiveDelta => "mean round objective per design per commit, vs first",
            QueryKind::Hotspots => "wire-loss hot spots per CDN link, across runs",
            QueryKind::FaultLeague => "per-design objective of faulted vs clean rounds",
            QueryKind::WallTrend => "wall-time trend across runs and bench entries",
            QueryKind::Table3Delta => "Table-3 metric deltas per design across bench runs",
            QueryKind::RecoveryTime => "crash recovery per run: WAL replay, voids, reconnects",
        }
    }

    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<QueryKind> {
        ALL_QUERIES.iter().copied().find(|q| q.name() == s)
    }
}

/// A rendered-ready query answer: a titled table of string cells.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Table title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows; every row has `headers.len()` cells.
    pub rows: Vec<Vec<String>>,
}

fn headers(names: &[&str]) -> Vec<String> {
    names.iter().map(|s| (*s).to_string()).collect()
}

/// Runs one query against the store.
pub fn run(store: &Store, kind: QueryKind) -> QueryResult {
    match kind {
        QueryKind::Runs => runs(store),
        QueryKind::ObjectiveDelta => objective_delta(store),
        QueryKind::Hotspots => hotspots(store),
        QueryKind::FaultLeague => fault_league(store),
        QueryKind::WallTrend => wall_trend(store),
        QueryKind::Table3Delta => table3_delta(store),
        QueryKind::RecoveryTime => recovery_time(store),
    }
}

fn commit_of(store: &Store, run: u64) -> &str {
    store
        .runs()
        .get(run as usize)
        .map_or("unknown", |m| m.git_commit.as_str())
}

/// The rows of `run` in a fact table. Every table is sorted by run (the
/// store appends one block per artifact), so this is a slice, not a scan.
fn of_run<T>(rows: &[T], run_of: impl Fn(&T) -> u64, run: u64) -> &[T] {
    let start = rows.partition_point(|r| run_of(r) < run);
    let end = rows.partition_point(|r| run_of(r) <= run);
    &rows[start..end]
}

/// `100 * (value - base) / base` as a signed percentage; `-` when the
/// base is zero.
fn pct_vs(value: f64, base: f64) -> String {
    if base.abs() > f64::EPSILON {
        format!("{:+.2}%", 100.0 * (value - base) / base)
    } else {
        "-".into()
    }
}

fn runs(store: &Store) -> QueryResult {
    let rows = store
        .runs()
        .iter()
        .map(|m| {
            vec![
                m.run_id.to_string(),
                m.kind.as_str().to_string(),
                m.experiment.clone(),
                m.seed.to_string(),
                m.scale.clone(),
                format!("v{}", m.schema),
                m.threads.to_string(),
                m.git_commit.clone(),
                m.wall_ms.to_string(),
                m.events.to_string(),
                m.source.clone(),
            ]
        })
        .collect();
    QueryResult {
        title: "runs".into(),
        headers: headers(&[
            "run",
            "kind",
            "experiment",
            "seed",
            "scale",
            "schema",
            "threads",
            "commit",
            "wall_ms",
            "events",
            "source",
        ]),
        rows,
    }
}

fn objective_delta(store: &Store) -> QueryResult {
    // (design, commit) -> (sum, count), insertion-ordered.
    let mut order: Vec<(&str, &str)> = Vec::new();
    let mut agg: HashMap<(&str, &str), (f64, u64)> = HashMap::new();
    for r in &store.facts().rounds {
        let key = (r.design.as_str(), commit_of(store, r.run));
        let entry = agg.entry(key).or_insert_with(|| {
            order.push(key);
            (0.0, 0)
        });
        entry.0 += r.objective;
        entry.1 += 1;
    }
    // Baseline per design = its first-seen commit.
    let mut baseline: HashMap<&str, f64> = HashMap::new();
    let mut rows = Vec::new();
    for key in order {
        let (sum, count) = agg[&key];
        let mean = sum / count as f64;
        let base = *baseline.entry(key.0).or_insert(mean);
        let delta = mean - base;
        let pct = if base.abs() > f64::EPSILON {
            100.0 * delta / base
        } else {
            0.0
        };
        rows.push(vec![
            key.0.to_string(),
            key.1.to_string(),
            count.to_string(),
            fmt(mean),
            fmt(delta),
            format!("{pct:+.2}%"),
        ]);
    }
    QueryResult {
        title: "objective-delta (per design, per commit, vs first commit)".into(),
        headers: headers(&[
            "design",
            "commit",
            "rounds",
            "mean_obj",
            "delta",
            "delta_pct",
        ]),
        rows,
    }
}

fn hotspots(store: &Store) -> QueryResult {
    let mut agg: HashMap<u32, (u64, u64, u64, u64)> = HashMap::new();
    for event in &store.facts().events {
        if let Event::WireDrops {
            cdn,
            link_dropped,
            corrupt_discarded,
            out_of_order,
            ..
        } = &event.row
        {
            let e = agg.entry(*cdn).or_insert((0, 0, 0, 0));
            e.0 += 1;
            e.1 += link_dropped;
            e.2 += corrupt_discarded;
            e.3 += out_of_order;
        }
    }
    let mut entries: Vec<(u32, (u64, u64, u64, u64))> = agg.into_iter().collect();
    // Worst links first; CDN id breaks ties deterministically.
    entries.sort_by_key(|(cdn, (_, l, c, o))| (std::cmp::Reverse(l + c + o), *cdn));
    let rows = entries
        .into_iter()
        .map(|(cdn, (rounds, l, c, o))| {
            vec![
                cdn.to_string(),
                rounds.to_string(),
                l.to_string(),
                c.to_string(),
                o.to_string(),
                (l + c + o).to_string(),
            ]
        })
        .collect();
    QueryResult {
        title: "hotspots (wire losses per CDN link, all runs)".into(),
        headers: headers(&[
            "cdn",
            "rounds",
            "link_dropped",
            "corrupt",
            "out_of_order",
            "total",
        ]),
        rows,
    }
}

fn fault_league(store: &Store) -> QueryResult {
    // Injected and absorbed faults per (run, round).
    let mut faulted: HashMap<(u64, u64), u64> = HashMap::new();
    for event in &store.facts().events {
        let Some(round) = event.row.faulted_round() else {
            continue;
        };
        *faulted.entry((event.run, round)).or_insert(0) += 1;
    }
    #[derive(Default)]
    struct League {
        clean: u64,
        faulted: u64,
        faults: u64,
        obj_clean: f64,
        obj_faulted: f64,
    }
    let mut order: Vec<&str> = Vec::new();
    let mut agg: HashMap<&str, League> = HashMap::new();
    for r in &store.facts().rounds {
        let design = r.design.as_str();
        let entry = agg.entry(design).or_insert_with(|| {
            order.push(design);
            League::default()
        });
        match faulted.get(&(r.run, r.round)) {
            Some(n) => {
                entry.faulted += 1;
                entry.faults += n;
                entry.obj_faulted += r.objective;
            }
            None => {
                entry.clean += 1;
                entry.obj_clean += r.objective;
            }
        }
    }
    let mut rows = Vec::new();
    for design in order {
        let l = &agg[design];
        let mean_clean = if l.clean > 0 {
            l.obj_clean / l.clean as f64
        } else {
            0.0
        };
        let mean_faulted = if l.faulted > 0 {
            l.obj_faulted / l.faulted as f64
        } else {
            0.0
        };
        let sensitivity = if l.clean > 0 && l.faulted > 0 {
            pct_vs(mean_faulted, mean_clean)
        } else {
            "-".into()
        };
        rows.push(vec![
            design.to_string(),
            l.clean.to_string(),
            l.faulted.to_string(),
            l.faults.to_string(),
            if l.clean > 0 {
                fmt(mean_clean)
            } else {
                "-".into()
            },
            if l.faulted > 0 {
                fmt(mean_faulted)
            } else {
                "-".into()
            },
            sensitivity,
        ]);
    }
    QueryResult {
        title: "fault-league (objective under faults, per design)".into(),
        headers: headers(&[
            "design",
            "clean_rounds",
            "faulted_rounds",
            "faults",
            "obj_clean",
            "obj_faulted",
            "sensitivity",
        ]),
        rows,
    }
}

fn wall_trend(store: &Store) -> QueryResult {
    let mut rows = Vec::new();
    for meta in store.runs() {
        match meta.kind {
            RunKind::Journal => {
                if meta.wall_ms > 0 {
                    rows.push(vec![
                        meta.run_id.to_string(),
                        meta.git_commit.clone(),
                        meta.threads.to_string(),
                        meta.experiment.clone(),
                        meta.wall_ms.to_string(),
                        "-".into(),
                    ]);
                }
            }
            RunKind::Bench => {
                for b in of_run(&store.facts().bench, |b| b.run, meta.run_id) {
                    rows.push(vec![
                        meta.run_id.to_string(),
                        meta.git_commit.clone(),
                        meta.threads.to_string(),
                        b.row.name.clone(),
                        format!("{}/{}", b.row.serial_ms, b.row.parallel_ms),
                        format!("{:.2}x", b.row.speedup),
                    ]);
                }
            }
        }
    }
    QueryResult {
        title: "wall-trend (wall_ms per run; serial/parallel for bench)".into(),
        headers: headers(&[
            "run",
            "commit",
            "threads",
            "experiment",
            "wall_ms",
            "speedup",
        ]),
        rows,
    }
}

fn table3_delta(store: &Store) -> QueryResult {
    // Baseline per design = its row in the earliest run that has one.
    let mut baseline: HashMap<&str, (f64, f64)> = HashMap::new();
    let mut rows = Vec::new();
    for t in &store.facts().table3 {
        let (cost, score) = (t.row.cost, t.row.score);
        let (b_cost, b_score) = *baseline
            .entry(t.row.design.as_str())
            .or_insert((cost, score));
        rows.push(vec![
            t.row.design.clone(),
            t.run.to_string(),
            commit_of(store, t.run).to_string(),
            fmt(cost),
            fmt(score),
            pct_vs(cost, b_cost),
            pct_vs(score, b_score),
        ]);
    }
    QueryResult {
        title: "table3-delta (cost/QoE per design across bench runs)".into(),
        headers: headers(&[
            "design", "run", "commit", "cost", "score", "d_cost", "d_score",
        ]),
        rows,
    }
}

fn recovery_time(store: &Store) -> QueryResult {
    let mut rows = Vec::new();
    for meta in store.runs() {
        // One summary row per run that touched the recovery path.
        let mut touched = false;
        let (mut records, mut torn) = (0u64, 0u64);
        let (mut recovered, mut voided, mut resume_at) = (0u64, 0u64, 0u64);
        let (mut retries, mut max_attempt) = (0u64, 0u32);
        for event in of_run(&store.facts().events, |e| e.run, meta.run_id) {
            match &event.row {
                Event::RecoveryStarted {
                    records: n,
                    truncated_bytes,
                } => {
                    records = *n;
                    torn = *truncated_bytes;
                }
                Event::RecoveryComplete {
                    next_round,
                    rounds_recovered,
                    rounds_voided,
                    ..
                } => {
                    resume_at = *next_round;
                    recovered = *rounds_recovered;
                    voided = *rounds_voided;
                }
                Event::ConnRetry { attempt, .. } => {
                    retries += 1;
                    max_attempt = max_attempt.max(*attempt);
                }
                Event::RecoveryRoundVoided { .. } => {}
                _ => continue,
            }
            touched = true;
        }
        if !touched {
            continue;
        }
        rows.push(vec![
            meta.run_id.to_string(),
            meta.git_commit.clone(),
            meta.experiment.clone(),
            records.to_string(),
            torn.to_string(),
            recovered.to_string(),
            voided.to_string(),
            resume_at.to_string(),
            retries.to_string(),
            max_attempt.to_string(),
        ]);
    }
    QueryResult {
        title: "recovery-time (WAL replay + reconnects per run)".into(),
        headers: headers(&[
            "run",
            "commit",
            "experiment",
            "wal_records",
            "torn_bytes",
            "recovered",
            "voided",
            "next_round",
            "conn_retries",
            "max_attempt",
        ]),
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{crashed_journal, golden_journal, temp_dir, write_fixture};

    #[test]
    fn query_names_parse_and_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for q in ALL_QUERIES {
            assert_eq!(QueryKind::parse(q.name()), Some(*q));
            assert!(seen.insert(q.name()), "duplicate query name {}", q.name());
            assert!(!q.describe().is_empty());
        }
        assert_eq!(QueryKind::parse("nope"), None);
    }

    #[test]
    fn cross_run_queries_answer_from_two_same_seed_journals() {
        let dir = temp_dir("query-cross");
        let a = write_fixture(&dir, "a.jsonl", &golden_journal("commit-aaa", 0.0));
        // Same seed, later commit, slightly worse objective.
        let b = write_fixture(&dir, "b.jsonl", &golden_journal("commit-bbb", 10.0));
        let store = Store::load(&[a, b]).expect("loads");

        let runs = run(&store, QueryKind::Runs);
        assert_eq!(runs.rows.len(), 2);
        assert_eq!(runs.rows[0][7], "commit-aaa");
        assert_eq!(runs.rows[1][7], "commit-bbb");

        let delta = run(&store, QueryKind::ObjectiveDelta);
        // Two designs × two commits.
        assert_eq!(delta.rows.len(), 4, "{delta:?}");
        let marketplace_b = delta
            .rows
            .iter()
            .find(|r| r[0] == "Marketplace" && r[1] == "commit-bbb")
            .expect("row exists");
        assert_eq!(marketplace_b[4], fmt(10.0), "objective drifted by +10");

        let hot = run(&store, QueryKind::Hotspots);
        assert_eq!(hot.rows.len(), 1, "one CDN link dropped packets");
        assert_eq!(hot.rows[0][0], "5");
        assert_eq!(hot.rows[0][5], "94", "2 runs x (31+4+12)");

        let league = run(&store, QueryKind::FaultLeague);
        let brokered = league
            .rows
            .iter()
            .find(|r| r[0] == "Brokered")
            .expect("row exists");
        assert_eq!(brokered[1], "0", "both Brokered rounds were faulted");
        assert_eq!(brokered[2], "2");

        let wall = run(&store, QueryKind::WallTrend);
        assert_eq!(wall.rows.len(), 2, "both journals recorded wall_ms");
        assert_eq!(wall.rows[0][4], "950");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_time_summarizes_replay_and_reconnects() {
        let dir = temp_dir("query-recovery");
        // A run that never touched the recovery path contributes no row.
        let a = write_fixture(&dir, "clean.jsonl", &golden_journal("commit-aaa", 0.0));
        // A restarted daemon: replayed 58 records (17 torn bytes cut),
        // voided the torn round 6, and two agent reconnect probes.
        let b = write_fixture(&dir, "crashed.jsonl", &crashed_journal());
        let store = Store::load(&[a, b]).expect("loads");

        let result = run(&store, QueryKind::RecoveryTime);
        assert_eq!(result.rows.len(), 1, "only the crashed run has a row");
        let row = &result.rows[0];
        assert_eq!(row[0], "1");
        assert_eq!(row[1], "commit-rec");
        assert_eq!(row[2], "exchanged");
        assert_eq!(row[3], "58", "wal_records from recovery_started");
        assert_eq!(row[4], "17", "torn_bytes from recovery_started");
        assert_eq!(row[5], "6", "rounds recovered");
        assert_eq!(row[6], "1", "rounds voided");
        assert_eq!(row[7], "6", "resume point");
        assert_eq!(row[8], "2", "two conn_retry events");
        assert_eq!(row[9], "3", "deepest backoff attempt");

        std::fs::remove_dir_all(&dir).ok();
    }
}
