//! The audit store: an in-memory fold of the artifacts it is pointed at.
//!
//! The journals are the record; the store is a disposable view of them,
//! rebuilt on every invocation and never written anywhere. Two kinds of
//! artifact are recognised: flight-recorder journals (`.jsonl`) and
//! `BENCH_experiments.json` reports.
//!
//! A journal is read by `vdx_obs::parse_journal`, the one reader (header,
//! schema ceiling, torn tail) and the one decoder (`Event::from_json`) in
//! the tree, and its events are kept as they arrived: the queries match
//! on [`Event`] variants. The fold itself builds only what a query reads
//! and no single event says: the run's [`RunMeta`] and the per-round join
//! [`RoundRow`].
//!
//! Each artifact becomes one run (ids are load order) and contributes
//! one contiguous block of rows per fact table, so every table is sorted
//! by run. Artifacts are keyed by an FNV-1a content hash: a byte-identical
//! file met twice is counted once.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use crate::model::{
    content_hash, BaselineReport, BenchEntry, RoundRow, RunKind, RunMeta, Table3Row, Tagged,
};
use vdx_obs::{Event, Json};

/// The fact tables: plain rows, each tagged with its run, each table
/// sorted by run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Facts {
    /// Decision rounds.
    pub rounds: Vec<RoundRow>,
    /// Every journal event, in file order.
    pub events: Vec<Tagged<Event>>,
    /// Bench-report wall-time entries.
    pub bench: Vec<Tagged<BenchEntry>>,
    /// Bench-report Table-3 rows.
    pub table3: Vec<Tagged<Table3Row>>,
}

impl Facts {
    fn append(&mut self, mut other: Facts) {
        self.rounds.append(&mut other.rounds);
        self.events.append(&mut other.events);
        self.bench.append(&mut other.bench);
        self.table3.append(&mut other.table3);
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

/// Folds one journal: the header and the terminal record into the run's
/// metadata, each round's `round_started`, `solver_stats` and
/// `round_completed` into one [`RoundRow`], and every event kept as it is.
fn fold_journal(text: &str, run: u64) -> Result<(RunMeta, Facts), String> {
    let events = vdx_obs::parse_journal(text).map_err(|e| e.to_string())?;
    let mut meta = match events.first() {
        Some(Event::RunHeader {
            schema,
            experiment,
            seed,
            scale,
            threads,
            git_commit,
            ..
        }) => RunMeta {
            run_id: run,
            kind: RunKind::Journal,
            source: String::new(),
            hash: String::new(),
            experiment: experiment.clone(),
            seed: *seed,
            scale: scale.clone(),
            schema: u64::from(*schema),
            threads: *threads,
            // A v2 header has no commit and reads as empty.
            git_commit: if git_commit.is_empty() {
                "unknown".into()
            } else {
                git_commit.clone()
            },
            wall_ms: 0,
            // The reader drops a torn final line; the run still counts it.
            events: text.lines().count() as u64,
        },
        Some(_) => return Err("journal does not start with its run header".into()),
        None => return Err("empty journal".into()),
    };
    let mut rounds: Vec<RoundRow> = Vec::new();
    // Index into `rounds` by round id.
    let mut by_round: HashMap<u64, usize> = HashMap::new();
    for event in &events {
        match event {
            Event::RoundStarted { round, design, .. } => {
                by_round.insert(*round, rounds.len());
                rounds.push(RoundRow {
                    run,
                    round: *round,
                    design: design.clone(),
                    objective: 0.0,
                });
            }
            Event::RoundCompleted {
                round, objective, ..
            } => {
                if let Some(&i) = by_round.get(round) {
                    rounds[i].objective = *objective;
                }
            }
            Event::ExperimentFinished { wall_ms, .. } => meta.wall_ms = *wall_ms,
            _ => {}
        }
    }
    let facts = Facts {
        rounds,
        events: events.into_iter().map(|row| Tagged { run, row }).collect(),
        ..Facts::default()
    };
    Ok((meta, facts))
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
        assert_eq!(meta.events, 15);

        let rounds = &store.facts().rounds;
        assert_eq!(rounds.len(), 2);
        assert_eq!(rounds[0].design, "Marketplace");
        assert_eq!(rounds[0].objective, 123.5);
        assert_eq!(rounds[1].design, "Brokered");
        assert_eq!(rounds[1].objective, 140.25);

        // Everything else is still there, as the event it arrived as, but
        // for the `timing_summary` line (retired in v8, skipped on read).
        assert_eq!(store.facts().events.len(), 14);
        assert!(store.facts().events.iter().all(|e| e.run == 0));

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
        let supported = format!("(v{})", vdx_obs::SCHEMA_VERSION);
        assert!(err.contains(&supported), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_final_line_loads_with_the_complete_lines() {
        let dir = temp_dir("store-torn");
        // A journal cut off mid-event (a crash inside its last write),
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
        assert_eq!(store.facts().events.len(), 6, "every complete line kept");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn mid_file_garbage_fails_and_leaves_every_table_unchanged() {
        let dir = temp_dir("store-garbage");
        let good = write_fixture(&dir, "good.jsonl", &golden_journal("abc123", 0.0));
        // Two complete rounds precede the bad line.
        let bad_text = golden_journal("def456", 0.0).replace(
            "{\"ev\":\"timing_summary\"",
            "{\"ev\":\"timing_summ\n{\"ev\":\"timing_summary\"",
        );
        let bad = write_fixture(&dir, "bad.jsonl", &bad_text);
        let mut store = Store::load(&[&good]).expect("loads");
        let before = store.facts().clone();

        let err = store.fold_artifact(&bad).expect_err("mid-file garbage");
        assert!(err.contains("bad.jsonl: journal line 14"), "{err}");
        assert_eq!(store.facts(), &before);
        assert_eq!(store.runs().len(), 1);
        assert!(Store::load(&[&good, &bad]).is_err());

        // The run id the failed artifact would have taken is still free.
        let next = write_fixture(&dir, "next.jsonl", &golden_journal("0a0b0c", 0.0));
        store.fold_artifact(&next).expect("loads");
        assert_eq!(store.runs()[1].git_commit, "0a0b0c");
        assert!(store.facts().events.iter().all(|e| e.run <= 1));
        assert_eq!(store.facts().events.len(), 2 * 14);

        // A torn line that is not the last one is garbage too, even in
        // a file without a trailing newline.
        let unterminated = write_fixture(&dir, "cut.jsonl", bad_text.trim_end());
        assert!(store.fold_artifact(&unterminated).is_err());
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
