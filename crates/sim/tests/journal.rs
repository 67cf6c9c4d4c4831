//! End-to-end flight-recorder checks: a journaled run produces a valid,
//! complete JSONL journal, and two identically seeded runs produce
//! byte-identical journals once wall-clock fields are zeroed.

#![expect(clippy::expect_used, reason = "test helpers")]

use std::path::{Path, PathBuf};
use std::sync::Arc;
use vdx_broker::CpPolicy;
use vdx_core::{Design, RoundId};
use vdx_obs::{read_journal, Event, Journal, Probe, Stopwatch, SCHEMA_VERSION};
use vdx_sim::experiment::table3;
use vdx_sim::replay::{replay, ReplayConfig};
use vdx_sim::{Scenario, ScenarioConfig};

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("vdx-sim-journal-{}-{name}", std::process::id()));
    p
}

/// One full journaled run at small scale: header, two decision rounds,
/// a short replay, terminal record.
fn journaled_run(path: &Path) {
    let clock = Stopwatch::start();
    let probe = Arc::new(Journal::create(path).expect("create journal"));
    probe.emit(Event::RunHeader {
        schema: SCHEMA_VERSION,
        experiment: "determinism".into(),
        seed: 2017,
        scale: "small".into(),
        #[expect(
            clippy::disallowed_methods,
            reason = "deliberate: the test proves `zero_wall_clock` scrubs it, \
                      so journals stay byte-identical across runs"
        )]
        started_unix_ms: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0),
        threads: 0,
        git_commit: "test-build".into(),
    });
    let mut scenario = Scenario::build(ScenarioConfig::small());
    scenario.set_probe(probe.clone());
    scenario.run_round(RoundId(0), Design::Marketplace, CpPolicy::balanced());
    scenario.run_round(RoundId(1), Design::Brokered, CpPolicy::balanced());
    replay(
        &scenario,
        &ReplayConfig {
            bin_s: 1200.0,
            ..Default::default()
        },
    );
    drop(scenario);
    Arc::try_unwrap(probe)
        .expect("probe no longer shared")
        .finish("determinism", clock.elapsed_ms())
        .expect("finish journal");
}

/// Reads a journal back, zeroes wall-clock fields, and re-serializes to
/// canonical JSONL bytes.
fn canonical_bytes(path: &Path) -> Vec<u8> {
    let mut events = read_journal(path).expect("every line parses as an Event");
    for e in &mut events {
        e.zero_wall_clock();
    }
    let mut out = Vec::new();
    for e in &events {
        out.extend_from_slice(e.to_json_line().as_bytes());
        out.push(b'\n');
    }
    out
}

#[test]
fn journaled_run_is_valid_and_byte_deterministic() {
    let path_a = temp_path("a.jsonl");
    let path_b = temp_path("b.jsonl");
    journaled_run(&path_a);
    journaled_run(&path_b);

    let events = read_journal(&path_a).expect("journal A parses");
    assert!(
        matches!(events.first(), Some(Event::RunHeader { seed: 2017, .. })),
        "journal opens with the run header"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::RoundStarted { .. })),
        "at least one decision round was journaled"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::SolverStats { .. })),
        "solver effort was journaled"
    );
    assert!(
        events
            .iter()
            .any(|e| matches!(e, Event::SessionMoved { .. })),
        "replay churn was journaled"
    );
    match events.last() {
        Some(Event::ExperimentFinished { events: n, .. }) => {
            assert_eq!(
                *n as usize,
                events.len() - 1,
                "terminal record counts its precursors"
            );
        }
        other => panic!("journal must end with ExperimentFinished, got {other:?}"),
    }

    let a = canonical_bytes(&path_a);
    let b = canonical_bytes(&path_b);
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "same-seed journals are byte-identical after wall-clock zeroing"
    );

    std::fs::remove_file(&path_a).ok();
    std::fs::remove_file(&path_b).ok();
}

/// Journals `run` over a fresh small scenario whose engine fans out over
/// `threads` threads.
fn journaled_table3(path: &Path, threads: usize, run: impl FnOnce(&Scenario)) {
    let clock = Stopwatch::start();
    let probe = Arc::new(Journal::create(path).expect("create journal"));
    let mut scenario = Scenario::build(ScenarioConfig::small());
    scenario.set_probe(probe.clone());
    scenario.set_threads(threads);
    run(&scenario);
    drop(scenario);
    Arc::try_unwrap(probe)
        .expect("probe no longer shared")
        .finish("table3", clock.elapsed_ms())
        .expect("finish journal");
}

/// A full table3 run: eight fanned-out rounds.
#[test]
fn journaled_table3_is_byte_identical_across_thread_counts() {
    let path_1 = temp_path("t1.jsonl");
    let path_4 = temp_path("t4.jsonl");
    for (path, threads) in [(&path_1, 1), (&path_4, 4)] {
        journaled_table3(path, threads, |s| {
            table3::run(s);
        });
    }
    let a = canonical_bytes(&path_1);
    let b = canonical_bytes(&path_4);
    assert!(!a.is_empty());
    assert_eq!(
        a, b,
        "round buffering must make the journal schedule-independent"
    );
    std::fs::remove_file(&path_1).ok();
    std::fs::remove_file(&path_4).ok();
}
