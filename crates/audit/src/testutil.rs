//! Shared test fixtures: the golden v3 journal, the report fixture set
//! and temp-dir helpers. Compiled only under `cfg(test)`.

use std::path::{Path, PathBuf};

/// A hand-written golden schema-v3 journal: header, two rounds (the
/// second with an injected fault, wire drops and a retransmission),
/// timings, terminal record. `objective_shift` nudges both round
/// objectives so two fixtures can model drift between commits.
pub(crate) fn golden_journal(commit: &str, objective_shift: f64) -> String {
    let obj0 = 123.5 + objective_shift;
    let obj1 = 140.25 + objective_shift;
    [
        format!(
            "{{\"ev\":\"run_header\",\"schema\":3,\"experiment\":\"table3\",\
             \"seed\":2017,\"scale\":\"small\",\"started_unix_ms\":0,\
             \"threads\":2,\"git_commit\":\"{commit}\"}}"
        ),
        "{\"ev\":\"phase_started\",\"phase\":\"build_scenario\"}".into(),
        "{\"ev\":\"phase_finished\",\"phase\":\"build_scenario\",\"wall_us\":1500}".into(),
        "{\"ev\":\"round_started\",\"round\":0,\"design\":\"Marketplace\",\
         \"groups\":412,\"cdns\":14}"
            .into(),
        "{\"ev\":\"solver_stats\",\"round\":0,\"mode\":\"exact\",\"pivots\":900,\
         \"bnb_nodes\":3,\"optimality_gap\":0.0,\"objective\":123.5}"
            .into(),
        format!(
            "{{\"ev\":\"round_completed\",\"round\":0,\"objective\":{obj0},\
             \"options\":3512}}"
        ),
        "{\"ev\":\"round_started\",\"round\":1,\"design\":\"Brokered\",\
         \"groups\":412,\"cdns\":14}"
            .into(),
        "{\"ev\":\"fault_plan_applied\",\"round\":1,\"drop_chance\":0.15,\
         \"corrupt_chance\":0.0,\"delay_ms\":20,\"jitter_ms\":0,\
         \"exchange_outage\":false,\"failed_cdns\":1,\"deadline_ms\":3000}"
            .into(),
        "{\"ev\":\"cdn_outage\",\"round\":1,\"cdn\":3}".into(),
        "{\"ev\":\"wire_drops\",\"round\":1,\"cdn\":5,\"link_dropped\":31,\
         \"corrupt_discarded\":4,\"out_of_order\":12}"
            .into(),
        "{\"ev\":\"frame_retransmitted\",\"at_ms\":230,\"frames\":5}".into(),
        "{\"ev\":\"solver_stats\",\"round\":1,\"mode\":\"heuristic\",\"pivots\":120,\
         \"bnb_nodes\":0,\"optimality_gap\":null,\"objective\":140.25}"
            .into(),
        format!(
            "{{\"ev\":\"round_completed\",\"round\":1,\"objective\":{obj1},\
             \"options\":2900}}"
        ),
        "{\"ev\":\"cluster_congested\",\"round\":1,\"cluster\":9,\
         \"load_kbps\":2e6,\"capacity_kbps\":1.8e6}"
            .into(),
        "{\"ev\":\"timing_summary\",\"name\":\"core.decision_round\",\"count\":2,\
         \"mean_us\":1500.0,\"p50_us\":1400.0,\"p95_us\":2000.0,\"p99_us\":2100.0}"
            .into(),
        "{\"ev\":\"experiment_finished\",\"experiment\":\"table3\",\"wall_ms\":950,\
         \"events\":15}"
            .into(),
    ]
    .join("\n")
        + "\n"
}

/// Creates a fresh temp directory (wiping any stale one).
pub(crate) fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("vdx-audit-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    std::fs::create_dir_all(&p).expect("temp dir creates");
    p
}

/// A restarted daemon's schema-v6 journal: 58 WAL records replayed (17
/// torn bytes cut), round 6 voided, two agent reconnect probes.
pub(crate) fn crashed_journal() -> String {
    [
        "{\"ev\":\"run_header\",\"schema\":6,\"experiment\":\"exchanged\",\
         \"seed\":90217,\"scale\":\"small\",\"started_unix_ms\":0,\
         \"threads\":1,\"git_commit\":\"commit-rec\"}",
        "{\"ev\":\"recovery_started\",\"records\":58,\"truncated_bytes\":17}",
        "{\"ev\":\"recovery_round_voided\",\"round\":6}",
        "{\"ev\":\"recovery_complete\",\"next_round\":6,\
         \"rounds_recovered\":6,\"rounds_voided\":1}",
        "{\"ev\":\"conn_retry\",\"at_ms\":0,\"cdn\":1,\"attempt\":1,\
         \"backoff_ms\":50}",
        "{\"ev\":\"conn_retry\",\"at_ms\":0,\"cdn\":2,\"attempt\":3,\
         \"backoff_ms\":200}",
        "{\"ev\":\"experiment_finished\",\"experiment\":\"exchanged\",\
         \"wall_ms\":120,\"events\":7}",
    ]
    .join("\n")
        + "\n"
}

/// A v2 bench report with one wall-time entry and one Table-3 row.
pub(crate) const BENCH_REPORT: &str = r#"{
    "schema": 2, "scale": "full", "seed": 2017, "threads": 0,
    "git_commit": "abc123",
    "entries": [
        {"name": "table3", "serial_ms": 9000, "parallel_ms": 3000, "speedup": 3.0}
    ],
    "table3": [
        {"design": "Brokered", "cost": 0.2927, "score": 17.88,
         "distance_miles": 248, "load_pct": 7, "congested_pct": 0}
    ]
}"#;

/// Writes `content` to `dir/rel` (creating parent directories) and
/// returns the path.
pub(crate) fn write_fixture(dir: &Path, rel: &str, content: &str) -> PathBuf {
    let path = dir.join(rel);
    std::fs::create_dir_all(path.parent().expect("fixture paths have a parent"))
        .expect("fixture dirs create");
    std::fs::write(&path, content).expect("fixture writes");
    path
}

/// The report fixture set, in load order: two same-seed journals from
/// different commits, a bench report and a recovery journal.
pub(crate) fn fixture_set(dir: &Path) -> Vec<PathBuf> {
    vec![
        write_fixture(dir, "a.jsonl", &golden_journal("commit-aaa", 0.0)),
        write_fixture(dir, "b.jsonl", &golden_journal("commit-bbb", 10.0)),
        write_fixture(dir, "BENCH_experiments.json", BENCH_REPORT),
        write_fixture(dir, "crashed.jsonl", &crashed_journal()),
    ]
}
