//! End-to-end acceptance checks for the audit subsystem, against the
//! public API only: two same-seed journals fold into one store, the
//! report answers the cross-run questions, and the regression gate
//! fails a deliberately-regressed baseline.

use std::path::PathBuf;

use vdx_audit::{gate, report, BaselineReport, GateConfig, Store};

fn temp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("vdx-audit-it-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&p).ok();
    std::fs::create_dir_all(&p).expect("temp dir creates");
    p
}

/// A minimal schema-v3 journal at seed 2017; `commit` and the objective
/// shift model two builds of the same experiment.
fn journal(commit: &str, shift: f64) -> String {
    format!(
        concat!(
            "{{\"ev\":\"run_header\",\"schema\":3,\"experiment\":\"table3\",",
            "\"seed\":2017,\"scale\":\"small\",\"started_unix_ms\":0,",
            "\"threads\":1,\"git_commit\":\"{commit}\"}}\n",
            "{{\"ev\":\"round_started\",\"round\":0,\"design\":\"Marketplace\",",
            "\"groups\":10,\"cdns\":3}}\n",
            "{{\"ev\":\"solver_stats\",\"round\":0,\"mode\":\"exact\",\"pivots\":50,",
            "\"bnb_nodes\":2,\"optimality_gap\":0.0,\"objective\":{obj}}}\n",
            "{{\"ev\":\"round_completed\",\"round\":0,\"objective\":{obj},\"options\":40}}\n",
            "{{\"ev\":\"wire_drops\",\"round\":0,\"cdn\":1,\"link_dropped\":7,",
            "\"corrupt_discarded\":1,\"out_of_order\":2}}\n",
            "{{\"ev\":\"cdn_outage\",\"round\":0,\"cdn\":1}}\n",
            "{{\"ev\":\"experiment_finished\",\"experiment\":\"table3\",\"wall_ms\":120,",
            "\"events\":6}}\n",
        ),
        commit = commit,
        obj = 100.0 + shift,
    )
}

#[test]
fn two_journals_load_and_report() {
    let dir = temp_dir("report");
    let path_a = dir.join("run_a.jsonl");
    let path_b = dir.join("run_b.jsonl");
    std::fs::write(&path_a, journal("commit-old", 0.0)).expect("fixture writes");
    std::fs::write(&path_b, journal("commit-new", 7.0)).expect("fixture writes");

    // Naming an artifact twice counts it once.
    let store = Store::load(&[&path_a, &path_b, &path_a]).expect("loads");
    assert_eq!(store.runs().len(), 2);
    assert_eq!(store.runs()[0].git_commit, "commit-old");
    assert_eq!(store.runs()[1].run_id, 1);

    // The report answers the cross-run questions from both runs.
    let text = report(&store);
    for needed in [
        "== runs ==",
        "== objective-delta",
        "== hotspots",
        "== wall-trend",
        "commit-old",
        "commit-new",
        "+7.00%", // objective drift of run B vs run A
    ] {
        assert!(text.contains(needed), "report lacks {needed:?}:\n{text}");
    }

    // The directory holding both journals answers identically.
    let from_dir = Store::load(&[&dir]).expect("directory loads");
    assert_eq!(report(&from_dir), text);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn gate_passes_on_matching_run_and_fails_on_regressed_baseline() {
    let dir = temp_dir("gate");
    let baseline_path = dir.join("BENCH_experiments.json");
    std::fs::write(
        &baseline_path,
        r#"{
            "schema": 2, "scale": "full", "seed": 2017, "threads": 0,
            "git_commit": "abc123", "entries": [],
            "table3": [
                {"design": "Brokered", "cost": 0.2927, "score": 17.88,
                 "distance_miles": 248, "load_pct": 7, "congested_pct": 0}
            ]
        }"#,
    )
    .expect("baseline writes");
    let baseline = BaselineReport::read(&baseline_path).expect("baseline parses");

    // A faithful rerun passes.
    let out = gate::compare(&baseline, &baseline.table3, &[], &GateConfig::default());
    assert!(out.passed(), "{}", out.render());

    // A >threshold cost regression fails with a named check.
    let mut regressed = baseline.table3.clone();
    regressed[0].cost *= 1.25;
    let out = gate::compare(&baseline, &regressed, &[], &GateConfig::default());
    assert!(!out.passed());
    assert_eq!(out.failures()[0].name, "Brokered cost");
    assert!(out.render().contains("gate: FAIL"));

    std::fs::remove_dir_all(&dir).ok();
}
