//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! repro <experiment> [--small] [--seed N] [--journal PATH] [--threads N]
//!                    [--design NAME]
//! repro obs-report <journal.jsonl>
//! repro bench-experiments [--small] [--seed N] [--threads N] [--out PATH]
//! repro audit report [PATH...]
//! repro audit query <name> [PATH...]
//! repro audit --baseline PATH [--metric-tol PCT] [--wall-tol PCT] [--threads N]
//! repro chaos [--seed N] [--full] [--crash-at R1,R2,...] [--work-dir DIR]
//! repro chaos --check WAL [--seed N] [--full] [--rounds N | --ladder]
//!
//! experiments: fig3 fig4 fig5 fig7 table1 table3
//!              fig10 fig11 fig12 fig13 fig14 fig15 (aliases of the
//!              combined accounting run) fig16 fig17 fig18
//!              ext-stability ext-hybrid ext-noise faults replay gap all
//! --small        reduced-scale scenario (fast; used by CI)
//! --seed N       override the master seed (default 2017)
//! --journal PATH flight-record the run as JSONL events (conventionally
//!                under results/journals/); analyse with `repro obs-report`
//! --threads N    threads the round fan-out runs on (default: all
//!                cores; results and journals are byte-identical for
//!                any N)
//! --design NAME  (replay) the design re-run every five minutes over the
//!                live session population (default marketplace)
//!
//! `bench-experiments` times table3/fig17/fig18 at 1 thread vs N threads
//! (default: all cores) and writes the measured speedups plus the
//! Table-3 fidelity rows as the v2 baseline document (default:
//! results/BENCH_experiments.json).
//!
//! `chaos` is the kill-restart chaos harness (`vdx_sim::chaos`,
//! DESIGN.md §15): it SIGKILLs and restarts a real `vdx-exchanged` at
//! a seeded phase of every crash round, optionally tearing the WAL
//! tail, and asserts the recovered decision sequence is byte-identical
//! to the uninterrupted reference; `--check` validates an existing WAL
//! against the reference instead (the verify.sh crash-recovery smoke).
//!
//! `audit` is the cross-run analytics layer (`vdx-audit`, DESIGN.md
//! §11): `report`/`query` fold the journals and bench reports named by
//! PATH... (files, or directories contributing their `*.jsonl`/`*.json`
//! in name order; default: results/journals) into typed rows in memory
//! and answer cross-run questions over them; nothing derived is written
//! to disk.
//! `--baseline` re-runs table3 at the baseline's seed/scale and fails
//! on regressions beyond the thresholds.
//! ```

use std::path::Path;
use std::process::ExitCode;
use vdx_obs::timing::git_commit;
use vdx_obs::{Event, Stopwatch};
use vdx_sim::cli::{
    design_flag, flag_list, flag_parsed, flag_value, journaled_phase, refuse_unknown_flags,
    FlightRecorder,
};
use vdx_sim::experiment::{
    ext_faults, ext_hybrid, ext_noise, ext_stability, fig10_15, fig16, fig17, fig18, fig3, fig4,
    fig5, fig7, gap, table1, table3,
};
use vdx_sim::soak::SoakPlan;
use vdx_sim::{obs_report, replay, Scenario, ScenarioConfig};

/// The experiment form of the command line: every flag an experiment
/// reads, and no other.
const EXPERIMENT_USAGE: &str =
    "usage: repro <fig3|fig4|fig5|fig7|table1|table3|fig10..fig15|fig16|fig17|fig18|\
     ext-stability|ext-hybrid|ext-noise|faults|replay|gap|all> [--small] [--seed N] \
     [--journal PATH] [--threads N] [--design NAME]";

fn usage() -> ExitCode {
    eprintln!(
        "{EXPERIMENT_USAGE}\n\
         \x20      repro obs-report <journal.jsonl>\n\
         \x20      repro bench-experiments [--small] [--seed N] [--threads N] [--out PATH]\n\
         \x20      repro audit <report|query|--baseline PATH> (see `repro audit`)\n\
         \x20      repro chaos [--seed N] [--crash-at R1,R2,...] (see `repro chaos --help`)\n\
         \x20      repro chaos --check WAL [--seed N] [--rounds N | --ladder]"
    );
    ExitCode::FAILURE
}

/// The default `--threads`: every core the process may use.
fn all_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(which) = args.first() else {
        return Ok(usage());
    };

    if which == "obs-report" {
        let Some(path) = args.get(1) else {
            return Err("usage: repro obs-report <journal.jsonl>".into());
        };
        let events = vdx_obs::read_journal(path).map_err(|e| format!("obs-report: {e}"))?;
        print!("{}", obs_report::report(&events));
        return Ok(ExitCode::SUCCESS);
    }

    if which == "bench-experiments" {
        return bench_experiments(&args);
    }

    if which == "audit" {
        return audit(&args[1..]);
    }

    if which == "chaos" {
        return chaos_cmd(&args[1..]);
    }

    refuse_unknown_flags(&args, EXPERIMENT_USAGE)?;
    let small = args.iter().any(|a| a == "--small");
    let threads = flag_parsed::<usize>(&args, "--threads")?;
    let replay_config = replay::ReplayConfig {
        design: design_flag(&args)?,
        ..Default::default()
    };
    let config = ScenarioConfig::at_scale(small, flag_parsed(&args, "--seed")?);

    let recorder = FlightRecorder::begin_run(&args, which, config.seed, small, threads)?;
    let probe = recorder.run_probe();

    eprintln!(
        "building scenario: {} cities, {} sessions, seed {} ...",
        config.world.cities, config.trace.sessions, config.seed
    );
    let mut scenario =
        journaled_phase(probe.as_ref(), "build_scenario", || Scenario::build(config));
    scenario.set_probe(probe.clone());
    scenario.set_threads(threads.unwrap_or_else(all_cores));
    eprintln!(
        "scenario ready: {} groups, {} CDNs, {} clusters",
        scenario.groups.len(),
        scenario.fleet.cdns.len(),
        scenario.fleet.clusters.len()
    );

    let accounting_aliases = ["fig10", "fig11", "fig12", "fig13", "fig14", "fig15"];
    let run_one = |name: &str| -> Option<String> {
        probe.emit(Event::PhaseStarted {
            phase: name.to_string(),
        });
        let phase_clock = Stopwatch::start();
        let out = match name {
            "fig3" => {
                let r = fig3::run(&scenario);
                Some(fig3::render(&r))
            }
            "fig4" => {
                let r = fig4::run(&scenario);
                Some(fig4::render(&r))
            }
            "fig5" => {
                let r = fig5::run(&scenario);
                Some(fig5::render(&r))
            }
            "fig7" => {
                let r = fig7::run(&scenario);
                Some(fig7::render(&r))
            }
            "table1" => {
                let r = table1::run(&scenario);
                Some(table1::render(&r))
            }
            "table3" => {
                let r = table3::run(&scenario);
                Some(table3::render(&r))
            }
            name if accounting_aliases.contains(&name) || name == "accounting" => {
                let r = fig10_15::run(&scenario);
                let mut out = fig10_15::render_cdn_views(&r);
                out.push('\n');
                out.push_str(&fig10_15::render_country_views(&r));
                Some(out)
            }
            "fig16" => {
                let n = if small { 40 } else { 200 };
                let r = fig16::run(&scenario, n);
                Some(fig16::render(&r))
            }
            "fig17" => {
                let r = fig17::run(&scenario);
                Some(fig17::render(&r))
            }
            "fig18" => {
                let r = fig18::run(&scenario);
                Some(fig18::render(&r))
            }
            "ext-stability" => {
                let r = ext_stability::run(&scenario, 8);
                Some(ext_stability::render(&r))
            }
            "ext-hybrid" => {
                let r = ext_hybrid::run(&scenario);
                Some(ext_hybrid::render(&r))
            }
            "ext-noise" => {
                let r = ext_noise::run(&scenario);
                Some(ext_noise::render(&r))
            }
            "faults" | "ext-faults" => {
                let r = ext_faults::run(&scenario);
                Some(ext_faults::render(&r))
            }
            "replay" => {
                let r = replay::replay(&scenario, &replay_config);
                Some(replay::render(&replay_config, &r))
            }
            "gap" => Some(gap::render(&gap::run(&scenario))),
            _ => None,
        };
        if out.is_some() {
            probe.emit(Event::PhaseFinished {
                phase: name.to_string(),
                wall_us: phase_clock.elapsed_us(),
            });
        }
        out
    };

    let ok = if which == "all" {
        [
            "fig3",
            "fig4",
            "fig5",
            "table1",
            "fig7",
            "table3",
            "accounting",
            "fig16",
            "fig17",
            "fig18",
            "ext-stability",
            "ext-hybrid",
            "ext-noise",
            "ext-faults",
            "replay",
            "gap",
        ]
        .into_iter()
        .all(|name| {
            eprintln!("running {name} ...");
            run_one(name).map(|out| println!("{out}")).is_some()
        })
    } else {
        run_one(which).map(|out| println!("{out}")).is_some()
    };

    drop(scenario);
    drop(probe);
    recorder.end_run()?;

    Ok(if ok { ExitCode::SUCCESS } else { usage() })
}

/// Converts a table3 run into the audit crate's baseline row shape.
fn to_table3_rows(result: &table3::Table3Result) -> Vec<vdx_audit::Table3Row> {
    result
        .rows
        .iter()
        .map(|(design, m)| vdx_audit::Table3Row {
            design: design.clone(),
            cost: m.cost,
            score: m.score,
            distance_miles: m.distance_miles,
            load_pct: m.load_pct,
            congested_pct: m.congested_pct,
        })
        .collect()
}

/// Times the round-parallel experiments at 1 thread vs `--threads` (all
/// cores by default) over one shared scenario, then records the Table-3
/// fidelity rows, and writes both as the pretty-JSON v2 baseline
/// document (`vdx_audit::BaselineReport`). Both timings run the
/// identical code path at different `Scenario::set_threads` counts, so
/// the comparison isolates the fan-out.
fn bench_experiments(args: &[String]) -> Result<ExitCode, String> {
    let small = args.iter().any(|a| a == "--small");
    let threads = flag_parsed::<usize>(args, "--threads")?.unwrap_or_else(all_cores);
    let out_path =
        flag_value(args, "--out").unwrap_or_else(|| "results/BENCH_experiments.json".to_string());

    let config = ScenarioConfig::at_scale(small, flag_parsed(args, "--seed")?);
    let seed_value = config.seed;
    eprintln!(
        "building scenario: {} cities, {} sessions, seed {} ...",
        config.world.cities, config.trace.sessions, seed_value
    );
    let mut scenario = Scenario::build(config);

    type Experiment = (&'static str, fn(&Scenario));
    let experiments: [Experiment; 3] = [
        ("table3", |s| {
            let _ = table3::run(s);
        }),
        ("fig17", |s| {
            let _ = fig17::run(s);
        }),
        ("fig18", |s| {
            let _ = fig18::run(s);
        }),
    ];
    let mut entries = Vec::new();
    for (name, run) in experiments {
        eprintln!("benchmarking {name}: 1 vs {threads} threads ...");
        scenario.set_threads(1);
        let clock = Stopwatch::start();
        run(&scenario);
        let serial_ms = clock.elapsed_ms();
        scenario.set_threads(threads);
        let clock = Stopwatch::start();
        run(&scenario);
        let parallel_ms = clock.elapsed_ms();
        let speedup = serial_ms as f64 / parallel_ms.max(1) as f64;
        eprintln!("  {name}: {serial_ms} ms serial, {parallel_ms} ms on {threads} threads ({speedup:.2}x)");
        entries.push(vdx_audit::BenchEntry {
            name: name.to_string(),
            serial_ms,
            parallel_ms,
            speedup,
        });
    }
    eprintln!("recording table3 fidelity rows ...");
    scenario.set_threads(threads);
    let fidelity = table3::run(&scenario);
    let report = vdx_audit::BaselineReport {
        schema: vdx_audit::BASELINE_SCHEMA,
        scale: if small { "small" } else { "full" }.to_string(),
        seed: seed_value,
        threads: threads as u64,
        git_commit: git_commit(),
        entries,
        table3: to_table3_rows(&fidelity),
    };
    let text = report.to_json_pretty();
    if let Some(parent) = Path::new(&out_path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).ok();
        }
    }
    std::fs::write(&out_path, text).map_err(|e| format!("cannot write {out_path}: {e}"))?;
    eprintln!("wrote {out_path}");
    Ok(ExitCode::SUCCESS)
}

/// `repro audit ...` — cross-run analytics over the journals and the
/// regression gate (`vdx-audit`, DESIGN.md §11).
fn audit(args: &[String]) -> Result<ExitCode, String> {
    if args.iter().any(|a| a == "--baseline") {
        return audit_gate(args);
    }
    let (query, paths) = match args.first().map(String::as_str) {
        Some("report") => (None, &args[1..]),
        Some("query") => match args.get(1).and_then(|n| vdx_audit::QueryKind::parse(n)) {
            Some(kind) => (Some(kind), &args[2..]),
            None => return Ok(audit_usage()),
        },
        _ => return Ok(audit_usage()),
    };
    // No PATH means "whatever results/journals holds", and on a fresh
    // checkout that is nothing yet; a PATH the caller named must exist.
    let default_paths = ["results/journals".to_string()];
    let paths = match paths {
        [] if Path::new(&default_paths[0]).is_dir() => &default_paths[..],
        named => named,
    };
    let store = vdx_audit::Store::load(paths).map_err(|e| format!("audit: {e}"))?;
    match query {
        Some(kind) => {
            let result = vdx_audit::query::run(&store, kind);
            print!("{}", vdx_audit::render::render_query(&result));
        }
        None => print!("{}", vdx_audit::report(&store)),
    }
    Ok(ExitCode::SUCCESS)
}

fn audit_usage() -> ExitCode {
    let queries: Vec<String> = vdx_audit::ALL_QUERIES
        .iter()
        .map(|q| format!("  {:<16} {}", q.name(), q.describe()))
        .collect();
    eprintln!(
        "usage: repro audit report [PATH...]\n\
         \x20      repro audit query <name> [PATH...]\n\
         \x20      repro audit --baseline PATH [--metric-tol PCT] [--wall-tol PCT] \
         [--threads N]\n\
         PATH: a journal.jsonl or a bench.json, or a directory of them\n\
         \x20     (default: results/journals)\n\
         queries:\n{}",
        queries.join("\n")
    );
    ExitCode::FAILURE
}

/// `repro audit --baseline PATH`: re-runs table3 at the baseline's
/// seed/scale and fails (exit code 1) on Table-3 regressions beyond the
/// thresholds. Wall times are only compared when the caller re-times
/// the experiments; the fidelity half is always checked.
fn audit_gate(args: &[String]) -> Result<ExitCode, String> {
    let path = flag_value(args, "--baseline").ok_or("audit: --baseline needs a path")?;
    let baseline =
        vdx_audit::BaselineReport::read(Path::new(&path)).map_err(|e| format!("audit: {e}"))?;
    let mut cfg = vdx_audit::GateConfig::default();
    if let Some(tol) = flag_parsed::<f64>(args, "--metric-tol")? {
        cfg.metric_tol_pct = tol;
    }
    if let Some(tol) = flag_parsed::<f64>(args, "--wall-tol")? {
        cfg.wall_tol_pct = tol;
    }
    let threads = flag_parsed::<usize>(args, "--threads")?;

    let config = ScenarioConfig::at_scale(baseline.scale == "small", Some(baseline.seed));
    eprintln!(
        "gate: rerunning table3 at scale={} seed={} against {path}",
        baseline.scale, baseline.seed
    );
    let mut scenario = Scenario::build(config);
    scenario.set_threads(threads.unwrap_or_else(all_cores));
    let result = table3::run(&scenario);
    let outcome = vdx_audit::gate::compare(&baseline, &to_table3_rows(&result), &[], &cfg);
    print!("{}", outcome.render());
    Ok(if outcome.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

const CHAOS_USAGE: &str =
    "usage: repro chaos [--seed N] [--full] [--crash-at R1,R2,...] [--work-dir DIR]\n\
     \x20      repro chaos --check WAL [--seed N] [--full] [--rounds N | --ladder]\n\
     default: one kill-restart trial at every round of the 11-round ladder\n\
     campaign over the small scenario; vdx-exchanged and vdx-agent are\n\
     expected next to repro (cargo build -p vdx-exchanged first)";

fn chaos_usage() -> ExitCode {
    eprintln!("{CHAOS_USAGE}");
    ExitCode::FAILURE
}

/// `repro chaos`: the kill-restart chaos harness (DESIGN.md §15). The
/// default mode runs [`vdx_sim::chaos::run_chaos`]; `--check WAL`
/// validates an existing log against the clean-campaign reference.
fn chaos_cmd(args: &[String]) -> Result<ExitCode, String> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(chaos_usage());
    }
    refuse_unknown_flags(args, CHAOS_USAGE)?;
    let parse_u64 = |flag: &str| flag_parsed::<u64>(args, flag);
    let seed = parse_u64("--seed")?.unwrap_or(90217);
    let small = !args.iter().any(|a| a == "--full");

    if let Some(wal) = flag_value(args, "--check") {
        eprintln!("chaos check: building scenario (seed {seed}) ...");
        let scenario = Scenario::build(ScenarioConfig::at_scale(small, Some(seed)));
        // `--ladder` re-verifies a WAL the chaos harness itself wrote
        // (its 11-round ladder campaign); the default is the clean
        // `--rounds`-round campaign an operator's daemon runs.
        let plan = if args.iter().any(|a| a == "--ladder") {
            SoakPlan::ladder(scenario.fleet.cdns.len() as u32)
        } else {
            let rounds = parse_u64("--rounds")?.unwrap_or(10).max(1) as usize;
            SoakPlan::clean(rounds)
        };
        let n = vdx_sim::chaos::check_wal(
            Path::new(&wal),
            &scenario,
            vdx_core::Design::Marketplace,
            &plan,
        )
        .map_err(|e| format!("chaos check FAILED: {e}"))?;
        println!("chaos check OK: {n} committed round(s) in {wal} match the reference");
        return Ok(ExitCode::SUCCESS);
    }

    let mut cfg = vdx_sim::chaos::ChaosConfig::new(seed);
    cfg.small = small;
    if let Some(dir) = flag_value(args, "--work-dir") {
        cfg.work_dir = dir.into();
    }
    cfg.crash_rounds = flag_list(args, "--crash-at")?;
    match vdx_sim::chaos::run_chaos(&cfg) {
        Err(e) => Err(format!("chaos: {e}")),
        Ok(report) => {
            println!(
                "chaos campaign: {} trial(s) over the {}-round ladder (seed {seed})",
                report.trials.len(),
                report.rounds
            );
            println!(
                "{:>5}  {:<9}  {:<18}  {:>14}  {:>9}  parity",
                "round", "phase", "tail fault", "committed@kill", "torn B"
            );
            for t in &report.trials {
                let fault = match (t.fault, t.fault_applied) {
                    (vdx_sim::chaos::TailFault::None, _) => "none".to_string(),
                    (f, true) => f.name().to_string(),
                    (f, false) => format!("{} (skipped)", f.name()),
                };
                println!(
                    "{:>5}  {:<9}  {:<18}  {:>14}  {:>9}  {}",
                    t.crash_round,
                    t.phase.name(),
                    fault,
                    t.committed_at_kill,
                    t.fault_detected_bytes,
                    if t.parity { "OK" } else { "FAILED" }
                );
            }
            if report.all_parity() {
                println!("chaos: every trial recovered to the reference sequence");
                Ok(ExitCode::SUCCESS)
            } else {
                Err("chaos: parity FAILED in at least one trial".into())
            }
        }
    }
}
