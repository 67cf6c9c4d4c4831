//! `vdx-agent` — one CDN's client for the `vdx-exchanged` daemon.
//!
//! ```text
//! vdx-agent --cdn N [--connect 127.0.0.1:4990] [--seed N] [--small]
//!           [--design NAME] [--silent R1,R2,...] [--journal PATH]
//!           [--retry N] [--retry-base-ms N] [--retry-cap-ms N]
//! ```
//!
//! Builds the scenario from `--seed` (must match the daemon's so both
//! sides see the same fleet), connects, and bids until the daemon
//! closes the connection for good. A dropped connection is retried up
//! to `--retry` times with exponential backoff (doubling from
//! `--retry-base-ms`, capped at `--retry-cap-ms`), resuming the session
//! so settled rounds are never re-bid; each attempt journals a
//! `conn_retry` event when `--journal` is set. `--silent` scripts
//! deadline misses for operator drills (see OPERATIONS.md).

use std::process::ExitCode;

use vdx_exchanged::{run_agent_probed, AgentConfig};
use vdx_sim::cli::{design_flag, flag_parsed, flag_value, FlightRecorder};
use vdx_sim::{Scenario, ScenarioConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: vdx-agent --cdn N [--connect A] [--seed N] [--small] \
         [--design NAME] [--silent R1,R2,...] [--journal PATH] \
         [--retry N] [--retry-base-ms N] [--retry-cap-ms N]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    run().unwrap_or_else(|e| {
        eprintln!("{e}");
        ExitCode::FAILURE
    })
}

fn run() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Ok(usage());
    }
    let parse_u64 = |flag: &str| flag_parsed::<u64>(&args, flag);
    let Some(cdn) = flag_parsed::<u32>(&args, "--cdn")? else {
        return Ok(usage());
    };
    let addr = flag_value(&args, "--connect").unwrap_or_else(|| "127.0.0.1:4990".into());
    let design = match design_flag(&args) {
        Ok(design) => design,
        Err(e) => {
            eprintln!("{e}");
            return Ok(usage());
        }
    };
    let silent_rounds: Vec<u64> = flag_value(&args, "--silent")
        .map(|list| {
            list.split(',')
                .filter_map(|r| r.trim().parse::<u64>().ok())
                .collect()
        })
        .unwrap_or_default();

    let mut cfg = AgentConfig {
        silent_rounds,
        ..AgentConfig::new(cdn, design)
    };
    // Unlike the library default (no retries, for scripted tests), the
    // operator-facing binary reconnects: a daemon restart mid-campaign
    // should not strand its agents.
    cfg.max_retries = parse_u64("--retry")?.unwrap_or(5).min(u32::MAX as u64) as u32;
    if let Some(ms) = parse_u64("--retry-base-ms")? {
        cfg.retry_base_ms = ms.max(1);
    }
    if let Some(ms) = parse_u64("--retry-cap-ms")? {
        cfg.retry_cap_ms = ms.max(cfg.retry_base_ms);
    }

    let small = args.iter().any(|a| a == "--small");
    let config = ScenarioConfig::at_scale(small, parse_u64("--seed")?);
    let seed = config.seed;
    eprintln!("building scenario: seed {seed} ...");
    let scenario = Scenario::build(config);
    if (cdn as usize) >= scenario.fleet.cdns.len() {
        eprintln!(
            "--cdn {cdn} out of range: the scenario has {} CDNs",
            scenario.fleet.cdns.len()
        );
        return Ok(ExitCode::FAILURE);
    }

    let recorder = FlightRecorder::begin_run(&args, "agent", seed, small, None)?;
    let probe = recorder.run_probe();
    eprintln!("vdx-agent cdn {cdn} connecting to {addr} ...");
    let outcome = run_agent_probed(addr.as_str(), &scenario, &cfg, probe.as_ref());
    drop(probe);
    let journal_ok = match recorder.end_run() {
        Ok(()) => true,
        Err(e) => {
            eprintln!("{e}");
            false
        }
    };
    Ok(match outcome {
        Ok(report) => {
            eprintln!(
                "agent done: answered {} round(s), silent on {}, {} accept message(s), \
                 {} bid(s) accepted, {} reconnect(s)",
                report.rounds_answered,
                report.rounds_silent,
                report.accepts_received,
                report.bids_accepted,
                report.reconnects
            );
            if journal_ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("agent transport error: {e}");
            ExitCode::FAILURE
        }
    })
}
