//! `vdx-exchanged` — run the exchange daemon over a seeded scenario.
//!
//! ```text
//! vdx-exchanged [--addr 127.0.0.1:4990] [--seed N] [--small]
//!               [--design NAME] [--rounds N] [--interval-ms N]
//!               [--deadline-ms N] [--cooldown N]
//!               [--min-agents N] [--wait-ms N] [--journal PATH]
//!               [--wal PATH] [--fresh]
//! ```
//!
//! The daemon builds the scenario from `--seed`, listens on `--addr`,
//! waits up to `--wait-ms` for `--min-agents` `vdx-agent` connections,
//! then drives `--rounds` Decision Protocol rounds, one every
//! `--interval-ms` (0 = back to back). With `--wal` the round state is
//! durable: a killed daemon restarted on the same WAL recovers its
//! committed rounds and resumes where it left off (`--fresh` wipes the
//! log first). See OPERATIONS.md §8 and DESIGN.md §15.

#![deny(clippy::indexing_slicing)]

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use vdx_broker::CpPolicy;
use vdx_core::ExchangeDriver;
use vdx_exchanged::{ExchangeServer, ServerOptions};
use vdx_sim::cli::{
    flag_parsed, flag_value, journaled_phase, refuse_unknown_flags, served_design_flag,
    FlightRecorder,
};
use vdx_sim::{Scenario, ScenarioConfig};

const USAGE: &str = "usage: vdx-exchanged [--addr A] [--seed N] [--small] [--design NAME] \
     [--rounds N] [--interval-ms N] [--deadline-ms N] [--cooldown N] \
     [--min-agents N] [--wait-ms N] [--journal PATH] [--wal PATH] [--fresh]\n\
     designs: brokered, multicluster:K, dynamic-pricing, \
     dynamic-multicluster, best-lookup, marketplace";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
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
    refuse_unknown_flags(&args, USAGE)?;
    let parse_u64 = |flag: &str| flag_parsed::<u64>(&args, flag);

    let addr = flag_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:4990".into());
    let small = args.iter().any(|a| a == "--small");
    let design = match served_design_flag(&args) {
        Ok(design) => design,
        Err(e) => {
            eprintln!("{e}");
            return Ok(usage());
        }
    };
    let rounds = parse_u64("--rounds")?.unwrap_or(10).max(1);
    let interval = Duration::from_millis(parse_u64("--interval-ms")?.unwrap_or(0));
    let mut opts = ServerOptions::default();
    if let Some(ms) = parse_u64("--deadline-ms")? {
        opts.deadline = Duration::from_millis(ms.max(1));
    }
    if let Some(c) = parse_u64("--cooldown")? {
        opts.breaker.cooldown_rounds = c.max(1);
    }
    opts.wal = flag_value(&args, "--wal").map(PathBuf::from);
    let wait = Duration::from_millis(parse_u64("--wait-ms")?.unwrap_or(10_000));
    let min_agents = parse_u64("--min-agents")?;
    let config = ScenarioConfig::at_scale(small, parse_u64("--seed")?);
    // Every flag is read; only now may the run touch anything.
    if args.iter().any(|a| a == "--fresh") {
        if let Some(path) = &opts.wal {
            if let Err(e) = vdx_core::Wal::reset(path) {
                return Err(format!("cannot reset WAL {}: {e}", path.display()));
            }
            eprintln!("WAL reset: {}", path.display());
        }
    }

    let recorder = FlightRecorder::begin_run(&args, "exchanged", config.seed, small, None)?;
    let probe = recorder.run_probe();
    eprintln!(
        "building scenario: seed {} ({}) ...",
        config.seed,
        if small { "small" } else { "full" }
    );
    let scenario = Arc::new(journaled_phase(probe.as_ref(), "build_scenario", || {
        Scenario::build(config)
    }));
    let num_cdns = scenario.fleet.cdns.len();
    let min_agents = min_agents
        .map(|n| n as usize)
        .unwrap_or(num_cdns)
        .min(num_cdns);

    let deadline_ms = opts.deadline.as_millis();
    let mut server = match ExchangeServer::start(
        addr.as_str(),
        scenario.clone(),
        design,
        CpPolicy::balanced(),
        probe.clone(),
        opts,
    ) {
        Ok(s) => s,
        Err(e) => return Err(format!("cannot start on {addr}: {e}")),
    };
    eprintln!(
        "vdx-exchanged listening on {} — design {}, {} CDNs, deadline {deadline_ms}ms",
        server.local_addr(),
        design.name(),
        num_cdns,
    );
    // Recovery summary: with a WAL, rounds committed before a crash are
    // reported as already decided and the loop resumes after them.
    let start_round = server.next_round();
    if start_round > 0 {
        eprintln!(
            "recovered {} committed round(s) from WAL; resuming at round {start_round}",
            server.recovered_rounds().len()
        );
        for dr in server.recovered_rounds() {
            eprintln!(
                "round {}: {:?} objective={:.3} picks={} (recovered)",
                dr.round,
                dr.resolution,
                dr.objective,
                dr.picks.len()
            );
        }
    }
    if min_agents > 0 && start_round < rounds {
        eprintln!("waiting for {min_agents} agent(s) ...");
        if !server.wait_for_agents(min_agents, wait) {
            eprintln!(
                "only {} of {min_agents} agents connected within {}ms; giving up",
                server.connected_agents(),
                wait.as_millis()
            );
            server.shutdown();
            return Ok(ExitCode::FAILURE);
        }
    }

    journaled_phase(probe.as_ref(), "exchange_rounds", || {
        for round in start_round..rounds {
            let result = server.run_round(round);
            eprintln!(
                "round {round}: {:?} objective={:.3} picks={} agents={}",
                result.resolution,
                result.objective,
                result.picks.len(),
                server.connected_agents()
            );
            if round + 1 < rounds && !interval.is_zero() {
                std::thread::sleep(interval);
            }
        }
    });
    server.shutdown();

    drop(probe);
    recorder.end_run()?;
    Ok(ExitCode::SUCCESS)
}
