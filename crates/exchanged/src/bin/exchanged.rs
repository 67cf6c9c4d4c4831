//! `vdx-exchanged` — run the exchange daemon over a seeded scenario.
//!
//! ```text
//! vdx-exchanged [--addr 127.0.0.1:4990] [--seed N] [--small]
//!               [--design NAME] [--rounds N] [--interval-ms N]
//!               [--deadline-ms N] [--ttl N] [--trip-after N]
//!               [--cooldown N] [--queue-cap N]
//!               [--min-agents N] [--wait-ms N] [--journal PATH]
//!               [--wal PATH] [--checkpoint-every N] [--fresh]
//! ```
//!
//! The daemon builds the scenario from `--seed`, listens on `--addr`,
//! waits up to `--wait-ms` for `--min-agents` `vdx-agent` connections,
//! then drives `--rounds` Decision Protocol rounds, one every
//! `--interval-ms` (0 = back to back). With `--wal` the round state is
//! durable: a killed daemon restarted on the same WAL recovers its
//! committed rounds and resumes where it left off (`--fresh` wipes the
//! log first). See OPERATIONS.md §8 and DESIGN.md §15.

use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use vdx_broker::{BreakerConfig, CpPolicy};
use vdx_core::{Design, ExchangeDriver};
use vdx_exchanged::{ExchangeServer, ServerOptions};
use vdx_obs::timing::run_header;
use vdx_obs::{Event, Journal, JournalProbe, Probe, Stopwatch};
use vdx_sim::{flag_value, Scenario, ScenarioConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: vdx-exchanged [--addr A] [--seed N] [--small] [--design NAME] \
         [--rounds N] [--interval-ms N] [--deadline-ms N] [--ttl N] \
         [--trip-after N] [--cooldown N] [--queue-cap N] [--min-agents N] \
         [--wait-ms N] [--journal PATH] [--wal PATH] [--checkpoint-every N] \
         [--fresh]\n\
         designs: brokered, multicluster:K, dynamic-pricing, \
         dynamic-multicluster, best-lookup, marketplace, transactions, \
         omniscient"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return usage();
    }
    let parse_u64 = |flag: &str| flag_value(&args, flag).and_then(|v| v.parse::<u64>().ok());

    let addr = flag_value(&args, "--addr").unwrap_or_else(|| "127.0.0.1:4990".into());
    let small = args.iter().any(|a| a == "--small");
    let design = match flag_value(&args, "--design") {
        None => Design::Marketplace,
        Some(name) => match Design::parse(&name) {
            Some(d) => d,
            None => {
                eprintln!("unknown design: {name}");
                return usage();
            }
        },
    };
    let rounds = parse_u64("--rounds").unwrap_or(10).max(1);
    let interval = Duration::from_millis(parse_u64("--interval-ms").unwrap_or(0));
    let mut opts = ServerOptions::default();
    if let Some(ms) = parse_u64("--deadline-ms") {
        opts.deadline = Duration::from_millis(ms.max(1));
    }
    if let Some(ttl) = parse_u64("--ttl") {
        opts.stale_ttl_rounds = ttl;
    }
    let mut breaker = BreakerConfig::default();
    if let Some(t) = parse_u64("--trip-after") {
        breaker.trip_after = t.clamp(1, u32::MAX as u64) as u32;
    }
    if let Some(c) = parse_u64("--cooldown") {
        breaker.cooldown_rounds = c.max(1);
    }
    opts.breaker = breaker;
    if let Some(cap) = parse_u64("--queue-cap") {
        opts.queue_cap = cap.clamp(1, 1 << 16) as usize;
    }
    opts.wal = flag_value(&args, "--wal").map(PathBuf::from);
    if let Some(every) = parse_u64("--checkpoint-every") {
        opts.checkpoint_every = every;
    }
    if args.iter().any(|a| a == "--fresh") {
        if let Some(path) = &opts.wal {
            if let Err(e) = vdx_core::Wal::reset(path) {
                eprintln!("cannot reset WAL {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("WAL reset: {}", path.display());
        }
    }
    let wait = Duration::from_millis(parse_u64("--wait-ms").unwrap_or(10_000));
    let journal_path = flag_value(&args, "--journal");

    let mut config = if small {
        ScenarioConfig::small()
    } else {
        ScenarioConfig::default()
    };
    if let Some(seed) = parse_u64("--seed") {
        config.seed = seed;
    }

    let run_clock = Stopwatch::start();
    let probe: Option<Arc<JournalProbe>> = match &journal_path {
        Some(path) => match Journal::create(path) {
            Ok(journal) => Some(Arc::new(JournalProbe::new(journal))),
            Err(e) => {
                eprintln!("cannot create journal {path}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => None,
    };
    if let Some(p) = &probe {
        p.emit(run_header("exchanged", config.seed, small, 0));
        p.emit(Event::PhaseStarted {
            phase: "build_scenario".into(),
        });
    }
    eprintln!(
        "building scenario: seed {} ({}) ...",
        config.seed,
        if small { "small" } else { "full" }
    );
    let build_clock = Stopwatch::start();
    let scenario = Arc::new(Scenario::build(config));
    if let Some(p) = &probe {
        p.emit(Event::PhaseFinished {
            phase: "build_scenario".into(),
            wall_us: build_clock.elapsed_us(),
        });
    }
    let num_cdns = scenario.fleet.cdns.len();
    let min_agents = parse_u64("--min-agents")
        .map(|n| n as usize)
        .unwrap_or(num_cdns)
        .min(num_cdns);

    let server_probe: Arc<dyn Probe> = match &probe {
        Some(p) => p.clone(),
        None => vdx_obs::probe::noop(),
    };
    let deadline_ms = opts.deadline.as_millis();
    let mut server = match ExchangeServer::start(
        addr.as_str(),
        scenario.clone(),
        design,
        CpPolicy::balanced(),
        server_probe,
        opts,
    ) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot start on {addr}: {e}");
            return ExitCode::FAILURE;
        }
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
            return ExitCode::FAILURE;
        }
    }

    if let Some(p) = &probe {
        p.emit(Event::PhaseStarted {
            phase: "exchange_rounds".into(),
        });
    }
    let rounds_clock = Stopwatch::start();
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
    if let Some(p) = &probe {
        p.emit(Event::PhaseFinished {
            phase: "exchange_rounds".into(),
            wall_us: rounds_clock.elapsed_us(),
        });
    }
    server.shutdown();

    if let Some(p) = probe {
        for event in vdx_obs::metrics::global().drain() {
            p.emit(event);
        }
        let journal = match Arc::try_unwrap(p) {
            Ok(inner) => match inner.into_journal() {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("journal write errors: {e}");
                    return ExitCode::FAILURE;
                }
            },
            Err(_) => {
                eprintln!("journal probe still shared; cannot finish the journal");
                return ExitCode::FAILURE;
            }
        };
        let path = journal.path().display().to_string();
        if let Err(e) = journal.finish("exchanged", run_clock.elapsed_ms()) {
            eprintln!("failed to finish journal: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("journal written: {path}");
    }
    ExitCode::SUCCESS
}
