//! Flag handling of the two daemon-side binaries, through the real
//! executables: a number that does not parse, or a flag the binary does
//! not read, ends the run before it touches a socket, a WAL or a
//! scenario — it is never the default. And the flags the chaos harness
//! gives the daemon.

#![expect(clippy::expect_used, reason = "test helpers")]

use std::path::Path;
use std::process::Command;
use std::time::Duration;

use vdx_broker::STALE_TTL_ROUNDS;
use vdx_exchanged::ServerOptions;
use vdx_sim::chaos::{daemon_args, ChaosConfig};
use vdx_sim::soak::SoakPlan;

fn refused(bin: &str, args: &[&str], message: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains(message), "{stderr}");
    assert!(!stderr.contains("building scenario"), "{stderr}");
}

#[test]
fn exchanged_refuses_a_malformed_deadline() {
    // Used to serve with the 3 s default.
    refused(
        env!("CARGO_BIN_EXE_vdx-exchanged"),
        &["--small", "--deadline-ms", "5s"],
        "--deadline-ms: cannot read \"5s\"",
    );
}

#[test]
fn agent_refuses_a_malformed_retry_count() {
    // Used to retry five times.
    refused(
        env!("CARGO_BIN_EXE_vdx-agent"),
        &["--cdn", "0", "--small", "--retry", "none"],
        "--retry: cannot read \"none\"",
    );
}

#[test]
fn agent_refuses_a_malformed_entry_of_a_list() {
    // Used to run silent on round 3 only.
    refused(
        env!("CARGO_BIN_EXE_vdx-agent"),
        &["--cdn", "0", "--small", "--silent", "3,x"],
        "--silent: cannot read \"x\"",
    );
}

#[test]
fn both_binaries_refuse_a_design_the_exchange_does_not_serve() {
    // Both used to serve it.
    refused(
        env!("CARGO_BIN_EXE_vdx-exchanged"),
        &["--small", "--design", "omniscient"],
        "Omniscient is the simulator's upper bound (§5); the exchange does not serve it",
    );
    refused(
        env!("CARGO_BIN_EXE_vdx-agent"),
        &["--cdn", "0", "--small", "--design", "transactions"],
        "Transactions is not deployable: CDNs may never all approve the mapping (§4.2)",
    );
}

#[test]
fn exchanged_refuses_a_retired_or_misspelt_flag() {
    // Both used to be ignored: the run served with the defaults.
    for (flag, value) in [("--queue-cap", "8"), ("--dealine-ms", "500")] {
        refused(
            env!("CARGO_BIN_EXE_vdx-exchanged"),
            &["--small", flag, value],
            &format!("unknown flag: {flag}"),
        );
    }
}

/// `repro chaos` passes the daemon only the ladder's deadline and
/// cool-down: its TTL, trip threshold and checkpoint interval are the
/// daemon's defaults, so those must be the ladder's.
#[test]
fn chaos_runs_the_ladder_on_the_daemons_defaults() {
    let plan = SoakPlan::ladder(2);
    let opts = ServerOptions::default();
    assert_eq!(opts.stale_ttl_rounds, STALE_TTL_ROUNDS);
    assert_eq!(opts.breaker.trip_after, plan.breaker.trip_after);
    assert_eq!(opts.checkpoint_every, 4);

    let args = daemon_args(
        &ChaosConfig::new(1),
        &plan,
        "127.0.0.1:0",
        Path::new("trial.wal"),
        Path::new("trial.jsonl"),
        2,
    );
    let value = |flag: &str| {
        let at = args.iter().position(|a| a == flag);
        at.and_then(|i| args.get(i + 1)).map(String::as_str)
    };
    let deadline = value("--deadline-ms").map(|v| v.parse().map(Duration::from_millis));
    assert_eq!(deadline, Some(Ok(ServerOptions::for_plan(&plan).deadline)));
    let cooldown = value("--cooldown").map(str::parse);
    assert_eq!(cooldown, Some(Ok(plan.breaker.cooldown_rounds)));
}
