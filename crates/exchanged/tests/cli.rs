//! Flag handling of the two daemon-side binaries, through the real
//! executables: a number that does not parse ends the run before it
//! touches a socket, a WAL or a scenario — it is never the default.

use std::process::Command;

fn refused(bin: &str, args: &[&str], flag: &str, value: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains(&format!("{flag}: cannot read {value:?}")),
        "{stderr}"
    );
    assert!(!stderr.contains("building scenario"), "{stderr}");
}

#[test]
fn exchanged_refuses_a_malformed_deadline() {
    // Used to serve with the 3 s default.
    refused(
        env!("CARGO_BIN_EXE_vdx-exchanged"),
        &["--small", "--deadline-ms", "5s"],
        "--deadline-ms",
        "5s",
    );
}

#[test]
fn agent_refuses_a_malformed_retry_count() {
    // Used to retry five times.
    refused(
        env!("CARGO_BIN_EXE_vdx-agent"),
        &["--cdn", "0", "--small", "--retry", "none"],
        "--retry",
        "none",
    );
}
