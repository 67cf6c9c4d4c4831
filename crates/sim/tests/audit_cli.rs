//! `repro`'s command line, through the real binary: `audit report`'s
//! default directory may be absent (a fresh checkout has no
//! `results/journals` yet), a directory the caller names may not; a flag
//! value or list entry that does not parse and a flag no experiment reads
//! are errors.

#![expect(clippy::expect_used, reason = "test helpers")]

use std::path::PathBuf;
use std::process::{Command, Output};

/// Runs `repro audit report [args]` from a fresh, empty working directory.
fn audit_report(tag: &str, args: &[&str]) -> Output {
    let mut cwd: PathBuf = std::env::temp_dir();
    cwd.push(format!("vdx-sim-audit-cli-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&cwd).ok();
    std::fs::create_dir_all(&cwd).expect("temp dir creates");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["audit", "report"])
        .args(args)
        .current_dir(&cwd)
        .output()
        .expect("repro runs");
    std::fs::remove_dir_all(&cwd).ok();
    out
}

#[test]
fn absent_default_directory_is_an_empty_store() {
    let out = audit_report("default", &[]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.starts_with("audit: 0 run(s) loaded\n"), "{stdout}");
}

#[test]
fn absent_named_path_fails_by_name() {
    let out = audit_report("named", &["no-such-journals"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("audit: cannot read no-such-journals"),
        "{stderr}"
    );
}

#[test]
fn a_malformed_number_is_an_error_naming_flag_and_value() {
    // Used to run with the default seed and exit 0.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["fig3", "--small", "--seed", "2o17"])
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--seed: cannot read \"2o17\""), "{stderr}");
}

#[test]
fn an_unknown_flag_is_an_error_naming_it() {
    // Used to run table3 and exit 0 with no journal written.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["table3", "--small", "--journl", "t.jsonl"])
        .current_dir(std::env::temp_dir())
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr, "unknown flag: --journl\n");
}

#[test]
fn a_malformed_list_entry_is_an_error_naming_flag_and_entry() {
    // Used to run the one trial at round 6.
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["chaos", "--crash-at", "6,x"])
        .current_dir(std::env::temp_dir())
        .output()
        .expect("repro runs");
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert!(out.stdout.is_empty(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(stderr, "--crash-at: cannot read \"x\"\n");
}
