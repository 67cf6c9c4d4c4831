//! The VDX benchmark harness. See `README.md` beside this package for the
//! workloads, the metric glossary and how to read the output.
//!
//! ```text
//! vdx_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! vdx_bench all [--seed N] [--seconds S] [--out DIR]
//! vdx_bench compare <setA-dir> <setB-dir>
//! vdx_bench selftest
//! ```
//!
//! Every clock read goes through `vdx_obs::Stopwatch`, the workspace's one
//! sanctioned timing type.

mod compare;
mod daemon;
mod registry;
mod run;
mod selftest;
mod sim;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use registry::Registry;
use run::{Plan, Workload};

/// Where results, traces and WAL files go unless `--out` says otherwise:
/// under the build directory, which is never committed.
fn default_out_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("vdx-bench")
}

/// The flags of a run, which `all` shares.
struct Flags {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    out_dir: PathBuf,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        workload: None,
        seed: sim::PAPER_SEED,
        seconds: None,
        trace: false,
        out_dir: default_out_dir(),
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                flags.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => {
                flags.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                flags.seconds = Some(seconds);
            }
            "--out" => flags.out_dir = PathBuf::from(value("a directory")?),
            "--trace" => {
                flags.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace is 0 or 1, not `{other}`")),
                };
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(flags)
}

fn plan(flags: &Flags, registry: &Registry, workload: Workload, trace: bool) -> Plan {
    Plan {
        workload,
        seed: flags.seed,
        seconds: flags.seconds.unwrap_or(registry.run_seconds),
        trace,
        out_dir: flags.out_dir.clone(),
    }
}

/// Runs one plan, prints its listing and writes its result file.
fn run_one(plan: &Plan, registry: &Registry) -> Result<run::RunResult, String> {
    let result = run::run(plan, registry)?;
    print!("{}", result.listing());
    let path = result.write()?;
    println!("result file {}", path.display());
    Ok(result)
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let registry = Registry::load()?;
    let flags = parse_flags(args)?;
    let workload = flags.workload.ok_or("a run needs --workload <name>")?;
    let result = run_one(&plan(&flags, &registry, workload, flags.trace), &registry)?;
    // The summary is the last line of standard output.
    println!("{}", result.summary_line());
    Ok(result.correct())
}

fn cmd_all(args: &[String]) -> Result<bool, String> {
    let registry = Registry::load()?;
    let flags = parse_flags(args)?;
    let mut correct = true;
    for workload in Workload::ALL {
        let untraced = run_one(&plan(&flags, &registry, workload, false), &registry)?;
        let traced = run_one(&plan(&flags, &registry, workload, true), &registry)?;
        correct &= untraced.correct() && traced.correct();
        let value = |r: &run::RunResult, name: &str| {
            r.metrics.iter().find(|m| m.name == name).map(|m| m.value)
        };
        if let (Some(plain), Some(under_trace)) = (
            value(&untraced, "op_ms_p10"),
            value(&traced, "bench.traced_op_ms_p10"),
        ) {
            println!(
                "trace_overhead_pct {} % ({} traced against {plain} ms untraced)",
                100.0 * (under_trace - plain) / plain,
                under_trace
            );
        }
        println!();
    }
    Ok(correct)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [a, b] = args else {
        return Err("compare needs <setA-dir> <setB-dir>".into());
    };
    compare::compare(&Registry::load()?, a.as_ref(), b.as_ref())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("all") => cmd_all(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("selftest") => selftest::selftest().map(|()| true),
        Some(flag) if flag.starts_with("--") => cmd_run(&args),
        _ => Err(
            "usage: vdx_bench --workload <name> [--seed N] [--seconds S] [--trace 0|1] \
                  [--out DIR] | all | compare <A> <B> | selftest"
                .into(),
        ),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("vdx_bench: {message}");
            ExitCode::from(2)
        }
    }
}
