//! `selftest`: the harness checking itself — its order statistics, the
//! names in `BENCHMARK.json`, and a quick pass over all four workloads in
//! both modes with their output checks on.

use std::collections::BTreeSet;

use crate::registry::Registry;
use crate::run::{self, Plan, Workload};
use crate::{sim, stats};

/// Seconds a smoke run measures for: one short instance each.
const SMOKE_SECONDS: f64 = 0.5;

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Runs every check; the first failure is the error.
pub fn selftest() -> Result<(), String> {
    stats::selftest()?;
    println!("ok: order statistics");

    let registry = Registry::load()?;
    let mut seen = BTreeSet::new();
    for def in registry.end_to_end.iter().chain(&registry.per_layer) {
        if !valid_name(&def.name) {
            return Err(format!(
                "metric name `{}` is not [A-Za-z0-9][A-Za-z0-9_.-]*",
                def.name
            ));
        }
        if !seen.insert(&def.name) {
            return Err(format!("metric name `{}` is used twice", def.name));
        }
    }
    let declared: Vec<&str> = registry.workloads.iter().map(|(n, _)| n.as_str()).collect();
    let built: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    if declared != built {
        return Err(format!(
            "BENCHMARK.json names workloads {declared:?}, the harness runs {built:?}"
        ));
    }
    println!("ok: {} metric names, {} workloads", seen.len(), built.len());
    sim::check_seed_lists()?;
    println!("ok: instance seed lists");

    let mut measured = BTreeSet::new();
    for workload in Workload::ALL {
        for trace in [false, true] {
            let plan = Plan {
                workload,
                seed: sim::PAPER_SEED,
                seconds: SMOKE_SECONDS,
                trace,
                out_dir: crate::default_out_dir().join("selftest"),
            };
            // `run` itself refuses a measured name the registry lacks.
            let result = run::run(&plan, &registry)?;
            if !result.correct() {
                return Err(format!(
                    "{} (trace {trace}) failed its checks: {:?}, {} of {} operations failed",
                    workload.name(),
                    result.checks,
                    result.failed,
                    result.attempted
                ));
            }
            for m in result.metrics.iter().filter(|m| m.samples > 0) {
                measured.insert(m.name.clone());
            }
            println!(
                "ok: {} trace {} — {} operations, {} metrics",
                workload.name(),
                u8::from(trace),
                result.attempted,
                result.metrics.len()
            );
        }
    }
    // Every declared metric must be measured by at least one workload.
    for def in registry.end_to_end.iter().chain(&registry.per_layer) {
        if !measured.contains(&def.name) {
            return Err(format!(
                "`{}` is declared but no workload measures it",
                def.name
            ));
        }
    }
    println!("ok: every declared metric is measured");
    Ok(())
}
