//! `compare <setA-dir> <setB-dir>`: judges set B against set A, metric by
//! metric. Set A is the baseline (the parent commit, or the first of two
//! runs of one commit).
//!
//! A gated metric may worsen by its bound: the one `BENCHMARK.json` fixes
//! for the metric, or the tighter one `CALIBRATION.json` records for that
//! metric on that workload. An exact count must not change at all between
//! runs of the same `--seed`.

use std::collections::BTreeMap;
use std::path::Path;

use vdx_audit::Json;

use crate::registry::{MetricDef, Registry};
use crate::stats;

/// Where the per-workload bounds live, relative to the repository root.
const CALIBRATION: &str = "examples/vdx_bench/CALIBRATION.json";

/// The result files of one directory.
#[derive(Default)]
struct Set {
    /// The dependency set its runs were built against.
    deps: String,
    /// `(workload, metric)` → values in file-name order; gated, per-layer
    /// and informational figures alike.
    values: BTreeMap<(String, String), Vec<f64>>,
    /// `(workload, seed, count)` → value, from untraced runs.
    exact: BTreeMap<(String, u64, String), f64>,
}

/// `name → value` of one section of a result file.
fn section(doc: &Json, key: &str, path: &Path) -> Result<Vec<(String, f64)>, String> {
    let Some(Json::Obj(figures)) = doc.get(key) else {
        return Err(format!("{}: no `{key}` section", path.display()));
    };
    figures
        .iter()
        .map(|(name, figure)| {
            let value = figure
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{}: `{name}` has no value", path.display()))?;
            Ok((name.clone(), value))
        })
        .collect()
}

fn read_set(dir: &Path) -> Result<Set, String> {
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    let mut set = Set::default();
    for path in files {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let (Some(workload), Some(seed), Some(deps)) = (
            doc.get("workload").and_then(Json::as_str),
            doc.get("seed").and_then(Json::as_u64),
            doc.get("deps").and_then(Json::as_str),
        ) else {
            return Err(format!("{}: not a result file", path.display()));
        };
        if doc.get("correct").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "{}: the run failed its output checks",
                path.display()
            ));
        }
        if set.deps.is_empty() {
            set.deps = deps.to_string();
        } else if set.deps != deps {
            return Err(format!(
                "{}: built against `{deps}` crates, the rest of the set against `{}`",
                path.display(),
                set.deps
            ));
        }
        // A traced run's own end-to-end figures are under tracing overhead:
        // only its per-layer metrics count.
        let traced = doc.get("trace").and_then(Json::as_bool) == Some(true);
        let sections: &[&str] = if traced {
            &["metrics"]
        } else {
            &["metrics", "informational"]
        };
        for key in sections {
            for (name, value) in section(&doc, key, &path)? {
                set.values
                    .entry((workload.to_string(), name))
                    .or_default()
                    .push(value);
            }
        }
        if !traced {
            for (name, value) in section(&doc, "exact", &path)? {
                set.exact.insert((workload.to_string(), seed, name), value);
            }
        }
    }
    if set.values.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(set)
}

/// `(workload, metric)` → the bound calibration recorded for the pair.
fn calibrated_bounds() -> Result<BTreeMap<(String, String), f64>, String> {
    let text = std::fs::read_to_string(CALIBRATION)
        .map_err(|e| format!("{CALIBRATION}: {e} (run from the repository root)"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{CALIBRATION}: {e}"))?;
    let Some(Json::Obj(workloads)) = doc.get("bounds") else {
        return Err(format!("{CALIBRATION}: no `bounds` object"));
    };
    let mut bounds = BTreeMap::new();
    for (workload, metrics) in workloads {
        let Json::Obj(metrics) = metrics else {
            return Err(format!(
                "{CALIBRATION}: `bounds.{workload}` is not an object"
            ));
        };
        for (name, bound) in metrics {
            let bound = bound
                .as_f64()
                .ok_or_else(|| format!("{CALIBRATION}: `bounds.{workload}.{name}`"))?;
            bounds.insert((workload.clone(), name.clone()), bound);
        }
    }
    Ok(bounds)
}

/// The verdict on one gated metric.
fn verdict(def: &MetricDef, bound: f64, spread: f64, a: &[f64], b: &[f64]) -> &'static str {
    let (median_a, median_b) = (stats::median(a), stats::median(b));
    let worse_by = if def.higher_is_better {
        (median_a - median_b) / median_a.abs()
    } else {
        (median_b - median_a) / median_a.abs()
    };
    let better = |x: f64, y: f64| if def.higher_is_better { x > y } else { x < y };
    if spread > bound {
        // Too noisy to call unchanged, unless B wins every pairing.
        let b_always_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
        if b_always_better {
            "ok"
        } else {
            "unresolved"
        }
    } else if worse_by > bound {
        "regressed"
    } else {
        "ok"
    }
}

fn quartile_text(values: &[f64]) -> String {
    match stats::quartiles(values) {
        Some([q1, q2, q3]) => format!("{q2:.4} [{q1:.4}, {q3:.4}]"),
        None => format!("{:.4} [-, -]", stats::median(values)),
    }
}

/// Prints the comparison; `Ok(true)` when no gated metric regressed and no
/// exact count changed.
pub fn compare(registry: &Registry, dir_a: &Path, dir_b: &Path) -> Result<bool, String> {
    let set_a = read_set(dir_a)?;
    let set_b = read_set(dir_b)?;
    if set_a.deps != set_b.deps {
        return Err(format!(
            "set A was built against `{}` crates and set B against `{}`: their timings do not compare",
            set_a.deps, set_b.deps
        ));
    }
    let calibrated = calibrated_bounds()?;
    println!(
        "{:<11} {:<40} {:>5} {:>30} {:>30} {:>8} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "runs",
        "A median [q1, q3]",
        "B median [q1, q3]",
        "delta%",
        "spread%",
        "bound%"
    );
    let mut clean = true;
    for ((workload, name), a) in &set_a.values {
        let pair = (workload.clone(), name.clone());
        let Some(b) = set_b.values.get(&pair) else {
            println!("{workload:<11} {name:<40} missing from set B");
            clean = false;
            continue;
        };
        let (median_a, median_b) = (stats::median(a), stats::median(b));
        let delta = if median_a == 0.0 {
            0.0
        } else {
            100.0 * (median_b - median_a) / median_a.abs()
        };
        let spread = stats::spread(a)
            .unwrap_or(0.0)
            .max(stats::spread(b).unwrap_or(0.0));
        // Gated: an end-to-end metric of `BENCHMARK.json`.
        let gate = registry
            .find(name)
            .ok()
            .and_then(|def| Some((def, def.bound?)));
        let (verdict, bound_text) = match gate {
            Some((def, bound)) => {
                let bound = calibrated.get(&pair).map_or(bound, |c| c.min(bound));
                (
                    verdict(def, bound, spread, a, b),
                    format!("{:.1}", 100.0 * bound),
                )
            }
            None => ("informational", "-".into()),
        };
        clean &= verdict != "regressed";
        println!(
            "{workload:<11} {name:<40} {:>2}/{:<2} {:>30} {:>30} {delta:>8.2} {:>8.2} {bound_text:>6}  {verdict}",
            a.len(),
            b.len(),
            quartile_text(a),
            quartile_text(b),
            100.0 * spread,
        );
    }

    // Counts: the same seed must give the same value, to the digit.
    let (mut compared, mut changed) = (0, 0);
    for ((workload, seed, name), a) in &set_a.exact {
        let Some(b) = set_b.exact.get(&(workload.clone(), *seed, name.clone())) else {
            continue;
        };
        compared += 1;
        if a != b {
            println!("{workload:<11} {name:<40} seed {seed}: {a} became {b}  changed");
            changed += 1;
        }
    }
    if compared == 0 {
        println!("exact counts: the sets share no (workload, seed), nothing compared");
    } else {
        println!("exact counts: {changed} of {compared} (workload, seed, count) values changed");
    }
    Ok(clean && changed == 0)
}
