//! `BENCHMARK.json` as the harness sees it: the one list of workloads,
//! metric names, units, directions and regression bounds. The harness reads
//! it instead of carrying a second copy; `selftest` checks that what the
//! workloads emit and what the file names are the same set.

use vdx_audit::Json;

/// Where the registry lives, relative to the directory the benchmark is
/// run from (the repository root).
pub const PATH: &str = "BENCHMARK.json";

/// One metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit string.
    pub unit: String,
    /// True when a higher value is better.
    pub higher_is_better: bool,
    /// Share of the baseline median the metric may worsen by; `None` for
    /// per-layer metrics, which are never gated.
    pub bound: Option<f64>,
}

/// The parsed file.
#[derive(Debug, Clone)]
pub struct Registry {
    /// Seconds one run measures for.
    pub run_seconds: f64,
    /// `(name, why)` per workload.
    pub workloads: Vec<(String, String)>,
    /// Gated metrics, emitted by every workload's untraced run.
    pub end_to_end: Vec<MetricDef>,
    /// Ungated metrics, emitted by every workload's traced run.
    pub per_layer: Vec<MetricDef>,
}

fn metric_defs(doc: &Json, key: &str) -> Result<Vec<MetricDef>, String> {
    let items = doc
        .get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{PATH}: `{key}` is not an array"))?;
    items
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("{PATH}: a `{key}` entry lacks `{f}`"))
            };
            Ok(MetricDef {
                name: field("name")?,
                unit: field("unit")?,
                higher_is_better: match field("better")?.as_str() {
                    "higher" => true,
                    "lower" => false,
                    other => return Err(format!("{PATH}: `better` is `{other}`")),
                },
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Registry {
    /// Reads `BENCHMARK.json` from the current directory.
    pub fn load() -> Result<Registry, String> {
        let text = std::fs::read_to_string(PATH)
            .map_err(|e| format!("{PATH}: {e} (run from the repository root)"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{PATH}: {e}"))?;
        let workloads = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("{PATH}: `workloads` is not an array"))?
            .iter()
            .map(|w| (w.str_or("name", ""), w.str_or("why", "")))
            .collect();
        Ok(Registry {
            run_seconds: doc.f64_or("run_seconds", 0.0),
            workloads,
            end_to_end: metric_defs(&doc, "end_to_end")?,
            per_layer: metric_defs(&doc, "per_layer")?,
        })
    }

    /// The definition of `name` in either list; a name the file lacks is an
    /// error, so nothing is measured or compared that it does not declare.
    pub fn find(&self, name: &str) -> Result<&MetricDef, String> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .ok_or_else(|| format!("`{name}` is measured but {PATH} does not name it"))
    }
}
