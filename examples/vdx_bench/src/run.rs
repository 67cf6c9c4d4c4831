//! One benchmark run: a workload's instances, their reduction to the
//! metrics `BENCHMARK.json` names, and the result in its three forms — the
//! readable listing, the result file, and the one-line summary the
//! benchmark's gate reads.

use std::path::{Path, PathBuf};

use vdx_audit::Json;
use vdx_obs::Stopwatch;

use crate::daemon;
use crate::registry::Registry;
use crate::sim::{self, Scale};
use crate::spans::{Layers, SpanLog};
use crate::stats;

/// The four workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table-3 passes over the full scenario: every round a cold solve.
    SimCold,
    /// Consecutive Marketplace rounds through one warm context.
    SimWarm,
    /// Marketplace rounds through the TCP daemon and two agents, no WAL.
    Daemon,
    /// `Daemon` with the round WAL on, then recovery from its log.
    DaemonWal,
}

impl Workload {
    /// Every workload, in the order `all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::SimCold,
        Workload::SimWarm,
        Workload::Daemon,
        Workload::DaemonWal,
    ];

    /// The name `BENCHMARK.json` and `--workload` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimCold => "sim-cold",
            Workload::SimWarm => "sim-warm",
            Workload::Daemon => "daemon",
            Workload::DaemonWal => "daemon-wal",
        }
    }

    /// Parses a `--workload` value.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    fn scale(self) -> Scale {
        match self {
            Workload::SimCold | Workload::SimWarm => Scale::Full,
            Workload::Daemon | Workload::DaemonWal => Scale::TwoCdn,
        }
    }
}

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The workload.
    pub workload: Workload,
    /// The workload seed; it picks the instances' scenario seeds.
    pub seed: u64,
    /// Seconds of operations to measure.
    pub seconds: f64,
    /// Traced run: spans, layer replays and per-layer metrics.
    pub trace: bool,
    /// Where result, trace and WAL files go.
    pub out_dir: PathBuf,
}

/// How long an instance runs operations. A run is a sequence of instances
/// — each a scenario of its own, set up, measured, checked and dropped
/// before the next — so a 20-second run sets up at least four times:
/// set-up time is a median over several set-ups and an operation time an
/// average over several inputs. Every instance gets a whole slice, so a run
/// measures for `--seconds` rounded up to whole instances.
const SLICE_SECONDS: f64 = 5.0;

/// A set-up instance that operations can be run on.
pub trait Live {
    /// Runs one timed operation and records it.
    fn op(&mut self, log: &mut SpanLog);
    /// Tears the instance down, runs its output checks and hands over what
    /// it measured.
    fn finish(self: Box<Self>, log: &mut SpanLog) -> Instance;
}

/// What one instance measured.
#[derive(Debug, Default)]
pub struct Instance {
    /// Set-up wall time: everything before the first timed operation.
    pub setup_s: f64,
    /// Wall time of each timed operation, milliseconds.
    pub op_ms: Vec<f64>,
    /// Timed operations that failed their check.
    pub failed: u64,
    /// Output checks that did not hold; empty when the instance is correct.
    pub checks: Vec<String>,
    /// Per-layer samples (traced run only).
    pub layers: Layers,
    /// Figures beside the declared metrics: `(name, value, unit)`. The
    /// run's first instance reports the exact counts, any instance may
    /// report informational samples (see [`EXACT`]).
    pub figures: Vec<(&'static str, f64, &'static str)>,
}

/// The figures that are counts, not timings: the same `--seed` must give
/// the same value, and `compare` fails on any difference. Every other
/// figure is informational.
pub const EXACT: [&str; 3] = ["failed_share", "bytes_per_round", "wal_bytes_per_round"];

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// The value.
    pub value: f64,
    /// The unit `BENCHMARK.json` declares.
    pub unit: String,
    /// Samples the value was reduced from.
    pub samples: usize,
}

/// The outcome of one run.
#[derive(Debug)]
pub struct RunResult {
    /// The plan that produced it.
    pub plan: Plan,
    /// Scenario seeds of the instances, in the order they ran.
    pub instance_seeds: Vec<u64>,
    /// Timed operations attempted.
    pub attempted: u64,
    /// Timed operations that failed their check.
    pub failed: u64,
    /// Output checks that did not hold.
    pub checks: Vec<String>,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Counts that repeat exactly for one `--seed` ([`EXACT`]).
    pub exact: Vec<Metric>,
    /// Timings printed and filed with every run but never gated.
    pub informational: Vec<Metric>,
}

impl RunResult {
    /// Whether every output check held and no operation failed.
    pub fn correct(&self) -> bool {
        self.checks.is_empty() && self.failed == 0
    }
}

/// Which published-crate set the binary was built against: the sandbox
/// build configuration (`sandbox/config.toml`) sets this to `stand-ins`
/// along with the `[patch]` that swaps them in. Timings of different sets
/// do not compare, so it is filed with every result.
pub const DEPS: &str = match option_env!("VDX_BENCH_DEPS") {
    Some(set) => set,
    None => "published",
};

/// Peak resident set of this process so far, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The file system type holding `dir`, from the mount table.
fn fs_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fs)| fs)
}

fn set_up(plan: &Plan, i: usize, scenario_seed: u64, log: &mut SpanLog) -> Box<dyn Live> {
    let first = i == 0;
    match plan.workload {
        Workload::SimCold => Box::new(sim::ColdInstance::setup(
            scenario_seed,
            first,
            plan.trace,
            log,
        )),
        Workload::SimWarm => Box::new(sim::WarmInstance::setup(scenario_seed, plan.trace, log)),
        Workload::Daemon | Workload::DaemonWal => {
            let wal = (plan.workload == Workload::DaemonWal)
                .then(|| plan.out_dir.join(format!("{}.wal", plan.workload.name())));
            Box::new(daemon::DaemonInstance::setup(
                scenario_seed,
                wal,
                first,
                plan.trace,
                log,
            ))
        }
    }
}

/// Runs `plan` and reduces it to the metrics its mode reports.
pub fn run(plan: &Plan, registry: &Registry) -> Result<RunResult, String> {
    std::fs::create_dir_all(&plan.out_dir)
        .map_err(|e| format!("{}: {e}", plan.out_dir.display()))?;
    // The sim workloads state a single-threaded load model.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let mut log = SpanLog::new(plan.trace);

    // Instances run one after another until `seconds` of operations have
    // been measured; set-up and checks are outside that time.
    let slice_us = plan.seconds.min(SLICE_SECONDS) * 1e6;
    let mut seeds = Vec::new();
    let mut instances = Vec::new();
    let mut timed_s = 0.0;
    while timed_s < plan.seconds {
        let i = instances.len();
        let scenario_seed = sim::scenario_seed(plan.workload.scale(), plan.seed, i);
        let mut live = set_up(plan, i, scenario_seed, &mut log);
        let slice = Stopwatch::start();
        loop {
            live.op(&mut log);
            if slice.elapsed_us() as f64 >= slice_us {
                break;
            }
        }
        timed_s += slice.elapsed_us() as f64 / 1e6;
        seeds.push(scenario_seed);
        instances.push(live.finish(&mut log));
    }
    // Operation times are pooled over the instances: one scale's instances
    // are the same size to within 2 %.
    let mut op_ms: Vec<f64> = instances.iter().flat_map(|i| &i.op_ms).copied().collect();
    stats::sort(&mut op_ms);
    let ops = op_ms.len();
    let failed: u64 = instances.iter().map(|i| i.failed).sum();

    let metric = |name: &str, value: f64, samples: usize| {
        registry.find(name).map(|def| Metric {
            name: name.into(),
            value,
            unit: def.unit.clone(),
            samples,
        })
    };
    let mut metrics = Vec::new();
    if plan.trace {
        let mut layers = Layers::default();
        for instance in &mut instances {
            layers.merge(std::mem::take(&mut instance.layers));
        }
        // The operation time under tracing, for the overhead figure.
        layers.push("bench.traced_op_ms_p10", stats::percentile(&op_ms, 10.0));
        for name in layers.names() {
            registry.find(name)?;
        }
        for def in &registry.per_layer {
            let samples = layers.samples(&def.name);
            metrics.push(metric(&def.name, stats::median(samples), samples.len())?);
        }
        let path = plan
            .out_dir
            .join(format!("{}.trace.jsonl", plan.workload.name()));
        std::fs::write(&path, log.to_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
    } else {
        // The low end of both distributions: the host's disturbance only
        // ever adds time (see README, "Why the low end").
        let mut setups: Vec<f64> = instances.iter().map(|i| i.setup_s).collect();
        stats::sort(&mut setups);
        let setup_s = stats::percentile(&setups, 25.0);
        metrics.push(metric("setup_s", setup_s, setups.len())?);
        metrics.push(metric("op_ms_p10", stats::percentile(&op_ms, 10.0), ops)?);
        metrics.push(metric("peak_rss_mb", peak_rss_mb(), 1)?);
    }

    let figure = |name: &str, value: f64, unit: &str, samples: usize| Metric {
        name: name.into(),
        value,
        unit: unit.into(),
        samples,
    };
    // Read these, do not gate on them: on a shared host they follow the
    // neighbours' load as much as the code.
    let mut informational = vec![
        figure("op_ms_p2", stats::percentile(&op_ms, 2.0), "ms", ops),
        figure("op_ms_p50", stats::percentile(&op_ms, 50.0), "ms", ops),
        figure("op_ms_p90", stats::percentile(&op_ms, 90.0), "ms", ops),
        figure("ops_per_s", ops as f64 / timed_s, "1/s", ops),
    ];
    if ops >= 1_000 {
        // Enough samples for ten beyond the 99th percentile.
        let p99 = stats::percentile(&op_ms, 99.0);
        informational.push(figure("op_ms_p99", p99, "ms", ops));
    }
    let mut exact = vec![figure(
        "failed_share",
        failed as f64 / ops as f64,
        "share",
        ops,
    )];
    // What the instances report themselves: one median per name.
    let mut reported: Vec<(&str, &str, Vec<f64>)> = Vec::new();
    for &(name, value, unit) in instances.iter().flat_map(|i| &i.figures) {
        match reported.iter_mut().find(|(n, ..)| *n == name) {
            Some((.., values)) => values.push(value),
            None => reported.push((name, unit, vec![value])),
        }
    }
    for (name, unit, values) in reported {
        let list = if EXACT.contains(&name) {
            &mut exact
        } else {
            &mut informational
        };
        list.push(figure(name, stats::median(&values), unit, values.len()));
    }

    Ok(RunResult {
        plan: plan.clone(),
        instance_seeds: seeds,
        attempted: ops as u64,
        failed,
        checks: instances
            .iter_mut()
            .flat_map(|i| std::mem::take(&mut i.checks))
            .collect(),
        metrics,
        exact,
        informational,
    })
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect(),
    )
}

impl RunResult {
    /// The listing: one `name value unit (n=samples)` line per metric, then
    /// any failed checks.
    pub fn listing(&self) -> String {
        let mut out = format!(
            "workload {} seed {} trace {} instances {:?}\n",
            self.plan.workload.name(),
            self.plan.seed,
            u8::from(self.plan.trace),
            self.instance_seeds
        );
        for m in self
            .metrics
            .iter()
            .chain(&self.exact)
            .chain(&self.informational)
        {
            out.push_str(&format!(
                "{} {} {} (n={})\n",
                m.name, m.value, m.unit, m.samples
            ));
        }
        for check in &self.checks {
            out.push_str(&format!("CHECK FAILED: {check}\n"));
        }
        out
    }

    /// The one-line summary: `correct`, `attempted`, `failed`, `metrics`.
    pub fn summary_line(&self) -> String {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), metrics_json(&self.metrics)),
        ])
        .render()
    }

    /// Writes the result file `compare` reads, and returns its path.
    pub fn write(&self) -> Result<PathBuf, String> {
        let mode = if self.plan.trace { "trace" } else { "e2e" };
        let path = self.plan.out_dir.join(format!(
            "{}-seed{}-{mode}.json",
            self.plan.workload.name(),
            self.plan.seed
        ));
        let doc = Json::Obj(vec![
            (
                "workload".into(),
                Json::Str(self.plan.workload.name().into()),
            ),
            ("seed".into(), Json::Num(self.plan.seed as f64)),
            ("trace".into(), Json::Bool(self.plan.trace)),
            ("seconds".into(), Json::Num(self.plan.seconds)),
            (
                "instance_seeds".into(),
                Json::Arr(
                    self.instance_seeds
                        .iter()
                        .map(|&s| Json::Str(s.to_string()))
                        .collect(),
                ),
            ),
            (
                "nproc".into(),
                Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
            ),
            ("filesystem".into(), Json::Str(fs_type(&self.plan.out_dir))),
            ("deps".into(), Json::Str(DEPS.into())),
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "checks_failed".into(),
                Json::Arr(self.checks.iter().cloned().map(Json::Str).collect()),
            ),
            ("metrics".into(), metrics_json(&self.metrics)),
            ("exact".into(), metrics_json(&self.exact)),
            ("informational".into(), metrics_json(&self.informational)),
        ]);
        std::fs::write(&path, doc.render_pretty())
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(path)
    }
}
