//! Data model shared by the fold, queries and the gate: run metadata,
//! the per-round join, and the `BENCH_experiments.json` baseline report.

use vdx_obs::Json;

/// What kind of artifact a run row came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunKind {
    /// A flight-recorder JSONL journal (`results/journals/*.jsonl`).
    Journal,
    /// A `BENCH_experiments.json` baseline report.
    Bench,
}

impl RunKind {
    /// Stable string form, used in query output.
    pub fn as_str(self) -> &'static str {
        match self {
            RunKind::Journal => "journal",
            RunKind::Bench => "bench",
        }
    }
}

/// Metadata for one loaded artifact, taken from the journal's
/// `run_header` event (or the bench report's top-level fields).
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// Dense run id within the store, in load order; every fact row
    /// carries it.
    pub run_id: u64,
    /// Artifact kind.
    pub kind: RunKind,
    /// File name the run was loaded from (name only, not the path).
    pub source: String,
    /// FNV-1a 64 hash of the artifact bytes, hex — identical content is
    /// counted once.
    pub hash: String,
    /// Experiment name (`table3`, `determinism`, `bench`, ...).
    pub experiment: String,
    /// Master scenario seed.
    pub seed: u64,
    /// Scenario scale (`full` or `small`).
    pub scale: String,
    /// Journal schema version at write time.
    pub schema: u64,
    /// Worker threads the run was configured with (0 = ambient).
    pub threads: u64,
    /// Git commit the producing binary was built from (`unknown` when
    /// the build happened outside a checkout).
    pub git_commit: String,
    /// Total wall time of the run, milliseconds (0 when unrecorded).
    pub wall_ms: u64,
    /// Journal lines read from this run, a torn final line included.
    pub events: u64,
}

/// One decision round of a journal: `round_started` joined with its
/// `round_completed` event. (`solver_stats` is not joined: the fields it
/// would add are constants in every journal a product run can write.)
#[derive(Debug, Clone, PartialEq)]
pub struct RoundRow {
    /// Run the round belongs to.
    pub run: u64,
    /// Round id within the run.
    pub round: u64,
    /// Design name as journaled.
    pub design: String,
    /// Objective from `round_completed`.
    pub objective: f64,
}

/// A row tagged with the run it came from: the row keeps the shape of
/// its source (a journal `Event`, a [`BenchEntry`], a [`Table3Row`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Tagged<T> {
    /// Run the row belongs to.
    pub run: u64,
    /// The row as its source carries it.
    pub row: T,
}

/// One experiment's wall-time measurement in a bench report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Experiment name (`table3`, `fig17`, `fig18`).
    pub name: String,
    /// Serial wall time, milliseconds.
    pub serial_ms: u64,
    /// Parallel wall time at the report's thread count, milliseconds.
    pub parallel_ms: u64,
    /// `serial_ms / parallel_ms`.
    pub speedup: f64,
}

/// One design's Table-3 metrics row in a bench report.
#[derive(Debug, Clone, PartialEq)]
pub struct Table3Row {
    /// Design name as rendered by `repro table3`.
    pub design: String,
    /// Mean delivery cost (USD/GB-scale units).
    pub cost: f64,
    /// Mean QoE score.
    pub score: f64,
    /// Mean client→cluster distance, miles.
    pub distance_miles: f64,
    /// Mean cluster load, percent of capacity.
    pub load_pct: f64,
    /// Congested cluster-rounds, percent.
    pub congested_pct: f64,
}

/// Schema version of `BENCH_experiments.json` itself (v2 added
/// `git_commit` and the `table3` fidelity rows).
pub const BASELINE_SCHEMA: u64 = 2;

/// The committed `BENCH_experiments.json` baseline: provenance, wall
/// times and Table-3 fidelity rows for one fixed seed/scale run.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineReport {
    /// Report schema version ([`BASELINE_SCHEMA`] at write time).
    pub schema: u64,
    /// Scenario scale the baseline was generated at.
    pub scale: String,
    /// Master scenario seed.
    pub seed: u64,
    /// Worker threads (0 = ambient parallelism).
    pub threads: u64,
    /// Git commit the baseline was generated from.
    pub git_commit: String,
    /// Wall-time entries; may be empty when the baseline records
    /// fidelity only (wall comparison is then skipped).
    pub entries: Vec<BenchEntry>,
    /// Table-3 metrics per design.
    pub table3: Vec<Table3Row>,
}

impl BaselineReport {
    /// Parses a `BENCH_experiments.json` document. Accepts both the v1
    /// shape (no `git_commit`, no `table3`) and v2.
    pub fn from_json(v: &Json) -> Option<BaselineReport> {
        let entries = match v.get("entries") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|e| {
                    Some(BenchEntry {
                        name: e.get("name")?.as_str()?.to_string(),
                        serial_ms: e.get("serial_ms")?.as_u64()?,
                        parallel_ms: e.get("parallel_ms")?.as_u64()?,
                        speedup: e.get("speedup")?.as_f64()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
            _ => Vec::new(),
        };
        let table3 = match v.get("table3") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|r| {
                    Some(Table3Row {
                        design: r.get("design")?.as_str()?.to_string(),
                        cost: r.get("cost")?.as_f64()?,
                        score: r.get("score")?.as_f64()?,
                        distance_miles: r.get("distance_miles")?.as_f64()?,
                        load_pct: r.get("load_pct")?.as_f64()?,
                        congested_pct: r.get("congested_pct")?.as_f64()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
            _ => Vec::new(),
        };
        Some(BaselineReport {
            schema: v.u64_or("schema", 1),
            scale: v.str_or("scale", "full"),
            seed: v.u64_or("seed", 2017),
            threads: v.u64_or("threads", 0),
            git_commit: v.str_or("git_commit", "unknown"),
            entries,
            table3,
        })
    }

    /// Serializes to the pretty-printed v2 document written to
    /// `BENCH_experiments.json`.
    pub fn to_json_pretty(&self) -> String {
        let entries = self
            .entries
            .iter()
            .map(|e| {
                Json::Obj(vec![
                    ("name".into(), Json::Str(e.name.clone())),
                    ("serial_ms".into(), Json::Num(e.serial_ms as f64)),
                    ("parallel_ms".into(), Json::Num(e.parallel_ms as f64)),
                    ("speedup".into(), Json::Num(e.speedup)),
                ])
            })
            .collect();
        let table3 = self
            .table3
            .iter()
            .map(|r| {
                Json::Obj(vec![
                    ("design".into(), Json::Str(r.design.clone())),
                    ("cost".into(), Json::Num(r.cost)),
                    ("score".into(), Json::Num(r.score)),
                    ("distance_miles".into(), Json::Num(r.distance_miles)),
                    ("load_pct".into(), Json::Num(r.load_pct)),
                    ("congested_pct".into(), Json::Num(r.congested_pct)),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("schema".into(), Json::Num(BASELINE_SCHEMA as f64)),
            ("scale".into(), Json::Str(self.scale.clone())),
            ("seed".into(), Json::Num(self.seed as f64)),
            ("threads".into(), Json::Num(self.threads as f64)),
            ("git_commit".into(), Json::Str(self.git_commit.clone())),
            ("entries".into(), Json::Arr(entries)),
            ("table3".into(), Json::Arr(table3)),
        ])
        .render_pretty()
    }

    /// Reads and parses a baseline file.
    pub fn read(path: &std::path::Path) -> Result<BaselineReport, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        BaselineReport::from_json(&json)
            .ok_or_else(|| format!("{}: not a bench report", path.display()))
    }
}

/// FNV-1a 64-bit hash of a byte string, rendered as 16 hex digits —
/// the store's content-identity key.
pub fn content_hash(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baseline_v1_without_new_fields_still_parses() {
        let text = r#"{
            "schema": 1, "scale": "small", "seed": 7, "threads": 2,
            "entries": [
                {"name": "table3", "serial_ms": 100, "parallel_ms": 40, "speedup": 2.5}
            ]
        }"#;
        let report = BaselineReport::from_json(&Json::parse(text).expect("parses")).expect("valid");
        assert_eq!(report.git_commit, "unknown");
        assert!(report.table3.is_empty());
        assert_eq!(report.entries.len(), 1);
        assert_eq!(report.entries[0].speedup, 2.5);
    }

    #[test]
    fn baseline_v2_round_trips() {
        let report = BaselineReport {
            schema: BASELINE_SCHEMA,
            scale: "full".into(),
            seed: 2017,
            threads: 0,
            git_commit: "deadbeef0123".into(),
            entries: vec![BenchEntry {
                name: "table3".into(),
                serial_ms: 9000,
                parallel_ms: 3000,
                speedup: 3.0,
            }],
            table3: vec![Table3Row {
                design: "Brokered".into(),
                cost: 0.2927,
                score: 17.88,
                distance_miles: 248.0,
                load_pct: 7.0,
                congested_pct: 0.0,
            }],
        };
        let text = report.to_json_pretty();
        let back = BaselineReport::from_json(&Json::parse(&text).expect("parses")).expect("valid");
        assert_eq!(back, report);
    }

    #[test]
    fn content_hash_is_stable_and_distinguishes() {
        assert_eq!(content_hash(b""), "cbf29ce484222325");
        assert_eq!(content_hash(b"a"), content_hash(b"a"));
        assert_ne!(content_hash(b"a"), content_hash(b"b"));
    }
}
