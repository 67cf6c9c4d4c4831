//! `vdx-audit`: cross-run journal analytics with a regression gate.
//!
//! The flight recorder (`vdx-obs`) makes single runs observable; this
//! crate makes *trajectories* observable. The journals are the store:
//! [`Store::load`] reads flight-recorder journals
//! (`results/journals/*.jsonl`) through `vdx_obs::parse_journal`, the
//! tree's one reader and decoder, and keeps their events as they
//! arrived plus the one per-round join a query needs;
//! `BENCH_experiments.json` reports fold into bench and Table-3 rows.
//! The [`query`] layer answers cross-run questions over them, matching
//! on `vdx_obs::Event` variants (cost/QoE drift between commits,
//! solver-effort drift, wire-loss hot spots, per-design fault
//! sensitivity, crash recovery), and the [`gate`] gates merges: `repro
//! audit --baseline` fails when the current build's Table-3 metrics or
//! wall times regress past the thresholds in [`gate::GateConfig`].
//! Nothing derived is ever written to disk.
//!
//! JSON is read and written through the workspace's one stack,
//! `vdx_obs::json` ([`Json`] is re-exported here for consumers that
//! already name it). See DESIGN.md §11 for what is folded from what and
//! the threshold policy.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod gate;
pub mod model;
pub mod query;
pub mod render;
pub mod report;
pub mod store;

#[cfg(test)]
mod testutil;

pub use gate::{GateCheck, GateConfig, GateOutcome};
pub use model::{BaselineReport, BenchEntry, RunKind, RunMeta, Table3Row, BASELINE_SCHEMA};
pub use query::{QueryKind, QueryResult, ALL_QUERIES};
pub use report::report;
pub use store::{Facts, Store};
pub use vdx_obs::Json;
