//! # vdx-sim — the evaluation harness
//!
//! Reproduces every table and figure of the paper's evaluation (§3, §5,
//! §7) over the synthetic ecosystem. The per-experiment index lives in
//! DESIGN.md; the measured-vs-paper record in EXPERIMENTS.md.
//!
//! * [`scenario`] — builds one coherent ecosystem (world, network model,
//!   broker trace, CDN fleet with capacities and contracts, background
//!   traffic) per §5.1 and runs Decision Protocol rounds over it.
//! * [`metrics`] — the Table 3 metric suite: median Cost / Score /
//!   Distance over clients, median cluster Load, and the Congested client
//!   percentage.
//! * [`experiment`] — one module per table/figure: `fig3`, `fig4`, `fig5`,
//!   `fig7`, `table1`, `table3`, `fig10_15`, `fig16`, `fig17`, `fig18`.
//! * [`engine`] — deterministic fan-out of independent decision rounds
//!   across threads (`Scenario::set_threads`, `repro --threads N`); results
//!   and journals are byte-identical to a serial run.
//! * [`faults`] — fault-injection campaigns (DESIGN.md §9): every round
//!   of a design that consults the exchange, clean or faulted, runs on the
//!   daemon's round spine over lossy `vdx-proto` links with a deadline,
//!   stale-bid reuse, and Brokered fallback.
//! * [`replay`] — time-stepped trace replay: periodic Decision Protocol
//!   rounds over the live session population (the dynamics §5.1 elides).
//! * [`soak`] — the daemon soak harness: a transport-free reference
//!   driver that replays a `SoakPlan` through the same shared round
//!   logic as `vdx-exchanged`, for decision-quality parity tests.
//! * [`chaos`] — the kill-restart chaos harness (`repro chaos`):
//!   SIGKILLs and restarts the real daemon at seeded round phases,
//!   tears the WAL tail, and asserts the recovered decision sequence
//!   is byte-identical to the uninterrupted reference.
//! * [`report`] — plain-text table/series rendering shared by the `repro`
//!   binary and the benches.
//! * [`obs_report`] — operator summary of a `vdx-obs` flight-recorder
//!   journal (`repro obs-report <journal>`).
//! * [`cli`] — the flag readers and the journal lifecycle `repro`,
//!   `vdx-exchanged` and `vdx-agent` share.
//!
//! Run everything with:
//!
//! ```text
//! cargo run -p vdx-sim --bin repro --release -- all
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod cli;
pub mod engine;
pub mod experiment;
pub mod faults;
pub mod metrics;
pub mod obs_report;
pub mod replay;
pub mod report;
pub mod scenario;
pub mod soak;

pub use metrics::{DesignMetrics, MetricsInput};
pub use scenario::{Scenario, ScenarioConfig};
