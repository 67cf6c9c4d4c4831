//! # vdx-obs — observability substrate for the VDX workspace
//!
//! The flight recorder every other crate reports through, sitting at the
//! bottom of the stack (it depends on no `vdx-*` crate and on nothing
//! outside `std`). Five modules:
//!
//! * [`json`] — the workspace's one JSON stack: a small value model,
//!   parser and writer ([`Json`]), shared with `vdx-audit`.
//! * [`event`] — the typed [`Event`] schema: one variant per interesting
//!   moment in a run (round lifecycle, auction steps, solver decisions,
//!   wire drops, faults, daemon connections and recovery, replay churn,
//!   phase timing). One event is one JSONL line ([`Event::to_json_line`] /
//!   [`Event::from_json`]). A timed span carries its own raw duration
//!   (`wall_us`) on the event that closes it.
//! * [`journal`] — the JSONL writer ([`Journal`]), one file per run,
//!   conventionally under `results/journals/`, one write per line; plus
//!   the one reader, [`read_journal`] / [`parse_journal`], for `repro
//!   obs-report` and `vdx-audit`.
//! * [`probe`] — the [`Probe`] trait instrumented code talks to, and its
//!   sinks.
//! * [`timing`] — the monotonic [`Stopwatch`] every timed span reads, and
//!   the run header's clock and commit.
//!
//! Instrumented code never names a sink: it talks to the [`Probe`] trait,
//! whose default implementation ([`NoopProbe`]) reports itself disabled
//! so hot paths skip even constructing events. Swapping in a
//! [`Journal`] (the `repro --journal` flag) or a [`MemoryProbe`]
//! (tests, benches) turns the same run into an analyzable artifact with
//! no call-site changes.
//!
//! Determinism contract: every field an event carries is either derived
//! from simulation state (identical across same-seed runs) or explicitly
//! wall-clock (host timing) — and [`Event::zero_wall_clock`] strips the
//! latter, so journals are byte-comparable. `vdx-sim` tests enforce this.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod event;
pub mod journal;
pub mod json;
pub mod probe;
pub mod timing;

pub use event::{Event, SCHEMA_VERSION};
pub use journal::{parse_journal, read_journal, Journal, JournalError};
pub use json::Json;
pub use probe::{noop, MemoryProbe, NoopProbe, Probe};
pub use timing::Stopwatch;
