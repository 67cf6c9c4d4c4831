//! # vdx-exchanged — the exchange as a long-running daemon
//!
//! Everything else in this workspace drives Decision Protocol rounds
//! in-process: the round is a function call, failures are injected, and
//! the whole run is deterministic down to the journal bytes. This crate
//! is the *second driver* of the one round spine, [`vdx_core::Round`]
//! (ARCHITECTURE.md, "two drivers, one core"): a persistent broker
//! process that speaks the `vdx-proto` Decision Protocol over real TCP
//! sockets to separately-running CDN agents.
//!
//! * [`server`] — the daemon: one listener, one reader thread per
//!   connected agent with a bounded inbound queue, and the spine's TCP
//!   hooks — Share out, Announces in until a wall-clock deadline, then
//!   WAL-and-Accept once the spine has decided. What is missing at the
//!   deadline resolves through the spine's degradation ladder, whose
//!   exclusion rung is a per-CDN circuit breaker
//!   ([`vdx_broker::CircuitBreaker`]): repeated silence opens the
//!   breaker, an open breaker is not routed to at all, and a half-open
//!   probe readmits the CDN.
//! * [`agent`] — the CDN side: connect, identify via `Hello`, answer
//!   each Share with a fresh [`vdx_core::BidEngine`] Announce, and
//!   learn outcomes from Accepts. A dropped connection is retried with
//!   bounded exponential backoff, and reconnects resume the session
//!   (`HelloResume`) so settled rounds are never bid on twice.
//!
//! With a `--wal` path the daemon is **crash-safe**: round boundaries
//! go to a durable write-ahead log ([`vdx_core::wal`]), a round's
//! Accepts are sent only after its settlement record is fsynced, and a
//! restarted daemon replays the log to resume exactly where the
//! uninterrupted run would be — the property `repro chaos` (`vdx-sim`)
//! asserts by SIGKILLing and restarting the daemon at seeded round
//! phases. DESIGN.md §15 states the contract; OPERATIONS.md §8 is the
//! recovery runbook.
//!
//! The binaries `vdx-exchanged` and `vdx-agent` wrap these over a
//! scenario built from a shared seed; OPERATIONS.md is the operator
//! manual. The crate's soak test replays a `vdx-sim` [`SoakPlan`]
//! (`vdx_sim::soak`) against both this daemon and the scripted
//! reference driver and asserts the per-round decisions and journals are
//! equal — a test of this crate's transport, since the round is shared.
//!
//! [`SoakPlan`]: vdx_sim::soak::SoakPlan

#![deny(clippy::indexing_slicing)]
#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod agent;
pub mod server;

pub use agent::{run_agent, run_agent_probed, AgentConfig, AgentReport};
pub use server::{ExchangeServer, ServerOptions, QUEUE_CAP};
