//! # vdx-core — the CDN–broker decision interface and the VDX marketplace
//!
//! This crate is the paper's primary contribution, built on the substrate
//! crates (`vdx-geo`, `vdx-netsim`, `vdx-trace`, `vdx-solver`, `vdx-cdn`,
//! `vdx-broker`, `vdx-proto`):
//!
//! * [`design`] — the design space of §4 / Table 2: **Brokered** (today),
//!   **Multicluster**, **DynamicPricing**, **DynamicMulticluster**,
//!   **BestLookup**, **Marketplace** (VDX), **Transactions**, plus the
//!   **Omniscient** upper bound of §5 — each described by what it Shares,
//!   how it Matches, and what it Announces.
//! * [`decision`] — the seven-step Decision Protocol of §4.1 (Estimate,
//!   Gather, Share, Matching, Announce, Optimize, Accept) as a pure
//!   function from an ecosystem snapshot to a client→cluster assignment;
//!   this is the engine every experiment runs.
//! * [`accounting`] — who pays whom: revenue under flat-rate contracts vs.
//!   per-cluster marketplace prices, internal cost, profit, and the
//!   price-to-cost ratios of Figs 10–15.
//! * [`exchange`] — VDX as an actual protocol: the one round spine
//!   ([`Round`]) every transport of Share/Announce/Accept rounds runs, its
//!   building blocks, and the bid-shading CDN side ([`BidEngine`]) that
//!   learns from Accept feedback across rounds.
//! * [`wal`] — the durable write-ahead log of round boundaries that makes
//!   the exchange daemon crash-safe: CRC-framed records, fsync commit
//!   points, torn-tail truncation, and the replay that reconstructs the
//!   cache/health/round state a restarted daemon resumes from
//!   (DESIGN.md §15).

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub use vdx_units as units;

pub mod accounting;
pub mod decision;
pub mod design;
pub mod exchange;
pub mod wal;

pub use accounting::{settle, CdnLedger, Settlement};
pub use decision::{
    assign_background, run_decision_round, run_decision_round_probed,
    run_decision_round_probed_ctx, RoundId, RoundInputs, RoundOutcome,
};
pub use design::Design;
pub use exchange::{
    accept_entries, assemble_options, picks_of, resolve_at_deadline, shares_of, BidEngine,
    BidSource, DeadlineResolution, Decision, DegradationReport, DriverRound, ExchangeDriver, Round,
    RoundHooks, RoundResolution,
};
pub use wal::{Recovery, Wal, WalError, WalOpen, WalRecord};
