//! # vdx-broker — the broker actor model for VDX
//!
//! Brokers (Conviva/Cedexis-style, §2.2 of the paper) measure QoE inside
//! client players, aggregate clients, and decide which CDN (cluster) every
//! client uses — re-deciding periodically and even mid-stream. This crate
//! models that actor:
//!
//! * [`gather`] — the Decision Protocol's *Gather* step: aggregate client
//!   sessions into client groups (by city), the unit the broker shares with
//!   CDNs and optimizes over; includes the 3× background-traffic synthesis
//!   of §5.1.
//! * [`policy`] — content-provider goals: the `wp` / `wc` weights of the
//!   paper's Fig 9 objective, with the value function used to score a
//!   candidate matching.
//! * [`optimize`](mod@optimize) — the *Optimize* step: the Fig 9 ILP, built on
//!   `vdx-solver` (regret-greedy + local search — the trade a production
//!   broker makes at CDN scale), and [`bound_assignment`], which scores a
//!   decision against a dual bound on the optimum (`repro gap`).
//! * [`stale`] — the stale-bid cache behind the failure model's
//!   graceful-degradation ladder (DESIGN.md §9): bounded reuse of a CDN's
//!   last-seen bids when its Announce misses the round deadline.
//! * [`health`] — per-CDN circuit breakers (`Closed`/`Open`/`HalfOpen`)
//!   that recast the ladder's exclusion rung as an explicit health state
//!   machine for long-running drivers (`vdx-exchanged`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gather;
pub mod health;
pub mod optimize;
pub mod policy;
pub mod stale;

pub use gather::{gather_groups, synth_background, ClientGroup, GroupId};
pub use health::{BreakerConfig, BreakerSnapshot, CircuitBreaker, HealthState, HealthTransition};
pub use optimize::{
    bound_assignment, optimize, optimize_probed, optimize_probed_ctx, BoundReport,
    BrokerAssignment, BrokerProblem, GroupOption, OptimizeContext, OptimizeMode, OptionLists,
    OptionListsIter, SolveStats,
};
pub use policy::CpPolicy;
pub use stale::{StaleBidCache, STALE_TTL_ROUNDS};
