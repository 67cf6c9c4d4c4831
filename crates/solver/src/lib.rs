//! # vdx-solver — optimization substrate for VDX
//!
//! The paper's broker solves the ILP of its Fig 9 with Gurobi: assign every
//! client to exactly one of its candidate matchings, maximizing
//! `wp·performance − wc·cost·bitrate` subject to per-cluster capacity. That
//! is a **generalized assignment problem** (GAP). Gurobi is proprietary, so
//! this crate provides the full solving stack from scratch:
//!
//! * [`simplex`] — a dense two-phase primal simplex for linear programs
//!   (Bland's rule, so it terminates on degenerate problems);
//! * [`milp`] — branch-and-bound over the simplex relaxation for mixed
//!   integer programs; exact on the scales used in tests and small scenarios;
//! * [`gap`] — the broker's assignment problem as a first-class type, with
//!   a regret-greedy constructor, a move/swap local search, an exact
//!   MILP path for validation, and [`ProblemDelta`], the pure
//!   round-to-round difference the broker journals;
//! * [`flow`] — successive-shortest-path min-cost flow, an independent
//!   exact method for the *uniform-load* special case. Test-only by
//!   design: it is the exact path's cross-check, kept because a mutation
//!   trial found a defect of [`gap`]'s exact model that only the
//!   flow-vs-MILP tests catch (CHANGES.md, ISSUE 22);
//! * [`model`] — the shared LP/constraint builder types;
//! * [`stats`] — plain effort counters ([`SolveStats`]: simplex pivots,
//!   branch-and-bound nodes, best bound) filled in by the `*_with_stats`
//!   entry points, plus the warm/cold round counters `vdx-broker`'s memo
//!   keeps, so callers can report solver work without this crate knowing
//!   anything about event sinks.
//!
//! The heuristic pipeline (greedy + local search) is what every shipped
//! path runs — mirroring how a production broker would trade optimality
//! for latency. The exact stack ([`simplex`], [`milp`], [`model`],
//! [`AssignmentProblem::solve_exact`]) is its oracle: reachable through
//! `vdx-broker`'s `OptimizeMode::Exact`, which only tests pass, and
//! checked itself against brute force.
//!
//! This crate depends on nothing but `std` (tests draw inputs from `vdx-rand`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flow;
pub mod gap;
pub mod milp;
pub mod model;
pub mod simplex;
pub mod stats;

pub use gap::{Assignment, AssignmentProblem, CandidateOption, ProblemDelta};
pub use milp::{solve_milp, solve_milp_with_stats, MilpConfig, MilpOutcome};
pub use model::{Constraint, LinearProgram, Relation};
pub use simplex::{solve_lp, solve_lp_with_stats, LpOutcome, LpSolution};
pub use stats::SolveStats;
