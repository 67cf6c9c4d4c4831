//! # vdx-solver — optimization substrate for VDX
//!
//! The paper's broker solves the ILP of its Fig 9 with Gurobi: assign every
//! client to exactly one of its candidate matchings, maximizing
//! `wp·performance − wc·cost·bitrate` subject to per-cluster capacity. That
//! is a **generalized assignment problem** (GAP). Gurobi is proprietary, and
//! at the paper's scale (2,718 groups, up to 954,018 options) a dense
//! simplex under branch-and-bound does not return; this crate solves the
//! GAP heuristically and *bounds* what the heuristic leaves behind:
//!
//! * [`gap`] — the broker's assignment problem as a first-class type, with
//!   a regret-greedy constructor, a single-client-move local search (the
//!   pipeline every shipped path runs — how a production broker trades
//!   optimality for latency), [`AssignmentProblem::dual_bound`], the
//!   Lagrangian upper bound on the optimum that `repro gap` scores the
//!   heuristic against on all eight designs at full scale, and
//!   [`ProblemDelta`], the pure round-to-round difference the broker
//!   journals. The bound's own oracle is brute-force enumeration on
//!   generated problems of at most eight clients, in that module's tests;
//! * [`stats`] — [`SolveStats`], the warm/cold round counters
//!   `vdx-broker`'s memo keeps.
//!
//! This crate depends on nothing but `std` (tests draw inputs from `vdx-rand`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gap;
pub mod stats;

pub use gap::{Assignment, AssignmentProblem, CandidateOption, ProblemDelta};
pub use stats::SolveStats;
