//! # vdx-netsim — network performance substrate for VDX
//!
//! The paper's CDN measures a *score* between blocks of client IP addresses
//! and candidate clusters — "a simple function of latency and packet loss"
//! (§3.1) — and fills in missing client–cluster pairs "by computing a linear
//! regression of scores with respect to client-cluster distance" (§5.1).
//!
//! This crate rebuilds that measurement plane synthetically:
//!
//! * [`latency`] — great-circle propagation delay with route inflation,
//!   per-endpoint access penalties, and deterministic pairwise jitter;
//! * [`loss`] — distance- and quality-coupled packet-loss fractions;
//! * [`score`] — the latency+loss scalar score (lower is better), plus the
//!   *alternative-cluster* notion used by Table 1 of the paper (clusters
//!   whose score is within 25 % of the best);
//! * [`estimate`] — noisy measurement sampling and the EWMA estimator
//!   operators actually optimize with (neither side sees ground truth);
//! * [`regress`] — ordinary least-squares linear regression and the
//!   score-vs-distance extrapolator the paper uses for missing pairs;
//! * [`path`] — the [`path::NetModel`] façade that downstream crates use to
//!   ask "what is the path quality from city A to city B?";
//! * [`matrix`] — the [`matrix::ScoreMatrix`] dense city×site table:
//!   precompute every score once, answer in O(1) thereafter.
//!
//! Determinism: every quantity is a pure function of `(seed, endpoints)`;
//! there is no global RNG state, so queries can be made in any order and
//! from any thread with identical results.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod estimate;
pub mod latency;
pub mod loss;
pub mod matrix;
pub mod path;
pub mod regress;
pub mod score;

pub use estimate::{NoisyMeasurer, ScoreEstimator};
pub use matrix::ScoreMatrix;
pub use path::{NetModel, NetModelConfig, PathQuality};
pub use regress::{LinearFit, ScoreExtrapolator};
pub use score::{alternatives_within, Score, SIMILARITY_MARGIN};
