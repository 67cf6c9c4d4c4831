//! The warm/cold round counters of a solve memo.
//!
//! [`SolveStats`] is a plain std-only struct (rather than an event sink),
//! which keeps this crate's "depends on nothing but `std`" property:
//! `vdx-broker`'s `OptimizeContext` counts its memo's warm and cold rounds
//! in it and hands it to whoever asks.

/// Round counters accumulated by one warm-start context.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolveStats {
    /// Rounds answered from the caller's memo of the previous round
    /// (unchanged input; no solver work at all). Counted by
    /// `vdx-broker`'s `OptimizeContext`, never by this crate.
    pub warm_hits: u64,
    /// Rounds that ran the full solve pipeline (first round, changed
    /// input, or reuse disabled). Counted by the same memo.
    pub cold_solves: u64,
}

impl SolveStats {
    /// A zeroed accumulator.
    pub fn new() -> SolveStats {
        SolveStats::default()
    }
}
