//! Solver effort counters.
//!
//! [`SolveStats`] is a plain accumulator the `*_with_stats` entry points
//! ([`crate::simplex::solve_lp_with_stats`],
//! [`crate::milp::solve_milp_with_stats`],
//! [`crate::gap::AssignmentProblem::solve_exact_with_stats`]) fill in as
//! they work: simplex pivots, branch-and-bound nodes, and the best proven
//! bound on the objective. Callers that do not care use the plain entry
//! points, which cost nothing extra. Keeping the stats as a std-only
//! struct (rather than an event sink) preserves this crate's
//! "depends on nothing but `std`" property; `vdx-broker` converts a
//! filled-in [`SolveStats`] into a journal event, and counts its memo's
//! warm and cold rounds in the same struct.

/// Work counters accumulated across one or more solves.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SolveStats {
    /// Simplex pivot operations performed (across every LP (re)solve).
    pub pivots: u64,
    /// Branch-and-bound nodes expanded (LP relaxations solved).
    pub bnb_nodes: u64,
    /// Best proven bound on the objective, in the problem's own sense
    /// (an upper bound when maximizing). `None` until a root relaxation
    /// has been solved — in particular, always `None` on pure-heuristic
    /// paths.
    pub best_bound: Option<f64>,
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

    /// Folds another accumulator into this one. Bounds are combined
    /// conservatively: with no way to know the objective sense here, the
    /// caller's bound wins only when this accumulator has none (merging is
    /// meant for summing *effort* across independent subproblems).
    pub fn merge(&mut self, other: &SolveStats) {
        self.pivots += other.pivots;
        self.bnb_nodes += other.bnb_nodes;
        if self.best_bound.is_none() {
            self.best_bound = other.best_bound;
        }
        self.warm_hits += other.warm_hits;
        self.cold_solves += other.cold_solves;
    }

    /// Relative optimality gap of an incumbent objective against
    /// [`SolveStats::best_bound`]: `|bound − incumbent| / max(|incumbent|, ε)`.
    /// `None` when no bound was established. A proven-optimal solve
    /// reports a gap of (numerically) zero.
    pub fn optimality_gap(&self, incumbent: f64) -> Option<f64> {
        self.best_bound.map(|bound| {
            let denom = incumbent.abs().max(1e-9);
            (bound - incumbent).abs() / denom
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_effort_and_keeps_first_bound() {
        let mut a = SolveStats {
            pivots: 3,
            bnb_nodes: 1,
            best_bound: None,
            warm_hits: 1,
            ..SolveStats::new()
        };
        let b = SolveStats {
            pivots: 4,
            bnb_nodes: 2,
            best_bound: Some(10.0),
            cold_solves: 2,
            ..SolveStats::new()
        };
        a.merge(&b);
        assert_eq!(a.pivots, 7);
        assert_eq!(a.bnb_nodes, 3);
        assert_eq!(a.best_bound, Some(10.0));
        assert_eq!(a.warm_hits, 1);
        assert_eq!(a.cold_solves, 2);
        let c = SolveStats {
            best_bound: Some(99.0),
            ..SolveStats::new()
        };
        a.merge(&c);
        assert_eq!(a.best_bound, Some(10.0), "existing bound is kept");
    }

    #[test]
    fn gap_is_relative_and_optional() {
        let none = SolveStats::new();
        assert_eq!(none.optimality_gap(5.0), None);
        let proven = SolveStats {
            best_bound: Some(8.0),
            ..SolveStats::new()
        };
        let gap = proven.optimality_gap(8.0).expect("bound set");
        assert!(gap < 1e-12);
        let loose = SolveStats {
            best_bound: Some(10.0),
            ..SolveStats::new()
        };
        let gap = loose.optimality_gap(8.0).expect("bound set");
        assert!((gap - 0.25).abs() < 1e-12);
    }
}
