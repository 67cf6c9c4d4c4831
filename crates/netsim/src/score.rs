//! Performance scores and the "alternative cluster" notion.
//!
//! The paper's CDN ranks candidate clusters by a scalar score that is "a
//! simple function of latency and packet loss" (§3.1); *lower is better*
//! everywhere (Table 3). We use
//!
//! ```text
//! score = rtt_ms * (1 + LOSS_WEIGHT * loss_fraction)
//! ```
//!
//! which penalises loss multiplicatively — a lossy short path can score like
//! a clean long one, mirroring how TCP throughput degrades.
//!
//! Table 1 of the paper counts how often *alternative* clusters exist whose
//! score is within 25 % of the best; [`alternatives_within`] implements that
//! count and [`SIMILARITY_MARGIN`] pins the 25 % constant.

/// Weight of the loss fraction in the score (dimensionless). With loss
/// fractions up to 0.2, loss can at most double an RTT-based score.
pub const LOSS_WEIGHT: f64 = 5.0;

/// The paper's Table-1 margin: clusters scoring within 25 % of the best are
/// "alternatives with similar performance".
pub const SIMILARITY_MARGIN: f64 = 0.25;

/// A performance score; lower is better. Wrapper to keep units straight and
/// provide total ordering (the model's scores are finite by construction).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd)]
pub struct Score(pub f64);

impl Score {
    /// Combines latency and loss into a score.
    pub fn from_latency_loss(rtt_ms: f64, loss_fraction: f64) -> Score {
        debug_assert!(rtt_ms.is_finite() && rtt_ms >= 0.0);
        debug_assert!((0.0..=1.0).contains(&loss_fraction));
        Score(rtt_ms * (1.0 + LOSS_WEIGHT * loss_fraction))
    }

    /// Raw value.
    pub fn value(&self) -> f64 {
        self.0
    }

    /// Whether `self` is within `margin` (fractional) of `best`, i.e.
    /// `self <= best * (1 + margin)`.
    pub fn within_of(&self, best: Score, margin: f64) -> bool {
        self.0 <= best.0 * (1.0 + margin)
    }

    /// Total ordering (IEEE `total_cmp`, as the unit types'): the model's
    /// scores are finite and non-negative and order as numbers; a NaN — a
    /// peer can announce one — sorts to an end, by its sign bit, instead
    /// of panicking.
    pub fn total_cmp(&self, other: &Score) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Counts how many *alternative* choices (excluding the best itself) score
/// within `margin` of the best score in `scores`. Returns 0 for empty input.
///
/// This is the per-client statistic behind the paper's Table 1.
pub fn alternatives_within(scores: &[Score], margin: f64) -> usize {
    let Some(best) = scores.iter().min_by(|a, b| a.total_cmp(b)) else {
        return 0;
    };
    scores
        .iter()
        .filter(|s| s.within_of(*best, margin))
        .count()
        .saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_increases_score() {
        let clean = Score::from_latency_loss(50.0, 0.0);
        let lossy = Score::from_latency_loss(50.0, 0.05);
        assert!(lossy.value() > clean.value());
        assert_eq!(clean.value(), 50.0);
    }

    #[test]
    fn lossy_short_path_can_match_clean_long_path() {
        let lossy_short = Score::from_latency_loss(50.0, 0.2);
        let clean_long = Score::from_latency_loss(100.0, 0.0);
        assert!((lossy_short.value() - clean_long.value()).abs() < 1.0);
    }

    #[test]
    fn within_margin_boundary() {
        let best = Score(100.0);
        assert!(Score(125.0).within_of(best, 0.25));
        assert!(!Score(125.1).within_of(best, 0.25));
    }

    #[test]
    fn alternatives_counting() {
        let scores = vec![Score(100.0), Score(110.0), Score(124.0), Score(126.0)];
        assert_eq!(alternatives_within(&scores, SIMILARITY_MARGIN), 2);
    }

    #[test]
    fn alternatives_empty_and_single() {
        assert_eq!(alternatives_within(&[], 0.25), 0);
        assert_eq!(alternatives_within(&[Score(5.0)], 0.25), 0);
    }

    #[test]
    fn alternatives_all_equal() {
        let scores = vec![Score(10.0); 5];
        assert_eq!(alternatives_within(&scores, 0.25), 4);
    }
}
