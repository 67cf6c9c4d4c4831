//! Risk-averse price shading.
//!
//! In the VDX marketplace, a CDN's Matching output becomes bids priced
//! "related to internal cost" (§6.1). §6.3 argues "CDNs can learn
//! risk-averse bidding strategies over time that will likely provide
//! traffic predictability" from the Accept feedback the broker sends —
//! including to CDNs that *lost* the auction.
//!
//! [`BidShading`] is that learning loop in its simplest defensible form: a
//! per-cluster multiplicative margin over cost, nudged down after losses
//! (win more, risk less margin) and up after wins (recover margin), clamped
//! to `[1.0, DEFAULT_MARKUP]`: never below cost, never above the paper's
//! 1.2 markup, which is also where every margin starts. It is deliberately
//! a plain online rule — the paper leaves game-theoretic strategy
//! modelling as future work.

use crate::cluster::ClusterId;
use crate::contract::DEFAULT_MARKUP;
use vdx_units::Margin;

/// A CDN never knowingly bids below cost.
const MIN_MARGIN: Margin = Margin::UNIT;
/// Multiplicative step applied to a margin after a lost bid.
const DOWN_STEP: f64 = 0.97;
/// Multiplicative step applied to a margin after a won bid.
const UP_STEP: f64 = 1.01;

/// Per-cluster learned margins.
#[derive(Debug, Clone)]
pub struct BidShading {
    margins: Vec<Margin>,
}

impl BidShading {
    /// Creates shading state for `num_clusters` clusters, every margin at
    /// [`DEFAULT_MARKUP`].
    pub fn new(num_clusters: usize) -> BidShading {
        BidShading {
            margins: vec![DEFAULT_MARKUP; num_clusters],
        }
    }

    /// Current margin for a cluster.
    pub fn margin(&self, cluster: ClusterId) -> Margin {
        self.margins[cluster.index()]
    }

    /// §6.3's learning step for one bid on `cluster`: a won bid recovers
    /// margin (up to [`DEFAULT_MARKUP`]), a lost one shades it down (never
    /// below cost).
    pub fn on_outcome(&mut self, cluster: ClusterId, accepted: bool) {
        let m = &mut self.margins[cluster.index()];
        *m = if accepted {
            m.scale(UP_STEP).min(DEFAULT_MARKUP)
        } else {
            m.scale(DOWN_STEP).max(MIN_MARGIN)
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_max_margin() {
        let s = BidShading::new(3);
        assert_eq!(s.margin(ClusterId(2)), Margin::new(1.2));
    }

    #[test]
    fn losses_shade_down_to_floor() {
        let mut s = BidShading::new(1);
        for _ in 0..500 {
            s.on_outcome(ClusterId(0), false);
        }
        assert_eq!(s.margin(ClusterId(0)), MIN_MARGIN, "floor at cost");
    }

    #[test]
    fn wins_recover_margin_up_to_cap() {
        let mut s = BidShading::new(1);
        for _ in 0..50 {
            s.on_outcome(ClusterId(0), false);
        }
        let low = s.margin(ClusterId(0));
        for _ in 0..500 {
            s.on_outcome(ClusterId(0), true);
        }
        assert!(s.margin(ClusterId(0)) > low);
        assert_eq!(s.margin(ClusterId(0)), DEFAULT_MARKUP);
    }

    #[test]
    fn margins_are_per_cluster() {
        let mut s = BidShading::new(2);
        s.on_outcome(ClusterId(0), false);
        assert!(s.margin(ClusterId(0)) < s.margin(ClusterId(1)));
    }
}
