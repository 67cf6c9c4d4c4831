//! Bid construction and risk-averse price shading.
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
//! to `[min_margin, max_margin]`. It is deliberately a plain online rule —
//! the paper leaves game-theoretic strategy modelling as future work.

use crate::cluster::ClusterId;
use vdx_units::{Margin, UsdPerGb};

/// Bidding policy parameters.
#[derive(Debug, Clone)]
pub struct BidPolicy {
    /// Initial and maximum price margin over cost (paper uses 1.2 markup).
    pub max_margin: Margin,
    /// Never bid below `min_margin × cost` (a CDN won't knowingly sell at a
    /// loss; 1.0 = at cost).
    pub min_margin: Margin,
    /// Multiplicative step applied to the margin after a lost bid.
    pub down_step: f64,
    /// Multiplicative step applied after a won bid.
    pub up_step: f64,
}

impl Default for BidPolicy {
    fn default() -> Self {
        BidPolicy {
            max_margin: Margin::new(1.2),
            min_margin: Margin::UNIT,
            down_step: 0.97,
            up_step: 1.01,
        }
    }
}

/// Per-cluster learned margins.
#[derive(Debug, Clone)]
pub struct BidShading {
    policy: BidPolicy,
    margins: Vec<Margin>,
}

impl BidShading {
    /// Creates shading state for `num_clusters` clusters, all margins at
    /// the policy maximum.
    pub fn new(policy: BidPolicy, num_clusters: usize) -> BidShading {
        let start = policy.max_margin;
        BidShading {
            policy,
            margins: vec![start; num_clusters],
        }
    }

    /// The price this CDN bids for a cluster with internal cost
    /// `cost_per_mb`.
    pub fn price(&self, cluster: ClusterId, cost_per_mb: UsdPerGb) -> UsdPerGb {
        cost_per_mb * self.margins[cluster.index()]
    }

    /// Current margin for a cluster.
    pub fn margin(&self, cluster: ClusterId) -> Margin {
        self.margins[cluster.index()]
    }

    /// Records that a bid on `cluster` was accepted.
    pub fn on_accept(&mut self, cluster: ClusterId) {
        let m = &mut self.margins[cluster.index()];
        *m = m.scale(self.policy.up_step).min(self.policy.max_margin);
    }

    /// Records that a bid on `cluster` lost the auction.
    pub fn on_reject(&mut self, cluster: ClusterId) {
        let m = &mut self.margins[cluster.index()];
        *m = m.scale(self.policy.down_step).max(self.policy.min_margin);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_max_margin() {
        let s = BidShading::new(BidPolicy::default(), 3);
        assert_eq!(
            s.price(ClusterId(0), UsdPerGb::per_megabit(10.0)),
            UsdPerGb::per_megabit(10.0 * 1.2)
        );
    }

    #[test]
    fn losses_shade_down_to_floor() {
        let mut s = BidShading::new(BidPolicy::default(), 1);
        for _ in 0..500 {
            s.on_reject(ClusterId(0));
        }
        assert!(
            (s.margin(ClusterId(0)).as_f64() - 1.0).abs() < 1e-9,
            "floor at min_margin"
        );
        assert_eq!(
            s.price(ClusterId(0), UsdPerGb::per_megabit(7.0)),
            UsdPerGb::per_megabit(7.0)
        );
    }

    #[test]
    fn wins_recover_margin_up_to_cap() {
        let mut s = BidShading::new(BidPolicy::default(), 1);
        for _ in 0..50 {
            s.on_reject(ClusterId(0));
        }
        let low = s.margin(ClusterId(0));
        for _ in 0..500 {
            s.on_accept(ClusterId(0));
        }
        assert!(s.margin(ClusterId(0)) > low);
        assert!(s.margin(ClusterId(0)).as_f64() <= 1.2 + 1e-12);
    }

    #[test]
    fn margins_are_per_cluster() {
        let mut s = BidShading::new(BidPolicy::default(), 2);
        s.on_reject(ClusterId(0));
        assert!(s.margin(ClusterId(0)) < s.margin(ClusterId(1)));
    }
}
