//! Content-provider policy: the `wp` / `wc` weights of the paper's Fig 9.
//!
//! The broker maximizes
//! `wp · Σ Performance(m)·U  −  wc · Σ Cost(m)·Bitrate(r)·U`.
//!
//! Our performance scores are *lower-is-better* (latency × loss penalty),
//! so `Performance(m) = −score`. Cost enters per megabit times the group's
//! demand. Sweeping `wc` (with `wp` fixed) is exactly the paper's Fig 17
//! trade-off knob.

use vdx_netsim::Score;
use vdx_units::{Kbps, UsdPerGb};

/// A content provider's optimization goals.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpPolicy {
    /// Weight on performance (Fig 9's `wp`).
    pub wp: f64,
    /// Weight on cost (Fig 9's `wc`).
    pub wc: f64,
}

impl CpPolicy {
    /// A balanced default: with scores in the ~30–500 range and per-group
    /// cost terms (price ≈ 0.1–4 per megabit × demand in Mbit/s) this makes
    /// both terms bite.
    pub fn balanced() -> CpPolicy {
        CpPolicy { wp: 1.0, wc: 30.0 }
    }

    /// Performance-first (cost nearly ignored).
    pub fn performance_first() -> CpPolicy {
        CpPolicy { wp: 1.0, wc: 0.1 }
    }

    /// Cost-first (performance nearly ignored).
    pub fn cost_first() -> CpPolicy {
        CpPolicy { wp: 0.02, wc: 30.0 }
    }

    /// The Fig 9 value of serving a client group of `sessions` clients and
    /// `demand_kbps` aggregate demand from a candidate with the given score
    /// and price. Higher is better.
    ///
    /// Fig 9 is written per client `r`: every client contributes one
    /// `wp·Performance` term and one `wc·Cost·Bitrate(r)` term. A group of
    /// `n` sessions therefore weighs performance `n×`, and cost by the
    /// group's total bitrate.
    pub fn value(&self, score: Score, price_per_mb: UsdPerGb, demand: Kbps, sessions: u32) -> f64 {
        let demand_mbps = demand.as_mbps();
        -self.wp * score.value() * sessions as f64
            - self.wc * price_per_mb.as_per_megabit() * demand_mbps
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn better_score_wins_at_equal_price() {
        let p = CpPolicy::balanced();
        assert!(
            p.value(
                Score(50.0),
                UsdPerGb::per_megabit(1.0),
                Kbps::new(1000.0),
                1
            ) > p.value(
                Score(100.0),
                UsdPerGb::per_megabit(1.0),
                Kbps::new(1000.0),
                1
            )
        );
    }

    #[test]
    fn cheaper_price_wins_at_equal_score() {
        let p = CpPolicy::balanced();
        assert!(
            p.value(
                Score(50.0),
                UsdPerGb::per_megabit(0.5),
                Kbps::new(1000.0),
                1
            ) > p.value(
                Score(50.0),
                UsdPerGb::per_megabit(2.0),
                Kbps::new(1000.0),
                1
            )
        );
    }

    #[test]
    fn wc_zero_ignores_price() {
        let p = CpPolicy { wp: 1.0, wc: 0.0 };
        assert_eq!(
            p.value(
                Score(50.0),
                UsdPerGb::per_megabit(0.5),
                Kbps::new(1000.0),
                1
            ),
            p.value(
                Score(50.0),
                UsdPerGb::per_megabit(99.0),
                Kbps::new(1000.0),
                1
            )
        );
    }

    #[test]
    fn presets_order_tradeoffs() {
        // A pricey-but-fast option vs. a cheap-but-slow one.
        let fast = (Score(40.0), UsdPerGb::per_megabit(4.0));
        let slow = (Score(200.0), UsdPerGb::per_megabit(0.5));
        let perf = CpPolicy::performance_first();
        let cost = CpPolicy::cost_first();
        assert!(
            perf.value(fast.0, fast.1, Kbps::new(2_000.0), 1)
                > perf.value(slow.0, slow.1, Kbps::new(2_000.0), 1)
        );
        assert!(
            cost.value(slow.0, slow.1, Kbps::new(2_000.0), 1)
                > cost.value(fast.0, fast.1, Kbps::new(2_000.0), 1)
        );
    }

    #[test]
    fn cost_term_scales_with_demand() {
        let p = CpPolicy::balanced();
        let v1 = p.value(
            Score(0.0),
            UsdPerGb::per_megabit(1.0),
            Kbps::new(1_000.0),
            1,
        );
        let v2 = p.value(
            Score(0.0),
            UsdPerGb::per_megabit(1.0),
            Kbps::new(2_000.0),
            1,
        );
        assert!((v2 - 2.0 * v1).abs() < 1e-12);
    }

    #[test]
    fn both_terms_scale_with_group_size() {
        // A group of n sessions values an option exactly n times a single
        // client with the same per-client bitrate.
        let p = CpPolicy::balanced();
        let single = p.value(
            Score(80.0),
            UsdPerGb::per_megabit(1.5),
            Kbps::new(2_000.0),
            1,
        );
        let group = p.value(
            Score(80.0),
            UsdPerGb::per_megabit(1.5),
            Kbps::new(20_000.0),
            10,
        );
        assert!((group - 10.0 * single).abs() < 1e-9);
    }
}
