//! Fig 18: "Adjusting bid counts vs cost and score" — how many candidate
//! clusters each CDN submits per client location.
//!
//! Paper shape: "the largest increase in performance (drop in score) is
//! just achieved by adding the second bid"; beyond that, diminishing
//! returns on score while average cost keeps drifting up (bids are sorted
//! cheapest-first, so extra bids only add pricier-but-faster options).

use crate::engine::{run_rounds, RoundSpec};
use crate::metrics::{compute, MetricsInput};
use crate::report::render_table;
use crate::scenario::Scenario;
use vdx_broker::CpPolicy;
use vdx_core::Design;

/// The bid counts swept (log-spaced like the paper's x-axis).
pub const BID_COUNTS: [usize; 8] = [1, 2, 4, 10, 32, 100, 316, 1000];

/// Fig 18 results.
#[derive(Debug, Clone)]
pub struct Fig18Result {
    /// `(bid count, average cost, average score)` per sweep point.
    pub points: Vec<(usize, f64, f64)>,
}

/// Runs the sweep over the Marketplace design; the eight bid-count rounds
/// are independent and fan out through the [`engine`](crate::engine).
pub fn run(scenario: &Scenario) -> Fig18Result {
    let specs: Vec<RoundSpec> = BID_COUNTS
        .iter()
        .enumerate()
        .map(|(i, &bids)| {
            RoundSpec::new(i as u64, Design::Marketplace, CpPolicy::balanced()).with_bid_count(bids)
        })
        .collect();
    let means = run_rounds(scenario, &specs, |_, outcome| {
        let m = compute(&MetricsInput {
            scenario,
            outcome: &outcome,
        });
        (m.mean_cost, m.mean_score)
    });
    let points = (BID_COUNTS.iter().zip(means))
        .map(|(&bids, (cost, score))| (bids, cost, score))
        .collect();
    Fig18Result { points }
}

/// Renders the result.
pub fn render(result: &Fig18Result) -> String {
    let rows: Vec<Vec<String>> = result
        .points
        .iter()
        .map(|(b, c, s)| vec![b.to_string(), format!("{c:.4}"), format!("{s:.1}")])
        .collect();
    let mut out = render_table(
        "Fig 18: marketplace bid count vs average cost and score",
        &["bids", "avg cost", "avg score"],
        &rows,
    );
    let points = &result.points;
    if let (Some(first), Some(second), Some(last)) = (points.first(), points.get(1), points.last())
    {
        out.push_str(&format!(
            "score drop from 2nd bid: {:.1}; from all further bids: {:.1} \
             (paper: the 2nd bid gives the largest drop)\n",
            first.2 - second.2,
            second.2 - last.2
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig18_more_bids_better_score() {
        let s: &Scenario = crate::scenario::shared_small();
        let r = run(s);
        assert_eq!(r.points.len(), BID_COUNTS.len());
        let first = r.points[0];
        let last = *r.points.last().expect("points");
        assert!(
            last.2 <= first.2 + 1e-9,
            "score should improve with bids: {} -> {}",
            first.2,
            last.2
        );
    }

    #[test]
    fn fig18_second_bid_gives_large_share_of_gain() {
        let s: &Scenario = crate::scenario::shared_small();
        let r = run(s);
        let s1 = r.points[0].2;
        let s2 = r.points[1].2;
        let s_last = r.points.last().expect("points").2;
        let total_gain = s1 - s_last;
        if total_gain > 1e-9 {
            let second_bid_gain = s1 - s2;
            assert!(
                second_bid_gain >= 0.3 * total_gain,
                "2nd bid gain {second_bid_gain:.2} of total {total_gain:.2}"
            );
        }
        assert!(render(&r).contains("2nd bid"));
    }
}
