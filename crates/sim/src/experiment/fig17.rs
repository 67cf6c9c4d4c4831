//! Fig 17: "Adjusting optimization to balance performance vs. cost" — the
//! trade-off frontier traced by sweeping the cost weight `wc` in the
//! broker's objective, for VDX and the other designs.
//!
//! Paper shape: VDX's curve dominates — it can cut cost ~44 % at equal
//! distance to Brokered, cut distance ~74 % at equal cost, and at the knee
//! cut both (~31 % cost, ~40 % distance simultaneously).

use crate::engine::{run_rounds, RoundSpec};
use crate::metrics::{compute, MetricsInput};
use crate::report::render_table;
use crate::scenario::Scenario;
use vdx_broker::CpPolicy;
use vdx_core::Design;

/// The wc sweep used for every design's curve (log-ish spacing, dense
/// around the knee).
pub const WC_SWEEP: [f64; 10] = [0.3, 1.0, 3.0, 10.0, 17.0, 30.0, 55.0, 100.0, 180.0, 300.0];

/// One design's trade-off curve.
#[derive(Debug, Clone)]
pub struct TradeoffCurve {
    /// Design name.
    pub design: String,
    /// `(median cost, median distance miles)` per wc in [`WC_SWEEP`].
    pub points: Vec<(f64, f64)>,
}

/// Fig 17 results.
#[derive(Debug, Clone)]
pub struct Fig17Result {
    /// One curve per design.
    pub curves: Vec<TradeoffCurve>,
    /// VDX's best cost reduction vs. Brokered-at-default, at a point whose
    /// distance does not exceed Brokered's (fraction, e.g. 0.44 = −44 %).
    pub vdx_cost_cut_at_equal_distance: f64,
    /// VDX's best distance reduction at a point whose cost does not exceed
    /// Brokered's.
    pub vdx_distance_cut_at_equal_cost: f64,
}

const DESIGNS: [Design; 7] = [
    Design::Brokered,
    Design::Multicluster(2),
    Design::Multicluster(100),
    Design::DynamicPricing,
    Design::DynamicMulticluster,
    Design::BestLookup,
    Design::Marketplace,
];

/// Runs the sweep. All 70 (design, wc) rounds are independent, so the
/// whole grid fans out through the [`engine`](crate::engine) at once, each
/// round reduced to its (cost, distance) point as it finishes; curves are
/// reassembled from the order-preserving point vector.
pub fn run(scenario: &Scenario) -> Fig17Result {
    let specs: Vec<RoundSpec> = DESIGNS
        .iter()
        .enumerate()
        .flat_map(|(d, &design)| {
            WC_SWEEP.iter().enumerate().map(move |(i, &wc)| {
                RoundSpec::new(
                    (d * WC_SWEEP.len() + i) as u64,
                    design,
                    CpPolicy { wp: 1.0, wc },
                )
            })
        })
        .collect();
    let points = run_rounds(scenario, &specs, |_, outcome| {
        let m = compute(&MetricsInput {
            scenario,
            outcome: &outcome,
        });
        (m.cost, m.distance_miles)
    });
    let curves: Vec<TradeoffCurve> = (DESIGNS.iter().zip(points.chunks(WC_SWEEP.len())))
        .map(|(design, points)| TradeoffCurve {
            design: design.name(),
            points: points.to_vec(),
        })
        .collect();

    // Reference: Brokered at the balanced default (wc = 30 is index 5).
    let brokered_ref = curves[0].points[5];
    let vdx = &curves[DESIGNS.len() - 1];
    let cost_cut = vdx
        .points
        .iter()
        .filter(|(_, d)| *d <= brokered_ref.1 + 1e-9)
        .map(|(c, _)| 1.0 - c / brokered_ref.0)
        .fold(0.0f64, f64::max);
    let distance_cut = vdx
        .points
        .iter()
        .filter(|(c, _)| *c <= brokered_ref.0 + 1e-9)
        .map(|(_, d)| 1.0 - d / brokered_ref.1)
        .fold(0.0f64, f64::max);
    Fig17Result {
        curves,
        vdx_cost_cut_at_equal_distance: cost_cut,
        vdx_distance_cut_at_equal_cost: distance_cut,
    }
}

/// Renders the result.
pub fn render(result: &Fig17Result) -> String {
    let mut rows = Vec::new();
    for curve in &result.curves {
        for (i, (cost, dist)) in curve.points.iter().enumerate() {
            rows.push(vec![
                curve.design.clone(),
                format!("{}", WC_SWEEP[i]),
                format!("{cost:.3}"),
                format!("{dist:.0}"),
            ]);
        }
    }
    let mut out = render_table(
        "Fig 17: cost vs. distance as the cost weight wc sweeps",
        &["design", "wc", "median cost", "median distance (mi)"],
        &rows,
    );
    out.push_str(&format!(
        "VDX vs Brokered(default): cost -{:.0}% at equal distance (paper ~44%), \
         distance -{:.0}% at equal cost (paper ~74%)\n",
        100.0 * result.vdx_cost_cut_at_equal_distance,
        100.0 * result.vdx_distance_cut_at_equal_cost
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig17_wc_moves_along_the_tradeoff() {
        let s: &Scenario = crate::scenario::shared_small();
        let r = run(s);
        let vdx = r
            .curves
            .iter()
            .find(|c| c.design == "Marketplace")
            .expect("curve");
        // Larger wc => cheaper (monotone within tolerance of heuristic noise).
        let first_cost = vdx.points.first().expect("points").0;
        let last_cost = vdx.points.last().expect("points").0;
        assert!(
            last_cost <= first_cost + 1e-9,
            "{last_cost} vs {first_cost}"
        );
        // ... and farther (performance sacrificed).
        let first_dist = vdx.points.first().expect("points").1;
        let last_dist = vdx.points.last().expect("points").1;
        assert!(
            last_dist >= first_dist - 1e-9,
            "{last_dist} vs {first_dist}"
        );
    }

    #[test]
    fn fig17_vdx_improves_on_brokered() {
        let s: &Scenario = crate::scenario::shared_small();
        let r = run(s);
        assert!(
            r.vdx_cost_cut_at_equal_distance > 0.0,
            "VDX should cut cost at equal distance, got {}",
            r.vdx_cost_cut_at_equal_distance
        );
        // In the paper VDX also *shortens* paths (-74%) because its
        // Brokered baseline served the median client ~300 mi away; our
        // synthetic metros are dense enough that Brokered already serves
        // locally, so VDX can only match distance while undercutting cost.
        // Weak domination is the invariant we can honestly pin.
        assert!(
            r.vdx_distance_cut_at_equal_cost >= 0.0,
            "VDX must not be farther at equal cost, got {}",
            r.vdx_distance_cut_at_equal_cost
        );
        assert!(render(&r).contains("VDX vs Brokered"));
    }
}
