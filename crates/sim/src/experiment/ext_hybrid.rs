//! Extension experiment: hybrid pricing (§8 of the paper).
//!
//! > "More nuanced CDN pricing schemes (e.g., low-but-variable pricing
//! > combined with high-but-flat pricing, similar to Amazon EC2) could
//! > offer CPs more control in meeting their goals, while retaining
//! > similarity to today's flat-rate pricing."
//!
//! Under hybrid pricing every bid is offered at
//! `min(flat contract price, dynamic per-cluster price)` — the CP keeps
//! the flat rate as a *cap* (familiar billing, bounded worst case) while
//! still benefiting from cheap clusters. This experiment compares the CP's
//! total bill and the CDNs' economics under flat, dynamic, and hybrid
//! pricing.

use crate::report::render_table;
use crate::scenario::Scenario;
use vdx_broker::{optimize, CpPolicy, OptimizeMode};
use vdx_core::{settle, Design, RoundId, RoundOutcome};

/// One pricing scheme's outcome.
#[derive(Debug, Clone)]
pub struct SchemeOutcome {
    /// Scheme name.
    pub name: String,
    /// The CP's total bill per second.
    pub cp_bill: f64,
    /// Number of serving CDNs that lose money.
    pub losing_cdns: usize,
    /// Total CDN profit per second.
    pub total_profit: f64,
}

/// Hybrid-pricing results.
#[derive(Debug, Clone)]
pub struct HybridResult {
    /// Flat / dynamic / hybrid outcomes.
    pub schemes: Vec<SchemeOutcome>,
}

/// Runs the three pricing schemes over the same scenario.
pub fn run(scenario: &Scenario) -> HybridResult {
    let policy = CpPolicy::balanced();
    let flat = scenario.run_round(RoundId(0), Design::Brokered, policy);
    let dynamic = scenario.run_round(RoundId(1), Design::Marketplace, policy);
    let hybrid = run_hybrid(scenario, policy);

    let mk = |name: &str, outcome: &RoundOutcome| -> SchemeOutcome {
        let settled = settle(outcome, &scenario.world, &scenario.fleet);
        SchemeOutcome {
            name: name.to_string(),
            cp_bill: settled
                .per_cdn
                .iter()
                .map(|c| c.ledger.revenue.as_f64())
                .sum(),
            losing_cdns: settled.losing_cdns(),
            total_profit: settled.total_profit().as_f64(),
        }
    };
    HybridResult {
        schemes: vec![
            mk("flat (Brokered)", &flat),
            mk("dynamic (VDX)", &dynamic),
            mk("hybrid (min of both)", &hybrid),
        ],
    }
}

/// A Marketplace round re-priced with the EC2-style hybrid rule.
fn run_hybrid(scenario: &Scenario, policy: CpPolicy) -> RoundOutcome {
    let mut outcome = scenario.run_round(RoundId(2), Design::Marketplace, policy);
    // Cap each bid's price at the bidding CDN's flat contract price (a
    // rule of CDN and price alone, so once per shared list), then let the
    // broker re-optimize against the capped prices.
    for (_, opts) in outcome.problem.options.lists_mut() {
        for o in opts.iter_mut() {
            let flat = scenario.contracts[o.cdn.index()].billed_price_per_mb();
            o.price_per_mb = o.price_per_mb.min(flat);
        }
    }
    let assignment = optimize(&outcome.problem, &policy, &OptimizeMode::Heuristic);
    RoundOutcome {
        design: Design::Marketplace,
        problem: outcome.problem,
        assignment,
    }
}

/// Renders the result.
pub fn render(result: &HybridResult) -> String {
    let rows: Vec<Vec<String>> = result
        .schemes
        .iter()
        .map(|s| {
            vec![
                s.name.clone(),
                format!("{:.2}", s.cp_bill),
                s.losing_cdns.to_string(),
                format!("{:+.2}", s.total_profit),
            ]
        })
        .collect();
    let mut out = render_table(
        "Extension (§8): flat vs dynamic vs hybrid (EC2-style) pricing",
        &["scheme", "CP bill/s", "losing CDNs", "CDN profit/s"],
        &rows,
    );
    out.push_str(
        "hybrid caps every bid at the flat rate: the CP's bill can only improve on flat\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hybrid_never_bills_cp_more_than_flat() {
        let s: &Scenario = crate::scenario::shared_small();
        let r = run(s);
        let bill = |name: &str| {
            r.schemes
                .iter()
                .find(|x| x.name.starts_with(name))
                .expect("scheme")
                .cp_bill
        };
        assert!(
            bill("hybrid") <= bill("flat") + 1e-6,
            "hybrid {} vs flat {}",
            bill("hybrid"),
            bill("flat")
        );
        assert!(render(&r).contains("hybrid"));
    }

    #[test]
    fn dynamic_pricing_keeps_cdns_whole() {
        let s: &Scenario = crate::scenario::shared_small();
        let r = run(s);
        let dynamic = r
            .schemes
            .iter()
            .find(|x| x.name.starts_with("dynamic"))
            .expect("scheme");
        assert_eq!(dynamic.losing_cdns, 0);
    }
}
