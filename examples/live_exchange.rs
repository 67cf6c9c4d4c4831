//! The VDX marketplace as a live protocol: a broker and a fleet of CDN
//! agents exchanging Share / Announce / Accept messages over lossy links,
//! for several rounds, with CDN agents learning bid margins from Accept
//! feedback.
//!
//! ```text
//! cargo run --example live_exchange --release -- [rounds] [drop%] [corrupt%]
//! e.g. cargo run --example live_exchange --release -- 5 15 15
//! ```
//!
//! The fault numbers mirror the smoltcp examples' `--drop-chance` /
//! `--corrupt-chance` knobs (the README suggests 15% as a good start).
//! Each round runs on the same spine as the daemon and the fault
//! campaigns (`vdx::core::Round`), over the fault campaign's simulated
//! links (`vdx::sim::faults::Links`), kept across rounds so the agents
//! keep what they learned.

use vdx::broker::{BreakerConfig, CircuitBreaker, StaleBidCache};
use vdx::core::Round;
use vdx::prelude::*;
use vdx::proto::LinkEnd;
use vdx::sim::faults::{Links, RoundFaults};

/// Simulated milliseconds a round waits for Announces.
const DEADLINE_MS: u64 = 3_000;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rounds: u64 = args.first().and_then(|a| a.parse().ok()).unwrap_or(3);
    let drop_pct: f64 = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(10.0);
    let corrupt_pct: f64 = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(5.0);

    let scenario = Scenario::build(ScenarioConfig::small());
    let faults = RoundFaults {
        drop_chance: drop_pct / 100.0,
        corrupt_chance: corrupt_pct / 100.0,
        delay_ms: 10,
        jitter_ms: 10,
        ..RoundFaults::none()
    };
    println!(
        "live exchange: {} CDNs, {} client groups, links with {drop_pct}% drop / \
         {corrupt_pct}% corrupt\n",
        scenario.fleet.cdns.len(),
        scenario.groups.len()
    );

    // One lossy link per CDN; broker on end A, agent on end B.
    let design = Design::Marketplace;
    let n = scenario.fleet.cdns.len();
    let mut links = Links::new(&scenario, design, &faults, 7_000, DEADLINE_MS);
    let mut spine = Round::new(
        design,
        CpPolicy::balanced(),
        (0..n)
            .map(|_| CircuitBreaker::new(BreakerConfig::default()))
            .collect(),
        StaleBidCache::new(n, 2),
        DEADLINE_MS,
        vdx_obs::probe::noop(),
    );
    for round in 0..rounds {
        let decided = spine.run(round, &scenario.groups, &mut links);
        println!(
            "round {round}: {:?}, decided {} groups, objective {:.0}",
            decided.resolution,
            decided.picks.len(),
            decided.objective
        );
    }

    // Show what the market taught the CDNs: margins on clusters that keep
    // losing have shaded down toward cost.
    println!("\nlearned margins (min / max per CDN) after {rounds} rounds:");
    for (i, cdn) in scenario.fleet.cdns.iter().enumerate() {
        let margins: Vec<f64> = (cdn.clusters.iter())
            .map(|&c| links.margin(i, c).as_f64())
            .collect();
        let min = margins.iter().copied().fold(f64::MAX, f64::min);
        let max = margins.iter().copied().fold(f64::MIN, f64::max);
        println!("  {}: {:.3} .. {:.3}", cdn.id, min, max);
    }

    // Link-level truth: the protocol really was exercised by faults.
    let stats = links.link(0).stats(LinkEnd::A);
    println!(
        "\nlink 0 broker->CDN stats: {} sent, {} dropped, {} corrupted, {} delivered",
        stats.sent, stats.dropped, stats.corrupted, stats.delivered
    );
}
