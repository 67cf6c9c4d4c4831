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

use vdx::cdn::{BidPolicy, MatchingConfig};
use vdx::core::exchange::{BidEngine, CdnAgent, ExchangeBroker, ExchangeConfig};
use vdx::prelude::*;
use vdx::proto::endpoint::Endpoint;
use vdx::proto::reliable::{ReliableChannel, ReliableConfig};
use vdx::proto::{FaultConfig, Link, LinkEnd, SimTime};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rounds: usize = args.first().and_then(|a| a.parse().ok()).unwrap_or(3);
    let drop_pct: f64 = args.get(1).and_then(|a| a.parse().ok()).unwrap_or(10.0);
    let corrupt_pct: f64 = args.get(2).and_then(|a| a.parse().ok()).unwrap_or(5.0);

    let scenario = Scenario::build(ScenarioConfig::small());
    let faults = FaultConfig {
        drop_chance: drop_pct / 100.0,
        corrupt_chance: corrupt_pct / 100.0,
        delay_ms: 10,
        jitter_ms: 10,
    };
    println!(
        "live exchange: {} CDNs, {} client groups, links with {drop_pct}% drop / \
         {corrupt_pct}% corrupt\n",
        scenario.fleet.cdns.len(),
        scenario.groups.len()
    );

    // One lossy link per CDN; broker on end A, agent on end B.
    let n = scenario.fleet.cdns.len();
    let mut links: Vec<Link> = (0..n)
        .map(|i| Link::new(faults.clone(), 7_000 + i as u64))
        .collect();
    let mut agents: Vec<CdnAgent> = (0..n)
        .map(|i| {
            CdnAgent::new(
                Endpoint::new(ReliableChannel::new(LinkEnd::B, ReliableConfig::default())),
                BidEngine::new(
                    CdnId(i as u32),
                    BidPolicy::default(),
                    MatchingConfig::default(),
                    scenario.fleet.clusters.len(),
                    scenario.background_load.clone(),
                ),
            )
        })
        .collect();
    let broker_eps: Vec<Endpoint> = (0..n)
        .map(|_| Endpoint::new(ReliableChannel::new(LinkEnd::A, ReliableConfig::default())))
        .collect();
    let mut broker = ExchangeBroker::new(broker_eps, ExchangeConfig::default());

    let score_fn = |a: CityId, b: CityId| scenario.score_of(a, b);
    let mut clock = 0u64;
    for round in 1..=rounds {
        broker.start_round(scenario.groups.clone());
        let started = clock;
        let result = loop {
            clock += 1;
            let now = SimTime(clock);
            for (i, agent) in agents.iter_mut().enumerate() {
                agent.poll(now, &mut links[i], &scenario.fleet, &score_fn);
            }
            if let Some(result) = broker.poll(now, &mut links) {
                break result;
            }
            assert!(clock - started < 600_000, "round stalled");
        };
        // Drain the Accept messages so agents learn before the next round.
        for _ in 0..2_000 {
            clock += 1;
            let now = SimTime(clock);
            for (i, agent) in agents.iter_mut().enumerate() {
                agent.poll(now, &mut links[i], &scenario.fleet, &score_fn);
            }
        }
        println!(
            "round {round}: decided {} groups in {} virtual ms, objective {:.0}",
            result.assignment.choice.len(),
            clock - started - 2_000,
            result.assignment.objective
        );
    }

    // Show what the market taught the CDNs: margins on clusters that keep
    // losing have shaded down toward cost.
    println!("\nlearned margins (min / max per CDN) after {rounds} rounds:");
    for (i, agent) in agents.iter().enumerate() {
        let margins: Vec<f64> = scenario.fleet.cdns[i]
            .clusters
            .iter()
            .map(|&c| agent.margin(c).as_f64())
            .collect();
        let min = margins.iter().copied().fold(f64::MAX, f64::min);
        let max = margins.iter().copied().fold(f64::MIN, f64::max);
        println!("  {}: {:.3} .. {:.3}", CdnId(i as u32), min, max);
    }

    // Link-level truth: the protocol really was exercised by faults.
    let stats = links[0].stats(LinkEnd::A);
    println!(
        "\nlink 0 broker->CDN stats: {} sent, {} dropped, {} corrupted, {} delivered",
        stats.sent, stats.dropped, stats.corrupted, stats.delivered
    );
}
