//! Hot-path microbenchmarks: the primitives every Decision Protocol round
//! is made of.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use std::hint::black_box;
use vdx_bench::bench_scenario;
use vdx_broker::{CpPolicy, OptimizeMode};
use vdx_cdn::{candidate_clusters, CdnId, MatchingConfig};
use vdx_core::{run_decision_round, run_decision_round_probed, Design, RoundId, RoundInputs};
use vdx_geo::CityId;
use vdx_netsim::ScoreMatrix;
use vdx_obs::{MemoryProbe, NoopProbe};
use vdx_proto::frame;
use vdx_proto::reliable::{ReliableChannel, ReliableConfig};
use vdx_proto::{Bid, FaultConfig, Link, LinkEnd, Message, SimTime};
use vdx_sim::Scenario;
use vdx_solver::{solve_lp, AssignmentProblem, CandidateOption, LinearProgram, Relation};

fn scenario() -> &'static Scenario {
    static S: std::sync::OnceLock<Scenario> = std::sync::OnceLock::new();
    S.get_or_init(bench_scenario)
}

/// A GAP instance like one broker round: 300 clients x 20 buckets.
fn gap_300x20() -> AssignmentProblem {
    let mut p = AssignmentProblem::new(
        (0..20)
            .map(|b| vdx_core::units::Kbps::new(50.0 + b as f64))
            .collect(),
    );
    for i in 0..300 {
        let options: Vec<CandidateOption> = (0..8)
            .map(|k| CandidateOption {
                bucket: (i * 3 + k * 5) % 20,
                value: ((i + k * 11) % 29) as f64,
                load: vdx_core::units::Kbps::new(1.0 + ((i + k) % 4) as f64),
            })
            .collect();
        p.add_client(options);
    }
    p
}

fn bench_solver(c: &mut Criterion) {
    let mut group = c.benchmark_group("solver");
    // A representative LP: 40 vars, 20 constraints.
    let lp = {
        let n = 40;
        let mut lp = LinearProgram::maximize(n);
        for i in 0..n {
            lp.set_objective(i, ((i * 7) % 13) as f64 - 3.0);
            lp.set_upper_bound(i, 10.0);
        }
        for r in 0..20 {
            let coeffs: Vec<(usize, f64)> = (0..n)
                .map(|i| (i, (((r + i) * 5) % 7) as f64 / 3.0))
                .collect();
            lp.add_constraint(coeffs, Relation::Le, 50.0);
        }
        lp
    };
    group.bench_function("simplex_40x20", |b| b.iter(|| black_box(solve_lp(&lp))));

    let gap = gap_300x20();
    group.bench_function("gap_heuristic_300x20", |b| {
        b.iter(|| black_box(gap.solve_heuristic()))
    });
    group.finish();
}

fn bench_matching(c: &mut Criterion) {
    let s = scenario();
    let mut group = c.benchmark_group("matching");
    let client = s.groups[0].city;
    group.bench_function("candidate_clusters_distributed_cdn", |b| {
        b.iter(|| {
            black_box(candidate_clusters(
                &s.fleet,
                CdnId(0),
                |site| s.score_of(client, site),
                &MatchingConfig::default(),
            ))
        })
    });
    group.finish();
}

fn bench_decision_rounds(c: &mut Criterion) {
    let s = scenario();
    let mut group = c.benchmark_group("decision_round");
    group.sample_size(10);
    for design in [
        Design::Brokered,
        Design::Multicluster(100),
        Design::Marketplace,
    ] {
        group.bench_function(design.name(), |b| {
            b.iter(|| black_box(s.run(design, CpPolicy::balanced())))
        });
    }
    group.finish();
}

/// Backs the "<2 % probe overhead" claim: the same Marketplace round run
/// (a) through the plain entry point, (b) with the default no-op probe
/// (event construction skipped behind `Probe::enabled`), and (c) with a
/// real in-memory sink as the upper reference.
fn bench_probe_overhead(c: &mut Criterion) {
    let s = scenario();
    let mut group = c.benchmark_group("probe_overhead");
    group.sample_size(10);
    let inputs = RoundInputs {
        world: &s.world,
        fleet: &s.fleet,
        contracts: &s.contracts,
        groups: &s.groups,
        background_load_kbps: &s.background_load,
        policy: CpPolicy::balanced(),
        mode: OptimizeMode::Heuristic,
        bid_count: None,
        margins: None,
    };
    group.bench_function("round_unprobed", |b| {
        b.iter(|| {
            black_box(run_decision_round(Design::Marketplace, &inputs, |x, y| {
                s.score_of(x, y)
            }))
        })
    });
    group.bench_function("round_noop_probe", |b| {
        b.iter(|| {
            black_box(run_decision_round_probed(
                Design::Marketplace,
                &inputs,
                |x, y| s.score_of(x, y),
                RoundId(0),
                &NoopProbe,
            ))
        })
    });
    let memory = MemoryProbe::new();
    group.bench_function("round_memory_probe", |b| {
        b.iter(|| {
            let out = run_decision_round_probed(
                Design::Marketplace,
                &inputs,
                |x, y| s.score_of(x, y),
                RoundId(0),
                &memory,
            );
            memory.take();
            black_box(out)
        })
    });
    group.finish();
}

/// Backs the score-matrix tentpole: the cost of one dense build, then
/// every (client, cluster site) score via cached lookup vs recomputing
/// the network model per call — the closure the matrix replaced.
fn bench_score_matrix(c: &mut Criterion) {
    let s = scenario();
    let mut group = c.benchmark_group("score_matrix");
    let sites: Vec<CityId> = s.fleet.clusters.iter().map(|cl| cl.city).collect();
    let clients: Vec<CityId> = s.groups.iter().map(|g| g.city).collect();
    group.bench_function("build", |b| {
        b.iter(|| black_box(ScoreMatrix::build(&s.net, &s.world, &sites)))
    });
    let matrix = ScoreMatrix::build(&s.net, &s.world, &sites);
    group.bench_function("cached_lookup_all_pairs", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for &client in &clients {
                for &site in &sites {
                    sum += matrix.score_of(client, site).value();
                }
            }
            black_box(sum)
        })
    });
    group.bench_function("closure_recompute_all_pairs", |b| {
        b.iter(|| {
            let mut sum = 0.0;
            for &client in &clients {
                for &site in &sites {
                    sum += s.net.score(&s.world, client, site).value();
                }
            }
            black_box(sum)
        })
    });
    group.finish();
}

fn bench_proto(c: &mut Criterion) {
    let mut group = c.benchmark_group("proto");
    let payload = vec![0xA5u8; 1024];
    group.throughput(Throughput::Bytes(1024));
    group.bench_function("frame_encode_decode_1k", |b| {
        b.iter(|| {
            let wire = frame::encode(black_box(&payload));
            black_box(frame::decode_datagram(&wire).expect("intact"))
        })
    });

    let bids: Vec<Bid> = (0..100)
        .map(|i| Bid {
            cluster_id: i,
            share_id: i / 4,
            performance_estimate: 50.0 + i as f64,
            capacity_kbps: 1e6,
            price_per_mb: 1.1,
        })
        .collect();
    let announce = Message::Announce(bids);
    group.bench_function("announce_100_bids_roundtrip", |b| {
        b.iter(|| {
            let wire = black_box(&announce).encode();
            black_box(Message::decode(&wire).expect("roundtrips"))
        })
    });

    group.bench_function("reliable_channel_20_msgs_lossless", |b| {
        b.iter(|| {
            let mut link = Link::new(FaultConfig::lossless(), 1);
            let mut a = ReliableChannel::new(LinkEnd::A, ReliableConfig::default());
            let mut bch = ReliableChannel::new(LinkEnd::B, ReliableConfig::default());
            for i in 0..20u32 {
                a.send(i.to_be_bytes().to_vec());
            }
            let mut got = 0;
            for ms in 0..200u64 {
                a.poll(SimTime(ms), &mut link);
                bch.poll(SimTime(ms), &mut link);
                while bch.recv().is_some() {
                    got += 1;
                }
                if got == 20 {
                    break;
                }
            }
            black_box(got)
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_solver,
    bench_matching,
    bench_decision_rounds,
    bench_probe_overhead,
    bench_score_matrix,
    bench_proto
);
criterion_main!(benches);
