//! The exchange at the paper's scale (2,718 client groups, 14 CDNs).
//!
//! Three things are checked here and nowhere else. The size bounds of the
//! wire and the log come from this traffic: one frame carries every
//! message of every design, one log record every record, each bound the
//! measured maximum under DESIGN.md §2's headroom rule. A restart reads
//! that log back — records larger than a scan buffer, every CDN's batch
//! read back out of the checkpoint — to the cache it logged. And the daemon
//! computes the round the paper evaluates: with all fourteen agents on
//! loopback — CDN 0, the one highly distributed CDN, among them — a live
//! Marketplace or Omniscient round is Table 3's round and the reference
//! driver's, to the objective's bits.
//!
//! Neither is skipped under debug: the file takes ≈ 5 s in a debug
//! build (≈ 0.6 s in release, where `scripts/verify.sh` runs it too), and
//! its two tests share one scenario.

#![expect(clippy::expect_used, reason = "test helpers")]

use std::sync::{Arc, OnceLock};
use std::time::Duration;

use vdx_broker::{BreakerConfig, CircuitBreaker, CpPolicy};
use vdx_core::wal::{Wal, WalRecord, MAX_RECORD_LEN};
use vdx_core::{picks_of, Design, DriverRound, ExchangeDriver, RoundId, RoundResolution};
use vdx_exchanged::{run_agent, AgentConfig, ExchangeServer, ServerOptions};
use vdx_geo::CityId;
use vdx_obs::{Event, MemoryProbe};
use vdx_proto::frame::MAX_PAYLOAD;
use vdx_proto::{AcceptEntry, Bid, Message};
use vdx_sim::soak::{round_engine, run_reference, shares_of, SoakPlan};
use vdx_sim::{Scenario, ScenarioConfig};

fn full_scale() -> Arc<Scenario> {
    static SCENARIO: OnceLock<Arc<Scenario>> = OnceLock::new();
    let build = || Arc::new(Scenario::build(ScenarioConfig::at_scale(false, Some(2017))));
    SCENARIO.get_or_init(build).clone()
}

/// The largest payload of each kind one design puts on the wire and in
/// the log, bytes.
struct Traffic {
    share: usize,
    announce: usize,
    accept: usize,
    bids_record: usize,
    checkpoint: usize,
}

/// Measures `design`'s round: every CDN's bids as its agent builds them,
/// framed as the daemon and the agent frame them (round stamp, then the
/// message) and logged as the daemon logs them.
fn measure(scenario: &Scenario, design: Design, wal_path: &std::path::Path) -> Traffic {
    let shares = shares_of(scenario);
    let scores = |a: CityId, b: CityId| scenario.score_of(a, b);
    let per_cdn: Vec<Vec<Bid>> = (0..scenario.fleet.cdns.len() as u32)
        .map(|cdn| {
            round_engine(scenario, design, cdn).build_bids(&shares, &scenario.fleet, &scores)
        })
        .collect();
    let stamped = |msg: Message| 8 + msg.encode().len();
    let accept_of = |bids: &[Bid]| {
        let entries = bids.iter().map(|&bid| AcceptEntry {
            bid,
            accepted: false,
        });
        Message::Accept(entries.collect())
    };
    let largest = per_cdn.iter().max_by_key(|bids| bids.len()).expect("CDNs");

    // A record's payload is what it adds to the log minus the length and
    // CRC words. The layout is fixed, so the largest batch makes the
    // largest `Bids` record.
    Wal::reset(wal_path).expect("reset the temporary log");
    let mut wal = Wal::open(wal_path).expect("open the temporary log").wal;
    let mut logged = |record: &WalRecord| {
        let before = std::fs::metadata(wal_path).expect("stat").len();
        wal.append(record).expect("a record under the bound");
        (std::fs::metadata(wal_path).expect("stat").len() - before) as usize - 8
    };
    let bids_record = logged(&WalRecord::Bids {
        round: 0,
        cdn: 0,
        bids: largest.clone(),
    });
    let snapshot = CircuitBreaker::new(BreakerConfig::default()).snapshot();
    let cache: Vec<_> = per_cdn.iter().map(|bids| Some((0, bids.clone()))).collect();
    let checkpoint = logged(&WalRecord::Checkpoint {
        next_round: 1,
        breakers: vec![snapshot; per_cdn.len()],
        cache: cache.clone(),
    });
    drop(wal);
    // A restart of that log reads the largest `Bids` record and then the
    // checkpoint, both larger than a scan buffer at this scale, and reads
    // every CDN's batch back out of the checkpoint.
    let recovered = Wal::recover(wal_path, per_cdn.len()).expect("recover the temporary log");
    assert_eq!(
        (recovered.records, recovered.truncated_bytes),
        (2, 0),
        "{design}"
    );
    assert!(
        recovered.recovery.cache == cache,
        "{design}: recovered cache"
    );
    Traffic {
        share: stamped(Message::Share(shares)),
        announce: stamped(Message::Announce(largest.clone())),
        accept: stamped(accept_of(largest)),
        bids_record,
        checkpoint,
    }
}

/// The headroom rule of DESIGN.md §2: the smallest power of two at least
/// twice the largest measured size.
fn bound_for(largest: usize) -> usize {
    (2 * largest).next_power_of_two()
}

#[test]
fn every_message_fits_one_frame_and_every_record_one_log_record() {
    let scenario = full_scale();
    let wal_path = std::env::temp_dir().join(format!("vdx-traffic-{}.wal", std::process::id()));
    let mut frame_max = 0;
    let mut record_max = 0;
    println!("design | share | announce | accept | bids record | checkpoint");
    for design in Design::TABLE3 {
        let t = measure(&scenario, design, &wal_path);
        println!(
            "{design} | {} | {} | {} | {} | {}",
            t.share, t.announce, t.accept, t.bids_record, t.checkpoint
        );
        frame_max = frame_max.max(t.share).max(t.announce).max(t.accept);
        record_max = record_max.max(t.bids_record).max(t.checkpoint);
    }
    let _ = std::fs::remove_file(&wal_path);
    // The bounds are the rule applied to this traffic, so each message
    // and record fits with twice its size to spare. If the traffic moves
    // far enough to change the rule's answer, re-derive them (and
    // DESIGN.md's table).
    assert_eq!(
        MAX_PAYLOAD,
        bound_for(frame_max),
        "largest frame payload {frame_max} B"
    );
    assert_eq!(
        MAX_RECORD_LEN as usize,
        bound_for(record_max),
        "largest record {record_max} B"
    );
}

/// One round of `design` through the daemon with one `run_agent` thread
/// per CDN, all sharing `scenario`, and the options it was decided over.
fn live_round(scenario: &Arc<Scenario>, design: Design) -> (DriverRound, Vec<u32>, u64) {
    let (probe, journal) = MemoryProbe::channel();
    let opts = ServerOptions {
        // Every agent answers well inside this; the round ends when the
        // last one has, so it only bounds a failure.
        deadline: Duration::from_secs(60),
        ..ServerOptions::default()
    };
    let mut server = ExchangeServer::start(
        "127.0.0.1:0",
        scenario.clone(),
        design,
        CpPolicy::balanced(),
        Arc::new(probe),
        opts,
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    let n = scenario.fleet.cdns.len();
    let agents: Vec<_> = (0..n as u32)
        .map(|cdn| {
            let scenario = scenario.clone();
            std::thread::spawn(move || run_agent(addr, &scenario, &AgentConfig::new(cdn, design)))
        })
        .collect();
    assert!(
        server.wait_for_agents(n, Duration::from_secs(30)),
        "agents connect"
    );
    let decided = server.run_round(0);
    server.shutdown();
    for agent in agents {
        agent.join().expect("agent thread").expect("agent run");
    }
    let events: Vec<Event> = journal.try_iter().collect();
    let answered = (events.iter())
        .filter_map(|e| match e {
            Event::BidReceived { cdn, .. } => Some(*cdn),
            _ => None,
        })
        .collect();
    let options = (events.iter())
        .find_map(|e| match e {
            Event::RoundCompleted { options, .. } => Some(*options),
            _ => None,
        })
        .expect("the round completed");
    (decided, answered, options)
}

#[test]
fn a_full_scale_daemon_round_is_table_3s_round() {
    let scenario = full_scale();
    let n = scenario.fleet.cdns.len() as u32;
    assert_eq!(n, 14);
    for (design, options) in [
        (Design::Marketplace, 188_003),
        (Design::Omniscient, 954_018),
    ] {
        let (live, answered, live_options) = live_round(&scenario, design);
        assert_eq!(live.resolution, RoundResolution::Fresh, "{design}");
        assert_eq!(
            answered,
            (0..n).collect::<Vec<_>>(),
            "{design}: all 14 fresh"
        );
        assert_eq!(live_options, options, "{design}");

        let reference = run_reference(
            &scenario,
            design,
            CpPolicy::balanced(),
            SoakPlan::clean(1),
            vdx_obs::probe::noop(),
        );
        assert_eq!(
            reference,
            std::slice::from_ref(&live),
            "{design}: daemon vs reference"
        );

        let row = Design::TABLE3
            .iter()
            .position(|&d| d == design)
            .expect("a Table 3 design");
        let table3 = scenario.run_round(RoundId(row as u64), design, CpPolicy::balanced());
        assert_eq!(
            live.objective.to_bits(),
            table3.assignment.objective.to_bits(),
            "{design}: {} vs Table 3's {}",
            live.objective,
            table3.assignment.objective
        );
        assert_eq!(
            live.picks,
            picks_of(&table3.problem, &table3.assignment),
            "{design}"
        );
    }
}
