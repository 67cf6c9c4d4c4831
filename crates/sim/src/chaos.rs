//! Kill-restart chaos harness for the crash-safe exchange daemon
//! (`repro chaos`).
//!
//! The WAL module (`vdx_core::wal`) states the exactly-once rule; the
//! in-process recovery tests in `vdx-exchanged` exercise it under
//! thread scheduling. This harness is the hostile version: it spawns
//! the **real** `vdx-exchanged` and `vdx-agent` binaries as child
//! processes, SIGKILLs the daemon at a seeded phase of every crash
//! round of the soak ladder campaign, optionally tears or corrupts the
//! WAL tail the way a power loss would, restarts the daemon on the
//! same log and address, and finally asserts that replaying the WAL
//! yields a [`DriverRound`] sequence byte-identical (`Debug`-for-
//! `Debug`, so `f64` bits count) to the uninterrupted transport-free
//! reference driver ([`run_reference`]).
//!
//! Two modes:
//!
//! * [`run_chaos`] — the full campaign: one trial per crash round,
//!   each on a fresh WAL in the work directory, with phase (mid-round
//!   vs just-settled) drawn from a seeded RNG and the tail fault
//!   cycling `none → truncate → flip-byte`. Tail faults are applied
//!   only to *staged* (uncommitted) tail records: corrupting a
//!   committed settlement is data loss, not a crash, and is outside
//!   the durability contract (DESIGN.md §15).
//! * [`check_wal`] — validate an existing WAL against the reference:
//!   the crash-recovery smoke in `scripts/verify.sh` kills a real
//!   daemon mid-campaign, restarts it, and then runs
//!   `repro chaos --check` on the surviving log.
//!
//! Everything here is operator tooling, not simulation: child
//! processes are wall-clock bound by design, and all waiting goes
//! through [`Stopwatch`] polls of the WAL file
//! ([`vdx_core::wal::read_records`]), never through signals or pipes,
//! so the harness observes exactly what recovery will observe.
//!
//! [`DriverRound`]: vdx_core::DriverRound

use std::fs::File;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use vdx_broker::CpPolicy;
use vdx_core::wal::{read_records, replay, WalRecord};
use vdx_core::Design;
use vdx_obs::Stopwatch;
use vdx_rand::StdRng;

use crate::soak::{run_reference, SoakPlan};
use crate::{Scenario, ScenarioConfig};

/// Where in a round's lifecycle the daemon is killed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPhase {
    /// After `AnnounceOpen` for the crash round is durable but (as far
    /// as the poll can tell) before its settlement: the round is
    /// in-flight and must be voided and re-run.
    MidRound,
    /// After the crash round's `Settlement` is durable: the round is
    /// committed and must *not* be re-run.
    Settled,
}

impl CrashPhase {
    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            CrashPhase::MidRound => "mid-round",
            CrashPhase::Settled => "settled",
        }
    }
}

/// A torn-write simulation applied to the WAL between kill and restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailFault {
    /// Leave the file exactly as the SIGKILL left it.
    None,
    /// Chop a few bytes off the end — a write that never finished.
    Truncate,
    /// Flip a byte inside the last record's CRC — bits that rotted.
    FlipByte,
}

impl TailFault {
    /// Stable lower-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            TailFault::None => "none",
            TailFault::Truncate => "truncate",
            TailFault::FlipByte => "flip-byte",
        }
    }
}

/// Ceiling on each wait of a trial (marker, campaign completion) and on
/// the daemon's wait for its agents, ms.
const WAIT_MS: u64 = 180_000;

/// Knobs for a chaos campaign, which always drives [`SoakPlan::ladder`].
/// [`ChaosConfig::new`] gives the defaults the acceptance run uses: the
/// small scenario, a trial at every round.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Scenario seed (daemon, agents, and reference all share it).
    pub seed: u64,
    /// Build the small scenario (`--small` on every child). The full
    /// scenario works but multiplies child start-up cost per restart.
    pub small: bool,
    /// Rounds to crash at, one trial each. `None` = every round of the
    /// ladder campaign.
    pub crash_rounds: Option<Vec<u64>>,
    /// Where trial WALs, journals, and child logs go.
    pub work_dir: PathBuf,
}

impl ChaosConfig {
    /// The acceptance-run defaults: small scenario, a crash trial at
    /// every round, artifacts under `results/chaos`.
    pub fn new(seed: u64) -> ChaosConfig {
        ChaosConfig {
            seed,
            small: true,
            crash_rounds: None,
            work_dir: PathBuf::from("results/chaos"),
        }
    }
}

/// What one kill-restart trial did and found.
#[derive(Debug, Clone)]
pub struct TrialReport {
    /// The round the kill targeted.
    pub crash_round: u64,
    /// The phase the kill aimed for (the actual kill can land later if
    /// the round settles faster than the poll; parity must hold either
    /// way, which is the point).
    pub phase: CrashPhase,
    /// The tail fault scheduled for this trial.
    pub fault: TailFault,
    /// Whether the fault was actually applied — it is skipped (never
    /// silently) when the tail at kill time ended on a committed
    /// record, which mutation would turn into data loss.
    pub fault_applied: bool,
    /// Torn-tail bytes the scan reported after the fault was applied
    /// (0 when no fault was applied).
    pub fault_detected_bytes: u64,
    /// Rounds already committed in the WAL at kill time.
    pub committed_at_kill: usize,
    /// The final verdict: the replayed WAL equals the reference,
    /// `Debug`-byte for `Debug`-byte.
    pub parity: bool,
}

/// A full campaign's worth of trials.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Per-trial outcomes, in crash-round order.
    pub trials: Vec<TrialReport>,
    /// Rounds in the campaign each trial replayed.
    pub rounds: usize,
}

impl ChaosReport {
    /// True when every trial held parity.
    pub fn all_parity(&self) -> bool {
        self.trials.iter().all(|t| t.parity)
    }
}

/// A spawned child that is SIGKILLed (and reaped) when dropped, so an
/// early error cannot leak daemons or agents.
struct Proc {
    child: Child,
}

impl Proc {
    fn kill_now(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        self.kill_now();
    }
}

fn spawn(bin: &Path, args: &[String], log: &Path) -> Result<Proc, String> {
    let out = File::create(log).map_err(|e| format!("cannot create {}: {e}", log.display()))?;
    let err = out
        .try_clone()
        .map_err(|e| format!("cannot clone log handle for {}: {e}", log.display()))?;
    let child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
    Ok(Proc { child })
}

/// Locates a workspace binary in the directory holding the running
/// binary (where cargo puts siblings).
fn bin_path(name: &str) -> Result<PathBuf, String> {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .ok_or_else(|| "cannot locate the running binary's directory".to_string())?;
    let path = dir.join(name);
    if path.is_file() {
        Ok(path)
    } else {
        Err(format!(
            "{} not found — build it first (cargo build -p vdx-exchanged)",
            path.display()
        ))
    }
}

fn free_port() -> Result<u16, String> {
    let listener = TcpListener::bind(("127.0.0.1", 0))
        .map_err(|e| format!("cannot probe for a free port: {e}"))?;
    listener
        .local_addr()
        .map(|a| a.port())
        .map_err(|e| format!("cannot read probe socket address: {e}"))
}

/// Polls the WAL until `pred` holds over its scanned records. A
/// missing or not-yet-magic'd file is simply "not yet". Errors only on
/// timeout or a WAL that is readable but foreign.
fn wait_for_wal(
    path: &Path,
    what: &str,
    pred: impl Fn(&[WalRecord]) -> bool,
) -> Result<(), String> {
    let clock = Stopwatch::start();
    loop {
        match read_records(path) {
            Ok((records, _)) if pred(&records) => return Ok(()),
            Ok(_) => {}
            Err(vdx_core::WalError::Io(_)) => {} // not created yet
            Err(e) => return Err(format!("polling {}: {e}", path.display())),
        }
        if clock.elapsed_ms() >= WAIT_MS {
            return Err(format!(
                "timed out after {WAIT_MS}ms waiting for {what} in {}",
                path.display()
            ));
        }
        std::thread::sleep(Duration::from_millis(3));
    }
}

/// Polls a child until it exits. `Ok(None)` means [`WAIT_MS`] passed
/// with the child still running (the caller decides whether to kill).
fn wait_with_timeout(child: &mut Child) -> Result<Option<std::process::ExitStatus>, String> {
    let clock = Stopwatch::start();
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Ok(Some(status)),
            Ok(None) => {}
            Err(e) => return Err(format!("waiting on child: {e}")),
        }
        if clock.elapsed_ms() >= WAIT_MS {
            return Ok(None);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Applies a tail fault to the WAL, but **only** when the last scanned
/// record is staged (not a `Settlement`/`Checkpoint`): the contract
/// covers torn tails, not corruption of committed state. Returns
/// whether the fault was applied.
fn mutate_tail(path: &Path, fault: TailFault, rng: &mut StdRng) -> Result<bool, String> {
    if fault == TailFault::None {
        return Ok(false);
    }
    let (records, _) =
        read_records(path).map_err(|e| format!("pre-fault read of {}: {e}", path.display()))?;
    let staged_tail = !matches!(
        records.last(),
        None | Some(WalRecord::Settlement(_)) | Some(WalRecord::Checkpoint { .. })
    );
    if !staged_tail {
        return Ok(false);
    }
    let mut bytes = std::fs::read(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    match fault {
        TailFault::None => return Ok(false),
        TailFault::Truncate => {
            // Tear 1–5 bytes off: always lands inside the last record's
            // 4-byte CRC or its payload, never before the frame start.
            let chop = rng.gen_range(1..6usize).min(bytes.len().saturating_sub(8));
            bytes.truncate(bytes.len() - chop);
        }
        TailFault::FlipByte => {
            let idx = bytes.len().saturating_sub(3);
            let Some(b) = bytes.get_mut(idx) else {
                return Ok(false);
            };
            *b ^= 0xFF;
        }
    }
    std::fs::write(path, &bytes)
        .map_err(|e| format!("writing fault to {}: {e}", path.display()))?;
    Ok(true)
}

/// The daemon's command line for one life of a trial. Of the ladder's
/// knobs it passes only the two that differ from the daemon's defaults,
/// the deadline and the breaker cool-down; its TTL, trip threshold and
/// checkpoint interval are the daemon's own.
pub fn daemon_args(
    cfg: &ChaosConfig,
    plan: &SoakPlan,
    addr: &str,
    wal: &Path,
    journal: &Path,
    num_cdns: usize,
) -> Vec<String> {
    let mut args = vec![
        "--addr".into(),
        addr.to_string(),
        "--seed".into(),
        cfg.seed.to_string(),
        "--rounds".into(),
        plan.rounds.len().to_string(),
        "--deadline-ms".into(),
        plan.deadline_ms.to_string(),
        "--cooldown".into(),
        plan.breaker.cooldown_rounds.to_string(),
        "--min-agents".into(),
        num_cdns.to_string(),
        "--wait-ms".into(),
        WAIT_MS.to_string(),
        "--wal".into(),
        wal.display().to_string(),
        "--journal".into(),
        journal.display().to_string(),
    ];
    if cfg.small {
        args.push("--small".into());
    }
    args
}

fn agent_args(cfg: &ChaosConfig, plan: &SoakPlan, addr: &str, cdn: u32) -> Vec<String> {
    let silent: Vec<String> = plan
        .silent_rounds_for(cdn)
        .iter()
        .map(u64::to_string)
        .collect();
    let mut args = vec![
        "--cdn".into(),
        cdn.to_string(),
        "--connect".into(),
        addr.to_string(),
        "--seed".into(),
        cfg.seed.to_string(),
        // Survive the kill-restart window comfortably: the daemon's
        // scenario rebuild dominates it, and the harness reaps agents
        // itself once the campaign is checked.
        "--retry".into(),
        "400".into(),
        "--retry-base-ms".into(),
        "20".into(),
        "--retry-cap-ms".into(),
        "250".into(),
    ];
    if cfg.small {
        args.push("--small".into());
    }
    if !silent.is_empty() {
        args.push("--silent".into());
        args.push(silent.join(","));
    }
    args
}

#[allow(clippy::too_many_arguments)]
fn run_trial(
    cfg: &ChaosConfig,
    plan: &SoakPlan,
    reference: &[vdx_core::DriverRound],
    num_cdns: usize,
    crash_round: u64,
    phase: CrashPhase,
    fault: TailFault,
    rng: &mut StdRng,
) -> Result<TrialReport, String> {
    let daemon_bin = bin_path("vdx-exchanged")?;
    let agent_bin = bin_path("vdx-agent")?;
    let tag = format!("r{crash_round}-{}", phase.name());
    let wal = cfg.work_dir.join(format!("trial-{tag}.wal"));
    let _ = std::fs::remove_file(&wal);
    let port = free_port()?;
    let addr = format!("127.0.0.1:{port}");

    let journal_a = cfg.work_dir.join(format!("trial-{tag}-before.jsonl"));
    let journal_b = cfg.work_dir.join(format!("trial-{tag}-after.jsonl"));
    let mut daemon = spawn(
        &daemon_bin,
        &daemon_args(cfg, plan, &addr, &wal, &journal_a, num_cdns),
        &cfg.work_dir.join(format!("trial-{tag}-daemon-before.log")),
    )?;
    // Agents outlive the kill; the Drop guard reaps them on any exit.
    let _agents: Vec<Proc> = (0..num_cdns as u32)
        .map(|cdn| {
            spawn(
                &agent_bin,
                &agent_args(cfg, plan, &addr, cdn),
                &cfg.work_dir.join(format!("trial-{tag}-agent{cdn}.log")),
            )
        })
        .collect::<Result<_, _>>()?;

    // Kill when the WAL shows the crash round reaching the phase. The
    // settlement can race a mid-round poll; the WAL read after the kill
    // records what the restart will actually see.
    let marker = |records: &[WalRecord]| {
        records.iter().any(|r| match (phase, r) {
            (CrashPhase::MidRound, WalRecord::AnnounceOpen { round }) => *round == crash_round,
            (CrashPhase::Settled, WalRecord::Settlement(dr)) => dr.round == crash_round,
            _ => false,
        })
    };
    wait_for_wal(
        &wal,
        &format!("round {crash_round} to reach {}", phase.name()),
        marker,
    )?;
    daemon.kill_now();

    let (records_at_kill, _) =
        read_records(&wal).map_err(|e| format!("post-kill read of {}: {e}", wal.display()))?;
    let committed_at_kill = replay(records_at_kill, num_cdns).rounds.len();
    let fault_applied = mutate_tail(&wal, fault, rng)?;
    let fault_detected_bytes = if fault_applied {
        let (_, garbage) =
            read_records(&wal).map_err(|e| format!("post-fault read of {}: {e}", wal.display()))?;
        if garbage == 0 {
            return Err(format!(
                "{} fault on {} was not detected as a torn tail",
                fault.name(),
                wal.display()
            ));
        }
        garbage
    } else {
        0
    };

    // Restart on the same WAL and the same address; the daemon must
    // recover, re-admit the resuming agents, and finish the campaign.
    let mut daemon = spawn(
        &daemon_bin,
        &daemon_args(cfg, plan, &addr, &wal, &journal_b, num_cdns),
        &cfg.work_dir.join(format!("trial-{tag}-daemon-after.log")),
    )?;
    match wait_with_timeout(&mut daemon.child)? {
        None => {
            return Err(format!(
                "restarted daemon not done after {WAIT_MS}ms (trial {tag}; see its log in {})",
                cfg.work_dir.display()
            ))
        }
        Some(status) if !status.success() => {
            return Err(format!(
                "restarted daemon exited with {status} (trial {tag}; see its log in {})",
                cfg.work_dir.display()
            ))
        }
        Some(_) => {}
    }

    let (final_records, garbage) =
        read_records(&wal).map_err(|e| format!("final read of {}: {e}", wal.display()))?;
    if garbage > 0 {
        return Err(format!(
            "final WAL still carries {garbage} byte(s) of torn tail — recovery did not truncate"
        ));
    }
    let recovery = replay(final_records, num_cdns);
    let parity = recovery.rounds.len() == reference.len()
        && format!("{:?}", recovery.rounds) == format!("{reference:?}");
    Ok(TrialReport {
        crash_round,
        phase,
        fault,
        fault_applied,
        fault_detected_bytes,
        committed_at_kill,
        parity,
    })
}

/// Runs the full chaos campaign: one kill-restart trial per crash
/// round, phases drawn from a [`StdRng`] seeded with `cfg.seed`, tail
/// faults cycling `none → truncate → flip-byte` (faults force a
/// mid-round kill, where the tail is staged and tearing it is a crash,
/// not data loss). Progress goes to stderr; artifacts to
/// `cfg.work_dir`.
pub fn run_chaos(cfg: &ChaosConfig) -> Result<ChaosReport, String> {
    std::fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", cfg.work_dir.display()))?;
    // Fail on missing binaries before paying for the scenario build.
    bin_path("vdx-exchanged")?;
    bin_path("vdx-agent")?;

    eprintln!("chaos: building scenario (seed {}) ...", cfg.seed);
    let scenario = Scenario::build(ScenarioConfig::at_scale(cfg.small, Some(cfg.seed)));
    let num_cdns = scenario.fleet.cdns.len();
    let plan = SoakPlan::ladder(num_cdns as u32);
    let reference = run_reference(
        &scenario,
        Design::Marketplace,
        CpPolicy::balanced(),
        plan.clone(),
        vdx_obs::probe::noop(),
    );

    let crash_rounds: Vec<u64> = match &cfg.crash_rounds {
        Some(rounds) => rounds.clone(),
        None => (0..plan.rounds.len() as u64).collect(),
    };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut trials = Vec::with_capacity(crash_rounds.len());
    for (i, &crash_round) in crash_rounds.iter().enumerate() {
        if crash_round >= plan.rounds.len() as u64 {
            return Err(format!(
                "--crash-at {crash_round} is past the {}-round campaign",
                plan.rounds.len()
            ));
        }
        let fault = match i % 3 {
            1 => TailFault::Truncate,
            2 => TailFault::FlipByte,
            _ => TailFault::None,
        };
        let phase = if fault != TailFault::None || rng.gen_range(0..2u32) == 0 {
            CrashPhase::MidRound
        } else {
            CrashPhase::Settled
        };
        eprintln!(
            "chaos: trial {}/{} — kill at round {crash_round} ({}), tail fault {}",
            i + 1,
            crash_rounds.len(),
            phase.name(),
            fault.name()
        );
        let trial = run_trial(
            cfg,
            &plan,
            &reference,
            num_cdns,
            crash_round,
            phase,
            fault,
            &mut rng,
        )?;
        eprintln!(
            "chaos: trial {}/{} — {} committed at kill, fault {}, parity {}",
            i + 1,
            crash_rounds.len(),
            trial.committed_at_kill,
            if trial.fault_applied {
                "applied+detected"
            } else {
                "skipped"
            },
            if trial.parity { "OK" } else { "FAILED" }
        );
        trials.push(trial);
    }
    Ok(ChaosReport {
        trials,
        rounds: plan.rounds.len(),
    })
}

/// Validates an existing WAL against the uninterrupted reference for
/// `plan`: every plan round must be committed, and the replayed
/// [`DriverRound`](vdx_core::DriverRound) sequence must match the
/// reference `Debug`-byte for `Debug`-byte. Returns the committed
/// round count on success.
pub fn check_wal(
    path: &Path,
    scenario: &Scenario,
    design: Design,
    plan: &SoakPlan,
) -> Result<usize, String> {
    let (records, garbage) =
        read_records(path).map_err(|e| format!("cannot read WAL {}: {e}", path.display()))?;
    if garbage > 0 {
        return Err(format!(
            "{garbage} byte(s) of torn tail in {} — the daemon has not reopened this log since \
             the crash; restart it (or expect a voided round)",
            path.display()
        ));
    }
    let num_cdns = scenario.fleet.cdns.len();
    let recovery = replay(records, num_cdns);
    let reference = run_reference(
        scenario,
        design,
        CpPolicy::balanced(),
        plan.clone(),
        vdx_obs::probe::noop(),
    );
    if recovery.rounds.len() != reference.len() {
        return Err(format!(
            "WAL holds {} committed round(s); the campaign has {}",
            recovery.rounds.len(),
            reference.len()
        ));
    }
    if format!("{:?}", recovery.rounds) != format!("{reference:?}") {
        let first = recovery
            .rounds
            .iter()
            .zip(reference.iter())
            .position(|(a, b)| format!("{a:?}") != format!("{b:?}"))
            .unwrap_or(0);
        return Err(format!(
            "WAL diverges from the reference at round {first}: wal={:?} reference={:?}",
            recovery.rounds.get(first),
            reference.get(first)
        ));
    }
    Ok(recovery.rounds.len())
}
