//! What the three binaries (`repro`, `vdx-exchanged`, `vdx-agent`) share:
//! the flag readers and the flight-recorder lifecycle of one run.

use std::str::FromStr;
use std::sync::Arc;

use vdx_core::Design;
use vdx_obs::timing::run_header;
use vdx_obs::{Event, Journal, Probe, Stopwatch};

/// The value after `--flag` on a command line, if both are present.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// [`flag_value`], parsed: `None` when the flag is absent. A value that
/// does not parse is an error naming flag and value, never the default.
pub fn flag_parsed<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    flag_value(args, flag)
        .map(|v| v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")))
        .transpose()
}

/// Refuses any `--` argument that `usage`, the binary's usage text, does
/// not name: a misspelt or retired flag is an error naming it, never
/// ignored.
pub fn refuse_unknown_flags(args: &[String], usage: &str) -> Result<(), String> {
    let known: Vec<&str> = usage
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .collect();
    match (args.iter()).find(|a| a.starts_with("--") && !known.contains(&a.as_str())) {
        Some(flag) => Err(format!("unknown flag: {flag}")),
        None => Ok(()),
    }
}

/// `--design NAME`, Marketplace when absent. The error is the message
/// for a name no design answers to.
pub fn design_flag(args: &[String]) -> Result<Design, String> {
    match flag_value(args, "--design") {
        None => Ok(Design::Marketplace),
        Some(name) => Design::parse(&name).ok_or_else(|| format!("unknown design: {name}")),
    }
}

/// Runs `work` as the journaled phase `name`: a `phase_started` event,
/// the work, a `phase_finished` event carrying its wall time.
pub fn journaled_phase<T>(probe: &dyn Probe, name: &str, work: impl FnOnce() -> T) -> T {
    probe.emit(Event::PhaseStarted { phase: name.into() });
    let clock = Stopwatch::start();
    let out = work();
    probe.emit(Event::PhaseFinished {
        phase: name.into(),
        wall_us: clock.elapsed_us(),
    });
    out
}

/// One run's flight recorder: the journal behind `--journal PATH`, from
/// its run header to its terminal record. Without a path nothing is
/// recorded and [`FlightRecorder::run_probe`] is the no-op probe.
pub struct FlightRecorder {
    journal: Option<Arc<Journal>>,
    experiment: String,
    clock: Stopwatch,
}

impl FlightRecorder {
    /// Starts the run clock and, when `args` carry `--journal PATH`,
    /// creates the journal and writes its run header.
    pub fn begin_run(
        args: &[String],
        experiment: &str,
        seed: u64,
        small: bool,
        threads: Option<usize>,
    ) -> Result<FlightRecorder, String> {
        let clock = Stopwatch::start();
        let journal = match flag_value(args, "--journal") {
            Some(path) => {
                let probe = Journal::create(&path)
                    .map_err(|e| format!("cannot create journal {path}: {e}"))?;
                // The header's `threads` is 0 when the run names no count.
                let threads = threads.map_or(0, |n| n as u64);
                probe.emit(run_header(experiment, seed, small, threads));
                Some(Arc::new(probe))
            }
            None => None,
        };
        Ok(FlightRecorder {
            journal,
            experiment: experiment.to_string(),
            clock,
        })
    }

    /// The probe the run reports to.
    pub fn run_probe(&self) -> Arc<dyn Probe> {
        match &self.journal {
            Some(probe) => probe.clone(),
            None => vdx_obs::probe::noop(),
        }
    }

    /// Writes the journal's terminal record and names the file on
    /// stderr. Every [`FlightRecorder::run_probe`] handle must have been
    /// dropped.
    pub fn end_run(self) -> Result<(), String> {
        let Some(probe) = self.journal else {
            return Ok(());
        };
        let journal = Arc::try_unwrap(probe)
            .map_err(|_| "journal probe still shared; cannot finish the journal".to_string())?;
        let path = journal.path().display().to_string();
        journal
            .finish(&self.experiment, self.clock.elapsed_ms())
            .map_err(|e| format!("failed to finish journal: {e}"))?;
        eprintln!("journal written: {path}");
        Ok(())
    }
}
