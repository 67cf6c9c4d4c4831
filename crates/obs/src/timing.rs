//! The run's clocks: the [`Stopwatch`] every timed span reads, and the
//! [`run_header`] that opens a journal.
//!
//! A timed span journals its own duration: the event that closes it
//! carries the raw reading as a `wall_us` field, and readers derive
//! whatever statistics they want from those lines (`repro obs-report`
//! prints exact percentiles).
//!
//! ```
//! use vdx_obs::{Event, Stopwatch};
//!
//! let clock = Stopwatch::start();
//! // ... timed work ...
//! let done = Event::PhaseFinished {
//!     phase: "demo".into(),
//!     wall_us: clock.elapsed_us(),
//! };
//! assert_eq!(done.kind(), "phase_finished");
//! ```
//!
//! This module is the one sanctioned exception to the workspace's
//! "no wall-clock reads in library code" convention (DESIGN.md §6): it
//! reads the *monotonic* clock ([`std::time::Instant`]), never the wall
//! calendar, and only to measure elapsed host time — which is exactly the
//! observability output the convention exists to keep out of simulation
//! results. Timer readings land in wall-clock-tagged journal fields that
//! `Event::zero_wall_clock` strips before any determinism comparison.

use std::time::Instant;

use crate::event::{Event, SCHEMA_VERSION};

/// The [`Event::RunHeader`] that opens a journal, stamped with the
/// current schema, the wall-clock start of the run and the checkout's
/// commit. The one sanctioned *calendar* read in the workspace:
/// `started_unix_ms` is a wall-clock field that `Event::zero_wall_clock`
/// zeroes before any byte-identity comparison.
pub fn run_header(experiment: &str, seed: u64, small: bool, threads: u64) -> Event {
    #[expect(
        clippy::disallowed_methods,
        reason = "the one sanctioned calendar read, scrubbed by `Event::zero_wall_clock`"
    )]
    let started_unix_ms = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0);
    Event::RunHeader {
        schema: SCHEMA_VERSION,
        experiment: experiment.to_string(),
        seed,
        scale: if small { "small" } else { "full" }.to_string(),
        started_unix_ms,
        threads,
        git_commit: git_commit(),
    }
}

/// Short git commit of the surrounding checkout, for run provenance in
/// journals and baselines. `unknown` outside a checkout or without git.
pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// A monotonic stopwatch for a span that ends at an explicit point: the
/// reading goes into the `wall_us` of the event that closes the span.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts the stopwatch.
    pub fn start() -> Stopwatch {
        Stopwatch {
            #[expect(
                clippy::disallowed_methods,
                reason = "the sanctioned monotonic-clock read: timing probes \
                          measure the run, they never feed results"
            )]
            start: Instant::now(),
        }
    }

    /// Elapsed microseconds since start.
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u64::MAX as u128) as u64
    }

    /// Elapsed milliseconds since start.
    pub fn elapsed_ms(&self) -> u64 {
        self.start.elapsed().as_millis().min(u64::MAX as u128) as u64
    }
}

impl Default for Stopwatch {
    fn default() -> Self {
        Stopwatch::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_us();
        let b = sw.elapsed_us();
        assert!(b >= a);
    }
}
