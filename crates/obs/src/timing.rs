//! RAII scoped timers that feed named histograms in a [`Registry`].
//!
//! ```
//! use vdx_obs::metrics::Registry;
//! use vdx_obs::timing::ScopedTimer;
//!
//! let registry = Registry::new();
//! {
//!     let _timer = ScopedTimer::new(&registry, "demo.section");
//!     // ... timed work ...
//! }
//! assert_eq!(registry.histogram("demo.section").unwrap().count(), 1);
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
use crate::metrics::Registry;

/// The [`Event::RunHeader`] that opens a journal, stamped with the
/// current schema, the wall-clock start of the run and the checkout's
/// commit. The one sanctioned *calendar* read in the workspace:
/// `started_unix_ms` is a wall-clock field that `Event::zero_wall_clock`
/// zeroes before any byte-identity comparison.
pub fn run_header(experiment: &str, seed: u64, small: bool, threads: u64) -> Event {
    #[allow(clippy::disallowed_methods)]
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

/// Times a scope and records the elapsed microseconds into the named
/// histogram of `registry` on drop.
#[derive(Debug)]
pub struct ScopedTimer<'a> {
    registry: &'a Registry,
    name: &'static str,
    start: Instant,
}

impl<'a> ScopedTimer<'a> {
    /// Starts timing; the measurement is recorded when the value drops.
    pub fn new(registry: &'a Registry, name: &'static str) -> ScopedTimer<'a> {
        ScopedTimer {
            registry,
            name,
            // The sanctioned monotonic-clock read: timing probes measure the
            // run, they never feed results (see DESIGN.md §10: the journal
            // byte-identity tests are what hold that).
            #[allow(clippy::disallowed_methods)]
            start: Instant::now(),
        }
    }

    /// Starts a timer against the process-wide registry
    /// ([`crate::metrics::global`]).
    pub fn global(name: &'static str) -> ScopedTimer<'static> {
        ScopedTimer::new(crate::metrics::global(), name)
    }

    /// Elapsed time so far, microseconds (the value drop will record).
    pub fn elapsed_us(&self) -> u64 {
        self.start.elapsed().as_micros().min(u64::MAX as u128) as u64
    }
}

impl Drop for ScopedTimer<'_> {
    fn drop(&mut self) {
        self.registry.observe_us(self.name, self.elapsed_us());
    }
}

/// A free-standing stopwatch for phases that end at an explicit point
/// rather than a scope boundary (e.g. CLI phase bookkeeping). Does not
/// touch any registry; callers decide where the reading goes.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts the stopwatch.
    pub fn start() -> Stopwatch {
        Stopwatch {
            // Sanctioned monotonic-clock read, as above.
            #[allow(clippy::disallowed_methods)]
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
    fn scoped_timer_records_on_drop() {
        let registry = Registry::new();
        {
            let timer = ScopedTimer::new(&registry, "t.scope");
            let _ = timer.elapsed_us();
        }
        let h = registry.histogram("t.scope").expect("histogram exists");
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn nested_timers_record_independently() {
        let registry = Registry::new();
        {
            let _outer = ScopedTimer::new(&registry, "t.outer");
            {
                let _inner = ScopedTimer::new(&registry, "t.inner");
            }
            {
                let _inner = ScopedTimer::new(&registry, "t.inner");
            }
        }
        assert_eq!(registry.histogram("t.outer").unwrap().count(), 1);
        assert_eq!(registry.histogram("t.inner").unwrap().count(), 2);
    }

    #[test]
    fn stopwatch_is_monotone() {
        let sw = Stopwatch::start();
        let a = sw.elapsed_us();
        let b = sw.elapsed_us();
        assert!(b >= a);
    }
}
