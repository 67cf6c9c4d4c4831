//! The [`Probe`] trait: how instrumented code hands events to whoever is
//! listening.
//!
//! Instrumented call sites hold a `&dyn Probe` (or `Arc<dyn Probe>` in
//! stateful types) and call [`Probe::emit`] at interesting moments. The
//! default everywhere is [`NoopProbe`], whose [`Probe::enabled`] returns
//! `false`; hot paths guard event *construction* behind that check, so an
//! uninstrumented run pays a virtual call returning a constant and nothing
//! else.
//!
//! Two real sinks ship: [`MemoryProbe`] (the sending half of a channel,
//! for tests and in-process analysis) and [`Journal`](crate::Journal)
//! (one JSONL line per event, for the repro CLI and the daemon). Neither
//! takes a lock.

use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;

use crate::event::Event;

/// An event sink threaded through instrumented code.
///
/// Implementations must be cheap to call: `emit` runs on simulation hot
/// paths (once per protocol step, not per packet byte, but still often).
pub trait Probe: Send + Sync {
    /// Receives one event.
    fn emit(&self, event: Event);

    /// Whether this probe wants events at all. Call sites use this to skip
    /// building events (allocation, string formatting) for no-op probes.
    fn enabled(&self) -> bool {
        true
    }
}

/// The default probe: drops everything, reports itself disabled.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoopProbe;

impl Probe for NoopProbe {
    fn emit(&self, _event: Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// A shared no-op probe, for the common "default field value" case.
pub fn noop() -> Arc<dyn Probe> {
    Arc::new(NoopProbe)
}

/// Sends every event down an `mpsc` channel, in emission order; for
/// tests and in-process analysis. The reader holds the [`Receiver`] from
/// [`MemoryProbe::channel`] and collects with `rx.try_iter()`.
#[derive(Debug)]
pub struct MemoryProbe {
    events: Sender<Event>,
}

impl MemoryProbe {
    /// A probe and the receiver its events arrive on.
    pub fn channel() -> (MemoryProbe, Receiver<Event>) {
        let (events, rx) = mpsc::channel();
        (MemoryProbe { events }, rx)
    }

    /// An enabled probe whose receiver is already dropped: call sites
    /// build every event and the probe discards it. What it is for is
    /// timing event construction.
    pub fn new() -> MemoryProbe {
        MemoryProbe::channel().0
    }
}

impl Default for MemoryProbe {
    fn default() -> Self {
        MemoryProbe::new()
    }
}

impl Probe for MemoryProbe {
    fn emit(&self, event: Event) {
        // A dropped receiver means nobody reads; the event goes with it.
        let _ = self.events.send(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;

    #[test]
    fn noop_probe_is_disabled_and_silent() {
        let p = NoopProbe;
        assert!(!p.enabled());
        p.emit(Event::PhaseStarted { phase: "x".into() });
    }

    #[test]
    fn memory_probe_collects_in_order() {
        let (p, rx) = MemoryProbe::channel();
        assert!(p.enabled());
        p.emit(Event::PhaseStarted { phase: "a".into() });
        p.emit(Event::PhaseStarted { phase: "b".into() });
        let events: Vec<Event> = rx.try_iter().collect();
        assert_eq!(events.len(), 2);
        assert!(matches!(&events[0], Event::PhaseStarted { phase } if phase == "a"));
        assert_eq!(rx.try_iter().count(), 0);
        // Without a receiver the probe still takes events.
        MemoryProbe::new().emit(Event::PhaseStarted { phase: "c".into() });
    }

    #[test]
    fn probe_objects_are_shareable() {
        let shared: Arc<dyn Probe> = Arc::new(MemoryProbe::new());
        let clone = Arc::clone(&shared);
        clone.emit(Event::PhaseStarted {
            phase: "shared".into(),
        });
        assert!(shared.enabled());
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("vdx-obs-probe-{name}-{}.jsonl", std::process::id()));
        path
    }

    #[test]
    fn journal_probe_round_trips_to_disk() {
        let path = temp_path("roundtrip");
        let probe = Journal::create(&path).expect("create");
        probe.emit(Event::PhaseStarted { phase: "p".into() });
        assert_eq!(probe.len(), 1);
        probe.finish("t", 0).expect("finish");
        let events = crate::journal::read_journal(&path).expect("read");
        assert_eq!(events.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_completed_round_is_on_disk_while_the_probe_lives() {
        let path = temp_path("flush");
        let probe = Journal::create(&path).expect("create");
        probe.emit(Event::PhaseStarted { phase: "p".into() });
        probe.emit(Event::RoundCompleted {
            round: 0,
            objective: 1.5,
            options: 2,
            wall_us: 7,
        });
        // A SIGKILL here loses nothing: no drop, no `finish`.
        let events = crate::journal::read_journal(&path).expect("read");
        assert_eq!(events.len(), 2);
        drop(probe);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn concurrent_emitters_write_whole_lines() {
        let path = temp_path("threads");
        let probe = Journal::create(&path).expect("create");
        std::thread::scope(|s| {
            for thread in 0..8 {
                let probe = &probe;
                s.spawn(move || {
                    for i in 0..1_000 {
                        probe.emit(Event::PhaseStarted {
                            phase: format!("t{thread}-{i}-{}", "x".repeat(i % 300)),
                        });
                    }
                });
            }
        });
        probe.finish("threads", 0).expect("finish");
        let text = std::fs::read_to_string(&path).expect("read");
        let events = crate::journal::parse_journal(&text).expect("every line parses");
        assert_eq!(events.len(), 8_001);
        // Each thread's lines are all there, whole and in its own order.
        for thread in 0..8 {
            let mine: Vec<String> = (events.iter())
                .filter_map(|e| match e {
                    Event::PhaseStarted { phase } => phase
                        .strip_prefix(&format!("t{thread}-"))
                        .map(str::to_owned),
                    _ => None,
                })
                .collect();
            let expected: Vec<String> = (0..1_000)
                .map(|i| format!("{i}-{}", "x".repeat(i % 300)))
                .collect();
            assert_eq!(mine, expected, "thread {thread}");
        }
        assert!(matches!(
            events.last(),
            Some(Event::ExperimentFinished { events: 8_000, .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn the_first_write_error_comes_back_from_finish() {
        let probe = Journal::create("/dev/full").expect("open /dev/full");
        probe.emit(Event::RoundCompleted {
            round: 0,
            objective: 1.5,
            options: 2,
            wall_us: 7,
        });
        assert_eq!(probe.len(), 0, "the failed line is not counted");
        let err = probe
            .finish("t", 0)
            .expect_err("the write hit a full device")
            .to_string();
        assert!(err.contains("No space left"), "{err}");
    }
}
