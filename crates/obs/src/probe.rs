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
//! Two real sinks ship here: [`MemoryProbe`] (collects into a
//! mutex-guarded vec, for tests and benches) and
//! [`JournalProbe`] (forwards to a [`Journal`], for the repro CLI).

use std::sync::{Arc, Mutex, MutexGuard};

use crate::event::Event;
use crate::journal::Journal;

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

/// Collects events in memory; for tests, benches, and in-process analysis.
#[derive(Debug, Default)]
pub struct MemoryProbe {
    events: Mutex<Vec<Event>>,
}

impl MemoryProbe {
    /// Creates an empty collector.
    pub fn new() -> MemoryProbe {
        MemoryProbe::default()
    }

    fn buffer(&self) -> MutexGuard<'_, Vec<Event>> {
        self.events.lock().expect("event buffer lock poisoned")
    }

    /// Clones out everything collected so far.
    pub fn events(&self) -> Vec<Event> {
        self.buffer().clone()
    }

    /// Removes and returns everything collected so far.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *self.buffer())
    }

    /// Number of events collected.
    pub fn len(&self) -> usize {
        self.buffer().len()
    }

    /// True when nothing has been collected.
    pub fn is_empty(&self) -> bool {
        self.buffer().is_empty()
    }
}

impl Probe for MemoryProbe {
    fn emit(&self, event: Event) {
        self.buffer().push(event);
    }
}

/// Forwards events to a [`Journal`]. Write errors are counted (and the
/// first is remembered) rather than propagated — a probe must never abort
/// the simulation it observes.
#[derive(Debug)]
pub struct JournalProbe {
    journal: Mutex<Journal>,
    write_errors: Mutex<Option<String>>,
}

impl JournalProbe {
    /// Wraps an open journal.
    pub fn new(journal: Journal) -> JournalProbe {
        JournalProbe {
            journal: Mutex::new(journal),
            write_errors: Mutex::new(None),
        }
    }

    /// Unwraps the journal (e.g. to `finish` it). Reports the first write
    /// error swallowed during emission, if any.
    pub fn into_journal(self) -> Result<Journal, String> {
        const POISONED: &str = "a thread panicked while journaling";
        if let Some(err) = self.write_errors.into_inner().map_err(|_| POISONED)? {
            return Err(err);
        }
        self.journal.into_inner().map_err(|_| POISONED.to_string())
    }

    /// Events written so far.
    pub fn len(&self) -> u64 {
        self.journal.lock().expect("journal lock poisoned").len()
    }

    /// True while no event has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Probe for JournalProbe {
    fn emit(&self, event: Event) {
        let written = self
            .journal
            .lock()
            .expect("journal lock poisoned")
            .write(&event);
        if let Err(e) = written {
            let mut slot = self
                .write_errors
                .lock()
                .expect("journal error slot lock poisoned");
            if slot.is_none() {
                *slot = Some(e.to_string());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_probe_is_disabled_and_silent() {
        let p = NoopProbe;
        assert!(!p.enabled());
        p.emit(Event::PhaseStarted { phase: "x".into() });
    }

    #[test]
    fn memory_probe_collects_in_order() {
        let p = MemoryProbe::new();
        assert!(p.enabled());
        p.emit(Event::PhaseStarted { phase: "a".into() });
        p.emit(Event::PhaseStarted { phase: "b".into() });
        let events = p.take();
        assert_eq!(events.len(), 2);
        assert!(matches!(&events[0], Event::PhaseStarted { phase } if phase == "a"));
        assert!(p.is_empty());
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

    #[test]
    fn journal_probe_round_trips_to_disk() {
        let mut path = std::env::temp_dir();
        path.push(format!("vdx-obs-probe-{}.jsonl", std::process::id()));
        let probe = JournalProbe::new(Journal::create(&path).expect("create"));
        probe.emit(Event::PhaseStarted { phase: "p".into() });
        assert_eq!(probe.len(), 1);
        let journal = probe.into_journal().expect("no write errors");
        journal.finish("t", 0).expect("finish");
        let events = crate::journal::read_journal(&path).expect("read");
        assert_eq!(events.len(), 2);
        std::fs::remove_file(&path).ok();
    }
}
