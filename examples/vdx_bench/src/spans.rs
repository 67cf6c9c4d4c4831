//! In-memory spans for the traced run, and the per-layer samples they
//! produce.
//!
//! Spans wrap only calls the harness itself makes into the vdx crates.
//! Each thread records into its own [`SpanLog`] against one shared clock;
//! the logs are merged after the threads join and written once, at exit.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use vdx_obs::Stopwatch;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.resolve`.
    pub name: &'static str,
    /// Microseconds since the run clock started.
    pub start_us: u64,
    /// Microseconds since the run clock started.
    pub end_us: u64,
    /// Name of the span this one ran under (`op`, `replay`, `setup`), or
    /// empty for a top-level span.
    pub parent: &'static str,
    /// The operation (round or pass) the span belongs to.
    pub round: u64,
}

/// A thread's span recorder. Disabled logs time calls but keep nothing, so
/// the untraced run pays one clock read pair per call and no allocation.
#[derive(Debug, Clone)]
pub struct SpanLog {
    clock: Stopwatch,
    enabled: bool,
    spans: Vec<Span>,
}

impl SpanLog {
    /// A log on a new clock.
    pub fn new(enabled: bool) -> SpanLog {
        SpanLog {
            clock: Stopwatch::start(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// An empty log on the same clock, for another thread.
    pub fn fork(&self) -> SpanLog {
        SpanLog {
            clock: self.clock,
            enabled: self.enabled,
            spans: Vec::new(),
        }
    }

    /// Microseconds since the run clock started.
    pub fn now_us(&self) -> u64 {
        self.clock.elapsed_us()
    }

    /// Records a span whose ends were read by the caller.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: &'static str,
        round: u64,
        start_us: u64,
        end_us: u64,
    ) {
        if self.enabled {
            self.spans.push(Span {
                name,
                start_us,
                end_us,
                parent,
                round,
            });
        }
    }

    /// Runs `f` under a span; returns its result and duration in
    /// microseconds.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: &'static str,
        round: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start_us = self.now_us();
        let out = std::hint::black_box(f());
        let end_us = self.now_us();
        self.record(name, parent, round, start_us, end_us);
        (out, (end_us - start_us) as f64)
    }

    /// Takes another thread's spans.
    pub fn merge(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// The spans as JSON lines, ordered by start time.
    pub fn to_jsonl(&self) -> String {
        let mut spans: Vec<&Span> = self.spans.iter().collect();
        spans.sort_by_key(|s| (s.start_us, s.end_us));
        let mut out = String::new();
        for s in spans {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":\"{}\",\"round\":{}}}",
                s.name, s.start_us, s.end_us, s.parent, s.round
            );
        }
        out
    }
}

/// Per-layer measurements of one run: timing samples (reported as their
/// median unless the workload reduces them itself) and plain values.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Adds one sample to `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// The samples recorded under `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Every name with at least one sample.
    pub fn names(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.samples.keys().copied()
    }

    /// Takes another instance's samples.
    pub fn merge(&mut self, other: Layers) {
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
    }
}
