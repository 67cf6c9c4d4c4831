//! Process-wide metrics registry: named fixed-bucket histograms with
//! p50/p95/p99 summaries.
//!
//! The registry is mutex-guarded and cheap to hit from hot paths:
//! an observation is one mutex acquisition and a `BTreeMap` probe (an
//! ordered map keeps every iteration deterministic, so drained events
//! never depend on hash order). Names are dot-separated by convention
//! (`core.decision_round`, `broker.optimize`). [`Registry::drain`]
//! snapshots everything as journal [`Event`]s and resets the registry, so
//! one run's metrics do not leak into the next when the process hosts
//! several experiments.
//!
//! Histograms use fixed 1-2-5 log-spaced bucket bounds over the
//! microsecond range (1 µs … 1 × 10⁹ µs ≈ 17 min), so recording is O(log
//! #buckets) with no allocation and quantiles need no sample retention.
//! A reported quantile is the upper bound of the bucket containing it,
//! clamped to the observed min/max — coarse, but stable and cheap, which
//! is the right trade for always-on probes.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard};

use crate::event::Event;

/// Fixed histogram bucket upper bounds, microseconds, 1-2-5 spaced.
const BUCKET_BOUNDS_US: [u64; 28] = [
    1,
    2,
    5,
    10,
    20,
    50,
    100,
    200,
    500,
    1_000,
    2_000,
    5_000,
    10_000,
    20_000,
    50_000,
    100_000,
    200_000,
    500_000,
    1_000_000,
    2_000_000,
    5_000_000,
    10_000_000,
    20_000_000,
    50_000_000,
    100_000_000,
    200_000_000,
    500_000_000,
    1_000_000_000,
];

/// A fixed-bucket latency histogram (microsecond domain).
#[derive(Debug, Clone)]
pub struct Histogram {
    /// `counts[i]` counts observations `<= BUCKET_BOUNDS_US[i]` (and above
    /// the previous bound); one final overflow bucket catches the rest.
    counts: [u64; BUCKET_BOUNDS_US.len() + 1],
    count: u64,
    sum_us: u128,
    min_us: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; BUCKET_BOUNDS_US.len() + 1],
            count: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }
}

impl Histogram {
    /// Records one observation in microseconds.
    pub fn record_us(&mut self, us: u64) {
        let idx = BUCKET_BOUNDS_US.partition_point(|&bound| bound < us);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_us += us as u128;
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean in microseconds, 0.0 when empty.
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in [0, 1]) in microseconds: the upper
    /// bound of the bucket holding the q-th observation, clamped to the
    /// observed [min, max]. 0.0 when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bound = BUCKET_BOUNDS_US.get(idx).copied().unwrap_or(self.max_us);
                return (bound as f64).clamp(self.min_us as f64, self.max_us as f64);
            }
        }
        self.max_us as f64
    }

    /// Renders this histogram as a journal [`Event::TimingSummary`].
    pub fn summary(&self, name: &str) -> Event {
        Event::TimingSummary {
            name: name.to_string(),
            count: self.count,
            mean_us: self.mean_us(),
            p50_us: self.quantile_us(0.50),
            p95_us: self.quantile_us(0.95),
            p99_us: self.quantile_us(0.99),
        }
    }
}

/// A named-metrics registry. One process-wide instance lives behind
/// [`global`]; scoped instances can be built for tests.
#[derive(Debug, Default)]
pub struct Registry {
    histograms: Mutex<BTreeMap<String, Histogram>>,
}

impl Registry {
    /// No panic can start under this lock (its critical sections are map
    /// updates), so a poisoned lock is a bug, not a state to handle.
    fn locked(&self) -> MutexGuard<'_, BTreeMap<String, Histogram>> {
        self.histograms
            .lock()
            .expect("metrics registry lock poisoned")
    }

    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    /// Records `us` microseconds into the named histogram.
    pub fn observe_us(&self, name: &str, us: u64) {
        self.locked()
            .entry(name.to_string())
            .or_default()
            .record_us(us);
    }

    /// Snapshot of the named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<Histogram> {
        self.locked().get(name).cloned()
    }

    /// Drains the registry into journal events — one
    /// [`Event::TimingSummary`] per histogram, in name order (the map is
    /// ordered) for deterministic output — then resets all state.
    pub fn drain(&self) -> Vec<Event> {
        std::mem::take(&mut *self.locked())
            .iter()
            .map(|(name, histogram)| histogram.summary(name))
            .collect()
    }
}

/// The process-wide registry; scoped timers and probes feed this by
/// default.
pub fn global() -> &'static Registry {
    static GLOBAL: std::sync::OnceLock<Registry> = std::sync::OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let mut h = Histogram::default();
        for us in [10, 12, 15, 100, 3_000] {
            h.record_us(us);
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile_us(0.50);
        assert!(
            (10.0..=20.0).contains(&p50),
            "p50 {p50} should land in the 10..20 bucket"
        );
        let p99 = h.quantile_us(0.99);
        assert!(
            (2_000.0..=3_000.0).contains(&p99),
            "p99 {p99} clamped to max"
        );
        assert!((h.mean_us() - 627.4).abs() < 0.1);
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Histogram::default();
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.quantile_us(0.99), 0.0);
    }

    #[test]
    fn drain_is_sorted_and_resets() {
        // Enough names, inserted in reverse, that a hash map's iteration
        // order cannot come out sorted by luck.
        let names: Vec<String> = (0..16).map(|i| format!("m.{i:02}")).collect();
        let reg = Registry::new();
        for name in names.iter().rev() {
            reg.observe_us(name, 42);
        }
        let events = reg.drain();
        assert_eq!(events.len(), 16);
        for (event, name) in events.iter().zip(&names) {
            assert!(matches!(event, Event::TimingSummary { name: n, count: 1, .. } if n == name));
        }
        assert!(reg.drain().is_empty(), "drain resets the registry");
    }
}
