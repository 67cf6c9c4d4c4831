//! The process's two timing histograms: fixed, lock-free slots with
//! p50/p95/p99 summaries.
//!
//! Two timers exist, [`BROKER_OPTIMIZE`] and [`CORE_DECISION_ROUND`],
//! each a `static` [`Histogram`] whose fields are atomics: an
//! observation is a handful of relaxed atomic adds, from any thread,
//! with no lock and no allocation. Both start only on instrumented runs
//! (`probe.enabled()`). [`drain`] snapshots them as journal [`Event`]s,
//! in name order, and resets them, so one run's timings do not leak into
//! the next when the process hosts several experiments.
//!
//! Histograms use fixed 1-2-5 log-spaced bucket bounds over the
//! microsecond range (1 µs … 1 × 10⁹ µs ≈ 17 min), so recording is O(log
//! #buckets) with no allocation and quantiles need no sample retention.
//! A reported quantile is the upper bound of the bucket containing it,
//! clamped to the observed min/max — coarse, but stable and cheap, which
//! is the right trade for always-on probes.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

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

/// A fixed-bucket latency histogram (microsecond domain), recordable
/// through `&self` from any thread.
///
/// Reads ([`Histogram::count`], [`Histogram::quantile_us`], …) see each
/// field on its own, so they are exact once recording has stopped — which
/// is when [`drain`] runs: after the run's rounds have joined.
#[derive(Debug)]
pub struct Histogram {
    name: &'static str,
    /// `counts[i]` counts observations `<= BUCKET_BOUNDS_US[i]` (and above
    /// the previous bound); one final overflow bucket catches the rest.
    counts: [AtomicU64; BUCKET_BOUNDS_US.len() + 1],
    count: AtomicU64,
    sum_us: AtomicU64,
    min_us: AtomicU64,
    max_us: AtomicU64,
}

impl Histogram {
    /// An empty histogram journaled as `name`.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram {
            name,
            counts: [const { AtomicU64::new(0) }; BUCKET_BOUNDS_US.len() + 1],
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            min_us: AtomicU64::new(u64::MAX),
            max_us: AtomicU64::new(0),
        }
    }

    /// Records one observation in microseconds.
    pub fn record_us(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US.partition_point(|&bound| bound < us);
        if let Some(bucket) = self.counts.get(idx) {
            bucket.fetch_add(1, Relaxed);
        }
        self.count.fetch_add(1, Relaxed);
        self.sum_us.fetch_add(us, Relaxed);
        self.min_us.fetch_min(us, Relaxed);
        self.max_us.fetch_max(us, Relaxed);
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Mean in microseconds, 0.0 when empty.
    pub fn mean_us(&self) -> f64 {
        match self.count() {
            0 => 0.0,
            count => self.sum_us.load(Relaxed) as f64 / count as f64,
        }
    }

    /// Approximate quantile (`q` in [0, 1]) in microseconds: the upper
    /// bound of the bucket holding the q-th observation, clamped to the
    /// observed [min, max]. 0.0 when empty.
    pub fn quantile_us(&self, q: f64) -> f64 {
        let count = self.count();
        if count == 0 {
            return 0.0;
        }
        let (min_us, max_us) = (self.min_us.load(Relaxed), self.max_us.load(Relaxed));
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (idx, c) in self.counts.iter().enumerate() {
            seen += c.load(Relaxed);
            if seen >= rank {
                let bound = BUCKET_BOUNDS_US.get(idx).copied().unwrap_or(max_us);
                return (bound as f64).clamp(min_us as f64, max_us as f64);
            }
        }
        max_us as f64
    }

    /// This histogram as a journal [`Event::TimingSummary`], then reset;
    /// `None`, and nothing to reset, when it holds no observation.
    pub fn drain(&self) -> Option<Event> {
        if self.count() == 0 {
            return None;
        }
        let summary = Event::TimingSummary {
            name: self.name.to_string(),
            count: self.count(),
            mean_us: self.mean_us(),
            p50_us: self.quantile_us(0.50),
            p95_us: self.quantile_us(0.95),
            p99_us: self.quantile_us(0.99),
        };
        for bucket in &self.counts {
            bucket.store(0, Relaxed);
        }
        self.count.store(0, Relaxed);
        self.sum_us.store(0, Relaxed);
        self.min_us.store(u64::MAX, Relaxed);
        self.max_us.store(0, Relaxed);
        Some(summary)
    }
}

/// The broker's Optimize step (`vdx_broker::optimize`).
pub static BROKER_OPTIMIZE: Histogram = Histogram::new("broker.optimize");

/// One whole decision round (`vdx_core::decision`).
pub static CORE_DECISION_ROUND: Histogram = Histogram::new("core.decision_round");

/// Every timer, in name order.
static TIMERS: [&Histogram; 2] = [&BROKER_OPTIMIZE, &CORE_DECISION_ROUND];

/// Drains every timer into journal events — one
/// [`Event::TimingSummary`] per timer that recorded anything, in name
/// order — and resets them all.
pub fn drain() -> Vec<Event> {
    TIMERS.iter().filter_map(|timer| timer.drain()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = Histogram::new("t");
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
        let h = Histogram::new("t");
        assert_eq!(h.mean_us(), 0.0);
        assert_eq!(h.quantile_us(0.99), 0.0);
    }

    /// The only test in this crate that touches the two statics.
    #[test]
    fn drain_is_sorted_and_resets() {
        let names: Vec<&str> = TIMERS.iter().map(|t| t.name).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
        for timer in TIMERS.iter().rev() {
            timer.record_us(42);
        }
        let events = drain();
        assert_eq!(events.len(), TIMERS.len());
        for (event, name) in events.iter().zip(&names) {
            assert!(matches!(event, Event::TimingSummary { name: n, count: 1, .. } if n == name));
        }
        assert!(drain().is_empty(), "drain resets every timer");
    }

    #[test]
    fn an_unobserved_histogram_drains_to_nothing_and_a_drain_resets() {
        let h = Histogram::new("t");
        assert_eq!(h.drain(), None);
        h.record_us(7);
        h.record_us(9);
        assert!(matches!(
            h.drain(),
            Some(Event::TimingSummary { count: 2, mean_us, .. }) if mean_us == 8.0
        ));
        assert_eq!(h.drain(), None, "the first drain reset every field");
        h.record_us(3);
        assert_eq!(h.quantile_us(0.5), 3.0, "min and max were reset too");
    }

    #[test]
    fn concurrent_records_lose_no_observation() {
        let h = Histogram::new("t");
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || (0..10_000).for_each(|i| h.record_us(t * 10_000 + i)));
            }
        });
        assert_eq!(h.count(), 40_000);
        assert_eq!(h.quantile_us(1.0), 39_999.0);
        assert_eq!(h.mean_us(), 19_999.5);
    }
}
