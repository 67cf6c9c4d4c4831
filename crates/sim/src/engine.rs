//! Deterministic parallel experiment engine.
//!
//! Decision rounds are pure functions of `(scenario, round id, design,
//! policy)`, so independent rounds of one experiment can run concurrently.
//! Determinism is preserved by construction:
//!
//! * round ids are assigned by the experiment driver *before* fan-out
//!   (never drawn from a shared counter), so each round's journal events
//!   are identical regardless of schedule;
//! * results come back through an indexed collect, so the output vector
//!   order matches the spec order exactly;
//! * when a probe is attached, each round journals into its own private
//!   buffer and the buffers are flushed to the shared probe in spec
//!   order — the journal byte stream is the same for 1 or N threads.
//!
//! A round's outcome carries its whole option table (954,018 options for
//! an Omniscient round at the paper's scale), so the experiment's fold
//! runs on the worker as soon as the round finishes, before the worker
//! claims the next: at N threads N outcomes are alive at a time, and what
//! comes back is what the fold kept.
//!
//! The fan-out runs on [`Scenario::threads`] scoped threads (`repro
//! --threads N`). A scenario nobody configured has one, and everything
//! runs on the calling thread with identical results.

use crate::scenario::Scenario;
use std::sync::atomic::{AtomicUsize, Ordering};
use vdx_broker::{CpPolicy, OptimizeContext};
use vdx_core::{Design, RoundId, RoundOutcome};
use vdx_obs::{MemoryProbe, NoopProbe, Probe};

/// One independent decision round an experiment wants run.
#[derive(Debug, Clone, Copy)]
pub struct RoundSpec {
    /// Caller-assigned round id, journaled in every event of the round.
    pub round: RoundId,
    /// The design to run.
    pub design: Design,
    /// The content-provider policy.
    pub policy: CpPolicy,
    /// Marketplace bid-count override (Fig 18), if any.
    pub bid_count: Option<usize>,
}

impl RoundSpec {
    /// A spec with no bid-count override.
    pub fn new(round: u64, design: Design, policy: CpPolicy) -> RoundSpec {
        RoundSpec {
            round: RoundId(round),
            design,
            policy,
            bid_count: None,
        }
    }

    /// Sets the marketplace bid-count override.
    pub fn with_bid_count(mut self, bids: usize) -> RoundSpec {
        self.bid_count = Some(bids);
        self
    }
}

/// Maps `f` over `items` on up to `threads` threads (the caller's
/// included), returning results in item order whatever the schedule.
/// Workers claim the next unclaimed index from a shared counter, so a
/// slow item delays only the worker that drew it. With one thread, or one
/// item, nothing is spawned.
pub fn map_indexed<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = threads.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // Relaxed: the counter hands out indices and publishes nothing else;
    // results travel back through `join`.
    let next = AtomicUsize::new(0);
    let work = || {
        let mut done = Vec::new();
        while let Some((i, item)) = claim(&next, items) {
            done.push((i, f(item)));
        }
        done
    };
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (1..workers).map(|_| scope.spawn(work)).collect();
        let mut done = work();
        for handle in spawned {
            // A worker's panic is the caller's: same message, same test failure.
            done.extend(
                handle
                    .join()
                    .unwrap_or_else(|p| std::panic::resume_unwind(p)),
            );
        }
        done
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, result)| result).collect()
}

/// The next unclaimed `(index, item)`, or `None` once all are taken.
fn claim<'a, T>(next: &AtomicUsize, items: &'a [T]) -> Option<(usize, &'a T)> {
    let i = next.fetch_add(1, Ordering::Relaxed);
    items.get(i).map(|item| (i, item))
}

/// Runs `unit` once per spec through [`map_indexed`] and returns the
/// results in spec order. With a probe attached to the scenario each
/// unit journals into its own buffer and the buffers are flushed to the
/// shared probe in spec order, so the journal is byte-identical to a
/// serial run; without one, units run under [`NoopProbe`] and buffer
/// nothing.
fn fan_out<R, F>(scenario: &Scenario, specs: &[RoundSpec], unit: F) -> Vec<R>
where
    R: Send,
    F: Fn(&RoundSpec, &dyn Probe) -> R + Sync,
{
    let shared = scenario.probe();
    if !shared.enabled() {
        return map_indexed(scenario.threads(), specs, |spec| unit(spec, &NoopProbe));
    }
    let pairs = map_indexed(scenario.threads(), specs, |spec| {
        let buffer = MemoryProbe::new();
        let result = unit(spec, &buffer);
        (result, buffer.take())
    });
    let mut results = Vec::with_capacity(pairs.len());
    for (result, events) in pairs {
        for event in events {
            shared.emit(event);
        }
        results.push(result);
    }
    results
}

/// Runs every spec against `scenario`, folds each outcome with `fold` on
/// the worker that ran it, and returns the folds in spec order. Journal
/// events, if a probe is attached to the scenario, are buffered per round
/// and emitted in spec order, so the journal is byte-identical to a
/// serial run.
pub fn run_rounds<R, F>(scenario: &Scenario, specs: &[RoundSpec], fold: F) -> Vec<R>
where
    R: Send,
    F: Fn(&RoundSpec, RoundOutcome) -> R + Sync,
{
    fan_out(scenario, specs, |spec, probe| {
        let outcome =
            scenario.run_round_probed(spec.round, spec.design, spec.policy, spec.bid_count, probe);
        fold(spec, outcome)
    })
}

/// Runs each spec as a **series** of `rounds` consecutive decision rounds
/// sharing one warm-start [`OptimizeContext`] (the round hot loop), and
/// returns each series' *last* outcome, folded as in [`run_rounds`], in
/// spec order.
///
/// A series is one sequential round stream — the unit of warm-start
/// sharing — so series fan out in parallel (one context each, no
/// cross-thread state) while rounds within a series run in order. The
/// series starting at `spec.round` journals round ids
/// `spec.round .. spec.round + rounds`; callers must assign
/// non-overlapping id blocks.
///
/// With `reuse` off every round re-solves from scratch (the
/// `--solver-cold` reference); outcomes and journal bytes are identical
/// either way, because the warm path only skips recomputing answers that
/// determinism pins down and the journaled `SolverResolve` delta lines
/// are a pure function of the round sequence. Per-series journal buffers
/// are flushed in spec order, exactly like [`run_rounds`], so `--threads
/// N` journals stay byte-identical too.
pub fn run_series<R, F>(
    scenario: &Scenario,
    series: &[RoundSpec],
    rounds: u64,
    reuse: bool,
    fold: F,
) -> Vec<R>
where
    R: Send,
    F: Fn(&RoundSpec, RoundOutcome) -> R + Sync,
{
    assert!(rounds >= 1, "a series needs at least one round");
    fan_out(scenario, series, |spec, probe| {
        let mut ctx = OptimizeContext::new();
        ctx.set_reuse(reuse);
        let mut last = None;
        for j in 0..rounds {
            last = Some(scenario.run_round_probed_ctx(
                RoundId(spec.round.0 + j),
                spec.design,
                spec.policy,
                spec.bid_count,
                probe,
                &mut ctx,
            ));
        }
        fold(spec, last.expect("rounds >= 1"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::shared_small;
    use std::sync::Arc;
    use vdx_obs::Event;

    #[test]
    fn map_indexed_keeps_item_order_on_any_thread_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial = map_indexed(1, &items, |&x| x * x);
        for threads in [2, 4, 64] {
            assert_eq!(map_indexed(threads, &items, |&x| x * x), serial);
        }
        assert!(map_indexed(4, &[] as &[u64], |&x| x).is_empty());
    }

    #[test]
    #[should_panic(expected = "item 5")]
    fn map_indexed_reraises_a_worker_panic() {
        let items: Vec<u64> = (0..8).collect();
        map_indexed(4, &items, |&x| assert!(x != 5, "item {x}"));
    }

    #[test]
    fn run_rounds_matches_serial_runs_in_spec_order() {
        let s = shared_small();
        let specs = [
            RoundSpec::new(0, Design::Brokered, CpPolicy::balanced()),
            RoundSpec::new(1, Design::Marketplace, CpPolicy::balanced()),
            RoundSpec::new(2, Design::BestLookup, CpPolicy::balanced()),
        ];
        // The fold sees each outcome with its own spec; what it keeps comes
        // back in spec order.
        let folded = run_rounds(s, &specs, |spec, outcome| {
            assert_eq!(outcome.design, spec.design);
            (spec.round, outcome.assignment.choice)
        });
        assert_eq!(folded.len(), specs.len());
        for (spec, (round, choice)) in specs.iter().zip(&folded) {
            let serial = s.run_round(spec.round, spec.design, spec.policy);
            assert_eq!((*round, &serial.assignment.choice), (spec.round, choice));
        }
    }

    #[test]
    fn run_rounds_journals_in_spec_order() {
        let mut s = crate::scenario::Scenario::build(crate::scenario::ScenarioConfig::small());
        let probe = Arc::new(vdx_obs::MemoryProbe::new());
        s.set_probe(probe.clone());
        let specs = [
            RoundSpec::new(5, Design::Marketplace, CpPolicy::balanced()),
            RoundSpec::new(3, Design::Brokered, CpPolicy::balanced()),
        ];
        run_rounds(&s, &specs, |_, _| ());
        let started: Vec<u64> = probe
            .take()
            .iter()
            .filter_map(|e| match e {
                Event::RoundStarted { round, .. } => Some(*round),
                _ => None,
            })
            .collect();
        // Events arrive in spec order regardless of execution schedule.
        assert_eq!(started, vec![5, 3]);
    }

    #[test]
    fn warm_and_cold_series_agree_on_outcomes_and_journal_bytes() {
        let mut s = crate::scenario::Scenario::build(crate::scenario::ScenarioConfig::small());
        let probe = Arc::new(vdx_obs::MemoryProbe::new());
        s.set_probe(probe.clone());
        let series = [
            RoundSpec::new(0, Design::Marketplace, CpPolicy::balanced()),
            RoundSpec::new(3, Design::Brokered, CpPolicy::balanced()),
        ];
        let warm = run_series(&s, &series, 3, true, |_, outcome| outcome);
        let warm_events = probe.take();
        let cold = run_series(&s, &series, 3, false, |_, outcome| outcome);
        let cold_events = probe.take();
        assert_eq!(warm.len(), 2);
        for (w, c) in warm.iter().zip(&cold) {
            assert_eq!(w.assignment.choice, c.assignment.choice);
            assert_eq!(w.assignment.objective, c.assignment.objective);
        }
        // Equal Event values serialize identically, so this is journal
        // byte-identity between the warm and cold strategies.
        assert_eq!(warm_events, cold_events);
        // The scenario is static within a series, so rounds 2.. are
        // warm-eligible and the last outcome equals a one-round run.
        let eligible: Vec<bool> = warm_events
            .iter()
            .filter_map(|e| match e {
                Event::SolverResolve { warm_eligible, .. } => Some(*warm_eligible),
                _ => None,
            })
            .collect();
        assert_eq!(eligible, vec![false, true, true, false, true, true]);
        let single = s.run_round(RoundId(0), Design::Marketplace, CpPolicy::balanced());
        assert_eq!(warm[0].assignment.choice, single.assignment.choice);
    }

    #[test]
    fn bid_count_override_reaches_the_round() {
        let s = shared_small();
        let low = run_rounds(
            s,
            &[RoundSpec::new(0, Design::Marketplace, CpPolicy::balanced()).with_bid_count(1)],
            |_, outcome| outcome,
        );
        let plain = s.run_round_with(
            RoundId(0),
            Design::Marketplace,
            CpPolicy::balanced(),
            Some(1),
        );
        assert_eq!(low[0].assignment.choice, plain.assignment.choice);
    }
}
