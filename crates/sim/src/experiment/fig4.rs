//! Fig 4: "Sessions moved between CDNs by the broker in our trace in 5s
//! intervals" — the short-term traffic-unpredictability evidence.
//!
//! Paper shape: the percentage of active sessions that were moved
//! mid-stream averages ~40 %, dipping to ~20 % and rising above ~60 %.

use crate::report::render_series;
use crate::scenario::Scenario;

/// Fig 4 results.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// `(interval start s, % of active sessions moved)` per 5 s bin.
    pub series: Vec<(f64, f64)>,
    /// Mean over non-empty bins.
    pub mean_pct: f64,
    /// Minimum bin value.
    pub min_pct: f64,
    /// Maximum bin value.
    pub max_pct: f64,
}

/// Runs the experiment.
pub fn run(scenario: &Scenario) -> Fig4Result {
    let series = scenario.trace.moved_sessions_series(5.0);
    let moved: Vec<f64> = series.iter().map(|(_, p)| *p).collect();
    let mean = moved.iter().sum::<f64>() / moved.len().max(1) as f64;
    let min = moved.iter().copied().fold(f64::INFINITY, f64::min);
    let max = moved.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    Fig4Result {
        series,
        mean_pct: mean,
        min_pct: min,
        max_pct: max,
    }
}

/// Renders the result (subsampled series plus summary line).
pub fn render(result: &Fig4Result) -> String {
    let sampled: Vec<(f64, f64)> = result.series.iter().step_by(24).copied().collect();
    let mut out = render_series(
        "Fig 4: % active sessions moved mid-stream (5s bins, every 2 min shown)",
        "t (s)",
        "% moved",
        &sampled,
    );
    out.push_str(&format!(
        "mean {:.1}%  min {:.1}%  max {:.1}%  (paper: mean ~40%, range ~20-60%)\n",
        result.mean_pct, result.min_pct, result.max_pct
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig4_shape_matches_paper() {
        // The full-size trace pins the statistics tightly; the small test
        // trace is noisier, so bands are generous.
        let s: &Scenario = crate::scenario::shared_small();
        let r = run(s);
        assert_eq!(r.series.len(), 720);
        assert!((20.0..60.0).contains(&r.mean_pct), "mean {}", r.mean_pct);
        assert!(r.max_pct > r.min_pct + 10.0, "visible variation");
        assert!(render(&r).contains("mean"));
    }
}
