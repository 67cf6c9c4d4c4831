//! Ordinary least-squares regression and score extrapolation.
//!
//! Two uses in the reproduction, both taken directly from the paper:
//!
//! 1. §5.1: "Some client-cluster pairings do not have scores, so we
//!    extrapolate them by computing a linear regression of scores with
//!    respect to client-cluster distance" — [`ScoreExtrapolator`].
//! 2. Fig 5: "Dotted lines are best-fit linear regressions" of CDN usage
//!    vs. requests-per-city — plain [`LinearFit`].

use crate::score::Score;

/// Result of a simple linear regression `y ≈ slope * x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Slope of the fitted line.
    pub slope: f64,
    /// Intercept of the fitted line.
    pub intercept: f64,
    /// Coefficient of determination (R²); 1.0 for a perfect fit, 0.0 when
    /// the fit explains nothing (or when variance in `y` is zero).
    pub r2: f64,
    /// Number of points the fit used.
    pub n: usize,
}

impl LinearFit {
    /// Fits `y ≈ slope * x + intercept` by ordinary least squares.
    ///
    /// Returns `None` when fewer than two points are given or all `x` are
    /// identical (slope undefined).
    pub fn fit(points: &[(f64, f64)]) -> Option<LinearFit> {
        let n = points.len();
        if n < 2 {
            return None;
        }
        let nf = n as f64;
        let mean_x = points.iter().map(|p| p.0).sum::<f64>() / nf;
        let mean_y = points.iter().map(|p| p.1).sum::<f64>() / nf;
        let sxx: f64 = points.iter().map(|p| (p.0 - mean_x).powi(2)).sum();
        if sxx == 0.0 {
            return None;
        }
        let sxy: f64 = points.iter().map(|p| (p.0 - mean_x) * (p.1 - mean_y)).sum();
        let slope = sxy / sxx;
        let intercept = mean_y - slope * mean_x;
        let syy: f64 = points.iter().map(|p| (p.1 - mean_y).powi(2)).sum();
        let r2 = if syy == 0.0 {
            1.0
        } else {
            let ss_res: f64 = points
                .iter()
                .map(|p| (p.1 - (slope * p.0 + intercept)).powi(2))
                .sum();
            (1.0 - ss_res / syy).max(0.0)
        };
        Some(LinearFit {
            slope,
            intercept,
            r2,
            n,
        })
    }

    /// Predicts `y` at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.slope * x + self.intercept
    }
}

/// Extrapolates missing client–cluster scores from distance, exactly as the
/// paper does for pairs absent from the CDN mapping data.
#[derive(Debug, Clone)]
pub struct ScoreExtrapolator {
    fit: LinearFit,
    /// Scores are never extrapolated below this floor (the access-penalty
    /// cost of even a zero-distance path).
    floor: f64,
}

impl ScoreExtrapolator {
    /// Fits score-vs-distance on observed `(distance_km, score)` samples.
    ///
    /// Returns `None` if a line cannot be fitted (see [`LinearFit::fit`]).
    pub fn fit(samples: &[(f64, Score)]) -> Option<ScoreExtrapolator> {
        let pts: Vec<(f64, f64)> = samples.iter().map(|(d, s)| (*d, s.value())).collect();
        let fit = LinearFit::fit(&pts)?;
        let floor = samples
            .iter()
            .map(|(_, s)| s.value())
            .fold(f64::INFINITY, f64::min)
            .max(0.0);
        Some(ScoreExtrapolator { fit, floor })
    }

    /// Predicted score at `distance_km`, clamped to the observed floor.
    pub fn predict(&self, distance_km: f64) -> Score {
        Score(self.fit.predict(distance_km).max(self.floor))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_is_recovered() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 + 2.0)).collect();
        let fit = LinearFit::fit(&pts).expect("fits");
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept - 2.0).abs() < 1e-12);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs_return_none() {
        assert!(LinearFit::fit(&[]).is_none());
        assert!(LinearFit::fit(&[(1.0, 2.0)]).is_none());
        assert!(LinearFit::fit(&[(1.0, 2.0), (1.0, 5.0)]).is_none());
    }

    #[test]
    fn constant_y_has_zero_slope_full_r2() {
        let fit = LinearFit::fit(&[(0.0, 4.0), (1.0, 4.0), (2.0, 4.0)]).expect("fits");
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r2, 1.0);
    }

    #[test]
    fn noisy_fit_has_reasonable_r2() {
        let pts: Vec<(f64, f64)> = (0..50)
            .map(|i| {
                let x = i as f64;
                // Deterministic "noise".
                let noise = ((i * 7919) % 13) as f64 - 6.0;
                (x, 2.0 * x + 10.0 + noise)
            })
            .collect();
        let fit = LinearFit::fit(&pts).expect("fits");
        assert!((fit.slope - 2.0).abs() < 0.2, "slope {}", fit.slope);
        assert!(fit.r2 > 0.9, "r2 {}", fit.r2);
    }

    #[test]
    fn extrapolator_clamps_to_floor() {
        let samples = vec![
            (100.0, Score(30.0)),
            (1000.0, Score(60.0)),
            (5000.0, Score(190.0)),
        ];
        let ex = ScoreExtrapolator::fit(&samples).expect("fits");
        // Negative-distance extrapolation would dip below zero without the clamp.
        assert!(ex.predict(0.0).value() >= 30.0 - 1e-9 || ex.predict(0.0).value() >= 0.0);
        assert!(ex.predict(10_000.0).value() > ex.predict(1_000.0).value());
    }

    #[test]
    fn extrapolator_roughly_interpolates() {
        let samples: Vec<(f64, Score)> = (1..20)
            .map(|i| (500.0 * i as f64, Score(20.0 + 0.03 * 500.0 * i as f64)))
            .collect();
        let ex = ScoreExtrapolator::fit(&samples).expect("fits");
        let predicted = ex.predict(2_750.0).value();
        let truth = 20.0 + 0.03 * 2_750.0;
        assert!(
            (predicted - truth).abs() < 1.0,
            "predicted {predicted}, truth {truth}"
        );
    }
}
