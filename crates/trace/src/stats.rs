//! Samplers and estimators for the trace statistics the paper publishes.
//!
//! The generators in [`crate::broker`] *sample* from these distributions;
//! the unit tests *estimate* the parameters back from generated traces and
//! assert they match. That closes the loop on "the synthetic trace has the
//! published statistics".

use vdx_rand::StdRng;

/// A Zipf sampler over ranks `0..n` with exponent `s`:
/// `P(rank k) ∝ 1 / (k+1)^s`. Built once (O(n)), sampled in O(log n).
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Builds the sampler.
    ///
    /// # Panics
    /// Panics if `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf needs at least one rank");
        assert!(s.is_finite(), "Zipf exponent must be finite");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Zipf { cdf }
    }

    /// Draws a rank in `0..n`.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// Whether the sampler has zero ranks (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cdf.is_empty()
    }
}

/// Weighted index sampler (alias-free linear CDF; fine for the sizes here).
#[derive(Debug, Clone)]
pub struct WeightedIndex {
    cdf: Vec<f64>,
}

impl WeightedIndex {
    /// Builds a sampler over `weights`; weights must be non-negative with a
    /// positive sum.
    ///
    /// # Panics
    /// Panics on empty input, negative weights, or zero total weight.
    pub fn new(weights: &[f64]) -> WeightedIndex {
        assert!(!weights.is_empty(), "weights must be non-empty");
        let mut cdf = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for &w in weights {
            assert!(
                w >= 0.0 && w.is_finite(),
                "weights must be finite and non-negative"
            );
            acc += w;
            cdf.push(acc);
        }
        assert!(acc > 0.0, "total weight must be positive");
        for v in &mut cdf {
            *v /= acc;
        }
        WeightedIndex { cdf }
    }

    /// Draws an index.
    pub fn sample(&self, rng: &mut StdRng) -> usize {
        let u: f64 = rng.gen_range(0.0..1.0);
        match self.cdf.binary_search_by(|p| p.total_cmp(&u)) {
            Ok(i) => i,
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

/// Estimates a Zipf exponent from per-item counts by log–log regression of
/// frequency against rank. Returns `None` with fewer than three distinct
/// positive counts.
pub fn estimate_zipf_exponent(counts: &[u64]) -> Option<f64> {
    let mut sorted: Vec<u64> = counts.iter().copied().filter(|&c| c > 0).collect();
    if sorted.len() < 3 {
        return None;
    }
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let pts: Vec<(f64, f64)> = sorted
        .iter()
        .enumerate()
        .map(|(rank, &c)| (((rank + 1) as f64).ln(), (c as f64).ln()))
        .collect();
    // OLS slope; the Zipf exponent is its negation.
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx).powi(2)).sum();
    if sxx == 0.0 {
        return None;
    }
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    Some(-(sxy / sxx))
}

/// Share of total mass held by the largest `top_fraction` of items — a
/// heavy-tail diagnostic (power laws concentrate mass at the head).
pub fn head_mass_share(counts: &[u64], top_fraction: f64) -> f64 {
    if counts.is_empty() {
        return 0.0;
    }
    let mut sorted: Vec<u64> = counts.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let head = ((sorted.len() as f64 * top_fraction).ceil() as usize).max(1);
    let head_sum: u64 = sorted[..head.min(sorted.len())].iter().sum();
    let total: u64 = sorted.iter().sum();
    if total == 0 {
        0.0
    } else {
        head_sum as f64 / total as f64
    }
}

/// Fraction of samples falling in the lowest and highest bins of `k`
/// equal-width bins over the data range — a crude bimodality diagnostic used
/// to check the bitrate distribution ("peaks at the lowest and highest
/// bitrate").
pub fn edge_mass_share(values: &[f64], k: usize) -> f64 {
    if values.is_empty() || k < 2 {
        return 0.0;
    }
    let min = values.iter().copied().fold(f64::INFINITY, f64::min);
    let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if min == max {
        return 1.0;
    }
    let width = (max - min) / k as f64;
    let edge = values
        .iter()
        .filter(|&&v| v < min + width || v >= max - width)
        .count();
    edge as f64 / values.len() as f64
}

/// Median of a slice (averaging the two middle elements for even lengths).
/// Returns `None` on empty input.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// `q`-quantile (0 ≤ q ≤ 1) by nearest-rank. Returns `None` on empty input.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v: Vec<f64> = values.to_vec();
    v.sort_by(f64::total_cmp);
    let idx = ((v.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
    Some(v[idx])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_head_dominates() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0u64; 1000];
        for _ in 0..50_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        assert!(counts[0] > counts[10] && counts[10] > counts[100]);
        // Rank-0 mass for s=1, n=1000 is 1/H_1000 ≈ 13%.
        let share = counts[0] as f64 / 50_000.0;
        assert!((0.10..0.17).contains(&share), "share {share}");
    }

    #[test]
    fn zipf_exponent_roundtrip() {
        let z = Zipf::new(500, 0.9);
        let mut rng = StdRng::seed_from_u64(2);
        let mut counts = vec![0u64; 500];
        for _ in 0..200_000 {
            counts[z.sample(&mut rng)] += 1;
        }
        let est = estimate_zipf_exponent(&counts).expect("estimable");
        assert!((est - 0.9).abs() < 0.25, "estimated {est}");
    }

    #[test]
    #[should_panic(expected = "at least one rank")]
    fn zipf_zero_ranks_panics() {
        Zipf::new(0, 1.0);
    }

    #[test]
    fn weighted_index_respects_weights() {
        let w = WeightedIndex::new(&[1.0, 0.0, 3.0]);
        let mut rng = StdRng::seed_from_u64(3);
        let mut counts = [0u64; 3];
        for _ in 0..40_000 {
            counts[w.sample(&mut rng)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((2.6..3.4).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn weighted_index_zero_total_panics() {
        WeightedIndex::new(&[0.0, 0.0]);
    }

    #[test]
    fn head_mass_share_on_uniform_and_skewed() {
        let uniform = vec![10u64; 100];
        assert!((head_mass_share(&uniform, 0.1) - 0.1).abs() < 1e-9);
        let mut skewed = vec![1u64; 100];
        skewed[0] = 1_000;
        assert!(head_mass_share(&skewed, 0.1) > 0.9);
    }

    #[test]
    fn edge_mass_detects_bimodality() {
        let bimodal: Vec<f64> = (0..100)
            .map(|i| if i % 2 == 0 { 0.0 } else { 10.0 })
            .collect();
        assert!(edge_mass_share(&bimodal, 10) > 0.99);
        let uniform: Vec<f64> = (0..100).map(|i| i as f64 / 10.0).collect();
        assert!(edge_mass_share(&uniform, 10) < 0.3);
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        assert_eq!(median(&[]), None);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.0), Some(1.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 1.0), Some(5.0));
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.5), Some(3.0));
    }

    #[test]
    fn estimator_degenerate_inputs() {
        assert!(estimate_zipf_exponent(&[]).is_none());
        assert!(estimate_zipf_exponent(&[5, 0]).is_none());
    }
}
