//! Gradient compressibility analysis (Definition 1 / Property 1 / Figure 7 of the
//! paper).
//!
//! A vector is *compressible* when its sorted magnitudes decay like a power law
//! `g̃_j ≤ c · j^{-p}` with `p > 1/2`; the best-k approximation error then decays as
//! `σ_k ≤ c₂ · k^{1/2 - p}`. This module estimates the decay exponent, produces the
//! sorted-magnitude profile and the σ_k errors plotted in Figure 7, and provides a
//! boolean compressibility check used by the synthetic gradient generator's self-tests.

/// The sorted-magnitude profile of a gradient together with power-law diagnostics.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressibilityReport {
    /// Sorted absolute values, descending (`g̃`).
    pub sorted_magnitudes: Vec<f32>,
    /// Estimated power-law decay exponent `p` from a log–log least-squares fit.
    pub decay_exponent: f64,
    /// R² of the log–log fit (1 means a perfect power law).
    pub fit_r2: f64,
}

impl CompressibilityReport {
    /// Whether the gradient satisfies Definition 1's compressibility condition
    /// (`p > 1/2` with a reasonable fit).
    pub fn is_compressible(&self) -> bool {
        self.decay_exponent > 0.5 && self.fit_r2 > 0.5
    }

    /// The relative sparsification error `σ_k(g) / ||g||₂` for the given `k`
    /// (equation 2 of the paper, normalised so different iterations are comparable).
    pub fn relative_sparsification_error(&self, k: usize) -> f64 {
        let total: f64 = self
            .sorted_magnitudes
            .iter()
            .map(|&x| (x as f64) * (x as f64))
            .sum();
        if total == 0.0 {
            return 0.0;
        }
        let tail: f64 = self
            .sorted_magnitudes
            .iter()
            .skip(k)
            .map(|&x| (x as f64) * (x as f64))
            .sum();
        (tail / total).sqrt()
    }
}

/// Analyses the compressibility of a gradient vector.
///
/// The decay exponent is estimated by ordinary least squares on
/// `ln g̃_j ≈ ln c₁ - p ln j`, restricted to the largest `fit_fraction` of the sorted
/// entries (the paper fits the head of the curve, e.g. the first 10⁵ of 2.7·10⁵
/// entries) and skipping exact zeros.
///
/// # Panics
///
/// Panics if `fit_fraction` is not in `(0, 1]`.
pub fn analyze(grad: &[f32], fit_fraction: f64) -> CompressibilityReport {
    assert!(
        fit_fraction > 0.0 && fit_fraction <= 1.0,
        "fit_fraction must lie in (0, 1], got {fit_fraction}"
    );
    let mut sorted: Vec<f32> = grad.iter().map(|x| x.abs()).collect();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));

    let fit_len = ((sorted.len() as f64 * fit_fraction).ceil() as usize)
        .max(2)
        .min(sorted.len());
    // Log–log least squares over the non-zero head.
    let mut n = 0.0f64;
    let mut sx = 0.0f64;
    let mut sy = 0.0f64;
    let mut sxx = 0.0f64;
    let mut sxy = 0.0f64;
    let mut syy = 0.0f64;
    for (j, &g) in sorted.iter().take(fit_len).enumerate() {
        if g <= 0.0 {
            break;
        }
        let x = ((j + 1) as f64).ln();
        let y = (g as f64).ln();
        n += 1.0;
        sx += x;
        sy += y;
        sxx += x * x;
        sxy += x * y;
        syy += y * y;
    }
    if n < 2.0 {
        return CompressibilityReport {
            sorted_magnitudes: sorted,
            decay_exponent: 0.0,
            fit_r2: 0.0,
        };
    }
    let denom = n * sxx - sx * sx;
    let slope = if denom.abs() < 1e-30 {
        0.0
    } else {
        (n * sxy - sx * sy) / denom
    };
    let intercept = (sy - slope * sx) / n;
    // R² of the regression.
    let var_y = syy - sy * sy / n;
    let ss_res = syy - intercept * sy - slope * sxy;
    let r2 = if var_y > 0.0 {
        (1.0 - ss_res / var_y).clamp(0.0, 1.0)
    } else {
        0.0
    };
    CompressibilityReport {
        sorted_magnitudes: sorted,
        decay_exponent: -slope,
        fit_r2: r2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn power_law_vector(n: usize, p: f64, seed: u64) -> Vec<f32> {
        // Magnitudes j^{-p} with random signs and random positions.
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut values: Vec<f32> = (1..=n)
            .map(|j| {
                let sign = if rng.gen_bool(0.5) { 1.0 } else { -1.0 };
                (sign * (j as f64).powf(-p)) as f32
            })
            .collect();
        // Shuffle positions: compressibility is about the sorted profile only.
        for i in (1..values.len()).rev() {
            let j = rng.gen_range(0..=i);
            values.swap(i, j);
        }
        values
    }

    #[test]
    fn recovers_decay_exponent_of_synthetic_power_law() {
        for &p in &[0.7f64, 1.0, 1.5] {
            let grad = power_law_vector(20_000, p, 7);
            let report = analyze(&grad, 1.0);
            assert!(
                (report.decay_exponent - p).abs() < 0.05,
                "expected p≈{p}, got {}",
                report.decay_exponent
            );
            assert!(report.fit_r2 > 0.99);
            assert!(report.is_compressible());
        }
    }

    #[test]
    fn uniform_noise_is_not_compressible() {
        let mut rng = SmallRng::seed_from_u64(8);
        let grad: Vec<f32> = (0..20_000).map(|_| rng.gen_range(0.5f32..1.0)).collect();
        let report = analyze(&grad, 1.0);
        assert!(
            !report.is_compressible(),
            "flat spectrum reported as compressible: p={}, r2={}",
            report.decay_exponent,
            report.fit_r2
        );
    }

    #[test]
    fn sparsification_error_decreases_with_k() {
        let grad = power_law_vector(10_000, 0.9, 9);
        let report = analyze(&grad, 1.0);
        let series: Vec<f64> = [10, 100, 1_000, 9_999]
            .map(|k| report.relative_sparsification_error(k))
            .to_vec();
        for w in series.windows(2) {
            assert!(w[1] <= w[0], "σ_k must be non-increasing in k");
        }
        assert!(series[3] < 0.01);
        assert!((report.relative_sparsification_error(0) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn sorted_magnitudes_are_descending() {
        let grad = power_law_vector(1_000, 0.8, 10);
        let report = analyze(&grad, 0.5);
        for w in report.sorted_magnitudes.windows(2) {
            assert!(w[0] >= w[1]);
        }
        assert_eq!(report.sorted_magnitudes.len(), 1_000);
    }

    #[test]
    fn handles_degenerate_inputs() {
        let report = analyze(&[0.0f32; 100], 1.0);
        assert_eq!(report.decay_exponent, 0.0);
        assert!(!report.is_compressible());
        assert_eq!(report.relative_sparsification_error(10), 0.0);
        let report = analyze(&[1.0f32], 1.0);
        assert!(!report.is_compressible());
    }

    #[test]
    #[should_panic(expected = "fit_fraction")]
    fn rejects_bad_fit_fraction() {
        analyze(&[1.0f32, 2.0], 0.0);
    }
}
