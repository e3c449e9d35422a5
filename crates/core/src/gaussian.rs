//! GaussianKSGD (Shi et al. 2019) — threshold estimation from a Gaussian fit of the
//! gradient followed by a small iterative correction.
//!
//! The scheme fits a Gaussian to the signed gradient, takes the `1 - δ/2` quantile as
//! the initial threshold, and then nudges the threshold multiplicatively a few times
//! based on the ratio between the achieved and target counts: at most
//! `MAX_ADJUSTMENTS` = 3 damped updates `η ← η · (k̂/k)^0.5` (`UPDATE_EXPONENT`),
//! stopping early once `k̂` is within `TOLERANCE` = 20% of `k`. These are the
//! reference settings the paper evaluates the scheme at. Because the Gaussian
//! assumption badly mis-models heavy-tailed gradients, the correction loop routinely
//! runs out of budget far from the target — the behaviour the paper reports as
//! "estimation quality two orders of magnitude off" at aggressive ratios.

use crate::compressor::{CompressionResult, Compressor, CompressorKind, TargetRatio};
use crate::engine::CompressionEngine;
use crate::topk::target_k;
use sidco_stats::fit::gaussian_threshold_from_moments;

/// Most multiplicative threshold adjustments: the small budget of the
/// reference heuristic, which keeps its overhead to a few counting passes.
const MAX_ADJUSTMENTS: usize = 3;

/// Relative tolerance on the achieved count that stops the adjustments early.
const TOLERANCE: f64 = 0.2;

/// Exponent of the multiplicative update `η ← η · (k̂/k)^UPDATE_EXPONENT`.
/// The reference heuristic damps the update with a fractional exponent; 0.5
/// reproduces its slow, often-insufficient convergence.
const UPDATE_EXPONENT: f64 = 0.5;

/// The GaussianKSGD compressor.
///
/// # Example
///
/// ```
/// use sidco_core::prelude::*;
///
/// let grad: Vec<f32> = (1..=20_000)
///     .map(|j| if j % 2 == 0 { 1.0 } else { -1.0 } * (j as f32).powf(-0.7))
///     .collect();
/// let mut gauss = GaussianKSgdCompressor::new();
/// let result = gauss.compress(&grad, 0.01);
/// assert!(result.threshold.unwrap() > 0.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GaussianKSgdCompressor {
    engine: CompressionEngine,
}

impl GaussianKSgdCompressor {
    /// Creates a GaussianKSGD compressor at the reference settings.
    pub fn new() -> Self {
        Self::default()
    }

    /// Routes the moment pass, the threshold-adjustment counts and the final
    /// selection through `engine`.
    #[must_use]
    pub fn with_engine(mut self, engine: CompressionEngine) -> Self {
        self.engine = engine;
        self
    }
}

impl Compressor for GaussianKSgdCompressor {
    fn compress(&mut self, grad: &[f32], delta: f64) -> CompressionResult {
        if let Some(result) = TargetRatio::trivial_result(delta, grad, &self.engine) {
            return result;
        }
        if grad.is_empty() {
            return CompressionResult::from_sparse(sidco_tensor::SparseGradient::empty(0));
        }
        let k = target_k(grad.len(), delta);
        let moments = self.engine.signed_moments(grad);
        let mut threshold = gaussian_threshold_from_moments(&moments, delta);
        if !(threshold > 0.0) {
            // Degenerate fit (constant gradient): keep everything, as the reference
            // implementation does when the variance collapses.
            let sparse = self.engine.select_above(grad, 0.0);
            return CompressionResult::with_threshold(sparse, 0.0);
        }

        for _ in 0..MAX_ADJUSTMENTS {
            let count = self.engine.count_above(grad, threshold).max(1);
            let ratio = count as f64 / k as f64;
            if (ratio - 1.0).abs() <= TOLERANCE {
                break;
            }
            // Too many survivors (ratio > 1) → raise the threshold, and vice versa.
            // `black_box` keeps this a libm `pow`: given a literal 0.5 exponent,
            // LLVM rewrites it as `sqrt`, which rounds differently on about one
            // ratio in 1,200 and would move the thresholds the figures report.
            threshold *= ratio.powf(std::hint::black_box(UPDATE_EXPONENT));
        }

        let sparse = self.engine.select_above(grad, threshold);
        CompressionResult::with_threshold(sparse, threshold)
    }

    fn kind(&self) -> CompressorKind {
        CompressorKind::GaussianKSgd
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sidco_stats::distribution::Continuous;
    use sidco_stats::moments::SignedMoments;
    use sidco_stats::{Laplace, Normal};
    use sidco_tensor::threshold::count_above_threshold;

    fn sample_f32<D: Continuous>(d: &D, n: usize, seed: u64) -> Vec<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        d.sample_vec(&mut rng, n)
            .into_iter()
            .map(|x| x as f32)
            .collect()
    }

    #[test]
    fn accurate_on_truly_gaussian_gradients() {
        let d = Normal::new(0.0, 0.02).unwrap();
        let grad = sample_f32(&d, 200_000, 501);
        let mut c = GaussianKSgdCompressor::new();
        for &delta in &[0.1, 0.01] {
            let achieved = c.compress(&grad, delta).achieved_ratio();
            assert!(
                (achieved - delta).abs() / delta < 0.4,
                "delta={delta}: achieved {achieved}"
            );
        }
        assert_eq!(c.kind(), CompressorKind::GaussianKSgd);
    }

    /// The ratio the bare Gaussian fit selects on `grad`, before any
    /// adjustment.
    fn bare_fit_ratio(grad: &[f32], delta: f64) -> f64 {
        let threshold = gaussian_threshold_from_moments(&SignedMoments::compute(grad), delta);
        count_above_threshold(grad, threshold) as f64 / grad.len() as f64
    }

    #[test]
    fn inaccurate_on_heavy_tailed_gradients_at_aggressive_ratio() {
        // The paper's observation: the Gaussian fit misses aggressive targets
        // on Laplace-like gradients by a wide margin (here: off by more than
        // 50%), while SIDCo stays within ε.
        let d = Laplace::new(0.0, 0.01).unwrap();
        let grad = sample_f32(&d, 200_000, 502);
        let delta = 0.001;
        let achieved = bare_fit_ratio(&grad, delta);
        assert!(
            (achieved - delta).abs() / delta > 0.5,
            "expected a large estimation error without adjustments, got {achieved}"
        );
    }

    #[test]
    fn adjustment_loop_improves_the_estimate() {
        let d = Laplace::new(0.0, 0.01).unwrap();
        let grad = sample_f32(&d, 200_000, 503);
        let delta = 0.001;
        let mut with = GaussianKSgdCompressor::new();
        let err_without = (bare_fit_ratio(&grad, delta) - delta).abs() / delta;
        let err_with = (with.compress(&grad, delta).achieved_ratio() - delta).abs() / delta;
        assert!(
            err_with <= err_without,
            "adjustments should not hurt: {err_with} vs {err_without}"
        );
    }

    #[test]
    fn degenerate_gradients() {
        let mut c = GaussianKSgdCompressor::new();
        assert_eq!(c.compress(&[], 0.01).sparse.nnz(), 0);
        let constant = [0.25f32; 32];
        let result = c.compress(&constant, 0.1);
        assert_eq!(result.sparse.nnz(), 32);
        assert_eq!(result.threshold, Some(0.0));
    }
}
