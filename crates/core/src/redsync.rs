//! RedSync (Fang et al. 2019) — a heuristic threshold search that interpolates
//! between the mean and maximum absolute gradient.
//!
//! The "trimmed top-k" search of RedSync moves a ratio `r ∈ [0, 1]` and tests the
//! threshold `η = mean|g| + r · (max|g| - mean|g|)`, narrowing `r` by bisection until
//! the number of selected elements falls inside an acceptance band around the target
//! `k` or the iteration budget is exhausted. Because the interpolation is linear in
//! value space while gradients are heavy-tailed, the search frequently terminates on
//! the budget with a count far from `k` — the estimation-quality failure mode the
//! paper's Figures 1c, 3c and 9 highlight.

use crate::compressor::{CompressionResult, Compressor, CompressorKind, TargetRatio};
use crate::engine::CompressionEngine;
use crate::topk::target_k;

/// Configuration of the RedSync threshold search.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RedSyncConfig {
    /// Maximum number of bisection steps (the reference implementation uses a small
    /// fixed budget to keep the overhead linear).
    pub max_iterations: usize,
    /// Acceptance band: the search stops when `k̂ ∈ [k, slack · k]`.
    pub acceptance_slack: f64,
}

impl Default for RedSyncConfig {
    fn default() -> Self {
        Self {
            max_iterations: 10,
            acceptance_slack: 2.0,
        }
    }
}

/// The RedSync compressor.
///
/// # Example
///
/// ```
/// use sidco_core::prelude::*;
///
/// let grad: Vec<f32> = (1..=20_000)
///     .map(|j| if j % 2 == 0 { 1.0 } else { -1.0 } * (j as f32).powf(-0.7))
///     .collect();
/// let mut redsync = RedSyncCompressor::new();
/// let result = redsync.compress(&grad, 0.01);
/// assert!(result.sparse.nnz() > 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RedSyncCompressor {
    config: RedSyncConfig,
    engine: CompressionEngine,
}

impl RedSyncCompressor {
    /// Creates a RedSync compressor with the default search budget.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a RedSync compressor with an explicit configuration.
    pub fn with_config(config: RedSyncConfig) -> Self {
        Self {
            config,
            engine: CompressionEngine::from_env(),
        }
    }

    /// Routes the moment pass, the scan-and-count search passes and the final
    /// selection through `engine`.
    #[must_use]
    pub fn with_engine(mut self, engine: CompressionEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The active configuration.
    pub fn config(&self) -> &RedSyncConfig {
        &self.config
    }
}

impl Compressor for RedSyncCompressor {
    fn compress(&mut self, grad: &[f32], delta: f64) -> CompressionResult {
        if let Some(result) = TargetRatio::trivial_result(delta, grad, &self.engine) {
            return result;
        }
        if grad.is_empty() {
            return CompressionResult::from_sparse(sidco_tensor::SparseGradient::empty(0));
        }
        let k = target_k(grad.len(), delta);
        let moments = self.engine.abs_moments(grad);
        let mean = moments.mean;
        let max = moments.max;
        if !(max > mean) {
            // Degenerate gradient (constant magnitude): keep everything.
            let sparse = self.engine.select_above(grad, 0.0);
            return CompressionResult::with_threshold(sparse, 0.0);
        }

        // Bisection on the interpolation ratio in [0, 1]. Larger ratio → higher
        // threshold → fewer selected elements.
        let mut lo = 0.0f64;
        let mut hi = 1.0f64;
        let mut ratio = 0.5f64;
        let mut threshold = mean + ratio * (max - mean);
        for _ in 0..self.config.max_iterations {
            threshold = mean + ratio * (max - mean);
            let count = self.engine.count_above(grad, threshold);
            if count >= k && (count as f64) <= self.config.acceptance_slack * k as f64 {
                break;
            }
            if count > k {
                // Too many survivors: raise the threshold.
                lo = ratio;
            } else {
                // Too few survivors: lower the threshold.
                hi = ratio;
            }
            ratio = 0.5 * (lo + hi);
        }
        let sparse = self.engine.select_above(grad, threshold);
        CompressionResult::with_threshold(sparse, threshold)
    }

    fn name(&self) -> &'static str {
        "redsync"
    }

    fn kind(&self) -> CompressorKind {
        CompressorKind::RedSync
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sidco_stats::distribution::Continuous;
    use sidco_stats::Laplace;

    fn laplace_gradient(n: usize, seed: u64) -> Vec<f32> {
        let d = Laplace::new(0.0, 0.01).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        d.sample_vec(&mut rng, n)
            .into_iter()
            .map(|x| x as f32)
            .collect()
    }

    #[test]
    fn moderate_ratio_lands_within_slack() {
        let grad = laplace_gradient(100_000, 401);
        let mut c = RedSyncCompressor::new();
        let delta = 0.1;
        let k = target_k(grad.len(), delta);
        let result = c.compress(&grad, delta);
        let nnz = result.sparse.nnz();
        assert!(
            nnz >= k / 4 && nnz <= 4 * k,
            "RedSync at δ=0.1 should be within a small factor of k={k}, got {nnz}"
        );
        assert_eq!(c.name(), "redsync");
    }

    #[test]
    fn aggressive_ratio_shows_estimation_error() {
        // The characteristic failure mode: at δ=0.001 the linear interpolation search
        // does not reliably land on the target count. We only assert it returns a
        // usable (non-empty, threshold-consistent) result; the quality comparison
        // happens in the figure-level experiments.
        let grad = laplace_gradient(200_000, 402);
        let mut c = RedSyncCompressor::new();
        let result = c.compress(&grad, 0.001);
        assert!(result.sparse.nnz() > 0);
        let eta = result.threshold.unwrap();
        for &v in result.sparse.values() {
            assert!((v.abs() as f64) >= eta - 1e-9);
        }
    }

    #[test]
    fn search_budget_bounds_iterations() {
        let grad = laplace_gradient(50_000, 403);
        let config = RedSyncConfig {
            max_iterations: 1,
            acceptance_slack: 1.1,
        };
        let mut c = RedSyncCompressor::with_config(config);
        assert_eq!(c.config().max_iterations, 1);
        // With a single iteration the threshold is the midpoint interpolation; the
        // call must still succeed and produce a valid sparse gradient.
        let result = c.compress(&grad, 0.01);
        assert!(result.sparse.nnz() <= grad.len());
    }

    #[test]
    fn degenerate_gradients() {
        let mut c = RedSyncCompressor::new();
        assert_eq!(c.compress(&[], 0.01).sparse.nnz(), 0);
        let constant = [0.5f32; 64];
        let result = c.compress(&constant, 0.1);
        assert_eq!(result.sparse.nnz(), 64);
    }
}
