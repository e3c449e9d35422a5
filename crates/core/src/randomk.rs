//! Random-k compressor — the weakest sparsification baseline mentioned by the paper
//! (Section 1.1) as a convergence contrast to Top-k.

use crate::compressor::{CompressionResult, Compressor, CompressorKind, TargetRatio};
use crate::topk::target_k;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sidco_tensor::sampling::random_indices;
use sidco_tensor::SparseGradient;

/// Random-k sparsifier: keeps `k` uniformly random coordinates regardless of their
/// magnitude.
///
/// # Example
///
/// ```
/// use sidco_core::prelude::*;
///
/// let grad = vec![0.5f32; 100];
/// let mut rk = RandomKCompressor::with_seed(7);
/// let result = rk.compress(&grad, 0.1);
/// assert_eq!(result.sparse.nnz(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct RandomKCompressor {
    rng: SmallRng,
    seed: u64,
}

impl RandomKCompressor {
    /// Creates a Random-k compressor seeded from the given value (deterministic, so
    /// experiments are reproducible).
    pub fn with_seed(seed: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(seed),
            seed,
        }
    }
}

impl Default for RandomKCompressor {
    fn default() -> Self {
        Self::with_seed(0)
    }
}

impl Compressor for RandomKCompressor {
    fn compress(&mut self, grad: &[f32], delta: f64) -> CompressionResult {
        let mut indices = match TargetRatio::of(delta) {
            TargetRatio::Nothing => {
                return CompressionResult::from_sparse(SparseGradient::empty(grad.len()));
            }
            TargetRatio::Everything => (0..grad.len() as u32).collect(),
            TargetRatio::Estimate(_) => {
                random_indices(grad.len(), target_k(grad.len(), delta), &mut self.rng)
            }
        };
        indices.sort_unstable();
        let values: Vec<f32> = indices.iter().map(|&i| grad[i as usize]).collect();
        CompressionResult::from_sparse(SparseGradient::new(indices, values, grad.len()))
    }

    fn name(&self) -> &'static str {
        "randomk"
    }

    fn kind(&self) -> CompressorKind {
        CompressorKind::RandomK
    }

    fn reset(&mut self) {
        self.rng = SmallRng::seed_from_u64(self.seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn selects_exactly_k_unique_positions() {
        let grad = vec![1.0f32; 1_000];
        let mut c = RandomKCompressor::with_seed(1);
        let result = c.compress(&grad, 0.05);
        assert_eq!(result.sparse.nnz(), 50);
        let unique: std::collections::HashSet<_> = result.sparse.indices().iter().collect();
        assert_eq!(unique.len(), 50);
        assert_eq!(result.threshold, None);
        assert_eq!(c.name(), "randomk");
    }

    #[test]
    fn reset_restores_deterministic_stream() {
        let grad: Vec<f32> = (0..500).map(|i| i as f32).collect();
        let mut c = RandomKCompressor::with_seed(9);
        let first = c.compress(&grad, 0.1);
        c.reset();
        let second = c.compress(&grad, 0.1);
        assert_eq!(first.sparse.indices(), second.sparse.indices());
    }

    #[test]
    fn different_draws_differ() {
        let grad: Vec<f32> = (0..500).map(|i| i as f32).collect();
        let mut c = RandomKCompressor::with_seed(9);
        let first = c.compress(&grad, 0.1);
        let second = c.compress(&grad, 0.1);
        assert_ne!(first.sparse.indices(), second.sparse.indices());
    }

    #[test]
    fn empty_gradient() {
        let mut c = RandomKCompressor::default();
        assert_eq!(c.compress(&[], 0.5).sparse.nnz(), 0);
    }
}
