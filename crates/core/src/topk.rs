//! Exact Top-k compressor — the quality reference every other scheme is compared to.

use crate::compressor::{CompressionResult, Compressor, CompressorKind, TargetRatio};
use crate::engine::CompressionEngine;

/// Exact Top-k sparsifier.
///
/// Selects exactly `ceil(delta * d)` elements with the largest magnitudes via
/// the engine's chunked partial selection (each shard nominates its own top
/// candidates by quickselect; one final selection picks the global winners).
///
/// # Example
///
/// ```
/// use sidco_core::prelude::*;
///
/// let grad = [0.9f32, -0.1, 0.05, -0.8];
/// let mut topk = TopKCompressor::new();
/// let result = topk.compress(&grad, 0.5);
/// assert_eq!(result.sparse.nnz(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TopKCompressor {
    engine: CompressionEngine,
}

impl TopKCompressor {
    /// Creates a Top-k compressor on the default engine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Routes the chunked partial selection through `engine`.
    #[must_use]
    pub fn with_engine(mut self, engine: CompressionEngine) -> Self {
        self.engine = engine;
        self
    }
}

impl Compressor for TopKCompressor {
    fn compress(&mut self, grad: &[f32], delta: f64) -> CompressionResult {
        if let Some(result) = TargetRatio::trivial_result(delta, grad, &self.engine) {
            return result;
        }
        let k = target_k(grad.len(), delta);
        let sparse = self.engine.top_k(grad, k);
        // The exact Top-k threshold is the smallest retained magnitude
        // (0 for an empty selection, matching `kth_largest_magnitude`).
        let min_kept = sparse
            .values()
            .iter()
            .map(|v| v.abs() as f64)
            .fold(f64::INFINITY, f64::min);
        let threshold = if min_kept.is_finite() { min_kept } else { 0.0 };
        CompressionResult::with_threshold(sparse, threshold)
    }

    fn kind(&self) -> CompressorKind {
        CompressorKind::TopK
    }
}

/// The number of elements a ratio `delta` maps to for a vector of length `len`
/// (at least one element as long as the vector is non-empty, matching the behaviour
/// of every practical implementation).
pub fn target_k(len: usize, delta: f64) -> usize {
    if len == 0 {
        return 0;
    }
    ((len as f64 * delta).ceil() as usize).clamp(1, len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn target_k_boundaries() {
        assert_eq!(target_k(0, 0.1), 0);
        assert_eq!(target_k(10, 0.0), 1);
        assert_eq!(target_k(10, 1.0), 10);
        assert_eq!(target_k(10, 0.25), 3);
        assert_eq!(target_k(1_000_000, 0.001), 1_000);
    }

    #[test]
    fn compress_selects_exact_count_and_largest() {
        let mut rng = SmallRng::seed_from_u64(201);
        let grad: Vec<f32> = (0..10_000).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut c = TopKCompressor::new();
        for &delta in &[0.1, 0.01, 0.001] {
            let result = c.compress(&grad, delta);
            let k = target_k(grad.len(), delta);
            assert_eq!(result.sparse.nnz(), k);
            // Every retained magnitude is >= every dropped magnitude.
            let min_kept = result
                .sparse
                .values()
                .iter()
                .map(|v| v.abs())
                .fold(f32::INFINITY, f32::min);
            let threshold = result.threshold.unwrap() as f32;
            assert!(min_kept >= threshold - 1e-12);
        }
        assert_eq!(c.kind(), CompressorKind::TopK);
    }

    #[test]
    fn empty_gradient() {
        let mut c = TopKCompressor::new();
        let result = c.compress(&[], 0.1);
        assert_eq!(result.sparse.nnz(), 0);
    }
}
