//! The [`Compressor`] trait and the common result type shared by all schemes.

use crate::engine::CompressionEngine;
use sidco_stats::fit::SidKind;
use sidco_tensor::SparseGradient;

/// The output of one compression call.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionResult {
    /// The sparsified gradient (indices + values + original length).
    pub sparse: SparseGradient,
    /// The threshold that was applied, if the scheme is threshold-based
    /// (`None` for index-selection schemes such as Random-k).
    pub threshold: Option<f64>,
    /// Number of estimation stages used, for multi-stage schemes.
    pub stages_used: Option<usize>,
}

impl CompressionResult {
    /// Wraps a sparse gradient produced without a threshold (e.g. Random-k).
    pub fn from_sparse(sparse: SparseGradient) -> Self {
        Self {
            sparse,
            threshold: None,
            stages_used: None,
        }
    }

    /// Wraps a sparse gradient produced by a threshold scheme.
    pub fn with_threshold(sparse: SparseGradient, threshold: f64) -> Self {
        Self {
            sparse,
            threshold: Some(threshold),
            stages_used: None,
        }
    }

    /// The achieved compression ratio `k̂/d`.
    pub fn achieved_ratio(&self) -> f64 {
        self.sparse.achieved_ratio()
    }
}

/// A gradient sparsifier.
///
/// Implementations may keep internal state (running averages, RNG streams, adaptive
/// stage counts), which is why [`compress`](Compressor::compress) takes `&mut self`.
/// All implementations in this crate are `Send` so a per-worker compressor can move
/// into the worker's thread in the distributed simulator.
pub trait Compressor: Send {
    /// Compresses `grad`, targeting the compression ratio `delta = k/d`.
    ///
    /// Every `delta` is defined: `0 < delta < 1` is estimated; `delta >= 1`
    /// keeps every element; a `delta` that is zero, negative or NaN selects
    /// nothing, so the result is an empty gradient of `grad`'s length.
    ///
    /// The returned sparse gradient is not guaranteed to contain exactly
    /// `delta * grad.len()` elements — the whole point of the paper's "estimation
    /// quality" metric is how close each scheme gets.
    fn compress(&mut self, grad: &[f32], delta: f64) -> CompressionResult;

    /// Resets any internal adaptive state (e.g. between training runs).
    ///
    /// The default implementation does nothing, which is correct for the stateless
    /// baselines.
    fn reset(&mut self) {}

    /// The [`CompressorKind`] this implementation realises, so cost models can
    /// charge the right scheme without being told out-of-band.
    fn kind(&self) -> CompressorKind;
}

/// How a requested ratio δ is served (see the
/// [`SidcoCompressor`](crate::sidco::SidcoCompressor) docs). Every evaluated
/// compressor returns an empty selection for [`Nothing`](Self::Nothing) and
/// keeps every element for [`Everything`](Self::Everything).
pub(crate) enum TargetRatio {
    /// δ ≤ 0 or NaN: select nothing.
    Nothing,
    /// δ ≥ 1: select everything at threshold 0.
    Everything,
    /// 0 < δ < 1: estimate the threshold for this ratio.
    Estimate(f64),
}

impl TargetRatio {
    pub(crate) fn of(delta: f64) -> Self {
        if delta >= 1.0 {
            Self::Everything
        } else if delta > 0.0 {
            // A subnormal δ would make ln(1/δ) infinite.
            Self::Estimate(delta.max(f64::MIN_POSITIVE))
        } else {
            Self::Nothing
        }
    }

    /// The result of a threshold scheme for a δ that needs no estimate: an
    /// empty selection for `Nothing`, every element at threshold 0 (through
    /// `engine`) for `Everything`, and `None` when δ must be estimated.
    pub(crate) fn trivial_result(
        delta: f64,
        grad: &[f32],
        engine: &CompressionEngine,
    ) -> Option<CompressionResult> {
        match Self::of(delta) {
            Self::Nothing => Some(CompressionResult::from_sparse(SparseGradient::empty(
                grad.len(),
            ))),
            Self::Everything => Some(CompressionResult::with_threshold(
                engine.select_above(grad, 0.0),
                0.0,
            )),
            Self::Estimate(_) => None,
        }
    }
}

/// Enumeration of every compression scheme evaluated in the paper, used by the
/// benchmark harness and the distributed simulator to construct compressors from
/// configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CompressorKind {
    /// No compression (dense all-reduce baseline).
    None,
    /// Exact Top-k selection.
    TopK,
    /// Random-k selection.
    RandomK,
    /// Deep Gradient Compression: sampled Top-k threshold + hierarchical selection.
    Dgc,
    /// RedSync: max/mean interpolated threshold search.
    RedSync,
    /// GaussianKSGD: Gaussian fit + iterative threshold adjustment.
    GaussianKSgd,
    /// SIDCo with the given sparsity-inducing distribution.
    Sidco(SidKind),
}

impl CompressorKind {
    /// Every compressed scheme the paper compares (excludes `None`), in the order the
    /// figures list them.
    // lint: test-only the every-compressor sweeps of the facade suites (tests/compression_pipeline.rs)
    pub const EVALUATED: [CompressorKind; 8] = [
        CompressorKind::TopK,
        CompressorKind::RandomK,
        CompressorKind::Dgc,
        CompressorKind::RedSync,
        CompressorKind::GaussianKSgd,
        CompressorKind::Sidco(SidKind::Exponential),
        CompressorKind::Sidco(SidKind::Gamma),
        CompressorKind::Sidco(SidKind::GeneralizedPareto),
    ];

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            CompressorKind::None => "NoComp",
            CompressorKind::TopK => "Topk",
            CompressorKind::RandomK => "Randomk",
            CompressorKind::Dgc => "DGC",
            CompressorKind::RedSync => "RedSync",
            CompressorKind::GaussianKSgd => "GaussK",
            CompressorKind::Sidco(SidKind::Exponential) => "SIDCo-E",
            CompressorKind::Sidco(SidKind::Gamma) => "SIDCo-GP",
            CompressorKind::Sidco(SidKind::GeneralizedPareto) => "SIDCo-P",
        }
    }
}

impl std::fmt::Display for CompressorKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_constructors() {
        let s = SparseGradient::from_pairs(vec![(0, 1.0)], 4);
        let r = CompressionResult::from_sparse(s.clone());
        assert_eq!(r.threshold, None);
        assert_eq!(r.achieved_ratio(), 0.25);
        let r = CompressionResult::with_threshold(s, 0.5);
        assert_eq!(r.threshold, Some(0.5));
        assert_eq!(r.stages_used, None);
    }

    #[test]
    fn kind_labels_match_paper_figures() {
        assert_eq!(CompressorKind::TopK.label(), "Topk");
        assert_eq!(CompressorKind::Dgc.label(), "DGC");
        assert_eq!(CompressorKind::RedSync.label(), "RedSync");
        assert_eq!(CompressorKind::GaussianKSgd.label(), "GaussK");
        assert_eq!(
            CompressorKind::Sidco(SidKind::Exponential).label(),
            "SIDCo-E"
        );
        assert_eq!(
            CompressorKind::Sidco(SidKind::Gamma).to_string(),
            "SIDCo-GP"
        );
        assert_eq!(CompressorKind::EVALUATED.len(), 8);
    }
}
