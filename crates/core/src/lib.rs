//! SIDCo: Sparsity-Inducing Distribution-based Compression for distributed training.
//!
//! This crate is the paper's primary contribution — a family of gradient
//! *sparsifiers* that estimate a Top-k-equivalent threshold from a statistical fit of
//! the gradient instead of selecting the Top-k elements exactly:
//!
//! * [`SidcoCompressor`] — the multi-stage threshold
//!   estimator of Algorithm 1, available with three sparsity-inducing distributions
//!   (double exponential, double gamma → generalized Pareto, double generalized
//!   Pareto) and an adaptive stage-count controller.
//! * Baselines from the paper's evaluation: [`TopKCompressor`](topk::TopKCompressor),
//!   [`DgcCompressor`](dgc::DgcCompressor), [`RedSyncCompressor`](redsync::RedSyncCompressor),
//!   [`GaussianKSgdCompressor`](gaussian::GaussianKSgdCompressor) and
//!   [`RandomKCompressor`](randomk::RandomKCompressor). With the three SIDCo
//!   variants these are the eight schemes the paper evaluates
//!   ([`CompressorKind::EVALUATED`]).
//! * [`ErrorFeedback`] — the EC memory that adds the
//!   previous iteration's sparsification residual back into the gradient before
//!   compression.
//! * [`CompressionEngine`] — the sharded parallel
//!   executor every compressor routes its hot loops through; opt in with a
//!   thread count (or `SIDCO_THREADS`), outputs are bit-identical across
//!   thread counts.
//! * [`metrics`] — achieved-ratio tracking (the "estimation quality" metric of the
//!   paper's figures).
//!
//! # Quickstart
//!
//! ```
//! use sidco_core::prelude::*;
//!
//! // A gradient with a heavy-tailed, compressible profile.
//! let grad: Vec<f32> = (1..=10_000)
//!     .map(|j| if j % 2 == 0 { 1.0 } else { -1.0 } * (j as f32).powf(-0.8))
//!     .collect();
//!
//! let mut compressor = SidcoCompressor::new(SidcoConfig::exponential());
//! let result = compressor.compress(&grad, 0.01);
//! let achieved = result.sparse.achieved_ratio();
//! assert!(achieved > 0.001 && achieved < 0.1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compressor;
pub mod dgc;
pub mod engine;
pub mod error_feedback;
pub mod gaussian;
pub mod layerwise;
pub mod metrics;
pub mod randomk;
pub mod redsync;
pub mod sidco;
pub mod topk;

pub use compressor::{CompressionResult, Compressor, CompressorKind};
pub use engine::CompressionEngine;
pub use error_feedback::ErrorFeedback;
pub use sidco::{SidcoCompressor, SidcoConfig};

/// Convenient glob-import of the types most users need.
pub mod prelude {
    pub use crate::compressor::{CompressionResult, Compressor, CompressorKind};
    pub use crate::dgc::DgcCompressor;
    pub use crate::engine::CompressionEngine;
    pub use crate::error_feedback::ErrorFeedback;
    pub use crate::gaussian::GaussianKSgdCompressor;
    pub use crate::layerwise::LayerLayout;
    pub use crate::metrics::EstimationQualityTracker;
    pub use crate::randomk::RandomKCompressor;
    pub use crate::redsync::RedSyncCompressor;
    pub use crate::sidco::{SidcoCompressor, SidcoConfig};
    pub use crate::topk::TopKCompressor;
    pub use sidco_stats::fit::SidKind;
    pub use sidco_tensor::{GradientVector, SparseGradient};
}
