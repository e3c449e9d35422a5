//! Workloads for the SIDCo experiments.
//!
//! The paper evaluates gradient compression on six DNN benchmarks (Table 1) trained
//! on real datasets with PyTorch. Neither the datasets (ImageNet, PTB, AN4) nor the
//! GPU cluster are available to this reproduction, so this crate supplies two kinds
//! of substitutes that exercise exactly the same compressor code paths:
//!
//! * [`benchmarks`] — the Table-1 specifications (parameter counts, batch sizes,
//!   learning rates, communication-overhead fractions) used by the distributed
//!   simulator to size gradients and the network cost model;
//! * [`synthetic`] — a gradient generator that produces vectors whose marginal
//!   distribution and sparsity evolution match what the paper observed on real
//!   training runs (compressible, SID-shaped, sparser at later iterations);
//! * real, analytically differentiable models trained end-to-end by the simulator:
//!   [`regression`] (linear least squares), [`logistic`] (softmax classification),
//!   [`mlp`] (one-hidden-layer network) and [`rnn`] (Elman recurrent network for a
//!   synthetic sequence task), each with hand-written backprop over the synthetic
//!   datasets in [`dataset`].
//!
//! # Example
//!
//! ```
//! use sidco_models::benchmarks::BenchmarkId;
//! use sidco_models::synthetic::{GradientProfile, SyntheticGradientGenerator};
//!
//! let spec = BenchmarkId::Vgg16Cifar10.spec();
//! assert_eq!(spec.parameters, 14_982_987);
//!
//! let mut gen = SyntheticGradientGenerator::new(10_000, GradientProfile::LaplaceLike, 7);
//! let g = gen.gradient(100);
//! assert_eq!(g.len(), 10_000);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod benchmarks;
pub mod dataset;
mod kernel;
pub mod logistic;
pub mod mlp;
pub mod model;
pub mod regression;
pub mod rnn;
pub mod synthetic;

pub use benchmarks::{BenchmarkId, BenchmarkSpec};
pub use model::{dataset_metrics, DatasetMetrics, DifferentiableModel};
pub use synthetic::{GradientProfile, SyntheticGradientGenerator};
