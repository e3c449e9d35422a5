//! Statistical substrate for the SIDCo gradient-compression library.
//!
//! This crate implements everything SIDCo needs to model a gradient vector as draws
//! from a *sparsity-inducing distribution* (SID) and to invert the fitted CDF into a
//! sparsification threshold:
//!
//! * [`special`] — special functions (log-gamma, erfc, regularized incomplete
//!   gamma and its inverse) implemented from scratch so that no external numerics
//!   dependency is required.
//! * [`distribution`] — the [`Continuous`] trait plus the
//!   concrete distributions used by the paper: [`Exponential`],
//!   [`Laplace`] (double exponential), [`Gamma`] and
//!   [`DoubleGamma`], [`GeneralizedPareto`]
//!   and [`DoubleGeneralizedPareto`], and
//!   [`Normal`]. They only sample and evaluate densities and quantiles; none
//!   of them fits itself.
//! * [`fit`] — the one home of the paper's closed-form estimators
//!   (Corollaries 1.1–1.3 and Lemma 2): exponential MLE, gamma via Minka's
//!   closed-form approximation, and generalized-Pareto moment matching.
//!   SIDCo's multi-stage estimator and the Figure 2/8 harness both fit
//!   through [`fit::fit_sid_from_moments`].
//! * [`empirical`] — empirical CDF, quantiles, histograms and Kolmogorov–Smirnov
//!   distances used to validate Property 1/2 of the paper.
//! * [`moments`] — Welford running moments and one-pass absolute-value statistics.
//! * [`pot`] — peaks-over-threshold (extreme-value theory) utilities behind the
//!   multi-stage threshold estimator.
//!
//! # Example
//!
//! Estimate the threshold that keeps the top 1% of a Laplace-like gradient vector:
//!
//! ```
//! use sidco_stats::fit::exponential_threshold;
//!
//! let grad: Vec<f32> = (0..10_000)
//!     .map(|i| ((i % 97) as f32 - 48.0) / 4800.0)
//!     .collect();
//! let eta = exponential_threshold(&grad, 0.01);
//! assert!(eta > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distribution;
pub mod empirical;
pub mod error;
pub mod exponential;
pub mod fit;
pub mod gamma;
pub mod laplace;
pub mod moments;
pub mod normal;
pub mod pareto;
pub mod pot;
pub mod special;

pub use distribution::Continuous;
pub use error::StatsError;
pub use exponential::Exponential;
pub use gamma::{DoubleGamma, Gamma};
pub use laplace::Laplace;
pub use normal::Normal;
pub use pareto::{DoubleGeneralizedPareto, GeneralizedPareto};
