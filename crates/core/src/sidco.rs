//! The SIDCo compressor (Algorithm 1 of the paper): multi-stage statistical
//! threshold estimation with adaptive stage-count control.
//!
//! Each call:
//!
//! 1. runs `M` fitting stages — the first over the whole absolute gradient, each
//!    subsequent stage over the exceedances of the previous stage's threshold
//!    (peaks-over-threshold, Section 2.4);
//! 2. applies the final threshold to the full gradient (the `C_η` operator);
//! 3. records the achieved ratio, and every `Q` iterations adjusts `M` so the
//!    running-average ratio stays inside the `[1 - ε_L, 1 + ε_H]` band around the
//!    target (the `Adapt_Stages` function).

use crate::compressor::{CompressionResult, Compressor, CompressorKind, TargetRatio};
use crate::engine::{CompressionEngine, SurvivorStages};
use sidco_stats::error::StatsError;
use sidco_stats::fit::SidKind;
use sidco_stats::pot::{multi_stage_threshold_with, MultiStageEstimate};
use sidco_tensor::parallel::SurvivorLists;
use sidco_tensor::SparseGradient;
use std::cell::Cell;

/// First-stage compression ratio `δ₁` (0.25 in the paper): the first fit's
/// threshold keeps this share of the gradient, and each later stage refits only
/// those exceedances. The device cost model reads it too, to price the refits.
pub const FIRST_STAGE_RATIO: f64 = 0.25;

/// Configuration of the SIDCo compressor.
///
/// The defaults are the paper's evaluation settings: error tolerance `ε = 20%` and
/// adaptation window `Q = 5` iterations (the first-stage ratio is
/// [`FIRST_STAGE_RATIO`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SidcoConfig {
    /// Which sparsity-inducing distribution to fit.
    pub sid: SidKind,
    /// Upper estimation-error tolerance `ε_H`: if the running-average achieved ratio
    /// exceeds `(1 + ε_H) · δ`, a stage is removed.
    pub epsilon_high: f64,
    /// Lower estimation-error tolerance `ε_L`: if the running-average achieved ratio
    /// falls below `(1 - ε_L) · δ`, a stage is added.
    pub epsilon_low: f64,
    /// Number of iterations between stage adaptations (`Q`).
    pub adaptation_period: usize,
    /// Hard cap on the number of stages (`M_max`).
    pub max_stages: usize,
    /// Initial number of stages.
    pub initial_stages: usize,
}

impl SidcoConfig {
    /// The paper's default configuration with the double-exponential SID (SIDCo-E).
    pub fn exponential() -> Self {
        Self::for_sid(SidKind::Exponential)
    }

    /// The paper's default configuration with the gamma → generalized-Pareto SID
    /// chain (SIDCo-GP).
    pub fn gamma_pareto() -> Self {
        Self::for_sid(SidKind::Gamma)
    }

    /// The paper's default configuration with the generalized-Pareto SID (SIDCo-P).
    pub fn generalized_pareto() -> Self {
        Self::for_sid(SidKind::GeneralizedPareto)
    }

    /// Default configuration for an arbitrary SID.
    pub fn for_sid(sid: SidKind) -> Self {
        Self {
            sid,
            epsilon_high: 0.2,
            epsilon_low: 0.2,
            adaptation_period: 5,
            max_stages: 8,
            initial_stages: 1,
        }
    }

    /// Validates the configuration, panicking with a descriptive message when a
    /// field is outside its domain. Called by [`SidcoCompressor::new`].
    fn validate(&self) {
        assert!(
            (0.0..1.0).contains(&self.epsilon_high) && (0.0..1.0).contains(&self.epsilon_low),
            "tolerances must lie in [0,1)"
        );
        assert!(
            self.adaptation_period > 0,
            "adaptation_period must be positive"
        );
        assert!(
            self.max_stages >= 1 && self.initial_stages >= 1,
            "stage counts must be at least 1"
        );
        assert!(
            self.initial_stages <= self.max_stages,
            "initial_stages must not exceed max_stages"
        );
    }
}

impl Default for SidcoConfig {
    fn default() -> Self {
        Self::exponential()
    }
}

/// The SIDCo compressor.
///
/// # Passes over the gradient
///
/// An `M`-stage compress reads the whole gradient twice: the mean pass of
/// the first fit, and the first exceedance pass, which also keeps its
/// survivors (`|g| >= η₁`, about `δ₁` of the elements) as per-chunk
/// `(index, value)` lists. Stages 3..M narrow those lists and the final
/// `C_η` filters them, which is exact because every later threshold is at
/// least `η₁`. The thresholds, survivor counts and selection keep the bits
/// of an estimate that rescans the gradient for every stage. The lists
/// cost 8 bytes per stage-1 survivor and are reused across calls, in one
/// buffer per thread that every compressor on the thread shares. A
/// one-stage estimate (`M = 1`, or `δ ≥ δ₁`) keeps no lists and selects
/// from the gradient.
///
/// # Out-of-range ratios
///
/// [`compress`](Compressor::compress) and
/// [`estimate_threshold`](SidcoCompressor::estimate_threshold) read δ the
/// same way. A δ ≥ 1 selects every element at threshold 0. A δ ≤ 0 selects
/// nothing and has no threshold, and a NaN δ behaves like δ ≤ 0. A positive
/// δ too small to invert is raised to `f64::MIN_POSITIVE`.
///
/// # Example
///
/// ```
/// use sidco_core::prelude::*;
///
/// let grad: Vec<f32> = (1..=100_000)
///     .map(|j| if j % 2 == 0 { 1.0 } else { -1.0 } * (j as f32).powf(-0.8))
///     .collect();
/// let mut sidco = SidcoCompressor::new(SidcoConfig::exponential());
/// let result = sidco.compress(&grad, 0.001);
/// assert!(result.stages_used.unwrap() >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct SidcoCompressor {
    config: SidcoConfig,
    engine: CompressionEngine,
    stages: usize,
    iteration: u64,
    ratio_accumulator: f64,
    ratio_samples: usize,
}

impl SidcoCompressor {
    /// Creates a SIDCo compressor from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see [`SidcoConfig`] field docs).
    pub fn new(config: SidcoConfig) -> Self {
        config.validate();
        Self {
            stages: config.initial_stages,
            config,
            engine: CompressionEngine::from_env(),
            iteration: 0,
            ratio_accumulator: 0.0,
            ratio_samples: 0,
        }
    }

    /// Routes the fitting statistics and the selection scan through `engine`
    /// (bit-identical output for every thread count).
    #[must_use]
    pub fn with_engine(mut self, engine: CompressionEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The active configuration.
    // lint: test-only the survivor-compaction oracle reads it (tests/stage_kernels.rs)
    pub fn config(&self) -> &SidcoConfig {
        &self.config
    }

    /// The execution engine in use.
    // lint: test-only the survivor-compaction oracle reads it (tests/stage_kernels.rs)
    pub fn engine(&self) -> CompressionEngine {
        self.engine
    }

    /// The current number of estimation stages `M`.
    pub fn current_stages(&self) -> usize {
        self.stages
    }

    /// Runs only the threshold-estimation part (no selection) — used by the
    /// micro-benchmarks that want to time estimation separately from the scan.
    ///
    /// Returns `None` if the gradient is empty or all-zero, or if δ selects
    /// nothing (δ ≤ 0 or NaN). A δ ≥ 1 returns one stage at threshold 0, the
    /// threshold [`compress`](Compressor::compress) applies to it.
    pub fn estimate_threshold(&self, grad: &[f32], delta: f64) -> Option<MultiStageEstimate> {
        match TargetRatio::of(delta) {
            TargetRatio::Nothing => None,
            TargetRatio::Everything => (!grad.is_empty()).then(|| MultiStageEstimate {
                thresholds: vec![0.0],
                schedule: vec![1.0],
                survivors: vec![grad.len()],
            }),
            TargetRatio::Estimate(delta) => with_survivors(|lists| {
                self.estimate(&mut SurvivorStages::new(&self.engine, lists), grad, delta)
                    .ok()
            }),
        }
    }

    /// The current `M`-stage estimate of `grad` at `0 < delta < 1` on
    /// `backend`.
    fn estimate(
        &self,
        backend: &mut SurvivorStages<'_>,
        grad: &[f32],
        delta: f64,
    ) -> Result<MultiStageEstimate, StatsError> {
        multi_stage_threshold_with(
            grad,
            self.config.sid,
            delta,
            FIRST_STAGE_RATIO,
            self.stages,
            backend,
        )
    }

    /// The `Adapt_Stages` routine of Algorithm 1: adjusts `M` based on the average
    /// achieved ratio observed over the last adaptation window.
    ///
    /// Direction of the update: each additional stage refits only the exceedances of
    /// the previous threshold, which moves the estimate *toward the empirical tail
    /// quantile from either side* — on heavier-than-exponential tails the bulk fit
    /// sets the threshold too low (over-selection, the behaviour the paper reports
    /// for LSTM-AN4 start-up) and the exceedance refit raises it; on lighter tails
    /// the bulk fit extrapolates too far and the exceedance refit lowers it.
    /// The controller therefore adds a stage whenever the windowed average ratio
    /// falls outside the `[1 - ε_L, 1 + ε_H]` band, and holds the count otherwise.
    fn adapt_stages(&mut self, average_ratio: f64, delta: f64) {
        let k_avg = average_ratio;
        let too_high = k_avg > delta * (1.0 + self.config.epsilon_high);
        let too_low = k_avg < delta * (1.0 - self.config.epsilon_low);
        if too_high || too_low {
            self.stages += 1;
        }
        self.stages = self.stages.clamp(1, self.config.max_stages);
    }
}

impl Default for SidcoCompressor {
    fn default() -> Self {
        Self::new(SidcoConfig::default())
    }
}

thread_local! {
    /// The survivor lists of every SIDCo estimate on this thread. Sharing
    /// them across compressors bounds their memory by threads, not by the
    /// compressors a trainer keeps (one per worker and bucket).
    static SURVIVORS: Cell<SurvivorLists> = Cell::new(SurvivorLists::new());
}

/// Runs `f` on this thread's survivor lists. A nested estimate on the same
/// thread gets empty lists of its own.
fn with_survivors<R>(f: impl FnOnce(&mut SurvivorLists) -> R) -> R {
    let mut lists = SURVIVORS.take();
    let result = f(&mut lists);
    SURVIVORS.set(lists);
    result
}

impl Compressor for SidcoCompressor {
    fn compress(&mut self, grad: &[f32], delta: f64) -> CompressionResult {
        self.iteration += 1;
        if grad.is_empty() {
            return CompressionResult::from_sparse(SparseGradient::empty(0));
        }
        let delta = match TargetRatio::of(delta) {
            TargetRatio::Nothing => {
                return CompressionResult::from_sparse(SparseGradient::empty(grad.len()));
            }
            TargetRatio::Everything => {
                let sparse = self.engine.select_above(grad, 0.0);
                return CompressionResult::with_threshold(sparse, 0.0);
            }
            TargetRatio::Estimate(delta) => delta,
        };

        let outcome = with_survivors(|lists| {
            let mut stages = SurvivorStages::new(&self.engine, lists);
            let estimate = self.estimate(&mut stages, grad, delta)?;
            let sparse = stages.select(grad, estimate.final_threshold());
            Ok::<_, StatsError>((estimate, sparse))
        });
        let Ok((estimate, sparse)) = outcome else {
            // All-zero gradient: nothing worth sending.
            return CompressionResult {
                sparse: SparseGradient::empty(grad.len()),
                threshold: Some(0.0),
                stages_used: Some(self.stages),
            };
        };
        let threshold = estimate.final_threshold();

        // Record the achieved ratio and periodically adapt the stage count.
        let achieved = sparse.achieved_ratio();
        self.ratio_accumulator += achieved;
        self.ratio_samples += 1;
        if self
            .iteration
            .is_multiple_of(self.config.adaptation_period as u64)
            && self.ratio_samples > 0
        {
            let average = self.ratio_accumulator / self.ratio_samples as f64;
            self.adapt_stages(average, delta);
            self.ratio_accumulator = 0.0;
            self.ratio_samples = 0;
        }

        CompressionResult {
            sparse,
            threshold: Some(threshold),
            stages_used: Some(estimate.thresholds.len()),
        }
    }

    fn reset(&mut self) {
        self.stages = self.config.initial_stages;
        self.iteration = 0;
        self.ratio_accumulator = 0.0;
        self.ratio_samples = 0;
    }

    fn kind(&self) -> CompressorKind {
        CompressorKind::Sidco(self.config.sid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use sidco_stats::distribution::Continuous;
    use sidco_stats::moments::MomentNeeds;
    use sidco_stats::{DoubleGeneralizedPareto, Laplace};

    fn laplace_gradient(scale: f64, n: usize, seed: u64) -> Vec<f32> {
        let d = Laplace::new(0.0, scale).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        d.sample_vec(&mut rng, n)
            .into_iter()
            .map(|x| x as f32)
            .collect()
    }

    #[test]
    fn config_presets_and_validation() {
        assert_eq!(SidcoConfig::exponential().sid, SidKind::Exponential);
        assert_eq!(SidcoConfig::gamma_pareto().sid, SidKind::Gamma);
        assert_eq!(
            SidcoConfig::generalized_pareto().sid,
            SidKind::GeneralizedPareto
        );
    }

    #[test]
    #[should_panic(expected = "initial_stages must not exceed max_stages")]
    fn invalid_config_panics() {
        SidcoCompressor::new(SidcoConfig {
            initial_stages: 3,
            max_stages: 2,
            ..SidcoConfig::default()
        });
    }

    #[test]
    fn kinds_follow_sid() {
        for (config, sid) in [
            (SidcoConfig::exponential(), SidKind::Exponential),
            (SidcoConfig::gamma_pareto(), SidKind::Gamma),
            (
                SidcoConfig::generalized_pareto(),
                SidKind::GeneralizedPareto,
            ),
        ] {
            assert_eq!(
                SidcoCompressor::new(config).kind(),
                CompressorKind::Sidco(sid)
            );
        }
    }

    #[test]
    fn achieves_target_ratio_on_laplace_gradients() {
        let grad = laplace_gradient(0.005, 300_000, 601);
        for config in [
            SidcoConfig::exponential(),
            SidcoConfig::gamma_pareto(),
            SidcoConfig::generalized_pareto(),
        ] {
            let mut c = SidcoCompressor::new(config);
            for &delta in &[0.1, 0.01, 0.001] {
                // Let the stage adaptation settle over a few iterations.
                let mut achieved = 0.0;
                for _ in 0..10 {
                    achieved = c.compress(&grad, delta).achieved_ratio();
                }
                assert!(
                    (achieved - delta).abs() / delta < 0.6,
                    "{}: delta={delta}, achieved={achieved}",
                    c.kind()
                );
            }
        }
    }

    #[test]
    fn stage_adaptation_converges_within_tolerance_band() {
        // Heavy-tailed gradients at an aggressive ratio: the adaptive loop should
        // settle on a stage count whose running-average ratio is inside ±ε.
        let d = DoubleGeneralizedPareto::new(0.25, 0.01).unwrap();
        let mut rng = SmallRng::seed_from_u64(602);
        let grad: Vec<f32> = d
            .sample_vec(&mut rng, 300_000)
            .iter()
            .map(|&x| x as f32)
            .collect();
        let delta = 0.001;
        let mut c = SidcoCompressor::new(SidcoConfig::exponential());
        let mut last_window_avg = 0.0;
        for window in 0..8 {
            let mut sum = 0.0;
            for _ in 0..c.config().adaptation_period {
                sum += c.compress(&grad, delta).achieved_ratio();
            }
            last_window_avg = sum / c.config().adaptation_period as f64;
            let _ = window;
        }
        let rel_err = (last_window_avg - delta).abs() / delta;
        assert!(
            rel_err < 0.75,
            "after adaptation the average ratio should approach the target: err={rel_err}, stages={}",
            c.current_stages()
        );
        assert!(c.current_stages() >= 1 && c.current_stages() <= c.config().max_stages);
    }

    #[test]
    fn adapt_stages_moves_in_the_right_direction() {
        let mut c = SidcoCompressor::new(SidcoConfig {
            initial_stages: 3,
            ..SidcoConfig::exponential()
        });
        // Over-selection adds a stage (deeper tail refit raises the threshold).
        c.adapt_stages(0.01 * 1.5, 0.01);
        assert_eq!(c.current_stages(), 4);
        // Under-selection also adds a stage (the refit lowers an overshot threshold).
        c.adapt_stages(0.01 * 0.5, 0.01);
        assert_eq!(c.current_stages(), 5);
        // Within the band: unchanged.
        c.adapt_stages(0.0101, 0.01);
        assert_eq!(c.current_stages(), 5);
        // Never above the cap.
        for _ in 0..20 {
            c.adapt_stages(1.0, 0.01);
        }
        assert_eq!(c.current_stages(), c.config().max_stages);
    }

    #[test]
    fn reset_restores_initial_state() {
        let grad = laplace_gradient(0.01, 50_000, 603);
        let mut c = SidcoCompressor::new(SidcoConfig::exponential());
        for _ in 0..12 {
            c.compress(&grad, 0.001);
        }
        assert_eq!(c.iteration, 12);
        c.reset();
        assert_eq!(c.iteration, 0);
        assert_eq!(c.current_stages(), c.config().initial_stages);
    }

    #[test]
    fn estimate_threshold_matches_compress_threshold() {
        let grad = laplace_gradient(0.01, 100_000, 604);
        let c = SidcoCompressor::new(SidcoConfig::exponential());
        let est = c.estimate_threshold(&grad, 0.01).unwrap();
        let mut c2 = SidcoCompressor::new(SidcoConfig::exponential());
        let result = c2.compress(&grad, 0.01);
        assert!((est.final_threshold() - result.threshold.unwrap()).abs() < 1e-12);
        assert!(c.estimate_threshold(&[], 0.01).is_none());
    }

    #[test]
    fn degenerate_gradients() {
        let mut c = SidcoCompressor::new(SidcoConfig::exponential());
        assert_eq!(c.compress(&[], 0.01).sparse.nnz(), 0);
        let zeros = [0.0f32; 128];
        let result = c.compress(&zeros, 0.01);
        assert_eq!(result.sparse.nnz(), 0);
        // delta = 1 keeps everything.
        let grad = [0.5f32, -0.2, 0.1];
        assert_eq!(c.compress(&grad, 1.0).sparse.nnz(), 3);
    }

    /// One outlier over a flat bulk: the threshold a tiny positive δ
    /// estimates still selects the outlier, so "selects nothing" is a
    /// policy, not an accident of a huge threshold.
    fn outlier_gradient() -> Vec<f32> {
        let mut grad = vec![1e-6f32; 4096];
        grad[17] = -1.0;
        grad
    }

    const SID_CONFIGS: [fn() -> SidcoConfig; 3] = [
        SidcoConfig::exponential,
        SidcoConfig::gamma_pareto,
        SidcoConfig::generalized_pareto,
    ];

    fn assert_selects_nothing(delta: f64) {
        let grad = outlier_gradient();
        for config in SID_CONFIGS {
            let mut c = SidcoCompressor::new(config());
            assert!(c.estimate_threshold(&grad, delta).is_none(), "δ = {delta}");
            let result = c.compress(&grad, delta);
            assert_eq!(result.sparse.nnz(), 0, "δ = {delta}");
            assert_eq!(result.sparse.dense_len(), grad.len());
            assert_eq!(result.threshold, None, "δ = {delta}");
        }
    }

    #[test]
    fn nan_delta_selects_nothing() {
        assert_selects_nothing(f64::NAN);
    }

    #[test]
    fn non_positive_deltas_select_nothing() {
        for delta in [0.0, -0.0, -1.0, f64::NEG_INFINITY] {
            assert_selects_nothing(delta);
        }
    }

    #[test]
    fn deltas_of_one_or_more_keep_everything_at_threshold_zero() {
        let grad = outlier_gradient();
        for config in SID_CONFIGS {
            for delta in [1.0, 2.0, f64::INFINITY] {
                let mut c = SidcoCompressor::new(config());
                let estimate = c.estimate_threshold(&grad, delta).unwrap();
                let result = c.compress(&grad, delta);
                assert_eq!(estimate.final_threshold(), 0.0, "δ = {delta}");
                assert_eq!(result.threshold, Some(0.0), "δ = {delta}");
                assert_eq!(result.sparse.nnz(), grad.len(), "δ = {delta}");
            }
        }
    }

    #[test]
    fn subnormal_delta_is_raised_to_the_smallest_normal() {
        let grad = outlier_gradient();
        for config in SID_CONFIGS {
            let mut c = SidcoCompressor::new(config());
            let tiny = c.estimate_threshold(&grad, 1e-320).unwrap();
            let normal = c.estimate_threshold(&grad, f64::MIN_POSITIVE).unwrap();
            assert!(tiny.final_threshold().is_finite());
            assert_eq!(tiny, normal);
            assert_eq!(
                c.compress(&grad, 1e-320).threshold,
                Some(tiny.final_threshold())
            );
        }
    }

    #[test]
    fn a_nested_estimate_leaves_the_outer_survivor_lists_alone() {
        // A pool thread waiting on its own chunks may run another compress
        // job; that estimate must neither see nor disturb the lists the
        // outer estimate holds.
        let grad = laplace_gradient(0.01, 50_000, 605);
        let other = laplace_gradient(0.02, 30_000, 606);
        let config = SidcoConfig {
            initial_stages: 3,
            ..SidcoConfig::exponential()
        };
        let expected = SidcoCompressor::new(config).compress(&grad, 0.001);
        let engine = CompressionEngine::sequential();
        let nested = with_survivors(|outer| {
            outer.fill_on(
                &other,
                0.01,
                MomentNeeds::MEAN,
                1000,
                engine.shared_runtime(),
            );
            let before = outer.survivors();
            let nested = SidcoCompressor::new(config).compress(&grad, 0.001);
            assert!(outer.is_filled());
            assert_eq!(outer.survivors(), before);
            nested
        });
        assert_eq!(nested.sparse, expected.sparse);
        assert_eq!(nested.threshold, expected.threshold);
    }

    #[test]
    fn compressor_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<SidcoCompressor>();
    }
}
