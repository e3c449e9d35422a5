//! Peaks-over-threshold (PoT) machinery behind the multi-stage threshold estimator
//! (Section 2.4, Lemma 2 and Corollary 2.1 of the paper).
//!
//! The multi-stage idea: a single fit of the whole gradient is biased toward the
//! mass of near-zero elements, so the estimated far-tail quantile drifts for
//! aggressive ratios (δ ≤ 0.001). Extreme-value theory says the *exceedances* over a
//! high threshold are approximately generalized-Pareto distributed regardless of the
//! original distribution (and remain exponential if the original tail was
//! exponential), so each stage refits only the exceedances of the previous stage's
//! threshold and pushes the threshold further into the tail.
//!
//! This module holds the schedule, the stage loop and the moment backends,
//! but no estimator: every stage update ([`stage_threshold`]) fits the
//! stage's SID with [`fit_sid_from_moments`], the one implementation of
//! Corollaries 1.1–1.3 and of the Lemma 2 / Corollary 2.1 refits, and inverts
//! the fit with [`FittedSid::threshold`](crate::fit::FittedSid::threshold).

use crate::error::StatsError;
use crate::fit::{fit_sid_from_moments, SidKind};
use crate::moments::{AbsMoments, MomentNeeds};

/// Per-stage compression-ratio schedule for an `M`-stage estimator.
///
/// The paper fixes the first-stage ratio `δ₁` (0.25 in the evaluation) and requires
/// the product of all stage ratios to equal the target `δ`. The remaining `M - 1`
/// stages split the leftover ratio evenly in log space.
///
/// For `M = 1` the single stage carries the full target ratio. If `δ ≥ δ₁` the first
/// stage alone would overshoot, so the schedule collapses to a single stage with
/// ratio `δ`; so does a `δ` so close under `δ₁` that a later stage ratio rounds
/// to 1.
///
/// # Panics
///
/// Panics if `delta` or `delta1` is outside `(0, 1)` or `stages == 0`.
///
/// # Example
///
/// ```
/// use sidco_stats::pot::stage_schedule;
///
/// let sched = stage_schedule(0.001, 0.25, 3);
/// assert_eq!(sched.len(), 3);
/// let product: f64 = sched.iter().product();
/// assert!((product - 0.001).abs() < 1e-12);
/// assert!((sched[0] - 0.25).abs() < 1e-12);
/// ```
pub fn stage_schedule(delta: f64, delta1: f64, stages: usize) -> Vec<f64> {
    assert!(
        delta > 0.0 && delta < 1.0,
        "delta must lie in (0,1), got {delta}"
    );
    assert!(
        delta1 > 0.0 && delta1 < 1.0,
        "delta1 must lie in (0,1), got {delta1}"
    );
    assert!(stages > 0, "at least one stage is required");
    if stages == 1 || delta >= delta1 {
        return vec![delta];
    }
    let remaining = delta / delta1;
    let per_stage = remaining.powf(1.0 / (stages - 1) as f64);
    let mut schedule = Vec::with_capacity(stages);
    schedule.push(delta1);
    for _ in 1..stages {
        schedule.push(per_stage);
    }
    // Fix up rounding so the product is exactly delta.
    let product: f64 = schedule.iter().product();
    // INVARIANT: stages >= 1 is asserted on entry, so the schedule has at
    // least one entry.
    let last = schedule.last_mut().expect("non-empty schedule");
    *last *= delta / product;
    // A few ulps under δ₁ the later ratios round to 1: no later stage would
    // refit anything, so collapse as for δ ≥ δ₁.
    if schedule[1..].iter().any(|&d| d >= 1.0) {
        return vec![delta];
    }
    schedule
}

/// The SID that stage `stage_index` fits: SIDCo-GP fits a gamma to the whole
/// gradient and refits every later stage's exceedances as a generalized
/// Pareto (Algorithm 1); SIDCo-E and SIDCo-P keep their SID throughout.
fn stage_sid(kind: SidKind, stage_index: usize) -> SidKind {
    match (kind, stage_index) {
        (SidKind::Gamma, 1..) => SidKind::GeneralizedPareto,
        _ => kind,
    }
}

/// Computes one stage's threshold update for the given SID:
/// `η_m = η_{m-1} + max(0, F̂⁻¹(1 - δ_m))`, with `F̂` the stage SID fitted to
/// `moments` by [`fit_sid_from_moments`].
///
/// The convention mirrors Algorithm 1: the **first** stage (`stage_index == 0`) fits
/// the full absolute-gradient moments with the chosen SID; later stages fit the
/// shifted exceedances (Corollary 2.1 for the exponential, Lemma 2 for the GP).
/// For [`SidKind::Gamma`] the later stages switch to the GP refit exactly as the
/// paper's gamma-GP (SIDCo-GP) variant prescribes. Moments that admit no fit
/// (none counted, or a mean that is not positive) leave `prev_threshold`
/// unchanged.
pub fn stage_threshold(
    kind: SidKind,
    stage_index: usize,
    moments: &AbsMoments,
    prev_threshold: f64,
    stage_delta: f64,
) -> f64 {
    match fit_sid_from_moments(moments, stage_sid(kind, stage_index)) {
        Ok(fit) => prev_threshold + fit.threshold(stage_delta).max(0.0),
        Err(_) => prev_threshold,
    }
}

/// The [`AbsMoments`] fields [`stage_threshold`] reads for `kind` at
/// `stage_index`, so the stage's moment pass can skip the rest.
///
/// Every update reads the mean. The exponential update reads nothing else;
/// the GP refit also reads the variance; only the gamma fit of SIDCo-GP's
/// first stage reads the log-moment, which is the one accumulator that takes
/// a per-element `ln`.
pub fn stage_needs(kind: SidKind, stage_index: usize) -> MomentNeeds {
    match stage_sid(kind, stage_index) {
        SidKind::Exponential => MomentNeeds::MEAN,
        SidKind::Gamma => MomentNeeds::MEAN.with_mean_ln(),
        SidKind::GeneralizedPareto => MomentNeeds::MEAN.with_variance(),
    }
}

/// Result of running the full multi-stage estimation pipeline on a gradient.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiStageEstimate {
    /// The per-stage thresholds `η₁ ≤ η₂ ≤ … ≤ η_M` (monotone by construction on
    /// well-behaved inputs).
    pub thresholds: Vec<f64>,
    /// The per-stage ratios used.
    pub schedule: Vec<f64>,
    /// Number of exceedances that survived each stage.
    pub survivors: Vec<usize>,
}

impl MultiStageEstimate {
    /// The final threshold to apply to the full gradient.
    pub fn final_threshold(&self) -> f64 {
        // INVARIANT: estimation always records at least one stage.
        *self.thresholds.last().expect("at least one stage")
    }
}

/// Supplies the per-stage moment computations of the multi-stage estimator, so
/// the reduction backend is pluggable: [`SequentialMoments`] is the reference
/// single-threaded backend, and the compressor in `sidco-core` plugs in a
/// chunked multi-threaded backend that compacts the gradient after its first
/// exceedance pass.
///
/// The estimator passes the [`stage_needs`] of each step; a backend must make
/// every requested field bit-identical to the all-fields computation and may
/// leave the rest unrequested (see [`MomentNeeds`]).
///
/// One estimate calls [`full_moments`](Self::full_moments) once, then
/// [`exceedance_moments`](Self::exceedance_moments) once per later stage on
/// the same gradient, with thresholds that are never NaN and never decrease.
/// Everything a later stage reads is therefore a subset of what the earlier
/// ones read, so a backend may narrow state between the calls (the methods
/// take `&mut self`) as long as each answer keeps the bits of a scan of the
/// whole gradient.
pub trait StageMoments {
    /// Moments of the full absolute gradient (stage 0's fit input); starts a
    /// new estimate.
    fn full_moments(&mut self, grad: &[f32], needs: MomentNeeds) -> AbsMoments;

    /// Shifted moments of the exceedances `|g| - threshold` for
    /// `|g| >= threshold` (the PoT refit input of stages 1..M).
    fn exceedance_moments(
        &mut self,
        grad: &[f32],
        threshold: f64,
        needs: MomentNeeds,
    ) -> AbsMoments;
}

/// The reference single-threaded [`StageMoments`] backend: every stage scans
/// the whole gradient.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SequentialMoments;

impl StageMoments for SequentialMoments {
    fn full_moments(&mut self, grad: &[f32], needs: MomentNeeds) -> AbsMoments {
        AbsMoments::compute_with(grad, needs)
    }

    fn exceedance_moments(
        &mut self,
        grad: &[f32],
        threshold: f64,
        needs: MomentNeeds,
    ) -> AbsMoments {
        AbsMoments::compute_exceedances_with(grad, threshold, needs)
    }
}

/// Runs the complete multi-stage threshold estimation of Section 2.4 over a gradient
/// buffer: fit → threshold → restrict to exceedances → refit, `stages` times.
///
/// This is the reference implementation used by tests and by the `sidco-core`
/// compressor (which adds the stage-count adaptation loop on top). It computes
/// moments sequentially; use [`multi_stage_threshold_with`] to plug in a
/// parallel [`StageMoments`] backend.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] if the gradient is empty or all zeros.
pub fn multi_stage_threshold(
    grad: &[f32],
    kind: SidKind,
    delta: f64,
    delta1: f64,
    stages: usize,
) -> Result<MultiStageEstimate, StatsError> {
    multi_stage_threshold_with(grad, kind, delta, delta1, stages, &mut SequentialMoments)
}

/// [`multi_stage_threshold`] with an explicit [`StageMoments`] backend.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] if the gradient is empty or all zeros.
pub fn multi_stage_threshold_with<P: StageMoments + ?Sized>(
    grad: &[f32],
    kind: SidKind,
    delta: f64,
    delta1: f64,
    stages: usize,
    backend: &mut P,
) -> Result<MultiStageEstimate, StatsError> {
    let schedule = stage_schedule(delta, delta1, stages);
    let mut thresholds = Vec::with_capacity(schedule.len());
    let mut survivors = Vec::with_capacity(schedule.len());
    let mut prev_threshold = 0.0f64;
    for (m, &stage_delta) in schedule.iter().enumerate() {
        let needs = stage_needs(kind, m);
        let moments = if m == 0 {
            backend.full_moments(grad, needs)
        } else {
            backend.exceedance_moments(grad, prev_threshold, needs)
        };
        if moments.count == 0 || !(moments.mean > 0.0) {
            if m == 0 {
                return Err(StatsError::InsufficientData {
                    len: moments.count,
                    required: 1,
                });
            }
            // No exceedances survived the previous stage: the previous threshold is
            // already deep in the tail, keep it for the remaining stages.
            thresholds.push(prev_threshold);
            survivors.push(0);
            continue;
        }
        let eta = stage_threshold(kind, m, &moments, prev_threshold, stage_delta);
        let eta = eta.max(prev_threshold);
        thresholds.push(eta);
        survivors.push(moments.count);
        prev_threshold = eta;
    }
    Ok(MultiStageEstimate {
        thresholds,
        schedule,
        survivors,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Continuous;
    use crate::laplace::Laplace;
    use crate::pareto::DoubleGeneralizedPareto;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn laplace_gradient(scale: f64, n: usize, seed: u64) -> Vec<f32> {
        let d = Laplace::new(0.0, scale).unwrap();
        let mut rng = SmallRng::seed_from_u64(seed);
        d.sample_vec(&mut rng, n)
            .into_iter()
            .map(|x| x as f32)
            .collect()
    }

    fn achieved_ratio(grad: &[f32], eta: f64) -> f64 {
        let k = grad.iter().filter(|g| (g.abs() as f64) > eta).count();
        k as f64 / grad.len() as f64
    }

    #[test]
    fn schedule_product_equals_target() {
        for &delta in &[0.1, 0.01, 0.001, 0.0001] {
            for stages in 1..6 {
                let sched = stage_schedule(delta, 0.25, stages);
                let product: f64 = sched.iter().product();
                assert!(
                    (product - delta).abs() < 1e-12,
                    "delta={delta}, stages={stages}: product {product}"
                );
                assert!(sched.iter().all(|&d| d > 0.0 && d < 1.0));
            }
        }
    }

    #[test]
    fn schedule_collapses_when_target_exceeds_delta1() {
        let sched = stage_schedule(0.5, 0.25, 3);
        assert_eq!(sched, vec![0.5]);
    }

    #[test]
    fn schedule_collapses_when_later_ratios_round_to_one() {
        // One ulp under δ₁: two stages still fit inside (0, 1), more would
        // round a later ratio to 1.
        let just_under = f64::from_bits(0.25f64.to_bits() - 1);
        assert_eq!(stage_schedule(just_under, 0.25, 2).len(), 2);
        for stages in 3..6 {
            assert_eq!(stage_schedule(just_under, 0.25, stages), vec![just_under]);
        }
        for stages in 1..6 {
            let sched = stage_schedule(just_under, 0.25, stages);
            assert!(sched.iter().all(|&d| d > 0.0 && d < 1.0), "{sched:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn schedule_rejects_zero_stages() {
        stage_schedule(0.01, 0.25, 0);
    }

    #[test]
    fn exponential_pot_matches_single_stage_composition() {
        // For truly exponential tails, applying δ₁ then δ₂ should land close to the
        // single-stage threshold for δ₁·δ₂.
        let grad = laplace_gradient(0.01, 400_000, 51);
        let delta = 0.001;
        let est2 = multi_stage_threshold(&grad, SidKind::Exponential, delta, 0.25, 2).unwrap();
        let est1 = multi_stage_threshold(&grad, SidKind::Exponential, delta, 0.25, 1).unwrap();
        let rel = (est2.final_threshold() - est1.final_threshold()).abs() / est1.final_threshold();
        assert!(rel < 0.1, "two-stage vs one-stage differ by {rel}");
    }

    #[test]
    fn multi_stage_achieves_aggressive_ratio_on_laplace() {
        let grad = laplace_gradient(0.005, 500_000, 52);
        let delta = 0.001;
        for stages in 1..=3 {
            let est =
                multi_stage_threshold(&grad, SidKind::Exponential, delta, 0.25, stages).unwrap();
            let achieved = achieved_ratio(&grad, est.final_threshold());
            assert!(
                (achieved - delta).abs() / delta < 0.5,
                "stages={stages}: achieved {achieved}"
            );
        }
    }

    #[test]
    fn multi_stage_improves_over_single_stage_on_heavy_tails() {
        // On double-GP gradients (heavier tail than exponential), the single-stage
        // exponential fit misses the target badly; the multi-stage PoT refit with a
        // GP recovers it. This is the core claim of Section 2.4.
        let d = DoubleGeneralizedPareto::new(0.3, 0.01).unwrap();
        let mut rng = SmallRng::seed_from_u64(53);
        let grad: Vec<f32> = d
            .sample_vec(&mut rng, 400_000)
            .iter()
            .map(|&x| x as f32)
            .collect();
        let delta = 0.001;

        let single =
            multi_stage_threshold(&grad, SidKind::GeneralizedPareto, delta, 0.25, 1).unwrap();
        let multi =
            multi_stage_threshold(&grad, SidKind::GeneralizedPareto, delta, 0.25, 3).unwrap();
        let err_single = (achieved_ratio(&grad, single.final_threshold()) - delta).abs() / delta;
        let err_multi = (achieved_ratio(&grad, multi.final_threshold()) - delta).abs() / delta;
        assert!(
            err_multi <= err_single + 0.05,
            "multi-stage ({err_multi}) should not be worse than single-stage ({err_single})"
        );
        assert!(err_multi < 0.5, "multi-stage error too large: {err_multi}");
    }

    #[test]
    fn thresholds_are_monotone_across_stages() {
        let grad = laplace_gradient(0.01, 200_000, 54);
        for kind in SidKind::ALL {
            let est = multi_stage_threshold(&grad, kind, 0.001, 0.25, 4).unwrap();
            for w in est.thresholds.windows(2) {
                assert!(
                    w[1] >= w[0],
                    "{kind}: thresholds not monotone: {:?}",
                    est.thresholds
                );
            }
            assert_eq!(est.schedule.len(), 4);
            assert_eq!(est.survivors.len(), 4);
        }
    }

    #[test]
    fn survivors_shrink_across_stages() {
        let grad = laplace_gradient(0.01, 200_000, 55);
        let est = multi_stage_threshold(&grad, SidKind::Exponential, 0.001, 0.25, 3).unwrap();
        for w in est.survivors.windows(2) {
            assert!(w[1] <= w[0], "survivors must shrink: {:?}", est.survivors);
        }
        assert_eq!(est.survivors[0], grad.len());
    }

    #[test]
    fn errors_on_empty_or_zero_gradient() {
        assert!(multi_stage_threshold(&[], SidKind::Exponential, 0.01, 0.25, 2).is_err());
        assert!(multi_stage_threshold(&[0.0f32; 16], SidKind::Exponential, 0.01, 0.25, 2).is_err());
    }

    #[test]
    fn handles_threshold_beyond_all_data() {
        // A tiny gradient with an aggressive ratio: later stages may find no
        // exceedances and must keep the previous threshold instead of panicking.
        let grad = [0.1f32, -0.2, 0.05, -0.01];
        let est = multi_stage_threshold(&grad, SidKind::Exponential, 0.001, 0.25, 4).unwrap();
        assert!(est.final_threshold().is_finite());
        assert_eq!(est.thresholds.len(), 4);
    }

    #[test]
    fn custom_stage_moments_backend_matches_sequential() {
        /// Answers every call with the all-fields moments and records the
        /// needs each call asked for.
        struct Counting(Vec<MomentNeeds>);
        impl StageMoments for Counting {
            fn full_moments(&mut self, grad: &[f32], needs: MomentNeeds) -> AbsMoments {
                self.0.push(needs);
                AbsMoments::compute(grad)
            }
            fn exceedance_moments(
                &mut self,
                grad: &[f32],
                threshold: f64,
                needs: MomentNeeds,
            ) -> AbsMoments {
                self.0.push(needs);
                AbsMoments::compute_exceedances(grad, threshold)
            }
        }
        let grad = laplace_gradient(0.01, 50_000, 57);
        let mean = MomentNeeds::MEAN;
        let mean_var = MomentNeeds::MEAN.with_variance();
        let mean_ln = MomentNeeds::MEAN.with_mean_ln();
        for (kind, expected) in [
            (SidKind::Exponential, [mean, mean, mean]),
            (SidKind::GeneralizedPareto, [mean_var, mean_var, mean_var]),
            (SidKind::Gamma, [mean_ln, mean_var, mean_var]),
        ] {
            let mut backend = Counting(Vec::new());
            let with =
                multi_stage_threshold_with(&grad, kind, 0.001, 0.25, 3, &mut backend).unwrap();
            let seq = multi_stage_threshold(&grad, kind, 0.001, 0.25, 3).unwrap();
            assert_eq!(with, seq, "{kind}");
            assert_eq!(
                backend.0.as_slice(),
                expected,
                "{kind}: one moments call per stage, asking only for what the update reads"
            );
        }
    }

    #[test]
    fn gamma_stage_uses_gp_for_later_stages() {
        // Smoke-test the SIDCo-GP composition: first stage gamma, later stages GP.
        let grad = laplace_gradient(0.02, 100_000, 56);
        let est = multi_stage_threshold(&grad, SidKind::Gamma, 0.001, 0.25, 3).unwrap();
        let achieved = achieved_ratio(&grad, est.final_threshold());
        assert!(
            (achieved - 0.001).abs() / 0.001 < 1.0,
            "achieved {achieved}"
        );
    }
}
