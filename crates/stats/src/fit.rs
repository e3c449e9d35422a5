//! Closed-form threshold estimators from the paper, operating directly on `f32`
//! gradient buffers.
//!
//! These functions are the single-stage estimators of Section 2.3 / Algorithm 1's
//! `Thresh_Estimation`:
//!
//! * [`exponential_threshold`] — Corollary 1.1 (`SIDCo-E`),
//! * [`gamma_threshold`] — Corollary 1.2 (first stage of `SIDCo-GP`),
//! * [`gp_threshold`] — Corollary 1.3 (`SIDCo-P`),
//! * [`gaussian_threshold`] — the Gaussian fit used by the GaussianKSGD baseline.
//!
//! Each has a `*_from_moments` twin that reuses precomputed [`AbsMoments`], which is
//! what the multi-stage estimator in `sidco-core` calls so that each stage costs a
//! single additional pass over the (much smaller) exceedance set.

use crate::error::StatsError;
use crate::gamma::Gamma;
use crate::moments::{AbsMoments, SignedMoments};
use crate::special::{ln_gamma, std_normal_quantile};

/// Which sparsity-inducing distribution to fit to the absolute gradient.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SidKind {
    /// Exponential `|G|` (double exponential / Laplace signed gradient) — SIDCo-E.
    Exponential,
    /// Gamma `|G|` (double gamma signed gradient) — first stage of SIDCo-GP.
    Gamma,
    /// Generalized Pareto `|G|` (double GP signed gradient) — SIDCo-P.
    GeneralizedPareto,
}

impl SidKind {
    /// All supported SIDs, in the order the paper presents them.
    pub const ALL: [SidKind; 3] = [
        SidKind::Exponential,
        SidKind::Gamma,
        SidKind::GeneralizedPareto,
    ];

    /// Short human-readable label matching the paper's figures
    /// (`E`, `GP` for gamma-then-Pareto, `P` for pure Pareto).
    pub fn label(&self) -> &'static str {
        match self {
            SidKind::Exponential => "E",
            SidKind::Gamma => "GP",
            SidKind::GeneralizedPareto => "P",
        }
    }
}

impl std::fmt::Display for SidKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SidKind::Exponential => write!(f, "exponential"),
            SidKind::Gamma => write!(f, "gamma"),
            SidKind::GeneralizedPareto => write!(f, "generalized-pareto"),
        }
    }
}

/// A fitted absolute-gradient distribution, tagged by the SID that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FittedSid {
    /// Exponential fit with the given scale `β̂`.
    Exponential {
        /// MLE of the scale (the mean absolute gradient).
        scale: f64,
    },
    /// Gamma fit via the closed-form estimator.
    Gamma {
        /// Estimated shape `α̂`.
        shape: f64,
        /// Estimated scale `β̂`.
        scale: f64,
    },
    /// Generalized-Pareto fit via moment matching.
    GeneralizedPareto {
        /// Estimated shape `α̂` (clamped to `(-1/2, 1/2)`).
        shape: f64,
        /// Estimated scale `β̂`.
        scale: f64,
    },
}

impl FittedSid {
    /// Evaluates the threshold `η` such that `P(|G| > η) = delta` for this fit.
    pub fn threshold(&self, delta: f64) -> f64 {
        match *self {
            FittedSid::Exponential { scale } => scale * (1.0 / delta).ln(),
            FittedSid::Gamma { shape, scale } => -scale * (delta.ln() + ln_gamma(shape)),
            FittedSid::GeneralizedPareto { shape, scale } => {
                if shape.abs() < 1e-12 {
                    scale * (1.0 / delta).ln()
                } else {
                    scale / shape * ((-shape * delta.ln()).exp() - 1.0)
                }
            }
        }
    }
}

/// Fits the requested SID to the absolute values of `grad` and returns both the fit
/// and the moments it was computed from.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] for an empty gradient and
/// [`StatsError::InvalidParameter`] for a gradient whose absolute mean is zero.
pub fn fit_sid(grad: &[f32], kind: SidKind) -> Result<(FittedSid, AbsMoments), StatsError> {
    let moments = AbsMoments::compute(grad);
    let fit = fit_sid_from_moments(&moments, kind)?;
    Ok((fit, moments))
}

/// Fits the requested SID from precomputed absolute-value moments.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] when `moments.count == 0` and
/// [`StatsError::InvalidParameter`] when the mean is not strictly positive.
pub fn fit_sid_from_moments(moments: &AbsMoments, kind: SidKind) -> Result<FittedSid, StatsError> {
    if moments.count == 0 {
        return Err(StatsError::InsufficientData {
            len: 0,
            required: 1,
        });
    }
    if !(moments.mean > 0.0) {
        return Err(StatsError::InvalidParameter {
            name: "mean absolute gradient",
            value: moments.mean,
            expected: "a strictly positive value",
        });
    }
    match kind {
        SidKind::Exponential => Ok(FittedSid::Exponential {
            scale: moments.mean,
        }),
        SidKind::Gamma => {
            let s = moments.mean.ln() - moments.mean_ln;
            if !(s.is_finite() && s > 0.0) {
                // Degenerate (constant) data: exponential-like fallback, α = 1.
                return Ok(FittedSid::Gamma {
                    shape: 1.0,
                    scale: moments.mean,
                });
            }
            let shape = (3.0 - s + ((s - 3.0) * (s - 3.0) + 24.0 * s).sqrt()) / (12.0 * s);
            Ok(FittedSid::Gamma {
                shape,
                scale: moments.mean / shape,
            })
        }
        SidKind::GeneralizedPareto => {
            if !(moments.variance > 0.0) {
                // Constant data: fall back to the exponential limit (shape 0).
                return Ok(FittedSid::GeneralizedPareto {
                    shape: 0.0,
                    scale: moments.mean,
                });
            }
            let ratio = moments.mean * moments.mean / moments.variance;
            const EPS: f64 = 1e-6;
            let shape = (0.5 * (1.0 - ratio)).clamp(-0.5 + EPS, 0.5 - EPS);
            let scale = 0.5 * moments.mean * (ratio + 1.0);
            Ok(FittedSid::GeneralizedPareto { shape, scale })
        }
    }
}

/// Corollary 1.1: the SIDCo-E single-stage threshold `η = mean(|g|) · ln(1/δ)`.
///
/// Returns 0 for an empty or all-zero gradient (every element then trivially
/// exceeds the threshold, which the caller treats as "send everything").
pub fn exponential_threshold(grad: &[f32], delta: f64) -> f64 {
    let moments = AbsMoments::compute(grad);
    exponential_threshold_from_moments(&moments, delta)
}

/// [`exponential_threshold`] from precomputed moments.
pub fn exponential_threshold_from_moments(moments: &AbsMoments, delta: f64) -> f64 {
    moments.mean * (1.0 / delta).ln()
}

/// Corollary 1.2: gamma-fit threshold with the paper's closed-form approximation
/// `η ≈ -β̂ [ln δ + ln Γ(α̂)]`.
pub fn gamma_threshold(grad: &[f32], delta: f64) -> f64 {
    let moments = AbsMoments::compute(grad);
    gamma_threshold_from_moments(&moments, delta)
}

/// [`gamma_threshold`] from precomputed moments.
pub fn gamma_threshold_from_moments(moments: &AbsMoments, delta: f64) -> f64 {
    match fit_sid_from_moments(moments, SidKind::Gamma) {
        Ok(fit) => fit.threshold(delta).max(0.0),
        Err(_) => 0.0,
    }
}

/// Exact gamma threshold (inverse regularized incomplete gamma) used by the
/// `ablation_gamma_fit` bench to quantify the closed-form approximation error.
pub fn gamma_threshold_exact(grad: &[f32], delta: f64) -> f64 {
    let moments = AbsMoments::compute(grad);
    match fit_sid_from_moments(&moments, SidKind::Gamma) {
        Ok(FittedSid::Gamma { shape, scale }) => match Gamma::new(shape, scale) {
            Ok(g) => {
                use crate::distribution::Continuous;
                g.quantile(1.0 - delta)
            }
            Err(_) => 0.0,
        },
        _ => 0.0,
    }
}

/// Corollary 1.3: generalized-Pareto threshold via moment matching,
/// `η = (β̂/α̂)(e^{-α̂ ln δ} - 1)`.
pub fn gp_threshold(grad: &[f32], delta: f64) -> f64 {
    let moments = AbsMoments::compute(grad);
    gp_threshold_from_moments(&moments, delta)
}

/// [`gp_threshold`] from precomputed moments.
pub fn gp_threshold_from_moments(moments: &AbsMoments, delta: f64) -> f64 {
    match fit_sid_from_moments(moments, SidKind::GeneralizedPareto) {
        Ok(fit) => fit.threshold(delta).max(0.0),
        Err(_) => 0.0,
    }
}

/// Threshold from a Gaussian fit of the *signed* gradient, as used by the
/// GaussianKSGD baseline: `η = |μ̂| + σ̂ Φ⁻¹(1 - δ/2)`.
pub fn gaussian_threshold(grad: &[f32], delta: f64) -> f64 {
    let m = SignedMoments::compute(grad);
    gaussian_threshold_from_moments(&m, delta)
}

/// [`gaussian_threshold`] from precomputed signed moments.
pub fn gaussian_threshold_from_moments(moments: &SignedMoments, delta: f64) -> f64 {
    if moments.count == 0 || !(moments.variance > 0.0) {
        return 0.0;
    }
    let sigma = moments.variance.sqrt();
    let p = (1.0 - delta / 2.0).clamp(f64::MIN_POSITIVE, 1.0 - 1e-16);
    moments.mean.abs() + sigma * std_normal_quantile(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Continuous;
    use crate::laplace::Laplace;
    use crate::normal::Normal;
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
    fn sid_kind_labels_and_display() {
        assert_eq!(SidKind::Exponential.label(), "E");
        assert_eq!(SidKind::Gamma.label(), "GP");
        assert_eq!(SidKind::GeneralizedPareto.label(), "P");
        assert_eq!(SidKind::Exponential.to_string(), "exponential");
        assert_eq!(SidKind::ALL.len(), 3);
    }

    #[test]
    fn exponential_threshold_achieves_target_on_laplace_data() {
        let grad = laplace_gradient(0.003, 200_000, 1);
        for &delta in &[0.1, 0.01] {
            let eta = exponential_threshold(&grad, delta);
            let achieved = achieved_ratio(&grad, eta);
            assert!(
                (achieved - delta).abs() / delta < 0.25,
                "delta={delta}: achieved {achieved}"
            );
        }
    }

    #[test]
    fn gamma_and_gp_thresholds_close_to_exponential_on_laplace_data() {
        // On exponential-tail data the three estimators should be broadly consistent.
        let grad = laplace_gradient(0.01, 100_000, 2);
        let delta = 0.01;
        let eta_e = exponential_threshold(&grad, delta);
        let eta_g = gamma_threshold(&grad, delta);
        let eta_p = gp_threshold(&grad, delta);
        assert!(
            (eta_g - eta_e).abs() / eta_e < 0.3,
            "gamma {eta_g} vs exp {eta_e}"
        );
        assert!(
            (eta_p - eta_e).abs() / eta_e < 0.3,
            "gp {eta_p} vs exp {eta_e}"
        );
    }

    #[test]
    fn gamma_exact_close_to_closed_form_near_alpha_one() {
        let grad = laplace_gradient(0.005, 100_000, 3);
        let delta = 0.01;
        let approx = gamma_threshold(&grad, delta);
        let exact = gamma_threshold_exact(&grad, delta);
        assert!((approx - exact).abs() / exact < 0.2);
    }

    #[test]
    fn gaussian_threshold_on_normal_data_achieves_target() {
        let d = Normal::new(0.0, 0.02).unwrap();
        let mut rng = SmallRng::seed_from_u64(4);
        let grad: Vec<f32> = d
            .sample_vec(&mut rng, 200_000)
            .iter()
            .map(|&x| x as f32)
            .collect();
        for &delta in &[0.1, 0.01] {
            let eta = gaussian_threshold(&grad, delta);
            let achieved = achieved_ratio(&grad, eta);
            assert!(
                (achieved - delta).abs() / delta < 0.3,
                "delta={delta}: achieved {achieved}"
            );
        }
    }

    #[test]
    fn gaussian_threshold_misses_target_on_heavy_tailed_data() {
        // This is the failure mode the paper attributes to Gaussian-based estimators
        // (RedSync, GaussianKSGD): a Gaussian fit on Laplace-like gradients places the
        // threshold well below the true (1-δ) quantile of the heavy tail, selecting
        // many times more elements than the target, while the exponential SID stays
        // close to it.
        let grad = laplace_gradient(0.01, 200_000, 5);
        let delta = 0.001;
        let eta_gauss = gaussian_threshold(&grad, delta);
        let achieved = achieved_ratio(&grad, eta_gauss);
        assert!(
            achieved > 3.0 * delta,
            "gaussian fit should badly over-select on heavy tails: {achieved} vs {delta}"
        );
        // ...whereas the exponential SID stays close to the target.
        let eta_exp = exponential_threshold(&grad, delta);
        let achieved_exp = achieved_ratio(&grad, eta_exp);
        assert!((achieved_exp - delta).abs() / delta < 0.5);
    }

    #[test]
    fn fitted_sid_threshold_is_monotone_in_delta() {
        let grad = laplace_gradient(0.01, 50_000, 6);
        for kind in SidKind::ALL {
            let (fit, _) = fit_sid(&grad, kind).unwrap();
            let mut prev = f64::INFINITY;
            for &delta in &[0.001, 0.01, 0.1, 0.5] {
                let eta = fit.threshold(delta);
                assert!(
                    eta <= prev,
                    "{kind}: threshold must decrease as delta grows"
                );
                prev = eta;
            }
        }
    }

    #[test]
    fn fit_errors_on_empty_and_zero_gradients() {
        assert!(fit_sid(&[], SidKind::Exponential).is_err());
        assert!(fit_sid(&[0.0, 0.0, 0.0], SidKind::Gamma).is_err());
    }

    #[test]
    fn thresholds_handle_degenerate_inputs_gracefully() {
        assert_eq!(exponential_threshold(&[], 0.01), 0.0);
        assert_eq!(exponential_threshold(&[0.0, 0.0], 0.01), 0.0);
        assert_eq!(gamma_threshold(&[0.0; 4], 0.01), 0.0);
        assert_eq!(gp_threshold(&[0.0; 4], 0.01), 0.0);
        assert_eq!(gaussian_threshold(&[1.0; 4], 0.01), 0.0);
    }

    #[test]
    fn constant_magnitude_gradients_use_fallback_fits() {
        let grad = [0.5f32, -0.5, 0.5, -0.5];
        let (fit, _) = fit_sid(&grad, SidKind::Gamma).unwrap();
        match fit {
            FittedSid::Gamma { shape, scale } => {
                assert_eq!(shape, 1.0);
                assert!((scale - 0.5).abs() < 1e-9);
            }
            other => panic!("unexpected fit {other:?}"),
        }
        let (fit, _) = fit_sid(&grad, SidKind::GeneralizedPareto).unwrap();
        match fit {
            FittedSid::GeneralizedPareto { shape, .. } => assert_eq!(shape, 0.0),
            other => panic!("unexpected fit {other:?}"),
        }
    }
}
