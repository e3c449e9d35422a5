//! Generalized Pareto (GP) and double-GP distributions — the SID used by SIDCo-P and
//! by every multi-stage peaks-over-threshold refit (Lemma 2 of the paper). They
//! sample and evaluate densities; the fit SIDCo runs is
//! [`fit_sid_from_moments`](crate::fit::fit_sid_from_moments).

use crate::distribution::Continuous;
use crate::error::StatsError;

/// Generalized Pareto distribution with shape `α`, scale `β > 0` and location `a`.
///
/// The paper's convention (Appendix B.3.2) restricts the shape to
/// `-1/2 < α < 1/2` so the first two moments exist and the moment-matching
/// estimator (equation 35) is valid. The CDF is
///
/// `F(x) = 1 - (1 + α (x - a) / β)^(-1/α)` for `x ≥ a`,
///
/// with the exponential distribution recovered as `α → 0`.
///
/// # Example
///
/// ```
/// use sidco_stats::{Continuous, GeneralizedPareto};
///
/// let d = GeneralizedPareto::new(0.1, 1.0, 0.0)?;
/// assert!((d.cdf(d.quantile(0.99)) - 0.99).abs() < 1e-9);
/// # Ok::<(), sidco_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeneralizedPareto {
    shape: f64,
    scale: f64,
    location: f64,
}

impl GeneralizedPareto {
    /// Creates a GP distribution with shape `α ∈ (-1/2, 1/2)`, scale `β > 0` and
    /// location `a`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if the shape is outside
    /// `(-1/2, 1/2)`, the scale is not positive and finite, or the location is not
    /// finite.
    pub fn new(shape: f64, scale: f64, location: f64) -> Result<Self, StatsError> {
        if !(shape.is_finite() && shape > -0.5 && shape < 0.5) {
            return Err(StatsError::InvalidParameter {
                name: "shape",
                value: shape,
                expected: "a value in the open interval (-1/2, 1/2)",
            });
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "scale",
                value: scale,
                expected: "a positive finite value",
            });
        }
        if !location.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "location",
                value: location,
                expected: "a finite value",
            });
        }
        Ok(Self {
            shape,
            scale,
            location,
        })
    }
}

impl Continuous for GeneralizedPareto {
    fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.location) / self.scale;
        if z < 0.0 {
            return 0.0;
        }
        let base = 1.0 + self.shape * z;
        if base <= 0.0 {
            return 0.0;
        }
        base.powf(-(1.0 / self.shape + 1.0)) / self.scale
    }

    fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.location) / self.scale;
        if z <= 0.0 {
            return 0.0;
        }
        if self.shape.abs() < 1e-12 {
            return 1.0 - (-z).exp();
        }
        let base = 1.0 + self.shape * z;
        if base <= 0.0 {
            // Beyond the upper endpoint for negative shape.
            return 1.0;
        }
        1.0 - base.powf(-1.0 / self.shape)
    }

    fn quantile(&self, p: f64) -> f64 {
        debug_assert!(
            (0.0..1.0).contains(&p),
            "quantile requires p in [0,1), got {p}"
        );
        // The paper's closed form (equation 28 / Lemma 2) for the upper-tail
        // mass δ = 1 - p: `η = (β/α)(e^{-α ln δ} - 1) + a`.
        let delta = 1.0 - p;
        if self.shape.abs() < 1e-12 {
            // α → 0 limit: exponential tail.
            self.location + self.scale * (1.0 / delta).ln()
        } else {
            self.location + self.scale / self.shape * ((-self.shape * delta.ln()).exp() - 1.0)
        }
    }

    fn mean(&self) -> f64 {
        self.location + self.scale / (1.0 - self.shape)
    }

    fn variance(&self) -> f64 {
        let s = self.shape;
        self.scale * self.scale / ((1.0 - s) * (1.0 - s) * (1.0 - 2.0 * s))
    }
}

/// Double generalized Pareto distribution: symmetric around zero, with `|X|`
/// following a [`GeneralizedPareto`] with location zero. This is the signed-gradient
/// prior of Armagan et al. (2013) used by SIDCo-P.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoubleGeneralizedPareto {
    abs: GeneralizedPareto,
}

impl DoubleGeneralizedPareto {
    /// Creates a double-GP distribution with shape `α ∈ (-1/2, 1/2)` and scale
    /// `β > 0`; the location of the absolute-value distribution is fixed at zero.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] for parameters outside the valid
    /// domain.
    pub fn new(shape: f64, scale: f64) -> Result<Self, StatsError> {
        Ok(Self {
            abs: GeneralizedPareto::new(shape, scale, 0.0)?,
        })
    }

    /// Distribution of the absolute value.
    pub fn abs_distribution(&self) -> GeneralizedPareto {
        self.abs
    }
}

impl Continuous for DoubleGeneralizedPareto {
    fn pdf(&self, x: f64) -> f64 {
        0.5 * self.abs.pdf(x.abs())
    }

    fn cdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.5 * (1.0 - self.abs.cdf(-x))
        } else {
            0.5 + 0.5 * self.abs.cdf(x)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        debug_assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");
        if p < 0.5 {
            -self.abs.quantile(1.0 - 2.0 * p)
        } else {
            self.abs.quantile(2.0 * p - 1.0)
        }
    }

    fn mean(&self) -> f64 {
        0.0
    }

    fn variance(&self) -> f64 {
        // E[X²] = Var(|X|) + E[|X|]².
        let m = self.abs.mean();
        self.abs.variance() + m * m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::{fit_sid_from_moments, FittedSid, SidKind};
    use crate::moments::AbsMoments;
    use crate::Exponential;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(GeneralizedPareto::new(0.6, 1.0, 0.0).is_err());
        assert!(GeneralizedPareto::new(-0.6, 1.0, 0.0).is_err());
        assert!(GeneralizedPareto::new(0.1, 0.0, 0.0).is_err());
        assert!(GeneralizedPareto::new(0.1, 1.0, f64::NAN).is_err());
        assert!(DoubleGeneralizedPareto::new(0.7, 1.0).is_err());
    }

    #[test]
    fn reduces_to_exponential_for_zero_shape() {
        let gp = GeneralizedPareto::new(1e-15, 2.0, 0.0).unwrap();
        let exp = Exponential::new(2.0).unwrap();
        for &x in &[0.1, 1.0, 5.0] {
            assert!((gp.cdf(x) - exp.cdf(x)).abs() < 1e-9);
        }
        for &p in &[0.1, 0.9, 0.999] {
            assert!((gp.quantile(p) - exp.quantile(p)).abs() < 1e-6);
        }
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        for &(shape, scale, loc) in &[(0.2, 1.0, 0.0), (-0.3, 0.5, 1.0), (0.45, 0.01, 0.002)] {
            let d = GeneralizedPareto::new(shape, scale, loc).unwrap();
            for &p in &[0.001, 0.1, 0.5, 0.9, 0.999] {
                let x = d.quantile(p);
                assert!(
                    (d.cdf(x) - p).abs() < 1e-9,
                    "roundtrip failed for shape={shape}, p={p}"
                );
            }
        }
    }

    #[test]
    fn upper_tail_quantile_matches_survival() {
        let d = GeneralizedPareto::new(0.3, 1.5, 0.2).unwrap();
        for &delta in &[0.1, 0.01, 0.001] {
            let eta = d.quantile(1.0 - delta);
            assert!((d.survival(eta) - delta).abs() < 1e-9);
        }
    }

    /// The GP fit SIDCo runs (Corollary 1.3) to `moments`, as `(α̂, β̂)`.
    fn fit_gp(moments: &AbsMoments) -> (f64, f64) {
        match fit_sid_from_moments(moments, SidKind::GeneralizedPareto).unwrap() {
            FittedSid::GeneralizedPareto { shape, scale } => (shape, scale),
            other => panic!("unexpected fit {other:?}"),
        }
    }

    fn as_f32(sample: &[f64]) -> Vec<f32> {
        sample.iter().map(|&x| x as f32).collect()
    }

    #[test]
    fn moment_fit_recovers_parameters() {
        // α within 0.06 of 0.25, β within 15 %.
        let d = GeneralizedPareto::new(0.25, 0.01, 0.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(17);
        let xs = d.sample_vec(&mut rng, 60_000);
        let (shape, scale) = fit_gp(&AbsMoments::compute(&as_f32(&xs)));
        assert!((shape - 0.25).abs() < 0.06, "fitted shape {shape}");
        assert!((scale - 0.01).abs() / 0.01 < 0.15, "fitted scale {scale}");
    }

    #[test]
    fn moment_fit_of_exceedances_recovers_the_scale_above_the_location() {
        // Lemma 2's refit: the moments of the exceedances shifted by the
        // location 5 recover β = 2 within 0.2.
        let d = GeneralizedPareto::new(0.1, 2.0, 5.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(23);
        let xs = d.sample_vec(&mut rng, 60_000);
        let (_, scale) = fit_gp(&AbsMoments::compute_exceedances(&as_f32(&xs), 5.0));
        assert!((scale - 2.0).abs() < 0.2, "fitted scale {scale}");
    }

    #[test]
    fn moment_fit_of_exponential_data_has_near_zero_shape() {
        // Exponential-looking data clamps the shape inside the valid range,
        // within 0.1 of the α → 0 limit.
        let exp = Exponential::new(1.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(31);
        let xs = exp.sample_vec(&mut rng, 20_000);
        let (shape, _) = fit_gp(&AbsMoments::compute(&as_f32(&xs)));
        assert!(shape.abs() < 0.1, "fitted shape {shape}");
    }

    #[test]
    fn double_gp_symmetry() {
        let d = DoubleGeneralizedPareto::new(0.2, 1.0).unwrap();
        assert!((d.cdf(0.0) - 0.5).abs() < 1e-12);
        for &x in &[0.5, 1.0, 4.0] {
            assert!((d.pdf(x) - d.pdf(-x)).abs() < 1e-12);
        }
        for &p in &[0.01, 0.3, 0.6, 0.99] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-9, "p = {p}");
        }
    }

    #[test]
    fn double_gp_fit_from_signed_sample() {
        let d = DoubleGeneralizedPareto::new(0.3, 0.05).unwrap();
        let mut rng = SmallRng::seed_from_u64(41);
        let xs = d.sample_vec(&mut rng, 50_000);
        // The fit reads |x|: α within 0.08 of 0.3.
        let (shape, _) = fit_gp(&AbsMoments::compute(&as_f32(&xs)));
        assert!((shape - 0.3).abs() < 0.08, "fitted shape {shape}");
    }
}
