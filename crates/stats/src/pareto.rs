//! Generalized Pareto (GP) and double-GP distributions — the SID used by SIDCo-P and
//! by every multi-stage peaks-over-threshold refit (Lemma 2 of the paper).

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

    /// The shape parameter `α`.
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale parameter `β`.
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// Moment-matching fit (Hosking & Wallis 1987; paper equation 35) for data with
    /// a known location (subtracted before the moments are computed):
    ///
    /// `α̂ = ½ (1 - μ̂²/σ̂²)`, `β̂ = ½ μ̂ (μ̂²/σ̂² + 1)`.
    ///
    /// The estimated shape is clamped into `(-1/2 + ε, 1/2 - ε)` so the returned
    /// distribution is always valid; extremely heavy- or light-tailed samples hit the
    /// clamp rather than erroring, mirroring how the compression algorithm must stay
    /// robust to badly-behaved gradients.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InsufficientData`] if fewer than two observations
    /// exceed the location, and [`StatsError::InvalidParameter`] if the exceedances
    /// have zero variance or a non-positive mean.
    pub fn fit_moments(sample: &[f64], location: f64) -> Result<Self, StatsError> {
        let shifted: Vec<f64> = sample
            .iter()
            .filter(|&&x| x >= location && x.is_finite())
            .map(|&x| x - location)
            .collect();
        if shifted.len() < 2 {
            return Err(StatsError::InsufficientData {
                len: shifted.len(),
                required: 2,
            });
        }
        let n = shifted.len() as f64;
        let mean = shifted.iter().sum::<f64>() / n;
        let var = shifted.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        if !(mean > 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "sample mean",
                value: mean,
                expected: "a positive mean of exceedances",
            });
        }
        if !(var > 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "sample variance",
                value: var,
                expected: "a positive variance of exceedances",
            });
        }
        let ratio = mean * mean / var;
        const EPS: f64 = 1e-6;
        let shape = (0.5 * (1.0 - ratio)).clamp(-0.5 + EPS, 0.5 - EPS);
        let scale = (0.5 * mean * (ratio + 1.0)).max(f64::MIN_POSITIVE);
        Self::new(shape, scale, location)
    }

    /// The threshold that leaves a fraction `delta` of the mass above it, expressed
    /// with the paper's closed form (equation 28 / Lemma 2):
    /// `η = (β/α)(e^{-α ln δ} - 1) + a`.
    pub fn upper_quantile(&self, delta: f64) -> f64 {
        debug_assert!(delta > 0.0 && delta < 1.0);
        if self.shape.abs() < 1e-12 {
            // α → 0 limit: exponential tail.
            self.location + self.scale * (1.0 / delta).ln()
        } else {
            self.location + self.scale / self.shape * ((-self.shape * delta.ln()).exp() - 1.0)
        }
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
        self.upper_quantile(1.0 - p)
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

    /// The shape parameter `α`.
    pub fn shape(&self) -> f64 {
        self.abs.shape()
    }

    /// The scale parameter `β`.
    pub fn scale(&self) -> f64 {
        self.abs.scale()
    }

    /// Distribution of the absolute value.
    pub fn abs_distribution(&self) -> GeneralizedPareto {
        self.abs
    }

    /// Fits a double-GP distribution from signed observations via moment matching on
    /// their absolute values.
    ///
    /// # Errors
    ///
    /// Propagates errors from [`GeneralizedPareto::fit_moments`].
    pub fn fit_moments(sample: &[f64]) -> Result<Self, StatsError> {
        let abs: Vec<f64> = sample.iter().map(|x| x.abs()).collect();
        Ok(Self {
            abs: GeneralizedPareto::fit_moments(&abs, 0.0)?,
        })
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
    fn upper_quantile_matches_cdf() {
        let d = GeneralizedPareto::new(0.3, 1.5, 0.2).unwrap();
        for &delta in &[0.1, 0.01, 0.001] {
            let eta = d.upper_quantile(delta);
            assert!((d.survival(eta) - delta).abs() < 1e-9);
        }
    }

    #[test]
    fn moment_fit_recovers_parameters() {
        let d = GeneralizedPareto::new(0.25, 0.01, 0.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(17);
        let xs = d.sample_vec(&mut rng, 60_000);
        let fitted = GeneralizedPareto::fit_moments(&xs, 0.0).unwrap();
        assert!(
            (fitted.shape() - 0.25).abs() < 0.06,
            "fitted shape {}",
            fitted.shape()
        );
        assert!((fitted.scale() - 0.01).abs() / 0.01 < 0.15);
    }

    #[test]
    fn moment_fit_with_nonzero_location() {
        let d = GeneralizedPareto::new(0.1, 2.0, 5.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(23);
        let xs = d.sample_vec(&mut rng, 60_000);
        let fitted = GeneralizedPareto::fit_moments(&xs, 5.0).unwrap();
        assert_eq!(fitted.location, 5.0);
        assert!((fitted.scale() - 2.0).abs() < 0.2);
    }

    #[test]
    fn moment_fit_degenerate_samples() {
        assert!(GeneralizedPareto::fit_moments(&[1.0], 0.0).is_err());
        assert!(GeneralizedPareto::fit_moments(&[2.0, 2.0, 2.0], 0.0).is_err());
        // Exponential-looking data clamps the shape inside the valid range.
        let exp = Exponential::new(1.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(31);
        let xs = exp.sample_vec(&mut rng, 20_000);
        let fitted = GeneralizedPareto::fit_moments(&xs, 0.0).unwrap();
        assert!(fitted.shape().abs() < 0.1);
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
        let fitted = DoubleGeneralizedPareto::fit_moments(&xs).unwrap();
        assert!((fitted.shape() - 0.3).abs() < 0.08);
    }
}
