//! Gamma and double-gamma distributions — the SID behind SIDCo-GP's first stage
//! (Corollary 1.2 of the paper). They sample and evaluate densities; the fit
//! SIDCo runs is [`fit_sid_from_moments`](crate::fit::fit_sid_from_moments).

use crate::distribution::Continuous;
use crate::error::StatsError;
use crate::special::{inv_reg_lower_gamma, ln_gamma, reg_lower_gamma};

/// Gamma distribution with shape `α > 0` and scale `β > 0`.
///
/// This models the *absolute* gradient when the signed gradient follows a
/// double-gamma distribution.
///
/// # Example
///
/// ```
/// use sidco_stats::{Continuous, Gamma};
///
/// let d = Gamma::new(2.0, 3.0)?;
/// assert!((d.mean() - 6.0).abs() < 1e-12);
/// assert!((d.cdf(d.quantile(0.9)) - 0.9).abs() < 1e-7);
/// # Ok::<(), sidco_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// Creates a gamma distribution with shape `α > 0` and scale `β > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if either parameter is not positive
    /// and finite.
    pub fn new(shape: f64, scale: f64) -> Result<Self, StatsError> {
        if !(shape.is_finite() && shape > 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "shape",
                value: shape,
                expected: "a positive finite value",
            });
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "scale",
                value: scale,
                expected: "a positive finite value",
            });
        }
        Ok(Self { shape, scale })
    }
}

impl Continuous for Gamma {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        if x == 0.0 {
            // Density at zero: infinite for α < 1, 1/β for α = 1, zero for α > 1.
            return if self.shape < 1.0 {
                f64::INFINITY
            } else if self.shape == 1.0 {
                1.0 / self.scale
            } else {
                0.0
            };
        }
        self.ln_pdf(x).exp()
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        (self.shape - 1.0) * x.ln()
            - x / self.scale
            - self.shape * self.scale.ln()
            - ln_gamma(self.shape)
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            reg_lower_gamma(self.shape, x / self.scale)
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        debug_assert!(
            (0.0..1.0).contains(&p),
            "quantile requires p in [0,1), got {p}"
        );
        self.scale * inv_reg_lower_gamma(self.shape, p)
    }

    fn mean(&self) -> f64 {
        self.shape * self.scale
    }

    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }
}

/// Double-gamma distribution: a symmetric distribution on the whole real line whose
/// absolute value is [`Gamma`] distributed. The paper uses it with shape `α ≤ 1` as a
/// sparsity-inducing prior for signed gradients.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoubleGamma {
    abs: Gamma,
}

impl DoubleGamma {
    /// Creates a double-gamma distribution with shape `α > 0` and scale `β > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if either parameter is invalid.
    pub fn new(shape: f64, scale: f64) -> Result<Self, StatsError> {
        Ok(Self {
            abs: Gamma::new(shape, scale)?,
        })
    }

    /// Distribution of the absolute value.
    pub fn abs_distribution(&self) -> Gamma {
        self.abs
    }
}

impl Continuous for DoubleGamma {
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
        // E[X²] = E[|X|²] = Var(|X|) + E[|X|]² = αβ² + (αβ)² = αβ²(1 + α).
        let a = self.abs.shape;
        let b = self.abs.scale;
        a * b * b * (1.0 + a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fit::{fit_sid_from_moments, FittedSid, SidKind};
    use crate::moments::AbsMoments;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Gamma::new(0.0, 1.0).is_err());
        assert!(Gamma::new(1.0, 0.0).is_err());
        assert!(Gamma::new(-1.0, 1.0).is_err());
        assert!(Gamma::new(f64::NAN, 1.0).is_err());
        assert!(DoubleGamma::new(0.0, 1.0).is_err());
    }

    #[test]
    fn exponential_special_case() {
        // Gamma(1, β) is exponential(β).
        let g = Gamma::new(1.0, 2.0).unwrap();
        let e = crate::Exponential::new(2.0).unwrap();
        for &x in &[0.1, 0.5, 1.0, 4.0] {
            assert!((g.pdf(x) - e.pdf(x)).abs() < 1e-10);
            assert!((g.cdf(x) - e.cdf(x)).abs() < 1e-10);
        }
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        for &(a, b) in &[(0.5, 1.0), (0.9, 0.01), (2.0, 3.0), (7.5, 0.3)] {
            let d = Gamma::new(a, b).unwrap();
            for &p in &[0.001, 0.1, 0.5, 0.9, 0.999] {
                let x = d.quantile(p);
                assert!(
                    (d.cdf(x) - p).abs() < 1e-6,
                    "roundtrip failed for α={a}, β={b}, p={p}"
                );
            }
        }
    }

    /// The gamma fit SIDCo runs (Corollary 1.2) of `sample` cast to `f32`,
    /// as `(α̂, β̂)`.
    fn fit_gamma(sample: &[f64]) -> Result<(f64, f64), StatsError> {
        let grad: Vec<f32> = sample.iter().map(|&x| x as f32).collect();
        match fit_sid_from_moments(&AbsMoments::compute(&grad), SidKind::Gamma)? {
            FittedSid::Gamma { shape, scale } => Ok((shape, scale)),
            other => panic!("unexpected fit {other:?}"),
        }
    }

    #[test]
    fn closed_form_fit_recovers_parameters() {
        // α within 0.08 of 0.8, the mean αβ within 5 %.
        let d = Gamma::new(0.8, 0.005).unwrap();
        let mut rng = SmallRng::seed_from_u64(3);
        let xs = d.sample_vec(&mut rng, 30_000);
        let (shape, scale) = fit_gamma(&xs).unwrap();
        assert!((shape - 0.8).abs() < 0.08, "shape {shape} too far from 0.8");
        assert!((shape * scale - d.mean()).abs() / d.mean() < 0.05);
    }

    #[test]
    fn fit_handles_degenerate_samples() {
        assert!(fit_gamma(&[]).is_err());
        assert!(fit_gamma(&[0.0, 0.0]).is_err());
        // Constant positive sample falls back to α = 1.
        assert_eq!(fit_gamma(&[2.0, 2.0, 2.0]).unwrap(), (1.0, 2.0));
    }

    #[test]
    fn double_gamma_symmetry_and_quantile() {
        let d = DoubleGamma::new(0.7, 1.5).unwrap();
        assert!((d.cdf(0.0) - 0.5).abs() < 1e-12);
        for &x in &[0.2, 1.0, 3.0] {
            assert!((d.pdf(x) - d.pdf(-x)).abs() < 1e-12);
            assert!((d.cdf(-x) + d.cdf(x) - 1.0).abs() < 1e-9);
        }
        for &p in &[0.05, 0.3, 0.5001, 0.7, 0.99] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-6, "p = {p}");
        }
    }

    #[test]
    fn double_gamma_fit_from_signed_sample() {
        let d = DoubleGamma::new(0.9, 0.02).unwrap();
        let mut rng = SmallRng::seed_from_u64(21);
        let xs = d.sample_vec(&mut rng, 30_000);
        // The fit reads |x|: α within 0.1 of 0.9.
        let (shape, _) = fit_gamma(&xs).unwrap();
        assert!((shape - 0.9).abs() < 0.1, "shape {shape}");
    }
}
