//! Exponential distribution — the model for `|G|` when gradients are double
//! exponential (Laplace), the default SID used by SIDCo-E.

use crate::distribution::Continuous;
use crate::error::StatsError;

/// Exponential distribution with scale parameter `β` (mean `β`), i.e. rate `1/β`.
///
/// Parameterised by *scale* rather than rate to match the paper's notation
/// (Corollary 1.1: `η = β̂ log(1/δ)`).
///
/// # Example
///
/// ```
/// use sidco_stats::{Continuous, Exponential};
///
/// let d = Exponential::new(2.0)?;
/// assert!((d.mean() - 2.0).abs() < 1e-12);
/// // The 99th percentile is β ln(100).
/// assert!((d.quantile(0.99) - 2.0 * 100.0f64.ln()).abs() < 1e-9);
/// # Ok::<(), sidco_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    scale: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given scale `β > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `scale` is not positive and finite.
    pub fn new(scale: f64) -> Result<Self, StatsError> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "scale",
                value: scale,
                expected: "a positive finite value",
            });
        }
        Ok(Self { scale })
    }

    /// The scale parameter `β`.
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl Continuous for Exponential {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            (-x / self.scale).exp() / self.scale
        }
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            f64::NEG_INFINITY
        } else {
            -x / self.scale - self.scale.ln()
        }
    }

    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            1.0 - (-x / self.scale).exp()
        }
    }

    fn survival(&self, x: f64) -> f64 {
        if x <= 0.0 {
            1.0
        } else {
            (-x / self.scale).exp()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        debug_assert!(
            (0.0..1.0).contains(&p),
            "quantile requires p in [0,1), got {p}"
        );
        -self.scale * (1.0 - p).ln()
    }

    fn mean(&self) -> f64 {
        self.scale
    }

    fn variance(&self) -> f64 {
        self.scale * self.scale
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_scale() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::new(-1.0).is_err());
        assert!(Exponential::new(f64::NAN).is_err());
        assert!(Exponential::new(f64::INFINITY).is_err());
    }

    #[test]
    fn pdf_integrates_to_one() {
        let d = Exponential::new(0.7).unwrap();
        let dx = 1e-3;
        let integral: f64 = (0..20_000).map(|i| d.pdf(i as f64 * dx) * dx).sum();
        assert!((integral - 1.0).abs() < 1e-3);
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let d = Exponential::new(3.2).unwrap();
        for &p in &[0.0001, 0.001, 0.1, 0.5, 0.9, 0.999, 0.9999] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-10);
        }
    }

    #[test]
    fn survival_is_exact_tail() {
        let d = Exponential::new(1.5).unwrap();
        // survival uses the analytic form; compare to 1 - cdf.
        for &x in &[0.1, 1.0, 5.0, 20.0] {
            assert!((d.survival(x) - (1.0 - d.cdf(x))).abs() < 1e-12);
        }
    }

    #[test]
    fn threshold_formula_matches_paper() {
        // Corollary 1.1: η = β ln(1/δ) must equal quantile(1 - δ).
        let beta = 0.01;
        let d = Exponential::new(beta).unwrap();
        for &delta in &[0.1f64, 0.01, 0.001] {
            let eta_paper = beta * (1.0 / delta).ln();
            assert!((d.quantile(1.0 - delta) - eta_paper).abs() < 1e-12);
        }
    }

    #[test]
    fn samples_have_the_scale_as_mean() {
        let d = Exponential::new(2.5).unwrap();
        let mut rng = SmallRng::seed_from_u64(42);
        let xs = d.sample_vec(&mut rng, 50_000);
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(
            (mean - 2.5).abs() < 0.05,
            "sample mean {mean} too far from 2.5"
        );
    }

    #[test]
    fn moments() {
        let d = Exponential::new(4.0).unwrap();
        assert_eq!(d.mean(), 4.0);
        assert_eq!(d.variance(), 16.0);
    }
}
