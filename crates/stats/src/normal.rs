//! Normal (Gaussian) distribution — used by the GaussianKSGD baseline and by the
//! goodness-of-fit comparisons in the evaluation.

use crate::distribution::Continuous;
use crate::error::StatsError;
use crate::special::{std_normal_cdf, std_normal_quantile};

/// Normal distribution with mean `μ` and standard deviation `σ`.
///
/// # Example
///
/// ```
/// use sidco_stats::{Continuous, Normal};
///
/// let d = Normal::new(0.0, 1.0)?;
/// assert!((d.cdf(0.0) - 0.5).abs() < 1e-12);
/// assert!((d.quantile(0.975) - 1.96).abs() < 0.01);
/// # Ok::<(), sidco_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    std_dev: f64,
}

impl Normal {
    /// Creates a normal distribution with mean `μ` and standard deviation `σ > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `std_dev` is not positive and
    /// finite or `mean` is not finite.
    pub fn new(mean: f64, std_dev: f64) -> Result<Self, StatsError> {
        if !mean.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "mean",
                value: mean,
                expected: "a finite value",
            });
        }
        if !(std_dev.is_finite() && std_dev > 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "std_dev",
                value: std_dev,
                expected: "a positive finite value",
            });
        }
        Ok(Self { mean, std_dev })
    }

    /// The standard deviation `σ`.
    pub fn std_dev(&self) -> f64 {
        self.std_dev
    }
}

impl Continuous for Normal {
    fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std_dev;
        (-0.5 * z * z).exp() / (self.std_dev * (2.0 * std::f64::consts::PI).sqrt())
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mean) / self.std_dev;
        -0.5 * z * z - self.std_dev.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }

    fn cdf(&self, x: f64) -> f64 {
        std_normal_cdf((x - self.mean) / self.std_dev)
    }

    fn quantile(&self, p: f64) -> f64 {
        self.mean + self.std_dev * std_normal_quantile(p)
    }

    fn mean(&self) -> f64 {
        self.mean
    }

    fn variance(&self) -> f64 {
        self.std_dev * self.std_dev
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn rejects_bad_parameters() {
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(Normal::new(0.0, -2.0).is_err());
        assert!(Normal::new(f64::INFINITY, 1.0).is_err());
    }

    #[test]
    fn standard_normal_known_values() {
        let d = Normal::new(0.0, 1.0).unwrap();
        assert!((d.pdf(0.0) - 0.398_942_280_4).abs() < 1e-9);
        assert!((d.cdf(1.96) - 0.975_002).abs() < 1e-4);
        assert!((d.quantile(0.5) - 0.0).abs() < 1e-9);
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let d = Normal::new(-3.0, 2.5).unwrap();
        for &p in &[0.001, 0.05, 0.5, 0.95, 0.999] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-7);
        }
    }

    #[test]
    fn samples_have_the_parameters_as_moments() {
        let d = Normal::new(1.5, 0.3).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let mut moments = crate::moments::RunningMoments::new();
        d.sample_vec(&mut rng, 60_000)
            .into_iter()
            .for_each(|x| moments.push(x));
        assert!((moments.mean() - 1.5).abs() < 0.01);
        assert!((moments.std_dev() - 0.3).abs() < 0.01);
    }
}
