//! Laplace (double exponential) distribution — the signed-gradient model behind
//! SIDCo-E. It samples and evaluates densities; the fit SIDCo runs is
//! [`fit_sid_from_moments`](crate::fit::fit_sid_from_moments).

use crate::distribution::Continuous;
use crate::error::StatsError;
use crate::exponential::Exponential;

/// Laplace distribution with location `μ` and scale `β`.
///
/// When `μ = 0`, the absolute value `|G|` of a Laplace random variable is
/// exponential with the same scale, which is the relationship SIDCo-E exploits
/// (Corollary 1.1 of the paper).
///
/// # Example
///
/// ```
/// use sidco_stats::{Continuous, Laplace};
///
/// let d = Laplace::new(0.0, 1.0)?;
/// assert!((d.cdf(0.0) - 0.5).abs() < 1e-12);
/// // Symmetric around the location.
/// assert!((d.pdf(0.3) - d.pdf(-0.3)).abs() < 1e-12);
/// # Ok::<(), sidco_stats::StatsError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laplace {
    location: f64,
    scale: f64,
}

impl Laplace {
    /// Creates a Laplace distribution with location `μ` and scale `β > 0`.
    ///
    /// # Errors
    ///
    /// Returns [`StatsError::InvalidParameter`] if `scale` is not positive and finite
    /// or `location` is not finite.
    pub fn new(location: f64, scale: f64) -> Result<Self, StatsError> {
        if !location.is_finite() {
            return Err(StatsError::InvalidParameter {
                name: "location",
                value: location,
                expected: "a finite value",
            });
        }
        if !(scale.is_finite() && scale > 0.0) {
            return Err(StatsError::InvalidParameter {
                name: "scale",
                value: scale,
                expected: "a positive finite value",
            });
        }
        Ok(Self { location, scale })
    }

    /// The distribution of `|X - μ|`, an [`Exponential`] with the same scale.
    pub fn abs_distribution(&self) -> Exponential {
        // INVARIANT: `scale` was validated at construction, so this
        // cannot fail.
        Exponential::new(self.scale).expect("validated scale")
    }
}

impl Continuous for Laplace {
    fn pdf(&self, x: f64) -> f64 {
        (-(x - self.location).abs() / self.scale).exp() / (2.0 * self.scale)
    }

    fn ln_pdf(&self, x: f64) -> f64 {
        -(x - self.location).abs() / self.scale - (2.0 * self.scale).ln()
    }

    fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.location) / self.scale;
        if z < 0.0 {
            0.5 * z.exp()
        } else {
            1.0 - 0.5 * (-z).exp()
        }
    }

    fn quantile(&self, p: f64) -> f64 {
        debug_assert!(p > 0.0 && p < 1.0, "quantile requires p in (0,1), got {p}");
        if p < 0.5 {
            self.location + self.scale * (2.0 * p).ln()
        } else {
            self.location - self.scale * (2.0 * (1.0 - p)).ln()
        }
    }

    fn mean(&self) -> f64 {
        self.location
    }

    fn variance(&self) -> f64 {
        2.0 * self.scale * self.scale
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
        assert!(Laplace::new(0.0, 0.0).is_err());
        assert!(Laplace::new(0.0, -1.0).is_err());
        assert!(Laplace::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn pdf_is_symmetric_and_normalized() {
        let d = Laplace::new(0.0, 0.5).unwrap();
        for &x in &[0.1, 0.7, 2.0] {
            assert!((d.pdf(x) - d.pdf(-x)).abs() < 1e-14);
        }
        let dx = 1e-3;
        let integral: f64 = (-20_000..20_000).map(|i| d.pdf(i as f64 * dx) * dx).sum();
        assert!((integral - 1.0).abs() < 1e-3);
    }

    #[test]
    fn cdf_quantile_roundtrip() {
        let d = Laplace::new(0.3, 2.0).unwrap();
        for &p in &[0.001, 0.1, 0.4999, 0.5, 0.5001, 0.9, 0.999] {
            assert!((d.cdf(d.quantile(p)) - p).abs() < 1e-10, "p = {p}");
        }
    }

    #[test]
    fn symmetry_relation_of_lemma_1() {
        // Lemma 1: F^{-1}_{|G|}(1 - δ) = F^{-1}_G(1 - δ/2) for symmetric G around 0.
        let d = Laplace::new(0.0, 1.3).unwrap();
        let abs_d = d.abs_distribution();
        for &delta in &[0.1, 0.01, 0.001] {
            let eta_abs = abs_d.quantile(1.0 - delta);
            let eta_sym = d.quantile(1.0 - delta / 2.0);
            assert!(
                (eta_abs - eta_sym).abs() < 1e-9,
                "delta = {delta}: {eta_abs} vs {eta_sym}"
            );
        }
    }

    #[test]
    fn fit_recovers_scale() {
        let d = Laplace::new(0.0, 0.004).unwrap();
        let mut rng = SmallRng::seed_from_u64(11);
        let xs = d.sample_vec(&mut rng, 40_000);
        // The exponential fit SIDCo runs (Corollary 1.1) of |x| cast to
        // `f32`: β within 0.0002 of 0.004.
        let grad: Vec<f32> = xs.iter().map(|&x| x as f32).collect();
        let fit = fit_sid_from_moments(&AbsMoments::compute(&grad), SidKind::Exponential);
        match fit.unwrap() {
            FittedSid::Exponential { scale } => assert!((scale - 0.004).abs() < 0.0002),
            other => panic!("unexpected fit {other:?}"),
        }
    }

    #[test]
    fn moments() {
        let d = Laplace::new(1.0, 3.0).unwrap();
        assert_eq!(d.mean(), 1.0);
        assert_eq!(d.variance(), 18.0);
    }
}
