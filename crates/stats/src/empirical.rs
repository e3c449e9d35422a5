//! Empirical distribution utilities: CDF, quantiles, histograms and
//! Kolmogorov–Smirnov distances.
//!
//! These are used to validate the paper's Property 1/2 (gradient compressibility and
//! SID fit quality, Figures 2, 7 and 8) and by the integration tests that check the
//! fitted thresholds against exact order statistics.

use crate::distribution::Continuous;

/// Empirical cumulative distribution function built from a sample.
///
/// # Example
///
/// ```
/// use sidco_stats::empirical::EmpiricalCdf;
///
/// let ecdf = EmpiricalCdf::new(&[1.0, 2.0, 3.0, 4.0]);
/// assert!((ecdf.cdf(2.5) - 0.5).abs() < 1e-12);
/// assert!((ecdf.quantile(0.75) - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EmpiricalCdf {
    sorted: Vec<f64>,
}

impl EmpiricalCdf {
    /// Builds an empirical CDF from a sample; non-finite values are dropped.
    pub fn new(sample: &[f64]) -> Self {
        let mut sorted: Vec<f64> = sample.iter().copied().filter(|x| x.is_finite()).collect();
        // INVARIANT: non-finite values were filtered out on the line
        // above, so every comparison is total.
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values compare"));
        Self { sorted }
    }

    /// Number of retained observations.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if the sample was empty (or all non-finite).
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of observations `<= x`.
    pub fn cdf(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Empirical quantile: the smallest observation `v` with `cdf(v) >= p`.
    ///
    /// # Panics
    ///
    /// Panics if the sample is empty or `p` is outside `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!(!self.sorted.is_empty(), "quantile of an empty sample");
        assert!((0.0..=1.0).contains(&p), "p must lie in [0, 1], got {p}");
        if p <= 0.0 {
            return self.sorted[0];
        }
        let n = self.sorted.len();
        let idx = ((p * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// Kolmogorov–Smirnov distance `sup_x |F_n(x) - F(x)|` against a reference
    /// distribution.
    pub fn ks_distance<D: Continuous>(&self, reference: &D) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let mut max_diff = 0.0f64;
        for (i, &x) in self.sorted.iter().enumerate() {
            let f = reference.cdf(x);
            let lo = i as f64 / n as f64;
            let hi = (i + 1) as f64 / n as f64;
            max_diff = max_diff.max((f - lo).abs()).max((hi - f).abs());
        }
        max_diff
    }
}

/// A fixed-width histogram over a closed interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Builds a histogram of `sample` with `bins` equal-width bins spanning
    /// `[lo, hi]`. Values outside the range are clamped into the edge bins so no
    /// observation is silently dropped.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `hi <= lo`.
    pub fn new(sample: &[f64], lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(hi > lo, "histogram range must be non-empty");
        let mut counts = vec![0u64; bins];
        let width = (hi - lo) / bins as f64;
        let mut total = 0u64;
        for &x in sample {
            if !x.is_finite() {
                continue;
            }
            let idx = (((x - lo) / width).floor() as i64).clamp(0, bins as i64 - 1) as usize;
            counts[idx] += 1;
            total += 1;
        }
        Self {
            lo,
            hi,
            counts,
            total,
        }
    }

    /// Builds a histogram from an `f32` buffer.
    pub fn from_f32(sample: &[f32], lo: f64, hi: f64, bins: usize) -> Self {
        let promoted: Vec<f64> = sample.iter().map(|&x| x as f64).collect();
        Self::new(&promoted, lo, hi, bins)
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.counts.len()
    }

    /// Total number of binned observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Width of each bin.
    pub fn bin_width(&self) -> f64 {
        (self.hi - self.lo) / self.counts.len() as f64
    }

    /// Centre of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= bins()`.
    pub fn bin_center(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        self.lo + (i as f64 + 0.5) * self.bin_width()
    }

    /// Empirical density estimate for bin `i` (count / (total · width)).
    ///
    /// # Panics
    ///
    /// Panics if `i >= bins()`.
    pub fn density(&self, i: usize) -> f64 {
        assert!(i < self.counts.len(), "bin index out of range");
        if self.total == 0 {
            return 0.0;
        }
        self.counts[i] as f64 / (self.total as f64 * self.bin_width())
    }
}

/// Mean absolute error between an empirical PDF (histogram densities) and a reference
/// density, evaluated at the bin centres. Used to rank the quality of SID fits in the
/// Figure-2/8 experiments.
pub fn pdf_fit_error<D: Continuous>(hist: &Histogram, reference: &D) -> f64 {
    let bins = hist.bins();
    if bins == 0 {
        return 0.0;
    }
    let mut err = 0.0;
    for i in 0..bins {
        err += (hist.density(i) - reference.pdf(hist.bin_center(i))).abs();
    }
    err / bins as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Exponential, Laplace, Normal};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn ecdf_basic_properties() {
        let ecdf = EmpiricalCdf::new(&[3.0, 1.0, 2.0, 4.0]);
        assert_eq!(ecdf.len(), 4);
        assert!(!ecdf.is_empty());
        assert_eq!(ecdf.cdf(0.5), 0.0);
        assert_eq!(ecdf.cdf(4.0), 1.0);
        assert!((ecdf.cdf(2.0) - 0.5).abs() < 1e-12);
        assert_eq!(ecdf.quantile(0.0), 1.0);
        assert_eq!(ecdf.quantile(1.0), 4.0);
        assert_eq!(ecdf.quantile(0.5), 2.0);
    }

    #[test]
    fn ecdf_drops_non_finite() {
        let ecdf = EmpiricalCdf::new(&[1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(ecdf.len(), 2);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn ecdf_quantile_panics_on_empty() {
        EmpiricalCdf::new(&[]).quantile(0.5);
    }

    #[test]
    fn ks_distance_small_for_correct_model_large_for_wrong_model() {
        let d = Exponential::new(1.0).unwrap();
        let mut rng = SmallRng::seed_from_u64(13);
        let xs = d.sample_vec(&mut rng, 20_000);
        let ecdf = EmpiricalCdf::new(&xs);
        let ks_right = ecdf.ks_distance(&d);
        let wrong = Normal::new(1.0, 1.0).unwrap();
        let ks_wrong = ecdf.ks_distance(&wrong);
        assert!(ks_right < 0.02, "KS for correct model: {ks_right}");
        assert!(ks_wrong > 0.1, "KS for wrong model: {ks_wrong}");
    }

    #[test]
    fn histogram_counts_and_density() {
        let sample = [0.1, 0.2, 0.3, 0.6, 0.9, 1.2, -0.5];
        let hist = Histogram::new(&sample, 0.0, 1.0, 4);
        assert_eq!(hist.bins(), 4);
        assert_eq!(hist.total(), 7);
        // Values outside [0, 1] are clamped to the edge bins.
        assert_eq!(hist.counts.iter().sum::<u64>(), 7);
        // Density integrates to ~1.
        let integral: f64 = (0..hist.bins())
            .map(|i| hist.density(i) * hist.bin_width())
            .sum();
        assert!((integral - 1.0).abs() < 1e-12);
        assert!((hist.bin_center(0) - 0.125).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn histogram_rejects_zero_bins() {
        Histogram::new(&[1.0], 0.0, 1.0, 0);
    }

    #[test]
    fn pdf_fit_error_prefers_true_model() {
        let d = Laplace::new(0.0, 0.01).unwrap();
        let mut rng = SmallRng::seed_from_u64(29);
        let xs = d.sample_vec(&mut rng, 50_000);
        let hist = Histogram::new(&xs, -0.05, 0.05, 100);
        let err_true = pdf_fit_error(&hist, &d);
        let wrong = Normal::new(0.0, 0.01 * std::f64::consts::SQRT_2).unwrap();
        let err_wrong = pdf_fit_error(&hist, &wrong);
        assert!(
            err_true < err_wrong,
            "true model error {err_true} should beat wrong model {err_wrong}"
        );
    }

    #[test]
    fn ecdf_quantile_matches_threshold_semantics() {
        // The (1-δ) empirical quantile of |g| is the exact Top-k threshold.
        let mut rng = SmallRng::seed_from_u64(37);
        let d = Laplace::new(0.0, 1.0).unwrap();
        let xs: Vec<f64> = d
            .sample_vec(&mut rng, 10_000)
            .iter()
            .map(|x| x.abs())
            .collect();
        let ecdf = EmpiricalCdf::new(&xs);
        let delta = 0.01;
        let eta = ecdf.quantile(1.0 - delta);
        let k = xs.iter().filter(|&&x| x > eta).count();
        let target = (delta * xs.len() as f64).round() as usize;
        assert!((k as i64 - target as i64).abs() <= target as i64 / 5 + 2);
    }
}
