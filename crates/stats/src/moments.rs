//! Running and one-pass moment computations.
//!
//! The SIDCo estimators only ever need a handful of sample moments of the absolute
//! gradient (mean, variance, mean of logs). Computing them in a single pass over the
//! `f32` gradient buffer — accumulating in `f64` — is what gives the scheme its
//! linear-time, GPU-friendly profile, so this module is deliberately allocation-free.

/// Welford online estimator of mean and variance.
///
/// # Example
///
/// ```
/// use sidco_stats::moments::RunningMoments;
///
/// let mut m = RunningMoments::new();
/// for x in [1.0, 2.0, 3.0, 4.0] {
///     m.push(x);
/// }
/// assert!((m.mean() - 2.5).abs() < 1e-12);
/// assert!((m.variance() - 1.25).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningMoments {
    count: u64,
    mean: f64,
    m2: f64,
}

impl RunningMoments {
    /// Creates an empty estimator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Population variance (divides by `n`; 0 when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
}

/// Which optional [`AbsMoments`] fields a moment pass accumulates.
///
/// `count` and `mean` are always computed: every SID estimator and the
/// multi-stage loop's degenerate-input check read them. A pass that is not
/// asked for a field skips its accumulator entirely (the kernels are generic
/// over the needs, so an unrequested accumulator compiles away), and reports
/// the field as `f64::NAN` — `positive_count`, which belongs to
/// [`mean_ln`](Self::mean_ln), as 0 — so a reader that touches a field it did
/// not request sees a poisoned value rather than a plausible zero.
/// [`stage_needs`](crate::pot::stage_needs) derives the needs of one
/// multi-stage estimation step.
///
/// # Example
///
/// ```
/// use sidco_stats::moments::{AbsMoments, MomentNeeds};
///
/// let grad = [1.0f32, -2.0, 0.0, 3.0];
/// let lean = AbsMoments::compute_with(&grad, MomentNeeds::MEAN);
/// let full = AbsMoments::compute(&grad);
/// assert_eq!(lean.mean.to_bits(), full.mean.to_bits());
/// assert!(lean.variance.is_nan() && lean.mean_ln.is_nan() && lean.max.is_nan());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MomentNeeds {
    /// Accumulate `Σx²` for [`AbsMoments::variance`].
    pub variance: bool,
    /// Accumulate `Σ ln x` over the strictly positive values for
    /// [`AbsMoments::mean_ln`] and [`AbsMoments::positive_count`] (the only
    /// accumulator that calls `ln` per element).
    pub mean_ln: bool,
    /// Track [`AbsMoments::max`].
    pub max: bool,
}

impl MomentNeeds {
    /// `count` and `mean` only.
    pub const MEAN: Self = Self {
        variance: false,
        mean_ln: false,
        max: false,
    };

    /// Every field of [`AbsMoments`].
    pub const ALL: Self = Self {
        variance: true,
        mean_ln: true,
        max: true,
    };

    /// These needs plus [`AbsMoments::variance`].
    #[must_use]
    pub const fn with_variance(self) -> Self {
        Self {
            variance: true,
            ..self
        }
    }

    /// These needs plus [`AbsMoments::mean_ln`] and
    /// [`AbsMoments::positive_count`].
    #[must_use]
    pub const fn with_mean_ln(self) -> Self {
        Self {
            mean_ln: true,
            ..self
        }
    }
}

/// One-pass statistics of the absolute values of a gradient buffer.
///
/// Everything the three SID estimators need (Corollary 1.1, 1.2, 1.3) is derived
/// from these fields, so a single scan of the gradient suffices per stage.
/// Fields a pass was not asked for (see [`MomentNeeds`]) hold `f64::NAN`, and
/// `positive_count` holds 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AbsMoments {
    /// Number of finite elements scanned (including zeros).
    pub count: usize,
    /// Number of strictly positive absolute values (used by the log-moment).
    pub positive_count: usize,
    /// Mean of `|g|` over all finite elements.
    pub mean: f64,
    /// Population variance of `|g|` over all finite elements.
    pub variance: f64,
    /// Mean of `ln |g|` over the strictly positive elements.
    pub mean_ln: f64,
    /// Maximum of `|g|`.
    pub max: f64,
}

impl AbsMoments {
    /// Computes every absolute-value moment of `grad` in one pass.
    ///
    /// Non-finite elements are skipped: they count towards no field. Zeros
    /// count towards `count`, `mean` and `variance` but not towards `mean_ln`.
    pub fn compute(grad: &[f32]) -> Self {
        Self::compute_with(grad, MomentNeeds::ALL)
    }

    /// [`compute`](Self::compute) restricted to the fields in `needs`; every
    /// requested field is bit-identical to the all-fields result.
    pub fn compute_with(grad: &[f32], needs: MomentNeeds) -> Self {
        moments_of(Full(grad), needs)
    }

    /// Computes absolute-value moments of the elements of `grad` that meet or
    /// exceed `threshold` in magnitude, *after shifting them by the threshold*
    /// (i.e. the statistics of `|g| - threshold` for `|g| >= threshold`).
    ///
    /// This is exactly the input required by the peaks-over-threshold refits of
    /// Lemma 2 and Corollary 2.1. The boundary is **inclusive** and the
    /// comparison runs in `f32` with the threshold rounded exactly as the
    /// selection operator `C_η` (`|g| >= η as f32`) in `sidco-tensor` rounds
    /// it, so the refit always fits the same set the selection would transmit
    /// — even when gradient values tie the (rounded) threshold exactly or the
    /// `f64` threshold is not representable in `f32`. The shift uses the same
    /// rounded threshold, keeping every shifted exceedance non-negative.
    /// Non-finite magnitudes are skipped (like [`compute`](Self::compute)
    /// does) to guard the fit, even though the selection would transmit an
    /// `inf` element.
    // lint: test-only all-fields oracle for the needs-aware passes (tests/stage_kernels.rs)
    pub fn compute_exceedances(grad: &[f32], threshold: f64) -> Self {
        Self::compute_exceedances_with(grad, threshold, MomentNeeds::ALL)
    }

    /// [`compute_exceedances`](Self::compute_exceedances) restricted to the
    /// fields in `needs`; every requested field is bit-identical to the
    /// all-fields result.
    pub fn compute_exceedances_with(grad: &[f32], threshold: f64, needs: MomentNeeds) -> Self {
        moments_of(Exceedances { grad, threshold }, needs)
    }

    /// Moments of an empty input (every requested field zero).
    pub fn empty(needs: MomentNeeds) -> Self {
        Self {
            count: 0,
            positive_count: 0,
            mean: 0.0,
            variance: 0.0,
            mean_ln: 0.0,
            max: 0.0,
        }
        .restricted_to(needs)
    }

    /// Replaces every field `needs` does not request with its unrequested
    /// value (`f64::NAN`, or 0 for `positive_count`).
    #[must_use]
    pub fn restricted_to(self, needs: MomentNeeds) -> Self {
        let field = |requested: bool, value: f64| if requested { value } else { f64::NAN };
        Self {
            positive_count: if needs.mean_ln {
                self.positive_count
            } else {
                0
            },
            variance: field(needs.variance, self.variance),
            mean_ln: field(needs.mean_ln, self.mean_ln),
            max: field(needs.max, self.max),
            ..self
        }
    }
}

/// The running sums behind one [`AbsMoments`], accumulating only the fields
/// the const parameters ask for: an unrequested accumulator is dead code.
#[derive(Default)]
struct Accumulator<const VARIANCE: bool, const MEAN_LN: bool, const MAX: bool> {
    count: usize,
    sum: f64,
    sum_sq: f64,
    sum_ln: f64,
    positive: usize,
    max: f64,
}

impl<const VARIANCE: bool, const MEAN_LN: bool, const MAX: bool>
    Accumulator<VARIANCE, MEAN_LN, MAX>
{
    #[inline(always)]
    fn push(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        if VARIANCE {
            self.sum_sq += x * x;
        }
        if MEAN_LN && x > 0.0 {
            self.sum_ln += x.ln();
            self.positive += 1;
        }
        if MAX && x > self.max {
            self.max = x;
        }
    }

    fn finish(self) -> AbsMoments {
        let needs = MomentNeeds {
            variance: VARIANCE,
            mean_ln: MEAN_LN,
            max: MAX,
        };
        if self.count == 0 {
            return AbsMoments::empty(needs);
        }
        let n = self.count as f64;
        let mean = self.sum / n;
        AbsMoments {
            count: self.count,
            positive_count: self.positive,
            mean,
            variance: (self.sum_sq / n - mean * mean).max(0.0),
            mean_ln: if self.positive > 0 {
                self.sum_ln / self.positive as f64
            } else {
                0.0
            },
            max: self.max,
        }
        .restricted_to(needs)
    }
}

/// One moment pass: feeds the values it scans, in index order, to an
/// accumulator of any needs.
trait Pass {
    fn feed<const VARIANCE: bool, const MEAN_LN: bool, const MAX: bool>(
        &self,
        acc: &mut Accumulator<VARIANCE, MEAN_LN, MAX>,
    );
}

/// Runs `pass` with the accumulator instantiation that computes exactly
/// `needs`.
fn moments_of(pass: impl Pass, needs: MomentNeeds) -> AbsMoments {
    fn run<const VARIANCE: bool, const MEAN_LN: bool, const MAX: bool>(
        pass: impl Pass,
    ) -> AbsMoments {
        let mut acc = Accumulator::<VARIANCE, MEAN_LN, MAX>::default();
        pass.feed(&mut acc);
        acc.finish()
    }
    match (needs.variance, needs.mean_ln, needs.max) {
        (false, false, false) => run::<false, false, false>(pass),
        (true, false, false) => run::<true, false, false>(pass),
        (false, true, false) => run::<false, true, false>(pass),
        (true, true, false) => run::<true, true, false>(pass),
        (false, false, true) => run::<false, false, true>(pass),
        (true, false, true) => run::<true, false, true>(pass),
        (false, true, true) => run::<false, true, true>(pass),
        (true, true, true) => run::<true, true, true>(pass),
    }
}

/// The full pass: every finite `|g|`. Nearly every element is finite, so
/// the skip branch is predicted and costs nothing.
struct Full<'a>(&'a [f32]);

impl Pass for Full<'_> {
    fn feed<const VARIANCE: bool, const MEAN_LN: bool, const MAX: bool>(
        &self,
        acc: &mut Accumulator<VARIANCE, MEAN_LN, MAX>,
    ) {
        for &g in self.0 {
            let a = g.abs();
            if a.is_finite() {
                acc.push(a as f64);
            }
        }
    }
}

/// Elements per compaction block of the exceedance pass: the kept
/// magnitudes of one block are gathered into a stack buffer of this many
/// `f32`s (4 KiB).
const EXCEEDANCE_BLOCK: usize = 1 << 10;

/// The exceedance pass: `|g| - t` for every finite `|g| >= t`, with `t` the
/// `f32`-rounded threshold.
struct Exceedances<'a> {
    grad: &'a [f32],
    threshold: f64,
}

impl Pass for Exceedances<'_> {
    /// A refit keeps about one element in four, so a filter branch would
    /// mispredict constantly. Instead each [`EXCEEDANCE_BLOCK`] is compacted
    /// without branches — every magnitude is written at the cursor, and the
    /// cursor advances only if the element is kept — and the kept magnitudes
    /// are then pushed in index order: the same values in the same order as
    /// a filter-and-push loop, so every field keeps its bits.
    ///
    /// The keep test runs on the bits. For non-negative `f32`s the bit
    /// patterns order like the values and every NaN or infinity sits at or
    /// above `INFINITY.to_bits()`, so "finite and `!(|g| < t)`" is the single
    /// unsigned range test `lo <= bits(|g|) < bits(INFINITY)`, with `lo` the
    /// bits of a positive `t` and 0 for a `t` that is `<= 0` or NaN (which
    /// every finite `|g|` passes).
    fn feed<const VARIANCE: bool, const MEAN_LN: bool, const MAX: bool>(
        &self,
        acc: &mut Accumulator<VARIANCE, MEAN_LN, MAX>,
    ) {
        let t = self.threshold as f32;
        let shift = t as f64;
        let lo = if t > 0.0 { t.to_bits() } else { 0 };
        let width = f32::INFINITY.to_bits() - lo;
        let mut kept = [0.0f32; EXCEEDANCE_BLOCK];
        for block in self.grad.chunks(EXCEEDANCE_BLOCK) {
            let mut len = 0;
            for &g in block {
                let bits = g.abs().to_bits();
                kept[len] = f32::from_bits(bits);
                len += usize::from(bits.wrapping_sub(lo) < width);
            }
            for &a in &kept[..len] {
                acc.push(a as f64 - shift);
            }
        }
    }
}

/// Signed-value summary statistics of a gradient buffer (used when fitting symmetric
/// distributions such as the Gaussian of the GaussianKSGD baseline).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SignedMoments {
    /// Number of finite elements.
    pub count: usize,
    /// Mean of the signed values.
    pub mean: f64,
    /// Population variance of the signed values.
    pub variance: f64,
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
}

impl SignedMoments {
    /// Computes signed-value moments of `grad` in one pass.
    pub fn compute(grad: &[f32]) -> Self {
        let mut sum = 0.0f64;
        let mut sum_sq = 0.0f64;
        let mut count = 0usize;
        let mut min = f64::INFINITY;
        let mut max = f64::NEG_INFINITY;
        for &g in grad {
            let x = g as f64;
            if !x.is_finite() {
                continue;
            }
            count += 1;
            sum += x;
            sum_sq += x * x;
            if x < min {
                min = x;
            }
            if x > max {
                max = x;
            }
        }
        if count == 0 {
            return Self {
                count: 0,
                mean: 0.0,
                variance: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let n = count as f64;
        let mean = sum / n;
        let variance = (sum_sq / n - mean * mean).max(0.0);
        Self {
            count,
            mean,
            variance,
            min,
            max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_moments_matches_direct_computation() {
        let data = [0.5, -1.0, 2.25, 3.0, -0.75, 10.0];
        let mut m = RunningMoments::new();
        for &x in &data {
            m.push(x);
        }
        let n = data.len() as f64;
        let mean = data.iter().sum::<f64>() / n;
        let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        assert!((m.mean() - mean).abs() < 1e-12);
        assert!((m.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn running_moments_empty_and_single() {
        let m = RunningMoments::new();
        assert_eq!(m.count, 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.variance(), 0.0);
        let mut m = RunningMoments::new();
        m.push(3.0);
        assert_eq!(m.variance(), 0.0);
        assert_eq!(m.mean(), 3.0);
    }

    #[test]
    fn abs_moments_simple() {
        let grad = [1.0f32, -2.0, 0.0, 3.0];
        let m = AbsMoments::compute(&grad);
        assert_eq!(m.count, 4);
        assert_eq!(m.positive_count, 3);
        assert!((m.mean - 1.5).abs() < 1e-9);
        assert!((m.max - 3.0).abs() < 1e-9);
        let expected_var = (1.0 + 4.0 + 0.0 + 9.0) / 4.0 - 1.5 * 1.5;
        assert!((m.variance - expected_var).abs() < 1e-9);
        let expected_ln = (1.0f64.ln() + 2.0f64.ln() + 3.0f64.ln()) / 3.0;
        assert!((m.mean_ln - expected_ln).abs() < 1e-9);
    }

    #[test]
    fn abs_moments_skips_non_finite() {
        let grad = [1.0f32, f32::NAN, -1.0, f32::INFINITY];
        let m = AbsMoments::compute(&grad);
        assert_eq!(m.count, 2);
        assert!((m.mean - 1.0).abs() < 1e-9);
    }

    #[test]
    fn abs_moments_empty() {
        let m = AbsMoments::compute(&[]);
        assert_eq!(m.count, 0);
        assert_eq!(m.mean, 0.0);
    }

    #[test]
    fn exceedance_moments_shift_by_threshold() {
        let grad = [0.1f32, -0.5, 0.9, -1.5, 2.0];
        let m = AbsMoments::compute_exceedances(&grad, 0.8);
        // Exceedances of |g| over 0.8: 0.9, 1.5, 2.0 → shifted 0.1, 0.7, 1.2.
        assert_eq!(m.count, 3);
        assert!((m.mean - (0.1 + 0.7 + 1.2) / 3.0).abs() < 1e-6);
        assert!((m.max - 1.2).abs() < 1e-6);
    }

    #[test]
    fn exceedance_moments_include_boundary_ties() {
        // Inclusive semantics: an element whose magnitude ties the threshold is
        // part of the exceedance set (contributing a shifted value of zero), so
        // the refit sees exactly the set the selection operator keeps.
        let grad = [0.75f32, -0.75, 0.875, 0.1];
        let m = AbsMoments::compute_exceedances(&grad, 0.75);
        assert_eq!(m.count, 3);
        assert!((m.mean - (0.0 + 0.0 + 0.125) / 3.0).abs() < 1e-12);
        // Only the strictly positive shifted value feeds the log-moment.
        assert_eq!(m.positive_count, 1);
    }

    #[test]
    fn exceedance_boundary_uses_f32_rounding_like_the_selection_operator() {
        // 0.35 is not representable in f32 (rounds down), so an |g| of 0.35f32
        // ties the *rounded* threshold: the selection operator keeps it, and
        // the exceedance set must too — comparing in f64 would drop it.
        let grad = [0.35f32, -0.1];
        let m = AbsMoments::compute_exceedances(&grad, 0.35f64);
        assert_eq!(m.count, 1);
        // Shifting by the rounded threshold keeps the tie at exactly zero.
        assert_eq!(m.mean, 0.0);
        assert_eq!(m.positive_count, 0);
    }

    #[test]
    fn exceedance_moments_none_above_threshold() {
        let grad = [0.1f32, -0.2];
        let m = AbsMoments::compute_exceedances(&grad, 10.0);
        assert_eq!(m.count, 0);
    }

    #[test]
    fn signed_moments() {
        let grad = [1.0f32, -1.0, 3.0, -3.0];
        let m = SignedMoments::compute(&grad);
        assert_eq!(m.count, 4);
        assert!((m.mean - 0.0).abs() < 1e-9);
        assert!((m.variance - 5.0).abs() < 1e-9);
        assert_eq!(m.min, -3.0);
        assert_eq!(m.max, 3.0);
    }
}
