//! Compression-quality metrics: the "estimation quality" (normalised achieved
//! ratio) statistics reported in Figures 1c, 3c/f, 5b, 6c/f, 9 and 18 of the paper.

use sidco_stats::moments::RunningMoments;

/// Tracks how closely a compressor's achieved ratio `k̂/d` matches the target `δ`
/// over a training run.
///
/// # Example
///
/// ```
/// use sidco_core::metrics::EstimationQualityTracker;
///
/// let mut tracker = EstimationQualityTracker::new(0.01);
/// tracker.record(0.011);
/// tracker.record(0.009);
/// let summary = tracker.summary();
/// assert!((summary.mean_normalized_ratio - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct EstimationQualityTracker {
    target: f64,
    normalized: RunningMoments,
    history: Vec<f64>,
}

/// Summary statistics of the normalised achieved ratio `(k̂/d)/δ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimationQualitySummary {
    /// Mean of the normalised ratio (1.0 is a perfect estimator).
    pub mean_normalized_ratio: f64,
    /// Standard deviation of the normalised ratio.
    pub std_normalized_ratio: f64,
}

impl EstimationQualityTracker {
    /// Creates a tracker for the given target ratio.
    ///
    /// # Panics
    ///
    /// Panics if `target_ratio` is not in `(0, 1]`.
    pub fn new(target_ratio: f64) -> Self {
        assert!(
            target_ratio > 0.0 && target_ratio <= 1.0,
            "target ratio must lie in (0,1], got {target_ratio}"
        );
        Self {
            target: target_ratio,
            normalized: RunningMoments::new(),
            history: Vec::new(),
        }
    }

    /// Records the achieved ratio of one iteration.
    pub fn record(&mut self, achieved_ratio: f64) {
        let normalized = achieved_ratio / self.target;
        self.normalized.push(normalized);
        self.history.push(achieved_ratio);
    }

    /// Raw per-iteration achieved ratios, in recording order (the Figure 4/9 series).
    // lint: test-only the determinism unit tests of `sidco-dist`'s simulator (simulate.rs)
    pub fn history(&self) -> &[f64] {
        &self.history
    }

    /// Running average of the achieved ratio over a window, producing the smoothed
    /// series plotted in Figure 9. `window` of 0 or 1 returns the raw history.
    pub fn smoothed_history(&self, window: usize) -> Vec<f64> {
        if window <= 1 || self.history.is_empty() {
            return self.history.clone();
        }
        let mut out = Vec::with_capacity(self.history.len());
        let mut sum = 0.0;
        for (i, &x) in self.history.iter().enumerate() {
            sum += x;
            if i >= window {
                sum -= self.history[i - window];
            }
            let count = (i + 1).min(window);
            out.push(sum / count as f64);
        }
        out
    }

    /// Summary statistics of the normalised ratio.
    pub fn summary(&self) -> EstimationQualitySummary {
        EstimationQualitySummary {
            mean_normalized_ratio: self.normalized.mean(),
            std_normalized_ratio: self.normalized.std_dev(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "target ratio")]
    fn rejects_invalid_target() {
        EstimationQualityTracker::new(0.0);
    }

    #[test]
    fn perfect_estimator_has_unit_mean_and_zero_std() {
        let mut t = EstimationQualityTracker::new(0.01);
        for _ in 0..100 {
            t.record(0.01);
        }
        let s = t.summary();
        assert!((s.mean_normalized_ratio - 1.0).abs() < 1e-12);
        assert!(s.std_normalized_ratio < 1e-12);
        assert_eq!(t.history().len(), 100);
        assert_eq!(t.target, 0.01);
    }

    #[test]
    fn biased_estimator_is_detected() {
        let mut t = EstimationQualityTracker::new(0.001);
        for _ in 0..50 {
            t.record(0.0001); // 10x under-selection, the GaussianKSGD failure mode.
        }
        let s = t.summary();
        assert!((s.mean_normalized_ratio - 0.1).abs() < 1e-9);
    }

    #[test]
    fn smoothed_history_averages_over_window() {
        let mut t = EstimationQualityTracker::new(0.01);
        for &x in &[0.02, 0.0, 0.02, 0.0] {
            t.record(x);
        }
        assert_eq!(t.history().len(), 4);
        let smoothed = t.smoothed_history(2);
        assert_eq!(smoothed.len(), 4);
        assert!((smoothed[3] - 0.01).abs() < 1e-12);
        // Window 0/1 returns raw values.
        assert_eq!(t.smoothed_history(1), t.history());
    }

    #[test]
    fn empty_tracker_summary() {
        let t = EstimationQualityTracker::new(0.1);
        let s = t.summary();
        assert!(t.history().is_empty());
        assert_eq!(s.mean_normalized_ratio, 0.0);
    }
}
