//! Training-run reports and the time-to-quality speed-up metric.

use crate::collective::ScheduleAccounting;
use crate::trainer::ClusterEvent;
use sidco_core::metrics::{EstimationQualitySummary, EstimationQualityTracker};

/// What one [`ClusterEvent`] did to the fleet, recorded when it fired.
///
/// The error-feedback masses are *signed* component sums across every
/// worker's residual memory — the quantity migration conserves (folding a
/// departing worker's residual into a survivor is vector addition, which
/// cannot create or destroy signed mass beyond `f32` rounding; an L1 norm is
/// not conserved because opposite-sign residuals cancel when folded).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RescaleRecord {
    /// Iteration the event fired before (the first iteration that ran on the
    /// rescaled fleet).
    pub step: u64,
    /// The membership change that fired.
    pub event: ClusterEvent,
    /// Fleet size (workers) before the event.
    pub workers_before: usize,
    /// Fleet size (workers) after the event.
    pub workers_after: usize,
    /// Signed error-feedback mass summed over all workers before the event.
    pub ef_mass_before: f64,
    /// Signed error-feedback mass summed over all workers after the event.
    pub ef_mass_after: f64,
    /// Total L1 mass of the departing workers' residuals that was folded
    /// into survivors (zero for a `Join`, and for departures with no
    /// residual).
    pub migrated_ef_l1: f64,
}

/// One recorded training iteration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingSample {
    /// Zero-based iteration index.
    pub iteration: u64,
    /// Mean mini-batch loss across the workers at this iteration.
    pub loss: f64,
    /// Simulated wall-clock time at the *end* of this iteration (seconds,
    /// cumulative from the start of the run).
    pub time: f64,
}

/// Everything a training run produced: the loss/time trajectory, the final
/// full-dataset metrics and the compression-estimation quality series.
#[derive(Debug, Clone)]
pub struct TrainingReport {
    samples: Vec<TrainingSample>,
    quality: EstimationQualityTracker,
    final_evaluation: f64,
    final_accuracy: Option<f64>,
    schedule: Option<ScheduleAccounting>,
    rescales: Vec<RescaleRecord>,
    trace: Option<sidco_trace::TraceReport>,
}

impl TrainingReport {
    /// Assembles a report; used by the trainer.
    pub fn new(
        samples: Vec<TrainingSample>,
        quality: EstimationQualityTracker,
        final_evaluation: f64,
        final_accuracy: Option<f64>,
    ) -> Self {
        Self {
            samples,
            quality,
            final_evaluation,
            final_accuracy,
            schedule: None,
            rescales: Vec::new(),
            trace: None,
        }
    }

    /// Attaches the collective scheduler's three-way accounting (serial vs
    /// single-stream pipeline vs the charged multi-stream schedule, plus the
    /// last iteration's per-stream/per-bucket timeline — whose entries carry
    /// each bucket's gradient-arrival release time on arrival-aware runs).
    #[must_use]
    pub fn with_schedule(mut self, schedule: ScheduleAccounting) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Attaches the elastic-rescale log of a run whose configuration carried
    /// [`ClusterEvent`]s, in firing order.
    #[must_use]
    pub fn with_rescales(mut self, rescales: Vec<RescaleRecord>) -> Self {
        self.rescales = rescales;
        self
    }

    /// Attaches the drained trace of a run whose
    /// [`TrainerConfig::trace`](crate::trainer::TrainerConfig) toggle was on.
    #[must_use]
    pub fn with_trace(mut self, trace: sidco_trace::TraceReport) -> Self {
        self.trace = Some(trace);
        self
    }

    /// The structured trace of the run (virtual-time schedule spans, real-time
    /// pool/engine spans, and the metrics frame), when tracing was enabled
    /// via the trainer config (`None` otherwise).
    pub fn trace(&self) -> Option<&sidco_trace::TraceReport> {
        self.trace.as_ref()
    }

    /// Every cluster-membership change that fired during the run, in firing
    /// order (empty for a run with no [`ClusterEvent`]s).
    pub fn rescales(&self) -> &[RescaleRecord] {
        &self.rescales
    }

    /// The collective scheduler's accounting, when the run was compressed
    /// (`None` for the dense baseline).
    pub fn schedule(&self) -> Option<&ScheduleAccounting> {
        self.schedule.as_ref()
    }

    /// The per-iteration trajectory, in iteration order.
    pub fn samples(&self) -> &[TrainingSample] {
        &self.samples
    }

    /// Mini-batch loss of the last iteration.
    pub fn final_loss(&self) -> f64 {
        self.samples.last().map(|s| s.loss).unwrap_or(f64::NAN)
    }

    /// Full-dataset evaluation metric at the final parameters (lower is
    /// better across all workloads).
    pub fn final_evaluation(&self) -> f64 {
        self.final_evaluation
    }

    /// Full-dataset accuracy at the final parameters, for workloads that
    /// report one.
    pub fn final_accuracy(&self) -> Option<f64> {
        self.final_accuracy
    }

    /// Total simulated wall-clock time of the run.
    pub fn total_time(&self) -> f64 {
        self.samples.last().map(|s| s.time).unwrap_or(0.0)
    }

    /// Simulated time at which the mini-batch loss first reached `target`,
    /// or `None` if it never did.
    pub fn time_to_loss(&self, target: f64) -> Option<f64> {
        self.samples
            .iter()
            .find(|s| s.loss <= target)
            .map(|s| s.time)
    }

    /// Summary of the normalised achieved compression ratio `k̂/k` over the
    /// run (1.0 mean means the compressor hit its target exactly).
    pub fn estimation_quality(&self) -> EstimationQualitySummary {
        self.quality.summary()
    }

    /// Running-window average of the raw achieved compression ratio
    /// (the Figure 11 series).
    pub fn smoothed_ratio_history(&self, window: usize) -> Vec<f64> {
        self.quality.smoothed_history(window)
    }
}

/// Time-to-quality speed-up of a compressed run over the uncompressed
/// baseline (the paper's headline end-to-end metric, Figures 3/5/6).
///
/// Not to be confused with [`crate::simulate::normalized_speedup`], the
/// fixed-iteration-count *time* ratio used by the benchmark simulator: this
/// variant gates on quality, reporting 0 when the compressed run never
/// reaches the baseline's loss.
///
/// The quality bar is covering a `1 − quality_tolerance` fraction of the
/// baseline's total loss drop. The speed-up is the ratio of simulated times at
/// which each run first clears the bar — and `0.0` if the compressed run never
/// does, so a diverging run can never report a speed-up ("gates on quality").
pub fn normalized_speedup(
    report: &TrainingReport,
    baseline: &TrainingReport,
    quality_tolerance: f64,
) -> f64 {
    let (Some(first), Some(_)) = (baseline.samples().first(), report.samples().first()) else {
        return 0.0;
    };
    let initial = first.loss;
    let drop = initial - baseline.final_loss();
    let target = initial - (1.0 - quality_tolerance) * drop;
    match (baseline.time_to_loss(target), report.time_to_loss(target)) {
        (Some(baseline_time), Some(report_time)) if report_time > 0.0 => {
            baseline_time / report_time
        }
        _ => 0.0,
    }
}

/// Jain's fairness index of a set of non-negative allocations:
/// `(Σx)² / (n · Σx²)`. Equal allocations score 1; one tenant hogging
/// everything scores `1/n`.
///
/// **Degenerate fleets are defined, not accidental:** an empty fleet and the
/// all-zero fleet (every `x_i == 0`, i.e. `Σx² == 0`) both score exactly
/// `1.0` — nothing was allocated, so nothing was allocated *unfairly*, and
/// perfect equality (everyone got the same zero) is the only consistent
/// reading. The naive formula would return `0/0 = NaN` there. Used by the
/// multi-tenant fleet report ([`crate::tenancy`]) over per-job normalised
/// progress rates.
pub fn jain_fairness_index(allocations: &[f64]) -> f64 {
    if allocations.is_empty() {
        return 1.0;
    }
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    if sum_sq == 0.0 {
        return 1.0;
    }
    (sum * sum) / (allocations.len() as f64 * sum_sq)
}

/// The `q`-quantile (`0.0..=1.0`) of `samples` by linear interpolation
/// between the sorted order statistics (the "exclusive-free" definition:
/// `q = 0` is the minimum, `q = 1` the maximum).
///
/// Edge cases are pinned down deliberately:
/// * **empty input** → `NaN` (there is no order statistic to report);
/// * **single sample** → that sample, for every `q`;
/// * **NaN samples** are *filtered out* before sorting — a handful of
///   undefined measurements (e.g. a rate over a zero-length window) must not
///   poison the quantile of the defined ones. If *all* samples are NaN the
///   result is `NaN`, same as empty.
///
/// # Panics
///
/// Panics if `q` is outside `[0, 1]`.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
    let mut sorted: Vec<f64> = samples.iter().copied().filter(|v| !v.is_nan()).collect();
    if sorted.is_empty() {
        return f64::NAN;
    }
    // INVARIANT: NaN was filtered above, so the comparison is total.
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN filtered before sort"));
    let position = q * (sorted.len() - 1) as f64;
    // INVARIANT: q ∈ [0, 1] (asserted above), so 0 ≤ position ≤ len-1 and
    // both bounds fit usize exactly.
    let low = position.floor() as usize;
    let high = position.ceil() as usize;
    if low == high {
        sorted[low]
    } else {
        sorted[low] + (position - low as f64) * (sorted[high] - sorted[low])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(losses: &[f64], dt: f64, target_ratio: f64, achieved: f64) -> TrainingReport {
        let mut quality = EstimationQualityTracker::new(target_ratio);
        let samples: Vec<TrainingSample> = losses
            .iter()
            .enumerate()
            .map(|(i, &loss)| {
                quality.record(achieved);
                TrainingSample {
                    iteration: i as u64,
                    loss,
                    time: dt * (i + 1) as f64,
                }
            })
            .collect();
        let final_eval = *losses.last().unwrap();
        TrainingReport::new(samples, quality, final_eval, None)
    }

    #[test]
    fn trajectory_accessors() {
        let r = report(&[4.0, 2.0, 1.0], 0.5, 0.01, 0.01);
        assert_eq!(r.samples().len(), 3);
        assert_eq!(r.final_loss(), 1.0);
        assert_eq!(r.final_evaluation(), 1.0);
        assert_eq!(r.total_time(), 1.5);
        assert_eq!(r.time_to_loss(2.0), Some(1.0));
        assert_eq!(r.time_to_loss(0.5), None);
        assert!((r.estimation_quality().mean_normalized_ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn speedup_of_baseline_against_itself_is_one() {
        let base = report(&[4.0, 2.0, 1.0, 0.5], 0.5, 1.0, 1.0);
        assert_eq!(normalized_speedup(&base, &base, 0.1), 1.0);
        assert_eq!(normalized_speedup(&base, &base, 0.5), 1.0);
    }

    #[test]
    fn faster_run_reports_proportional_speedup() {
        let base = report(&[4.0, 3.0, 2.0, 1.0, 0.5, 0.4], 1.0, 1.0, 1.0);
        let fast = report(&[4.0, 2.0, 1.0, 0.5, 0.4, 0.4], 0.5, 0.01, 0.01);
        let s = normalized_speedup(&fast, &base, 0.1);
        assert!(s > 1.0, "halving iteration time should speed up, got {s}");
    }

    #[test]
    fn diverging_run_gates_to_zero() {
        let base = report(&[4.0, 2.0, 1.0], 1.0, 1.0, 1.0);
        let bad = report(&[4.0, 4.0, 4.0], 0.1, 0.01, 0.01);
        assert_eq!(normalized_speedup(&bad, &base, 0.1), 0.0);
    }

    #[test]
    fn jain_index_scores_equality_and_hogging() {
        assert_eq!(jain_fairness_index(&[]), 1.0);
        assert_eq!(jain_fairness_index(&[0.0, 0.0]), 1.0);
        assert!((jain_fairness_index(&[3.0, 3.0, 3.0, 3.0]) - 1.0).abs() < 1e-12);
        // One tenant gets everything: index collapses to 1/n.
        assert!((jain_fairness_index(&[5.0, 0.0, 0.0, 0.0]) - 0.25).abs() < 1e-12);
        // Mild skew lands strictly between the extremes.
        let skew = jain_fairness_index(&[1.0, 2.0]);
        assert!(skew > 0.5 && skew < 1.0, "got {skew}");
    }

    #[test]
    fn percentile_interpolates_order_statistics() {
        let samples = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&samples, 0.0), 1.0);
        assert_eq!(percentile(&samples, 1.0), 4.0);
        assert!((percentile(&samples, 0.5) - 2.5).abs() < 1e-12);
        assert!((percentile(&samples, 0.99) - 3.97).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    #[should_panic(expected = "outside [0, 1]")]
    fn percentile_rejects_out_of_range_quantiles() {
        percentile(&[1.0], 1.5);
    }

    #[test]
    fn percentile_edge_cases_are_pinned() {
        // Empty input: NaN at every quantile, including the boundaries.
        assert!(percentile(&[], 0.0).is_nan());
        assert!(percentile(&[], 1.0).is_nan());
        // Single sample: that sample for every q.
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(percentile(&[42.0], q), 42.0);
        }
        // NaN samples are filtered, not propagated and not panicking.
        let noisy = [f64::NAN, 3.0, f64::NAN, 1.0, 2.0];
        assert_eq!(percentile(&noisy, 0.0), 1.0);
        assert_eq!(percentile(&noisy, 0.5), 2.0);
        assert_eq!(percentile(&noisy, 1.0), 3.0);
        // All-NaN behaves like empty.
        assert!(percentile(&[f64::NAN, f64::NAN], 0.5).is_nan());
        // Infinities are legitimate order statistics, not filtered.
        assert_eq!(percentile(&[f64::INFINITY, 1.0], 1.0), f64::INFINITY);
    }

    #[test]
    fn jain_index_of_the_all_zero_fleet_is_documented_one() {
        // The naive (Σx)²/(n·Σx²) would be 0/0 = NaN; the documented value
        // is 1.0 for any fleet size.
        for n in [1, 2, 5, 100] {
            let zeros = vec![0.0; n];
            assert_eq!(jain_fairness_index(&zeros), 1.0, "fleet of {n} zeros");
        }
    }

    #[test]
    fn empty_reports_do_not_panic() {
        let empty = TrainingReport::new(Vec::new(), EstimationQualityTracker::new(0.5), 0.0, None);
        assert!(empty.final_loss().is_nan());
        assert_eq!(empty.total_time(), 0.0);
        assert_eq!(normalized_speedup(&empty, &empty, 0.1), 0.0);
    }
}
