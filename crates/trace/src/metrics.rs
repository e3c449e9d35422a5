//! Counters, gauges and fixed-bucket histograms.
//!
//! This is the quantitative half of the trace registry: the three report
//! structs (`PoolStats`, `TrainingReport`, `FleetReport`) feed their headline
//! numbers here when a session is active, so one [`MetricsFrame`] summarises
//! a run across all layers.

use std::collections::BTreeMap;

/// Default histogram bucket bounds: log-spaced seconds from 1µs to 100s.
pub const DEFAULT_BOUNDS: [f64; 9] = [1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0];

/// A fixed-bucket histogram (cumulative-style bucket counts plus sum/min/max).
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    sum: f64,
    min: f64,
    max: f64,
    total: u64,
}

impl Histogram {
    /// A histogram with the given upper bucket bounds (ascending). One extra
    /// overflow bucket collects samples above the last bound.
    #[must_use]
    pub fn with_bounds(bounds: &[f64]) -> Self {
        let mut counts = vec![0; bounds.len() + 1];
        counts.shrink_to_fit();
        Self {
            bounds: bounds.to_vec(),
            counts,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            total: 0,
        }
    }

    /// Record one sample. NaN samples are ignored (counted nowhere) so a
    /// degenerate measurement cannot poison the aggregate.
    pub fn observe(&mut self, v: f64) {
        if v.is_nan() {
            return;
        }
        let idx = self
            .bounds
            .iter()
            .position(|b| v <= *b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.sum += v;
        self.total += 1;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Sum of recorded samples.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples, or NaN when empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.sum / self.total as f64
        }
    }

    /// Largest recorded sample, or NaN when empty.
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// Smallest recorded sample, or NaN when empty.
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.total == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Per-bucket (upper_bound, count) pairs; the final entry uses
    /// `f64::INFINITY` as its bound.
    pub fn buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(f64::INFINITY))
            .zip(self.counts.iter().copied())
    }
}

impl Default for Histogram {
    fn default() -> Self {
        Self::with_bounds(&DEFAULT_BOUNDS)
    }
}

/// A point-in-time snapshot of all metrics recorded during a session.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsFrame {
    counters: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, Histogram>,
}

impl MetricsFrame {
    /// Add `v` to the named monotone counter (created at zero).
    pub fn counter_add(&mut self, name: &str, v: f64) {
        *self.counters.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Set the named gauge to its latest value.
    pub fn gauge_set(&mut self, name: &str, v: f64) {
        self.gauges.insert(name.to_string(), v);
    }

    /// Record a sample into the named histogram (default bounds).
    pub fn observe(&mut self, name: &str, v: f64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .observe(v);
    }

    /// Value of a counter, if recorded.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<f64> {
        self.counters.get(name).copied()
    }

    /// All gauges in name order.
    // lint: test-only gauge assertions of the trace tests (tests/trace_properties.rs)
    pub fn gauges(&self) -> impl Iterator<Item = (&str, f64)> {
        self.gauges.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// True when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Clear all recorded values (used between sessions).
    pub fn clear(&mut self) {
        self.counters.clear();
        self.gauges.clear();
        self.histograms.clear();
    }

    /// Render a text block for the flame summary.
    #[must_use]
    pub fn render(&self) -> String {
        if self.is_empty() {
            return String::new();
        }
        let mut out = String::from("metrics\n-------\n");
        for (k, v) in &self.counters {
            out.push_str(&format!("  counter {k:<36} {v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("  gauge   {k:<36} {v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!(
                "  hist    {k:<36} n={} mean={:.6} min={:.6} max={:.6}\n",
                h.count(),
                h.mean(),
                h.min(),
                h.max()
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::default();
        for v in [5e-7, 3e-4, 0.2, 50.0, 1e4] {
            h.observe(v);
        }
        h.observe(f64::NAN); // ignored
        assert_eq!(h.count(), 5);
        assert_eq!(h.min(), 5e-7);
        assert_eq!(h.max(), 1e4);
        let buckets: Vec<_> = h.buckets().collect();
        assert_eq!(buckets[0], (1e-6, 1)); // 5e-7
        assert_eq!(buckets.last().copied(), Some((f64::INFINITY, 1))); // 1e4
        let total: u64 = buckets.iter().map(|(_, c)| c).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn empty_histogram_is_nan() {
        let h = Histogram::default();
        assert!(h.mean().is_nan());
        assert!(h.min().is_nan());
        assert!(h.max().is_nan());
    }

    #[test]
    fn frame_roundtrip() {
        let mut f = MetricsFrame::default();
        f.counter_add("jobs", 2.0);
        f.counter_add("jobs", 3.0);
        f.gauge_set("workers", 4.0);
        f.observe("latency", 0.25);
        assert_eq!(f.counter("jobs"), Some(5.0));
        assert!(f.gauges().eq([("workers", 4.0)]));
        let rendered = f.render();
        assert!(rendered.contains("jobs"));
        assert!(rendered.contains("latency") && rendered.contains("n=1"));
        f.clear();
        assert!(f.is_empty());
    }
}
