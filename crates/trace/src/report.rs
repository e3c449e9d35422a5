//! Trace data model and the drained-session report.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

use crate::metrics::MetricsFrame;

/// Which clock a track's timestamps come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Lane {
    /// Model time from a [`crate::VirtualClock`] (DES / scheduler output).
    Virtual,
    /// Monotonic wall time measured from session start.
    Real,
}

impl fmt::Display for Lane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lane::Virtual => f.write_str("model time"),
            Lane::Real => f.write_str("real time"),
        }
    }
}

/// Interned identifier of a timeline track (one horizontal row in the
/// exported timeline: a modeled stream, the shared link, a pool worker, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TrackId(pub(crate) u32);

impl TrackId {
    /// Raw index into [`TraceReport::tracks`].
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a [`RawEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A whole span from the event's `ts` to `end`, recorded when it ends.
    Span {
        /// End time in seconds on the track's lane.
        end: f64,
    },
    /// A point event with no duration.
    Instant,
}

/// One recorded event, as stored in the per-thread buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct RawEvent {
    /// Track the event belongs to.
    pub track: TrackId,
    /// Span or instant.
    pub kind: EventKind,
    /// Event label.
    pub name: Cow<'static, str>,
    /// Timestamp in seconds on the track's lane (a span's start).
    pub ts: f64,
}

/// Metadata of one track.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrackInfo {
    /// Human-readable label ("stream:0", "link", "sidco-pool-2", …).
    pub label: String,
    /// Clock lane of every event on the track.
    pub lane: Lane,
}

/// One recorded span, as returned by [`TraceReport::spans`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompleteSpan {
    /// Track the span lives on.
    pub track: TrackId,
    /// Span label.
    pub name: String,
    /// Start time in seconds.
    pub start: f64,
    /// End time in seconds (`end >= start` for well-formed traces).
    pub end: f64,
}

/// Everything drained out of a finished [`crate::TraceSession`].
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    pub(crate) tracks: Vec<TrackInfo>,
    pub(crate) events: Vec<RawEvent>,
    pub(crate) metrics: MetricsFrame,
    pub(crate) dropped: u64,
}

impl TraceReport {
    /// Track table; [`TrackId::index`] indexes into it.
    #[must_use]
    pub fn tracks(&self) -> &[TrackInfo] {
        &self.tracks
    }

    /// All recorded events, grouped by producing thread, in per-thread
    /// recording order (which is per-track order: each track has exactly one
    /// writer).
    #[must_use]
    pub fn events(&self) -> &[RawEvent] {
        &self.events
    }

    /// Metrics snapshot (counters, gauges, histograms) at session end.
    #[must_use]
    pub fn metrics(&self) -> &MetricsFrame {
        &self.metrics
    }

    /// Events discarded because a thread's buffer filled up between drains.
    #[must_use]
    // lint: test-only the trace tests check no event was lost (tests/trace_properties.rs)
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Look up a track by label, if present.
    #[must_use]
    // lint: test-only span lookups of the trace tests (tests/trace_properties.rs)
    pub fn track_by_label(&self, label: &str) -> Option<TrackId> {
        self.tracks
            .iter()
            .position(|t| t.label == label)
            .map(|i| TrackId(i as u32))
    }

    /// Every recorded span, in recording order.
    ///
    /// Returns `Err` when events were dropped (a full buffer makes the span
    /// list incomplete). Use [`TraceReport::spans_lenient`] for best-effort
    /// export.
    // lint: test-only the complete span list of the trace tests (tests/trace_properties.rs)
    pub fn spans(&self) -> Result<Vec<CompleteSpan>, String> {
        if self.dropped > 0 {
            return Err(format!("{} events dropped", self.dropped));
        }
        Ok(self.spans_lenient())
    }

    /// The recorded spans, in recording order, whether or not events were
    /// dropped.
    #[must_use]
    pub fn spans_lenient(&self) -> Vec<CompleteSpan> {
        self.events
            .iter()
            .filter_map(|ev| match ev.kind {
                EventKind::Span { end } => Some(CompleteSpan {
                    track: ev.track,
                    name: ev.name.clone().into_owned(),
                    start: ev.ts,
                    end,
                }),
                EventKind::Instant => None,
            })
            .collect()
    }

    /// Compact text flamegraph-style summary: per track, total busy time per
    /// span name, widest first, plus the metrics frame.
    #[must_use]
    pub fn flame_summary(&self) -> String {
        let spans = self.spans_lenient();
        let mut per_track: BTreeMap<TrackId, BTreeMap<String, (f64, u64)>> = BTreeMap::new();
        for s in &spans {
            let cell = per_track
                .entry(s.track)
                .or_default()
                .entry(s.name.clone())
                .or_insert((0.0, 0));
            cell.0 += (s.end - s.start).max(0.0);
            cell.1 += 1;
        }
        let mut out = String::new();
        out.push_str("trace summary\n=============\n");
        for (track, names) in &per_track {
            let info = &self.tracks[track.index()];
            let total: f64 = names.values().map(|(t, _)| *t).sum();
            out.push_str(&format!(
                "[{}] {} — busy {:.6}s across {} spans\n",
                info.lane,
                info.label,
                total,
                names.values().map(|(_, n)| *n).sum::<u64>()
            ));
            let mut rows: Vec<_> = names.iter().collect();
            rows.sort_by(|a, b| {
                // INVARIANT: busy totals are sums of max(0,·) so never NaN.
                b.1 .0.partial_cmp(&a.1 .0).expect("busy totals are finite")
            });
            for (name, (busy, count)) in rows {
                let width = if total > 0.0 {
                    ((busy / total) * 40.0).round() as usize
                } else {
                    0
                };
                out.push_str(&format!(
                    "  {:<28} {:>12.6}s ×{:<5} |{}\n",
                    name,
                    busy,
                    count,
                    "#".repeat(width.min(40))
                ));
            }
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "!! {} events dropped (buffer full)\n",
                self.dropped
            ));
        }
        out.push_str(&self.metrics.render());
        out
    }
}
