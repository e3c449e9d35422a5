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
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span start; must be matched by a later [`EventKind::Close`] on the
    /// same track.
    Open,
    /// Span end, closing the most recent unmatched open on the track.
    Close,
    /// A point event with no duration.
    Instant,
}

/// One recorded event, as stored in the per-thread rings.
#[derive(Debug, Clone, PartialEq)]
pub struct RawEvent {
    /// Track the event belongs to.
    pub track: TrackId,
    /// Open / close / instant.
    pub kind: EventKind,
    /// Event label. Close events may leave it empty; pairing is positional.
    pub name: Cow<'static, str>,
    /// Timestamp in seconds on the track's lane.
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

/// A paired open/close interval reconstructed from the raw event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct CompleteSpan {
    /// Track the span lives on.
    pub track: TrackId,
    /// Label taken from the open event.
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

    /// Events discarded because a thread's ring filled up between drains.
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

    /// Strictly pair open/close events into [`CompleteSpan`]s.
    ///
    /// Returns `Err` when the stream is malformed: a close with no matching
    /// open, an open left unclosed, or when events were dropped (a full ring
    /// makes pairing unreliable). Use [`TraceReport::spans_lenient`] for
    /// best-effort export.
    // lint: test-only the strict pairing of the trace tests (tests/trace_properties.rs)
    pub fn spans(&self) -> Result<Vec<CompleteSpan>, String> {
        if self.dropped > 0 {
            return Err(format!(
                "{} events dropped; span pairing would be unreliable",
                self.dropped
            ));
        }
        let (spans, errors) = self.pair(true);
        if let Some(e) = errors.into_iter().next() {
            return Err(e);
        }
        Ok(spans)
    }

    /// Best-effort pairing: unmatched closes are skipped, unclosed opens are
    /// terminated at the latest timestamp seen on their track.
    #[must_use]
    pub fn spans_lenient(&self) -> Vec<CompleteSpan> {
        self.pair(false).0
    }

    fn pair(&self, strict: bool) -> (Vec<CompleteSpan>, Vec<String>) {
        let mut stacks: BTreeMap<TrackId, Vec<(String, f64)>> = BTreeMap::new();
        let mut last_ts: BTreeMap<TrackId, f64> = BTreeMap::new();
        let mut spans = Vec::new();
        let mut errors = Vec::new();
        for ev in &self.events {
            let latest = last_ts.entry(ev.track).or_insert(ev.ts);
            if ev.ts > *latest {
                *latest = ev.ts;
            }
            match ev.kind {
                EventKind::Open => {
                    stacks
                        .entry(ev.track)
                        .or_default()
                        .push((ev.name.clone().into_owned(), ev.ts));
                }
                EventKind::Close => match stacks.entry(ev.track).or_default().pop() {
                    Some((name, start)) => spans.push(CompleteSpan {
                        track: ev.track,
                        name,
                        start,
                        end: ev.ts,
                    }),
                    None => {
                        if strict {
                            errors.push(format!(
                                "close '{}' at t={} on track {:?} with no open",
                                ev.name, ev.ts, ev.track
                            ));
                        }
                    }
                },
                EventKind::Instant => {}
            }
        }
        for (track, stack) in stacks {
            for (name, start) in stack {
                if strict {
                    errors.push(format!("open '{name}' on track {track:?} never closed"));
                } else {
                    let end = last_ts.get(&track).copied().unwrap_or(start).max(start);
                    spans.push(CompleteSpan {
                        track,
                        name,
                        start,
                        end,
                    });
                }
            }
        }
        (spans, errors)
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
            out.push_str(&format!("!! {} events dropped (ring full)\n", self.dropped));
        }
        out.push_str(&self.metrics.render());
        out
    }
}
