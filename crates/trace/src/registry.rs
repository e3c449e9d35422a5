//! The process-wide trace registry, recording sink, and session lifecycle.

use std::borrow::Cow;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use crate::report::{EventKind, Lane, RawEvent, TraceReport, TrackId, TrackInfo};
use crate::MetricsFrame;

/// Events each thread can buffer between drains. Sessions drain only when
/// they finish, so this bounds a whole run; overflow increments a drop
/// counter instead of blocking.
const BUFFER_CAPACITY: usize = 1 << 15;

/// One thread's recorded events. Only its owning thread pushes; the registry
/// locks it to drain or clear it, so the lock is uncontended while recording.
#[derive(Default)]
struct Buffer {
    events: Vec<RawEvent>,
    dropped: u64,
}

/// Mutable registry state; all of it lives behind one mutex because it is
/// touched only on cold paths (track interning, thread registration, metric
/// updates, session begin/finish) — event recording itself goes through the
/// per-thread buffers and never takes this lock.
#[derive(Default)]
struct RegistryState {
    tracks: Vec<TrackInfo>,
    buffers: Vec<Arc<Mutex<Buffer>>>,
    metrics: MetricsFrame,
}

/// Process-wide trace collection point.
///
/// Obtain the singleton with [`global`] and a recording handle with
/// [`global_sink`]; start/stop recording with [`TraceSession`].
pub struct TraceRegistry {
    enabled: AtomicBool,
    /// Bumped every session so thread-local track caches self-invalidate and
    /// span guards can tell whether their session is still recording.
    epoch: AtomicU64,
    /// Session start, as seconds since process anchor (f64 bits).
    session_start: AtomicU64,
    state: Mutex<RegistryState>,
    /// Held for the lifetime of a [`TraceSession`]; serializes sessions.
    session: Mutex<()>,
}

/// Monotonic anchor all real-lane timestamps are measured against.
fn process_anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// The process-wide [`TraceRegistry`] singleton.
pub fn global() -> &'static TraceRegistry {
    static GLOBAL: OnceLock<TraceRegistry> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        process_anchor(); // warm the anchor before any session math uses it
        TraceRegistry {
            enabled: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            session_start: AtomicU64::new(0f64.to_bits()),
            state: Mutex::new(RegistryState::default()),
            session: Mutex::new(()),
        }
    })
}

/// The cheapest possible "is tracing on?" check: one relaxed atomic load.
/// Returns a recording sink while a session is active, else a no-op sink
/// whose record methods compile down to a skipped branch.
#[inline]
pub fn global_sink() -> TraceSink {
    let reg = global();
    // Relaxed: purely an observation — a stale read only means a borderline
    // event lands in (or misses) the session edge, never a data race, because
    // event storage goes through the per-thread buffer locks.
    if reg.enabled.load(Ordering::Relaxed) {
        TraceSink {
            registry: Some(reg),
        }
    } else {
        TraceSink::noop()
    }
}

thread_local! {
    /// This thread's buffer (created on first event) plus a cached
    /// (epoch, default real-lane track) pair.
    static TLS: ThreadSlot = const { ThreadSlot {
        buffer: OnceLock::new(),
        thread_track: Cell::new(None),
    } };
}

struct ThreadSlot {
    buffer: OnceLock<Arc<Mutex<Buffer>>>,
    thread_track: Cell<Option<(u64, TrackId)>>,
}

impl TraceRegistry {
    /// Appends `ev` to this thread's buffer; with `epoch` set, only while
    /// that session is still recording. The check runs under the buffer lock,
    /// and `reset` bumps the epoch before it empties the buffers, so an event
    /// from a finished session lands in no later one.
    fn push(&'static self, epoch: Option<u64>, ev: RawEvent) {
        TLS.with(|slot| {
            let buffer = slot.buffer.get_or_init(|| {
                let buffer = Arc::new(Mutex::new(Buffer::default()));
                let mut state = self.state.lock().expect("trace registry poisoned");
                state.buffers.push(Arc::clone(&buffer));
                buffer
            });
            let mut buffer = buffer.lock().expect("trace buffer poisoned");
            // Relaxed: the buffer lock orders these loads after the epoch
            // bump of any `reset` that already emptied this buffer.
            let stale = epoch.is_some_and(|epoch| {
                !self.enabled.load(Ordering::Relaxed) || self.epoch.load(Ordering::Relaxed) != epoch
            });
            match (stale, buffer.events.len() < BUFFER_CAPACITY) {
                (true, _) => {}
                (false, true) => buffer.events.push(ev),
                (false, false) => buffer.dropped += 1,
            }
        });
    }

    fn intern(&'static self, label: &str, lane: Lane) -> TrackId {
        let mut state = self.state.lock().expect("trace registry poisoned");
        if let Some(at) = state.tracks.iter().position(|t| t.label == label) {
            return TrackId(at as u32);
        }
        let label = label.to_string();
        state.tracks.push(TrackInfo { label, lane });
        TrackId(state.tracks.len() as u32 - 1)
    }

    /// Seconds of real time since the active session began.
    fn real_now(&self) -> f64 {
        // Relaxed: the session start is written once at session begin, before
        // `enabled` is set; any recording thread observing the session also
        // observes the start through that edge or reads a benignly-stale f64.
        let start = f64::from_bits(self.session_start.load(Ordering::Relaxed));
        process_anchor().elapsed().as_secs_f64() - start
    }

    /// This thread's default real-lane track (labelled after the thread).
    fn thread_track(&'static self) -> TrackId {
        // Relaxed: epoch only guards a per-thread cache; a stale value just
        // re-interns the same label.
        let epoch = self.epoch.load(Ordering::Relaxed);
        TLS.with(|slot| {
            if let Some((cached_epoch, id)) = slot.thread_track.get() {
                if cached_epoch == epoch {
                    return id;
                }
            }
            let label = std::thread::current()
                .name()
                .map(str::to_string)
                .unwrap_or_else(|| format!("thread-{:?}", std::thread::current().id()));
            let id = self.intern(&label, Lane::Real);
            slot.thread_track.set(Some((epoch, id)));
            id
        })
    }

    /// Reset for a fresh session. Caller holds the session mutex.
    fn reset(&self) {
        let mut state = self.state.lock().expect("trace registry poisoned");
        state.tracks.clear();
        state.metrics.clear();
        // Relaxed: both writes happen before `enabled` flips on below the
        // session mutex; recorders treat stale reads benignly (see above).
        // The epoch moves before the buffers empty (see `push`).
        self.session_start.store(
            process_anchor().elapsed().as_secs_f64().to_bits(),
            Ordering::Relaxed,
        );
        self.epoch.fetch_add(1, Ordering::Relaxed);
        for buffer in &state.buffers {
            *buffer.lock().expect("trace buffer poisoned") = Buffer::default();
        }
    }

    /// Drain everything into a report. Caller holds the session mutex and has
    /// already cleared `enabled`.
    fn collect(&self) -> TraceReport {
        let state = self.state.lock().expect("trace registry poisoned");
        let mut events = Vec::new();
        let mut dropped = 0;
        for buffer in &state.buffers {
            let mut buffer = buffer.lock().expect("trace buffer poisoned");
            events.append(&mut buffer.events);
            dropped += std::mem::take(&mut buffer.dropped);
        }
        TraceReport {
            tracks: state.tracks.clone(),
            events,
            metrics: state.metrics.clone(),
            dropped,
        }
    }
}

/// A copyable recording handle: either a live pointer to the global registry
/// or a no-op. All methods are safe to call from any thread at any time.
#[derive(Clone, Copy)]
pub struct TraceSink {
    registry: Option<&'static TraceRegistry>,
}

impl TraceSink {
    /// A sink that records nothing; every method is a skipped branch.
    #[must_use]
    pub const fn noop() -> Self {
        Self { registry: None }
    }

    /// True when events actually land somewhere. Use to gate derived-data
    /// computation (e.g. building a timeline view only for tracing).
    #[inline]
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.registry.is_some()
    }

    /// Intern (or look up) the track with this label and lane.
    #[must_use]
    pub fn track(&self, label: &str, lane: Lane) -> TrackId {
        match self.registry {
            Some(reg) => reg.intern(label, lane),
            None => TrackId(u32::MAX),
        }
    }

    /// This thread's default real-lane track, labelled after the thread name
    /// (pool workers are named `sidco-pool-{i}`, giving one track per
    /// worker automatically).
    #[must_use]
    pub fn thread_track(&self) -> TrackId {
        match self.registry {
            Some(reg) => reg.thread_track(),
            None => TrackId(u32::MAX),
        }
    }

    /// Seconds of real time since the session started (0.0 when disabled).
    #[must_use]
    pub fn real_now(&self) -> f64 {
        match self.registry {
            Some(reg) => reg.real_now(),
            None => 0.0,
        }
    }

    /// Record a complete `[start, end]` span.
    #[inline]
    pub fn span(&self, track: TrackId, name: impl Into<Cow<'static, str>>, start: f64, end: f64) {
        self.record(track, EventKind::Span { end }, name, start);
    }

    /// Record an instantaneous event.
    #[inline]
    pub fn instant(&self, track: TrackId, name: impl Into<Cow<'static, str>>, ts: f64) {
        self.record(track, EventKind::Instant, name, ts);
    }

    #[inline]
    fn record(&self, track: TrackId, kind: EventKind, name: impl Into<Cow<'static, str>>, ts: f64) {
        if let Some(reg) = self.registry {
            let ev = RawEvent {
                track,
                kind,
                name: name.into(),
                ts,
            };
            reg.push(None, ev);
        }
    }

    /// Start a real-clock span on this thread's track, recorded when the
    /// guard drops. When disabled this neither reads the clock nor allocates.
    #[inline]
    pub fn real_span(&self, name: &'static str) -> RealSpanGuard {
        RealSpanGuard {
            open: self.registry.map(|reg| {
                // Relaxed: a stale epoch only drops this span (see `push`).
                let epoch = reg.epoch.load(Ordering::Relaxed);
                let track = reg.thread_track();
                let start = reg.real_now();
                let span = RawEvent {
                    track,
                    kind: EventKind::Span { end: start },
                    name: Cow::Borrowed(name),
                    ts: start,
                };
                (epoch, span)
            }),
        }
    }

    /// Add to a monotone counter in the metrics frame.
    pub fn counter_add(&self, name: &str, v: f64) {
        if let Some(reg) = self.registry {
            let mut state = reg.state.lock().expect("trace registry poisoned");
            state.metrics.counter_add(name, v);
        }
    }

    /// Set a gauge in the metrics frame.
    pub fn gauge_set(&self, name: &str, v: f64) {
        if let Some(reg) = self.registry {
            let mut state = reg.state.lock().expect("trace registry poisoned");
            state.metrics.gauge_set(name, v);
        }
    }

    /// Record a histogram sample in the metrics frame.
    pub fn observe(&self, name: &str, v: f64) {
        if let Some(reg) = self.registry {
            let mut state = reg.state.lock().expect("trace registry poisoned");
            state.metrics.observe(name, v);
        }
    }
}

impl std::fmt::Debug for TraceSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSink")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// RAII guard from [`TraceSink::real_span`]; records the span on drop, into
/// the session it started in, and nowhere if that session has finished.
#[must_use = "dropping the guard ends the span"]
pub struct RealSpanGuard {
    /// The span's session epoch and its event, whose end is set on drop;
    /// `None` when tracing was off at the start.
    open: Option<(u64, RawEvent)>,
}

impl Drop for RealSpanGuard {
    fn drop(&mut self) {
        if let Some((epoch, mut span)) = self.open.take() {
            let end = global().real_now();
            span.kind = EventKind::Span { end };
            global().push(Some(epoch), span);
        }
    }
}

/// An exclusive recording window over the global registry.
///
/// `begin` clears leftover state, enables recording, and holds a process-wide
/// session lock (concurrent sessions would interleave their events);
/// [`TraceSession::finish`] disables recording and drains everything into a
/// [`TraceReport`]. Dropping the session without `finish` disables recording
/// and discards the data.
pub struct TraceSession {
    guard: Option<MutexGuard<'static, ()>>,
}

impl TraceSession {
    /// Start recording. Blocks until any other active session finishes.
    pub fn begin() -> Self {
        let reg = global();
        let guard = match reg.session.lock() {
            Ok(g) => g,
            // INVARIANT: the session payload is (), so a poisoned lock holds
            // no broken state; recover the guard and continue.
            Err(poisoned) => poisoned.into_inner(),
        };
        reg.reset();
        // SeqCst: this is the publish edge recorders race against; keep it
        // at the strongest ordering so `reset` above is fully visible first.
        reg.enabled.store(true, Ordering::SeqCst);
        Self { guard: Some(guard) }
    }

    /// Stop recording and drain all buffers into a report.
    pub fn finish(mut self) -> TraceReport {
        let reg = global();
        // SeqCst: pairs with the enable edge; after this store, newly-read
        // sinks are no-ops and only in-flight pushes may still land.
        reg.enabled.store(false, Ordering::SeqCst);
        let report = reg.collect();
        self.guard.take();
        report
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if self.guard.is_some() {
            // SeqCst: same disable edge as `finish`, for abandoned sessions.
            global().enabled.store(false, Ordering::SeqCst);
        }
    }
}

impl std::fmt::Debug for TraceSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TraceSession").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_sink_records_nothing_and_is_cheap() {
        let sink = TraceSink::noop();
        assert!(!sink.enabled());
        let t = sink.track("x", Lane::Virtual);
        sink.span(t, "s", 0.0, 1.0);
        sink.instant(t, "i", 0.5);
        sink.counter_add("c", 1.0);
        assert_eq!(sink.real_now(), 0.0);
        let _g = sink.real_span("guarded");
    }

    #[test]
    fn session_records_spans_metrics_and_thread_tracks() {
        let session = TraceSession::begin();
        let sink = global_sink();
        assert!(sink.enabled());

        let stream = sink.track("stream:0", Lane::Virtual);
        sink.span(stream, "bucket 0", 1.0, 2.5);
        sink.instant(stream, "release", 1.0);
        sink.counter_add("jobs", 3.0);
        sink.gauge_set("workers", 2.0);
        sink.observe("lat", 0.125);
        {
            let _g = sink.real_span("work");
        }

        let worker = std::thread::Builder::new()
            .name("trace-test-worker".into())
            .spawn(|| {
                let sink = global_sink();
                let _g = sink.real_span("remote");
            })
            .expect("spawn");
        worker.join().expect("join");

        let report = session.finish();
        assert_eq!(report.dropped(), 0);
        let spans = report.spans().expect("well-formed");
        assert_eq!(spans.len(), 3);
        assert!(report.track_by_label("stream:0").is_some());
        assert!(report.track_by_label("trace-test-worker").is_some());
        assert_eq!(report.metrics().counter("jobs"), Some(3.0));
        assert!(report.metrics().gauges().eq([("workers", 2.0)]));
        let worker_track = report.track_by_label("trace-test-worker").expect("track");
        assert_eq!(report.tracks()[worker_track.index()].lane, Lane::Real);
        // Real spans have non-negative duration.
        for s in &spans {
            assert!(s.end >= s.start, "span {s:?} runs backwards");
        }
        assert!(report.flame_summary().contains("stream:0"));
    }

    #[test]
    fn overflow_counts_drops_and_keeps_the_first_events() {
        let session = TraceSession::begin();
        let sink = global_sink();
        let t = sink.track("flood", Lane::Virtual);
        for i in 0..BUFFER_CAPACITY + 7 {
            sink.instant(t, "e", i as f64);
        }
        let report = session.finish();
        assert_eq!(report.dropped(), 7);
        assert_eq!(report.events().len(), BUFFER_CAPACITY);
        assert_eq!(
            report.events()[BUFFER_CAPACITY - 1].ts,
            (BUFFER_CAPACITY - 1) as f64
        );
        assert!(report.spans().is_err());
    }

    #[test]
    fn nested_guards_record_the_inner_span_first_inside_the_outer() {
        let session = TraceSession::begin();
        let sink = global_sink();
        {
            let _outer = sink.real_span("outer");
            let _inner = sink.real_span("inner");
        }
        let spans = session.finish().spans().expect("nothing dropped");
        let names: Vec<&str> = spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["inner", "outer"]);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.track, outer.track);
        assert!(outer.start <= inner.start && inner.start <= inner.end && inner.end <= outer.end);
    }

    #[test]
    fn a_guard_that_outlives_its_session_lands_in_no_report() {
        let session = TraceSession::begin();
        let sink = global_sink();
        let after_finish = sink.real_span("stale");
        let in_next_session = sink.real_span("stale");
        let first = session.finish();
        drop(after_finish);
        let next = TraceSession::begin();
        drop(in_next_session);
        let second = next.finish();
        for report in [first, second] {
            assert!(report.events().is_empty(), "{:?}", report.events());
        }
    }

    #[test]
    fn sessions_reset_state_between_runs() {
        {
            let session = TraceSession::begin();
            let sink = global_sink();
            let t = sink.track("ephemeral", Lane::Virtual);
            sink.instant(t, "x", 0.0);
            sink.counter_add("old", 1.0);
            drop(session); // abandoned: data discarded, recording disabled
        }
        let session = TraceSession::begin();
        let report = session.finish();
        assert!(report.track_by_label("ephemeral").is_none());
        assert_eq!(report.metrics().counter("old"), None);
        assert_eq!(report.events().len(), 0);
    }
}
